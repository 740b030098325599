"""Tiny order-sensitive dual encoders over token and frame sequences.

Both towers share one shape: per-position input embedding plus a learned
positional embedding, a position-wise hidden layer, mean pooling over
positions, an output layer, and row L2 normalization. The hidden layer sits
before the pool; with purely additive positions a plain mean is permutation
invariant, so the nonlinearity must see positions to make order matter.

A batch is encoded as one op per tower: every input goes back to back,
as token ids or as frame rows, into one fused `tensor.tower` op that
embeds them with `text.embed` or `audio.proj`, adds positions, applies the
hidden layer (once per distinct (token, position) cell for text, once per
frame for audio), pools each sequence, applies the output layer and
normalizes. The text output carries the reversed captions after the N
captions, and `losses.train_loss` reads both outputs whole, so a training
step is tower, tower, `clap_loss`. Training and evaluation share
this forward pass. Every parameter's data is a view of one float64 vector,
`ModelParams.flat`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import EmptyInput, InvalidConfig, SequenceTooLong

UNK_TOKEN = "<unk>"
INIT_STD = 0.02
LOG_TEMPERATURE_INIT = math.log(1.0 / 0.07)

PARAM_ORDER = (
    "text.embed",
    "text.pos",
    "text.w1",
    "text.b1",
    "text.w2",
    "text.b2",
    "audio.proj",
    "audio.pos",
    "audio.w1",
    "audio.b1",
    "audio.w2",
    "audio.b2",
    "log_temperature",
)


@dataclass(frozen=True)
class EncoderConfig:
    frame_dim: int = 16
    vocab_size: int = 0  # 0 = take the size of the vocab passed to init_params
    token_embed_dim: int = 64
    max_positions: int = 64
    hidden_dim: int = 192
    shared_dim: int = 64

    def __post_init__(self):
        for name in ("frame_dim", "token_embed_dim", "max_positions", "hidden_dim", "shared_dim"):
            if getattr(self, name) < 1:
                raise InvalidConfig(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.vocab_size < 0:
            raise InvalidConfig(f"vocab_size must be >= 0, got {self.vocab_size}")


@dataclass(frozen=True)
class TextVocab:
    tokens: tuple[str, ...]  # tokens[0] is always <unk>
    _ids: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.tokens or self.tokens[0] != UNK_TOKEN:
            raise InvalidConfig(f"vocab must start with {UNK_TOKEN!r}")
        ids = {}
        for i, tok in enumerate(self.tokens):
            if tok in ids:
                raise InvalidConfig(f"duplicate vocab token {tok!r}")
            ids[tok] = i
        object.__setattr__(self, "_ids", ids)

    def __len__(self) -> int:
        return len(self.tokens)

    def encode(self, tokens) -> list[int]:
        return [self._ids.get(tok, 0) for tok in tokens]


def build_vocab(manifests) -> TextVocab:
    """Every caption token, in first-occurrence order; a reversed caption has
    its caption's tokens, so it adds none."""
    manifests = list(manifests)
    if not manifests:
        raise InvalidConfig("build_vocab needs at least one manifest")
    seen = dict.fromkeys(tok for manifest in manifests for rec in manifest.records
                         if hasattr(rec, "caption_pos") for tok in rec.caption_pos.tokens)
    if not seen:
        raise InvalidConfig("corpus has no caption tokens to build a vocab from")
    return TextVocab(tokens=(UNK_TOKEN, *seen.keys()))


@dataclass
class ModelParams:
    """Named parameters whose data are views of `flat`, cut in the layout param_shapes gives."""

    config: EncoderConfig
    vocab: TextVocab
    flat: np.ndarray = field(repr=False, compare=False)
    tensors: dict[str, T.Tensor] = field(init=False)

    def __post_init__(self):
        shapes = param_shapes(self.config, self.vocab)
        ends = np.cumsum([math.prod(shape) for shape in shapes.values()])
        if getattr(self.flat, "dtype", None) != np.float64 or np.shape(self.flat) != (ends[-1],):
            raise InvalidConfig(f"flat must be one float64 vector of {ends[-1]} numbers, got "
                                f"{getattr(self.flat, 'dtype', None)} {np.shape(self.flat)}")
        self.tensors = {name: T.parameter(name, part.reshape(shape)) for (name, shape), part
                        in zip(shapes.items(), np.split(self.flat, ends[:-1]))}

    def __getitem__(self, name: str) -> T.Tensor:
        return self.tensors[name]

    def named(self) -> dict[str, T.Tensor]:
        return self.tensors

    def trainable(self) -> list[T.Tensor]:
        return list(self.tensors.values())


def param_shapes(config: EncoderConfig, vocab: TextVocab) -> dict[str, tuple[int, ...]]:
    """Each parameter's shape under config and vocab, in PARAM_ORDER."""
    v = config.vocab_size or len(vocab)
    if v != len(vocab):
        raise InvalidConfig(f"config.vocab_size {config.vocab_size} != vocab size {len(vocab)}")
    e, h, d = config.token_embed_dim, config.hidden_dim, config.shared_dim
    shapes = {"text.embed": (v, e), "audio.proj": (config.frame_dim, e), "log_temperature": ()}
    for tower in ("text", "audio"):  # the towers' layers past the input table share their shapes
        shapes.update({f"{tower}.pos": (config.max_positions, e), f"{tower}.w1": (e, h),
                       f"{tower}.b1": (h,), f"{tower}.w2": (h, d), f"{tower}.b2": (d,)})
    return {name: shapes[name] for name in PARAM_ORDER}


def param_count(config: EncoderConfig, vocab: TextVocab) -> int:
    """The length of the flat vector that holds every parameter under config and vocab."""
    return sum(math.prod(shape) for shape in param_shapes(config, vocab).values())


def init_params(config: EncoderConfig, vocab: TextVocab, seed: int) -> ModelParams:
    """Weights and positional tables N(0, 0.02), biases zero, temperature ln(1/0.07).

    Tensors are drawn in PARAM_ORDER from a single generator; the order is
    part of the format (same seed, same bits).
    """
    rng = np.random.default_rng(seed)
    params = ModelParams(config, vocab, np.zeros(param_count(config, vocab)))
    for name, t in params.named().items():
        if name == "log_temperature":
            t.data[...] = LOG_TEMPERATURE_INIT
        elif not name.endswith((".b1", ".b2")):
            t.data[...] = INIT_STD * rng.standard_normal(t.data.shape)
    return params


def _encode_groups(params: ModelParams, tower: str, inputs: list) -> T.Tensor:
    """Shared batched tower: inputs are token-id lists (text) or T x F arrays (audio).

    All inputs go back to back into one `tower` op, as one array of token
    ids into `text.embed` or as frame rows against `audio.proj`; `tower`
    checks the ids' range. Rows come out in input order.
    """
    cfg = params.config
    if not inputs:
        raise EmptyInput(f"{tower} batch is empty")
    for i, item in enumerate(inputs):
        if tower == "audio" and (item.ndim != 2 or item.shape[1] != cfg.frame_dim):
            raise InvalidConfig(f"clip must be T x {cfg.frame_dim}, got shape {item.shape}")
        if not 1 <= len(item) <= cfg.max_positions:
            error = EmptyInput if len(item) < 1 else SequenceTooLong
            raise error(f"{tower} input {i} has {len(item)} positions, max is {cfg.max_positions}")
    if tower == "text":
        table = params["text.embed"]
        rows = np.concatenate([np.asarray(item, dtype=np.int64) for item in inputs])
    else:
        table = params["audio.proj"]
        rows = np.concatenate(inputs, axis=0)
    layers = (params[f"{tower}.{name}"] for name in ("pos", "w1", "b1", "w2", "b2"))
    return T.tower(rows, table, *layers, [len(item) for item in inputs])


def encode_text_batch(params: ModelParams, token_seqs) -> T.Tensor:
    return _encode_groups(params, "text", [params.vocab.encode(toks) for toks in token_seqs])


def encode_audio_batch(params: ModelParams, clips) -> T.Tensor:
    return _encode_groups(params, "audio", [np.asarray(c) for c in clips])


@dataclass
class BatchEmbeddings:
    audio: T.Tensor  # N x D
    text: T.Tensor  # (N + M) x D: each record's caption, then each flagged row's reversal
    temporal_rows: tuple[int, ...]  # batch row of each reversed caption, in mask order


def forward_batch(params: ModelParams, records, temporal_mask) -> BatchEmbeddings:
    """Embed a batch of records, one tower op each for text and audio; rows
    flagged in temporal_mask also embed their order-reversed caption, after
    the N captions in the text output."""
    records = list(records)
    mask = list(temporal_mask)
    if not records:
        raise EmptyInput("forward_batch got an empty batch")
    if len(mask) != len(records):
        raise InvalidConfig(f"mask length {len(mask)} != batch size {len(records)}")
    temporal_rows = tuple(i for i, flag in enumerate(mask) if flag)
    seqs = [params.vocab.encode(r.caption_pos.tokens) for r in records]
    seqs += [params.vocab.encode(records[i].caption_neg.tokens) for i in temporal_rows]
    text = _encode_groups(params, "text", seqs)
    audio = _encode_groups(params, "audio", [r.clip.frames for r in records])
    return BatchEmbeddings(audio=audio, text=text, temporal_rows=temporal_rows)
