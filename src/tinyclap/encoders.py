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
from .errors import EmptyInput, InvalidConfig, MissingNegative, SequenceTooLong

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
    """Every caption token (positives then the record's negative), in first-occurrence order."""
    manifests = list(manifests)
    if not manifests:
        raise InvalidConfig("build_vocab needs at least one manifest")
    seen: dict[str, None] = {}
    n_tokens = 0
    for manifest in manifests:
        for rec in manifest.records:
            for cap in (getattr(rec, "caption_pos", None), getattr(rec, "caption_neg", None)):
                if cap is None:
                    continue
                for tok in cap.tokens:
                    n_tokens += 1
                    seen.setdefault(tok, None)
    if n_tokens == 0:
        raise InvalidConfig("corpus has no caption tokens to build a vocab from")
    return TextVocab(tokens=(UNK_TOKEN, *seen.keys()))


def flat_views(arrays: dict) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Copies of the arrays end to end in one float64 vector, and a view of it per name."""
    flat = np.concatenate([np.asarray(a, dtype=np.float64).ravel() for a in arrays.values()])
    parts = np.split(flat, np.cumsum([np.size(a) for a in arrays.values()])[:-1])
    return flat, {name: part.reshape(np.shape(a)) for (name, a), part in zip(arrays.items(), parts)}


@dataclass
class ModelParams:
    """Named parameters whose data are views into `flat`, packed anew from the given tensors."""

    config: EncoderConfig
    vocab: TextVocab
    tensors: dict[str, T.Tensor]
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.flat, views = flat_views({name: t.data for name, t in self.tensors.items()})
        self.tensors = {name: T.parameter(name, view) for name, view in views.items()}

    def __getitem__(self, name: str) -> T.Tensor:
        return self.tensors[name]

    def named(self) -> dict[str, T.Tensor]:
        return self.tensors

    def trainable(self) -> list[T.Tensor]:
        return list(self.tensors.values())


def param_shapes(config: EncoderConfig, vocab: TextVocab) -> dict[str, tuple[int, ...]]:
    """Each parameter's shape under config and vocab."""
    v = config.vocab_size or len(vocab)
    if v != len(vocab):
        raise InvalidConfig(f"config.vocab_size {config.vocab_size} != vocab size {len(vocab)}")
    e, h, d = config.token_embed_dim, config.hidden_dim, config.shared_dim
    shapes = {"text.embed": (v, e), "audio.proj": (config.frame_dim, e), "log_temperature": ()}
    for tower in ("text", "audio"):  # the towers' layers past the input table share their shapes
        shapes.update({f"{tower}.pos": (config.max_positions, e), f"{tower}.w1": (e, h),
                       f"{tower}.b1": (h,), f"{tower}.w2": (h, d), f"{tower}.b2": (d,)})
    return shapes


def init_params(config: EncoderConfig, vocab: TextVocab, seed: int) -> ModelParams:
    """Weights and positional tables N(0, 0.02), biases zero, temperature ln(1/0.07).

    Tensors are drawn in PARAM_ORDER from a single generator; the order is
    part of the format (same seed, same bits).
    """
    shapes = param_shapes(config, vocab)
    rng = np.random.default_rng(seed)
    tensors: dict[str, T.Tensor] = {}
    for name in PARAM_ORDER:
        shape = shapes[name]
        if name == "log_temperature":
            data = np.array(LOG_TEMPERATURE_INIT)
        elif name.endswith((".b1", ".b2")):
            data = np.zeros(shape)
        else:
            data = INIT_STD * rng.standard_normal(shape)
        tensors[name] = T.parameter(name, data)
    return ModelParams(config=config, vocab=vocab, tensors=tensors)


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
    for i in temporal_rows:
        if records[i].caption_neg is None:
            raise MissingNegative(f"batch row {i} is flagged temporal but has no caption_neg")

    seqs = [params.vocab.encode(r.caption_pos.tokens) for r in records]
    seqs += [params.vocab.encode(records[i].caption_neg.tokens) for i in temporal_rows]
    text = _encode_groups(params, "text", seqs)
    audio = _encode_groups(params, "audio", [r.clip.frames for r in records])
    return BatchEmbeddings(audio=audio, text=text, temporal_rows=temporal_rows)
