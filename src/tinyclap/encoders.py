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
step is tower, tower, `clap_loss`. Every encode goes through one array
entry, `encode_sequences`, so training and evaluation share this forward
pass. Every record set is encoded once as a pool (`encode_pool`: captions, and their
reversals if asked, as ids from the vocab's piece table, lengths and clip shapes
checked): evaluation encodes a test set's pool whole, a training batch is a gather from
its pool (`forward_pool`), and `forward_batch` is a pool of just its records, with
reversals only if a row is flagged. Every parameter's data is a view of one float64
vector, `ModelParams.flat`. A model is a value: its layers are constants, so no encode
of it builds backward state. Only a training run's own copy holds a gradient vector,
`ModelParams.grad`, cut the same way into each parameter's gradient buffer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, repeat

import numpy as np

from . import tensor as T
from .corpus import piece_words
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
    """Token ids, <unk> (id 0) for any word it lacks; a caption's ids are its pieces'."""

    tokens: tuple[str, ...]  # tokens[0] is always <unk>
    _ids: dict[str, int] = field(init=False, repr=False, compare=False)
    _pieces: dict = field(init=False, repr=False, compare=False)  # piece -> ids, filled on use

    def __post_init__(self):
        if not self.tokens or self.tokens[0] != UNK_TOKEN:
            raise InvalidConfig(f"vocab must start with {UNK_TOKEN!r}")
        ids = {}
        for i, tok in enumerate(self.tokens):
            if not isinstance(tok, str):
                raise InvalidConfig(f"vocab token {i} is {tok!r}, not a string")
            if tok in ids:
                raise InvalidConfig(f"duplicate vocab token {tok!r}")
            ids[tok] = i
        object.__setattr__(self, "_ids", ids)
        object.__setattr__(self, "_pieces", {})

    def __len__(self) -> int:
        return len(self.tokens)

    def encode(self, tokens) -> list[int]:
        return list(map(self._ids.get, tokens, repeat(0)))

    def encode_captions(self, captions: list, with_reversals: bool) -> tuple[list[int], list[int]]:
        """The captions' ids back to back, then their reversals' if asked, and the lengths:
        name, connector, name, ... from the piece table, as `encode(caption.tokens)`."""
        pieces, ids, lens = self._pieces, [], []
        for piece in {p for c in captions for p in (c.connector, *c.event_ids)}.difference(pieces):
            pieces[piece] = self.encode(piece_words(piece))  # each event id or connector once
        for order in (1, -1)[: 1 + with_reversals]:
            for caption in captions:
                connector, start = pieces[caption.connector], len(ids)
                first, *rest = caption.event_ids[::order]
                ids += pieces[first]
                for event_id in rest:
                    ids += connector
                    ids += pieces[event_id]
                lens.append(len(ids) - start)
        return ids, lens


def build_vocab(manifests) -> TextVocab:
    """Every caption token, in first-occurrence order over the captions' pieces, then their
    words; a reversed caption has its caption's pieces, so it adds none."""
    manifests = list(manifests)
    if not manifests:
        raise InvalidConfig("build_vocab needs at least one manifest")
    captions = [rec.caption_pos for manifest in manifests for rec in manifest.records
                if hasattr(rec, "caption_pos")]
    # a caption's pieces in first-occurrence order: its first event, its connector, the rest
    pieces = dict.fromkeys(piece for c in captions
                           for piece in (c.event_ids[0], c.connector, *c.event_ids[1:]))
    seen = dict.fromkeys(tok for piece in pieces for tok in piece_words(piece))
    if not seen:
        raise InvalidConfig("corpus has no caption tokens to build a vocab from")
    return TextVocab(tokens=(UNK_TOKEN, *seen.keys()))


@dataclass
class ModelParams:
    """Named parameters, data views of `flat`: constants, unless a training run gives
    `grad`, whose same cuts are then their gradient buffers."""

    config: EncoderConfig
    vocab: TextVocab
    flat: np.ndarray = field(repr=False, compare=False)
    grad: np.ndarray | None = field(default=None, repr=False, compare=False)
    tensors: dict[str, T.Tensor] = field(init=False)

    def __post_init__(self):
        shapes = param_shapes(self.config, self.vocab)
        ends = np.cumsum([math.prod(shape) for shape in shapes.values()])
        if getattr(self.flat, "dtype", None) != np.float64 or np.shape(self.flat) != (ends[-1],):
            raise InvalidConfig(f"flat must be one float64 vector of {ends[-1]} numbers, got "
                                f"{getattr(self.flat, 'dtype', None)} {np.shape(self.flat)}")
        grads = repeat(None) if self.grad is None else np.split(self.grad, ends[:-1])
        parts = zip(shapes.items(), np.split(self.flat, ends[:-1]), grads)
        self.tensors = {name: T.Tensor(data.reshape(shape), name) if g is None
                        else T.parameter(name, data.reshape(shape), g.reshape(shape))
                        for (name, shape), data, g in parts}

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


def _checked_lengths(cfg: EncoderConfig, tower: str, lengths) -> np.ndarray:
    """Sequence lengths as int64, each in [1, max_positions]: one array check per bound."""
    lens = np.asarray(lengths, dtype=np.int64)
    if lens.size == 0:
        raise EmptyInput(f"{tower} batch is empty")
    for bad, error in ((lens < 1, EmptyInput), (lens > cfg.max_positions, SequenceTooLong)):
        if bad.any():
            i = int(bad.argmax())
            raise error(f"{tower} input {i} has {lens[i]} positions, max is {cfg.max_positions}")
    return lens


def _text_ids(params: ModelParams, ids: list[int], lengths) -> tuple[np.ndarray, np.ndarray]:
    """The ids as one array of the narrowest unsigned type for params.vocab; lengths checked."""
    lens = _checked_lengths(params.config, "text", lengths)
    return np.array(ids, dtype=np.min_scalar_type(len(params.vocab) - 1)), lens


def _clip_lengths(cfg: EncoderConfig, clips) -> np.ndarray:
    """Each clip's length, checked; every clip must be T x frame_dim."""
    bad = next((c.shape for c in clips if c.ndim != 2 or c.shape[1] != cfg.frame_dim), None)
    if bad is not None:
        raise InvalidConfig(f"clip must be T x {cfg.frame_dim}, got shape {bad}")
    return _checked_lengths(cfg, "audio", [len(c) for c in clips])


def encode_sequences(params: ModelParams, tower: str, rows: np.ndarray, lengths) -> T.Tensor:
    """The one forward entry of both towers: sequences packed back to back, as
    integer token ids of `text.embed` rows or float64 frame rows against
    `audio.proj`, one `tower` op. Callers check the lengths and clip shapes;
    `tower` checks that the lengths split the rows and the ids' range. Rows
    come out in input order, with a backward only if params holds a gradient vector."""
    table = params["text.embed" if tower == "text" else "audio.proj"]
    layers = (params[f"{tower}.{name}"] for name in ("pos", "w1", "b1", "w2", "b2"))
    return T.tower(rows, table, *layers, lengths)


def encode_text_batch(params: ModelParams, token_seqs) -> T.Tensor:
    token_seqs = list(token_seqs)
    ids = params.vocab.encode(chain.from_iterable(token_seqs))
    return encode_sequences(params, "text", *_text_ids(params, ids, [len(t) for t in token_seqs]))


def encode_audio_batch(params: ModelParams, clips) -> T.Tensor:
    clips = [np.asarray(c) for c in clips]
    lens = _clip_lengths(params.config, clips)
    return encode_sequences(params, "audio", np.concatenate(clips, dtype=np.float64), lens)


@dataclass(frozen=True)
class PoolArrays:
    """R records as the towers take them, encoded and checked once.

    Sequence k < R is record k's caption and, if the pool holds reversals, sequence
    R + k its reversed caption; sequence j's token ids are ids[starts[j]:][:lens[j]].
    Clips stay the records' own float32 arrays, cast per batch.
    """

    ids: np.ndarray  # unsigned, as narrow as the vocab allows: a pool holds ~30 ids a record
    starts: np.ndarray
    lens: np.ndarray
    clips: tuple[np.ndarray, ...]
    clip_lens: np.ndarray


def encode_pool(params: ModelParams, records, with_reversals: bool) -> PoolArrays:
    """Every record's caption, then its reversed caption if asked, as ids from params.vocab's
    piece table, each length checked against max_positions, and every clip's shape checked."""
    captions = [r.caption_pos for r in records]
    ids, lens = _text_ids(params, *params.vocab.encode_captions(captions, with_reversals))
    clips = tuple(r.clip.frames for r in records)
    return PoolArrays(ids, np.cumsum(lens) - lens, lens, clips, _clip_lengths(params.config, clips))


@dataclass
class BatchEmbeddings:
    audio: T.Tensor  # N x D
    text: T.Tensor  # (N + M) x D: each record's caption, then each flagged row's reversal
    temporal_rows: tuple[int, ...]  # batch row of each reversed caption, in mask order


def forward_pool(params: ModelParams, pool: PoolArrays, batch: np.ndarray,
                 temporal_rows: np.ndarray) -> BatchEmbeddings:
    """Embed the pool's records at indices `batch`, one tower op each for text
    and audio: the text output holds their N captions, then the reversed
    caption of each of `temporal_rows` (rising batch rows). The token ids are
    one gather and the frames one concatenate."""
    seqs = np.concatenate((batch, batch[temporal_rows] + len(pool.clips)))
    lens = pool.lens[seqs]
    ends = np.cumsum(lens)
    ids = pool.ids[np.repeat(pool.starts[seqs] - (ends - lens), lens) + np.arange(ends[-1])]
    text = encode_sequences(params, "text", ids, lens)
    frames = np.concatenate([pool.clips[i] for i in batch.tolist()], dtype=np.float64)
    audio = encode_sequences(params, "audio", frames, pool.clip_lens[batch])
    return BatchEmbeddings(audio=audio, text=text, temporal_rows=tuple(temporal_rows.tolist()))


def forward_batch(params: ModelParams, records, temporal_mask) -> BatchEmbeddings:
    """Embed a batch of records through `forward_pool`; rows flagged in
    temporal_mask also embed their order-reversed caption, after the N
    captions in the text output. A mask that flags no row encodes no reversal."""
    records = list(records)
    mask = np.asarray(list(temporal_mask), dtype=bool)
    if not records:
        raise EmptyInput("forward_batch got an empty batch")
    if len(mask) != len(records):
        raise InvalidConfig(f"mask length {len(mask)} != batch size {len(records)}")
    return forward_pool(params, encode_pool(params, records, mask.any()),
                        np.arange(len(records)), np.flatnonzero(mask))
