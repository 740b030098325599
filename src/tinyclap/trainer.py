"""Training loop: mixed batches, linear warmup, one flat Adam pass, binary checkpoints.

Each batch draws floor(batch_size * temporal_fraction) records from the
order-negative pool (mask true) and the rest from the primary pool, without
replacement within a batch, then shuffles. Training state is a pure function
of (config, data, seed): the checkpoint carries parameters, optimizer
moments, and the batch generator's bit state, so an interrupted run resumed
at a checkpoint boundary reproduces the uninterrupted run bit for bit.
"""

from __future__ import annotations

import json
import math
import struct
from contextlib import ExitStack
from dataclasses import asdict, dataclass, field
from dataclasses import replace as dc_replace
from pathlib import Path

import numpy as np

from . import tensor as T
from .corpus import DatasetManifest, load_manifest
from .encoders import (
    PARAM_ORDER,
    EncoderConfig,
    ModelParams,
    TextVocab,
    build_vocab,
    flat_views,
    forward_batch,
    init_params,
    param_shapes,
)
from .errors import EmptyPool, FormatError, InvalidConfig, NumericError
from .losses import LossConfig, train_loss

CHECKPOINT_MAGIC = b"TCKP"
CHECKPOINT_VERSION = 1
LOG_TEMPERATURE_MIN = -math.log(100.0)
LOG_TEMPERATURE_MAX = math.log(100.0)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 3000
    batch_size: int = 64
    base_lr: float = 1e-3
    warmup_steps: int = 300
    temporal_fraction: float = 0.2  # 1:4 negative:primary within each batch
    seed: int = 0
    checkpoint_every: int = 0  # 0 = final checkpoint only
    order_loss_start_step: int = 0  # steps before this train with lambda_l = 0
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    loss: LossConfig = field(default_factory=LossConfig)

    def __post_init__(self):
        if self.steps < 0 or self.batch_size < 1:
            raise InvalidConfig(
                f"need steps >= 0 and batch_size >= 1, got {self.steps}, {self.batch_size}"
            )
        if self.warmup_steps < 0 or self.warmup_steps > max(self.steps, 1):
            raise InvalidConfig(
                f"warmup_steps must be in [0, steps], got {self.warmup_steps} vs {self.steps}"
            )
        if not 0.0 <= self.temporal_fraction <= 1.0:
            raise InvalidConfig(f"temporal_fraction must be in [0,1], got {self.temporal_fraction}")
        if self.checkpoint_every < 0:
            raise InvalidConfig(f"checkpoint_every must be >= 0, got {self.checkpoint_every}")
        if self.order_loss_start_step < 0:
            raise InvalidConfig(
                f"order_loss_start_step must be >= 0, got {self.order_loss_start_step}"
            )
        if not np.isfinite(self.base_lr) or self.base_lr <= 0:
            raise InvalidConfig(f"base_lr must be finite and > 0, got {self.base_lr}")

    @property
    def lambda_l(self) -> float:
        return self.loss.lambda_l


def compose_batch(primary_pool, temporal_pool, batch_size, temporal_fraction, rng):
    """Returns (records, temporal_mask); draw order is temporal idx, primary idx, shuffle."""
    n_temporal = math.floor(batch_size * temporal_fraction + 1e-9)
    n_primary = batch_size - n_temporal
    if n_temporal > len(temporal_pool):
        raise EmptyPool(
            f"batch needs {n_temporal} order-negative records, pool has {len(temporal_pool)}"
        )
    if n_primary > len(primary_pool):
        raise EmptyPool(f"batch needs {n_primary} primary records, pool has {len(primary_pool)}")
    picks: list = []
    mask: list[bool] = []
    if n_temporal:
        for i in rng.choice(len(temporal_pool), size=n_temporal, replace=False):
            picks.append(temporal_pool[int(i)])
            mask.append(True)
    if n_primary:
        for i in rng.choice(len(primary_pool), size=n_primary, replace=False):
            picks.append(primary_pool[int(i)])
            mask.append(False)
    perm = rng.permutation(batch_size)
    return [picks[int(i)] for i in perm], [mask[int(i)] for i in perm]


def lr_schedule(step: int, config: TrainConfig) -> float:
    if step < 0:
        raise InvalidConfig(f"step must be >= 0, got {step}")
    if config.warmup_steps <= 0:
        return config.base_lr
    return config.base_lr * min(1.0, (step + 1) / config.warmup_steps)


@dataclass
class OptimizerState:
    """Adam moments; m and v are views into m_flat and v_flat, packed anew from the arrays given."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0
    beta1: float = ADAM_BETA1
    beta2: float = ADAM_BETA2
    eps: float = ADAM_EPS
    m_flat: np.ndarray = field(init=False, repr=False, compare=False)
    v_flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        (self.m_flat, self.m), (self.v_flat, self.v) = flat_views(self.m), flat_views(self.v)


def init_optimizer(params: ModelParams) -> OptimizerState:
    zeros = {name: np.zeros_like(t.data) for name, t in params.named().items()}
    return OptimizerState(m=zeros, v=zeros)


def adam_step(params: ModelParams, grads, state: OptimizerState, lr: float) -> None:
    """In-place Adam with bias correction over the flat vectors, in the
    textbook formula's operation order; log_temperature clamped afterwards."""
    t = state.step + 1
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    named = params.named()
    for name, p in named.items():
        if np.shape(grads[name]) != p.data.shape:
            raise InvalidConfig(f"gradient shape {np.shape(grads[name])} != {p.data.shape} "
                                f"for {name!r}")
    g = np.concatenate([np.asarray(grads[name], dtype=np.float64).ravel() for name in named])
    if not np.isfinite(g).all():
        bad = next(name for name in named if not np.isfinite(grads[name]).all())
        raise NumericError(f"non-finite gradient for parameter {bad!r} at step {t}")
    m, v, buf = state.m_flat, state.v_flat, np.empty_like(g)
    m *= state.beta1
    m += np.multiply(1.0 - state.beta1, g, out=buf)
    v *= state.beta2
    v += np.multiply(1.0 - state.beta2, np.multiply(g, g, out=g), out=g)
    np.multiply(lr, np.divide(m, bc1, out=buf), out=buf)
    buf /= np.add(np.sqrt(np.divide(v, bc2, out=g), out=g), state.eps, out=g)
    params.flat -= buf
    lt = params["log_temperature"].data
    np.clip(lt, LOG_TEMPERATURE_MIN, LOG_TEMPERATURE_MAX, out=lt)
    state.step = t


@dataclass
class Checkpoint:
    params: ModelParams
    train_config: TrainConfig
    optimizer: OptimizerState
    step: int
    rng_state: dict


# -- checkpoint file format ------------------------------------------------------
# "TCKP" + u32 version, then sections of (u32 name length, name bytes,
# u64 payload length, payload). "meta" holds canonical JSON; each tensor
# section holds u32 ndim, u32 per dim, then little-endian f64 values.


def _dump_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _tensor_payload(arr: np.ndarray) -> bytes:
    shape = arr.shape
    head = struct.pack("<I", len(shape)) + b"".join(struct.pack("<I", d) for d in shape)
    return head + np.ascontiguousarray(arr, dtype="<f8").tobytes()


def _tensor_from_payload(raw: bytes, where: str) -> np.ndarray:
    if len(raw) < 4:
        raise FormatError(f"{where}: truncated tensor section")
    (ndim,) = struct.unpack_from("<I", raw, 0)
    if len(raw) < 4 + 4 * ndim:
        raise FormatError(f"{where}: truncated tensor shape")
    shape = struct.unpack_from(f"<{ndim}I", raw, 4) if ndim else ()
    body = raw[4 + 4 * ndim :]
    count = int(np.prod(shape, dtype=np.int64)) if ndim else 1
    if len(body) != 8 * count:
        raise FormatError(f"{where}: tensor payload is {len(body)} bytes, expected {8 * count}")
    return np.frombuffer(body, dtype="<f8").reshape(shape)  # the loader packs copies


def _write_section(out: list[bytes], name: str, payload: bytes) -> None:
    nb = name.encode("utf-8")
    out.append(struct.pack("<I", len(nb)) + nb + struct.pack("<Q", len(payload)) + payload)


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    meta = {
        "step": ckpt.step,
        "train_config": asdict(ckpt.train_config),
        "vocab": list(ckpt.params.vocab.tokens),
        "optimizer": {
            "step": ckpt.optimizer.step,
            "beta1": ckpt.optimizer.beta1,
            "beta2": ckpt.optimizer.beta2,
            "eps": ckpt.optimizer.eps,
        },
        "param_names": list(ckpt.params.named().keys()),
    }
    blobs: list[bytes] = [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION)]
    _write_section(blobs, "meta", _dump_json(meta))
    for name, p in ckpt.params.named().items():
        _write_section(blobs, f"tensor:{name}", _tensor_payload(p.data))
        _write_section(blobs, f"adam.m:{name}", _tensor_payload(ckpt.optimizer.m[name]))
        _write_section(blobs, f"adam.v:{name}", _tensor_payload(ckpt.optimizer.v[name]))
    _write_section(blobs, "rng", _dump_json(ckpt.rng_state))
    path.write_bytes(b"".join(blobs))


def load_checkpoint(path) -> Checkpoint:
    path = Path(path)
    if not path.is_file():
        raise FormatError(f"checkpoint {path} does not exist")
    raw = path.read_bytes()
    if len(raw) < 8 or raw[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: bad checkpoint magic (expected {CHECKPOINT_MAGIC!r})")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != CHECKPOINT_VERSION:
        raise FormatError(
            f"{path}: checkpoint version {version}, this build reads {CHECKPOINT_VERSION}"
        )
    sections: dict[str, bytes] = {}
    off = 8
    while off < len(raw):
        if off + 4 > len(raw):
            raise FormatError(f"{path}: truncated section header")
        (nlen,) = struct.unpack_from("<I", raw, off)
        off += 4
        if off + nlen + 8 > len(raw):
            raise FormatError(f"{path}: truncated section header")
        try:
            name = raw[off : off + nlen].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: section name is not UTF-8: {exc}") from exc
        off += nlen
        (plen,) = struct.unpack_from("<Q", raw, off)
        off += 8
        if off + plen > len(raw):
            raise FormatError(f"{path}: truncated payload for section {name!r}")
        sections[name] = raw[off : off + plen]
        off += plen
    if "meta" not in sections or "rng" not in sections:
        raise FormatError(f"{path}: missing required sections (meta, rng)")
    try:
        meta = json.loads(sections["meta"])
        rng_state = json.loads(sections["rng"])
    except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
        raise FormatError(f"{path}: bad JSON section: {exc}") from exc
    try:
        tc = dict(meta["train_config"])
        tc["encoder"] = EncoderConfig(**tc["encoder"])
        tc["loss"] = LossConfig(**tc["loss"])
        train_config = TrainConfig(**tc)
        vocab = TextVocab(tokens=tuple(meta["vocab"]))
        shapes = param_shapes(train_config.encoder, vocab)
        if meta["param_names"] != list(PARAM_ORDER):
            raise ValueError(f"parameter names {meta['param_names']} are not {list(PARAM_ORDER)}")
        step = int(meta["step"])
        opt_meta = meta["optimizer"]
        opt_step = int(opt_meta["step"])
        beta1, beta2, eps = (float(opt_meta[key]) for key in ("beta1", "beta2", "eps"))
        np.random.default_rng().bit_generator.state = rng_state  # a state resume can set
    except (KeyError, TypeError, ValueError, InvalidConfig) as exc:
        raise FormatError(f"{path}: bad meta or rng section: {exc!r}") from exc
    arrays: dict[str, dict[str, np.ndarray]] = {"tensor": {}, "adam.m": {}, "adam.v": {}}
    for name in PARAM_ORDER:
        for kind, store in arrays.items():
            key = f"{kind}:{name}"
            if key not in sections:
                raise FormatError(f"{path}: missing section {key!r}")
            store[name] = _tensor_from_payload(sections[key], f"{path} [{key}]")
            if store[name].shape != shapes[name]:
                raise FormatError(f"{path} [{key}]: shape {store[name].shape}, the config and "
                                  f"vocab give {shapes[name]}")
    tensors = {name: T.parameter(name, arr) for name, arr in arrays["tensor"].items()}
    params = ModelParams(config=train_config.encoder, vocab=vocab, tensors=tensors)
    optimizer = OptimizerState(m=arrays["adam.m"], v=arrays["adam.v"], step=opt_step,
                               beta1=beta1, beta2=beta2, eps=eps)
    return Checkpoint(params=params, train_config=train_config, optimizer=optimizer, step=step,
                      rng_state=rng_state)


# -- training loop ---------------------------------------------------------------

def _as_manifest(m) -> DatasetManifest:
    return m if isinstance(m, DatasetManifest) else load_manifest(m)


def _with_vocab(config: TrainConfig, vocab: TextVocab) -> TrainConfig:
    """Resolves `encoder.vocab_size: 0` to the vocab's size."""
    if config.encoder.vocab_size:
        return config
    return dc_replace(config, encoder=dc_replace(config.encoder, vocab_size=len(vocab)))


def init_run(config: TrainConfig, primary, temporal=None) -> tuple[TrainConfig, ModelParams]:
    """Vocab from both corpora (negatives included), fresh parameters.

    This is exactly the step-0 state of train(); kept separate so an
    untrained baseline can be built without running the loop.
    """
    primary = _as_manifest(primary)
    temporal = _as_manifest(temporal) if temporal is not None else None
    manifests = [primary] + ([temporal] if temporal is not None else [])
    vocab = build_vocab(manifests)
    config = _with_vocab(config, vocab)
    return config, init_params(config.encoder, vocab, config.seed)


def _metric_line(step, lr, breakdown) -> str:
    rec = {
        "step": step,
        "lr": lr,
        "l_c": float(breakdown.l_c.data),
        "l_t": float(breakdown.l_t.data),
        "l_train": float(breakdown.l_train.data),
        "temporal_count": breakdown.temporal_count,
    }
    return json.dumps(rec, sort_keys=True, separators=(",", ":"))


def _metric_lines_before(path: Path, step: int) -> str:
    """The complete lines of an existing metrics log for steps below `step`."""
    if not path.is_file():
        return ""
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: metrics log is not UTF-8: {exc}") from exc
    kept = []
    for line in text[: text.rfind("\n") + 1].splitlines(keepends=True):  # drops a torn last line
        try:
            line_step = json.loads(line)["step"]
            if type(line_step) is not int:
                raise TypeError(f"step {line_step!r} is not an integer")
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise FormatError(f"{path}: bad metrics line {line!r}: {exc}") from exc
        if line_step < step:
            kept.append(line)
    return "".join(kept)


def _pools(config: TrainConfig, primary_manifest, temporal_manifest):
    """Both manifests and their record pools, checked against the batch mix."""
    primary = _as_manifest(primary_manifest)
    temporal = _as_manifest(temporal_manifest) if temporal_manifest is not None else None
    if temporal is not None and temporal.catalog_ref != primary.catalog_ref:
        raise InvalidConfig("primary and temporal manifests reference different catalogs")
    if temporal is None and math.floor(config.batch_size * config.temporal_fraction + 1e-9) > 0:
        raise EmptyPool("temporal_fraction > 0 but no order-negative manifest given")
    temporal_pool = list(temporal.records) if temporal is not None else []
    for rec in temporal_pool:
        if rec.caption_neg is None:
            raise InvalidConfig(f"temporal record {rec.record_id} lacks a negative caption")
    return primary, temporal, (list(primary.records), temporal_pool)


def _start(config: TrainConfig, primary, temporal) -> Checkpoint:
    """The step-0 state; the batch stream is seeded apart from the weight init stream."""
    config, params = init_run(config, primary, temporal)
    rng_state = np.random.default_rng([config.seed, 1]).bit_generator.state
    return Checkpoint(params, config, init_optimizer(params), 0, rng_state)


def _run_steps(config, pools, state: Checkpoint, stop: int, runs) -> None:
    """Advances `state` to step `stop` under config. Each of `runs`, an
    (out_dir, config, earlier metrics lines) triple, gets a metrics log of
    its earlier lines and every step's line, and checkpoints at its own
    config's cadence, stamped with that config."""
    primary_pool, temporal_pool = pools
    params, opt = state.params, state.optimizer
    rng = np.random.default_rng()
    rng.bit_generator.state = state.rng_state
    warmup_loss = dc_replace(config.loss, lambda_l=0.0)
    with ExitStack() as stack:
        logs = []
        for out_dir, _, earlier_lines in runs:
            out_dir.mkdir(parents=True, exist_ok=True)
            logs.append(stack.enter_context(open(out_dir / "metrics.jsonl", "w", encoding="utf-8")))
            logs[-1].write(earlier_lines)
        for step in range(state.step, stop):
            lr = lr_schedule(step, config)
            records, mask = compose_batch(
                primary_pool, temporal_pool, config.batch_size, config.temporal_fraction, rng
            )
            emb = forward_batch(params, records, mask)
            loss_cfg = warmup_loss if step < config.order_loss_start_step else config.loss
            breakdown = train_loss(emb, loss_cfg, params["log_temperature"])
            grads = T.backward(breakdown.l_train, params.trainable())
            adam_step(params, grads, opt, lr)
            line = _metric_line(step, lr, breakdown) + "\n"
            for (out_dir, run_config, _), log in zip(runs, logs):
                log.write(line)
                every = run_config.checkpoint_every
                if every and (step + 1) % every == 0:
                    log.flush()
                    save_checkpoint(dc_replace(state, train_config=run_config, step=step + 1,
                                               rng_state=rng.bit_generator.state),
                                    out_dir / f"step{step + 1:06d}.tckp")
    state.step, state.rng_state = max(state.step, stop), rng.bit_generator.state


def train(
    config: TrainConfig,
    primary_manifest,
    temporal_manifest=None,
    out_dir=".",
    resume_from=None,
) -> Checkpoint:
    """Run the loop; writes metrics.jsonl and final.tckp under out_dir.

    resume_from is a checkpoint file or a `Checkpoint` value; a value is left
    as it was, and its train_config may differ from `config`, which governs
    the steps that follow. The run keeps the metrics log's lines for the
    steps before the checkpoint and appends the rest; the result is
    bit-identical to the uninterrupted run.
    """
    primary, temporal, pools = _pools(config, primary_manifest, temporal_manifest)
    out_dir = Path(out_dir)
    if resume_from is None:
        state, earlier_lines = _start(config, primary, temporal), ""
    else:  # a value is copied: ModelParams and OptimizerState pack their arrays anew
        state = (load_checkpoint(resume_from) if not isinstance(resume_from, Checkpoint) else
                 dc_replace(resume_from, params=dc_replace(resume_from.params),
                            optimizer=dc_replace(resume_from.optimizer)))
        earlier_lines = _metric_lines_before(out_dir / "metrics.jsonl", state.step)
    config = _with_vocab(config, state.params.vocab)  # resolved as init_run does
    _run_steps(config, pools, state, config.steps, [(out_dir, config, earlier_lines)])
    state.train_config = config
    save_checkpoint(state, out_dir / "final.tckp")
    return state


def train_fork(branches, primary_manifest, temporal_manifest, fork_step: int) -> list[Checkpoint]:
    """Trains runs that share their first fork_step steps, doing those steps once.

    `branches` holds (config, out_dir) pairs whose configs differ at most in
    `order_loss_start_step` and `loss.lambda_l`, and train with lambda_l = 0
    before fork_step. The shared steps write their metrics lines, and their
    checkpoints stamped with each branch's config, into every out_dir; then
    each branch resumes from the shared state. Each out_dir ends up
    byte-identical to a standalone train() with its config.
    """
    primary, temporal, pools = _pools(branches[0][0], primary_manifest, temporal_manifest)
    state = _start(branches[0][0], primary, temporal)
    lead = state.train_config
    runs = [(Path(out_dir), _with_vocab(config, state.params.vocab), "")
            for config, out_dir in branches]
    for _, config, _ in runs:
        same = dc_replace(config, loss=dc_replace(config.loss, lambda_l=lead.lambda_l),
                          order_loss_start_step=lead.order_loss_start_step)
        if same != lead or not 0 <= fork_step <= config.steps or (
                config.lambda_l and config.order_loss_start_step < fork_step):
            raise InvalidConfig(f"branch configs do not share their first {fork_step} steps")
    _run_steps(lead, pools, state, fork_step, runs)
    return [train(config, primary, temporal, out_dir, resume_from=state)
            for out_dir, config, _ in runs]
