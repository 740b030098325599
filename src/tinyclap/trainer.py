"""Training loop: mixed batches, linear warmup, one flat Adam pass, binary checkpoints.

Each batch draws floor(batch_size * temporal_fraction) records from the
order-negative pool (mask true) and the rest from the primary pool, without
replacement within a batch, then shuffles. A pipeline (`train` or
`train_fork`) encodes and checks every record once, before its first step;
a step draws record indices, gathers the batch's token ids and frames from
those arrays, and runs tower, tower, loss, backward and Adam.

Training state is a pure function of (config, data, seed), and a
`Checkpoint` holds each of its facts once: the flat parameters and Adam
moments in the layout `param_shapes` gives, the step, and the batch
generator's bit state. So an interrupted run resumed at a checkpoint
boundary reproduces the uninterrupted run bit for bit. A loaded or initial
model is a value: only a run's own copy of it holds a gradient vector.
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
    EncoderConfig,
    ModelParams,
    TextVocab,
    build_vocab,
    encode_pool,
    forward_pool,
    init_params,
    param_count,
)
from .errors import FormatError, InvalidConfig, NumericFailure
from .losses import LossConfig, train_loss

CHECKPOINT_MAGIC = b"TCKP"
CHECKPOINT_VERSION = 2
LOG_TEMPERATURE_MIN = -math.log(100.0)
LOG_TEMPERATURE_MAX = math.log(100.0)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
_METRIC_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))  # every metrics line


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


def _draw_counts(batch_size, temporal_fraction, n_primary_pool, n_temporal_pool):
    """A batch's order-negative and primary record counts; InvalidConfig if a pool is too small."""
    n_temporal = math.floor(batch_size * temporal_fraction + 1e-9)
    n_primary = batch_size - n_temporal
    if n_temporal > n_temporal_pool:
        raise InvalidConfig(
            f"batch needs {n_temporal} order-negative records, pool has {n_temporal_pool}"
        )
    if n_primary > n_primary_pool:
        raise InvalidConfig(f"batch needs {n_primary} primary records, pool has {n_primary_pool}")
    return n_temporal, n_primary


def compose_batch(primary_pool, temporal_pool, batch_size, temporal_fraction, rng):
    """Returns (records, temporal_mask); draw order is temporal idx, primary idx, shuffle."""
    n_temporal, n_primary = _draw_counts(batch_size, temporal_fraction, len(primary_pool),
                                         len(temporal_pool))
    draws = [rng.choice(len(pool), size=n, replace=False) if n else np.empty(0, np.int64)
             for pool, n in ((temporal_pool, n_temporal), (primary_pool, n_primary))]
    perm = rng.permutation(batch_size)
    mask = (perm < n_temporal).tolist()
    return [(temporal_pool if flag else primary_pool)[i]
            for i, flag in zip(np.concatenate(draws)[perm].tolist(), mask)], mask


def lr_schedule(step: int, config: TrainConfig) -> float:
    if step < 0:
        raise InvalidConfig(f"step must be >= 0, got {step}")
    if config.warmup_steps <= 0:
        return config.base_lr
    return config.base_lr * min(1.0, (step + 1) / config.warmup_steps)


def adam_step(params: ModelParams, grad, m, v, t: int, lr: float) -> None:
    """In-place Adam update number t (from 1) of params.flat from the flat gradient, which it
    leaves as it is, and moments m and v, in the textbook formula's operation order;
    log_temperature clamped afterwards."""
    if np.shape(grad) != params.flat.shape:
        raise InvalidConfig(f"gradient of shape {np.shape(grad)} for {params.flat.size} parameters")
    if not np.isfinite(grad).all():
        ends = np.cumsum([p.data.size for p in params.tensors.values()])
        bad = np.searchsorted(ends, np.flatnonzero(~np.isfinite(grad))[0], side="right")
        raise NumericFailure(f"non-finite gradient for parameter {list(params.tensors)[bad]!r} "
                             f"at step {t}")
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    buf, tmp = np.empty_like(params.flat), np.empty_like(params.flat)
    m *= ADAM_BETA1
    m += np.multiply(1.0 - ADAM_BETA1, grad, out=buf)
    v *= ADAM_BETA2
    v += np.multiply(1.0 - ADAM_BETA2, np.multiply(grad, grad, out=tmp), out=tmp)
    np.multiply(lr, np.divide(m, bc1, out=buf), out=buf)
    buf /= np.add(np.sqrt(np.divide(v, bc2, out=tmp), out=tmp), ADAM_EPS, out=tmp)
    params.flat -= buf
    lt = params["log_temperature"].data
    np.clip(lt, LOG_TEMPERATURE_MIN, LOG_TEMPERATURE_MAX, out=lt)


@dataclass
class Checkpoint:
    """The training state; m and v are Adam's moments in params.flat's layout."""

    params: ModelParams
    train_config: TrainConfig
    m: np.ndarray
    v: np.ndarray
    step: int
    rng_state: dict


# -- checkpoint file format ------------------------------------------------------
# "TCKP", u32 version, u64 meta length, canonical-JSON meta (step, train_config,
# vocab, rng state), then params.flat, m and v back to back as little-endian f64,
# in the in-memory layout that param_shapes(config, vocab) gives: PARAM_ORDER,
# each parameter row-major. Older files' meta `optimizer` entry is ignored.


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    if ckpt.params.config != ckpt.train_config.encoder:
        raise InvalidConfig(f"parameters for {ckpt.params.config} are not the layout the config "
                            f"and vocab give ({ckpt.train_config.encoder})")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    meta = json.dumps({
        "step": ckpt.step,
        "train_config": asdict(ckpt.train_config),
        "vocab": list(ckpt.params.vocab.tokens),
        "rng": ckpt.rng_state,
    }, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC + struct.pack("<IQ", CHECKPOINT_VERSION, len(meta)) + meta)
        for vector in (ckpt.params.flat, ckpt.m, ckpt.v):
            fh.write(vector.astype("<f8", copy=False))


def load_checkpoint(path) -> Checkpoint:
    path = Path(path)
    if not path.is_file():
        raise FormatError(f"checkpoint {path} does not exist")
    raw = path.read_bytes()
    if len(raw) < 8 or raw[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: bad checkpoint magic (expected {CHECKPOINT_MAGIC!r})")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: checkpoint version {version}, this build reads "
                          f"{CHECKPOINT_VERSION}")
    if len(raw) < 16:
        raise FormatError(f"{path}: truncated checkpoint header ({len(raw)} bytes)")
    body = 16 + struct.unpack_from("<Q", raw, 8)[0]
    if body > len(raw):
        raise FormatError(f"{path}: meta runs to byte {body}, past the end of the file "
                          f"({len(raw)} bytes)")
    from .config import _build  # config imports this module, so not at the top

    try:
        meta = json.loads(raw[16:body])
        train_config = _build(TrainConfig, meta["train_config"], "train_config.")
        vocab = TextVocab(tokens=tuple(meta["vocab"]))
        size = param_count(train_config.encoder, vocab)
        step = meta["step"]
        if type(step) is not int or step < 0:
            raise ValueError(f"step must be an integer >= 0, got {step!r}")
        rng_state = meta["rng"]
        np.random.default_rng().bit_generator.state = rng_state  # a state resume can set
    except (KeyError, TypeError, ValueError, InvalidConfig) as exc:  # bad JSON or UTF-8 too
        raise FormatError(f"{path}: bad meta: {exc!r}") from exc
    if len(raw) - body != 24 * size:
        raise FormatError(f"{path}: {len(raw) - body} bytes of vectors, the config and vocab "
                          f"give {24 * size}")
    vectors = np.frombuffer(raw, "<f8", 3 * size, body).reshape(3, -1)
    for name, vec in zip(("flat", "m", "v"), vectors):
        if not np.isfinite(vec).all():
            raise FormatError(f"{path}: non-finite values in the {name} vector")
    # one native copy per vector, so that holding the parameters keeps neither raw nor the moments
    flat, m, v = (vec.astype(np.float64) for vec in vectors)
    return Checkpoint(ModelParams(train_config.encoder, vocab, flat), train_config, m, v, step,
                      rng_state)


# -- training loop ---------------------------------------------------------------

def _as_manifest(m) -> DatasetManifest:
    return m if isinstance(m, DatasetManifest) else load_manifest(m)


def _with_vocab(config: TrainConfig, vocab: TextVocab) -> TrainConfig:
    """Resolves `encoder.vocab_size: 0` to the vocab's size."""
    if config.encoder.vocab_size:
        return config
    return dc_replace(config, encoder=dc_replace(config.encoder, vocab_size=len(vocab)))


def init_run(config: TrainConfig, primary, temporal=None) -> tuple[TrainConfig, ModelParams]:
    """Vocab from both corpora, fresh parameters as a value.

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
    rec = {"step": step, "lr": lr, "l_c": breakdown.l_c.item(), "l_t": breakdown.l_t.item(),
           "l_train": breakdown.l_train.item(), "temporal_count": breakdown.temporal_count}
    return _METRIC_ENCODER.encode(rec)


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
        except (ValueError, KeyError, TypeError) as exc:  # ValueError: bad JSON or too many digits
            raise FormatError(f"{path}: bad metrics line {line!r}: {exc}") from exc
        if line_step < step:
            kept.append(line)
    return "".join(kept)


def _manifests(config: TrainConfig, primary_manifest, temporal_manifest):
    """Both manifests, checked against each other and every batch's draw counts."""
    primary = _as_manifest(primary_manifest)
    temporal = _as_manifest(temporal_manifest) if temporal_manifest is not None else None
    if temporal is not None and temporal.catalog != primary.catalog:
        raise InvalidConfig("primary and temporal manifests reference different catalogs")
    if temporal is None and math.floor(config.batch_size * config.temporal_fraction + 1e-9) > 0:
        raise InvalidConfig("temporal_fraction > 0 but no order-negative manifest given")
    _draw_counts(config.batch_size, config.temporal_fraction, len(primary.records),
                 len(temporal.records) if temporal is not None else 0)
    return primary, temporal


def _pools(params: ModelParams, primary, temporal):
    """Every training record encoded once, primary then order-negative, and
    each pool as the range of its records' indices there."""
    records = primary.records + (temporal.records if temporal is not None else ())
    n = len(primary.records)
    return encode_pool(params, records, True), range(n), range(n, len(records))


def _start(config: TrainConfig, primary, temporal, params: ModelParams | None = None) -> Checkpoint:
    """Step 0 (on a copy of `params`, init_run's, if given); the batch stream has its own seed."""
    config, params = (init_run(config, primary, temporal) if params is None else (
        _with_vocab(config, params.vocab), dc_replace(params, flat=params.flat.copy())))
    params = dc_replace(params, grad=np.zeros(params.flat.size))  # the run's trainable state
    rng_state = np.random.default_rng([config.seed, 1]).bit_generator.state
    return Checkpoint(params, config, *np.zeros((2, params.flat.size)), 0, rng_state)


def _start_log(out_dir: Path, earlier_lines: str) -> None:
    """A run's metrics log, holding only its earlier lines; the steps append to it."""
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "metrics.jsonl").write_text(earlier_lines, encoding="utf-8")


def _run_steps(config, pools, state: Checkpoint, stop: int, runs) -> None:
    """Advances `state` to step `stop` under config. Each of `runs`, an
    (out_dir, config) pair, gets every step's line appended to its metrics
    log, and checkpoints at its own config's cadence, stamped with that config."""
    pool, primary_pool, temporal_pool = pools
    params = state.params
    rng = np.random.default_rng()
    rng.bit_generator.state = state.rng_state
    warmup_loss = dc_replace(config.loss, lambda_l=0.0)
    with ExitStack() as stack:
        logs = [stack.enter_context(open(out_dir / "metrics.jsonl", "a", encoding="utf-8"))
                for out_dir, _ in runs]
        for step in range(state.step, stop):
            lr = lr_schedule(step, config)
            picks, mask = compose_batch(
                primary_pool, temporal_pool, config.batch_size, config.temporal_fraction, rng
            )
            emb = forward_pool(params, pool, np.array(picks), np.flatnonzero(mask))
            loss_cfg = warmup_loss if step < config.order_loss_start_step else config.loss
            breakdown = train_loss(emb, loss_cfg, params["log_temperature"])
            T.backward(breakdown.l_train, params.trainable())
            adam_step(params, params.grad, state.m, state.v, step + 1, lr)
            line = _metric_line(step, lr, breakdown) + "\n"
            for (out_dir, run_config), log in zip(runs, logs):
                log.write(line)
                every = run_config.checkpoint_every
                if every and (step + 1) % every == 0:
                    log.flush()
                    save_checkpoint(dc_replace(state, train_config=run_config, step=step + 1,
                                               rng_state=rng.bit_generator.state),
                                    out_dir / f"step{step + 1:06d}.tckp")
    state.step, state.rng_state = max(state.step, stop), rng.bit_generator.state


def _copy(state: Checkpoint) -> Checkpoint:
    """The state with its own vectors, so training it leaves `state` as it was."""
    flat = state.params.flat.copy()
    return dc_replace(state, params=dc_replace(state.params, flat=flat, grad=np.zeros(flat.size)),
                      m=state.m.copy(), v=state.v.copy())


def _continue(config: TrainConfig, pools, state: Checkpoint, out_dir: Path) -> Checkpoint:
    """train() from `state` on, over pools encoded with its vocab, appending to out_dir's log."""
    _run_steps(config, pools, state, config.steps, [(out_dir, config)])
    state.train_config = config
    save_checkpoint(state, out_dir / "final.tckp")
    return state


def train(config: TrainConfig, primary_manifest, temporal_manifest=None, out_dir=".",
          resume_from=None) -> Checkpoint:
    """Run the loop; writes metrics.jsonl and final.tckp under out_dir.

    resume_from is a checkpoint file at most `config.steps` in; its train_config
    may differ from `config`, which governs the steps that follow. The run keeps
    the metrics log's lines for the steps before the checkpoint and appends the
    rest; the result is bit-identical to the uninterrupted run.
    """
    primary, temporal = _manifests(config, primary_manifest, temporal_manifest)
    out_dir = Path(out_dir)
    if resume_from is None:
        state, earlier_lines = _start(config, primary, temporal), ""
    else:
        state = load_checkpoint(resume_from)
        if state.step > config.steps:
            raise InvalidConfig(f"checkpoint {resume_from} is at step {state.step}, past "
                                f"train.steps {config.steps}")
        state.params = dc_replace(state.params, grad=np.zeros(state.params.flat.size))
        earlier_lines = _metric_lines_before(out_dir / "metrics.jsonl", state.step)
    config = _with_vocab(config, state.params.vocab)  # resolved as init_run does
    if config.encoder != state.params.config:
        raise InvalidConfig(f"the config's encoder {config.encoder} differs from the "
                            f"checkpoint's {state.params.config}")
    pools = _pools(state.params, primary, temporal)
    _start_log(out_dir, earlier_lines)
    return _continue(config, pools, state, out_dir)


def train_fork(branches, primary_manifest, temporal_manifest, fork_step: int,
               params: ModelParams | None = None) -> list[Checkpoint]:
    """Trains runs that share their first fork_step steps, doing those steps once.

    `branches` holds (config, out_dir) pairs whose configs differ at most in
    `order_loss_start_step` and `loss.lambda_l`, and train with lambda_l = 0
    before fork_step. The records are encoded once for all runs. The shared
    steps append their metrics lines, and write their checkpoints stamped with
    each branch's config, into every out_dir; then each branch goes on from its
    own copy of the shared state. Each out_dir ends up byte-identical to a
    standalone train() with its config. Given init_run's `params`, it trains a copy.
    """
    primary, temporal = _manifests(branches[0][0], primary_manifest, temporal_manifest)
    state = _start(branches[0][0], primary, temporal, params)
    lead = state.train_config
    runs = [(Path(out_dir), _with_vocab(config, state.params.vocab))
            for config, out_dir in branches]
    for _, config in runs:
        same = dc_replace(config, loss=dc_replace(config.loss, lambda_l=lead.lambda_l),
                          order_loss_start_step=lead.order_loss_start_step)
        if same != lead or not 0 <= fork_step <= config.steps or (
                config.lambda_l and config.order_loss_start_step < fork_step):
            raise InvalidConfig(f"branch configs do not share their first {fork_step} steps")
    pools = _pools(state.params, primary, temporal)
    for out_dir, _ in runs:
        _start_log(out_dir, "")
    _run_steps(lead, pools, state, fork_step, runs)
    return [_continue(config, pools, _copy(state), out_dir) for out_dir, config in runs]
