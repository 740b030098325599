"""Dense-array kernel with reverse-mode gradients.

Exactly the ops a training step needs, each with a closed-form backward:
one fused `tower` per encoder, which takes its inputs as a constant array
and folds the input table into the first layer, and one `clap_loss` for the
whole objective; CPU numpy storage only. Every op checks its output for
NaN/Inf and raises NumericError on the spot, so a poisoned value can never
travel.

Graph convention (micrograd style): each op returns a fresh Tensor holding
references to its parents and a closure that pushes adjoints into an
accumulator dict. ``backward`` replays the closures in exact reverse
creation order, which is a valid topological order because an op's inputs
always exist before its output.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import NumericError, ShapeError

DEFAULT_DTYPE = np.float64

_EPS_DENOM = 1e-8  # floor used in relative-error comparisons
_FD_KINK_RTOL = 1e-3  # one-sided slopes further apart than this may straddle a kink
_FD_ROUNDOFF = 1e-14  # bound on the rounding error of one loss value
_FD_EPS_MIN = 1e-10  # smallest step a kink shrinks the central difference to
_NORM_EPS = 1e-8  # zero guard of the unit-row scaling
_CHUNK_ROWS = 4096  # most hidden-layer rows `tower` holds at once in its forward


_uid_counter = itertools.count()


class Tensor:
    """A node in the computation graph: numpy payload plus backward hook."""

    __slots__ = ("data", "requires_grad", "name", "_parents", "_bw", "_uid")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        arr = np.asarray(data, dtype=DEFAULT_DTYPE)
        if not np.all(np.isfinite(arr)):
            raise NumericError(f"non-finite values in tensor {name or '<anon>'}")
        self.data = arr
        self.requires_grad = requires_grad
        self.name = name
        self._parents: tuple[Tensor, ...] = ()
        self._bw: Callable[[np.ndarray, dict[int, np.ndarray]], None] | None = None
        self._uid = next(_uid_counter)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag})"


def parameter(name: str, data) -> Tensor:
    return Tensor(data, requires_grad=True, name=name)


def _result(data: np.ndarray, parents: Sequence[Tensor], bw, op: str) -> Tensor:
    if not np.all(np.isfinite(data)):
        raise NumericError(f"non-finite result from {op}")
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = any(p.requires_grad for p in parents)
    out.name = None
    out._uid = next(_uid_counter)
    if out.requires_grad:
        out._parents = tuple(parents)
        out._bw = bw
    else:
        out._parents = ()
        out._bw = None
    return out


def _acc(adjoints: dict[int, np.ndarray], node: Tensor, g: np.ndarray) -> None:
    if not node.requires_grad:
        return
    key = node._uid
    if key in adjoints:
        adjoints[key] += g
    else:
        adjoints[key] = np.array(g, dtype=node.data.dtype, copy=True)


def _need_2d(x: Tensor, op: str) -> None:
    if x.data.ndim != 2:
        raise ShapeError(f"{op} needs a 2-d tensor, got shape {x.shape}")


# -- ops ------------------------------------------------------------------------

def _unit_rows(x: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Rows scaled to unit length, and the denominators sqrt(|row|^2 + eps^2)."""
    denom = np.sqrt((x * x).sum(axis=1) + eps * eps)
    return x / denom[:, None], denom


def _unit_rows_bw(x: np.ndarray, denom: np.ndarray, g: np.ndarray) -> np.ndarray:
    # d(x/d)/dx = I/d - x x^T / d^3, the projection term at unit norm
    dot = (x * g).sum(axis=1)
    return g / denom[:, None] - x * (dot / denom**3)[:, None]


def tower(inputs, table: Tensor, pos: Tensor, w1: Tensor, b1: Tensor, w2: Tensor,
          b2: Tensor, lengths: Sequence[int] | np.ndarray) -> Tensor:
    """One encoder tower over sequences packed back to back: sum(lengths) x V -> S x D.

    Row r of the constant `inputs` is embedded as inputs[r] @ table plus the
    positional row of its place in its sequence, then relu(z @ w1 + b1) per
    row, the mean over each sequence's rows, the output layer
    pooled @ w2 + b2, and the unit scaling of `_unit_rows`. The first layer is
    linear, so it runs folded: inputs @ (table @ w1) plus the row's position
    in pos[:L] @ w1 + b1. The rows are laid out by sequence length (a stable
    sort; no rows move when the lengths never fall), so each length's
    sequences form one k x n x h slab of the hidden layer; the positional
    add, the pool and the backward's per-position sums run on those slabs.
    The forward fills one buffer with pieces of at most _CHUNK_ROWS slab rows
    and keeps only their relu mask, so the hidden layer it holds does not
    grow with the batch. Rows come out in input order; the backward is
    closed-form and reaches the six parameters.
    """
    x = np.asarray(inputs, dtype=DEFAULT_DTYPE)
    if x.ndim != 2:
        raise ShapeError(f"tower needs 2-d inputs, got shape {x.shape}")
    _need_2d(table, "tower")
    e, h, d = table.shape[1], b1.data.size, b2.data.size
    shapes = [t.shape for t in (table, pos, w1, b1, w2, b2)]
    if shapes != [(x.shape[1], e), pos.shape[:1] + (e,), (e, h), (h,), (h, d), (d,)]:
        raise ShapeError(f"tower shapes do not chain: inputs {x.shape}, "
                         f"table/pos/w1/b1/w2/b2 {shapes}")
    lens = np.asarray(lengths, dtype=np.int64)
    if (lens.ndim != 1 or lens.size == 0 or lens.min() < 1 or lens.sum() != x.shape[0]
            or lens.max() > pos.shape[0]):
        raise ShapeError(f"tower lengths {lengths} do not split {x.shape[0]} rows into "
                         f"sequences of 1 to {pos.shape[0]} positions")
    order = np.argsort(lens, kind="stable")
    if (np.diff(lens) < 0).any():  # each row moves as far as its sequence's start does
        shift = np.cumsum(lens)[order] - np.cumsum(lens[order])
        x = x[np.arange(x.shape[0]) + np.repeat(shift, lens[order])]
    sizes, counts = np.unique(lens, return_counts=True)
    slabs = [(int(n), order[s - k : s], slice(r - k * n, r))  # (n, its sequences, its rows)
             for n, k, s, r in zip(sizes, counts, np.cumsum(counts), np.cumsum(sizes * counts))]
    top = int(sizes[-1])

    w1_folded = table.data @ w1.data
    pos_b1 = pos.data[:top] @ w1.data + b1.data
    pooled = np.empty((lens.size, h))
    active = np.empty((x.shape[0], h), dtype=bool)
    piece = np.empty((min(x.shape[0], max(_CHUNK_ROWS, top)), h))  # holds every piece in turn
    for n, seqs, rows in slabs:
        step = max(1, _CHUNK_ROWS // n)  # sequences per piece
        for i in range(0, seqs.size, step):
            part = slice(rows.start + i * n, rows.start + min(i + step, seqs.size) * n)
            z = np.matmul(x[part], w1_folded, out=piece[: part.stop - part.start])
            slab = z.reshape(-1, n, h)
            slab += pos_b1[:n]
            np.maximum(slab, 0.0, out=slab)
            pooled[seqs[i : i + step]] = slab.mean(axis=1)
            np.greater(z, 0.0, out=active[part])  # relu(z) > 0 exactly where z > 0
    o = pooled @ w2.data + b2.data
    out_data, denom = _unit_rows(o, _NORM_EPS)

    def bw(g, adj):
        go = _unit_rows_bw(o, denom, g)
        _acc(adj, b2, go.sum(axis=0))
        _acc(adj, w2, pooled.T @ go)
        gpre = np.repeat(((go @ w2.data.T) / lens[:, None])[order], lens[order], axis=0)
        gpre *= active
        g_pos_b1 = np.zeros((top, h))  # adjoint of pos[:top] @ w1 + b1
        for n, _, rows in slabs:
            g_pos_b1[:n] += gpre[rows].reshape(-1, n, h).sum(axis=0)
        _acc(adj, b1, g_pos_b1.sum(axis=0))
        g_folded = x.T @ gpre  # adjoint of table @ w1
        _acc(adj, w1, table.data.T @ g_folded + pos.data[:top].T @ g_pos_b1)
        _acc(adj, table, g_folded @ w1.data.T)
        _acc(adj, pos, np.pad(g_pos_b1 @ w1.data.T, ((0, pos.shape[0] - top), (0, 0))))

    return _result(out_data, (table, pos, w1, b1, w2, b2), bw, "tower")


def _contrastive(logits: np.ndarray) -> tuple[float, np.ndarray]:
    """Symmetric softmax cross-entropy of square logits with the diagonal as targets,
    and its gradient: the row and column softmaxes less twice the identity, over 2N."""
    value, g = 0.0, -2.0 * np.eye(len(logits))
    for axis in (1, 0):
        hi = logits.max(axis=axis, keepdims=True)
        shifted = np.exp(logits - hi)
        total = shifted.sum(axis=axis, keepdims=True)
        value += np.mean((hi + np.log(total)).ravel() - np.diagonal(logits))
        g += shifted / total
    return value * 0.5, g * (0.5 / len(logits))


def _order_term(margin: np.ndarray, reduction: str) -> tuple[float, np.ndarray]:
    """Mean or sum of softplus(-margin), large-|margin| safe, and its gradient in
    the margins, -sigmoid(-margin) over M or 1."""
    k = margin.size if reduction == "mean" else 1
    return np.logaddexp(0.0, -margin).sum() / k, (np.tanh(-0.5 * margin) + 1.0) * (-0.5 / k)


def clap_loss(audio: Tensor, text: Tensor, log_temperature: Tensor,
              temporal_rows: Sequence[int] | np.ndarray, lambda_l: float,
              lt_reduction: str = "mean",
              use_temperature_in_lt: bool = False) -> tuple[Tensor, Tensor, Tensor]:
    """The training objective as one node: (l_train, l_c, l_t).

    `audio` holds N rows and `text` the N captions, then the reversed caption
    of each of `temporal_rows`, all unit rows from `tower`. l_c is the
    symmetric softmax cross-entropy over (audio @ text[:N].T) *
    exp(log_temperature) with the diagonal as targets; l_t is the mean or sum
    over flagged rows r of softplus(-audio_r . (text_r - reversed_r)), the
    margin times exp(log_temperature) if `use_temperature_in_lt`; 0 with no
    flagged rows. The node is l_train = l_c + l_t * lambda_l; l_c and l_t are
    constants. The backward is closed form: softmax minus identity for l_c,
    the sigmoid for l_t, and the temperature's adjoint from both.
    """
    _need_2d(audio, "clap_loss")
    rows = np.asarray(temporal_rows, dtype=np.int64)
    n, m = audio.shape[0], rows.size
    if (n == 0 or text.shape != (n + m, audio.shape[1]) or log_temperature.data.ndim != 0
            or rows.ndim != 1 or m and (rows[0] < 0 or rows[-1] >= n or (np.diff(rows) <= 0).any())):
        raise ShapeError(f"clap_loss needs N x D audio, (N + {m}) x D text, a scalar temperature "
                         f"and rows rising within [0, N), got {audio.shape}, {text.shape}, "
                         f"{log_temperature.shape}, {rows}")
    a, pos = audio.data, text.data[:n]
    scale = np.exp(log_temperature.data)
    s = a @ pos.T
    l_c, g_logits = _contrastive(s * scale)
    l_t, c = 0.0, scale if use_temperature_in_lt else 1.0
    if m:
        a_r, neg = a[rows], text.data[n:]
        margin = ((a_r * pos[rows]).sum(axis=1) - (a_r * neg).sum(axis=1)) * c
        l_t, g_margin = _order_term(margin, lt_reduction)

    def bw(g, adj):
        g_s = g_logits * (g * scale)  # adjoint of S
        g_lt = (s * g_s).sum()
        g_audio, g_text = g_s @ pos, np.zeros_like(text.data)
        g_text[:n] = g_s.T @ a
        if m:
            g_scaled = g_margin * (g * lambda_l)  # adjoint of the margins times c
            if use_temperature_in_lt:
                g_lt += (margin * g_scaled).sum()
            g_dot = (g_scaled * c)[:, None]  # adjoint of each margin's two dots
            g_audio[rows] += g_dot * (pos[rows] - neg)
            g_text[rows] += g_dot * a_r
            g_text[n:] = -g_dot * a_r
        _acc(adj, audio, g_audio)
        _acc(adj, text, g_text)
        _acc(adj, log_temperature, np.asarray(g_lt))

    l_train = _result(np.asarray(l_c + l_t * lambda_l), (audio, text, log_temperature), bw,
                      "clap_loss")
    return l_train, Tensor(l_c, name="l_c"), Tensor(l_t, name="l_t")


# -- backward pass ------------------------------------------------------------

def backward(loss: Tensor, params: Iterable[Tensor]) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss for every named parameter.

    Replays the reachable nodes' closures in reverse creation order (inputs are
    created before outputs); parameters the graph does not reach get zeros.
    """
    if loss.data.ndim != 0:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    reachable: dict[int, Tensor] = {}
    stack = [loss]
    while stack:
        node = stack.pop()
        if node._uid in reachable:
            continue
        reachable[node._uid] = node
        stack.extend(node._parents)
    adjoints: dict[int, np.ndarray] = {loss._uid: np.asarray(1.0, dtype=loss.data.dtype)}
    for node in sorted(reachable.values(), key=lambda n: n._uid, reverse=True):
        g = adjoints.get(node._uid)
        if g is not None and node._bw is not None:
            node._bw(g, adjoints)
    grads: dict[str, np.ndarray] = {}
    for p in params:
        if p.name is None:
            raise ShapeError("backward: parameters must be named")
        g = adjoints.get(p._uid)
        grads[p.name] = np.zeros_like(p.data) if g is None else g
    return grads


# -- finite-difference oracle ---------------------------------------------------

def _probe(f, params, leaf: np.ndarray, offset: int, step: float, mid: float):
    """Central difference, one-sided slopes' gap, and their rounding bound at a coordinate."""
    saved = leaf[offset]
    leaf[offset] = saved + step
    hi = f(params).item()
    leaf[offset] = saved - step
    lo = f(params).item()
    leaf[offset] = saved
    return (hi - lo) / (2.0 * step), abs(hi + lo - 2.0 * mid) / step, 2.0 * _FD_ROUNDOFF / step


def finite_diff_check(f: Callable[[dict[str, Tensor]], Tensor], params: dict[str, Tensor],
                      eps: float = 1e-5, n_coords: int = 200, seed: int = 0) -> float:
    """Max relative error between analytic and central-difference gradients.

    Samples up to `n_coords` coordinates (seeded, without replacement) across
    the full parameter space; `f` must be a deterministic map from the current
    leaf values to a scalar loss node. Where the two one-sided slopes of a
    coordinate disagree by more than _FD_KINK_RTOL, a tenfold shorter step
    tells curvature, whose gap shrinks with the step and leaves the central
    difference where it was, from a kink of the loss (a relu switching inside
    the step); a kink shrinks the step until the slopes agree.
    """
    if not 1e-7 <= eps <= 1e-2:
        raise ShapeError(f"finite_diff_check eps {eps} outside [1e-7, 1e-2]")
    center = f(params)
    analytic = backward(center, params.values())
    mid = center.item()

    coords = [(name, i) for name in sorted(params) for i in range(params[name].data.size)]
    picks = np.random.default_rng(seed).permutation(len(coords))[: min(n_coords, len(coords))]

    worst = 0.0
    for name, offset in (coords[i] for i in picks):
        leaf, step = params[name].data.reshape(-1), eps
        numeric, gap, noise = _probe(f, params, leaf, offset, step, mid)
        while gap > _FD_KINK_RTOL * (abs(numeric) + gap / 2) + noise and step > _FD_EPS_MIN:
            short, short_gap, short_noise = _probe(f, params, leaf, offset, step / 10.0, mid)
            if (short_gap <= gap / 5 + short_noise and abs(short - numeric)
                    <= _FD_KINK_RTOL * max(abs(short), abs(numeric)) + short_noise):
                break
            step, numeric, gap, noise = step / 10.0, short, short_gap, short_noise
        a = float(analytic[name].reshape(-1)[offset])
        worst = max(worst, abs(a - numeric) / max(abs(a), abs(numeric), _EPS_DENOM))
    return worst
