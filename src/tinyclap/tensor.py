"""Dense-array kernel with reverse-mode gradients.

Exactly the operations the encoders and losses need: one fused `tower` op
per encoder, which takes its inputs as a constant array and folds the input
table into the first layer, small kernels for the losses, CPU numpy storage
only. Every kernel checks its output for NaN/Inf and raises NumericError on
the spot, so a poisoned value can never travel.

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


# -- kernels ------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    _need_2d(a, "matmul")
    _need_2d(b, "matmul")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {a.shape} @ {b.shape}")

    def bw(g, adj):
        _acc(adj, a, g @ b.data.T)
        _acc(adj, b, a.data.T @ g)

    return _result(a.data @ b.data, (a, b), bw, "matmul")


def transpose(x: Tensor) -> Tensor:
    _need_2d(x, "transpose")

    def bw(g, adj):
        _acc(adj, x, g.T)

    return _result(np.ascontiguousarray(x.data.T), (x,), bw, "transpose")


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add shape mismatch: {a.shape} vs {b.shape}")

    def bw(g, adj):
        _acc(adj, a, g)
        _acc(adj, b, g)

    return _result(a.data + b.data, (a, b), bw, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"sub shape mismatch: {a.shape} vs {b.shape}")

    def bw(g, adj):
        _acc(adj, a, g)
        _acc(adj, b, -g)

    return _result(a.data - b.data, (a, b), bw, "sub")


def mean_all(x: Tensor) -> Tensor:
    n = x.data.size

    def bw(g, adj):
        _acc(adj, x, np.full(x.shape, g / n, dtype=x.data.dtype))

    return _result(np.asarray(x.data.mean()), (x,), bw, "mean_all")


def sum_all(x: Tensor) -> Tensor:
    def bw(g, adj):
        _acc(adj, x, np.full(x.shape, g, dtype=x.data.dtype))

    return _result(np.asarray(x.data.sum()), (x,), bw, "sum_all")


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)

    def bw(g, adj):
        _acc(adj, x, g * c)

    return _result(x.data * c, (x,), bw, "scale")


def mul_scalar(x: Tensor, s: Tensor) -> Tensor:
    """Multiply by a scalar graph node (e.g. a learnable temperature)."""
    if s.data.ndim != 0:
        raise ShapeError(f"mul_scalar needs a scalar node, got shape {s.shape}")

    def bw(g, adj):
        _acc(adj, x, g * s.data)
        _acc(adj, s, np.asarray((x.data * g).sum()))

    return _result(x.data * s.data, (x, s), bw, "mul_scalar")


def exp(x: Tensor) -> Tensor:
    with np.errstate(over="ignore"):  # overflow surfaces as NumericError below
        out_data = np.exp(x.data)

    def bw(g, adj):
        _acc(adj, x, g * out_data)

    return _result(out_data, (x,), bw, "exp")


def softplus(x: Tensor) -> Tensor:
    """log(1 + e^x), large-|x| safe."""

    def bw(g, adj):
        sig = 0.5 * (np.tanh(0.5 * x.data) + 1.0)
        _acc(adj, x, g * sig)

    return _result(np.logaddexp(0.0, x.data), (x,), bw, "softplus")


def _unit_rows(x: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Rows scaled to unit length, and the denominators sqrt(|row|^2 + eps^2)."""
    denom = np.sqrt((x * x).sum(axis=1) + eps * eps)
    return x / denom[:, None], denom


def _unit_rows_bw(x: np.ndarray, denom: np.ndarray, g: np.ndarray) -> np.ndarray:
    # d(x/d)/dx = I/d - x x^T / d^3, the projection term at unit norm
    dot = (x * g).sum(axis=1)
    return g / denom[:, None] - x * (dot / denom**3)[:, None]


def row_l2_normalize(x: Tensor, eps: float = _NORM_EPS) -> Tensor:
    """Scale each row to unit length; denom = sqrt(|row|^2 + eps^2) guards zeros."""
    _need_2d(x, "row_l2_normalize")
    if eps <= 0:
        raise ShapeError("row_l2_normalize needs eps > 0")
    out_data, denom = _unit_rows(x.data, eps)

    def bw(g, adj):
        _acc(adj, x, _unit_rows_bw(x.data, denom, g))

    return _result(out_data, (x,), bw, "row_l2_normalize")


def log_sum_exp(x: Tensor) -> Tensor:
    """Row-wise log(sum(exp)): m x n -> m, max-shifted for stability."""
    _need_2d(x, "log_sum_exp")
    hi = x.data.max(axis=1, keepdims=True)
    shifted = np.exp(x.data - hi)
    total = shifted.sum(axis=1, keepdims=True)
    out_data = (hi + np.log(total)).ravel()

    def bw(g, adj):
        _acc(adj, x, (shifted / total) * g[:, None])

    return _result(out_data, (x,), bw, "log_sum_exp")


def gather_rows(e: Tensor, ids: Sequence[int] | np.ndarray) -> Tensor:
    _need_2d(e, "gather_rows")
    idx = np.asarray(ids, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError(f"gather_rows ids must be 1-d, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= e.shape[0]):
        raise ShapeError(f"gather_rows ids out of range for {e.shape[0]} rows")

    def bw(g, adj):
        if e.requires_grad:
            buf = np.zeros_like(e.data)
            np.add.at(buf, idx, g)
            _acc(adj, e, buf)

    return _result(e.data[idx], (e,), bw, "gather_rows")


def diag_part(x: Tensor) -> Tensor:
    _need_2d(x, "diag_part")
    if x.shape[0] != x.shape[1]:
        raise ShapeError(f"diag_part needs a square matrix, got {x.shape}")

    def bw(g, adj):
        buf = np.zeros_like(x.data)
        np.fill_diagonal(buf, g)
        _acc(adj, x, buf)

    return _result(np.diagonal(x.data).copy(), (x,), bw, "diag_part")


def rowwise_dot(a: Tensor, b: Tensor) -> Tensor:
    _need_2d(a, "rowwise_dot")
    if a.shape != b.shape:
        raise ShapeError(f"rowwise_dot shape mismatch: {a.shape} vs {b.shape}")

    def bw(g, adj):
        _acc(adj, a, b.data * g[:, None])
        _acc(adj, b, a.data * g[:, None])

    return _result((a.data * b.data).sum(axis=1), (a, b), bw, "rowwise_dot")


def tower(inputs, table: Tensor, pos: Tensor, w1: Tensor, b1: Tensor, w2: Tensor,
          b2: Tensor, lengths: Sequence[int] | np.ndarray) -> Tensor:
    """One encoder tower over sequences packed back to back: sum(lengths) x V -> S x D.

    Row r of the constant `inputs` is embedded as inputs[r] @ table plus the
    positional row of its place in its sequence, then relu(z @ w1 + b1) per
    row, the mean over each sequence's rows, the output layer
    pooled @ w2 + b2, and row_l2_normalize's unit scaling. The first layer is
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

def finite_diff_check(
    f: Callable[[dict[str, Tensor]], Tensor],
    params: dict[str, Tensor],
    eps: float = 1e-5,
    n_coords: int = 200,
    seed: int = 0,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    Samples up to `n_coords` coordinates (seeded, without replacement) across
    the full parameter space; `f` must be a deterministic map from the current
    leaf values to a scalar loss node.
    """
    if not 1e-7 <= eps <= 1e-2:
        raise ShapeError(f"finite_diff_check eps {eps} outside [1e-7, 1e-2]")
    analytic = backward(f(params), params.values())

    coords = [(name, i) for name in sorted(params) for i in range(params[name].data.size)]
    picks = np.random.default_rng(seed).permutation(len(coords))[: min(n_coords, len(coords))]

    worst = 0.0
    for name, offset in (coords[i] for i in picks):
        leaf = params[name].data.reshape(-1)
        saved = leaf[offset]
        leaf[offset] = saved + eps
        hi = f(params).item()
        leaf[offset] = saved - eps
        lo = f(params).item()
        leaf[offset] = saved
        numeric = (hi - lo) / (2.0 * eps)
        a = float(analytic[name].reshape(-1)[offset])
        err = abs(a - numeric) / max(abs(a), abs(numeric), _EPS_DENOM)
        worst = max(worst, err)
    return worst
