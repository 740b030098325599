"""Dense-array kernel with reverse-mode gradients.

Exactly the ops a training step needs, each with a closed-form backward:
one fused `tower` per encoder, which takes its inputs as constant frame rows
or token ids, folds the input table into the first layer and, for ids, builds
the hidden layer once per distinct (token, position) cell; and one
`clap_loss` for the whole objective. CPU numpy storage only. Every op checks its output for
NaN/Inf and raises NumericFailure on the spot, so a poisoned value can never
travel.

Gradient convention: a parameter holds a gradient buffer, `grad` (for a parameter set,
views of one flat vector cut like its data), and an op's output one closure that maps its
adjoint to its inputs' and passes each to `_send`: into a parameter's buffer in place, on
to an op's closure, or nowhere for a constant. An op of constants returns one, and `tower`
then builds no backward state. ``backward`` zeroes the buffers and sends 1.0 in.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import NumericFailure

DEFAULT_DTYPE = np.float64

_EPS_DENOM = 1e-8  # floor used in relative-error comparisons
_FD_KINK_RTOL = 1e-3  # one-sided slopes further apart than this may straddle a kink
_FD_ROUNDOFF = 1e-14  # bound on the rounding error of one loss value
_FD_EPS_MIN = 1e-10  # smallest step a kink shrinks the central difference to
_NORM_EPS = 1e-8  # zero guard of the unit-row scaling
_PIECE_BYTES = 512 * 1024  # most hidden-row or count-row bytes `tower` works on at once, in L2


class Tensor:
    """A numpy payload; a parameter also holds its gradient buffer, an op's output its closure."""

    __slots__ = ("data", "name", "grad", "_grads")

    def __init__(self, data, name: str | None = None):
        arr = np.asarray(data, dtype=DEFAULT_DTYPE)
        if not np.all(np.isfinite(arr)):
            raise NumericFailure(f"non-finite values in tensor {name or '<anon>'}")
        self.data = arr
        self.name = name
        self.grad = self._grads = None  # a parameter's buffer; an op's closure

    @property
    def requires_grad(self) -> bool:
        return self.grad is not None or self._grads is not None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)


def parameter(name: str, data, grad: np.ndarray | None = None) -> Tensor:
    """A leaf whose gradients add into `grad`, shaped like its data; its own zeros if not given."""
    leaf = Tensor(data, name=name)
    leaf.grad = np.zeros(leaf.shape) if grad is None else grad
    return leaf


def _result(data: np.ndarray, parents: Sequence[Tensor], grads, op: str) -> Tensor:
    if not np.all(np.isfinite(data)):
        raise NumericFailure(f"non-finite result from {op}")
    out = Tensor.__new__(Tensor)
    out.data, out.name, out.grad = data, None, None
    out._grads = grads if any(p.requires_grad for p in parents) else None
    return out


def _send(node: Tensor, g) -> None:
    """Adds adjoint g into a parameter's buffer, or runs an op's closure on it."""
    if node.grad is not None:
        node.grad += g
    elif node._grads is not None:
        node._grads(g)


def _need_2d(x: Tensor, op: str) -> None:
    if x.data.ndim != 2:
        raise NumericFailure(f"{op} needs a 2-d tensor, got shape {x.shape}")


# -- ops ------------------------------------------------------------------------

def _unit_rows(x: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Rows scaled to unit length, and the denominators sqrt(|row|^2 + eps^2)."""
    denom = np.sqrt((x * x).sum(axis=1) + eps * eps)
    return x / denom[:, None], denom


def _unit_rows_bw(x: np.ndarray, denom: np.ndarray, g: np.ndarray) -> np.ndarray:
    # d(x/d)/dx = I/d - x x^T / d^3, the projection term at unit norm
    dot = (x * g).sum(axis=1)
    return g / denom[:, None] - x * (dot / denom**3)[:, None]


def _slab_stage(x, lens, w1_folded, pos_b1, grad):
    """Dense rows' hidden layer pooled per sequence, and its backward if `grad`.

    The rows are laid out by length (a stable sort; none move when the lengths
    never fall), so each length's sequences are one k x n x h slab. Both directions
    walk the same pieces of whole sequences of one length, at most _PIECE_BYTES each,
    through one buffer that stays in L2: the forward builds, pools and, if `grad`,
    masks a piece, the backward writes its adjoint there and adds its per-position
    sums and its inputs' product with it.
    """
    h = w1_folded.shape[1]
    order = np.argsort(lens, kind="stable")
    ranked = lens[order]
    rows = np.concatenate(([0], np.cumsum(ranked)))  # each sequence's first row, sorted
    rising = not (np.diff(lens) < 0).any()  # then no row moves and a piece's sequences are a slice
    if not rising:  # each row moves as far as its sequence's start does
        x = x[np.arange(x.shape[0]) + np.repeat(np.cumsum(lens)[order] - rows[1:], ranked)]
    sizes, firsts = np.unique(ranked, return_index=True)  # each length's first sequence
    per = max(1, _PIECE_BYTES // (x.itemsize * h))  # hidden rows per piece
    cuts = [i for n, a, b in zip(sizes, firsts, np.append(firsts[1:], lens.size))
            for i in range(a, b, max(1, per // n))] + [lens.size]
    pieces = [(int(ranked[a]), slice(a, b) if rising else order[a:b], slice(rows[a], rows[b]))
              for a, b in zip(cuts, cuts[1:])]  # whole sequences of one length

    pooled = np.empty((lens.size, h))
    active = np.empty((x.shape[0], h), dtype=bool) if grad else None  # read by the backward alone
    buf = np.empty((max(p.stop - p.start for _, _, p in pieces), h))  # holds every piece in turn
    for n, seqs, part in pieces:
        z = np.matmul(x[part], w1_folded, out=buf[: part.stop - part.start])
        slab = z.reshape(-1, n, h)
        slab += pos_b1[:n]
        np.maximum(slab, 0.0, out=slab)
        mean = np.add.reduce(slab, axis=1)  # what slab.mean(axis=1) computes, without its wrapper
        mean /= n
        pooled[seqs] = mean
        if grad:
            np.greater(z, 0.0, out=active[part])  # relu(z) > 0 exactly where z > 0

    def bw(g_seq):
        g_pos_b1 = np.zeros(pos_b1.shape)  # adjoint of pos[:L] @ w1 + b1
        g_folded = np.zeros((x.shape[1], h))  # adjoint of table @ w1
        for n, seqs, part in pieces:
            gpre = buf[: part.stop - part.start]
            np.copyto(gpre.reshape(-1, n, h), g_seq[seqs][:, None])
            gpre *= active[part]
            g_pos_b1[:n] += np.add.reduce(gpre.reshape(-1, n, h), axis=0)
            g_folded += x[part].T @ gpre
        return g_folded, g_pos_b1

    return pooled, bw if grad else None


def _cell_stage(ids, lens, w1_folded, pos_b1, grad):
    """Token ids' hidden layer pooled per sequence, and its backward if `grad`.

    A row's hidden layer relu(w1_folded[id] + pos_b1[place]) is built once per
    distinct (token, place) cell. The forward gathers each sequence's cells,
    padded to the longest sequence with a zero row, a piece of at most
    _PIECE_BYTES at a time, and sums them in place order. So a sequence pools
    to the bits of `_slab_stage`'s mean whatever else is in the batch, which a
    product with a sequence x cell matrix would not. The backward sums the
    sequence adjoints per cell with the 0/1 sequence x cell count matrix,
    masks them, and scatters them into a token x place grid, whose sums over
    places and over tokens are the adjoints of w1_folded and pos_b1.
    """
    top, h = pos_b1.shape  # the longest sequence, the hidden width
    seq = np.repeat(np.arange(lens.size), lens)  # each row's sequence
    place = np.arange(ids.size) - np.repeat(np.cumsum(lens) - lens, lens)
    cells, inv = np.unique(ids * top + place, return_inverse=True)
    cell_token, cell_place = np.divmod(cells, top)
    hidden = np.zeros((cells.size + 1, h))  # the last row pads sequences to `top` places
    z = np.add(w1_folded[cell_token], pos_b1[cell_place], out=hidden[:-1])
    np.maximum(z, 0.0, out=z)
    active = z > 0.0 if grad else None  # relu(z) > 0 exactly where z > 0
    seq_cells = np.full((lens.size, top), cells.size)  # each sequence's cell at each place
    seq_cells[seq, place] = inv
    per = max(1, _PIECE_BYTES // (hidden.itemsize * top * h))  # sequences per piece
    buf = np.empty((min(per, lens.size), top, h))
    pooled = np.empty((lens.size, h))
    for a in range(0, lens.size, per):
        piece = buf[: min(per, lens.size - a)]
        np.take(hidden, seq_cells[a : a + per], axis=0, out=piece, mode="clip")  # in range; "raise" buffers
        piece.sum(axis=1, out=pooled[a : a + per])
    pooled /= lens[:, None]

    def bw(g_seq):
        count = np.zeros((lens.size, cells.size))
        count[seq, inv] = 1.0
        grid = np.zeros((w1_folded.shape[0], top, h))
        grid[cell_token, cell_place] = (count.T @ g_seq) * active
        return grid.sum(axis=1), grid.sum(axis=0)

    return pooled, bw if grad else None


def tower(inputs, table: Tensor, pos: Tensor, w1: Tensor, b1: Tensor, w2: Tensor,
          b2: Tensor, lengths: Sequence[int] | np.ndarray) -> Tensor:
    """One encoder tower over sequences packed back to back: S sequences -> S x D.

    `inputs` is constant: sum(lengths) float rows against `table` (frames) or
    as many integer ids of its rows (tokens). Each is embedded and added to its
    place's positional row, then relu(z @ w1 + b1), the mean over each
    sequence, pooled @ w2 + b2 and `_unit_rows`, with the first layer folded
    (table @ w1, pos[:L] @ w1 + b1). Only the hidden layer differs by input
    kind; the rest, backward included, is shared. Rows come out in input order.
    """
    x = np.asarray(inputs)
    ids = x.ndim == 1
    if ids and not np.issubdtype(x.dtype, np.integer) or x.ndim not in (1, 2):
        raise NumericFailure(f"tower needs 2-d float rows or 1-d integer token ids, "
                             f"got {x.dtype} of shape {x.shape}")
    _need_2d(table, "tower")
    v, e, h, d = table.shape + (b1.data.size, b2.data.size)
    shapes = [t.shape for t in (table, pos, w1, b1, w2, b2)]
    if shapes != [(v if ids else x.shape[1], e), pos.shape[:1] + (e,), (e, h), (h,), (h, d), (d,)]:
        raise NumericFailure(f"tower shapes do not chain: inputs {x.shape}, "
                             f"table/pos/w1/b1/w2/b2 {shapes}")
    lens = np.asarray(lengths, dtype=np.int64)
    if (lens.ndim != 1 or lens.size == 0 or lens.min() < 1 or lens.sum() != x.shape[0]
            or lens.max() > pos.shape[0]):
        raise NumericFailure(f"tower lengths {lengths} do not split {x.shape[0]} rows into "
                             f"sequences of 1 to {pos.shape[0]} positions")
    if ids and (x.min() < 0 or x.max() >= v):
        raise NumericFailure(f"tower token ids must be in [0, {v}), got {x.min()} to {x.max()}")

    w1_folded = table.data @ w1.data
    pos_b1 = pos.data[: lens.max()] @ w1.data + b1.data
    grad = any(t.requires_grad for t in (table, pos, w1, b1, w2, b2))  # else no mask, no closure
    stage = _cell_stage if ids else _slab_stage
    pooled, hidden_bw = stage(x.astype(np.int64 if ids else DEFAULT_DTYPE, copy=False), lens,
                              w1_folded, pos_b1, grad)
    o = pooled @ w2.data + b2.data
    out_data, denom = _unit_rows(o, _NORM_EPS)

    def grads(g):
        go = _unit_rows_bw(o, denom, g)
        g_folded, g_top = hidden_bw((go @ w2.data.T) / lens[:, None])  # per hidden row
        g_pos_b1 = np.zeros((pos.shape[0], h))  # adjoint of all of pos @ w1 + b1
        g_pos_b1[: len(g_top)] = g_top
        _send(b2, go.sum(axis=0))
        _send(w2, pooled.T @ go)
        _send(b1, g_pos_b1.sum(axis=0))
        _send(w1, table.data.T @ g_folded + pos.data.T @ g_pos_b1)
        _send(table, g_folded @ w1.data.T)
        _send(pos, g_pos_b1 @ w1.data.T)

    return _result(out_data, (table, pos, w1, b1, w2, b2), grads, "tower")


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
        raise NumericFailure(f"clap_loss needs N x D audio, (N + {m}) x D text, a scalar "
                             f"temperature and rows rising within [0, N), got {audio.shape}, "
                             f"{text.shape}, {log_temperature.shape}, {rows}")
    a, pos = audio.data, text.data[:n]
    scale = np.exp(log_temperature.data)
    s = a @ pos.T
    l_c, g_logits = _contrastive(s * scale)
    l_t, c = 0.0, scale if use_temperature_in_lt else 1.0
    if m:
        a_r, neg = a[rows], text.data[n:]
        margin = ((a_r * pos[rows]).sum(axis=1) - (a_r * neg).sum(axis=1)) * c
        l_t, g_margin = _order_term(margin, lt_reduction)

    def grads(g):
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
        _send(audio, g_audio)
        _send(text, g_text)
        _send(log_temperature, g_lt)

    l_train = _result(np.asarray(l_c + l_t * lambda_l), (audio, text, log_temperature), grads,
                      "clap_loss")
    return l_train, Tensor(l_c, name="l_c"), Tensor(l_t, name="l_t")


# -- backward pass ------------------------------------------------------------

def backward(loss: Tensor, params: Iterable[Tensor]) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss for every named parameter: its buffer, zeroed and
    then added into along each path from the loss, in path order (a node reached
    along two paths runs its closure twice). Valid until the next backward over it.
    """
    if loss.data.ndim != 0 or loss._grads is None:  # a constant's gradients would all read 0
        raise NumericFailure(f"backward needs a scalar loss with a closure, got shape "
                             f"{loss.shape} {'with' if loss._grads else 'without'} one")
    params = list(params)
    for p in params:
        if p.name is None or p.grad is None:
            raise NumericFailure(f"backward: {p.name!r} is not a named parameter")
        p.grad[...] = 0.0
    _send(loss, np.asarray(1.0))
    return {p.name: p.grad for p in params}


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
        raise NumericFailure(f"finite_diff_check eps {eps} outside [1e-7, 1e-2]")
    center = f(params)  # a constant has no closure to run: its analytic gradient is zero
    analytic = (backward(center, params.values()) if center._grads is not None
                else {name: np.zeros(p.shape) for name, p in params.items()})
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
