"""Kernel-level checks for the reverse-mode engine.

Every backward rule is held against central finite differences (the one
oracle that cannot share a bug with the implementation), plus the handful
of closed forms that are exact in 64-bit arithmetic.
"""

import itertools
import tracemalloc
import zlib

import numpy as np
import pytest

import tinyclap.tensor as T
from tinyclap.errors import NumericError, ShapeError

KERNEL_TOL = 1e-5


def leaf(name, data):
    return T.parameter(name, np.asarray(data, dtype=np.float64))


def gradients(loss, leaves):
    """backward's arrays, copied: the next backward over the same leaves refills them."""
    return {name: g.copy() for name, g in T.backward(loss, leaves).items()}


def rand(rng, *shape):
    return rng.standard_normal(shape)


def sum_node(x, w=None):
    """Test-local readout node: the sum of every entry of x, weighted by w if given."""
    w = np.ones(x.shape) if w is None else w
    return T._result(np.asarray((x.data * w).sum()), (x,), lambda g: T._send(x, g * w), "sum")


def square_sum(x):
    """Test-local node: the sum of the squares of x's entries."""
    return T._result(np.asarray((x.data * x.data).sum()), (x,),
                     lambda g: T._send(x, 2.0 * g * x.data), "square_sum")


def unit_rows_node(x):
    """Test-local node: `tower`'s unit-row scaling, forward and backward, on its own."""
    out, denom = T._unit_rows(x.data, T._NORM_EPS)
    return T._result(out, (x,), lambda g: T._send(x, T._unit_rows_bw(x.data, denom, g)),
                     "unit_rows")


# -- closed forms ---------------------------------------------------------------


def test_row_l2_normalize_three_four_five_triangle():
    out, _ = T._unit_rows(np.array([[3.0, 4.0]]), T._NORM_EPS)
    np.testing.assert_allclose(out, [[0.6, 0.8]], atol=1e-9)


def test_row_l2_normalize_unit_norm_rows():
    rng = np.random.default_rng(1)
    out, _ = T._unit_rows(rand(rng, 10, 7), T._NORM_EPS)
    np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-9)


def test_sum_of_squares_gradient():
    x = leaf("x", [[1.0, 2.0, 3.0]])
    grads = T.backward(square_sum(x), [x])
    np.testing.assert_allclose(grads["x"], [[2.0, 4.0, 6.0]], atol=1e-12)


def test_detached_parameter_gets_zero_gradient():
    x = leaf("x", [[1.0, 2.0]])
    unused = leaf("unused", [[5.0]])
    grads = T.backward(sum_node(x), [x, unused])
    np.testing.assert_array_equal(grads["unused"], np.zeros((1, 1)))
    np.testing.assert_array_equal(grads["x"], np.ones((1, 2)))


def test_softplus_matches_reference():
    # clap_loss's order term, one margin at a time, out to where exp(-margin) nears overflow
    for m in (-700.0, -1.0, 0.0, 1.0, 700.0):
        value, _ = T._order_term(np.array([m]), "sum")
        assert value == np.logaddexp(0.0, -m)


def test_log_sum_exp_matches_reference_and_is_shift_stable():
    # clap_loss's contrastive term: the mean of both directions' log-sum-exp less
    # the diagonal, unchanged by a shift of every logit that would overflow exp
    rng = np.random.default_rng(4)
    x = rand(rng, 5, 5)
    lse_rows, lse_cols = np.log(np.exp(x).sum(axis=1)), np.log(np.exp(x).sum(axis=0))
    want = 0.5 * (np.mean(lse_rows - np.diagonal(x)) + np.mean(lse_cols - np.diagonal(x)))
    for shift in (0.0, 1000.0):
        value, grad = T._contrastive(x + shift)
        assert value == pytest.approx(want, abs=1e-9)
        assert abs(grad.sum()) < 1e-12  # each softmax sums to one, as the identity does


# -- finite differences, one op at a time -----------------------------------------

# Each entry builds a scalar from fresh leaves; a fixed random readout matrix
# makes every output coordinate matter, so a wrong adjoint anywhere shows up.


def readout2d(rng, out):
    # derive the weights from the shape, not from rng: finite_diff_check calls
    # the graph builder repeatedly and the readout must be identical each time
    return sum_node(out, np.random.default_rng(list(out.shape)).standard_normal(out.shape))


CASES = {}


def case(name):
    def deco(fn):
        CASES[name] = fn
        return fn

    return deco


@case("row_l2_normalize")
def _(rng, p):
    x = p("x", rand(rng, 8, 6) + 0.1)
    return lambda: readout2d(rng, unit_rows_node(x))


def helper_node(helper, x, *args):
    """Test-local node around one of clap_loss's numpy helpers, which return a
    value and its gradient."""
    value, grad = helper(x.data, *args)
    return T._result(np.asarray(value), (x,), lambda g: T._send(x, g * grad), "helper")


@case("log_sum_exp")
def _(rng, p):
    # the contrastive term: both directions' log-sum-exp less the diagonal
    x = p("x", 2.0 * rand(rng, 6, 6))
    return lambda: helper_node(T._contrastive, x)


@case("softplus")
def _(rng, p):
    # the order term: softplus(-margin), summed
    x = p("x", 2.0 * rand(rng, 9))
    return lambda: helper_node(T._order_term, x, "sum")


def clap_case(reduction, temperature_in_lt, rows):
    def build(rng, p):
        n = 7
        audio = p("audio", 0.6 * rand(rng, n, 4))
        text = p("text", 0.6 * rand(rng, n + len(rows), 4))
        log_t = p("log_t", 0.4)
        return lambda: T.clap_loss(audio, text, log_t, rows, 0.7, reduction, temperature_in_lt)[0]

    return build


for _reduction, _temperature, _rows in itertools.product(("mean", "sum"), (False, True),
                                                         ((), (0, 2, 3, 6))):
    case(f"clap_loss-{_reduction}-{'temp' if _temperature else 'notemp'}-"
         f"{'rows' if _rows else 'norows'}")(clap_case(_reduction, _temperature, _rows))


TOWER_LENGTHS = [3, 1, 4, 3]  # ragged, and one length twice but not side by side
EQUAL_LENGTHS = [4, 4, 4]  # one slab, laid out without a permutation
FALLING_LENGTHS = [5, 3, 3, 2, 1]  # every sequence moves in the length-sorted layout
TOWER_NAMES = ("table", "pos", "w1", "b1", "w2", "b2")


def onehot(ids, width):
    rows = np.zeros((len(ids), width))
    rows[np.arange(len(ids)), ids] = 1.0
    return rows


def tower_leaves(rng, p, kind="rows", lengths=TOWER_LENGTHS):
    """Constant inputs (dense rows, or one-hot rows or token ids of 6 ids) and the six leaves."""
    # redraw until every pre-activation is away from the relu kink, where
    # finite differences are wrong
    at = np.concatenate([np.arange(n) for n in lengths])
    rows = at.size
    while True:
        inputs = rand(rng, rows, 6) if kind == "rows" else rng.integers(0, 6, size=rows)
        inputs = onehot(inputs, 6) if kind == "onehot" else inputs
        table, pos, w1, b1 = rand(rng, 6, 4), rand(rng, 5, 4), rand(rng, 4, 6), rand(rng, 6)
        embedded = table[inputs] if kind == "ids" else inputs @ table
        if np.abs((embedded + pos[at]) @ w1 + b1).min() > 0.05:
            break
    data = (table, pos, w1, b1, rand(rng, 6, 3), rand(rng, 3))
    return inputs, [p(name, v) for name, v in zip(TOWER_NAMES, data)]


@case("tower")
def _(rng, p):
    inputs, leaves = tower_leaves(rng, p)
    return lambda: readout2d(rng, T.tower(inputs, *leaves, TOWER_LENGTHS))


@case("tower_onehot")
def _(rng, p):
    inputs, leaves = tower_leaves(rng, p, "onehot")
    return lambda: readout2d(rng, T.tower(inputs, *leaves, TOWER_LENGTHS))


@case("tower_equal")
def _(rng, p):
    inputs, leaves = tower_leaves(rng, p, lengths=EQUAL_LENGTHS)
    return lambda: readout2d(rng, T.tower(inputs, *leaves, EQUAL_LENGTHS))


@case("tower_falling")
def _(rng, p):
    inputs, leaves = tower_leaves(rng, p, "onehot", FALLING_LENGTHS)
    return lambda: readout2d(rng, T.tower(inputs, *leaves, FALLING_LENGTHS))


@case("tower_ids")
def _(rng, p):
    # five sequences over 6 ids: at each of the three seeds two of them share a cell
    inputs, leaves = tower_leaves(rng, p, "ids", FALLING_LENGTHS)
    return lambda: readout2d(rng, T.tower(inputs, *leaves, FALLING_LENGTHS))


@case("tower_shared")
def _(rng, p):
    # one tower node as both of clap_loss's inputs: its backward runs once per
    # use, and each leaf's gradient is the sum over the two paths
    inputs, leaves = tower_leaves(rng, p)
    log_t = p("log_t", 0.4)

    def build():
        out = T.tower(inputs, *leaves, TOWER_LENGTHS)
        return T.clap_loss(out, out, log_t, (), 0.7)[0]

    return build


@pytest.mark.parametrize("kernel", sorted(CASES))
def test_kernel_backward_matches_finite_differences(kernel):
    for seed in range(3):
        rng = np.random.default_rng([seed, zlib.crc32(kernel.encode())])  # same draw in every process
        params = {}

        def p(name, data):
            params[name] = leaf(name, data)
            return params[name]

        graph = CASES[kernel](rng, p)
        err = T.finite_diff_check(lambda _: graph(), params, n_coords=200, seed=seed)
        assert err < KERNEL_TOL, f"{kernel} seed {seed}: rel err {err:.3e}"


def test_quadratic_finite_diff_is_exact_to_roundoff():
    x = leaf("x", [[2.0, -3.0, 0.5]])
    err = T.finite_diff_check(lambda ps: square_sum(ps["x"]), {"x": x})
    assert err < 1e-8


def test_constant_function_has_zero_error():
    x = leaf("x", [[1.0, 2.0]])
    err = T.finite_diff_check(lambda ps: T.Tensor(4.0), {"x": x})
    assert err == 0.0


# -- graph mechanics -------------------------------------------------------------


def test_backward_reuses_node_without_double_count():
    # one tower node as both of clap_loss's inputs must give the gradient of two
    # towers over the same leaves: it runs its backward once per use, the same
    # arithmetic as the twins, and the leaves' gradients add up
    inputs, leaves = tower_leaves(np.random.default_rng(8), leaf)
    log_t = leaf("log_t", 0.2)
    out = T.tower(inputs, *leaves, TOWER_LENGTHS)
    shared = gradients(T.clap_loss(out, out, log_t, (), 1.0)[0], leaves)
    twins = [T.tower(inputs, *leaves, TOWER_LENGTHS) for _ in range(2)]
    apart = T.backward(T.clap_loss(*twins, log_t, (), 1.0)[0], leaves)
    for name in TOWER_NAMES:
        np.testing.assert_array_equal(shared[name], apart[name])


def test_backward_deterministic_bit_identical():
    def build():
        inputs, leaves = tower_leaves(np.random.default_rng(7), leaf)
        out = T.tower(inputs, *leaves, TOWER_LENGTHS)
        return T.backward(T.clap_loss(out, out, leaf("log_t", 0.0), (), 1.0)[0], leaves)

    g1, g2 = build(), build()
    assert all(np.array_equal(g1[k], g2[k]) for k in g1)


def test_backward_requires_scalar_loss():
    x = leaf("x", [[1.0, 2.0]])
    with pytest.raises(ShapeError):
        T.backward(unit_rows_node(x), [x])


def test_backward_requires_named_parameters():
    x = T.parameter(None, [[1.0]])
    with pytest.raises(ShapeError):
        T.backward(sum_node(x), [x])


def test_backward_rejects_a_constant_as_a_parameter():
    # a constant has no buffer to fill, so it cannot stand in a parameter list
    x, c = leaf("x", [[1.0, 2.0]]), T.Tensor([[3.0]], name="c")
    with pytest.raises(ShapeError, match="'c'"):
        T.backward(sum_node(x), [x, c])


def test_backward_fills_and_returns_the_parameters_own_buffers():
    # each call zeroes the buffer before it adds, so a second call gives the same bytes
    x = leaf("x", [[1.0, -2.0]])
    for _ in range(2):
        grads = T.backward(square_sum(x), [x])
        assert grads["x"] is x.grad
        np.testing.assert_array_equal(grads["x"], [[2.0, -4.0]])


def test_tower_matches_plain_numpy_per_sequence():
    # against the unfolded first layer: embed, add positions, then multiply by
    # w1; rising, falling, equal and unsorted lengths
    shuffled = list(np.random.default_rng(4).permutation([1, 2, 2, 3, 4, 4, 5, 5, 5]))
    cases = [TOWER_LENGTHS, EQUAL_LENGTHS, FALLING_LENGTHS, FALLING_LENGTHS[::-1], shuffled]
    for kind, lengths in itertools.product(("rows", "onehot", "ids"), cases):
        inputs, leaves = tower_leaves(np.random.default_rng(5), leaf, kind, lengths)
        table, pos, w1, b1, w2, b2 = (t.data for t in leaves)
        out = T.tower(inputs, *leaves, lengths).data
        assert out.shape == (len(lengths), 3)
        starts = np.cumsum([0] + lengths)
        for i, n in enumerate(lengths):
            at = inputs[starts[i] : starts[i] + n]
            z = (table[at] if kind == "ids" else at @ table) + pos[:n]
            hidden = np.maximum(z @ w1 + b1, 0.0)
            o = hidden.mean(axis=0) @ w2 + b2
            np.testing.assert_allclose(out[i], o / np.linalg.norm(o), atol=1e-12)


def test_tower_in_pieces_matches_one_piece_per_slab(monkeypatch):
    # both directions walk the hidden layer in pieces of at most _PIECE_BYTES;
    # at 6 rows of 6 units every slab of more than one sequence is split, the
    # four sequences of length 2 into 3 + 1, which moves no output and no
    # gradient beyond rounding
    lengths = [5, 1, 2, 5, 3, 2, 2, 5, 4, 4, 2]
    inputs, leaves = tower_leaves(np.random.default_rng(6), leaf, lengths=lengths)
    runs = []
    for budget in (1 << 30, 6 * 6 * 8):
        monkeypatch.setattr(T, "_PIECE_BYTES", budget)
        out = T.tower(inputs, *leaves, lengths)
        runs.append((out.data, gradients(readout2d(np.random.default_rng(7), out), leaves)))
    (out_a, grads_a), (out_b, grads_b) = runs
    np.testing.assert_allclose(out_a, out_b, rtol=1e-12, atol=1e-12)
    for name in TOWER_NAMES:
        np.testing.assert_allclose(grads_a[name], grads_b[name], rtol=1e-12, atol=1e-12)


def test_tower_holds_no_full_size_hidden_layer():
    # 64 clips of 40 frames at hidden_dim 192: the hidden layer is 3.93 MB, and
    # neither direction may allocate half of it beyond what it started with
    rng = np.random.default_rng(12)
    inputs = rand(rng, 64 * 40, 16)
    shapes = [(16, 64), (40, 64), (64, 192), (192,), (192, 64), (64,)]
    leaves = [leaf(name, 0.1 * rand(rng, *shape)) for name, shape in zip(TOWER_NAMES, shapes)]
    hidden = inputs.shape[0] * 192 * 8
    tracemalloc.start()
    try:
        out = T.tower(inputs, *leaves, [40] * 64)
        forward = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        out._grads(np.ones(out.shape))
        backward = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert forward < hidden / 2, f"forward peaks at {forward} bytes"
    assert backward < hidden / 2, f"backward peaks at {backward} bytes"


def test_tower_ids_match_one_hot_rows(monkeypatch):
    # the cell stage against the slab stage fed one-hot rows of the same ids,
    # the output to the bit (both sum each sequence's hidden rows in place
    # order): falling, equal, repeated and unsorted lengths; token 2 opens
    # every sequence, so one cell is shared by all of them; ids stay below 5
    # of a vocab of 9, so four table rows get no gradient; and pooling in one
    # piece and in pieces of one sequence
    rng = np.random.default_rng(13)
    shapes = [(9, 4), (6, 4), (4, 6), (6,), (6, 3), (3,)]
    leaves = [leaf(name, rand(rng, *shape)) for name, shape in zip(TOWER_NAMES, shapes)]
    for lengths in (FALLING_LENGTHS, EQUAL_LENGTHS, TOWER_LENGTHS, [2, 5, 2, 6, 1, 2]):
        ids = rng.integers(0, 5, size=sum(lengths))
        ids[np.cumsum([0] + lengths[:-1])] = 2
        dense = T.tower(onehot(ids, 9), *leaves, lengths)
        want = gradients(readout2d(rng, dense), leaves)
        assert not want["table"][5:].any()
        for budget in (1 << 30, 1):
            monkeypatch.setattr(T, "_PIECE_BYTES", budget)
            out = T.tower(ids, *leaves, lengths)
            np.testing.assert_array_equal(out.data, dense.data)
            grads = T.backward(readout2d(rng, out), leaves)
            for name in TOWER_NAMES:
                np.testing.assert_allclose(grads[name], want[name], rtol=1e-12, atol=1e-12)


def test_tower_ids_hold_no_one_hot_rows():
    # an evaluation call: 1,000 captions of 13 to 18 tokens of a 35-token vocab
    # at hidden_dim 192, where one-hot rows of the ids alone would take ~4.3 MB
    rng = np.random.default_rng(14)
    lengths = rng.integers(13, 19, size=1000)
    ids = rng.integers(0, 35, size=lengths.sum())
    shapes = [(35, 64), (18, 64), (64, 192), (192,), (192, 64), (64,)]
    leaves = [leaf(name, 0.1 * rand(rng, *shape)) for name, shape in zip(TOWER_NAMES, shapes)]
    tracemalloc.start()
    try:
        T.tower(ids, *leaves, lengths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ids.size * 35 * 8, f"forward peaks at {peak} bytes"


def test_tower_fold_is_invariant_to_where_the_lookup_happens():
    # one-hot rows against the table, or the looked-up rows against the identity
    rng = np.random.default_rng(11)
    ids = rng.integers(0, 6, size=sum(TOWER_LENGTHS))
    _, leaves = tower_leaves(rng, leaf, "onehot")
    table, rest = leaves[0], leaves[1:]
    eye = leaf("table", np.eye(table.shape[1]))
    results = []
    for inputs, first in ((onehot(ids, 6), table), (table.data[ids], eye)):
        out = T.tower(inputs, first, *rest, TOWER_LENGTHS)
        loss = readout2d(rng, out)
        results.append((out.data, gradients(loss, rest)))
    (out_a, grads_a), (out_b, grads_b) = results
    np.testing.assert_allclose(out_a, out_b, rtol=1e-12, atol=1e-12)
    for name in TOWER_NAMES[1:]:
        np.testing.assert_allclose(grads_a[name], grads_b[name], rtol=1e-12, atol=1e-12)


def test_adjoint_shapes_match_primals():
    inputs, leaves = tower_leaves(np.random.default_rng(9), leaf)
    grads = T.backward(sum_node(T.tower(inputs, *leaves, TOWER_LENGTHS)), leaves)
    assert [grads[t.name].shape for t in leaves] == [t.shape for t in leaves]


def clap(n, text_rows, width=3, rows=(), log_t=0.0):
    """clap_loss on n audio rows and text_rows text rows of ones."""
    return T.clap_loss(T.Tensor(np.ones((n, 3))), T.Tensor(np.ones((text_rows, width))),
                       T.Tensor(log_t), rows, 1.0)


def tower_args(rows=5, cols=2, width=2):
    """Constant rows x cols inputs, a cols x width table, a 3-row positional
    table, then w1, b1, w2, b2."""
    shapes = [(cols, width), (3, 2), (2, 4), (4,), (4, 3), (3,)]
    return [np.ones((rows, cols))] + [T.Tensor(np.ones(shape)) for shape in shapes]


def tower_ids(ids, width=2):
    """tower_args with token ids of its 2-row table in place of the rows."""
    return [np.asarray(ids)] + tower_args(width=width)[1:]


# -- error surface ----------------------------------------------------------------


@pytest.mark.parametrize(
    "build",
    [
        lambda: clap(2, 2, rows=(0,)),  # no reversed caption row for the flagged row
        lambda: clap(2, 2, width=4),  # text rows wider than audio rows
        lambda: T.tower(*tower_args(), [2, 2]),  # lengths do not tile the 5 rows
        lambda: T.tower(*tower_args(), [3, 0, 2]),  # a zero length
        lambda: clap(2, 2, log_t=np.zeros(1)),  # a temperature that is not a scalar
        lambda: clap(2, 3, rows=(2,)),  # a flagged row past the batch
        lambda: T.tower(*tower_args(), [4, 1]),  # longer than the positional table
        lambda: T.tower(*tower_args(rows=0), []),
        lambda: clap(3, 5, rows=(1, 0)),  # flagged rows out of order
        lambda: T.clap_loss(T.Tensor(np.ones(3)), T.Tensor(np.ones((1, 3))), T.Tensor(0.0), (), 1.0),
        lambda: clap(0, 0),  # an empty batch
        lambda: T.tower(*tower_args(width=3), [3, 2]),  # table wider than w1
        lambda: T.tower(np.ones(5), *tower_args()[1:], [3, 2]),  # 1-d inputs
        lambda: T.tower(*tower_args(cols=3)[:1], *tower_args()[1:], [3, 2]),  # 3 columns, 2 table rows
        lambda: T.tower(*tower_args(rows=6), [3, 2]),  # 6 input rows, lengths sum to 5
        lambda: T.tower(*tower_ids([0, 1, -1, 0, 1]), [3, 2]),  # a negative id would wrap around
        lambda: T.tower(*tower_ids([0, 1, 2, 0, 1]), [3, 2]),  # an id past the 2-row table
        lambda: T.tower(*tower_ids([0.0, 1.0, 1.0, 0.0, 1.0]), [3, 2]),  # float ids
        lambda: T.tower(*tower_ids(np.ones(5, dtype=bool)), [3, 2]),  # bool ids
        lambda: T.tower(*tower_ids(np.int64(1)), [1]),  # 0-d ids
        lambda: T.tower(*tower_ids([0, 1, 1, 0, 1]), [2, 2]),  # lengths do not tile the 5 ids
        lambda: T.tower(*tower_ids([0, 1, 1, 0, 1]), [4, 1]),  # longer than the positional table
        lambda: T.tower(*tower_ids([0, 1, 1, 0, 1], width=3), [3, 2]),  # table wider than w1
    ],
)
def test_shape_errors(build):
    with pytest.raises(ShapeError):
        build()


def test_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 4\)"):
        clap(2, 2, width=4)


def test_non_finite_input_rejected():
    with pytest.raises(NumericError):
        T.Tensor([np.nan])


def test_non_finite_result_rejected():
    with pytest.raises(NumericError), np.errstate(over="ignore", invalid="ignore"):
        clap(2, 2, log_t=1000.0)  # exp(1000) overflows

