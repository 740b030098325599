"""Kernel-level checks for the reverse-mode engine.

Every backward rule is held against central finite differences (the one
oracle that cannot share a bug with the implementation), plus the handful
of closed forms that are exact in 64-bit arithmetic.
"""

import itertools

import numpy as np
import pytest

import tinyclap.tensor as T
from tinyclap.errors import NumericError, ShapeError

KERNEL_TOL = 1e-5


def leaf(name, data):
    return T.parameter(name, np.asarray(data, dtype=np.float64))


def rand(rng, *shape):
    return rng.standard_normal(shape)


# -- closed forms ---------------------------------------------------------------


def test_matmul_identity_returns_operand():
    rng = np.random.default_rng(0)
    b = rand(rng, 3, 5)
    out = T.matmul(T.Tensor(np.eye(3)), T.Tensor(b))
    np.testing.assert_array_equal(out.data, b)


def test_row_l2_normalize_three_four_five_triangle():
    out = T.row_l2_normalize(T.Tensor([[3.0, 4.0]]))
    np.testing.assert_allclose(out.data, [[0.6, 0.8]], atol=1e-9)


def test_row_l2_normalize_unit_norm_rows():
    rng = np.random.default_rng(1)
    x = rand(rng, 10, 7)
    out = T.row_l2_normalize(T.Tensor(x))
    np.testing.assert_allclose(np.linalg.norm(out.data, axis=1), 1.0, atol=1e-9)


def test_sum_of_squares_gradient():
    x = leaf("x", [[1.0, 2.0, 3.0]])
    loss = T.sum_all(T.rowwise_dot(x, x))
    grads = T.backward(loss, [x])
    np.testing.assert_allclose(grads["x"], [[2.0, 4.0, 6.0]], atol=1e-12)


def test_detached_parameter_gets_zero_gradient():
    x = leaf("x", [[1.0, 2.0]])
    unused = leaf("unused", [[5.0]])
    grads = T.backward(T.sum_all(x), [x, unused])
    np.testing.assert_array_equal(grads["unused"], np.zeros((1, 1)))
    np.testing.assert_array_equal(grads["x"], np.ones((1, 2)))


def test_softplus_matches_reference():
    x = T.Tensor([[-700.0, -1.0, 0.0, 1.0, 700.0]])
    np.testing.assert_allclose(
        T.softplus(x).data, np.logaddexp(0.0, x.data), atol=0
    )


def test_log_sum_exp_matches_reference_and_is_shift_stable():
    rng = np.random.default_rng(4)
    x = rand(rng, 5, 9)
    ref = np.log(np.exp(x).sum(axis=1))
    np.testing.assert_allclose(T.log_sum_exp(T.Tensor(x)).data, ref, atol=1e-12)
    big = T.log_sum_exp(T.Tensor(x + 1000.0)).data
    np.testing.assert_allclose(big, ref + 1000.0, atol=1e-9)


# -- finite differences, one kernel at a time -----------------------------------

# Each entry builds a scalar from a fresh leaf; a fixed random readout matrix
# makes every output coordinate matter, so a wrong adjoint anywhere shows up.


def readout2d(rng, out):
    # derive the weights from the shape, not from rng: finite_diff_check calls
    # the graph builder repeatedly and the readout must be identical each time
    w = T.Tensor(np.random.default_rng(list(out.shape)).standard_normal(out.shape))
    return T.sum_all(T.rowwise_dot(out, w))


def readout1d(rng, out):
    return T.add(T.sum_all(out), T.scale(T.mean_all(out), 0.3))


CASES = {}


def case(name):
    def deco(fn):
        CASES[name] = fn
        return fn

    return deco


@case("matmul")
def _(rng, p):
    a = p("a", rand(rng, 7, 5))
    b = p("b", rand(rng, 5, 4))
    return lambda: readout2d(rng, T.matmul(a, b))


@case("transpose")
def _(rng, p):
    x = p("x", rand(rng, 6, 3))
    return lambda: readout2d(rng, T.transpose(x))


@case("add")
def _(rng, p):
    a = p("a", rand(rng, 4, 4))
    b = p("b", rand(rng, 4, 4))
    return lambda: readout2d(rng, T.add(a, b))


@case("sub")
def _(rng, p):
    a = p("a", rand(rng, 4, 6))
    b = p("b", rand(rng, 4, 6))
    return lambda: readout2d(rng, T.sub(a, b))


@case("mean_all")
def _(rng, p):
    x = p("x", rand(rng, 5, 5))
    return lambda: T.mean_all(x)


@case("sum_all")
def _(rng, p):
    x = p("x", rand(rng, 5, 5))
    return lambda: T.sum_all(x)


@case("scale")
def _(rng, p):
    x = p("x", rand(rng, 6, 6))
    return lambda: readout2d(rng, T.scale(x, -1.7))


@case("mul_scalar")
def _(rng, p):
    x = p("x", rand(rng, 6, 6))
    s = p("s", 0.37)
    return lambda: readout2d(rng, T.mul_scalar(x, s))


@case("exp")
def _(rng, p):
    x = p("x", 0.5 * rand(rng, 6, 4))
    return lambda: readout2d(rng, T.exp(x))


@case("softplus")
def _(rng, p):
    x = p("x", rand(rng, 7, 3))
    return lambda: readout2d(rng, T.softplus(x))


@case("row_l2_normalize")
def _(rng, p):
    x = p("x", rand(rng, 8, 6) + 0.1)
    return lambda: readout2d(rng, T.row_l2_normalize(x))


@case("log_sum_exp")
def _(rng, p):
    x = p("x", rand(rng, 8, 8))
    return lambda: readout1d(rng, T.log_sum_exp(x))


@case("gather_rows")
def _(rng, p):
    e = p("e", rand(rng, 10, 4))
    ids = rng.integers(0, 10, size=15)
    return lambda: readout2d(rng, T.gather_rows(e, ids))


@case("diag_part")
def _(rng, p):
    x = p("x", rand(rng, 7, 7))
    return lambda: readout1d(rng, T.diag_part(x))


@case("rowwise_dot")
def _(rng, p):
    a = p("a", rand(rng, 9, 4))
    b = p("b", rand(rng, 9, 4))
    return lambda: readout1d(rng, T.rowwise_dot(a, b))


TOWER_LENGTHS = [3, 1, 4, 3]  # ragged, and one length twice but not side by side
EQUAL_LENGTHS = [4, 4, 4]  # one slab, laid out without a permutation
FALLING_LENGTHS = [5, 3, 3, 2, 1]  # every sequence moves in the length-sorted layout
TOWER_NAMES = ("table", "pos", "w1", "b1", "w2", "b2")


def onehot(ids, width):
    rows = np.zeros((len(ids), width))
    rows[np.arange(len(ids)), ids] = 1.0
    return rows


def tower_leaves(rng, p, one_hot=False, lengths=TOWER_LENGTHS):
    """Constant inputs (dense rows, or one-hot rows of 6 ids) and the six leaves."""
    # redraw until every pre-activation is away from the relu kink, where
    # finite differences are wrong
    at = np.concatenate([np.arange(n) for n in lengths])
    rows = at.size
    while True:
        inputs = onehot(rng.integers(0, 6, size=rows), 6) if one_hot else rand(rng, rows, 6)
        table, pos, w1, b1 = rand(rng, 6, 4), rand(rng, 5, 4), rand(rng, 4, 6), rand(rng, 6)
        if np.abs((inputs @ table + pos[at]) @ w1 + b1).min() > 0.05:
            break
    data = (table, pos, w1, b1, rand(rng, 6, 3), rand(rng, 3))
    return inputs, [p(name, v) for name, v in zip(TOWER_NAMES, data)]


@case("tower")
def _(rng, p):
    inputs, leaves = tower_leaves(rng, p)
    return lambda: readout2d(rng, T.tower(inputs, *leaves, TOWER_LENGTHS))


@case("tower_onehot")
def _(rng, p):
    inputs, leaves = tower_leaves(rng, p, one_hot=True)
    return lambda: readout2d(rng, T.tower(inputs, *leaves, TOWER_LENGTHS))


@case("tower_equal")
def _(rng, p):
    inputs, leaves = tower_leaves(rng, p, lengths=EQUAL_LENGTHS)
    return lambda: readout2d(rng, T.tower(inputs, *leaves, EQUAL_LENGTHS))


@case("tower_falling")
def _(rng, p):
    inputs, leaves = tower_leaves(rng, p, one_hot=True, lengths=FALLING_LENGTHS)
    return lambda: readout2d(rng, T.tower(inputs, *leaves, FALLING_LENGTHS))


@pytest.mark.parametrize("kernel", sorted(CASES))
def test_kernel_backward_matches_finite_differences(kernel):
    for seed in range(3):
        rng = np.random.default_rng([seed, hash(kernel) % 2**32])
        params = {}

        def p(name, data):
            params[name] = leaf(name, data)
            return params[name]

        graph = CASES[kernel](rng, p)
        err = T.finite_diff_check(lambda _: graph(), params, n_coords=200, seed=seed)
        assert err < KERNEL_TOL, f"{kernel} seed {seed}: rel err {err:.3e}"


def test_quadratic_finite_diff_is_exact_to_roundoff():
    x = leaf("x", [[2.0, -3.0, 0.5]])
    err = T.finite_diff_check(lambda ps: T.sum_all(T.rowwise_dot(ps["x"], ps["x"])), {"x": x})
    assert err < 1e-8


def test_constant_function_has_zero_error():
    x = leaf("x", [[1.0, 2.0]])
    err = T.finite_diff_check(lambda ps: T.Tensor(4.0), {"x": x})
    assert err == 0.0


# -- graph mechanics -------------------------------------------------------------


def test_backward_reuses_node_without_double_count():
    # y = x + x must give dy/dx = 2, the classic fan-out accumulation case
    x = leaf("x", [[3.0]])
    grads = T.backward(T.sum_all(T.add(x, x)), [x])
    np.testing.assert_array_equal(grads["x"], [[2.0]])


def test_backward_deterministic_bit_identical():
    def build():
        inputs, leaves = tower_leaves(np.random.default_rng(7), leaf)
        out = T.tower(inputs, *leaves, TOWER_LENGTHS)
        return T.backward(T.mean_all(T.matmul(out, T.transpose(out))), leaves)

    g1, g2 = build(), build()
    assert all(np.array_equal(g1[k], g2[k]) for k in g1)


def test_backward_requires_scalar_loss():
    x = leaf("x", [[1.0, 2.0]])
    with pytest.raises(ShapeError):
        T.backward(T.exp(x), [x])


def test_backward_requires_named_parameters():
    x = T.Tensor([[1.0]], requires_grad=True)
    with pytest.raises(ShapeError):
        T.backward(T.sum_all(x), [x])


def test_tower_matches_plain_numpy_per_sequence():
    # against the unfolded first layer: embed, add positions, then multiply by
    # w1; rising, falling, equal and unsorted lengths
    shuffled = list(np.random.default_rng(4).permutation([1, 2, 2, 3, 4, 4, 5, 5, 5]))
    cases = [TOWER_LENGTHS, EQUAL_LENGTHS, FALLING_LENGTHS, FALLING_LENGTHS[::-1], shuffled]
    for one_hot, lengths in itertools.product((False, True), cases):
        inputs, leaves = tower_leaves(np.random.default_rng(5), leaf, one_hot, lengths)
        table, pos, w1, b1, w2, b2 = (t.data for t in leaves)
        out = T.tower(inputs, *leaves, lengths).data
        assert out.shape == (len(lengths), 3)
        starts = np.cumsum([0] + lengths)
        for i, n in enumerate(lengths):
            z = inputs[starts[i] : starts[i] + n] @ table + pos[:n]
            hidden = np.maximum(z @ w1 + b1, 0.0)
            o = hidden.mean(axis=0) @ w2 + b2
            np.testing.assert_allclose(out[i], o / np.linalg.norm(o), atol=1e-12)


def test_tower_in_pieces_matches_one_piece_per_slab(monkeypatch):
    # the forward holds at most _CHUNK_ROWS hidden rows at once; with 4, every
    # slab of more than one short sequence is split, which moves no output and
    # no gradient
    lengths = [5, 1, 2, 5, 3, 2, 2, 5, 4, 4, 2]
    inputs, leaves = tower_leaves(np.random.default_rng(6), leaf, lengths=lengths)
    runs = []
    for rows in (T._CHUNK_ROWS, 4):
        monkeypatch.setattr(T, "_CHUNK_ROWS", rows)
        out = T.tower(inputs, *leaves, lengths)
        runs.append((out.data, T.backward(readout2d(np.random.default_rng(7), out), leaves)))
    (out_a, grads_a), (out_b, grads_b) = runs
    np.testing.assert_allclose(out_a, out_b, rtol=1e-12, atol=1e-12)
    for name in TOWER_NAMES:
        np.testing.assert_allclose(grads_a[name], grads_b[name], rtol=1e-12, atol=1e-12)


def test_tower_fold_is_invariant_to_where_the_lookup_happens():
    # one-hot rows against the table, or the looked-up rows against the identity
    rng = np.random.default_rng(11)
    ids = rng.integers(0, 6, size=sum(TOWER_LENGTHS))
    _, leaves = tower_leaves(rng, leaf, one_hot=True)
    table, rest = leaves[0], leaves[1:]
    eye = leaf("table", np.eye(table.shape[1]))
    results = []
    for inputs, first in ((onehot(ids, 6), table), (table.data[ids], eye)):
        out = T.tower(inputs, first, *rest, TOWER_LENGTHS)
        loss = readout2d(rng, out)
        results.append((out.data, T.backward(loss, rest)))
    (out_a, grads_a), (out_b, grads_b) = results
    np.testing.assert_allclose(out_a, out_b, rtol=1e-12, atol=1e-12)
    for name in TOWER_NAMES[1:]:
        np.testing.assert_allclose(grads_a[name], grads_b[name], rtol=1e-12, atol=1e-12)


def test_adjoint_shapes_match_primals():
    inputs, leaves = tower_leaves(np.random.default_rng(9), leaf)
    grads = T.backward(T.sum_all(T.tower(inputs, *leaves, TOWER_LENGTHS)), leaves)
    assert [grads[t.name].shape for t in leaves] == [t.shape for t in leaves]


def tower_args(rows=5, cols=2, width=2):
    """Constant rows x cols inputs, a cols x width table, a 3-row positional
    table, then w1, b1, w2, b2."""
    shapes = [(cols, width), (3, 2), (2, 4), (4,), (4, 3), (3,)]
    return [np.ones((rows, cols))] + [T.Tensor(np.ones(shape)) for shape in shapes]


# -- error surface ----------------------------------------------------------------


@pytest.mark.parametrize(
    "build",
    [
        lambda: T.matmul(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((2, 3)))),
        lambda: T.add(T.Tensor(np.ones((2, 2))), T.Tensor(np.ones((2, 3)))),
        lambda: T.tower(*tower_args(), [2, 2]),  # lengths do not tile the 5 rows
        lambda: T.tower(*tower_args(), [3, 0, 2]),  # a zero length
        lambda: T.diag_part(T.Tensor(np.ones((2, 3)))),
        lambda: T.rowwise_dot(T.Tensor(np.ones((2, 2))), T.Tensor(np.ones((2, 3)))),
        lambda: T.tower(*tower_args(), [4, 1]),  # longer than the positional table
        lambda: T.tower(*tower_args(rows=0), []),
        lambda: T.gather_rows(T.Tensor(np.ones((2, 2))), [0, 2]),
        lambda: T.mul_scalar(T.Tensor(np.ones((2, 2))), T.Tensor(np.ones(2))),
        lambda: T.row_l2_normalize(T.Tensor(np.ones((2, 2))), eps=0.0),
        lambda: T.tower(*tower_args(width=3), [3, 2]),  # table wider than w1
        lambda: T.tower(np.ones(5), *tower_args()[1:], [3, 2]),  # 1-d inputs
        lambda: T.tower(*tower_args(cols=3)[:1], *tower_args()[1:], [3, 2]),  # 3 columns, 2 table rows
        lambda: T.tower(*tower_args(rows=6), [3, 2]),  # 6 input rows, lengths sum to 5
    ],
)
def test_shape_errors(build):
    with pytest.raises(ShapeError):
        build()


def test_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        T.matmul(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((2, 3))))


def test_non_finite_input_rejected():
    with pytest.raises(NumericError):
        T.Tensor([np.nan])


def test_non_finite_result_rejected():
    with pytest.raises(NumericError):
        T.exp(T.Tensor([[1000.0]]))

