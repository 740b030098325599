"""Loss-function checks against closed forms and independent scalar oracles.

The oracles below recompute each loss with plain numpy (no shared code with
the graph ops), so agreement means the graph implementation and the formula
both say the same thing.
"""

import math

import numpy as np
import pytest

import tinyclap.tensor as T
from tinyclap import losses as L
from tinyclap.errors import InvalidConfig, ShapeError


def oracle_contrastive(s, log_temp):
    """Symmetric softmax cross-entropy on logits = s * e^log_temp, plain numpy."""
    logits = np.asarray(s, dtype=np.float64) * math.exp(log_temp)
    n = logits.shape[0]

    def ce_rows(m):
        m = m - m.max(axis=1, keepdims=True)
        log_p = m - np.log(np.exp(m).sum(axis=1, keepdims=True))
        return -log_p[np.arange(n), np.arange(n)].mean()

    return 0.5 * (ce_rows(logits) + ce_rows(logits.T))


def oracle_temporal(d_pos, d_neg):
    """Mean of -log(e^dp / (e^dp + e^dn)), term by term."""
    terms = [
        -math.log(math.exp(p) / (math.exp(p) + math.exp(q)))
        for p, q in zip(d_pos, d_neg)
    ]
    return sum(terms) / len(terms)


# -- similarity ------------------------------------------------------------------


def test_similarity_identity_and_orthogonal():
    e = np.array([[1.0, 0.0], [0.0, 1.0]])
    s = L.similarity_matrix(e, e)
    np.testing.assert_allclose(s.data, np.eye(2), atol=1e-12)


def test_similarity_three_four_five():
    s = L.similarity_matrix(np.array([[1.0, 0.0]]), np.array([[0.6, 0.8]]))
    assert s.data[0, 0] == pytest.approx(0.6, abs=1e-9)


def test_similarity_entries_bounded():
    rng = np.random.default_rng(0)
    s = L.similarity_matrix(unit_rows(rng, 12, 5), unit_rows(rng, 9, 5))
    assert s.data.shape == (12, 9)
    assert np.all(np.abs(s.data) <= 1.0 + 1e-9)


def test_similarity_is_the_plain_product_and_no_graph_node():
    rng = np.random.default_rng(1)
    a = T.parameter("a", unit_rows(rng, 4, 3))
    t = unit_rows(rng, 5, 3)
    s = L.similarity_matrix(a, t)
    np.testing.assert_array_equal(s.data, a.data @ t.T)
    assert a.requires_grad and not s.requires_grad


def test_similarity_rejects_mismatched_dims():
    with pytest.raises(ShapeError):
        L.similarity_matrix(np.ones((2, 3)), np.ones((2, 4)))


# -- contrastive loss -------------------------------------------------------------


def test_contrastive_identity_two_by_two_closed_form():
    val = L.contrastive_loss(T.Tensor(np.eye(2)), 0.0).item()
    assert val == pytest.approx(math.log(1 + math.exp(-1)), abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 7])
def test_contrastive_uniform_matrix_is_log_n(n):
    val = L.contrastive_loss(T.Tensor(np.full((n, n), 0.37)), 0.0).item()
    assert val == pytest.approx(math.log(n), abs=1e-12)


def test_contrastive_matches_oracle_random_4x4():
    rng = np.random.default_rng(3)
    s = rng.uniform(-1, 1, size=(4, 4))
    for log_temp in (0.0, 1.3, math.log(1 / 0.07)):
        got = L.contrastive_loss(T.Tensor(s), log_temp).item()
        assert got == pytest.approx(oracle_contrastive(s, log_temp), abs=1e-9)


def test_contrastive_invariant_under_consistent_permutation():
    rng = np.random.default_rng(4)
    s = rng.uniform(-1, 1, size=(6, 6))
    perm = rng.permutation(6)
    base = L.contrastive_loss(T.Tensor(s), 0.5).item()
    permuted = L.contrastive_loss(T.Tensor(s[np.ix_(perm, perm)]), 0.5).item()
    assert permuted == pytest.approx(base, abs=1e-12)


def test_contrastive_needs_square():
    with pytest.raises(ShapeError):
        L.contrastive_loss(T.Tensor(np.ones((2, 3))), 0.0)


# -- temporal loss -----------------------------------------------------------------


def unit_rows(rng, n, d):
    m = rng.standard_normal((n, d))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def test_temporal_equal_dots_is_log_two():
    a = np.array([[1.0, 0.0]])
    val = L.temporal_loss(a, a, a).item()
    assert val == pytest.approx(math.log(2), abs=1e-12)


def test_temporal_opposite_unit_dots_closed_form():
    a = np.array([[1.0, 0.0]])
    neg = np.array([[-1.0, 0.0]])
    val = L.temporal_loss(a, a, neg).item()
    assert val == pytest.approx(math.log(1 + math.exp(-2)), abs=1e-12)


def test_temporal_matches_oracle_batch_of_three():
    rng = np.random.default_rng(5)
    ea, ep, en = (unit_rows(rng, 3, 8) for _ in range(3))
    d_pos = (ea * ep).sum(axis=1)
    d_neg = (ea * en).sum(axis=1)
    got = L.temporal_loss(ea, ep, en).item()
    assert got == pytest.approx(oracle_temporal(d_pos, d_neg), abs=1e-12)


def test_temporal_sum_reduction_is_n_times_mean():
    rng = np.random.default_rng(6)
    ea, ep, en = (unit_rows(rng, 5, 4) for _ in range(3))
    mean = L.temporal_loss(ea, ep, en, reduction="mean").item()
    total = L.temporal_loss(ea, ep, en, reduction="sum").item()
    assert total == pytest.approx(5 * mean, rel=1e-12)


def test_temporal_empty_batch_is_zero():
    z = np.zeros((0, 4))
    assert L.temporal_loss(z, z, z).item() == 0.0


def test_temporal_positive_and_monotone_in_margin():
    a = np.array([[1.0, 0.0]])
    pos = np.array([[1.0, 0.0]])
    margins = np.linspace(-1.9, 1.9, 25)
    vals = []
    for m in margins:
        # neg row chosen so d_pos - d_neg comes out to exactly m
        neg = np.array([[1.0 - m, 0.0]])
        vals.append(L.temporal_loss(a, pos, neg).item())
    assert all(v > 0 for v in vals)
    assert all(b < a_ for a_, b in zip(vals, vals[1:]))


def test_temporal_depends_only_on_margin():
    # two constructions with the same d_pos - d_neg but different absolute
    # dot values must score identically
    a = np.array([[1.0, 0.0]])
    pos1, neg1 = np.array([[0.9, 0.0]]), np.array([[0.4, 0.0]])
    pos2, neg2 = np.array([[0.1, 0.0]]), np.array([[-0.4, 0.0]])
    v1 = L.temporal_loss(a, pos1, neg1).item()
    v2 = L.temporal_loss(a, pos2, neg2).item()
    assert v1 == pytest.approx(v2, abs=1e-12)


def test_temporal_gradient_step_decreases_each_term():
    # the order term's gradient from clap_loss: l_train is linear in lambda_l, so
    # the gradients at lambda_l 1 and 0 differ by the order term's alone
    rng = np.random.default_rng(7)
    ea = unit_rows(rng, 4, 6)
    ep_data, en_data = unit_rows(rng, 4, 6), unit_rows(rng, 4, 6)
    text = T.parameter("text", np.vstack([ep_data, en_data]))
    ep = text.data[:4]
    before = [
        L.temporal_loss(ea[i : i + 1], ep[i : i + 1], en_data[i : i + 1]).item()
        for i in range(4)
    ]

    def grad(lambda_l):
        l_train, _, _ = T.clap_loss(T.Tensor(ea), text, T.Tensor(0.0), range(4), lambda_l, "sum")
        return T.backward(l_train, [text])["text"][:4].copy()  # the next call refills the buffer

    ep -= 0.05 * (grad(1.0) - grad(0.0))
    after = [
        L.temporal_loss(ea[i : i + 1], ep[i : i + 1], en_data[i : i + 1]).item()
        for i in range(4)
    ]
    assert all(b < a for a, b in zip(before, after))


def test_temporal_rejects_bad_reduction_and_shapes():
    a = np.ones((2, 3))
    with pytest.raises(InvalidConfig):
        L.temporal_loss(a, a, a, reduction="max")
    with pytest.raises(ShapeError):
        L.temporal_loss(a, a, np.ones((3, 3)))


def test_temporal_optional_temperature_scales_margin():
    a = np.array([[1.0, 0.0]])
    neg = np.array([[-1.0, 0.0]])
    log_temp = math.log(3.0)
    val = L.temporal_loss(a, a, neg, log_temperature=log_temp).item()
    assert val == pytest.approx(math.log(1 + math.exp(-6)), abs=1e-12)


# -- combined objective ---------------------------------------------------------------


class FakeBatch:
    """Like encoders.BatchEmbeddings: the text rows hold the captions, then the
    reversed caption of each temporal row."""

    def __init__(self, audio, text, text_neg, temporal_rows):
        self.audio = T.Tensor(audio)
        self.text = T.Tensor(text if text_neg is None else np.vstack([text, text_neg]))
        self.temporal_rows = temporal_rows


def make_batch(rng, n=4, d=6, temporal_rows=(1, 3)):
    audio = unit_rows(rng, n, d)
    text = unit_rows(rng, n, d)
    neg = unit_rows(rng, len(temporal_rows), d) if temporal_rows else None
    return FakeBatch(audio, text, neg, tuple(temporal_rows))


def test_train_loss_breakdown_arithmetic_exact():
    batch = make_batch(np.random.default_rng(8))
    cfg = L.LossConfig(lambda_l=0.5)
    out = L.train_loss(batch, cfg, 0.2)
    assert out.l_train.item() == out.l_c.item() + 0.5 * out.l_t.item()
    assert out.temporal_count == 2


def test_train_loss_lambda_zero_is_contrastive_only():
    batch = make_batch(np.random.default_rng(9))
    out = L.train_loss(batch, L.LossConfig(lambda_l=0.0), 0.0)
    assert out.l_train.item() == out.l_c.item()
    assert out.l_t.item() > 0  # still reported, just unweighted


def test_train_loss_no_temporal_rows():
    batch = make_batch(np.random.default_rng(10), temporal_rows=())
    out = L.train_loss(batch, L.LossConfig(lambda_l=0.5), 0.0)
    assert out.l_t.item() == 0.0
    assert out.l_train.item() == out.l_c.item()
    assert out.temporal_count == 0


def test_train_loss_half_lambda_example():
    # l_c = 1.0 and l_t = 0.4 must combine to exactly 1.2; realized by
    # scaling the actual computed losses rather than faking tensors
    batch = make_batch(np.random.default_rng(11))
    out = L.train_loss(batch, L.LossConfig(lambda_l=0.5), 0.0)
    lc, lt = out.l_c.item(), out.l_t.item()
    assert out.l_train.item() == pytest.approx(lc + 0.5 * lt, abs=1e-15)


def test_train_loss_matches_component_oracles():
    rng = np.random.default_rng(12)
    batch = make_batch(rng, n=5, d=8, temporal_rows=(0, 2, 4))
    log_temp = 0.7
    out = L.train_loss(batch, L.LossConfig(lambda_l=0.5), log_temp)
    s = batch.audio.data @ batch.text.data[:5].T
    assert out.l_c.item() == pytest.approx(oracle_contrastive(s, log_temp), abs=1e-9)
    rows = np.array(batch.temporal_rows)
    d_pos = (batch.audio.data[rows] * batch.text.data[rows]).sum(axis=1)
    d_neg = (batch.audio.data[rows] * batch.text.data[5:]).sum(axis=1)
    assert out.l_t.item() == pytest.approx(oracle_temporal(d_pos, d_neg), abs=1e-9)


def test_loss_config_validates():
    with pytest.raises(InvalidConfig):
        L.LossConfig(lambda_l=-0.1)
    with pytest.raises(InvalidConfig):
        L.LossConfig(lambda_l=float("nan"))
    with pytest.raises(InvalidConfig):
        L.LossConfig(lt_reduction="median")


def test_gradient_flows_through_both_terms():
    rng = np.random.default_rng(13)
    audio = T.parameter("audio", unit_rows(rng, 4, 6))
    text = T.parameter("text", unit_rows(rng, 6, 6))  # 4 captions, then 2 reversals

    class B:
        pass

    b = B()
    b.audio, b.text, b.temporal_rows = audio, text, (0, 2)
    out = L.train_loss(b, L.LossConfig(lambda_l=0.5), 0.0)
    grads = T.backward(out.l_train, [audio, text])
    assert np.abs(grads["audio"]).max() > 0
    assert np.abs(grads["text"][:4]).max() > 0 and np.abs(grads["text"][4:]).min() > 0


# -- the clap_loss op ----------------------------------------------------------------


@pytest.mark.parametrize("reduction", ["mean", "sum"])
@pytest.mark.parametrize("temperature_in_lt", [False, True])
@pytest.mark.parametrize("rows", [(), (0, 2, 4), (0, 1, 3, 4)])
def test_clap_loss_matches_component_oracles(reduction, temperature_in_lt, rows):
    rng = np.random.default_rng(14)
    n, log_temp = 5, 0.9
    audio, text = unit_rows(rng, n, 7), unit_rows(rng, n + len(rows), 7)
    l_train, l_c, l_t = T.clap_loss(T.Tensor(audio), T.Tensor(text), T.Tensor(log_temp), rows,
                                    0.3, reduction, temperature_in_lt)
    assert l_c.item() == pytest.approx(oracle_contrastive(audio @ text[:n].T, log_temp),
                                       rel=1e-12)
    want = 0.0
    if rows:
        idx = list(rows)
        scale = math.exp(log_temp) if temperature_in_lt else 1.0
        d_pos = scale * (audio[idx] * text[idx]).sum(axis=1)
        d_neg = scale * (audio[idx] * text[n:]).sum(axis=1)
        want = oracle_temporal(d_pos, d_neg) * (len(rows) if reduction == "sum" else 1)
    assert l_t.item() == pytest.approx(want, rel=1e-12)
    assert l_train.item() == l_c.item() + l_t.item() * 0.3
    assert not l_c.requires_grad and not l_t.requires_grad
