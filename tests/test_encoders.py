"""Encoder tower checks: shapes, normalization, order sensitivity, batching.

Order sensitivity is the property the whole experiment rests on, so it gets
a 100-seed sweep per tower rather than a single example.
"""

import numpy as np
import pytest

import tinyclap.tensor as T
from tinyclap import corpus as C
from tinyclap import encoders as E
from tinyclap.errors import (
    EmptyInput,
    InvalidConfig,
    MissingNegative,
    SequenceTooLong,
    ShapeError,
)


CFG = E.EncoderConfig(
    frame_dim=6, token_embed_dim=8, max_positions=12, hidden_dim=10, shared_dim=5
)


@pytest.fixture(scope="module")
def vocab():
    return E.TextVocab(tokens=(E.UNK_TOKEN, "dog", "barking", "thunder", "rain", "and", "then"))


@pytest.fixture(scope="module")
def params(vocab):
    return E.init_params(CFG, vocab, seed=3)


# -- vocab -----------------------------------------------------------------------


def test_vocab_unk_fallback(vocab):
    assert vocab.encode(["dog", "nope", "rain"]) == [1, 0, 4]


def test_vocab_requires_unk_first():
    with pytest.raises(InvalidConfig):
        E.TextVocab(tokens=("dog", E.UNK_TOKEN))


def test_vocab_rejects_duplicates():
    with pytest.raises(InvalidConfig):
        E.TextVocab(tokens=(E.UNK_TOKEN, "dog", "dog"))


def test_build_vocab_first_occurrence_order():
    catalog = C.build_catalog(6, 4, seed=0)
    man = C.build_mixed_dataset(catalog, 10, 2, 2, 0.0, False, seed=1)
    vocab = E.build_vocab([man])
    assert vocab.tokens[0] == E.UNK_TOKEN
    first_caption = man.records[0].caption_pos.tokens
    assert vocab.tokens[1 : 1 + len(set(first_caption))][0] == first_caption[0]
    # every caption token is encodable without falling back to unk
    for rec in man.records:
        assert 0 not in vocab.encode(rec.caption_pos.tokens)


def test_build_vocab_rejects_empty():
    with pytest.raises(InvalidConfig):
        E.build_vocab([])


# -- init -------------------------------------------------------------------------


def test_init_params_deterministic(vocab):
    a = E.init_params(CFG, vocab, seed=5)
    b = E.init_params(CFG, vocab, seed=5)
    assert set(a.tensors) == set(E.PARAM_ORDER)
    for name in E.PARAM_ORDER:
        np.testing.assert_array_equal(a[name].data, b[name].data)


def test_init_params_shapes_and_constants(params, vocab):
    assert params["text.embed"].shape == (len(vocab), 8)
    assert params["audio.proj"].shape == (6, 8)
    assert params["text.w1"].shape == (8, 10)
    assert params["text.w2"].shape == (10, 5)
    assert params["log_temperature"].shape == ()
    assert params["log_temperature"].item() == pytest.approx(np.log(1 / 0.07))
    np.testing.assert_array_equal(params["text.b1"].data, np.zeros(10))


def test_init_params_vocab_size_must_match(vocab):
    with pytest.raises(InvalidConfig):
        E.init_params(E.EncoderConfig(vocab_size=99), vocab, seed=0)


def test_encoder_config_validates():
    with pytest.raises(InvalidConfig):
        E.EncoderConfig(hidden_dim=0)


# -- single encodes ----------------------------------------------------------------


# At init the pre-normalization rows have norm ~1e-4 (std-0.02 weights, zero
# biases), where the zero-guard costs eps^2 / (2 norm^2) ~ 1e-8 of unit length.
UNIT_TOL = 1e-7


def test_encode_text_unit_norm(params):
    out = E.encode_text_batch(params, [["dog", "barking"]])
    assert out.shape == (1, 5)
    assert np.linalg.norm(out.data) == pytest.approx(1.0, abs=UNIT_TOL)


def test_encode_audio_unit_norm(params):
    clip = np.random.default_rng(0).standard_normal((7, 6))
    out = E.encode_audio_batch(params, [clip])
    assert out.shape == (1, 5)
    assert np.linalg.norm(out.data) == pytest.approx(1.0, abs=UNIT_TOL)


def test_encode_audio_checks_frame_dim(params):
    with pytest.raises(InvalidConfig):
        E.encode_audio_batch(params, [np.zeros((4, 3))])


def test_empty_inputs_rejected(params):
    with pytest.raises(EmptyInput):
        E.encode_text_batch(params, [[]])
    with pytest.raises(EmptyInput):
        E.encode_audio_batch(params, [np.zeros((0, 6))])
    for encode in (E.encode_text_batch, E.encode_audio_batch):
        with pytest.raises(EmptyInput):
            encode(params, [])


def test_too_long_inputs_rejected(params):
    with pytest.raises(SequenceTooLong):
        E.encode_text_batch(params, [["dog"] * 13])
    with pytest.raises(SequenceTooLong):
        E.encode_audio_batch(params, [np.zeros((13, 6))])


@pytest.mark.parametrize("bad_id", [-1, 7])
def test_token_id_outside_vocab_rejected(params, bad_id):
    # a negative id would silently pick the last one-hot column
    with pytest.raises(ShapeError, match="token ids"):
        E._encode_groups(params, "text", [[1, 2], [3, bad_id]])


# -- order sensitivity ---------------------------------------------------------------


def test_text_tower_order_sensitive_100_seeds(vocab):
    for seed in range(100):
        p = E.init_params(CFG, vocab, seed=seed)
        fwd = E.encode_text_batch(p, [["dog", "barking", "and", "thunder"]]).data
        rev = E.encode_text_batch(p, [["thunder", "and", "barking", "dog"]]).data
        assert np.linalg.norm(fwd - rev) > 1e-6, f"text tower order-blind at seed {seed}"


def test_audio_tower_order_sensitive_100_seeds(vocab):
    clip_rng = np.random.default_rng(1234)
    a = clip_rng.standard_normal((3, 6))
    b = clip_rng.standard_normal((3, 6))
    fwd_clip = np.concatenate([a, b])
    rev_clip = np.concatenate([b, a])
    for seed in range(100):
        p = E.init_params(CFG, vocab, seed=seed)
        fwd = E.encode_audio_batch(p, [fwd_clip]).data
        rev = E.encode_audio_batch(p, [rev_clip]).data
        assert np.linalg.norm(fwd - rev) > 1e-6, f"audio tower order-blind at seed {seed}"


# -- batched encoding ------------------------------------------------------------------


def test_batch_matches_single_encodes(params):
    seqs = [["dog", "barking"], ["thunder", "and", "then", "rain"], ["rain", "thunder"]]
    batch = E.encode_text_batch(params, seqs).data
    for i, toks in enumerate(seqs):
        single = E.encode_text_batch(params, [toks]).data[0]
        np.testing.assert_allclose(batch[i], single, atol=1e-12)


def test_audio_batch_matches_single_encodes(params):
    rng = np.random.default_rng(8)
    clips = [rng.standard_normal((n, 6)) for n in (4, 9, 4, 2)]
    batch = E.encode_audio_batch(params, clips).data
    for i, clip in enumerate(clips):
        single = E.encode_audio_batch(params, [clip]).data[0]
        np.testing.assert_allclose(batch[i], single, atol=1e-12)


def sum_node(x):
    """Test-local readout: the sum of every entry of x, as a graph node."""
    return T._result(np.asarray(x.data.sum()), (x,),
                     lambda g, adj: T._acc(adj, x, np.full(x.shape, g)), "sum")


def test_batch_gradients_match_single_gradients(params):
    # packing ragged sequences into one tower op must not change what the graph computes
    seqs = [["dog", "barking"], ["rain", "thunder"], ["thunder", "and", "rain"]]
    loss_b = sum_node(E.encode_text_batch(params, seqs))
    grads_b = T.backward(loss_b, params.trainable())
    total = {name: np.zeros_like(t.data) for name, t in params.named().items()}
    for toks in seqs:
        g = T.backward(sum_node(E.encode_text_batch(params, [toks])), params.trainable())
        for name in total:
            total[name] += g[name]
    for name in total:
        np.testing.assert_allclose(grads_b[name], total[name], atol=1e-12, err_msg=name)


# -- forward_batch ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_batch():
    catalog = C.build_catalog(8, 16, seed=2)
    man = C.build_mixed_dataset(catalog, 6, 2, 3, 0.1, False, seed=7)
    vocab = E.build_vocab([man])
    cfg = E.EncoderConfig(token_embed_dim=8, max_positions=16, hidden_dim=10, shared_dim=5)
    return E.init_params(cfg, vocab, seed=1), man.records


def test_forward_batch_shapes(tiny_batch):
    params, records = tiny_batch
    mask = [True, False, True, False, False, False]
    emb = E.forward_batch(params, records, mask)
    assert emb.audio.shape == (6, 5)
    assert emb.text.shape == (8, 5)  # 6 captions, then the 2 flagged rows' reversals
    assert emb.temporal_rows == (0, 2)


def test_forward_batch_no_temporal_rows(tiny_batch):
    params, records = tiny_batch
    emb = E.forward_batch(params, records, [False] * 6)
    assert emb.text.shape == (6, 5) and emb.temporal_rows == ()


def test_forward_batch_neg_rows_align(tiny_batch):
    params, records = tiny_batch
    emb = E.forward_batch(params, records, [False, True, False, False, True, False])
    for j, i in enumerate(emb.temporal_rows):
        single = E.encode_text_batch(params, [records[i].caption_neg.tokens]).data[0]
        np.testing.assert_allclose(emb.text.data[6 + j], single, atol=1e-12)


def test_forward_batch_validates(tiny_batch):
    params, records = tiny_batch
    with pytest.raises(EmptyInput):
        E.forward_batch(params, [], [])
    with pytest.raises(InvalidConfig):
        E.forward_batch(params, records, [True])
    stripped = records[0].__class__(
        record_id=99,
        clip=records[0].clip,
        spec=records[0].spec,
        caption_pos=records[0].caption_pos,
        caption_neg=None,
    )
    with pytest.raises(MissingNegative):
        E.forward_batch(params, [stripped], [True])
