"""Encoder tower checks: shapes, normalization, order sensitivity, batching.

Order sensitivity is the property the whole experiment rests on, so it gets
a 100-seed sweep per tower rather than a single example.
"""

import re
from dataclasses import replace

import numpy as np
import pytest

import tinyclap.tensor as T
from tinyclap import cli
from tinyclap import corpus as C
from tinyclap import encoders as E
from tinyclap.cli import cmd_synth
from tinyclap.config import run_config_from_dict
from tinyclap.errors import (
    EmptyInput,
    InvalidConfig,
    SequenceTooLong,
    ShapeError,
)
from tinyclap.evaluate import embed_test_set
from tinyclap.losses import LossConfig, similarity_matrix, train_loss


CFG = E.EncoderConfig(
    frame_dim=6, token_embed_dim=8, max_positions=12, hidden_dim=10, shared_dim=5
)


@pytest.fixture(scope="module")
def vocab():
    return E.TextVocab(tokens=(E.UNK_TOKEN, "dog", "barking", "thunder", "rain", "and", "then"))


@pytest.fixture(scope="module")
def params(vocab):
    return E.init_params(CFG, vocab, seed=3)


def trainable(params):
    """A trainable copy of a value, as a training run makes it: its own flat vector
    and a gradient vector."""
    return replace(params, flat=params.flat.copy(), grad=np.zeros(params.flat.size))


# -- vocab -----------------------------------------------------------------------


def test_vocab_unk_fallback(vocab):
    assert vocab.encode(["dog", "nope", "rain"]) == [1, 0, 4]


def test_vocab_requires_unk_first():
    with pytest.raises(InvalidConfig):
        E.TextVocab(tokens=("dog", E.UNK_TOKEN))


def test_vocab_rejects_duplicates():
    with pytest.raises(InvalidConfig):
        E.TextVocab(tokens=(E.UNK_TOKEN, "dog", "dog"))


@pytest.mark.parametrize("token", [7, None, ["dog"]], ids=["number", "null", "list"])
def test_vocab_rejects_tokens_that_are_not_strings(token):
    with pytest.raises(InvalidConfig, match=f"vocab token 2 is {re.escape(repr(token))}, "
                                            f"not a string"):
        E.TextVocab(tokens=(E.UNK_TOKEN, "dog", token))


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


def test_build_vocab_over_captions_equals_one_over_captions_and_reversals(tmp_path):
    # a reversal has exactly its caption's tokens, so it adds none and moves none
    pieces = cmd_synth(run_config_from_dict({}), tmp_path)
    manifests = [pieces["train_primary"], pieces["train_temporal"]]
    both = dict.fromkeys(tok for man in manifests for rec in man.records
                         for cap in (rec.caption_pos, rec.caption_neg) for tok in cap.tokens)
    assert E.build_vocab(manifests).tokens == (E.UNK_TOKEN, *both)


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
    # `tower` rejects it: as an index, a negative id would wrap around to the last table row
    with pytest.raises(ShapeError, match="token ids"):
        E.encode_sequences(params, "text", np.array([1, 2, 3, bad_id]), [2, 2])


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
    return T._result(np.asarray(x.data.sum()), (x,), lambda g: T._send(x, np.full(x.shape, g)),
                     "sum")


def text_node(params, seqs):
    """The token sequences through the gradient entry, as training encodes them."""
    ids = params.vocab.encode(tok for toks in seqs for tok in toks)
    return E.encode_sequences(params, "text", *E._text_ids(params, ids, [len(t) for t in seqs]))


def caption_node(params, records, with_reversals):
    """The records' captions, then their reversals if asked, through the records' pool, as
    evaluation encodes them."""
    pool = E.encode_pool(params, records, with_reversals)
    return E.encode_sequences(params, "text", pool.ids, pool.lens)


def test_batch_gradients_match_single_gradients(params):
    # packing ragged sequences into one tower op must not change what the graph computes
    params = trainable(params)
    seqs = [["dog", "barking"], ["rain", "thunder"], ["thunder", "and", "rain"]]
    loss_b = sum_node(text_node(params, seqs))
    grads_b = {name: g.copy() for name, g in T.backward(loss_b, params.trainable()).items()}
    total = {name: np.zeros_like(t.data) for name, t in params.named().items()}
    for toks in seqs:
        g = T.backward(sum_node(text_node(params, [toks])), params.trainable())
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


# -- values and trainable copies ----------------------------------------------------------


def test_value_encodes_equal_a_trainable_copys_and_hold_no_closure(tiny_batch, monkeypatch):
    # small pieces, so each tower walks several; the clip lengths fall, so the
    # audio rows are reordered, and the captions are of mixed lengths
    monkeypatch.setattr(T, "_PIECE_BYTES", 8 * 10 * 6)
    value, records = tiny_batch
    captions = [r.caption_pos for r in records]
    rng = np.random.default_rng(5)
    clips = [rng.standard_normal((n, 16)).astype(np.float32) for n in (9, 4, 4, 2, 7, 12, 1)]
    outputs, tower = {}, T.tower
    for params in (value, trainable(value)):
        seen = outputs[params.grad is None] = []
        monkeypatch.setattr(T, "tower", lambda *a, _seen=seen: _seen.append(tower(*a)) or _seen[-1])
        caption_node(params, records, with_reversals=True)
        E.encode_text_batch(params, [c.tokens for c in captions])
        E.encode_audio_batch(params, clips)
        for mask in ([True, False, True, False, False, True], [False] * len(records)):
            E.forward_batch(params, records, mask)
    assert len(outputs[True]) == len(outputs[False]) == 7
    for got, want in zip(outputs[True], outputs[False]):
        assert got.data.tobytes() == want.data.tobytes()
        assert got._grads is None and not got.requires_grad
        assert want._grads is not None
    assert value.grad is None


def test_backward_over_a_value_raises(tiny_batch):
    # a loss with no closure has no gradient: backward says so instead of
    # handing back zeroed buffers as if they were the gradient
    value, records = tiny_batch
    mask = [True] + [False] * (len(records) - 1)
    emb = E.forward_batch(value, records, mask)
    for loss in (sum_node(caption_node(value, records, with_reversals=False)),
                 sum_node(E.encode_audio_batch(value, [np.ones((3, 16))])),
                 train_loss(emb, LossConfig(), value["log_temperature"]).l_train, T.Tensor(4.0)):
        with pytest.raises(ShapeError, match="closure"):
            T.backward(loss, value.trainable())
    # a trainable copy's loss cannot fill a value's constants either
    params = trainable(value)
    loss = train_loss(E.forward_batch(params, records, mask), LossConfig(),
                      params["log_temperature"]).l_train
    with pytest.raises(ShapeError, match="not a named parameter"):
        T.backward(loss, value.trainable())
    assert value.grad is None


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


# -- pools encoded once ------------------------------------------------------------------


def test_pool_ids_are_each_caption_and_its_reversal_encoded(tiny_batch):
    params, records = tiny_batch
    pool = E.encode_pool(params, records, True)
    seqs = [r.caption_pos.tokens for r in records] + [r.caption_neg.tokens for r in records]
    assert pool.ids.dtype == np.uint8 and len(pool.clips) == len(records)  # vocab under 256
    for j, tokens in enumerate(seqs):
        assert pool.ids[pool.starts[j] :][: pool.lens[j]].tolist() == params.vocab.encode(tokens)
    assert pool.starts[-1] + pool.lens[-1] == pool.ids.size
    # clips stay the records' float32 arrays: no pool-sized copy
    assert all(clip is r.clip.frames for clip, r in zip(pool.clips, records))
    assert pool.clip_lens.tolist() == [len(r.clip.frames) for r in records]


def test_forward_pool_gathers_what_forward_batch_encodes(tiny_batch):
    params, records = tiny_batch
    pool = E.encode_pool(params, records, True)
    batch, mask = np.array([4, 0, 5, 2]), [False, True, False, True]
    got = E.forward_pool(params, pool, batch, np.flatnonzero(mask))
    want = E.forward_batch(params, [records[i] for i in batch], mask)
    assert got.temporal_rows == want.temporal_rows == (1, 3)
    for a, b in ((got.text, want.text), (got.audio, want.audio)):
        assert a.data.tobytes() == b.data.tobytes()


def test_a_batch_that_flags_no_row_encodes_no_reversals(tiny_batch, monkeypatch):
    params, records = tiny_batch
    n = len(records)
    want = E.forward_pool(params, E.encode_pool(params, records, True), np.arange(n),
                          np.flatnonzero([False] * n))
    asked, encode = [], E.TextVocab.encode_captions
    monkeypatch.setattr(E.TextVocab, "encode_captions",
                        lambda self, captions, with_reversals:
                        asked.append(with_reversals) or encode(self, captions, with_reversals))
    got = E.forward_batch(params, records, [False] * n)
    assert asked == [False] and got.temporal_rows == ()
    for a, b in ((got.text, want.text), (got.audio, want.audio)):
        assert a.data.tobytes() == b.data.tobytes()
    sim = cli._paired_similarity(params, records)  # retrieval in `tinyclap eval` takes this path
    assert asked == [False, False]
    assert sim.tobytes() == similarity_matrix(want.audio, want.text).data.tobytes()
    E.forward_batch(params, records, [False] * (n - 1) + [True])
    assert asked == [False, False, True]


# -- captions through the vocab's piece table -----------------------------------------


def _caption_cases(rng, n):
    """n random captions: both connectors, one- and two-word names, and names past the
    built-in list (event ids >= 64, cycled as e.g. "dog barking 2")."""
    for _ in range(n):
        k = int(rng.integers(2, 7))
        ids = rng.choice(200, size=k, replace=False).tolist()
        yield C.Caption(tuple(ids), C.GENERATION_CONNECTORS[int(rng.integers(2))])


def test_piece_table_ids_equal_each_caption_and_reversal_encoded_token_by_token():
    rng = np.random.default_rng(11)
    words = sorted({w for i in range(200) for w in C.event_name(i).split()}
                   | {w for c in C.GENERATION_CONNECTORS for w in c.split()})
    for trial in range(40):
        # a vocab that lacks some words: those must map to <unk>, id 0
        kept = [w for w in words if rng.random() < (1.0 if trial == 0 else 0.7)]
        vocab = E.TextVocab(tokens=(E.UNK_TOKEN, *rng.permutation(kept).tolist()))
        captions = list(_caption_cases(rng, int(rng.integers(1, 12))))
        want = [vocab.encode(c.tokens) for c in captions]
        want += [vocab.encode(C.negate_caption(c).tokens) for c in captions]
        for with_reversals, seqs in ((False, want[: len(captions)]), (True, want)):
            ids, lens = vocab.encode_captions(captions, with_reversals)
            assert lens == [len(s) for s in seqs]
            assert ids == [i for s in seqs for i in s]
        assert (0 in ids) == (trial > 0 and any(0 in s for s in want))


def test_piece_table_covers_one_word_two_word_and_cycled_names():
    vocab = E.TextVocab(tokens=(E.UNK_TOKEN, "thunder", "followed", "by", "dog", "barking", "2"))
    caption = C.Caption((1, 64, 3, 0), "followed by")  # thunder, dog barking 2, applause, ...
    assert caption.tokens == ("thunder", "followed", "by", "dog", "barking", "2", "followed",
                              "by", "applause", "followed", "by", "dog", "barking")
    ids, lens = vocab.encode_captions([caption], True)
    assert lens == [13, 13]
    assert ids[:13] == vocab.encode(caption.tokens) == [1, 2, 3, 4, 5, 6, 2, 3, 0, 2, 3, 4, 5]
    assert ids[13:] == vocab.encode(C.negate_caption(caption).tokens)


def test_caption_encodes_keep_the_length_check_and_the_narrowest_id_type(tiny_batch):
    params, records = tiny_batch
    short = E.init_params(replace(params.config, max_positions=4), params.vocab, seed=1)
    for encode in (lambda p: E.encode_pool(p, records, True),
                   lambda p: E.encode_pool(p, records, False),
                   lambda p: embed_test_set(p, records),
                   lambda p: cli._paired_similarity(p, records)):
        with pytest.raises(SequenceTooLong, match="text input 0 has"):
            encode(short)
    for with_reversals in (True, False):
        with pytest.raises(EmptyInput):
            E.encode_pool(params, [], with_reversals)
    wide = E.TextVocab(tokens=(E.UNK_TOKEN, *params.vocab.tokens[1:],
                               *(f"w{i}" for i in range(300))))
    for with_reversals in (True, False):
        pool = E.encode_pool(E.init_params(params.config, wide, seed=1), records, with_reversals)
        assert pool.ids.dtype == np.uint16
        assert pool.ids.tolist() == E.encode_pool(params, records, with_reversals).ids.tolist()


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_build_vocab_equals_token_first_occurrence(seed):
    rng = np.random.default_rng(seed)
    n_classes = int(rng.integers(10, 90))  # past 64 the names cycle: "dog barking 2"
    catalog = C.build_catalog(n_classes, 4, seed=seed)
    manifests = [C.build_mixed_dataset(catalog, 40, int(rng.integers(2, 5)), 2, 0.1, False,
                                       seed=seed + k) for k in range(2)]
    manifests.insert(1, C.build_labeled_clips(catalog, 5, 2, 0.1, seed=seed))
    oracle = dict.fromkeys(tok for man in manifests for rec in man.records
                           if hasattr(rec, "caption_pos") for tok in rec.caption_pos.tokens)
    assert E.build_vocab(manifests).tokens == (E.UNK_TOKEN, *oracle)


def test_caption_encodes_read_no_token_tuples_and_build_no_reversed_captions(tiny_batch,
                                                                             monkeypatch):
    params, records = tiny_batch
    records = [replace(r, has_clip_neg=True) for r in records]  # so the audio_neg pass runs too
    want_pool = E.encode_pool(params, records, True)
    want_eval, want_sim = embed_test_set(params, records), cli._paired_similarity(params, records)

    def boom(self):
        raise AssertionError("read while encoding")

    monkeypatch.setattr(C.Caption, "tokens", property(boom))
    monkeypatch.setattr(C.DatasetRecord, "caption_neg", property(boom))
    pool = E.encode_pool(params, records, True)
    assert pool.ids.tobytes() == want_pool.ids.tobytes()
    assert pool.lens.tolist() == want_pool.lens.tolist()
    got = embed_test_set(params, records)
    for name in ("audio", "text", "text_neg", "audio_neg"):
        assert getattr(got, name).tobytes() == getattr(want_eval, name).tobytes()
    assert got.audio_neg.tobytes() == E.encode_audio_batch(
        params, [r.clip_neg.frames for r in records]).data.tobytes()
    assert cli._paired_similarity(params, records).tobytes() == want_sim.tobytes()
    E.forward_batch(params, records, [True, False] * 3)
