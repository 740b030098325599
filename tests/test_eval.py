"""Evaluation checks: retrieval recall vs a full-sort oracle, order
discrimination margins, zero-shot labeling, and report files."""

import json
from dataclasses import replace as dc_replace

import numpy as np
import pytest

from tinyclap import evaluate as ev
from tinyclap import trainer as tr
from tinyclap.corpus import build_catalog, build_labeled_clips, build_mixed_dataset
from tinyclap.encoders import EncoderConfig, encode_audio_batch, encode_text_batch
from tinyclap.errors import InvalidConfig, IoError
from tinyclap.losses import similarity_matrix


@pytest.fixture(scope="module")
def setup():
    catalog = build_catalog(10, 8, seed=21)
    primary = build_mixed_dataset(catalog, 40, 2, 3, 0.1, True, seed=22)
    enc = EncoderConfig(
        frame_dim=8, token_embed_dim=8, max_positions=16, hidden_dim=12, shared_dim=6
    )
    cfg = tr.TrainConfig(steps=0, warmup_steps=0, seed=7, encoder=enc)
    _, params = tr.init_run(cfg, primary)
    labeled = build_labeled_clips(catalog, 30, 3, 0.1, seed=23)
    return catalog, primary, params, labeled


def unit_rows(rng, n, d):
    m = rng.standard_normal((n, d))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


# -- retrieval ------------------------------------------------------------------


def oracle_recall(mat, ks):
    """Rank every target by an explicit stable descending sort."""
    n = mat.shape[0]

    def ranks(cols):
        out = []
        for j in range(n):
            order = np.argsort(-cols[:, j], kind="stable")
            out.append(int(np.nonzero(order == j)[0][0]) + 1)
        return np.asarray(out)

    t2a, a2t = ranks(mat), ranks(mat.T)
    return (
        {k: 100.0 * float(np.mean(t2a <= k)) for k in ks},
        {k: 100.0 * float(np.mean(a2t <= k)) for k in ks},
    )


def test_recall_matches_full_sort_oracle():
    rng = np.random.default_rng(30)
    mat = rng.standard_normal((20, 20))
    ks = (1, 3, 5, 10)
    t2a, a2t = ev.recall_at_k(mat, ks=ks)
    want_t2a, want_a2t = oracle_recall(mat, ks)
    assert t2a.recall_at == want_t2a
    assert a2t.recall_at == want_a2t
    assert t2a.direction == "T2A" and a2t.direction == "A2T"
    assert t2a.n_queries == 20


def test_recall_matches_oracle_with_ties():
    rng = np.random.default_rng(31)
    mat = rng.integers(0, 4, size=(12, 12)) / 3.0
    ks = (1, 2, 5)
    t2a, a2t = ev.recall_at_k(mat, ks=ks)
    want_t2a, want_a2t = oracle_recall(mat, ks)
    assert t2a.recall_at == want_t2a
    assert a2t.recall_at == want_a2t


@pytest.mark.parametrize("row", [2, 7], ids=["lower-index", "higher-index"])
def test_recall_counts_a_single_off_diagonal_tie(row):
    # one score equals its column's target: a competitor of lower index ranks first
    mat = np.random.default_rng(33).standard_normal((10, 10))
    mat[row, 5] = mat[5, 5] = 5.0
    ks = tuple(range(1, 11))
    assert ev._ranks_of_diagonal(mat)[5] == 1 + (row < 5)
    t2a, a2t = ev.recall_at_k(mat, ks=ks)
    assert (t2a.recall_at, a2t.recall_at) == oracle_recall(mat, ks)


def test_recall_diagonal_dominant_is_perfect():
    rng = np.random.default_rng(32)
    mat = rng.uniform(-0.5, 0.5, size=(8, 8))
    np.fill_diagonal(mat, 2.0)
    t2a, a2t = ev.recall_at_k(mat, ks=(1,))
    assert t2a.recall_at[1] == 100.0
    assert a2t.recall_at[1] == 100.0


def test_recall_second_best_everywhere():
    n = 6
    mat = np.zeros((n, n))
    mat[np.arange(n), np.arange(n)] = 1.0
    mat[(np.arange(n) + 1) % n, np.arange(n)] = 2.0
    t2a, a2t = ev.recall_at_k(mat, ks=(1, 5))
    for res in (t2a, a2t):
        assert res.recall_at[1] == 0.0
        assert res.recall_at[5] == 100.0


def test_recall_all_equal_matrix_ranks_by_index():
    # every candidate ties, so target j sits at rank j + 1
    t2a, _ = ev.recall_at_k(np.ones((4, 4)), ks=(1, 2, 4))
    assert t2a.recall_at == {1: 25.0, 2: 50.0, 4: 100.0}


def test_recall_invariant_to_scale_and_shift():
    rng = np.random.default_rng(33)
    mat = rng.standard_normal((10, 10))
    base = ev.recall_at_k(mat, ks=(1, 5))
    scaled = ev.recall_at_k(3.7 * mat + 0.9, ks=(1, 5))
    assert base[0].recall_at == scaled[0].recall_at
    assert base[1].recall_at == scaled[1].recall_at


def test_recall_accepts_similarity_matrix_object():
    rng = np.random.default_rng(34)
    s = similarity_matrix(unit_rows(rng, 6, 4), unit_rows(rng, 6, 4))
    t2a, _ = ev.recall_at_k(s, ks=(1, 5))
    want, _ = oracle_recall(s.data, (1, 5))
    assert t2a.recall_at == want


def test_recall_validation():
    with pytest.raises(InvalidConfig):
        ev.recall_at_k(np.ones((3, 4)))
    with pytest.raises(InvalidConfig):
        ev.recall_at_k(np.ones((4, 4)), ks=())
    with pytest.raises(InvalidConfig):
        ev.recall_at_k(np.ones((4, 4)), ks=(0, 1))
    with pytest.raises(InvalidConfig):
        ev.recall_at_k(np.ones((4, 4)), ks=(1, 10))


# -- order discrimination ------------------------------------------------------------


def test_margins_strict_inequality_ties_fail():
    acc = ev.t_classify_margins(np.array([1.0, 1.0, 0.0]), np.array([0.0, 1.0, 1.0]))
    assert acc == pytest.approx(100.0 / 3)


def test_margins_validation():
    with pytest.raises(InvalidConfig):
        ev.t_classify_margins(np.array([]), np.array([]))
    with pytest.raises(InvalidConfig):
        ev.t_classify_margins(np.ones(3), np.ones(4))


def test_random_embeddings_score_at_chance():
    # 10,000 independent pairs; symmetric by construction, so the hit rate
    # is 50% give or take 4 standard errors (0.5%)
    rng = np.random.default_rng(42)
    acc = ev.t_classify_from_embeddings(
        unit_rows(rng, 10_000, 8), unit_rows(rng, 10_000, 8), unit_rows(rng, 10_000, 8)
    )
    assert abs(acc - 50.0) < 2.0


def test_t_classify_both_directions(setup):
    _, primary, params, _ = setup
    res = ev.t_classify(params, primary.records)
    assert res.n_t2a == len(primary.records)
    assert res.n_a2t == len(primary.records)  # corpus built with reversed clips
    assert 0.0 <= res.t2a_accuracy <= 100.0
    assert 0.0 <= res.a2t_accuracy <= 100.0
    again = ev.t_classify(params, primary.records)
    assert again == res


def test_t_classify_without_reversed_clips(setup):
    catalog, _, params, _ = setup
    plain = build_mixed_dataset(catalog, 10, 2, 3, 0.1, False, seed=40)
    res = ev.t_classify(params, plain.records)
    assert res.a2t_accuracy is None and res.n_a2t == 0
    emb = ev.embed_test_set(params, plain.records)
    assert emb.audio_neg is None and emb.neg_rows.size == 0


def test_t_classify_matches_per_direction_encodes(setup):
    """One shared pass against the separate encodes of each direction: every
    embedding row bit for bit, and both accuracies, on records of which only
    some carry a reversed clip: records of two events, then records of 2 to 4
    events of 1 to 3 frames each, whose reversed clips the pass gathers from
    the clip rows and the separate encode takes from each record's own."""
    catalog, primary, params, _ = setup
    uneven = [dc_replace(r, record_id=100 * k + r.record_id)  # ids stay unique
              for k, (n_events, n_frames) in enumerate([(3, 2), (2, 1), (4, 3), (2, 3)])
              for r in build_mixed_dataset(catalog, 7, n_events, n_frames, 0.2, True,
                                           seed=50 + k).records]
    # 6 rows are 3 blocks of 2 in one clip and 2 of 3 in another
    assert len({(len(r.caption_pos.event_ids), len(r.clip.frames)) for r in uneven}) == 4
    for records in (primary.records, uneven):
        records = [dc_replace(r, has_clip_neg=False) if i % 3 == 1 else r
                   for i, r in enumerate(records)]
        _assert_one_pass_equals_per_direction_encodes(params, records)


def _assert_one_pass_equals_per_direction_encodes(params, records):
    with_neg = [r for r in records if r.clip_neg is not None]
    assert 0 < len(with_neg) < len(records)

    def text(recs, neg=False):
        return encode_text_batch(params, [(r.caption_neg if neg else r.caption_pos).tokens
                                          for r in recs]).data

    def audio(recs, neg=False):
        return encode_audio_batch(params, [(r.clip_neg if neg else r.clip).frames
                                           for r in recs]).data

    emb = ev.embed_test_set(params, records)
    rows = np.array([i for i, r in enumerate(records) if r.clip_neg is not None])
    assert np.array_equal(emb.neg_rows, rows)
    for got, want in ((emb.audio, audio(records)), (emb.text, text(records)),
                      (emb.text_neg, text(records, neg=True)),
                      (emb.audio_neg, audio(with_neg, neg=True)),
                      (emb.audio[rows], audio(with_neg)), (emb.text[rows], text(with_neg))):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def hits(a, pos, neg):
        return float(100.0 * ((a * pos).sum(axis=1) > (a * neg).sum(axis=1)).mean())

    t2a = hits(audio(records), text(records), text(records, neg=True))
    a2t = hits(text(with_neg), audio(with_neg), audio(with_neg, neg=True))
    assert ev.t_classify(params, records) == ev.TClassifyResult(
        t2a_accuracy=t2a, a2t_accuracy=a2t, n_t2a=len(records), n_a2t=len(with_neg)
    )


def test_t_classify_empty_records(setup):
    _, _, params, _ = setup
    with pytest.raises(InvalidConfig):
        ev.t_classify(params, [])


# -- zero-shot -------------------------------------------------------------------


def test_prompt_tokens():
    assert ev.prompt_tokens("dog barking") == ("a", "sound", "of", "dog", "barking")
    assert ev.prompt_tokens("thunder") == ("a", "sound", "of", "thunder")


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_zero_shot_mechanics(setup):
    catalog, _, params, labeled = setup
    names = tuple(c.name for c in catalog.classes)
    res = ev.zero_shot_classify(params, labeled.records, names)
    assert res.n_samples == len(labeled.records)
    assert res.label_set == names
    assert 0.0 <= res.accuracy <= 100.0
    assert res == ev.zero_shot_classify(params, labeled.records, names)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_zero_shot_single_label_is_trivially_right(setup):
    catalog, _, params, labeled = setup
    records = [dc_replace(r, label_id=0) for r in labeled.records]
    res = ev.zero_shot_classify(params, records, (catalog.classes[0].name,))
    assert res.accuracy == 100.0


def test_zero_shot_warns_on_unknown_prompt_tokens(setup):
    catalog, _, params, labeled = setup
    names = tuple(c.name for c in catalog.classes)
    # the prompt prefix never occurs in captions, so it maps to <unk>
    with pytest.warns(UserWarning, match="<unk>"):
        ev.zero_shot_classify(params, labeled.records, names)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_zero_shot_validation(setup):
    catalog, _, params, labeled = setup
    names = tuple(c.name for c in catalog.classes)
    with pytest.raises(InvalidConfig, match="label set is empty"):
        ev.zero_shot_classify(params, labeled.records, ())
    with pytest.raises(InvalidConfig, match="empty record set"):
        ev.zero_shot_classify(params, [], names)
    bad = [dc_replace(labeled.records[0], label_id=5)]
    with pytest.raises(InvalidConfig, match="not in label set"):
        ev.zero_shot_classify(params, bad, names[:3])


# -- reports ---------------------------------------------------------------------


def test_report_round_trip(tmp_path):
    t2a, a2t = ev.recall_at_k(np.eye(5), ks=(1, 5))
    metrics = {"retrieval": {"T2A": t2a, "A2T": a2t}, "note": [1, 2.5, "x"]}
    path = tmp_path / "report.json"
    written = ev.emit_report(metrics, path, config={"seed": 1}, checkpoint_id="run/final")
    loaded = json.loads(path.read_text(encoding="utf-8"))
    assert loaded == written
    assert loaded["schema_version"] == ev.REPORT_SCHEMA_VERSION
    assert loaded["checkpoint"] == "run/final"
    assert loaded["metrics"]["retrieval"]["T2A"]["recall_at"]["1"] == 100.0
    assert loaded["metrics"]["note"] == [1, 2.5, "x"]


def test_report_bytes_deterministic(tmp_path):
    t2a, _ = ev.recall_at_k(np.eye(3), ks=(1,))
    for name in ("a.json", "b.json"):
        ev.emit_report({"r": t2a}, tmp_path / name, config={"k": [1, 2]})
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_report_is_canonical_json(tmp_path):
    path = tmp_path / "c.json"
    ev.emit_report({"b": 1, "a": 2}, path)
    text = path.read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"


def test_config_hash_properties():
    h = ev.config_hash({"seed": 0, "steps": 10})
    assert len(h) == 16 and all(c in "0123456789abcdef" for c in h)
    assert h == ev.config_hash({"steps": 10, "seed": 0})  # key order irrelevant
    assert h != ev.config_hash({"seed": 1, "steps": 10})


def test_report_io_errors(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    with pytest.raises(IoError, match="cannot write"):
        ev.emit_report({}, blocker / "sub" / "r.json")
