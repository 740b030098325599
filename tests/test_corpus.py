"""Corpus generation, caption grammar, and manifest serialization checks.

The grammar properties (involution, parse/render inverse, negation changes
meaning) are checked over whole generated corpora; serialization is checked
byte-for-byte because downstream determinism claims depend on it.
"""

import json
import math
import re
from dataclasses import replace as dc_replace

import numpy as np
import pytest

from tinyclap import corpus as C
from tinyclap.errors import (
    FormatError,
    InvalidConfig,
    NoConnector,
    TooFewEvents,
    UnknownConnector,
    UnknownEvent,
    UnparsableSegment,
)


@pytest.fixture(scope="module")
def catalog():
    return C.build_catalog(20, 16, seed=11)


@pytest.fixture(scope="module")
def small_corpus(catalog):
    return C.build_mixed_dataset(
        catalog, 300, events_per_clip=3, frames_per_event=4,
        noise_sigma=0.2, with_negative_clips=True, seed=5,
    )


# -- catalog ----------------------------------------------------------------------


def test_catalog_prototypes_unit_norm_and_reproducible():
    a = C.build_catalog(2, 4, seed=7)
    b = C.build_catalog(2, 4, seed=7)
    assert a == b
    for ev in a.classes:
        assert abs(np.linalg.norm(ev.prototype.astype(np.float64)) - 1.0) <= 1e-6


def test_catalog_fifty_unique_names():
    cat = C.build_catalog(50, 16, seed=1)
    names = [ev.name for ev in cat.classes]
    assert len(set(names)) == 50


def test_catalog_name_cycle_suffix():
    n = len(C.EVENT_PHRASES)
    assert C.event_name(n) == f"{C.EVENT_PHRASES[0]} 2"
    cat = C.build_catalog(n + 3, 8, seed=0)
    names = [ev.name for ev in cat.classes]
    assert len(set(names)) == n + 3


def test_catalog_rejects_single_class_and_thin_frames():
    with pytest.raises(InvalidConfig):
        C.build_catalog(1, 4, seed=0)
    with pytest.raises(InvalidConfig):
        C.build_catalog(4, 1, seed=0)


def test_catalog_name_lookup_round_trip(catalog):
    for ev in catalog.classes:
        assert catalog.id_of(catalog.classes[ev.id].name) == ev.id
    assert catalog.id_of("no such event") is None
    with pytest.raises(UnknownEvent):
        catalog.checked_ids((99,))


def test_catalog_validates_structure():
    ok = C.build_catalog(3, 4, seed=2)

    def rebuild(classes):
        return C.EventCatalog(classes=tuple(classes), frame_dim=4, seed=2)

    dup_name = [C.EventClass(ev.id, "same", ev.prototype) for ev in ok.classes]
    with pytest.raises(InvalidConfig):
        rebuild(dup_name)
    wrong_order = (ok.classes[1], ok.classes[0], ok.classes[2])
    with pytest.raises(InvalidConfig):
        rebuild(wrong_order)
    not_unit = [
        C.EventClass(0, "a", np.array([2.0, 0, 0, 0], dtype=np.float32)),
        ok.classes[1],
        ok.classes[2],
    ]
    with pytest.raises(InvalidConfig):
        rebuild(not_unit)
    dup_proto = [
        ok.classes[0],
        C.EventClass(1, "other", ok.classes[0].prototype),
        ok.classes[2],
    ]
    with pytest.raises(InvalidConfig):
        rebuild(dup_proto)


# -- frames and clips ---------------------------------------------------------------


def test_zero_noise_frames_equal_prototype(catalog):
    blocks = C.synth_clip_blocks((3, 7), catalog, 5, 0.0, np.random.default_rng(0))
    assert blocks.shape == (2, 5, 16) and blocks.dtype == C.FRAME_DTYPE
    for eid, block in zip((3, 7), blocks):
        for row in block:
            np.testing.assert_array_equal(row, catalog.classes[eid].prototype)


def test_single_zero_noise_frame(catalog):
    blocks = C.synth_clip_blocks((0,), catalog, 1, 0.0, np.random.default_rng(0))
    np.testing.assert_array_equal(blocks, catalog.classes[0].prototype[None, None, :])


def test_frame_noise_mean_concentrates(catalog):
    # Monte-Carlo oracle: mean of n frames deviates from the prototype by
    # roughly sigma/sqrt(n) per component; 3 sigma bounds hold with huge margin
    sigma, n = 0.1, 1000
    blocks = C.synth_clip_blocks((1, 2), catalog, n, sigma, np.random.default_rng(42))
    for eid, block in zip((1, 2), blocks):
        proto = catalog.classes[eid].prototype.astype(np.float64)
        dev = np.abs(block.astype(np.float64).mean(axis=0) - proto)
        assert dev.max() < 3 * sigma / math.sqrt(n) + 1e-7


@pytest.mark.parametrize("n_frames, sigma", [(0, 0.1), (3, -0.1)])
def test_clip_blocks_reject_bad_arguments(catalog, n_frames, sigma):
    with pytest.raises(InvalidConfig):
        C.synth_clip_blocks((0,), catalog, n_frames, sigma, np.random.default_rng(0))
    with pytest.raises(InvalidConfig):
        C.build_labeled_clips(catalog, 3, n_frames, sigma, seed=0)


@pytest.mark.parametrize(
    "frames, message",
    [
        (np.zeros(16, np.float32), r"must be T x F, got shape \(16,\)"),
        (np.array([[0.0, np.nan]], np.float32), "non-finite"),
        (np.array([[np.inf, 0.0]], np.float32), "non-finite"),
    ],
    ids=["1-d", "nan", "inf"],
)
def test_clip_frames_are_checked(frames, message):
    with pytest.raises(InvalidConfig, match=message):
        C.AudioClip(frames)


def test_clip_rows_are_views_that_equal_checked_clips():
    whole = C.AudioClip(np.arange(24, dtype=np.float32).reshape(6, 4))
    for start, stop in [(0, 6), (1, 3), (5, 6), (2, 2)]:
        part = whole.rows(start, stop)
        assert type(part) is C.AudioClip and part == C.AudioClip(whole.frames[start:stop])
        assert np.shares_memory(part.frames, whole.frames) or stop == start  # a view, no copy


def _prototype_blocks(catalog, event_ids, n_frames):
    return [np.tile(catalog.classes[e].prototype, (n_frames, 1)) for e in event_ids]


def test_zero_noise_clip_block_layout(catalog):
    man = C.build_mixed_dataset(catalog, 10, 3, 5, 0.0, False, seed=1)
    for rec in man.records:
        assert rec.clip.frames.shape == (15, 16)
        blocks = _prototype_blocks(catalog, rec.caption_pos.event_ids, 5)
        np.testing.assert_array_equal(rec.clip.frames, np.concatenate(blocks))


def test_zero_noise_negative_clip_reverses_blocks(catalog):
    man = C.build_mixed_dataset(catalog, 10, 3, 5, 0.0, True, seed=9)
    for rec in man.records:
        blocks = _prototype_blocks(catalog, rec.caption_pos.event_ids, 5)
        np.testing.assert_array_equal(rec.clip_neg.frames, np.concatenate(blocks[::-1]))


def _replayed_blocks(catalog, rng, event_ids, n_frames, sigma):
    """The textbook recipe: tiled prototypes, then noise drawn in one call and
    added to the prototypes in float64."""
    base = np.stack(_prototype_blocks(catalog, event_ids, n_frames))
    if sigma == 0:
        return base
    noise = sigma * rng.standard_normal(base.shape)
    return (base.astype(np.float64) + noise).astype(np.float32)


def _replayed_draws(catalog, seed, n_records, n_events):
    """Each record's generator, replayed through its event and connector draws in the
    same order, with those draws."""
    seen = set()
    for idx in range(n_records):
        rng = np.random.default_rng([seed, idx])
        while True:
            ids = tuple(int(v) for v in rng.choice(len(catalog), size=n_events, replace=False))
            if frozenset(ids) not in seen:
                break
        seen.add(frozenset(ids))
        yield rng, ids, C.GENERATION_CONNECTORS[int(rng.integers(len(C.GENERATION_CONNECTORS)))]


@pytest.mark.parametrize("sigma", [0.3, 0.0])
@pytest.mark.parametrize("with_negative_clips", [False, True], ids=["forward", "reversed"])
def test_paired_synthesis_bits_equal_the_replayed_recipe(catalog, sigma, with_negative_clips):
    seed, n_events, n_frames = 4, 3, 5
    man = C.build_mixed_dataset(catalog, 200, n_events, n_frames, sigma, with_negative_clips, seed)
    draws = _replayed_draws(catalog, seed, len(man.records), n_events)
    for rec, (rng, ids, connector) in zip(man.records, draws, strict=True):
        blocks = _replayed_blocks(catalog, rng, ids, n_frames, sigma)
        assert rec.caption_pos.event_ids == ids and rec.caption_pos.connector == connector
        assert rec.clip.frames.dtype == blocks.dtype == np.float32
        np.testing.assert_array_equal(rec.clip.frames.view(np.uint32),
                                      blocks.reshape(-1, 16).view(np.uint32))
        if with_negative_clips:
            np.testing.assert_array_equal(rec.clip_neg.frames.view(np.uint32),
                                          blocks[::-1].reshape(-1, 16).view(np.uint32))
        else:
            assert rec.clip_neg is None


@pytest.mark.parametrize("sigma", [0.3, 0.0])
def test_labeled_synthesis_bits_equal_the_replayed_recipe(catalog, sigma):
    seed, n_frames = 6, 4
    man = C.build_labeled_clips(catalog, 200, n_frames, sigma, seed)
    for idx, rec in enumerate(man.records):
        rng = np.random.default_rng([seed, idx])
        label = int(rng.integers(len(catalog)))
        blocks = _replayed_blocks(catalog, rng, (label,), n_frames, sigma)
        assert rec.label_id == label and rec.clip.frames.dtype == np.float32
        np.testing.assert_array_equal(rec.clip.frames.view(np.uint32), blocks[0].view(np.uint32))


@pytest.mark.parametrize("bad_id", [-1, 20], ids=["minus-one", "n-classes"])
def test_out_of_range_event_ids_fail_by_name(catalog, bad_id):
    # a table gather would wrap -1 to the last class and fail 20 with a bare IndexError
    with pytest.raises(UnknownEvent, match=f"event id {bad_id} not in catalog of 20 classes"):
        C.synth_clip_blocks((bad_id, 3), catalog, 2, 0.0, np.random.default_rng(0))
    with pytest.raises(UnknownEvent, match=f"event id {bad_id} not in catalog of 20 classes"):
        C.synth_clip_blocks((3, bad_id), catalog, 2, 0.5, np.random.default_rng(0))
    with pytest.raises(UnknownEvent, match=f"event id {bad_id} not in catalog of 20 classes"):
        C.render_caption((3, bad_id), catalog, "and then")


def test_catalog_prototype_table_is_read_only(catalog):
    blocks = C.synth_clip_blocks((3, 7), catalog, 2, 0.0, np.random.default_rng(0))
    blocks[:] = 0  # the caller owns its blocks; the catalog's table is untouched
    np.testing.assert_array_equal(catalog._prototypes[3], catalog.classes[3].prototype)
    with pytest.raises(ValueError):
        catalog._prototypes[0, 0] = 1.0


# -- caption grammar ----------------------------------------------------------------


def test_render_two_events(catalog):
    cap = C.render_caption((0, 1), catalog, "followed by")
    assert cap.text == "dog barking followed by thunder"
    assert cap.event_ids == (0, 1)


def test_render_three_events_repeats_connector(catalog):
    cap = C.render_caption((1, 3, 5), catalog, "and then")
    assert cap.text == "thunder and then applause and then rain"
    assert cap.tokens == ("thunder", "and", "then", "applause", "and", "then", "rain")
    assert cap.connector == "and then"


def test_render_rejects_parse_only_connector(catalog):
    with pytest.raises(UnknownConnector):
        C.render_caption((0, 1), catalog, "before")


def test_render_needs_two_events(catalog):
    with pytest.raises(TooFewEvents):
        C.render_caption((0,), catalog, "and then")


def test_parse_inverts_render(catalog):
    ids, conns = C.parse_caption("dog barking followed by thunder", catalog)
    assert ids == (0, 1) and conns == ("followed by",)


def test_parse_needs_connector(catalog):
    with pytest.raises(NoConnector):
        C.parse_caption("dog barking", catalog)


def test_parse_three_events(catalog):
    ids, conns = C.parse_caption("thunder and then dog barking and then rain", catalog)
    assert ids == (1, 0, 5)
    assert conns == ("and then", "and then")


def test_parse_unknown_segment(catalog):
    with pytest.raises(UnparsableSegment):
        C.parse_caption("dog barking followed by volcano erupting", catalog)


def test_parse_before_keeps_order(catalog):
    ids, _ = C.parse_caption("thunder before rain", catalog)
    assert ids == (1, 5)


def test_parse_after_inverts_pair(catalog):
    ids, conns = C.parse_caption("thunder after rain", catalog)
    assert ids == (5, 1)
    assert conns == ("after",)


def test_parse_after_folds_into_longer_chains(catalog):
    # "a and then b after c": c happened before b, giving temporal order a, c, b
    ids, _ = C.parse_caption("applause and then thunder after rain", catalog)
    assert ids == (3, 5, 1)


def test_negate_reverses_segments(catalog):
    cap = C.render_caption((0, 1), catalog, "followed by")
    neg = C.negate_caption(cap)
    assert neg.text == "thunder followed by dog barking"
    assert neg.event_ids == (1, 0)


@pytest.mark.parametrize("connector", ["before", "after"])
def test_no_caption_holds_a_parse_only_connector(catalog, connector):
    # so every caption is one a manifest row can store
    message = f"connector '{connector}' not in generation set"
    with pytest.raises(UnknownConnector, match=message):
        C.render_caption((0, 1), catalog, connector)
    with pytest.raises(UnknownConnector, match=message):
        C.Caption((0, 1), connector)


@pytest.mark.parametrize("ids", [(1,), ()], ids=["one", "none"])
def test_no_caption_holds_fewer_than_two_events(catalog, ids):
    # so no caption lacks a reversal
    message = f"caption needs at least 2 events, got {len(ids)}"
    with pytest.raises(TooFewEvents, match=message):
        C.render_caption(ids, catalog, "and then")
    with pytest.raises(TooFewEvents, match=message):
        C.Caption(ids, "followed by")


@pytest.mark.parametrize(
    "ids, connector, error",
    [((20,), "after", UnknownConnector), ((20,), "and then", UnknownEvent),
     ((1,), "and then", TooFewEvents)],
    ids=["connector-first", "events-second", "count-last"],
)
def test_render_checks_connector_then_events_then_count(catalog, ids, connector, error):
    with pytest.raises(error):
        C.render_caption(ids, catalog, connector)


def test_grammar_properties_over_generated_corpus(small_corpus, catalog):
    for rec in small_corpus.records:
        cap, neg = rec.caption_pos, rec.caption_neg
        # involution
        assert C.negate_caption(C.negate_caption(cap)) == cap
        # parse inverts render
        ids, conns = C.parse_caption(cap.text, catalog)
        assert ids == cap.event_ids
        assert conns == (cap.connector,) * (len(ids) - 1)
        # negation changes meaning (event sets are sampled without replacement,
        # so no caption is a palindrome)
        neg_ids, _ = C.parse_caption(neg.text, catalog)
        assert neg_ids == tuple(reversed(ids))
        assert neg_ids != ids


def _replayed_caption(parts, connectors):
    """The recipe that built captions when they stored their token spans: the name
    tokens joined by one connector per gap, each event's span taken from the lengths
    so far."""
    tokens, spans = [], []
    for i, (eid, words) in enumerate(parts):
        if i:
            tokens.extend(connectors[i - 1].split())
        spans.append((eid, (len(tokens), len(tokens) + len(words))))
        tokens.extend(words)
    return tuple(tokens), tuple(spans)


def _replayed_reversal(tokens, spans, connectors):
    """The recipe's reversal: the spans' tokens and the connectors, in reverse order."""
    return _replayed_caption([(eid, tokens[a:b]) for eid, (a, b) in reversed(spans)],
                             connectors[::-1])


@pytest.mark.parametrize("seed, n_events", [(2, 3), (3, 4)])
def test_captions_equal_the_replayed_recipe(tmp_path, catalog, seed, n_events):
    man = C.build_mixed_dataset(catalog, 300, n_events, 2, 0.1, False, seed)
    C.save_manifest(man, tmp_path / "corpus.jsonl")
    for records in (man.records, C.load_manifest(tmp_path / "corpus.jsonl").records):
        draws = _replayed_draws(catalog, seed, len(records), n_events)
        for rec, (_, ids, connector) in zip(records, draws, strict=True):
            connectors = [connector] * (n_events - 1)
            names = [(eid, tuple(catalog.classes[eid].name.split())) for eid in ids]
            tokens, spans = _replayed_caption(names, connectors)
            neg_tokens, neg_spans = _replayed_reversal(tokens, spans, connectors)
            cap, neg = rec.caption_pos, rec.caption_neg
            assert (cap.tokens, cap.text, cap.event_ids) == (tokens, " ".join(tokens), ids)
            assert (neg.tokens, neg.text, neg.event_ids) == (
                neg_tokens, " ".join(neg_tokens), tuple(eid for eid, _ in neg_spans))


# -- dataset construction -------------------------------------------------------------


def test_mixed_dataset_counts_and_negatives(catalog):
    man = C.build_mixed_dataset(catalog, 100, 2, 3, 0.1, False, seed=3)
    assert len(man.records) == 100
    for rec in man.records:
        assert rec.caption_neg == C.negate_caption(rec.caption_pos)
        assert rec.clip_neg is None


def test_mixed_dataset_deterministic(catalog):
    a = C.build_mixed_dataset(catalog, 40, 3, 4, 0.2, True, seed=9)
    b = C.build_mixed_dataset(catalog, 40, 3, 4, 0.2, True, seed=9)
    assert a == b


def test_two_event_negative_clip_is_half_block_swap(catalog):
    man = C.build_mixed_dataset(catalog, 50, 2, 6, 0.25, True, seed=21)
    for rec in man.records:
        top, bottom = rec.clip.frames[:6], rec.clip.frames[6:]
        np.testing.assert_array_equal(rec.clip_neg.frames, np.concatenate([bottom, top]))


@pytest.mark.parametrize("n_events", [3, 4])
def test_noisy_negative_clip_is_its_blocks_reversed(catalog, n_events):
    man = C.build_mixed_dataset(catalog, 30, n_events, 4, 0.3, True, seed=17)
    for rec in man.records:
        blocks = np.split(rec.clip.frames, n_events)
        for block, proto in zip(blocks, _prototype_blocks(catalog, rec.caption_pos.event_ids, 4)):
            assert not np.array_equal(block, proto)  # the noise is there to be reused
        np.testing.assert_array_equal(rec.clip_neg.frames, np.concatenate(blocks[::-1]))


def test_event_sets_unique_across_records(catalog):
    man = C.build_mixed_dataset(catalog, 200, 3, 2, 0.1, False, seed=4)
    sets = [frozenset(rec.caption_pos.event_ids) for rec in man.records]
    assert len(set(sets)) == len(sets)


def test_mixed_dataset_validates_arguments(catalog):
    small = C.build_catalog(2, 4, seed=0)
    with pytest.raises(InvalidConfig):
        C.build_mixed_dataset(small, 10, 3, 2, 0.1, False, seed=0)
    with pytest.raises(InvalidConfig):
        C.build_mixed_dataset(catalog, 5, 1, 2, 0.1, False, seed=0)
    # more records than distinct event sets cannot be satisfied
    with pytest.raises(InvalidConfig):
        C.build_mixed_dataset(small, 3, 2, 2, 0.1, False, seed=0)


def test_record_derives_its_reversed_caption(small_corpus, catalog):
    rec = small_corpus.records[0]
    with pytest.raises(TypeError):
        C.DatasetRecord(record_id=0, clip=rec.clip, caption_pos=rec.caption_pos,
                        caption_neg=rec.caption_neg)
    swapped = "and then" if rec.caption_pos.connector == "followed by" else "followed by"
    ids = rec.caption_pos.event_ids
    changed = dc_replace(rec, caption_pos=C.render_caption(ids, catalog, swapped))
    assert changed.caption_neg == C.negate_caption(changed.caption_pos) != rec.caption_neg


def test_derived_captions_are_built_once_and_equal_fresh_builds(small_corpus, catalog):
    for rec in small_corpus.records[:25]:
        pos = rec.caption_pos
        fresh = C.render_caption(pos.event_ids, catalog, pos.connector)
        for _ in range(2):
            assert rec.caption_neg == C.negate_caption(fresh)
            assert pos.tokens == fresh.tokens == tuple(fresh.text.split())
            assert rec.caption_neg.tokens == C.negate_caption(fresh).tokens
        assert rec.caption_neg is rec.caption_neg and pos.tokens is pos.tokens  # kept
        # what is kept is no field: a record with it equals one built without it
        assert rec == C.DatasetRecord(rec.record_id, rec.clip, fresh, rec.clip_neg)


def test_labeled_clips_shapes_and_determinism(catalog):
    a = C.build_labeled_clips(catalog, 30, 4, 0.1, seed=2)
    b = C.build_labeled_clips(catalog, 30, 4, 0.1, seed=2)
    assert a == b
    assert a.kind == "labeled"
    for rec in a.records:
        assert 0 <= rec.label_id < 20
        assert rec.clip.frames.shape == (4, 16)


# -- serialization --------------------------------------------------------------------


def frames_file(manifest_path):
    return manifest_path.with_name(manifest_path.stem + ".frames.npy")


def rewrite_row(path, line_no, change):
    """Apply change(row) to the JSON object on 1-based line line_no."""
    lines = path.read_text().splitlines()
    row = json.loads(lines[line_no - 1])
    change(row)
    lines[line_no - 1] = json.dumps(row, sort_keys=True, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture()
def saved(tmp_path, small_corpus):
    p = tmp_path / "corpus.jsonl"
    C.save_manifest(small_corpus, p)
    return p


def test_manifest_round_trip_path_refs(saved, small_corpus):
    assert C.load_manifest(saved) == small_corpus


def test_hand_built_captions_load_as_they_were_saved(tmp_path, small_corpus):
    # a caption is its events and connector, so one built without render_caption
    # names its events as the catalog does and saves as itself
    recs = [dc_replace(rec, caption_pos=C.Caption(rec.caption_pos.event_ids[::-1], "and then"))
            for rec in small_corpus.records[:6]]
    man = dc_replace(small_corpus, records=tuple(recs))
    C.save_manifest(man, tmp_path / "corpus.jsonl")
    loaded = C.load_manifest(tmp_path / "corpus.jsonl")
    assert loaded == man
    names = [ev.name for ev in C.catalog_for(man).classes]
    for rec in loaded.records:
        ids = rec.caption_pos.event_ids
        assert rec.caption_pos.text == " and then ".join(names[e] for e in ids)


def test_caption_rejects_a_negative_event_id():
    # as an index, -1 would name an event from the end of the name list
    with pytest.raises(UnknownEvent, match="caption event id -1 is negative"):
        C.Caption((-1, 3), "and then")


@pytest.mark.parametrize("bad_id", [20, 25])
def test_save_rejects_an_event_outside_the_catalog_and_writes_no_file(tmp_path, small_corpus,
                                                                       bad_id):
    # the load would reject it, so the save does, before either file is written
    last = dc_replace(small_corpus.records[-1], caption_pos=C.Caption((bad_id, 3), "and then"))
    man = dc_replace(small_corpus, records=small_corpus.records[:-1] + (last,))
    with pytest.raises(UnknownEvent, match=re.escape(f"record {last.record_id}: ids "
                                                     f"[{bad_id}, 3] not all in catalog")):
        C.save_manifest(man, tmp_path / "out" / "corpus.jsonl")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bad_label", [-1, 20])
def test_save_rejects_a_label_outside_the_catalog_and_writes_no_file(tmp_path, catalog,
                                                                      bad_label):
    man = C.build_labeled_clips(catalog, 6, 3, 0.2, seed=6)
    first = dc_replace(man.records[0], label_id=bad_label)
    with pytest.raises(UnknownEvent, match=re.escape(f"record {first.record_id}: ids "
                                                     f"[{bad_label}] not all in catalog")):
        C.save_manifest(dc_replace(man, records=(first,) + man.records[1:]),
                        tmp_path / "labeled.jsonl")
    assert list(tmp_path.iterdir()) == []


def test_manifest_round_trip_without_negative_clips(tmp_path, catalog):
    man = C.build_mixed_dataset(catalog, 30, 3, 4, 0.2, False, seed=8)
    p = tmp_path / "corpus.jsonl"
    C.save_manifest(man, p)
    assert C.load_manifest(p) == man


def test_labeled_manifest_round_trip(tmp_path, catalog):
    man = C.build_labeled_clips(catalog, 12, 3, 0.2, seed=6)
    p = tmp_path / "labeled.jsonl"
    C.save_manifest(man, p)
    assert C.load_manifest(p) == man


def test_save_writes_manifest_and_one_frame_array(tmp_path, small_corpus, catalog):
    C.save_manifest(small_corpus, tmp_path / "a.jsonl")
    C.save_manifest(C.build_labeled_clips(catalog, 5, 3, 0.1, seed=1), tmp_path / "b.jsonl")
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["a.frames.npy", "a.jsonl", "b.frames.npy", "b.jsonl"]


def test_frame_array_holds_clips_in_record_order(saved, small_corpus):
    frames = np.load(frames_file(saved))
    assert frames.dtype == np.dtype("<f4")
    clips = [c.frames for r in small_corpus.records for c in (r.clip, r.clip_neg)]
    np.testing.assert_array_equal(frames, np.concatenate(clips))


def test_save_is_byte_deterministic(tmp_path, catalog):
    man = C.build_mixed_dataset(catalog, 20, 2, 3, 0.2, True, seed=13)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    C.save_manifest(man, p1)
    C.save_manifest(man, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert frames_file(p1).read_bytes() == frames_file(p2).read_bytes()


def test_truncated_manifest_rejected(saved):
    lines = saved.read_text().splitlines()
    saved.write_text("\n".join(lines[:-10]) + "\n")
    with pytest.raises(FormatError, match="truncated"):
        C.load_manifest(saved)


def test_corrupt_record_line_reports_line_number(saved):
    lines = saved.read_text().splitlines()
    lines[3] = lines[3][:-5]
    saved.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="line 4"):
        C.load_manifest(saved)


def _two_rows_on_line_4_and_row_5_split_in_two(lines):
    # as many lines as rows, and joined by commas the lines are those rows: so only a
    # per-line parse sees that line 4 holds two rows
    cut = lines[5].index(',"clip_neg"')
    lines[3:6] = [lines[3] + "," + lines[4], lines[5][:cut], lines[5][cut + 1:]]


@pytest.mark.parametrize(
    "fault",
    [
        lambda lines: lines.__setitem__(3, ""),
        lambda lines: lines.__setitem__(3, "  \t"),
        lambda lines: lines.__setitem__(3, lines[3][:-5]),
        lambda lines: lines.__setitem__(3, lines[3] + lines[3]),
        lambda lines: lines.__setitem__(3, lines[3] + "," + lines[3]),
        lambda lines: lines.__setitem__(3, "\ufeff" + lines[3]),
        _two_rows_on_line_4_and_row_5_split_in_two,
    ],
    ids=["blank", "whitespace", "truncated", "two-objects", "two-objects-comma", "bom",
         "two-rows-and-a-split-row"],
)
def test_record_line_faults_name_the_line_as_json_loads_does(saved, fault):
    lines = saved.read_text().splitlines()
    fault(lines)
    saved.write_text("\n".join(lines) + "\n")
    if lines[3].strip():
        with pytest.raises(json.JSONDecodeError) as exc:
            json.loads(lines[3])
        want = f"line 4: bad record JSON: {exc.value}"
    else:
        want = "line 4: blank record line"
    with pytest.raises(FormatError, match=f"^{re.escape(f'{saved}, {want}')}$"):
        C.load_manifest(saved)


def test_record_lines_padded_with_whitespace_load(saved, small_corpus):
    # json.loads takes a row with whitespace around it, so loading does too
    lines = saved.read_text().splitlines()
    lines[1:] = [f" {line}\t" for line in lines[1:]]
    saved.write_text("\n".join(lines) + "\n")
    assert C.load_manifest(saved) == small_corpus


def _repeat_first_event(path):
    # [k, k, k] reversed is [k, k, k]: a temporal negative equal to its positive
    rewrite_row(path, 3, lambda row: row.update(events=[row["events"][0]] * 3))


def _shorten_last_reversed_clip(path):
    # the spans still tile the array: the last span and the array both end one row early
    rewrite_row(path, 301, lambda row: row["clip_neg"].__setitem__(1, row["clip_neg"][1] - 1))
    np.save(frames_file(path), np.load(frames_file(path))[:-1])


def _widen_last_clip(path):
    # 3 events over 13 rows have no common block length; the reversed clip is as wide,
    # and the spans still tile the array, which gains one row for each clip
    def widen(row):
        start = row["clip"][0]
        row.update(clip=[start, start + 13], clip_neg=[start + 13, start + 26])

    rewrite_row(path, 301, widen)
    frames = np.load(frames_file(path))
    np.save(frames_file(path), np.concatenate([frames, frames[-2:]]))


@pytest.mark.parametrize(
    "change, message",
    [
        (_repeat_first_event, r"line 3: bad record: record 1: event ids \((\d+), \1, \1\) repeat"),
        (_shorten_last_reversed_clip, r"line 301: bad record: record 299: reversed clip shape "
                                      r"\(11, 16\) differs from clip shape \(12, 16\)"),
        (_widen_last_clip, r"line 301: bad record: record 299: a clip of 13 rows does not split "
                           r"into 3 equal event blocks"),
    ],
    ids=["repeated-event", "short-reversed-clip", "uneven-event-blocks"],
)
def test_malformed_paired_rows_rejected(saved, change, message):
    change(saved)
    with pytest.raises(FormatError, match=message):
        C.load_manifest(saved)


@pytest.mark.parametrize("events, frames, negatives", [(2, 1, True), (3, 4, False), (5, 8, True),
                                                     (4, 7, False)])
def test_every_synthesized_corpus_loads(tmp_path, catalog, events, frames, negatives):
    # each synthesized clip is its events' blocks of one length, so no check rejects it
    man = C.build_mixed_dataset(catalog, 25, events, frames, 0.3, negatives, seed=events + frames)
    C.save_manifest(man, tmp_path / "corpus.jsonl")
    assert C.load_manifest(tmp_path / "corpus.jsonl") == man


def test_rows_store_no_reversed_caption(saved):
    rows = [json.loads(line) for line in saved.read_text().splitlines()[1:]]
    assert all(row.keys() == {"id", "events", "connector", "clip", "clip_neg"} for row in rows)


@pytest.mark.parametrize("value", ["text", None], ids=["string", "null"])
def test_older_rows_with_a_reversed_caption_load(saved, small_corpus, value):
    # rows written before the captions and synthesis parameters were left out carry
    # them beside the events and connector; those keys are ignored
    lines = saved.read_text().splitlines()
    rows = [json.loads(line) for line in lines[1:]]
    for row, rec in zip(rows, small_corpus.records):
        row["caption_neg"] = value and rec.caption_neg.text
        row.update(caption_pos=rec.caption_pos.text, frames_per_event=4, noise_sigma=0.2)
    saved.write_text("\n".join(lines[:1] + [json.dumps(r, sort_keys=True) for r in rows]) + "\n")
    assert C.load_manifest(saved) == small_corpus


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda row: row.update(connector="after"), "connector 'after' not in generation set"),
        (lambda row: row.update(events=row["events"][:1]), "caption needs at least 2 events"),
    ],
    ids=["parse-only-connector", "one-event"],
)
def test_rows_of_no_caption_rejected(saved, change, message):
    rewrite_row(saved, 4, change)
    with pytest.raises(FormatError, match=f"line 4: bad record: {message}"):
        C.load_manifest(saved)


@pytest.mark.parametrize(
    "change, shown",
    [
        (lambda h: h.update(kind=7), "got 7, 'train'"),
        (lambda h: h.update(kind="pairs"), "got 'pairs', 'train'"),
        (lambda h: h.update(split=["x"]), "got 'paired', ['x']"),
    ],
    ids=["kind-a-number", "kind-unknown", "split-a-list"],
)
def test_header_kind_and_split_are_checked(saved, change, shown):
    # unchecked, any kind but "labeled" reads the rows as paired and is written back as given
    rewrite_row(saved, 1, change)
    with pytest.raises(FormatError, match=f"line 1: kind must be 'paired' or 'labeled' and split "
                                          f"a string, {re.escape(shown)}"):
        C.load_manifest(saved)


def test_manifest_unknown_event_rejected(saved):
    rewrite_row(saved, 2, lambda row: row.update(events=[0, 1, 99]))
    with pytest.raises(FormatError, match="line 2"):
        C.load_manifest(saved)


def test_missing_frames_file_rejected(saved):
    frames_file(saved).unlink()
    with pytest.raises(FormatError, match="cannot read frame array"):
        C.load_manifest(saved)


@pytest.mark.parametrize("keep", [0, 3, 40, -64], ids=["empty", "magic", "header", "payload"])
def test_truncated_frames_file_rejected(saved, keep):
    target = frames_file(saved)
    target.write_bytes(target.read_bytes()[:keep])
    with pytest.raises(FormatError, match="cannot read frame array"):
        C.load_manifest(saved)


def test_zip_frames_file_rejected(saved):
    target = frames_file(saved)
    frames = np.load(target)
    with open(target, "wb") as fh:
        np.savez(fh, frames=frames)
    with pytest.raises(FormatError, match="not a .npy array"):
        C.load_manifest(saved)


@pytest.mark.parametrize(
    "bad",
    [
        lambda f: f[:, :-1],
        lambda f: f.astype(np.float64),
        lambda f: f.astype(">f4"),
        lambda f: f.reshape(-1),
    ],
    ids=["width", "float64", "big-endian", "1-d"],
)
def test_wrong_frame_array_rejected(saved, bad):
    target = frames_file(saved)
    np.save(target, bad(np.load(target)))
    with pytest.raises(FormatError, match="frame array must be <f4"):
        C.load_manifest(saved)


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("kind", ["paired", "labeled"])
def test_non_finite_frames_rejected_naming_the_frame_file(tmp_path, small_corpus, catalog, kind,
                                                          value):
    path = tmp_path / "corpus.jsonl"
    C.save_manifest(small_corpus if kind == "paired" else
                    C.build_labeled_clips(catalog, 4, 3, 0.1, seed=1), path)
    frames = np.load(frames_file(path))
    frames[-1, 5] = value  # in the last clip
    np.save(frames_file(path), frames)
    with pytest.raises(FormatError, match=f"^{re.escape(str(frames_file(path)))}: clip frames "
                                          f"contain non-finite values$"):
        C.load_manifest(path)


@pytest.mark.parametrize(
    "make_span, message",
    [
        (lambda start, n_rows: [start, n_rows + 1], "out of range"),
        (lambda start, n_rows: [start, start], "out of range"),
        (lambda start, n_rows: [start, 1.5 * n_rows], r"must be \[start, stop\]"),
        (lambda start, n_rows: {"path": "r000299_neg.tclp"}, r"must be \[start, stop\]"),
    ],
    ids=["past-end", "empty", "float", "v1-path"],
)
def test_bad_span_rejected(saved, make_span, message):
    n_rows = len(np.load(frames_file(saved)))
    rewrite_row(saved, 301, lambda row: row.update(clip_neg=make_span(row["clip_neg"][0], n_rows)))
    with pytest.raises(FormatError, match=f"line 301.*{message}"):
        C.load_manifest(saved)


@pytest.mark.parametrize("shift", [-1, 1], ids=["overlap", "gap"])
def test_span_overlap_or_gap_rejected(saved, shift):
    rewrite_row(saved, 3, lambda row: row["clip"].__setitem__(0, row["clip"][0] + shift))
    with pytest.raises(FormatError, match="line 3.*gap or overlap"):
        C.load_manifest(saved)


def test_leftover_frame_rows_rejected(saved):
    target = frames_file(saved)
    frames = np.load(target)
    np.save(target, np.concatenate([frames, frames[:2]]))
    with pytest.raises(FormatError, match="2 frame rows after the last clip span"):
        C.load_manifest(saved)


def test_bad_schema_version_rejected(saved):
    rewrite_row(saved, 1, lambda header: header.update(schema_version=999))
    with pytest.raises(FormatError, match="schema version"):
        C.load_manifest(saved)


def test_v1_manifest_rejected(saved):
    rewrite_row(saved, 1, lambda header: header.update(schema_version=1, inline_frames=False))
    with pytest.raises(FormatError, match="unsupported schema version 1"):
        C.load_manifest(saved)


def test_missing_manifest_file(tmp_path):
    with pytest.raises(FormatError):
        C.load_manifest(tmp_path / "nope.jsonl")


def test_catalog_for_rebuilds_generator_catalog(small_corpus, catalog):
    assert C.catalog_for(small_corpus) == catalog


@pytest.mark.parametrize(
    "kind, line_no, change, message",
    [
        ("paired", 1, lambda h: h.update(seed=True), "seed must be an integer, got True"),
        ("paired", 1, lambda h: h.update(seed=h["seed"] + 0.5), "seed must be an integer"),
        ("paired", 1, lambda h: h["catalog"].update(n_classes=20.9),
         "catalog n_classes must be an integer, got 20.9"),
        ("paired", 1, lambda h: h.update(n_records=str(h["n_records"])),
         "n_records must be an integer, got '300'"),
        ("paired", 1, lambda h: h.update(n_records=True), "n_records must be an integer, got True"),
        ("paired", 1, lambda h: h.update(n_records=1.5), "n_records must be an integer, got 1.5"),
        ("paired", 2, lambda row: row.update(id=str(row["id"])), "id must be an integer, got '0'"),
        ("paired", 2, lambda row: row.update(id=row["id"] + 0.7), "id must be an integer, got 0.7"),
        ("paired", 3, lambda row: row.update(events=[e + 0.9 for e in row["events"]]),
         "event id must be an integer"),
        ("labeled", 2, lambda row: row.update(label=str(row["label"])), "label must be an integer"),
    ],
    ids=["seed-true", "seed-half", "n-classes-float", "n-records-string", "n-records-true",
         "n-records-float", "id-string", "id-float",
         "events-float", "label-string"],
)
def test_manifest_numbers_must_have_their_json_type(tmp_path, small_corpus, catalog, kind, line_no,
                                                    change, message):
    # a coerced number would load a record, or a whole catalog, other than the one written
    path = tmp_path / "corpus.jsonl"
    C.save_manifest(small_corpus if kind == "paired" else
                    C.build_labeled_clips(catalog, 4, 3, 0.1, seed=1), path)
    rewrite_row(path, line_no, change)
    with pytest.raises(FormatError, match=f"{re.escape(str(path))}, line {line_no}: .*{message}"):
        C.load_manifest(path)
