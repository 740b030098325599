"""Corpus generation, caption grammar, and manifest serialization checks.

The grammar properties (involution, parse/render inverse, negation changes
meaning) are checked over whole generated corpora; serialization is checked
byte-for-byte because downstream determinism claims depend on it.
"""

import json
import math

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
        assert catalog.id_of(catalog.name_of(ev.id)) == ev.id
    assert catalog.id_of("no such event") is None
    with pytest.raises(UnknownEvent):
        catalog.name_of(99)


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


def _prototype_blocks(catalog, event_ids, n_frames):
    return [np.tile(catalog.classes[e].prototype, (n_frames, 1)) for e in event_ids]


def test_zero_noise_clip_block_layout(catalog):
    man = C.build_mixed_dataset(catalog, 10, 3, 5, 0.0, False, seed=1)
    for rec in man.records:
        assert rec.clip.frames.shape == (15, 16)
        blocks = _prototype_blocks(catalog, rec.spec.event_ids, 5)
        np.testing.assert_array_equal(rec.clip.frames, np.concatenate(blocks))


def test_zero_noise_negative_clip_reverses_blocks(catalog):
    man = C.build_mixed_dataset(catalog, 10, 3, 5, 0.0, True, seed=9)
    for rec in man.records:
        blocks = _prototype_blocks(catalog, rec.spec.event_ids, 5)
        np.testing.assert_array_equal(rec.clip_neg.frames, np.concatenate(blocks[::-1]))


# -- caption grammar ----------------------------------------------------------------


def test_render_two_events(catalog):
    cap = C.render_caption((0, 1), catalog, "followed by")
    assert cap.text == "dog barking followed by thunder"
    assert cap.event_ids == (0, 1)


def test_render_three_events_repeats_connector(catalog):
    cap = C.render_caption((1, 3, 5), catalog, "and then")
    assert cap.text == "thunder and then applause and then rain"
    assert cap.connectors == ("and then", "and then")


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


def test_negate_rejects_single_segment():
    single = C.Caption(tokens=("thunder",), segments=((1, (0, 1)),), connectors=())
    with pytest.raises(TooFewEvents):
        C.negate_caption(single)


def test_grammar_properties_over_generated_corpus(small_corpus, catalog):
    for rec in small_corpus.records:
        cap, neg = rec.caption_pos, rec.caption_neg
        # involution
        assert C.negate_caption(C.negate_caption(cap)) == cap
        # parse inverts render
        ids, conns = C.parse_caption(cap.text, catalog)
        assert ids == cap.event_ids
        assert conns == cap.connectors
        # negation changes meaning (event sets are sampled without replacement,
        # so no caption is a palindrome)
        neg_ids, _ = C.parse_caption(neg.text, catalog)
        assert neg_ids == tuple(reversed(ids))
        assert neg_ids != ids


# -- dataset construction -------------------------------------------------------------


def test_mixed_dataset_counts_and_negatives(catalog):
    man = C.build_mixed_dataset(catalog, 100, 2, 3, 0.1, False, seed=3)
    assert len(man.records) == 100
    for rec in man.records:
        assert rec.caption_neg is not None
        assert rec.caption_neg.event_ids == tuple(reversed(rec.caption_pos.event_ids))
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
        for block, proto in zip(blocks, _prototype_blocks(catalog, rec.spec.event_ids, 4)):
            assert not np.array_equal(block, proto)  # the noise is there to be reused
        np.testing.assert_array_equal(rec.clip_neg.frames, np.concatenate(blocks[::-1]))


def test_event_sets_unique_across_records(catalog):
    man = C.build_mixed_dataset(catalog, 200, 3, 2, 0.1, False, seed=4)
    sets = [frozenset(rec.spec.event_ids) for rec in man.records]
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


def test_record_rejects_mismatched_negative(catalog):
    cap = C.render_caption((0, 1, 2), catalog, "and then")
    bad_neg = C.render_caption((1, 0, 2), catalog, "and then")
    clip = C.AudioClip(np.concatenate(_prototype_blocks(catalog, (0, 1, 2), 2)))
    with pytest.raises(InvalidConfig):
        C.DatasetRecord(
            record_id=0,
            clip=clip,
            spec=C.ClipSpec((0, 1, 2), 2, 0.0),
            caption_pos=cap,
            caption_neg=bad_neg,
        )


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


def test_bad_caption_text_rejected(tmp_path, catalog):
    man = C.build_mixed_dataset(catalog, 3, 2, 2, 0.0, False, seed=1)
    p = tmp_path / "corpus.jsonl"
    C.save_manifest(man, p)
    rewrite_row(p, 2, lambda row: row.update(caption_pos="volcano erupting followed by thunder"))
    with pytest.raises(FormatError, match="line 2"):
        C.load_manifest(p)


def _swap_connector(row):
    row["connector"] = "and then" if row["connector"] == "followed by" else "followed by"


@pytest.mark.parametrize(
    "change",
    [
        _swap_connector,
        lambda row: row.update(events=row["events"][::-1]),
        lambda row: row.update(caption_neg=row["caption_pos"]),
        lambda row: row.update(caption_pos=row["caption_pos"] + " "),
    ],
    ids=["connector", "events", "caption_neg", "caption_pos"],
)
def test_caption_disagreeing_with_events_rejected(saved, change):
    rewrite_row(saved, 3, change)
    with pytest.raises(FormatError, match="line 3.*disagrees"):
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
