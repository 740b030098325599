"""Synthetic audio-event corpus: clips, ordered captions, temporal negatives.

An event catalog is its three numbers, (n_classes, frame_dim, seed): it
compares and hashes by them, a manifest holds it and records just them, and
its prototypes and names are derived from them once, when it is built.
Audio events are prototype-plus-noise frame sequences, not waveforms; a clip
is a concatenation of per-event frame blocks, and its caption is its events
and one forward-order connector phrase; its tokens and text are derived from
those and the one name table every catalog shares. The temporal negative of
a record reverses the events in the caption (and, for a record flagged to
carry one, the blocks of the clip, reusing the same per-event noise), giving
hard negatives that differ only in order. Both are derived from the record
on first read and then kept with it, and neither is stored in a manifest.

All frame data lives on the float32 grid so on-disk round-trips are lossless;
generation is keyed per record: one generator, rng(seed, record_index), draws
a record's events, connector and clip noise, so records are independent of
generation order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DataError, FormatError, InvalidConfig

MANIFEST_SCHEMA_VERSION = 3
FRAME_DTYPE = np.dtype("<f4")
_DECODER = json.JSONDecoder()  # json.loads' decoder, for lines parsed without its wrapping
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))  # every manifest line
_CATALOG_KEYS = ("n_classes", "frame_dim", "seed")  # a catalog is these, in EventCatalog's order

# Connectors the generator may emit and the parser reads (forward temporal order only).
GENERATION_CONNECTORS = ("followed by", "and then")
_CONNECTOR_PHRASES = sorted((tuple(c.split()) for c in GENERATION_CONNECTORS), key=len,
                            reverse=True)

# Built-in event vocabulary. One- and two-token names are interleaved so
# name words land on many different caption positions; every word is used by
# exactly one name and never collides with a connector word. Names cycle
# with a numeric suffix if exhausted.
EVENT_PHRASES = (
    "dog barking", "thunder", "engine revving", "applause",
    "baby crying", "rain", "glass breaking", "laughter",
    "door creaking", "footsteps", "phone ringing", "sirens",
    "bird chirping", "fireworks", "cat meowing", "chatter",
    "horse neighing", "traffic", "cow mooing", "hail",
    "sheep bleating", "pig grunting", "rooster crowing", "owl hooting",
    "frog croaking", "crowd cheering", "hands clapping", "feet stomping",
    "whistle blowing", "train passing", "helicopter hovering", "waves crashing",
    "stream flowing", "leaves rustling", "branch snapping", "bees buzzing",
    "drum beating", "guitar strumming", "piano playing", "violin bowing",
    "trumpet blaring", "keyboard clacking", "mouse clicking", "printer humming",
    "fan whirring", "kettle whistling", "bacon sizzling", "soup bubbling",
    "knife chopping", "hammer pounding", "saw cutting", "drill spinning",
    "vacuum droning", "shower running", "child giggling", "goat calling",
    "donkey braying", "duck quacking", "goose hissing", "wolf howling",
    "lion roaring", "elephant trumpeting", "snake rattling", "seagull screeching",
)


# -- catalog -------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class EventClass:
    id: int
    name: str
    prototype: np.ndarray  # unit-norm direction in frame space: its row of the catalog's table


@dataclass(frozen=True)
class EventCatalog:
    """n_classes events in frame_dim space, a pure function of its three numbers, by which it
    compares and hashes: unit-norm gaussian prototypes drawn from seed into one read-only table."""

    n_classes: int
    frame_dim: int
    seed: int
    classes: tuple[EventClass, ...] = field(init=False, repr=False, compare=False)
    _name_to_id: dict[str, int] = field(init=False, repr=False, compare=False)
    _prototypes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_classes < 2:
            raise InvalidConfig(f"need at least 2 classes, got {self.n_classes}")
        if self.frame_dim < 2:
            raise InvalidConfig(f"need frame_dim >= 2, got {self.frame_dim}")
        rng = np.random.default_rng(self.seed)
        try:  # a table numpy cannot hold fails at once, with nothing allocated
            protos = rng.standard_normal((self.n_classes, self.frame_dim))
        except (MemoryError, ValueError) as exc:
            raise InvalidConfig(f"cannot draw a catalog of {self.n_classes} x {self.frame_dim} "
                                f"prototypes: {exc}") from exc
        protos /= np.linalg.norm(protos, axis=1, keepdims=True)
        protos = protos.astype(FRAME_DTYPE.base)
        protos.setflags(write=False)
        classes = tuple(EventClass(i, _EVENT_NAMES[i], protos[i]) for i in range(self.n_classes))
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "_name_to_id", {ev.name: ev.id for ev in classes})
        object.__setattr__(self, "_prototypes", protos)  # n_classes x frame_dim

    def __len__(self) -> int:
        return self.n_classes

    def checked_ids(self, event_ids) -> tuple[int, ...]:
        """The ids as a tuple; an InvalidConfig names the first outside [0, n_classes)."""
        ids = tuple(event_ids)
        for eid in ids:
            if not 0 <= eid < self.n_classes:
                raise InvalidConfig(f"event id {eid} not in catalog of {self.n_classes} classes")
        return ids

    def id_of(self, name: str) -> int | None:
        return self._name_to_id.get(name)


def event_name(index: int) -> str:
    cycle, slot = divmod(index, len(EVENT_PHRASES))
    if cycle == 0:
        return EVENT_PHRASES[slot]
    return f"{EVENT_PHRASES[slot]} {cycle + 1}"


class _NameTable(dict):
    """event_name by event id, each computed once on first use (a memo of a pure function):
    the names of every catalog's events and every caption's."""

    def __missing__(self, index: int) -> str:
        name = self[index] = event_name(index)
        return name


_EVENT_NAMES = _NameTable()


def piece_words(piece: int | str) -> list[str]:
    """A caption piece's words (a connector's or an event id's name's): `Caption.tokens`
    is its pieces' words back to back, name, connector, name, ..."""
    return (piece if isinstance(piece, str) else _EVENT_NAMES[piece]).split()


def build_catalog(n_classes: int, frame_dim: int, seed: int) -> EventCatalog:
    """The catalog of the three numbers; the one way every caller builds one."""
    return EventCatalog(n_classes, frame_dim, seed)


# -- clips ---------------------------------------------------------------------

@dataclass(frozen=True)
class AudioClip:
    """T x F finite frames; `rows` cuts out rows as a clip, a view that needs no check."""

    frames: np.ndarray  # T x F float32, row t = frame at time t

    def __post_init__(self):
        if self.frames.ndim != 2:
            raise InvalidConfig(f"clip frames must be T x F, got shape {self.frames.shape}")
        if not np.isfinite(self.frames).all():
            raise InvalidConfig("clip frames contain non-finite values")

    def __eq__(self, other):
        return isinstance(other, AudioClip) and np.array_equal(self.frames, other.frames)

    def rows(self, start: int, stop: int) -> AudioClip:
        clip = object.__new__(AudioClip)
        object.__setattr__(clip, "frames", self.frames[start:stop])
        return clip


# -- captions ------------------------------------------------------------------

def _check_connector(connector: str) -> None:
    if connector not in GENERATION_CONNECTORS:
        raise InvalidConfig(
            f"connector {connector!r} not in generation set {GENERATION_CONNECTORS}"
        )


@dataclass(frozen=True)
class Caption:
    """Events in temporal order and one connector: "a <conn> b", each event by the name
    `event_name` gives its id, as in every catalog (`build_catalog`)."""

    event_ids: tuple[int, ...]
    connector: str

    def __post_init__(self):
        _check_connector(self.connector)
        if len(self.event_ids) < 2:
            raise InvalidConfig(f"caption needs at least 2 events, got {len(self.event_ids)}")
        if min(self.event_ids) < 0:  # as an index it would name an event from the list's end
            raise InvalidConfig(f"caption event id {min(self.event_ids)} is negative")

    @property
    def text(self) -> str:
        return f" {self.connector} ".join(map(_EVENT_NAMES.__getitem__, self.event_ids))

    @cached_property  # built on first read, then kept: the dataclass is frozen, not slotted
    def tokens(self) -> tuple[str, ...]:
        return tuple(self.text.split())  # no name or connector word holds a space


def render_caption(event_ids, catalog: EventCatalog, connector: str) -> Caption:
    """A caption of catalog events; checks the connector, then each event id, then the count."""
    _check_connector(connector)
    return Caption(catalog.checked_ids(event_ids), connector)


def _match_connector(tokens: tuple[str, ...], pos: int) -> tuple[str, ...] | None:
    for phrase in _CONNECTOR_PHRASES:
        if tokens[pos : pos + len(phrase)] == phrase:
            return phrase
    return None


def parse_caption(text: str, catalog: EventCatalog) -> tuple[tuple[int, ...], tuple[str, ...]]:
    """Split on longest-match connector phrases; segments must be catalog names.

    Returns (event ids, connectors); every connector keeps surface order, so
    the ids are in temporal order.
    """
    tokens = tuple(text.split())
    segment_tokens: list[list[str]] = [[]]
    connectors: list[str] = []
    i = 0
    while i < len(tokens):
        phrase = _match_connector(tokens, i)
        if phrase is not None and segment_tokens[-1]:
            connectors.append(" ".join(phrase))
            segment_tokens.append([])
            i += len(phrase)
        else:
            segment_tokens[-1].append(tokens[i])
            i += 1
    if not connectors:
        raise DataError(f"no connector phrase found in {' '.join(tokens)!r}")

    ids = []
    for seg in segment_tokens:
        name = " ".join(seg)
        eid = catalog.id_of(name)
        if eid is None:
            raise DataError(f"segment {name!r} matches no catalog event name")
        ids.append(eid)
    return tuple(ids), tuple(connectors)


def negate_caption(caption: Caption) -> Caption:
    """The same events and connector, the events in reverse order; an involution."""
    return Caption(caption.event_ids[::-1], caption.connector)


# -- dataset records -------------------------------------------------------------

@dataclass(frozen=True)
class DatasetRecord:
    """A clip and its caption; the clip's events are caption_pos.event_ids, distinct,
    one block of equal length each. caption_neg, the caption reversed, is derived
    from it on first read and then kept, as is clip_neg, for a record with has_clip_neg,
    a copy of the clip's event blocks in reverse order. Neither is a field."""

    record_id: int
    clip: AudioClip
    caption_pos: Caption
    has_clip_neg: bool = False

    def __post_init__(self):
        ids = self.caption_pos.event_ids
        if len(set(ids)) != len(ids):
            raise InvalidConfig(f"record {self.record_id}: event ids {ids} repeat")
        if len(self.clip.frames) % len(ids):
            raise InvalidConfig(f"record {self.record_id}: a clip of {len(self.clip.frames)} rows "
                                f"does not split into {len(ids)} equal event blocks")

    @cached_property
    def caption_neg(self) -> Caption:
        return negate_caption(self.caption_pos)

    @cached_property
    def clip_neg(self) -> AudioClip | None:
        if self.has_clip_neg:
            frames, n_events = self.clip.frames, len(self.caption_pos.event_ids)
            return AudioClip(frames[reversed_block_rows([0], [len(frames)], [n_events])])
        return None


def reversed_block_rows(starts, lengths, n_events) -> np.ndarray:
    """Row indices of the clips' reversals, back to back. Clip i is the lengths[i] rows from
    starts[i], E = n_events[i] blocks of b rows; block k of its reversal is its block E - 1 - k,
    so each row's index is its own place plus its block's shift, (E - 1 - 2k) b + start - place."""
    starts, lengths, n_events = (np.asarray(a, dtype=np.int64) for a in (starts, lengths, n_events))
    size = np.repeat(lengths // n_events, n_events)  # b, for each block of each clip
    k = np.arange(len(size)) - np.repeat(np.cumsum(n_events) - n_events, n_events)
    shift = (np.repeat(starts + lengths - np.cumsum(lengths), n_events)
             + (np.repeat(n_events, n_events) - 1 - 2 * k) * size)
    return np.repeat(shift, size) + np.arange(lengths.sum())


@dataclass(frozen=True)
class LabeledRecord:
    record_id: int
    label_id: int
    clip: AudioClip


@dataclass(frozen=True)
class DatasetManifest:
    records: tuple
    catalog: EventCatalog  # compared by its three numbers, all a manifest header records
    split: str
    seed: int
    kind: str = "paired"  # "paired" records carry captions, "labeled" a class id

    def __post_init__(self):
        ids = [r.record_id for r in self.records]
        if len(set(ids)) != len(ids):
            raise InvalidConfig("record ids must be unique within a manifest")


_BLOCK_BYTES = 1 << 18  # float64 noise held at once: drawn per record, summed and cast per block


def _synth_clips(catalog, seed, n_records, n_events, n_frames, noise_sigma, draw_ids):
    """Each record's clip, as row views of one checked float32 array, in record order.
    Record idx's generator, default_rng([seed, idx]), draws its event
    ids (draw_ids), then its E x n_frames x F noise in one call; each block is its event's
    prototype plus sigma-scaled noise, summed in float64. The arguments are checked first."""
    if n_records < 0:
        raise InvalidConfig(f"n_records must be >= 0, got {n_records}")
    if n_frames < 1:
        raise InvalidConfig(f"frames_per_event must be >= 1, got {n_frames}")
    if not (math.isfinite(noise_sigma) and noise_sigma >= 0):
        raise InvalidConfig(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
    shape = (n_events, n_frames, catalog.frame_dim)
    frames = np.empty((n_records,) + shape, FRAME_DTYPE)
    per_block = max(1, _BLOCK_BYTES // (8 * math.prod(shape)))
    noise = np.empty((min(per_block, n_records),) + shape)
    event_ids = []
    for start in range(0, n_records, per_block):
        block = noise[: min(per_block, n_records - start)]
        for idx, record_noise in enumerate(block, start):
            rng = np.random.default_rng([seed, idx])
            event_ids.append(draw_ids(rng))
            if noise_sigma:
                rng.standard_normal(shape, out=record_noise)
        protos = catalog._prototypes[np.array(event_ids[start:]), None, :]  # b x E x 1 x F
        if noise_sigma:  # at 0 the block is not read: what it holds is another block's
            block *= noise_sigma
            block += protos
        frames[start : start + len(block)] = block if noise_sigma else protos
    whole, rows = AudioClip(frames.reshape(-1, catalog.frame_dim)), n_events * n_frames
    return event_ids, [whole.rows(i, i + rows) for i in range(0, len(whole.frames), rows)]


def build_mixed_dataset(
    catalog: EventCatalog,
    n_records: int,
    events_per_clip: int,
    frames_per_event: int,
    noise_sigma: float,
    with_negative_clips: bool,
    seed: int,
    split: str = "train",
) -> DatasetManifest:
    """Concatenation corpus: distinct events per clip, positive caption plus
    order-reversed negative; with_negative_clips flags every record to carry its
    clip's blocks reversed, which reuse the per-event noise.

    Event sets are unique across records (redrawn on collision), so no two
    records describe the same events in different orders and a model can tell
    every pair of clips apart without looking at order at all."""
    if events_per_clip < 2:
        raise InvalidConfig(f"events_per_clip must be >= 2, got {events_per_clip}")
    if events_per_clip > len(catalog):
        raise InvalidConfig(f"events_per_clip {events_per_clip} exceeds catalog size "
                            f"{len(catalog)}")
    if n_records > math.comb(len(catalog), events_per_clip):
        raise InvalidConfig(f"cannot draw {n_records} distinct event sets of size "
                            f"{events_per_clip} from {len(catalog)} classes")
    seen_sets, connectors = set(), []  # the event sets drawn so far; each record's connector

    def draw_ids(rng):
        while True:
            ids = tuple(rng.choice(len(catalog), size=events_per_clip, replace=False).tolist())
            if frozenset(ids) not in seen_sets:
                break
        seen_sets.add(frozenset(ids))
        connectors.append(GENERATION_CONNECTORS[int(rng.integers(len(GENERATION_CONNECTORS)))])
        return ids

    event_ids, clips = _synth_clips(catalog, seed, n_records, events_per_clip, frames_per_event,
                                    noise_sigma, draw_ids)
    records = tuple(  # choice keeps the ids in the catalog
        DatasetRecord(idx, clip, Caption(ids, connector), with_negative_clips)
        for idx, (clip, ids, connector) in enumerate(zip(clips, event_ids, connectors))
    )
    return DatasetManifest(records, catalog, split, seed, "paired")


def build_labeled_clips(
    catalog: EventCatalog,
    n_records: int,
    frames_per_event: int,
    noise_sigma: float,
    seed: int,
    split: str = "test",
) -> DatasetManifest:
    """Single-event clips with class labels, for zero-shot evaluation."""
    labels, clips = _synth_clips(catalog, seed, n_records, 1, frames_per_event, noise_sigma,
                                 lambda rng: (int(rng.integers(len(catalog))),))
    records = tuple(LabeledRecord(idx, label, clip)
                    for idx, ((label,), clip) in enumerate(zip(labels, clips)))
    return DatasetManifest(records, catalog, split, seed, "labeled")


# -- serialization ---------------------------------------------------------------
# A manifest is two files: <stem>.jsonl, a header line plus one JSON row per
# record, and <stem>.frames.npy, one float32 array holding every clip in record
# order. The header holds the schema version, kind, split, seed, record count
# and the catalog's three numbers, from which loading builds the catalog once.
# A row names its clip by its [start, stop) row span in the array; the spans of
# a file tile the array. A paired row stores its caption's event ids and
# connector, which are the whole caption, and no caption text: the caption is
# rendered from them on load, and the reversed caption derived from it. A
# record that carries a reversed clip has "has_clip_neg": true in its row and no
# frames of it: the reversed clip is derived from the clip.
# Keys that older rows carry beside these (caption_pos, caption_neg,
# frames_per_event, noise_sigma) are ignored.


def _frames_path(path: Path) -> Path:
    return path.with_name(path.stem + ".frames.npy")


def save_manifest(manifest: DatasetManifest, path) -> None:
    """Write the manifest and its frame array."""
    path = Path(path)
    header = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "kind": manifest.kind,
        "split": manifest.split,
        "seed": manifest.seed,
        "n_records": len(manifest.records),
        "catalog": {key: getattr(manifest.catalog, key) for key in _CATALOG_KEYS},
    }
    lines = [_ENCODER.encode(header)]
    blocks = [np.empty((0, manifest.catalog.frame_dim), FRAME_DTYPE)]
    n_rows = 0
    for rec in manifest.records:
        ids = (rec.label_id,) if manifest.kind == "labeled" else rec.caption_pos.event_ids
        if not 0 <= min(ids) <= max(ids) < manifest.catalog.n_classes:  # as loading checks
            raise InvalidConfig(f"record {rec.record_id}: ids {list(ids)} not all in catalog")
        blocks.append(rec.clip.frames)
        n_rows += len(rec.clip.frames)
        row = {"id": rec.record_id, "clip": [n_rows - len(rec.clip.frames), n_rows]}
        if manifest.kind == "labeled":
            row["label"] = rec.label_id
        else:
            row.update(events=list(ids), connector=rec.caption_pos.connector)
            if rec.has_clip_neg:
                row["has_clip_neg"] = True
        lines.append(_ENCODER.encode(row))
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(_frames_path(path), "wb") as fh:
        np.save(fh, np.concatenate(blocks).astype(FRAME_DTYPE, copy=False), allow_pickle=False)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _load_frames(path: Path, frame_dim: int) -> AudioClip:
    target = _frames_path(path)
    try:
        frames = np.load(target, allow_pickle=False)
    except (OSError, ValueError, EOFError) as exc:
        raise FormatError(f"{target}: cannot read frame array: {exc}") from exc
    if not isinstance(frames, np.ndarray):  # np.load opens a zip archive as an NpzFile
        frames.close()
        raise FormatError(f"{target}: not a .npy array")
    if frames.dtype != FRAME_DTYPE or frames.ndim != 2 or frames.shape[1] != frame_dim:
        raise FormatError(
            f"{target}: frame array must be {FRAME_DTYPE.str} of shape (rows, {frame_dim}), "
            f"got {frames.dtype.str} {frames.shape}"
        )
    try:
        return AudioClip(frames)
    except InvalidConfig as exc:  # non-finite values
        raise FormatError(f"{target}: {exc}") from exc


def _json_value(value, key: str) -> int:
    """The value as JSON gave it, if it is an integer (a bool is not one here)."""
    if type(value) is not int:
        raise TypeError(f"{key} must be an integer, got {value!r}")
    return value


def load_manifest(path) -> DatasetManifest:
    """The manifest and its frame array, every fact checked once: the array as one clip whose
    row views are the clips, and each line as JSON; an error names the file and line."""
    path = Path(path)
    if not path.is_file():
        raise FormatError(f"manifest {path} does not exist")
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: manifest is not UTF-8: {exc}") from exc
    if not lines:
        raise FormatError(f"{path}: empty manifest file")

    def fail(line_no: int, msg: str):
        raise FormatError(f"{path}, line {line_no}: {msg}")

    try:
        header = json.loads(lines[0])
    except ValueError as exc:  # JSONDecodeError, or an integer past Python's digit limit
        fail(1, f"bad header: {exc}")
    if not isinstance(header, dict) or "catalog" not in header:
        fail(1, "header must be an object with a 'catalog' entry")
    if header.get("schema_version") != MANIFEST_SCHEMA_VERSION:
        fail(1, f"unsupported schema version {header.get('schema_version')!r}")
    cat = header["catalog"]
    try:
        catalog = build_catalog(*(_json_value(cat[key], f"catalog {key}") for key in _CATALOG_KEYS))
        seed = _json_value(header.get("seed", 0), "seed")
    except (KeyError, TypeError, ValueError, InvalidConfig) as exc:
        fail(1, f"bad catalog reference or seed: {exc}")
    kind, split = header.get("kind", "paired"), header.get("split", "train")
    if kind not in ("paired", "labeled") or not isinstance(split, str):
        fail(1, f"kind must be 'paired' or 'labeled' and split a string, got {kind!r}, {split!r}")
    whole = _load_frames(path, catalog.frame_dim)
    n_expected = header.get("n_records")
    if n_expected is not None:
        try:
            _json_value(n_expected, "n_records")
        except TypeError as exc:
            fail(1, f"bad record count: {exc}")
    records = []
    next_row = 0
    for line_no, line in enumerate(lines[1:], start=2):
        try:  # a line that is one JSON value is parsed once; json.loads names any other's fault
            row, end = _DECODER.raw_decode(line)
        except (ValueError, RecursionError):
            end = None
        if end != len(line):
            if not line.strip():
                fail(line_no, "blank record line")
            try:
                row = json.loads(line)
            except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
                fail(line_no, f"bad record JSON: {exc}")
        try:
            span = row["clip"]
            if type(span) is not list or len(span) != 2 or any(type(v) is not int for v in span):
                fail(line_no, f"clip span must be [start, stop], got {span!r}")
            start, stop = span
            if not 0 <= start < stop <= len(whole.frames):
                fail(line_no, f"clip span {span} out of range for {len(whole.frames)} frame rows")
            if start != next_row:
                fail(line_no, f"clip span {span} does not start at row {next_row} (gap or overlap)")
            next_row, clip = stop, whole.rows(start, stop)
            if kind == "labeled":
                label = _json_value(row["label"], "label")
                if not 0 <= label < len(catalog):
                    fail(line_no, f"label {label} not in catalog")
                records.append(LabeledRecord(_json_value(row["id"], "id"), label, clip))
            else:
                events = [_json_value(e, "event id") for e in row["events"]]
                if (flag := row.get("has_clip_neg", True)) is not True:  # absent, or true
                    fail(line_no, f"has_clip_neg must be true if given, got {flag!r}")
                caption = render_caption(events, catalog, row["connector"])
                records.append(DatasetRecord(_json_value(row["id"], "id"), clip, caption,
                                             "has_clip_neg" in row))
        except (KeyError, TypeError, ValueError, InvalidConfig) as exc:
            fail(line_no, f"bad record: {exc}")
    if n_expected is not None and len(records) != n_expected:
        raise FormatError(
            f"{path}: header promises {n_expected} records, found {len(records)} (truncated?)"
        )
    if next_row != len(whole.frames):
        raise FormatError(f"{_frames_path(path)}: {len(whole.frames) - next_row} frame rows "
                          "after the last clip span")
    try:
        return DatasetManifest(tuple(records), catalog, split, seed, kind)
    except InvalidConfig as exc:  # duplicate record ids
        raise FormatError(f"{path}: {exc}") from exc


def catalog_for(manifest: DatasetManifest) -> EventCatalog:
    return manifest.catalog
