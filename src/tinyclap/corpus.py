"""Synthetic audio-event corpus: clips, ordered captions, temporal negatives.

Audio events are prototype-plus-noise frame sequences, not waveforms; a clip
is a concatenation of per-event frame blocks, and its caption is its events
and one forward-order connector phrase; its tokens and text are derived from
those and the one name table every catalog shares. The temporal negative of
a record reverses the events in the caption (and optionally the blocks of
the clip, reusing the same per-event noise), giving hard negatives that
differ only in order. The reversed caption is derived from the caption on
first read and kept with the record; it is never stored in a manifest.

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

from .errors import (
    FormatError,
    InvalidConfig,
    NoConnector,
    TooFewEvents,
    UnknownConnector,
    UnknownEvent,
    UnparsableSegment,
)

MANIFEST_SCHEMA_VERSION = 2
FRAME_DTYPE = np.dtype("<f4")
_DECODER = json.JSONDecoder()  # json.loads' decoder, for lines parsed without its wrapping
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))  # every manifest line

# Connectors the generator may emit (forward temporal order only).
GENERATION_CONNECTORS = ("followed by", "and then")
# The parser additionally accepts these; "after" inverts the pair order.
FORWARD_CONNECTORS = GENERATION_CONNECTORS + ("before",)
INVERTING_CONNECTORS = ("after",)
_CONNECTOR_PHRASES = sorted(
    (tuple(c.split()) for c in FORWARD_CONNECTORS + INVERTING_CONNECTORS),
    key=len,
    reverse=True,
)

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

@dataclass(frozen=True)
class EventClass:
    id: int
    name: str
    prototype: np.ndarray  # unit-norm direction in frame space, float32

    def __eq__(self, other):
        return (
            isinstance(other, EventClass)
            and self.id == other.id
            and self.name == other.name
            and np.array_equal(self.prototype, other.prototype)
        )


@dataclass(frozen=True)
class EventCatalog:
    """Event classes; derived once: name -> id, read-only float32 prototypes."""

    classes: tuple[EventClass, ...]
    frame_dim: int
    seed: int
    _name_to_id: dict[str, int] = field(init=False, repr=False, compare=False)
    _prototypes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        names = {}
        seen_protos = set()
        for i, ev in enumerate(self.classes):
            if ev.id != i:
                raise InvalidConfig(f"class ids must be 0..n-1 in order, got {ev.id} at {i}")
            if ev.name in names:
                raise InvalidConfig(f"duplicate event name {ev.name!r}")
            if ev.prototype.shape != (self.frame_dim,):
                raise InvalidConfig(
                    f"prototype of {ev.name!r} has shape {ev.prototype.shape}, "
                    f"expected ({self.frame_dim},)"
                )
            norm = float(np.linalg.norm(ev.prototype.astype(np.float64)))
            if abs(norm - 1.0) > 1e-6:
                raise InvalidConfig(f"prototype of {ev.name!r} has norm {norm}")
            key = ev.prototype.tobytes()
            if key in seen_protos:
                raise InvalidConfig(f"duplicate prototype for {ev.name!r}")
            seen_protos.add(key)
            names[ev.name] = i
        protos = np.array([c.prototype for c in self.classes], FRAME_DTYPE.base)
        protos.setflags(write=False)
        object.__setattr__(self, "_name_to_id", names)
        object.__setattr__(self, "_prototypes", protos)  # n_classes x frame_dim

    def __len__(self) -> int:
        return len(self.classes)

    def checked_ids(self, event_ids) -> tuple[int, ...]:
        """The ids as a tuple; UnknownEvent names the first outside [0, n_classes)."""
        ids = tuple(event_ids)
        for eid in ids:
            if not 0 <= eid < len(self.classes):
                raise UnknownEvent(f"event id {eid} not in catalog of {len(self)} classes")
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
    """Seeded catalog: unit-norm gaussian prototypes, names from the built-in list."""
    if n_classes < 2:
        raise InvalidConfig(f"need at least 2 classes, got {n_classes}")
    if frame_dim < 2:
        raise InvalidConfig(f"need frame_dim >= 2, got {frame_dim}")
    rng = np.random.default_rng(seed)
    protos = rng.standard_normal((n_classes, frame_dim))
    protos /= np.linalg.norm(protos, axis=1, keepdims=True)
    protos = protos.astype(FRAME_DTYPE.base)
    classes = tuple(
        EventClass(id=i, name=_EVENT_NAMES[i], prototype=protos[i]) for i in range(n_classes)
    )
    return EventCatalog(classes=classes, frame_dim=frame_dim, seed=seed)


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
        raise UnknownConnector(
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
            raise TooFewEvents(f"caption needs at least 2 events, got {len(self.event_ids)}")
        if min(self.event_ids) < 0:  # as an index it would name an event from the list's end
            raise UnknownEvent(f"caption event id {min(self.event_ids)} is negative")

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

    Returns (event ids in temporal order, surface connectors). Forward
    connectors keep surface order; "after" inverts its pair ("x after y" puts
    y immediately before x).
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
        raise NoConnector(f"no connector phrase found in {' '.join(tokens)!r}")

    surface_ids = []
    for seg in segment_tokens:
        name = " ".join(seg)
        eid = catalog.id_of(name)
        if eid is None:
            raise UnparsableSegment(f"segment {name!r} matches no catalog event name")
        surface_ids.append(eid)

    # Fold surface order into temporal order (only "after" reorders).
    order = [0]
    for k, conn in enumerate(connectors):
        if conn in INVERTING_CONNECTORS:
            order.insert(order.index(k), k + 1)
        else:
            order.append(k + 1)
    temporal_ids = tuple(surface_ids[j] for j in order)
    return temporal_ids, tuple(connectors)


def negate_caption(caption: Caption) -> Caption:
    """The same events and connector, the events in reverse order; an involution."""
    return Caption(caption.event_ids[::-1], caption.connector)


# -- dataset records -------------------------------------------------------------

@dataclass(frozen=True)
class DatasetRecord:
    """A clip and its caption; the clip's events are caption_pos.event_ids, distinct,
    one block of equal length each. caption_neg, the caption reversed, is derived
    from it on first read and then kept, never stored in a manifest; clip_neg, if
    any, is the clip's event blocks reversed, so it has the clip's shape."""

    record_id: int
    clip: AudioClip
    caption_pos: Caption
    clip_neg: AudioClip | None = None

    def __post_init__(self):
        ids = self.caption_pos.event_ids
        if len(set(ids)) != len(ids):
            raise InvalidConfig(f"record {self.record_id}: event ids {ids} repeat")
        if len(self.clip.frames) % len(ids):
            raise InvalidConfig(f"record {self.record_id}: a clip of {len(self.clip.frames)} rows "
                                f"does not split into {len(ids)} equal event blocks")
        if self.clip_neg is not None and self.clip_neg.frames.shape != self.clip.frames.shape:
            raise InvalidConfig(
                f"record {self.record_id}: reversed clip shape {self.clip_neg.frames.shape} "
                f"differs from clip shape {self.clip.frames.shape}"
            )

    @cached_property
    def caption_neg(self) -> Caption:
        return negate_caption(self.caption_pos)


@dataclass(frozen=True)
class LabeledRecord:
    record_id: int
    label_id: int
    clip: AudioClip


@dataclass(frozen=True)
class CatalogRef:
    n_classes: int
    frame_dim: int
    seed: int


@dataclass(frozen=True)
class DatasetManifest:
    records: tuple
    catalog_ref: CatalogRef
    split: str
    seed: int
    kind: str = "paired"  # "paired" records carry captions, "labeled" a class id

    def __post_init__(self):
        ids = [r.record_id for r in self.records]
        if len(set(ids)) != len(ids):
            raise InvalidConfig("record ids must be unique within a manifest")


_BLOCK_BYTES = 1 << 18  # float64 noise held at once: drawn per record, summed and cast per block


def _synth_clips(catalog, seed, n_records, n_events, n_frames, noise_sigma, draw_ids, reversed_too):
    """Each record's clip, then (reversed_too) its event blocks reversed, as row views of one
    checked float32 array. Record idx's generator, default_rng([seed, idx]), draws its event
    ids (draw_ids), then its E x n_frames x F noise in one call; each block is its event's
    prototype plus sigma-scaled noise, summed in float64. The arguments are checked first."""
    if n_records < 0:
        raise InvalidConfig(f"n_records must be >= 0, got {n_records}")
    if n_frames < 1:
        raise InvalidConfig(f"frames_per_event must be >= 1, got {n_frames}")
    if not (math.isfinite(noise_sigma) and noise_sigma >= 0):
        raise InvalidConfig(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
    shape = (n_events, n_frames, catalog.frame_dim)
    frames = np.empty((n_records, 1 + reversed_too) + shape, FRAME_DTYPE)
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
        frames[start : start + len(block), 0] = block if noise_sigma else protos
    if reversed_too:
        frames[:, 1] = frames[:, 0, ::-1]
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
    order-reversed negative; negative clips reuse the per-event noise.

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
                                    noise_sigma, draw_ids, with_negative_clips)
    step = 1 + with_negative_clips
    records = tuple(  # choice keeps the ids in the catalog
        DatasetRecord(idx, clips[step * idx], Caption(ids, connector),
                      clips[step * idx + 1] if with_negative_clips else None)
        for idx, (ids, connector) in enumerate(zip(event_ids, connectors))
    )
    return DatasetManifest(records, CatalogRef(len(catalog), catalog.frame_dim, catalog.seed),
                           split, seed, "paired")


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
                                 lambda rng: (int(rng.integers(len(catalog))),), False)
    records = tuple(LabeledRecord(idx, label, clip)
                    for idx, ((label,), clip) in enumerate(zip(labels, clips)))
    return DatasetManifest(records, CatalogRef(len(catalog), catalog.frame_dim, catalog.seed),
                           split, seed, "labeled")


# -- serialization ---------------------------------------------------------------
# A manifest is two files: <stem>.jsonl, a header line plus one JSON row per
# record, and <stem>.frames.npy, one float32 array holding every clip (then
# its reversed copy, if any) in record order. A row names each of its clips
# by its [start, stop) row span in the array; the spans of a file tile the
# array. A paired row stores its caption's event ids and connector, which are
# the whole caption, and no caption text: the caption is rendered from them on
# load, and the reversed caption derived from it.
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
        "catalog": {
            "n_classes": manifest.catalog_ref.n_classes,
            "frame_dim": manifest.catalog_ref.frame_dim,
            "seed": manifest.catalog_ref.seed,
        },
    }
    lines = [_ENCODER.encode(header)]
    blocks = [np.empty((0, manifest.catalog_ref.frame_dim), FRAME_DTYPE)]
    n_rows = 0

    def span(clip):
        nonlocal n_rows
        if clip is None:
            return None
        blocks.append(clip.frames)
        n_rows += len(clip.frames)
        return [n_rows - len(clip.frames), n_rows]

    for rec in manifest.records:
        ids = (rec.label_id,) if manifest.kind == "labeled" else rec.caption_pos.event_ids
        if not 0 <= min(ids) <= max(ids) < manifest.catalog_ref.n_classes:  # as loading checks
            raise UnknownEvent(f"record {rec.record_id}: ids {list(ids)} not all in catalog")
        if manifest.kind == "labeled":
            row = {"id": rec.record_id, "label": rec.label_id, "clip": span(rec.clip)}
        else:
            row = {
                "id": rec.record_id,
                "events": list(rec.caption_pos.event_ids),
                "connector": rec.caption_pos.connector,
                "clip": span(rec.clip),
                "clip_neg": span(rec.clip_neg),
            }
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
        ref = CatalogRef(*(_json_value(cat[key], f"catalog {key}")
                           for key in ("n_classes", "frame_dim", "seed")))
        catalog = build_catalog(ref.n_classes, ref.frame_dim, ref.seed)
        seed = _json_value(header.get("seed", 0), "seed")
    except (KeyError, TypeError, ValueError, InvalidConfig) as exc:
        fail(1, f"bad catalog reference or seed: {exc}")
    kind, split = header.get("kind", "paired"), header.get("split", "train")
    if kind not in ("paired", "labeled") or not isinstance(split, str):
        fail(1, f"kind must be 'paired' or 'labeled' and split a string, got {kind!r}, {split!r}")
    whole = _load_frames(path, ref.frame_dim)
    n_expected = header.get("n_records")
    if n_expected is not None:
        try:
            _json_value(n_expected, "n_records")
        except TypeError as exc:
            fail(1, f"bad record count: {exc}")
    records = []
    next_row = 0

    def clip_at(span, line_no: int) -> AudioClip:
        nonlocal next_row
        if not (isinstance(span, list) and len(span) == 2 and all(type(v) is int for v in span)):
            fail(line_no, f"clip span must be [start, stop], got {span!r}")
        start, stop = span
        if not 0 <= start < stop <= len(whole.frames):
            fail(line_no, f"clip span {span} out of range for {len(whole.frames)} frame rows")
        if start != next_row:
            fail(line_no, f"clip span {span} does not start at row {next_row} (gap or overlap)")
        next_row = stop
        return whole.rows(start, stop)

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
            if kind == "labeled":
                label = _json_value(row["label"], "label")
                if not 0 <= label < len(catalog):
                    fail(line_no, f"label {label} not in catalog")
                records.append(
                    LabeledRecord(
                        record_id=_json_value(row["id"], "id"),
                        label_id=label,
                        clip=clip_at(row["clip"], line_no),
                    )
                )
            else:
                events = [_json_value(e, "event id") for e in row["events"]]
                records.append(
                    DatasetRecord(
                        record_id=_json_value(row["id"], "id"),
                        clip=clip_at(row["clip"], line_no),
                        caption_pos=render_caption(events, catalog, row["connector"]),
                        clip_neg=(
                            clip_at(row["clip_neg"], line_no)
                            if row["clip_neg"] is not None
                            else None
                        ),
                    )
                )
        except (KeyError, TypeError, ValueError, InvalidConfig, UnknownEvent) as exc:
            fail(line_no, f"bad record: {exc}")
    if n_expected is not None and len(records) != n_expected:
        raise FormatError(
            f"{path}: header promises {n_expected} records, found {len(records)} (truncated?)"
        )
    if next_row != len(whole.frames):
        raise FormatError(f"{_frames_path(path)}: {len(whole.frames) - next_row} frame rows "
                          "after the last clip span")
    try:
        return DatasetManifest(records=tuple(records), catalog_ref=ref,
                               split=split, seed=seed, kind=kind)
    except InvalidConfig as exc:  # duplicate record ids
        raise FormatError(f"{path}: {exc}") from exc


def catalog_for(manifest: DatasetManifest) -> EventCatalog:
    ref = manifest.catalog_ref
    return build_catalog(ref.n_classes, ref.frame_dim, ref.seed)
