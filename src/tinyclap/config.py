"""Run configuration: one JSON document covering the whole workflow.

Every field is optional and falls back to the desk-scale default; unknown
keys are rejected by name so typos cannot silently revert to defaults. One
root seed is split per purpose (catalog, each corpus, training) so the
stages stay independently reseedable.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

from .corpus import EVENT_PHRASES, GENERATION_CONNECTORS, event_name
from .errors import InvalidConfig
from .trainer import TrainConfig


@dataclass(frozen=True)
class CorpusConfig:
    n_classes: int = 20
    frame_dim: int = 16
    events_per_clip: int = 5
    frames_per_event: int = 8
    noise_sigma: float = 0.3
    train_primary_records: int = 1600
    train_temporal_records: int = 400
    test_records: int = 500
    labeled_records: int = 500
    labeled_frames_per_event: int = 0  # 0 = frames_per_event
    labeled_noise_sigma: float = 0.15  # eval split is kept cleaner than training

    def __post_init__(self):
        counts = (
            "train_primary_records",
            "train_temporal_records",
            "test_records",
            "labeled_records",
        )
        for name in counts:
            if getattr(self, name) < 0:
                raise InvalidConfig(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.n_classes < 2:
            raise InvalidConfig(f"n_classes must be >= 2, got {self.n_classes}")
        if self.events_per_clip < 2:
            raise InvalidConfig(f"events_per_clip must be >= 2, got {self.events_per_clip}")
        if self.frames_per_event < 1:
            raise InvalidConfig(f"frames_per_event must be >= 1, got {self.frames_per_event}")
        if self.labeled_frames_per_event < 0:
            raise InvalidConfig(
                f"labeled_frames_per_event must be >= 0, got {self.labeled_frames_per_event}"
            )
        for name in ("noise_sigma", "labeled_noise_sigma"):
            if not math.isfinite(getattr(self, name)) or getattr(self, name) < 0:
                raise InvalidConfig(f"{name} must be finite and >= 0, got {getattr(self, name)}")

    @property
    def labeled_frames(self) -> int:
        return self.labeled_frames_per_event or self.frames_per_event


@dataclass(frozen=True)
class EvalConfig:
    recall_ks: tuple[int, ...] = (1, 5, 10)

    def __post_init__(self):
        object.__setattr__(self, "recall_ks", tuple(int(k) for k in self.recall_ks))
        if not self.recall_ks or min(self.recall_ks) < 1:
            raise InvalidConfig(f"recall_ks must be positive, got {self.recall_ks}")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    corpus: CorpusConfig = field(default_factory=CorpusConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)

    def __post_init__(self):
        enc = self.train.encoder
        if self.corpus.frame_dim != enc.frame_dim:
            raise InvalidConfig(
                f"corpus.frame_dim {self.corpus.frame_dim} != "
                f"train.encoder.frame_dim {enc.frame_dim}"
            )
        clip_len = self.corpus.events_per_clip * self.corpus.frames_per_event
        if max(clip_len, self.corpus.labeled_frames) > enc.max_positions:
            raise InvalidConfig(
                f"clips span {max(clip_len, self.corpus.labeled_frames)} frames but "
                f"encoder.max_positions is {enc.max_positions}"
            )
        # a name in a later cycle of EVENT_PHRASES has as many words as in the second cycle
        named = min(self.corpus.n_classes, 2 * len(EVENT_PHRASES))
        longest_name = max(len(event_name(i).split()) for i in range(named))
        connector = max(len(c.split()) for c in GENERATION_CONNECTORS)
        caption_len = self.corpus.events_per_clip * (longest_name + connector) - connector
        if caption_len > enc.max_positions:
            raise InvalidConfig(
                f"captions span {caption_len} tokens but encoder.max_positions is "
                f"{enc.max_positions}"
            )


# the JSON values each field type takes; bool is an int subclass, so booleans
# are only taken by bool fields
_JSON_TYPES = {
    "int": (int, "an integer"),
    "float": ((int, float), "a number"),
    "bool": (bool, "true or false"),
    "str": (str, "a string"),
    "tuple[int, ...]": ((list, tuple), "a list of integers"),
}


def _json_ok(ftype: str, val) -> bool:
    if not isinstance(val, _JSON_TYPES[ftype][0]) or (ftype == "bool") != isinstance(val, bool):
        return False
    return ftype != "tuple[int, ...]" or all(_json_ok("int", v) for v in val)


def _build(cls, data, path: str):
    if not isinstance(data, dict):
        raise InvalidConfig(f"config section {path or 'top level'} must be an object")
    known = {f.name: f for f in fields(cls)}
    for key in data:
        if key not in known:
            raise InvalidConfig(f"unknown config key {path + key!r}")
    kwargs = {}
    for key, val in data.items():
        sub = known[key].default_factory  # a nested section's class; MISSING for a plain value
        if sub is MISSING and not _json_ok(known[key].type, val):
            what = _JSON_TYPES[known[key].type][1]
            raise InvalidConfig(f"config key {path + key!r} must be {what}, got {val!r}")
        kwargs[key] = val if sub is MISSING else _build(sub, val, f"{path}{key}.")
    try:
        return cls(**kwargs)
    except TypeError as exc:  # e.g. an integer too large for a float check
        raise InvalidConfig(f"bad config section {path or 'top level'}: {exc}") from exc


def run_config_from_dict(data: dict) -> RunConfig:
    return _build(RunConfig, data, "")


def load_run_config(path) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise InvalidConfig(f"config file {path} does not exist")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
        raise InvalidConfig(f"config file {path} is not valid JSON: {exc}") from exc
    return run_config_from_dict(data)


def run_config_to_dict(cfg: RunConfig) -> dict:
    out = asdict(cfg)
    out["eval"]["recall_ks"] = list(cfg.eval.recall_ks)
    return out


def split_seed(root: int, purpose: str) -> int:
    """Stable, platform-independent per-purpose seed derived from the root."""
    digest = hashlib.sha256(f"{int(root)}/{purpose}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") & (2**63 - 1)
