"""Evaluation: retrieval recall, order discrimination, zero-shot labels.

All three tasks reduce to cosine comparisons between unit embeddings, so
every decision is invariant to positive rescaling of the embeddings. Ranking
and argmax ties break toward the lower index; the pairwise order task counts
ties as failures (strict inequality both directions).

Order discrimination embeds a test set once per model (`embed_test_set`)
from its pool, encoded as a training pool is: one text pass over the
captions and their reversals, one audio pass over the clips, then one over
the reversed clips, whose frames are one row gather from the clip pass's.
Both directions score from those arrays, and `tinyclap repro` scores retrieval
from the same pass. A model evaluated is a value, so no pass builds backward state.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import reversed_block_rows
from .encoders import (ModelParams, encode_audio_batch, encode_pool, encode_sequences,
                       encode_text_batch)
from .errors import InvalidConfig, IoError

REPORT_SCHEMA_VERSION = 1
DEFAULT_KS = (1, 5, 10)
PROMPT_PREFIX = ("a", "sound", "of")


@dataclass(frozen=True)
class RetrievalResult:
    direction: str  # "T2A" or "A2T"
    recall_at: dict[int, float]  # k -> percentage
    n_queries: int


@dataclass(frozen=True)
class TClassifyResult:
    t2a_accuracy: float | None
    a2t_accuracy: float | None
    n_t2a: int
    n_a2t: int


@dataclass(frozen=True)
class ZeroShotResult:
    accuracy: float
    n_samples: int
    label_set: tuple[str, ...]


def _as_matrix(s) -> np.ndarray:
    data = s.data if hasattr(s, "data") else s
    return np.asarray(data, dtype=float)


def _ranks_of_diagonal(columns: np.ndarray) -> np.ndarray:
    """columns[:, j] scored against target j; rank 1 = best, lower index wins ties."""
    target = np.diagonal(columns)
    ranks = 1 + (columns > target).sum(axis=0)
    tied = columns == target
    if np.count_nonzero(tied) > np.count_nonzero(np.diagonal(tied)):  # an off-diagonal tie
        ranks += np.triu(tied, 1).sum(axis=0)  # row i < column j: a lower index, ranked first
    return ranks


def recall_at_k(s, ks=DEFAULT_KS) -> tuple[RetrievalResult, RetrievalResult]:
    """Both retrieval directions over a square similarity matrix whose
    diagonal is the ground-truth pairing."""
    mat = _as_matrix(s)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise InvalidConfig(f"retrieval needs a square matrix, got shape {mat.shape}")
    ks = tuple(int(k) for k in ks)
    if not ks or min(ks) < 1:
        raise InvalidConfig(f"ks must be positive, got {ks}")
    n = mat.shape[0]
    if n < max(ks):
        raise InvalidConfig(f"matrix has {n} items, cannot evaluate R@{max(ks)}")
    # text query j ranks audios by column j; audio query i ranks texts by row i
    t2a_ranks = _ranks_of_diagonal(mat)
    a2t_ranks = _ranks_of_diagonal(mat.T)
    out = []
    for direction, ranks in (("T2A", t2a_ranks), ("A2T", a2t_ranks)):
        recall = {k: float(100.0 * (ranks <= k).mean()) for k in ks}
        out.append(RetrievalResult(direction=direction, recall_at=recall, n_queries=n))
    return out[0], out[1]


def t_classify_margins(d_pos: np.ndarray, d_neg: np.ndarray) -> float:
    """Percentage of rows with d_pos strictly greater; ties count as misses."""
    d_pos, d_neg = np.asarray(d_pos, dtype=float), np.asarray(d_neg, dtype=float)
    if d_pos.shape != d_neg.shape or d_pos.ndim != 1:
        raise InvalidConfig(f"need aligned score vectors, got {d_pos.shape} and {d_neg.shape}")
    if d_pos.size == 0:
        raise InvalidConfig("cannot score an empty record set")
    return float(100.0 * (d_pos > d_neg).mean())


def t_classify_from_embeddings(audio, text_pos, text_neg) -> float:
    ea, ep, en = (np.asarray(m, dtype=float) for m in (audio, text_pos, text_neg))
    return t_classify_margins((ea * ep).sum(axis=1), (ea * en).sum(axis=1))


@dataclass(frozen=True)
class EvalEmbeddings:
    """One forward-only embedding pass over a test set: each tower's rows as plain arrays."""

    audio: np.ndarray  # N x D, each record's clip
    text: np.ndarray  # N x D, each record's caption
    text_neg: np.ndarray  # N x D, each record's reversed caption
    neg_rows: np.ndarray  # indices of the records flagged to carry a reversed clip
    audio_neg: np.ndarray | None  # len(neg_rows) x D, those reversed clips; None if none


def embed_test_set(params: ModelParams, records) -> EvalEmbeddings:
    """Every test input of the records' pool through its tower once: the captions
    and their reversals in one text pass, the clips in one audio pass, then the
    reversed clips of the flagged records, gathered from the clip pass's frame rows.
    Over a value, each pass keeps only its rows: no closure and no relu mask."""
    records = list(records)
    if not records:
        raise InvalidConfig("cannot score an empty record set")
    pool = encode_pool(params, records, True)
    text, text_neg = np.split(encode_sequences(params, "text", pool.ids, pool.lens).data, 2)
    frames, lens = np.concatenate(pool.clips, dtype=np.float64), pool.clip_lens
    audio = encode_sequences(params, "audio", frames, lens).data
    neg_rows = np.flatnonzero([r.has_clip_neg for r in records])
    audio_neg = None
    if neg_rows.size:
        n_events = [len(records[i].caption_pos.event_ids) for i in neg_rows.tolist()]
        rows = reversed_block_rows((np.cumsum(lens) - lens)[neg_rows], lens[neg_rows], n_events)
        frames = np.take(frames, rows, axis=0)  # the clip rows are not read again
        audio_neg = encode_sequences(params, "audio", frames, lens[neg_rows]).data
    return EvalEmbeddings(audio, text, text_neg, neg_rows, audio_neg)


def order_scores(emb: EvalEmbeddings) -> TClassifyResult:
    """T2A: does each clip score its true-order caption above the reversed
    one? A2T: does each caption score its true clip above the reversed-order
    clip? A2T covers the records carrying a reversed clip, and is absent when
    none do."""
    t2a = t_classify_from_embeddings(emb.audio, emb.text, emb.text_neg)
    a2t = None
    if emb.audio_neg is not None:
        audio, text = emb.audio[emb.neg_rows], emb.text[emb.neg_rows]
        a2t = t_classify_margins((audio * text).sum(axis=1), (emb.audio_neg * text).sum(axis=1))
    return TClassifyResult(
        t2a_accuracy=t2a, a2t_accuracy=a2t, n_t2a=len(emb.audio), n_a2t=len(emb.neg_rows)
    )


def t_classify(params: ModelParams, records) -> TClassifyResult:
    """Order discrimination in both directions, from one embedding pass."""
    return order_scores(embed_test_set(params, records))


def prompt_tokens(label_name: str) -> tuple[str, ...]:
    return PROMPT_PREFIX + tuple(label_name.split())


def zero_shot_classify(params: ModelParams, records, label_names) -> ZeroShotResult:
    """Nearest label prompt ("a sound of <name>") by cosine; lowest index wins ties."""
    records = list(records)
    label_names = tuple(label_names)
    if not label_names:
        raise InvalidConfig("label set is empty")
    if not records:
        raise InvalidConfig("cannot classify an empty record set")
    for rec in records:
        if not 0 <= rec.label_id < len(label_names):
            raise InvalidConfig(f"record {rec.record_id} label {rec.label_id} not in label set")
    prompts = [prompt_tokens(name) for name in label_names]
    missing = sorted({t for p in prompts for t in p if params.vocab.encode([t]) == [0]})
    if missing:
        warnings.warn(
            f"prompt tokens not in training vocab, mapped to <unk>: {missing}",
            stacklevel=2,
        )
    text = encode_text_batch(params, prompts).data  # L x D
    audio = encode_audio_batch(params, [r.clip.frames for r in records]).data  # N x D
    pred = np.argmax(audio @ text.T, axis=1)  # argmax takes the first (lowest) max
    truth = np.array([r.label_id for r in records])
    return ZeroShotResult(
        accuracy=float(100.0 * (pred == truth).mean()),
        n_samples=len(records),
        label_set=label_names,
    )


# -- reports ---------------------------------------------------------------------

def _plain(obj):
    if isinstance(obj, (RetrievalResult, TClassifyResult, ZeroShotResult)):
        out = {}
        for key, val in vars(obj).items():
            out[key] = _plain(val)
        return out
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def config_hash(config_dict: dict) -> str:
    blob = json.dumps(_plain(config_dict), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def emit_report(metrics: dict, path, config: dict | None = None, checkpoint_id: str | None = None):
    """Canonical JSON report; same inputs give byte-identical files."""
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "config_hash": config_hash(config) if config is not None else None,
        "checkpoint": checkpoint_id,
        "metrics": _plain(dict(metrics)),
    }
    blob = json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(blob, encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot write report to {path}: {exc}") from exc
    return report

