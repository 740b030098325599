"""Training objective: symmetric contrastive loss plus an order-margin term.

The contrastive part is softmax cross-entropy over the cosine similarity
matrix, averaged over the audio-to-text and text-to-audio directions, with a
learnable temperature applied as logits = S * exp(log_temperature).

The order term scores each flagged sample by the margin between its clip's
dot with the true-order caption and with the reversed-order caption:
per-sample loss = -log sigmoid(d_pos - d_neg) = softplus(-(d_pos - d_neg)),
which equals the two-way softmax over {d_pos, d_neg} picking d_pos. It
depends only on the margin, is always positive, and decays to zero as the
margin grows.

Combined: total = contrastive + lambda_l * order_term, same arithmetic as
printed so the breakdown fields reconcile exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import InvalidConfig, NumericError, ShapeError

LT_REDUCTIONS = ("mean", "sum")


@dataclass(frozen=True)
class LossConfig:
    lambda_l: float = 0.5
    use_temperature_in_lt: bool = False
    lt_reduction: str = "mean"

    def __post_init__(self):
        if not np.isfinite(self.lambda_l) or self.lambda_l < 0:
            raise InvalidConfig(f"lambda_l must be finite and >= 0, got {self.lambda_l}")
        if self.lt_reduction not in LT_REDUCTIONS:
            raise InvalidConfig(
                f"lt_reduction must be one of {LT_REDUCTIONS}, got {self.lt_reduction!r}"
            )


@dataclass(frozen=True)
class LossBreakdown:
    l_c: T.Tensor
    l_t: T.Tensor
    l_train: T.Tensor
    batch_size: int
    temporal_count: int


def _as_tensor(x) -> T.Tensor:
    return x if isinstance(x, T.Tensor) else T.Tensor(np.asarray(x, dtype=float))


def similarity_matrix(audio_emb, text_emb) -> T.Tensor:
    """Cosine similarity of every audio row against every text row: N x M,
    entry ij = cos(audio_i, text_j).

    Inputs need not be unit-norm; rows are normalized here, so for unit
    inputs this is the plain inner-product matrix.
    """
    ea, et = _as_tensor(audio_emb), _as_tensor(text_emb)
    if ea.data.ndim != 2 or et.data.ndim != 2 or ea.shape[1] != et.shape[1]:
        raise ShapeError(f"similarity needs N x D and M x D, got {ea.shape} and {et.shape}")
    for tag, m in (("audio", ea), ("text", et)):
        norms = np.linalg.norm(m.data, axis=1)
        if norms.size and norms.min() < 1e-12:
            raise NumericError(f"zero-norm {tag} embedding row at index {int(norms.argmin())}")
    return T.matmul(T.row_l2_normalize(ea), T.transpose(T.row_l2_normalize(et)))


def contrastive_loss(s, log_temperature) -> T.Tensor:
    """Symmetric softmax cross-entropy with the diagonal as targets."""
    sv = _as_tensor(s)
    if sv.data.ndim != 2 or sv.shape[0] != sv.shape[1]:
        raise ShapeError(f"contrastive loss needs a square matrix, got {sv.shape}")
    logits = T.mul_scalar(sv, T.exp(_as_tensor(log_temperature)))
    diag = T.diag_part(logits)
    audio_to_text = T.mean_all(T.sub(T.log_sum_exp(logits), diag))
    text_to_audio = T.mean_all(T.sub(T.log_sum_exp(T.transpose(logits)), diag))
    return T.scale(T.add(audio_to_text, text_to_audio), 0.5)


def temporal_loss(
    audio_emb,
    text_pos,
    text_neg,
    reduction: str = "mean",
    log_temperature=None,
) -> T.Tensor:
    """Margin loss softplus(d_neg - d_pos) over row-aligned triples."""
    if reduction not in LT_REDUCTIONS:
        raise InvalidConfig(f"reduction must be one of {LT_REDUCTIONS}, got {reduction!r}")
    ea, ep, en = _as_tensor(audio_emb), _as_tensor(text_pos), _as_tensor(text_neg)
    if not ea.shape == ep.shape == en.shape:
        raise ShapeError(
            f"temporal loss needs row-aligned shapes, got {ea.shape}, {ep.shape}, {en.shape}"
        )
    if ea.shape[0] == 0:
        return T.Tensor(np.asarray(0.0))
    margin = T.sub(T.rowwise_dot(ea, ep), T.rowwise_dot(ea, en))
    if log_temperature is not None:
        margin = T.mul_scalar(margin, T.exp(_as_tensor(log_temperature)))
    per_sample = T.softplus(T.scale(margin, -1.0))
    return T.mean_all(per_sample) if reduction == "mean" else T.sum_all(per_sample)


def train_loss(batch, config: LossConfig, log_temperature) -> LossBreakdown:
    """Full-batch contrastive term plus the order term over flagged rows."""
    s = similarity_matrix(batch.audio, batch.text)
    l_c = contrastive_loss(s, log_temperature)
    rows = batch.temporal_rows
    if batch.text_neg is None or len(rows) == 0:
        l_t = T.Tensor(np.asarray(0.0))
    else:
        idx = np.asarray(rows, dtype=np.int64)
        l_t = temporal_loss(
            T.gather_rows(batch.audio, idx),
            T.gather_rows(batch.text, idx),
            batch.text_neg,
            reduction=config.lt_reduction,
            log_temperature=log_temperature if config.use_temperature_in_lt else None,
        )
    l_train = T.add(l_c, T.scale(l_t, config.lambda_l))
    return LossBreakdown(
        l_c=l_c,
        l_t=l_t,
        l_train=l_train,
        batch_size=batch.audio.shape[0],
        temporal_count=len(rows),
    )
