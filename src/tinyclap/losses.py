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
printed so the breakdown fields reconcile exactly. Training builds the whole
objective as one `tensor.clap_loss` op with a closed-form backward;
`contrastive_loss` and `temporal_loss` are its two terms' forward closed
forms on plain arrays, and `similarity_matrix` is the plain product of the
unit rows the towers return.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import InvalidConfig, ShapeError

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
            raise InvalidConfig(f"lt_reduction must be one of {LT_REDUCTIONS}, "
                                f"got {self.lt_reduction!r}")


@dataclass(frozen=True)
class LossBreakdown:
    l_c: T.Tensor
    l_t: T.Tensor
    l_train: T.Tensor
    temporal_count: int


def _array(x) -> np.ndarray:
    return np.asarray(x.data if isinstance(x, T.Tensor) else x, dtype=float)


def similarity_matrix(audio_emb, text_emb) -> T.Tensor:
    """Every audio row against every text row: N x M, entry ij = audio_i . text_j,
    the cosine similarity for the unit rows the towers return. A constant,
    with no gradient closure."""
    ea, et = _array(audio_emb), _array(text_emb)
    if ea.ndim != 2 or et.ndim != 2 or ea.shape[1] != et.shape[1]:
        raise ShapeError(f"similarity needs N x D and M x D, got {ea.shape} and {et.shape}")
    return T.Tensor(ea @ et.T)


def contrastive_loss(s, log_temperature) -> T.Tensor:
    """Symmetric softmax cross-entropy with the diagonal as targets, as a constant."""
    sv = _array(s)
    if sv.ndim != 2 or sv.shape[0] != sv.shape[1]:
        raise ShapeError(f"contrastive loss needs a square matrix, got {sv.shape}")
    return T.Tensor(T._contrastive(sv * np.exp(_array(log_temperature)))[0])


def temporal_loss(audio_emb, text_pos, text_neg, reduction: str = "mean",
                  log_temperature=None) -> T.Tensor:
    """Margin loss softplus(d_neg - d_pos) over row-aligned triples, as a constant."""
    if reduction not in LT_REDUCTIONS:
        raise InvalidConfig(f"reduction must be one of {LT_REDUCTIONS}, got {reduction!r}")
    ea, ep, en = _array(audio_emb), _array(text_pos), _array(text_neg)
    if not ea.shape == ep.shape == en.shape:
        raise ShapeError(f"temporal loss needs row-aligned shapes, got {ea.shape}, {ep.shape}, "
                         f"{en.shape}")
    if ea.shape[0] == 0:
        return T.Tensor(0.0)
    margin = (ea * ep).sum(axis=1) - (ea * en).sum(axis=1)
    if log_temperature is not None:
        margin = margin * np.exp(_array(log_temperature))
    return T.Tensor(T._order_term(margin, reduction)[0])


def train_loss(batch, config: LossConfig, log_temperature) -> LossBreakdown:
    """Full-batch contrastive term plus the order term over flagged rows, as one
    `clap_loss` op: `batch.text` holds the N captions, then the reversed
    caption of each of `batch.temporal_rows`."""
    log_t = log_temperature if isinstance(log_temperature, T.Tensor) else T.Tensor(log_temperature)
    l_train, l_c, l_t = T.clap_loss(batch.audio, batch.text, log_t, batch.temporal_rows,
                                    config.lambda_l, config.lt_reduction,
                                    config.use_temperature_in_lt)
    return LossBreakdown(l_c, l_t, l_train, len(batch.temporal_rows))
