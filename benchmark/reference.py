"""Plain-numpy model of tinyclap, written from its README and docstrings.

It imports nothing from ``tinyclap``. It has no autodiff, no grouping of
sequences by length and no graph: each sequence goes through its tower on
its own. Its inputs are plain arrays and token sequences. The benchmark
checks every output of the program against it.

Conventions taken from the documentation:

- tower: input embedding (token lookup, or frames @ proj) plus learned
  positions, then ``relu(x @ w1 + b1)`` per position, the mean over
  positions, ``@ w2 + b2`` and row L2 normalization with
  ``denom = sqrt(|row|^2 + eps^2)``, eps = 1e-8;
- contrastive loss: softmax cross-entropy over ``S * exp(log_temperature)``
  with the diagonal as targets, averaged over both directions, where S is
  the cosine matrix of audio rows against text rows;
- order term: ``softplus(d_neg - d_pos)`` over the flagged rows, mean or
  sum, optionally with the margin times ``exp(log_temperature)``;
- ``l_train = l_c + lambda_l * l_t``;
- recall@k ranks ties toward the lower index; order discrimination counts
  ties as misses; the zero-shot argmax takes the first maximum.
"""

from __future__ import annotations

import numpy as np

NORM_EPS = 1e-8
PROMPT_PREFIX = ("a", "sound", "of")


# -- model -----------------------------------------------------------------------

class Model:
    """The two towers over a parameter dict and a token list (vocab[0] = <unk>).

    With ``record_relu`` the model keeps which hidden units were active in
    each tower call, in call order, so two evaluations can be compared for a
    ReLU that changed state between them.
    """

    def __init__(self, params: dict[str, np.ndarray], vocab, record_relu: bool = False):
        self.params = params
        self.vocab = vocab
        self.token_ids = {tok: i for i, tok in enumerate(vocab)}
        self._relu: list[bytes] | None = [] if record_relu else None

    def relu_pattern(self) -> bytes:
        return b"".join(self._relu)

    def _tower(self, tower: str, x: np.ndarray) -> np.ndarray:
        p = self.params
        n = x.shape[0]
        pre = (x + p[f"{tower}.pos"][:n]) @ p[f"{tower}.w1"] + p[f"{tower}.b1"]
        if self._relu is not None:
            self._relu.append(np.packbits(pre > 0).tobytes())
        hidden = np.maximum(pre, 0.0)
        out = hidden.mean(axis=0) @ p[f"{tower}.w2"] + p[f"{tower}.b2"]
        return out / np.sqrt(out @ out + NORM_EPS * NORM_EPS)

    def text(self, captions) -> np.ndarray:
        """N x D unit rows for token sequences; unknown tokens map to id 0."""
        embed = self.params["text.embed"]
        rows = []
        for tokens in captions:
            ids = [self.token_ids.get(tok, 0) for tok in tokens]
            rows.append(self._tower("text", embed[ids]))
        return np.array(rows)

    def audio(self, clips) -> np.ndarray:
        """N x D unit rows for T x F frame arrays."""
        proj = self.params["audio.proj"]
        return np.array([self._tower("audio", np.asarray(c, dtype=np.float64) @ proj) for c in clips])


# -- losses ----------------------------------------------------------------------

def _unit_rows(m: np.ndarray) -> np.ndarray:
    return m / np.sqrt((m * m).sum(axis=1) + NORM_EPS * NORM_EPS)[:, None]


def _log_sum_exp(m: np.ndarray, axis: int) -> np.ndarray:
    hi = m.max(axis=axis, keepdims=True)
    return (hi + np.log(np.exp(m - hi).sum(axis=axis, keepdims=True))).squeeze(axis)


def contrastive_loss(audio, text, log_temperature: float) -> float:
    logits = (_unit_rows(audio) @ _unit_rows(text).T) * np.exp(log_temperature)
    diag = np.diag(logits)
    audio_to_text = np.mean(_log_sum_exp(logits, 1) - diag)
    text_to_audio = np.mean(_log_sum_exp(logits, 0) - diag)
    return float(0.5 * (audio_to_text + text_to_audio))


def order_loss(audio, text_pos, text_neg, reduction="mean", scale=1.0) -> float:
    if len(audio) == 0:
        return 0.0
    margin = ((audio * text_pos).sum(axis=1) - (audio * text_neg).sum(axis=1)) * scale
    per_sample = np.logaddexp(0.0, -margin)
    return float(per_sample.mean() if reduction == "mean" else per_sample.sum())


def train_loss(model: Model, batch, loss_config: dict) -> tuple[float, float, float]:
    """``(l_c, l_t, l_train)`` of a batch given as (positive token lists,
    negative token lists, clips, temporal mask) under a loss config dict with
    keys lambda_l, use_temperature_in_lt and lt_reduction."""
    captions_pos, captions_neg, clips, mask = batch
    audio = model.audio(clips)
    text = model.text(captions_pos)
    log_t = float(model.params["log_temperature"])
    l_c = contrastive_loss(audio, text, log_t)
    rows = [i for i, flag in enumerate(mask) if flag]
    scale = np.exp(log_t) if loss_config["use_temperature_in_lt"] else 1.0
    l_t = order_loss(
        audio[rows], text[rows], model.text([captions_neg[i] for i in rows]),
        loss_config["lt_reduction"], scale,
    )
    return l_c, l_t, l_c + loss_config["lambda_l"] * l_t


# -- evaluation ------------------------------------------------------------------

def recall_at_k(sim: np.ndarray, ks) -> tuple[dict, dict]:
    """``(T2A, A2T)`` percentages for sim[i, j] = cos(audio_i, text_j) with
    the diagonal as ground truth, by a stable full sort of every query."""

    def ranks(cols: np.ndarray) -> np.ndarray:
        out = np.empty(cols.shape[1], dtype=np.int64)
        for j in range(cols.shape[1]):
            order = np.argsort(-cols[:, j], kind="stable")
            out[j] = int(np.flatnonzero(order == j)[0]) + 1
        return out

    t2a, a2t = ranks(sim), ranks(sim.T)
    return (
        {k: 100.0 * (np.count_nonzero(t2a <= k) / len(t2a)) for k in ks},
        {k: 100.0 * (np.count_nonzero(a2t <= k) / len(a2t)) for k in ks},
    )


def percent_strictly_greater(d_pos, d_neg) -> float:
    return 100.0 * (np.count_nonzero(np.asarray(d_pos) > np.asarray(d_neg)) / len(d_pos))


def order_discrimination(model: Model, rows) -> tuple[float, float | None]:
    """``(T2A, A2T)``: does a clip prefer its caption to the reversed caption,
    and does a caption prefer its clip to the reversed clip (rows with one)."""
    audio = model.audio([r["clip"] for r in rows])
    text = model.text([r["caption_pos"] for r in rows])
    text_neg = model.text([r["caption_neg"] for r in rows])
    t2a = percent_strictly_greater((audio * text).sum(axis=1), (audio * text_neg).sum(axis=1))
    with_neg = [i for i, r in enumerate(rows) if r["clip_neg"] is not None]
    if not with_neg:
        return t2a, None
    audio_neg = model.audio([rows[i]["clip_neg"] for i in with_neg])
    a2t = percent_strictly_greater(
        (audio[with_neg] * text[with_neg]).sum(axis=1), (audio_neg * text[with_neg]).sum(axis=1)
    )
    return t2a, a2t


def zero_shot(model: Model, rows, label_names) -> float:
    """Accuracy of the nearest "a sound of <name>" prompt, first maximum wins."""
    prompts = model.text([PROMPT_PREFIX + tuple(name.split()) for name in label_names])
    audio = model.audio([r["clip"] for r in rows])
    pred = np.argmax(audio @ prompts.T, axis=1)
    truth = np.array([r["label"] for r in rows])
    return 100.0 * (np.count_nonzero(pred == truth) / len(rows))


def evaluate(model: Model, test_rows, labeled_rows, label_names, ks) -> dict:
    """Every number the program reports for one model, keyed like its reports.

    A test row is a dict of ``caption_pos`` and ``caption_neg`` token
    sequences and ``clip`` and ``clip_neg`` frame arrays (``clip_neg`` may be
    None); a labeled row has a ``clip`` and an integer ``label``.
    """
    audio = model.audio([r["clip"] for r in test_rows])
    text = model.text([r["caption_pos"] for r in test_rows])
    t2a, a2t = recall_at_k(_unit_rows(audio) @ _unit_rows(text).T, ks)
    order_t2a, order_a2t = order_discrimination(model, test_rows)
    return {
        "retrieval": {"T2A": t2a, "A2T": a2t},
        "t_classify": {"t2a_accuracy": order_t2a, "a2t_accuracy": order_a2t},
        "zero_shot": zero_shot(model, labeled_rows, label_names),
    }
