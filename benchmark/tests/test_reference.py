"""The plain-numpy reference agrees with tinyclap on a tiny config, and the
benchmark's checks built on it fail on a perturbed weight and on a caption
swapped for its reversal.

    python3 -m pytest benchmark/tests -q
"""

from dataclasses import asdict, replace

import numpy as np
import pytest

import reference as ref
from tinyclap import corpus, encoders, evaluate, losses, trainer
from tinyclap import tensor as T
from workloads import (
    LOSS_RTOL,
    CheckFailed,
    central_difference,
    check_against_reference,
    labeled_rows,
    paired_rows,
    reference_model,
    slopes_agree,
)

KS = (1, 2, 5)


@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    catalog = corpus.build_catalog(8, 6, seed=11)
    primary = corpus.build_mixed_dataset(catalog, 24, 3, 4, 0.2, False, seed=12)
    temporal = corpus.build_mixed_dataset(catalog, 8, 3, 4, 0.2, False, seed=13)
    test = corpus.build_mixed_dataset(catalog, 16, 3, 4, 0.2, True, seed=14, split="test")
    labeled = corpus.build_labeled_clips(catalog, 12, 4, 0.1, seed=15)
    enc = encoders.EncoderConfig(
        frame_dim=6, token_embed_dim=8, max_positions=16, hidden_dim=10, shared_dim=5
    )
    cfg = trainer.TrainConfig(
        steps=3, warmup_steps=1, batch_size=8, temporal_fraction=0.25, seed=5, encoder=enc
    )
    ckpt = trainer.train(cfg, primary, temporal, root / "run")
    # weights of a trained model's size: near-initial ones give tiny tower
    # outputs, so the row normalization makes every loss sharply curved
    rng = np.random.default_rng(3)
    for name, t in ckpt.params.named().items():
        if name != "log_temperature":
            t.data = 0.5 * rng.standard_normal(t.data.shape)
    return {
        "catalog": catalog, "primary": primary, "temporal": temporal,
        "test": test, "labeled": labeled, "cfg": cfg, "params": ckpt.params,
    }


def batch_of(setup):
    records = list(setup["temporal"].records[:2]) + list(setup["primary"].records[:6])
    return records, [True, True] + [False] * 6


def ref_batch(records, mask):
    return (
        [r.caption_pos.tokens for r in records],
        [r.caption_neg.tokens for r in records],
        [r.clip.frames for r in records],
        mask,
    )


def program_losses(setup, records, mask, loss_cfg=None):
    params = setup["params"]
    emb = encoders.forward_batch(params, records, mask)
    got = losses.train_loss(emb, loss_cfg or setup["cfg"].loss, params["log_temperature"])
    return got, [float(x.data) for x in (got.l_c, got.l_t, got.l_train)]


def losses_agree(got, want) -> bool:
    return all(abs(g - w) <= LOSS_RTOL * abs(w) for g, w in zip(got, want))


def test_reference_model_copies_the_parameters(setup):
    model = reference_model(setup["params"])
    assert model.vocab == setup["params"].vocab.tokens
    for name, t in setup["params"].named().items():
        np.testing.assert_array_equal(model.params[name], t.data)
        assert model.params[name] is not t.data


@pytest.mark.parametrize("loss", [{}, {"use_temperature_in_lt": True}, {"lt_reduction": "sum"}])
def test_losses_match_the_program(setup, loss):
    cfg = replace(setup["cfg"].loss, **loss)
    records, mask = batch_of(setup)
    _, got = program_losses(setup, records, mask, cfg)
    want = ref.train_loss(reference_model(setup["params"]), ref_batch(records, mask), asdict(cfg))
    assert losses_agree(got, want)
    assert got[2] == pytest.approx(got[0] + cfg.lambda_l * got[1], rel=1e-15)


def test_gradient_matches_central_difference_of_the_reference(setup):
    records, mask = batch_of(setup)
    out, _ = program_losses(setup, records, mask)
    grads = T.backward(out.l_train, setup["params"].trainable())
    loss_cfg = asdict(setup["cfg"].loss)
    center = reference_model(setup["params"], record_relu=True)
    ref.train_loss(center, ref_batch(records, mask), loss_cfg)
    rng = np.random.default_rng(0)
    for _ in range(3):
        direction = {k: rng.standard_normal(v.shape) for k, v in center.params.items()}
        norm = np.sqrt(sum(float((d * d).sum()) for d in direction.values()))
        direction = {k: d / norm for k, d in direction.items()}
        numeric, eps = central_difference(center.params, center.vocab, ref_batch(records, mask),
                                          loss_cfg, direction, center.relu_pattern())
        analytic = sum(float((grads[k] * d).sum()) for k, d in direction.items())
        assert slopes_agree(analytic, numeric, eps)
        assert not slopes_agree(analytic * (1 + 1e-4), numeric, eps)


def test_a_perturbed_weight_fails_the_loss_check(setup):
    records, mask = batch_of(setup)
    _, got = program_losses(setup, records, mask)
    model = reference_model(setup["params"])
    model.params["text.w1"][0, 0] += 1e-4
    want = ref.train_loss(model, ref_batch(records, mask), asdict(setup["cfg"].loss))
    assert not losses_agree(got, want)


def test_a_reversed_caption_fails_the_loss_check(setup):
    records, mask = batch_of(setup)
    _, got = program_losses(setup, records, mask)
    captions, negatives, clips, mask = ref_batch(records, mask)
    captions[3] = negatives[3]
    want = ref.train_loss(reference_model(setup["params"]), (captions, negatives, clips, mask),
                          asdict(setup["cfg"].loss))
    assert not losses_agree(got, want)


def program_report(setup):
    params, test, labeled = setup["params"], setup["test"], setup["labeled"]
    emb = encoders.forward_batch(params, list(test.records), [False] * len(test.records))
    t2a, a2t = evaluate.recall_at_k(losses.similarity_matrix(emb.audio, emb.text).data, KS)
    tc = evaluate.t_classify(params, list(test.records))
    names = tuple(ev.name for ev in setup["catalog"].classes)
    with pytest.warns(UserWarning, match="prompt tokens"):
        zs = evaluate.zero_shot_classify(params, list(labeled.records), names)
    return {
        "retrieval": {"T2A": t2a.recall_at, "A2T": a2t.recall_at},
        "n_queries": {t2a.n_queries, a2t.n_queries},
        "zero_shot": zs.accuracy, "n_samples": zs.n_samples, "label_set": zs.label_set,
        "t_classify": {"t2a_accuracy": tc.t2a_accuracy, "a2t_accuracy": tc.a2t_accuracy},
        "n_t2a": tc.n_t2a, "n_a2t": tc.n_a2t,
    }, names


def reference_report(setup, swap_row=None):
    test = paired_rows(setup["test"])
    if swap_row is not None:
        row = test[swap_row]
        row["caption_pos"], row["caption_neg"] = row["caption_neg"], row["caption_pos"]
    names = tuple(ev.name for ev in setup["catalog"].classes)
    model = reference_model(setup["params"])
    return ref.evaluate(model, test, labeled_rows(setup["labeled"]), names, KS)


def check(setup, got, want, names):
    n = len(setup["test"].records)
    check_against_reference(got, want, n, len(setup["labeled"].records), n, names, "tiny")


def test_evaluation_matches_the_program(setup):
    got, names = program_report(setup)
    check(setup, got, reference_report(setup), names)


def test_a_reversed_caption_fails_the_evaluation_check(setup):
    got, names = program_report(setup)
    with pytest.raises(CheckFailed):
        check(setup, got, reference_report(setup, swap_row=0), names)


def test_recall_breaks_ties_toward_the_lower_index():
    sim = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    t2a, a2t = ref.recall_at_k(sim, (1, 2))
    # query 1 ties with item 0, which outranks it
    assert t2a == a2t == {1: 100.0 * (2 / 3), 2: 100.0}


def test_order_discrimination_counts_ties_as_misses():
    assert ref.percent_strictly_greater([1.0, 0.5, 0.2], [0.0, 0.5, 0.3]) == 100.0 * (1 / 3)
