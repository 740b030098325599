"""Acceptance gate: one test per shipping criterion, each printing a
single pass/fail line with the measured values.

Criteria 4-6 share one full `repro` pipeline run (synthesis, two training
runs, evaluation) via a session fixture, which runs it in process. Before it
starts, the fixture starts criterion 7's second run as a separate process
with the suite's environment, so the two pipelines run at once; criterion 7
waits for that process, then compares the two runs' artifacts byte for byte.
"""

import json
import math
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

import tinyclap.tensor as T
from tinyclap import cli
from tinyclap.config import RunConfig, split_seed
from tinyclap.corpus import build_catalog, build_mixed_dataset, load_manifest, parse_caption
from tinyclap.encoders import build_vocab
from tinyclap.evaluate import recall_at_k, t_classify_from_embeddings
from tinyclap.losses import contrastive_loss, temporal_loss
from tinyclap.corpus import negate_caption
from tinyclap.trainer import init_run, load_checkpoint, train

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def check(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="session")
def second_repro(tmp_path_factory):
    """Criterion 7's second `tinyclap repro`, started now in its own process with the
    suite's environment, as the other subprocess tests run."""
    out = tmp_path_factory.mktemp("repro-b")
    with open(tmp_path_factory.mktemp("repro-b-log") / "log", "w+", encoding="utf-8") as log:
        proc = subprocess.Popen([sys.executable, "-m", "tinyclap.cli", "repro", "--out", str(out)],
                                stdout=log, stderr=subprocess.STDOUT)
        try:
            yield proc, out, log
        finally:  # a session that never reaches criterion 7 leaves no process behind
            if proc.poll() is None:
                proc.kill()
            proc.wait()


@pytest.fixture(scope="session")
def repro_run(tmp_path_factory, second_repro):
    out = tmp_path_factory.mktemp("repro-a")
    t0 = time.monotonic()
    code = cli.main(["repro", "--out", str(out)])
    wall = time.monotonic() - t0
    assert code == 0
    report = json.loads((out / "repro_report.json").read_text())
    return out, report["metrics"], wall


def test_criterion_1_gradient_correctness():
    t0 = time.monotonic()
    worst = cli.gradcheck_value(RunConfig(), n_coords=200)
    wall = time.monotonic() - t0
    check(
        1,
        worst < 1e-3 and wall < 10.0,
        f"max relative gradient error {worst:.2e} (< 1e-3) in {wall:.1f}s (< 10s)",
    )


def test_criterion_2_loss_closed_forms():
    lc = contrastive_loss(T.Tensor(np.eye(2)), 0.0).item()
    lc_want = math.log(1 + math.exp(-1))
    a = np.array([[1.0, 0.0]])
    equal = temporal_loss(a, a, a).item()
    opposite = temporal_loss(a, a, np.array([[-1.0, 0.0]])).item()
    ok = (
        abs(lc - lc_want) < 1e-9
        and abs(equal - math.log(2)) < 1e-12
        and abs(opposite - math.log(1 + math.exp(-2))) < 1e-12
    )
    check(
        2,
        ok,
        f"contrastive(I2, temp 1) = {lc:.9f} vs ln(1+e^-1); "
        f"equal dots = {equal:.12f} vs ln 2; (1,-1) = {opposite:.12f} vs ln(1+e^-2)",
    )


def test_criterion_3_corpus_algebra():
    catalog = build_catalog(110, 8, seed=17)
    frames_per_event = 2
    corpus = build_mixed_dataset(catalog, 5000, 2, frames_per_event, 0.1, True, seed=18)
    involution_hits = 0
    round_trip_hits = 0
    swap_hits = 0
    for rec in corpus.records:
        if negate_caption(negate_caption(rec.caption_pos)) == rec.caption_pos:
            involution_hits += 1
        ids, _ = parse_caption(rec.caption_pos.text, catalog)
        if ids == rec.caption_pos.event_ids:
            round_trip_hits += 1
        f = frames_per_event
        swapped = np.vstack([rec.clip.frames[f:], rec.clip.frames[:f]])
        if np.array_equal(rec.clip_neg.frames, swapped):
            swap_hits += 1
    n = len(corpus.records)
    check(
        3,
        involution_hits == n and round_trip_hits == n and swap_hits == n,
        f"over {n} records: negation involution {involution_hits}/{n}, "
        f"parse-render identity {round_trip_hits}/{n}, "
        f"reversed clip = half-block swap {swap_hits}/{n}",
    )


def test_criterion_4_order_discrimination_gap(repro_run):
    _, metrics, wall = repro_run
    tc = metrics["t_classify"]
    untrained = tc["untrained"]["t2a_accuracy"]
    control = tc["lambda_l=0"]["t2a_accuracy"]
    treated_t2a = tc["lambda_l=0.5"]["t2a_accuracy"]
    treated_a2t = tc["lambda_l=0.5"]["a2t_accuracy"]
    ok = (
        abs(untrained - 50.0) <= 10.0
        and abs(control - 50.0) <= 10.0
        and treated_t2a >= 85.0
        and treated_a2t >= 70.0
        and wall < 300.0
    )
    check(
        4,
        ok,
        f"order accuracy T2A untrained {untrained:.1f}, control {control:.1f} "
        f"(both 50 +/- 10); with order loss T2A {treated_t2a:.1f} (>= 85), "
        f"A2T {treated_a2t:.1f} (>= 70); pipeline {wall:.0f}s (< 300s)",
    )


def oracle_recall(mat, ks):
    n = mat.shape[0]

    def ranks(cols):
        out = []
        for j in range(n):
            order = np.argsort(-cols[:, j], kind="stable")
            out.append(int(np.nonzero(order == j)[0][0]) + 1)
        return np.asarray(out)

    t2a, a2t = ranks(mat), ranks(mat.T)
    return (
        {k: 100.0 * float(np.mean(t2a <= k)) for k in ks},
        {k: 100.0 * float(np.mean(a2t <= k)) for k in ks},
    )


def test_criterion_5_retrieval_improvement_and_oracle(repro_run):
    out, metrics, _ = repro_run
    trained_r1 = metrics["retrieval"]["lambda_l=0.5"]["T2A"]["recall_at"]["1"]
    untrained_r1 = metrics["retrieval"]["untrained"]["T2A"]["recall_at"]["1"]

    cfg = RunConfig()
    ks = cfg.eval.recall_ks
    test_records = list(load_manifest(out / "data" / "test.jsonl").records)
    primary = load_manifest(out / "data" / "train_primary.jsonl")
    temporal = load_manifest(out / "data" / "train_temporal.jsonl")
    base_train = replace(cfg.train, seed=split_seed(cfg.seed, "train"))
    variants = {
        "untrained": init_run(base_train, primary, temporal)[1],
        "lambda_l=0": load_checkpoint(out / "run_control" / "final.tckp").params,
        "lambda_l=0.5": load_checkpoint(out / "run_order" / "final.tckp").params,
    }
    oracle_mismatch = []
    for name, params in variants.items():
        mat = cli._paired_similarity(params, test_records)
        t2a, a2t = recall_at_k(mat, ks)
        want_t2a, want_a2t = oracle_recall(mat, ks)
        if t2a.recall_at != want_t2a or a2t.recall_at != want_a2t:
            oracle_mismatch.append(name)
        reported = metrics["retrieval"][name]["T2A"]["recall_at"]
        if {str(k): v for k, v in t2a.recall_at.items()} != reported:
            oracle_mismatch.append(name + " (report)")
    check(
        5,
        trained_r1 >= untrained_r1 + 30.0 and not oracle_mismatch,
        f"T2A R@1 {trained_r1:.1f} vs untrained {untrained_r1:.1f} "
        f"(gap >= 30); full-sort oracle mismatches: {oracle_mismatch or 'none'}",
    )


def test_criterion_6_zero_shot_transfer(repro_run):
    _, metrics, _ = repro_run
    trained = metrics["zero_shot"]["lambda_l=0.5"]["accuracy"]
    untrained = metrics["zero_shot"]["untrained"]["accuracy"]
    labels = len(metrics["zero_shot"]["lambda_l=0.5"]["label_set"])
    check(
        6,
        trained >= 90.0 and untrained <= 15.0 and labels == 20,
        f"zero-shot over {labels} labels: trained {trained:.1f} (>= 90), "
        f"untrained {untrained:.1f} (<= 15)",
    )


def test_criterion_7_determinism_and_resume(repro_run, second_repro, tmp_path_factory):
    out_a, _, _ = repro_run
    proc, out_b, log = second_repro
    code = proc.wait()
    log.seek(0)
    assert code == 0, f"second repro exited {code}: {log.read()[-2000:]}"
    tracked = sorted(
        p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file()
    )
    mismatched = [
        str(rel)
        for rel in tracked
        if (out_a / rel).read_bytes() != (out_b / rel).read_bytes()
    ]

    # resume: train to a checkpoint boundary, restart from it, and compare
    # against the uninterrupted run
    primary = load_manifest(out_a / "data" / "train_primary.jsonl")
    temporal = load_manifest(out_a / "data" / "train_temporal.jsonl")
    vocab = build_vocab([primary, temporal])
    cfg = RunConfig()
    resume_cfg = replace(
        cfg.train,
        seed=split_seed(cfg.seed, "train"),
        steps=60,
        warmup_steps=20,
        checkpoint_every=30,
        order_loss_start_step=30,
        encoder=replace(cfg.train.encoder, vocab_size=len(vocab)),
    )
    full_dir = tmp_path_factory.mktemp("resume-full")
    part_dir = tmp_path_factory.mktemp("resume-part")
    train(resume_cfg, primary, temporal, full_dir)
    train(resume_cfg, primary, temporal, part_dir, resume_from=full_dir / "step000030.tckp")
    resumed_ok = (full_dir / "final.tckp").read_bytes() == (
        part_dir / "final.tckp"
    ).read_bytes()
    check(
        7,
        not mismatched and resumed_ok,
        f"two pipeline runs identical across {len(tracked)} files "
        f"(mismatches: {mismatched[:3] or 'none'}); "
        f"resume at step 30 of 60 bit-exact: {resumed_ok}",
    )


def test_criterion_8_chance_level_baseline():
    rng = np.random.default_rng(123)

    def unit(n, d):
        m = rng.standard_normal((n, d))
        return m / np.linalg.norm(m, axis=1, keepdims=True)

    acc = t_classify_from_embeddings(unit(10_000, 16), unit(10_000, 16), unit(10_000, 16))
    check(
        8,
        abs(acc - 50.0) <= 2.0,
        f"random-embedding order accuracy {acc:.2f}% over 10,000 pairs (50 +/- 2)",
    )
