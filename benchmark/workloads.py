"""The three workloads: set-up, one round of ops, and the output checks.

A round is the unit a run repeats: ``train`` runs ``trainer.train()`` over
ROUND_STEPS steps (one op per step), ``evaluate`` runs one full evaluation
and ``repro`` one ``tinyclap repro`` pipeline. Every round of a run does the
same work on the same inputs, so per-op counts do not depend on how many
rounds fit in the run.

Each op's outputs are checked against the plain-numpy model in
``reference`` or against a property of the method; an op whose outputs do
not pass is counted as failed. The reference takes its clips and captions
from the corpus synthesized in memory with the same seed as the files the
program reads, so a fault on the write or read path shows as a mismatch;
it takes parameters from checkpoints through ``trainer.load_checkpoint``,
so a change of storage format does not break the checks.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

import reference as ref

ROUND_STEPS = 100  # training steps per round of the train workload
CKPT_STEPS = 20  # training steps behind the evaluate workload's checkpoint
LOSS_RTOL = 1e-9  # program vs reference loss on a fixed batch
GRAD_RTOL = 1e-6  # directional derivative vs central difference of the reference
GRAD_DIRECTIONS = 3
FD_EPS = 1e-5  # first central-difference step along a unit direction
FD_EPS_MIN = 1e-9
FD_ROUNDOFF = 1e-14  # bound on the rounding error of a difference of two reference losses


class CheckFailed(Exception):
    """An output of the program disagrees with the reference or a property."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def paired_rows(manifest) -> list[dict]:
    """Reference rows of a paired manifest's records."""
    return [{
        "caption_pos": r.caption_pos.tokens,
        "caption_neg": r.caption_neg.tokens,
        "clip": r.clip.frames,
        "clip_neg": None if r.clip_neg is None else r.clip_neg.frames,
    } for r in manifest.records]


def labeled_rows(manifest) -> list[dict]:
    return [{"clip": r.clip.frames, "label": r.label_id} for r in manifest.records]


def reference_model(params, record_relu: bool = False) -> ref.Model:
    """The reference over a copy of the program's ``ModelParams``."""
    arrays = {name: t.data.copy() for name, t in params.named().items()}
    return ref.Model(arrays, params.vocab.tokens, record_relu)


class Workload:
    """Subclasses set ``name`` and implement ``setup`` and ``round``.

    ``round(timer)`` returns ``(ops, attempted, out_dir, check)``: the
    timed ops of the round as (start, seconds) read from ``timer()``, a
    clock that excludes the reference kernel's runs; how many ops it
    attempted; the directory the program wrote to; and a callable that
    checks the outputs and raises CheckFailed on a mismatch. The caller
    removes ``out_dir``.
    """

    name = ""
    ops_per_round = 1

    def __init__(self, mods: dict, seed: int, work: Path):
        self.m = mods
        self.seed = seed
        self.work = work
        self._dirs = 0

    def fresh_dir(self, tag: str) -> Path:
        self._dirs += 1
        path = self.work / f"{tag}{self._dirs:04d}"
        path.mkdir(parents=True)
        return path

    def run_config(self):
        return self.m["config"].RunConfig(seed=self.seed)

    def synth_train_corpus(self, cfg):
        """The catalog and the two training pools, as ``tinyclap synth`` makes them."""
        corpus, split_seed = self.m["corpus"], self.m["config"].split_seed
        c = cfg.corpus
        catalog = corpus.build_catalog(c.n_classes, c.frame_dim, split_seed(cfg.seed, "catalog"))
        pools = []
        for purpose, n in (("train-primary", c.train_primary_records),
                           ("train-temporal", c.train_temporal_records)):
            pools.append(corpus.build_mixed_dataset(
                catalog, n, c.events_per_clip, c.frames_per_event, c.noise_sigma, False,
                split_seed(cfg.seed, purpose), split="train",
            ))
        return catalog, pools[0], pools[1]

    def synth_eval_corpus(self, cfg, catalog):
        """The test set (with reversed clips) and the labeled clips, as
        ``tinyclap synth`` makes them."""
        corpus, split_seed = self.m["corpus"], self.m["config"].split_seed
        c = cfg.corpus
        test = corpus.build_mixed_dataset(
            catalog, c.test_records, c.events_per_clip, c.frames_per_event, c.noise_sigma, True,
            split_seed(cfg.seed, "test"), split="test",
        )
        labeled = corpus.build_labeled_clips(
            catalog, c.labeled_records, c.labeled_frames, c.labeled_noise_sigma,
            split_seed(cfg.seed, "labeled"), split="test",
        )
        return test, labeled

    def train_config(self, cfg, steps: int):
        split_seed = self.m["config"].split_seed
        return replace(cfg.train, steps=steps, warmup_steps=max(1, steps // 10),
                       seed=split_seed(cfg.seed, "train"))


# -- train -------------------------------------------------------------------------

class Train(Workload):
    name = "train"
    ops_per_round = ROUND_STEPS

    def setup(self) -> None:
        cfg = self.run_config()
        _, self.primary, self.temporal = self.synth_train_corpus(cfg)
        self.cfg = self.train_config(cfg, ROUND_STEPS)

    def round(self, timer):
        trainer = self.m["trainer"]
        run_dir = self.fresh_dir("train")
        stamps: list[float] = []
        compose = trainer.compose_batch

        def stamped(*args, **kwargs):
            stamps.append(timer())
            return compose(*args, **kwargs)

        trainer.compose_batch = stamped
        try:
            ckpt = trainer.train(self.cfg, self.primary, self.temporal, run_dir)
        finally:
            trainer.compose_batch = compose
        # step i runs from its batch draw to the next one; the last step's
        # interval would include the final checkpoint write, so it is not timed
        steps = [(a, b - a) for a, b in zip(stamps, stamps[1:])]
        return steps, self.cfg.steps, run_dir, lambda: self.check(ckpt, run_dir)

    def fixed_batch(self):
        """Twelve order-negative rows then 52 primary rows, always the same."""
        n_temporal = math.floor(self.cfg.batch_size * self.cfg.temporal_fraction + 1e-9)
        records = list(self.temporal.records[:n_temporal])
        records += list(self.primary.records[: self.cfg.batch_size - n_temporal])
        mask = [i < n_temporal for i in range(len(records))]
        return records, mask

    def check(self, ckpt, run_dir: Path) -> None:
        tensor, encoders, losses = self.m["tensor"], self.m["encoders"], self.m["losses"]
        loss_cfg = self.cfg.loss
        lam = loss_cfg.lambda_l
        n_temporal = math.floor(self.cfg.batch_size * self.cfg.temporal_fraction + 1e-9)

        lines = (run_dir / "metrics.jsonl").read_text(encoding="utf-8").splitlines()
        _require(len(lines) == self.cfg.steps, f"{len(lines)} metric lines for {self.cfg.steps} steps")
        rows = [json.loads(line) for line in lines]
        for i, r in enumerate(rows):
            _require(r["step"] == i, f"metric line {i} has step {r['step']}")
            _require(r["l_train"] == r["l_c"] + lam * r["l_t"], f"step {i}: l_train != l_c + lambda_l * l_t")
            _require(r["temporal_count"] == n_temporal, f"step {i}: temporal_count {r['temporal_count']}")
        tenth = max(1, len(rows) // 10)
        first = np.mean([r["l_train"] for r in rows[:tenth]])
        last = np.mean([r["l_train"] for r in rows[-tenth:]])
        _require(last < first, f"mean l_train of the last tenth {last} is not below the first tenth {first}")

        # the final parameters as the program holds them and as the file stores them
        model = reference_model(self.m["trainer"].load_checkpoint(run_dir / "final.tckp").params,
                                record_relu=True)
        records, mask = self.fixed_batch()
        batch = (
            [r.caption_pos.tokens for r in records],
            [r.caption_neg.tokens for r in records],
            [r.clip.frames for r in records],
            mask,
        )
        ref_cfg = asdict(loss_cfg)
        expected = ref.train_loss(model, batch, ref_cfg)
        params = ckpt.params
        emb = encoders.forward_batch(params, records, mask)
        got = losses.train_loss(emb, loss_cfg, params["log_temperature"])
        for name, g, e in zip(("l_c", "l_t", "l_train"), (got.l_c, got.l_t, got.l_train), expected):
            g = float(g.data)
            _require(abs(g - e) <= LOSS_RTOL * abs(e), f"{name}: program {g!r}, reference {e!r}")

        grads = tensor.backward(got.l_train, params.trainable())
        rng = np.random.default_rng([self.seed, 7])
        for _ in range(GRAD_DIRECTIONS):
            direction = {k: rng.standard_normal(v.shape) for k, v in model.params.items()}
            norm = math.sqrt(sum(float((d * d).sum()) for d in direction.values()))
            direction = {k: d / norm for k, d in direction.items()}
            analytic = sum(float((grads[k] * d).sum()) for k, d in direction.items())
            numeric, eps = central_difference(model.params, model.vocab, batch, ref_cfg, direction,
                                              model.relu_pattern())
            _require(slopes_agree(analytic, numeric, eps),
                     f"directional derivative {analytic!r} vs central difference {numeric!r} (step {eps})")


def slopes_agree(analytic: float, numeric: float, eps: float) -> bool:
    """Within GRAD_RTOL, plus the rounding of two losses divided by the step."""
    return abs(analytic - numeric) <= GRAD_RTOL * max(abs(analytic), abs(numeric)) + FD_ROUNDOFF / eps


def central_difference(params, vocab, batch, loss_cfg, direction, relu_at_center):
    """``(slope, step)``: the reference loss's slope along a unit direction.

    The loss has a kink wherever a hidden unit's ReLU switches, and with
    hundreds of thousands of pre-activations one often lies within a step
    of zero. The step shrinks until no ReLU changes state across it, so the
    difference is taken where the loss is smooth.
    """
    eps = FD_EPS
    while True:
        values, patterns = [], []
        for sign in (1.0, -1.0):
            moved = {k: v + sign * eps * direction[k] for k, v in params.items()}
            model = ref.Model(moved, vocab, record_relu=True)
            values.append(ref.train_loss(model, batch, loss_cfg)[2])
            patterns.append(model.relu_pattern())
        if patterns[0] == patterns[1] == relu_at_center or eps <= FD_EPS_MIN:
            return (values[0] - values[1]) / (2.0 * eps), eps
        eps /= 10.0


# -- evaluate ----------------------------------------------------------------------

def _report_numbers(m: dict) -> dict:
    """The numbers of a report's metrics, keyed like ``reference.evaluate``."""
    out = {}
    if "retrieval" in m:
        out["retrieval"] = {
            d: {int(k): v for k, v in m["retrieval"][d]["recall_at"].items()} for d in ("T2A", "A2T")
        }
        out["n_queries"] = {m["retrieval"][d]["n_queries"] for d in ("T2A", "A2T")}
    if "zero_shot" in m:
        out["zero_shot"] = m["zero_shot"]["accuracy"]
        out["n_samples"] = m["zero_shot"]["n_samples"]
        out["label_set"] = tuple(m["zero_shot"]["label_set"])
    if "t_classify" in m:
        tc = m["t_classify"]
        out["t_classify"] = {"t2a_accuracy": tc["t2a_accuracy"], "a2t_accuracy": tc["a2t_accuracy"]}
        out["n_t2a"], out["n_a2t"] = tc["n_t2a"], tc["n_a2t"]
    return out


def check_against_reference(got: dict, want: dict, n_test: int, n_labeled: int, n_test_neg: int,
                            label_names, where: str) -> None:
    """Every reported number equals the reference's; R@k never falls as k grows."""
    for d in ("T2A", "A2T"):
        ks = sorted(want["retrieval"][d])
        _require(got["retrieval"][d] == want["retrieval"][d],
                 f"{where}: retrieval {d} {got['retrieval'][d]} vs reference {want['retrieval'][d]}")
        values = [got["retrieval"][d][k] for k in ks]
        _require(values == sorted(values), f"{where}: R@k of {d} decreases with k: {values}")
    _require(got["n_queries"] == {n_test}, f"{where}: n_queries {got['n_queries']}")
    _require(got["zero_shot"] == want["zero_shot"],
             f"{where}: zero-shot {got['zero_shot']} vs reference {want['zero_shot']}")
    _require(got["n_samples"] == n_labeled, f"{where}: zero-shot n_samples {got['n_samples']}")
    _require(got["label_set"] == tuple(label_names), f"{where}: zero-shot label set differs")
    _require(got["t_classify"] == want["t_classify"],
             f"{where}: order discrimination {got['t_classify']} vs reference {want['t_classify']}")
    _require((got["n_t2a"], got["n_a2t"]) == (n_test, n_test_neg),
             f"{where}: order discrimination counts {(got['n_t2a'], got['n_a2t'])}")


class Evaluate(Workload):
    name = "evaluate"

    def setup(self) -> None:
        corpus, trainer = self.m["corpus"], self.m["trainer"]
        self.cfg = cfg = self.run_config()
        catalog, primary, temporal = self.synth_train_corpus(cfg)
        self.data = self.fresh_dir("data")
        self.test, self.labeled = test, labeled = self.synth_eval_corpus(cfg, catalog)
        corpus.save_manifest(test, self.data / "test.jsonl")
        corpus.save_manifest(labeled, self.data / "labeled.jsonl")
        ckpt_dir = self.fresh_dir("ckpt")
        trainer.train(self.train_config(cfg, CKPT_STEPS), primary, temporal, ckpt_dir)
        self.checkpoint = ckpt_dir / "final.tckp"
        self.label_names = tuple(ev.name for ev in catalog.classes)
        self.expected = None

    def op(self, out: Path) -> None:
        """Load both manifests and the checkpoint, run every evaluation task
        and write the eval and tclassify reports, as the CLI does."""
        m = self.m
        corpus, evaluate, cfg = m["corpus"], m["evaluate"], self.cfg
        ckpt = m["trainer"].load_checkpoint(self.checkpoint)
        test = corpus.load_manifest(self.data / "test.jsonl")
        labeled = corpus.load_manifest(self.data / "labeled.jsonl")
        label_names = tuple(ev.name for ev in corpus.catalog_for(labeled).classes)
        records = list(test.records)
        emb = m["encoders"].forward_batch(ckpt.params, records, [False] * len(records))
        sim = m["losses"].similarity_matrix(emb.audio, emb.text).data
        t2a, a2t = evaluate.recall_at_k(sim, cfg.eval.recall_ks)
        zs = evaluate.zero_shot_classify(ckpt.params, list(labeled.records), label_names)
        tc = evaluate.t_classify(ckpt.params, records)
        config = m["config"].run_config_to_dict(cfg)
        ckpt_id = hashlib.sha256(self.checkpoint.read_bytes()).hexdigest()[:16]
        evaluate.emit_report({"retrieval": {"T2A": t2a, "A2T": a2t}, "zero_shot": zs},
                             out / "eval_report.json", config=config, checkpoint_id=ckpt_id)
        evaluate.emit_report({"t_classify": tc}, out / "tclassify_report.json",
                             config=config, checkpoint_id=ckpt_id)

    def round(self, timer):
        out = self.fresh_dir("eval")
        t0 = timer()
        self.op(out)
        elapsed = timer() - t0
        return [(t0, elapsed)], 1, out, lambda: self.check(out)

    def check(self, out: Path) -> None:
        n_neg = sum(r.clip_neg is not None for r in self.test.records)
        if self.expected is None:  # every op reads the same inputs, so one recomputation serves all
            model = reference_model(self.m["trainer"].load_checkpoint(self.checkpoint).params)
            self.expected = ref.evaluate(model, paired_rows(self.test), labeled_rows(self.labeled),
                                         self.label_names, self.cfg.eval.recall_ks)
        got = {}
        for name in ("eval_report.json", "tclassify_report.json"):
            got.update(_report_numbers(json.loads((out / name).read_text(encoding="utf-8"))["metrics"]))
        check_against_reference(got, self.expected, len(self.test.records), len(self.labeled.records),
                                n_neg, self.label_names, "evaluate")


# -- repro -------------------------------------------------------------------------

class Repro(Workload):
    """``tinyclap repro`` through ``cli.main``; the step count comes from a
    config file because ``--steps`` keeps the default warmup of 300 steps."""

    name = "repro"
    config_file = Path(__file__).resolve().parent / "repro_config.json"

    def setup(self) -> None:
        cfg = self.m["config"].load_run_config(self.config_file)
        self.cfg = replace(cfg, seed=self.seed)
        self.inputs = None

    def round(self, timer):
        out = self.fresh_dir("repro")
        argv = ["repro", "--config", str(self.config_file), "--seed", str(self.seed), "--out", str(out)]
        log = io.StringIO()
        t0 = timer()
        with contextlib.redirect_stdout(log):
            code = self.m["cli"].main(argv)
        elapsed = timer() - t0

        def check():
            _require(code == 0, f"repro exited {code}: {log.getvalue()[-500:]}")
            self.check(out)

        return [(t0, elapsed)], 1, out, check

    def reference_inputs(self):
        """The test and labeled rows, the label names and the untrained row's
        expected numbers, made once per run from the same seed and config as
        the pipeline's corpus and ``init_run``."""
        if self.inputs is None:
            m, cfg = self.m, self.cfg
            catalog, primary, temporal = self.synth_train_corpus(cfg)
            test, labeled = self.synth_eval_corpus(cfg, catalog)
            rows = (paired_rows(test), labeled_rows(labeled), [ev.name for ev in catalog.classes])
            train_cfg = replace(cfg.train, seed=m["config"].split_seed(cfg.seed, "train"))
            _, untrained = m["trainer"].init_run(train_cfg, primary, temporal)
            expected = ref.evaluate(reference_model(untrained), *rows, cfg.eval.recall_ks)
            self.inputs = rows, expected
        return self.inputs

    def check(self, out: Path) -> None:
        rows, untrained = self.reference_inputs()
        test, labeled, label_names = rows
        lam = self.cfg.train.loss.lambda_l
        expected = {"untrained": untrained}
        for variant, run in (("lambda_l=0", "run_control"), (f"lambda_l={lam}", "run_order")):
            params = self.m["trainer"].load_checkpoint(out / run / "final.tckp").params
            expected[variant] = ref.evaluate(reference_model(params), *rows, self.cfg.eval.recall_ks)
        report = json.loads((out / "repro_report.json").read_text(encoding="utf-8"))["metrics"]
        _require(sorted(report["t_classify"]) == sorted(expected), f"report rows {sorted(report['t_classify'])}")
        n_neg = sum(r["clip_neg"] is not None for r in test)
        for variant, want in expected.items():
            got = _report_numbers({task: report[task][variant]
                                   for task in ("retrieval", "zero_shot", "t_classify")})
            check_against_reference(got, want, len(test), len(labeled), n_neg, label_names,
                                    f"repro {variant}")
        # the control and order runs share everything before the order loss starts
        switch = self.cfg.train.order_loss_start_step or self.cfg.train.steps // 2
        control = (out / "run_control" / "metrics.jsonl").read_bytes().splitlines()
        order = (out / "run_order" / "metrics.jsonl").read_bytes().splitlines()
        _require(len(control) == len(order) == self.cfg.train.steps, "metric line counts differ")
        _require(control[:switch] == order[:switch], f"control and order runs differ before step {switch}")
        _require(control[switch:] != order[switch:], "order loss changed nothing after the switch")


WORKLOADS = {w.name: w for w in (Train, Evaluate, Repro)}

