"""Command-line workflow: synth | train | eval | tclassify | gradcheck | repro.

One JSON config document drives every stage; flags override config values.
Exit codes: 0 success, 1 usage or config error, 2 data or format error,
3 numeric failure. Machine-readable artifacts are byte-stable given the same
config and seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import tensor as T
from .config import RunConfig, load_run_config, run_config_to_dict, split_seed
from .corpus import (
    build_catalog,
    build_labeled_clips,
    build_mixed_dataset,
    catalog_for,
    load_manifest,
    save_manifest,
)
from .encoders import forward_batch
from .errors import DataError, InvalidConfig, NumericFailure, TinyClapError
from .evaluate import (embed_test_set, emit_report, order_scores, recall_at_k, t_classify,
                       zero_shot_classify)
from .losses import similarity_matrix, train_loss
from .trainer import TrainConfig, init_run, load_checkpoint, train, train_fork

GRADCHECK_THRESHOLD = 1e-3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; route them through the config-error path (exit 1)
    def error(self, message):
        self.print_usage(sys.stderr)
        raise InvalidConfig(message)


def _checkpoint_id(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


def _effective_config(args) -> RunConfig:
    cfg = load_run_config(args.config) if args.config else RunConfig()
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=int(args.seed))
    if getattr(args, "steps", None) is not None:
        steps = int(args.steps)
        cfg = replace(
            cfg,
            train=replace(cfg.train, steps=steps, warmup_steps=min(cfg.train.warmup_steps, steps)),
        )
    if getattr(args, "lambda_l", None) is not None:
        cfg = replace(
            cfg, train=replace(cfg.train, loss=replace(cfg.train.loss, lambda_l=args.lambda_l))
        )
    return cfg


def _write_config_echo(cfg: RunConfig, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    blob = json.dumps(run_config_to_dict(cfg), sort_keys=True, separators=(",", ":")) + "\n"
    (out_dir / "config.json").write_text(blob, encoding="utf-8")


def _train_config(cfg: RunConfig) -> TrainConfig:
    return replace(cfg.train, seed=split_seed(cfg.seed, "train"))


def cmd_synth(cfg: RunConfig, out_dir: Path) -> dict:
    """Builds the four manifests, writes them under out_dir/data, and returns them by name."""
    data_dir = out_dir / "data"
    data_dir.mkdir(parents=True, exist_ok=True)
    c = cfg.corpus
    catalog = build_catalog(c.n_classes, c.frame_dim, split_seed(cfg.seed, "catalog"))
    pieces = {
        "train_primary": build_mixed_dataset(
            catalog, c.train_primary_records, c.events_per_clip, c.frames_per_event,
            c.noise_sigma, False, split_seed(cfg.seed, "train-primary"), split="train",
        ),
        "train_temporal": build_mixed_dataset(
            catalog, c.train_temporal_records, c.events_per_clip, c.frames_per_event,
            c.noise_sigma, False, split_seed(cfg.seed, "train-temporal"), split="train",
        ),
        "test": build_mixed_dataset(
            catalog, c.test_records, c.events_per_clip, c.frames_per_event,
            c.noise_sigma, True, split_seed(cfg.seed, "test"), split="test",
        ),
        "labeled": build_labeled_clips(
            catalog, c.labeled_records, c.labeled_frames, c.labeled_noise_sigma,
            split_seed(cfg.seed, "labeled"), split="test",
        ),
    }
    for name, manifest in pieces.items():
        save_manifest(manifest, data_dir / f"{name}.jsonl")
        print(f"{name}: {len(manifest.records)} records -> {data_dir / (name + '.jsonl')}")
    _write_config_echo(cfg, out_dir)
    return pieces


def cmd_train(cfg: RunConfig, data_dir: Path, out_dir: Path, resume=None) -> int:
    run_dir = out_dir / "train"
    ckpt = train(
        _train_config(cfg),
        data_dir / "train_primary.jsonl",
        data_dir / "train_temporal.jsonl",
        run_dir,
        resume_from=resume,
    )
    _write_config_echo(cfg, out_dir)
    last = ""
    with open(run_dir / "metrics.jsonl", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                last = line.strip()
    print(f"finished at step {ckpt.step}; checkpoint: {run_dir / 'final.tckp'}")
    if last:
        print(f"last step metrics: {last}")
    return 0


def _paired_similarity(params, records) -> np.ndarray:
    emb = forward_batch(params, records, [False] * len(records))
    return similarity_matrix(emb.audio, emb.text).data


def cmd_eval(cfg: RunConfig, checkpoint: Path, data_dir: Path, out_dir: Path) -> int:
    ckpt = load_checkpoint(checkpoint)
    test = load_manifest(data_dir / "test.jsonl")
    labeled = load_manifest(data_dir / "labeled.jsonl")
    label_names = tuple(ev.name for ev in catalog_for(labeled).classes)
    t2a, a2t = recall_at_k(_paired_similarity(ckpt.params, list(test.records)), cfg.eval.recall_ks)
    zs = zero_shot_classify(ckpt.params, list(labeled.records), label_names)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "eval_report.json"
    emit_report(
        {"retrieval": {"T2A": t2a, "A2T": a2t}, "zero_shot": zs},
        path,
        config=run_config_to_dict(cfg),
        checkpoint_id=_checkpoint_id(checkpoint),
    )
    for res in (t2a, a2t):
        cells = "  ".join(f"R@{k}={v:.1f}" for k, v in sorted(res.recall_at.items()))
        print(f"retrieval {res.direction}: {cells}  (n={res.n_queries})")
    print(f"zero-shot: {zs.accuracy:.1f}% over {zs.n_samples} clips, {len(label_names)} labels")
    print(f"report: {path}")
    return 0


def cmd_tclassify(cfg: RunConfig, checkpoint: Path, data_dir: Path, out_dir: Path) -> int:
    ckpt = load_checkpoint(checkpoint)
    test = load_manifest(data_dir / "test.jsonl")
    result = t_classify(ckpt.params, list(test.records))
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "tclassify_report.json"
    emit_report(
        {"t_classify": result},
        path,
        config=run_config_to_dict(cfg),
        checkpoint_id=_checkpoint_id(checkpoint),
    )
    a2t = "n/a" if result.a2t_accuracy is None else f"{result.a2t_accuracy:.1f}%"
    print(f"order discrimination: T2A {result.t2a_accuracy:.1f}%  A2T {a2t}")
    print(f"report: {path}")
    return 0


def gradcheck_value(cfg: RunConfig, n_coords: int = 200) -> float:
    """Max relative error of the full training-loss gradient on a 4-sample batch."""
    seed = split_seed(cfg.seed, "gradcheck")
    catalog = build_catalog(6, cfg.corpus.frame_dim, seed)
    manifest = build_mixed_dataset(catalog, 4, 2, 3, cfg.corpus.noise_sigma, False, seed)
    train_cfg, params = init_run(replace(cfg.train, seed=seed), manifest)
    params = replace(params, grad=np.zeros(params.flat.size))  # its own trainable state
    records = list(manifest.records)
    mask = [True] + [False] * (len(records) - 1)

    def loss_of(_params):
        emb = forward_batch(params, records, mask)
        return train_loss(emb, train_cfg.loss, params["log_temperature"]).l_train

    return T.finite_diff_check(loss_of, params.named(), n_coords=n_coords, seed=seed)


def cmd_gradcheck(cfg: RunConfig) -> int:
    worst = gradcheck_value(cfg)
    print(f"max relative gradient error: {worst:.3e} (threshold {GRADCHECK_THRESHOLD:.0e})")
    if worst >= GRADCHECK_THRESHOLD:
        raise NumericFailure(f"gradient check failed: {worst:.3e} >= {GRADCHECK_THRESHOLD:.0e}")
    print("gradient check passed")
    return 0


def _fmt(x) -> str:
    return "n/a" if x is None else f"{x:5.1f}"


def cmd_repro(cfg: RunConfig, out_dir: Path) -> int:
    # checked before any work: the evaluation at the end needs these records
    c, k = cfg.corpus, max(cfg.eval.recall_ks)
    if min(c.test_records, c.labeled_records) < 1 or k > c.test_records:
        raise InvalidConfig(f"repro cannot evaluate R@{k} over {c.test_records} test and "
                            f"{c.labeled_records} labeled records")
    # trains and evaluates on the manifests it drew; the files are for later stages
    pieces = cmd_synth(cfg, out_dir)
    primary, temporal = pieces["train_primary"], pieces["train_temporal"]
    label_names = tuple(ev.name for ev in catalog_for(pieces["labeled"]).classes)
    test_records = list(pieces["test"].records)
    labeled_records = list(pieces["labeled"].records)

    base_train = _train_config(cfg)
    # The order objective joins at the halfway mark (aligned model first,
    # order fine-tune after), so with a shared seed the control and treatment
    # runs are bit-identical until the switch and the comparison isolates the
    # new loss. Running the margin objective from step 0 also works but leaves
    # less headroom: it keeps reshaping embeddings long after the order task
    # is solved, which erodes zero-shot transfer. The shared steps before the
    # switch run once: the two runs fork there, and each run's metrics.jsonl
    # and checkpoints still hold the shared steps, as a standalone run's do.
    order_start = base_train.order_loss_start_step or base_train.steps // 2
    order_cfg = replace(base_train, order_loss_start_step=order_start)
    control_cfg = replace(base_train, loss=replace(base_train.loss, lambda_l=0.0))
    fork_step = min(order_start, base_train.steps)
    _, untrained = init_run(base_train, primary, temporal)  # built once: the fork trains a copy
    print(f"training with order loss (lambda_l={base_train.loss.lambda_l}) and control "
          f"(lambda_l=0), forked at step {fork_step} ...")
    with_loss, control = train_fork(
        [(order_cfg, out_dir / "run_order"), (control_cfg, out_dir / "run_control")],
        primary, temporal, fork_step, params=untrained,
    )

    variants = (  # each model as a value, so no encode of it builds backward state
        ("untrained", untrained),
        ("lambda_l=0", replace(control.params, grad=None)),
        (f"lambda_l={base_train.loss.lambda_l}", replace(with_loss.params, grad=None)),
    )
    metrics: dict = {"t_classify": {}, "retrieval": {}, "zero_shot": {}}
    rows = []
    for name, params in variants:
        emb = embed_test_set(params, test_records)  # one pass serves both tasks
        tc = order_scores(emb)
        t2a, a2t = recall_at_k(similarity_matrix(emb.audio, emb.text).data, cfg.eval.recall_ks)
        del emb  # plain rows, no closure or mask: kept alive, they would add to the next peak
        zs = zero_shot_classify(params, labeled_records, label_names)
        metrics["t_classify"][name] = tc
        metrics["retrieval"][name] = {"T2A": t2a, "A2T": a2t}
        metrics["zero_shot"][name] = zs
        rows.append((name, tc, t2a, zs))

    k = min(cfg.eval.recall_ks)  # the retrieval column's k, in its label and its values
    recall = f"R@{k}-T2A%"
    print()
    print(f"model          order-T2A%  order-A2T%  {recall}  zero-shot%")
    for name, tc, t2a, zs in rows:
        print(
            f"{name:<13}  {_fmt(tc.t2a_accuracy):>9}  {_fmt(tc.a2t_accuracy):>9}"
            f"  {_fmt(t2a.recall_at[k]):>{len(recall)}}  {_fmt(zs.accuracy):>9}"
        )
    print()
    report_path = out_dir / "repro_report.json"
    emit_report(
        metrics,
        report_path,
        config=run_config_to_dict(cfg),
        checkpoint_id=_checkpoint_id(out_dir / "run_order" / "final.tckp"),
    )
    print(f"report: {report_path}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="tinyclap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file (defaults used when omitted)")
        p.add_argument("--seed", type=int, help="root seed, overrides the config value")
        p.add_argument(
            "--out",
            default=os.environ.get("TINYCLAP_OUT", "runs"),
            help="output root directory (env TINYCLAP_OUT overrides the default)",
        )

    p = sub.add_parser("synth", help="generate catalog and all dataset manifests")
    common(p)

    p = sub.add_parser("train", help="train the dual encoders on synthesized data")
    common(p)
    p.add_argument("--data", help="directory holding the manifests (default OUT/data)")
    p.add_argument("--resume", help="checkpoint to resume from")
    p.add_argument("--steps", type=int, help="override train.steps (warmup is capped to fit)")
    p.add_argument("--lambda-l", dest="lambda_l", type=float, help="override loss weight")

    p = sub.add_parser("eval", help="retrieval and zero-shot evaluation of a checkpoint")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", help="directory holding the manifests (default OUT/data)")

    p = sub.add_parser("tclassify", help="order-discrimination accuracy of a checkpoint")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", help="directory holding the manifests (default OUT/data)")

    p = sub.add_parser("gradcheck", help="finite-difference check of the training gradient")
    common(p)

    p = sub.add_parser("repro", help="synth, train with and without the order loss, compare")
    common(p)
    p.add_argument("--steps", type=int, help="override train.steps (warmup is capped to fit)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _effective_config(args)
        out_dir = Path(args.out)
        data_dir = Path(getattr(args, "data", None) or out_dir / "data")
        if args.command == "synth":
            cmd_synth(cfg, out_dir)
            return 0
        if args.command == "train":
            return cmd_train(cfg, data_dir, out_dir, resume=getattr(args, "resume", None))
        if args.command == "eval":
            return cmd_eval(cfg, Path(args.checkpoint), data_dir, out_dir)
        if args.command == "tclassify":
            return cmd_tclassify(cfg, Path(args.checkpoint), data_dir, out_dir)
        if args.command == "gradcheck":
            return cmd_gradcheck(cfg)
        if args.command == "repro":
            return cmd_repro(cfg, out_dir)
        raise InvalidConfig(f"unknown command {args.command!r}")
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except TinyClapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
