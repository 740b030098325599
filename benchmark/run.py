"""Benchmark of tinyclap: train, evaluate and repro workloads.

    python3 benchmark/run.py --workload train --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The program is imported from ``src/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. See README.md.
"""

import os
import time

PROCESS_START = time.perf_counter()
# One BLAS thread, set before numpy loads: steadier timings on a shared host,
# and checkpoint bits that do not depend on the core count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import refclock  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPS = 3  # set-up runs per untraced process; setup_s takes their median
REF_PERIOD_S = 0.05  # at most one reference-kernel run per this much program time
SETUP_REF_RUNS = 5  # reference-kernel runs before each set-up and after the last
MODULES = ("tensor", "corpus", "encoders", "losses", "trainer", "evaluate", "config", "cli")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_program() -> dict:
    if not (ROOT / "src" / "tinyclap" / "__init__.py").is_file():
        sys.exit(f"error: no tinyclap sources under {ROOT / 'src'}; run from a checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    return {name: importlib.import_module(f"tinyclap.{name}") for name in MODULES}


def median_ms(ops) -> float:
    """Median duration in ms of (start, seconds) ops."""
    return 1e3 * statistics.median(d for _, d in ops)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


class Run:
    """Counts ops, failures and timings across the rounds of one run."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.out_bytes = 0

    def round(self, timer, patches=None) -> list[tuple[float, float]]:
        """One round with ``patches`` installed around the ops only; the
        checks run after they are removed, so they are neither traced nor
        paced by the reference clock."""
        if patches is not None:
            patches.install()
        try:
            ops, attempted, out_dir, check = self.workload.round(timer)
        except Exception as exc:  # an op the program could not finish counts as failed
            print(f"op failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            self.attempted += self.workload.ops_per_round
            self.failed += self.workload.ops_per_round
            return []
        finally:
            if patches is not None:
                patches.uninstall()
        self.attempted += attempted
        try:
            self.out_bytes += sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())
            check()
        except CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            self.failed += attempted
            self.correct = False
            return []
        finally:
            shutil.rmtree(out_dir)
        return ops


def measure(run: Run, seconds: float, clock) -> list[tuple[float, float]]:
    """Untraced rounds, with the reference clock ticking, until the timed ops
    add up to ``seconds``; rounds whose ops fail add nothing, so a wall-time
    limit of four times as long ends a run in which every op fails."""
    give_up = time.perf_counter() + 4 * seconds
    ops: list[tuple[float, float]] = []
    while sum(d for _, d in ops) < seconds and time.perf_counter() < give_up:
        ops += run.round(clock.now, clock)
    return ops


def traced(run: Run, seconds: float, tracer) -> tuple[list, list, int]:
    """Untraced and traced rounds in turn until the timed ops add up to
    ``seconds``, under the same wall-time limit as ``measure``.

    Returns the untraced ops, the traced ops and the number of traced ops.
    """
    timer = time.perf_counter
    give_up = time.perf_counter() + 4 * seconds
    plain: list[tuple[float, float]] = []
    spanned: list[tuple[float, float]] = []
    n_traced = 0
    while sum(d for _, d in plain + spanned) < seconds and time.perf_counter() < give_up:
        plain += run.round(timer)
        before = run.attempted
        spanned += run.round(timer, tracer)
        n_traced += run.attempted - before
    return plain, spanned, n_traced


def layer_metrics(tracer, n_ops: int, overhead_ms: float) -> dict:
    total, own = tracer.self_times()
    calls: dict[str, int] = {}
    for name in tracer.names:
        calls[name] = calls.get(name, 0) + 1
    n = max(n_ops, 1)  # dividing, not multiplying by 1/n, keeps per-op counts exact
    ms = {}

    def own_ms(metric, span):
        ms[metric] = 1e3 * own.get(span, 0.0) / n

    for span in ("trainer.compose_batch", "encoders.forward_batch", "losses.train_loss",
                 "trainer.adam_step", "trainer.save_checkpoint", "corpus.build",
                 "corpus.save_manifest", "corpus.load_manifest", "trainer.load_checkpoint",
                 "encoders.encode", "evaluate.recall_at_k", "evaluate.t_classify",
                 "evaluate.zero_shot", "evaluate.emit_report", "trainer.train"):
        own_ms(f"{span}_ms", span)
    ms["tensor.backward_ms"] = 1e3 * total.get("tensor.backward", 0.0) / n
    own_ms("tensor.backward_self_ms", "tensor.backward")
    own_ms("cli.repro_self_ms", "cli.repro")
    for k in tracing.NAMED_KERNELS + ("other",):
        own_ms(f"tensor.{k}.fwd_ms", f"tensor.{k}.fwd")
        own_ms(f"tensor.{k}.bw_ms", f"tensor.{k}.bw")
        ms[f"tensor.{k}.calls"] = tracer.counts.get(f"tensor.{k}.calls", 0) / n
    c = tracer.counts
    ms["tensor.nodes"] = c.get("tensor.nodes", 0) / n
    ms["tensor.grad_nodes"] = c.get("tensor.grad_nodes", 0) / n
    ms["tensor.out_mb"] = c.get("tensor.out_bytes", 0) / n / 1e6
    ms["corpus.files_read"] = c.get("corpus.files_read", 0) / n
    ms["corpus.files_written"] = c.get("corpus.files_written", 0) / n
    ms["trainer.steps"] = calls.get("trainer.adam_step", 0) / n
    ms["trace.overhead_ms"] = overhead_ms
    return ms


UNITS = {"_ms": "ms", "calls": "count", "nodes": "count", "files_read": "count",
         "files_written": "count", "steps": "count", "_mb": "MB"}
E2E_UNITS = {"setup_s": "s", "op_ms": "ms", "peak_rss_mb": "MB", "out_mb": "MB"}


def unit_of(metric: str) -> str:
    return next(u for suffix, u in UNITS.items() if metric.endswith(suffix))


def main(argv=None) -> int:
    args = parse_args(argv)
    mods = load_program()
    warnings.filterwarnings("ignore", message="prompt tokens not in training vocab")
    import_s = time.perf_counter() - PROCESS_START
    work = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    workload = WORKLOADS[args.workload](mods, args.seed, work)
    run = Run(workload)
    try:
        clock = refclock.RefClock(mods, REF_PERIOD_S)
        setups, setup_ref = [], []
        for _ in range(1 if args.trace else SETUP_REPS):
            setup_ref += [clock.kernel() for _ in range(SETUP_REF_RUNS)]
            t0 = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - t0)
        setup_ref += [clock.kernel() for _ in range(SETUP_REF_RUNS)]
        if args.trace:
            tracer = tracing.Tracer(mods)
            plain, spanned, n_traced = traced(run, args.seconds, tracer)
            overhead = median_ms(spanned) - median_ms(plain) if plain and spanned else 0.0
            metrics = layer_metrics(tracer, n_traced, overhead)
            spans_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(spans_file)
            print(json.dumps({"spans": str(spans_file.relative_to(ROOT)), "traced_ops": n_traced,
                              "untraced_op_ms": median_ms(plain) if plain else None,
                              "traced_op_ms": median_ms(spanned) if spanned else None}))
        else:
            ops = measure(run, args.seconds, clock)
            if not ops:
                raise SystemExit(f"error: every {args.workload} op failed")
            setup_raw = import_s + statistics.median(setups)
            setup_ref_ms = 1e3 * statistics.median(setup_ref)
            metrics = {
                "setup_s": setup_raw * refclock.NOMINAL_MS / setup_ref_ms,
                "op_ms": clock.scaled_ms(ops),
                "peak_rss_mb": peak_rss_mb(),
                # bytes per op first: every op writes the same bytes, so the quotient is exact
                "out_mb": run.out_bytes / run.attempted / 1e6,
            }
            durations = [d for _, d in ops]
            print(json.dumps({"raw": {
                "op_ms": median_ms(ops), "ops_timed": len(ops),
                # the highest percentile with at least ten ops beyond it
                "op_ms_p90": 1e3 * statistics.quantiles(durations, n=10)[-1] if len(ops) >= 100 else None,
                "ref_kernel_ms": clock.median_ms(), "ref_kernel_runs": len(clock.samples),
                "setup_s": setup_raw, "setup_ref_kernel_ms": setup_ref_ms,
                "import_s": import_s, "setup_runs_s": setups,
            }}))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k) if args.trace else E2E_UNITS[k]}
                    for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
