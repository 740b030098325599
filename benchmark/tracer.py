"""Spans around the calls into tinyclap's layers, patched in from outside.

A span is (name, start, end, parent index), kept in memory and written out
when the benchmark ends. Each public function is wrapped where its caller
looks it up: ``trainer.forward_batch`` is the name ``train()`` calls, so
wrapping ``encoders.forward_batch`` alone would miss it. Kernels are wrapped
in ``tinyclap.tensor``, where the towers and losses look them up, and the
backward closure of every node a kernel returns is wrapped too, so backward
time splits into the kernels' closures and the tape's own work.

The same call sites serve as the points where the reference clock may run
(see ``refclock``), so the module also exports a plain patching helper.
"""

from __future__ import annotations

import builtins
import json
import pathlib
import time
from collections import defaultdict

# Kernels that get their own per-layer metrics; every other kernel is
# folded into "other" so the per-kernel times still sum to the whole.
NAMED_KERNELS = (
    "matmul", "gather_rows", "add", "add_bias", "relu", "block_mean_rows",
    "concat_rows", "row_l2_normalize", "log_sum_exp", "transpose",
)
OTHER_KERNELS = (
    "sub", "mean_rows", "mean_all", "sum_all", "scale", "mul_scalar", "exp",
    "softplus", "diag_part", "rowwise_dot",
)

# (module, attribute) -> span name, for every call site of a layer function.
LAYER_SITES = {
    ("tensor", "backward"): "tensor.backward",
    ("trainer", "compose_batch"): "trainer.compose_batch",
    ("trainer", "forward_batch"): "encoders.forward_batch",
    ("trainer", "train_loss"): "losses.train_loss",
    ("trainer", "adam_step"): "trainer.adam_step",
    ("trainer", "save_checkpoint"): "trainer.save_checkpoint",
    ("trainer", "load_checkpoint"): "trainer.load_checkpoint",
    ("cli", "load_checkpoint"): "trainer.load_checkpoint",
    ("trainer", "train"): "trainer.train",
    ("cli", "train"): "trainer.train",
    ("corpus", "load_manifest"): "corpus.load_manifest",
    ("trainer", "load_manifest"): "corpus.load_manifest",
    ("cli", "load_manifest"): "corpus.load_manifest",
    ("cli", "build_catalog"): "corpus.build",
    ("cli", "build_mixed_dataset"): "corpus.build",
    ("cli", "build_labeled_clips"): "corpus.build",
    ("cli", "save_manifest"): "corpus.save_manifest",
    ("encoders", "forward_batch"): "encoders.encode",
    ("evaluate", "forward_batch"): "encoders.encode",
    ("cli", "forward_batch"): "encoders.encode",
    ("evaluate", "encode_text_batch"): "encoders.encode",
    ("evaluate", "encode_audio_batch"): "encoders.encode",
    ("evaluate", "recall_at_k"): "evaluate.recall_at_k",
    ("cli", "recall_at_k"): "evaluate.recall_at_k",
    ("evaluate", "t_classify"): "evaluate.t_classify",
    ("cli", "t_classify"): "evaluate.t_classify",
    ("evaluate", "zero_shot_classify"): "evaluate.zero_shot",
    ("cli", "zero_shot_classify"): "evaluate.zero_shot",
    ("evaluate", "emit_report"): "evaluate.emit_report",
    ("cli", "emit_report"): "evaluate.emit_report",
    ("cli", "cmd_repro"): "cli.repro",
}


class Patches:
    """Replaces module attributes and puts the originals back on ``restore``."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make_wrapper) -> None:
        original = getattr(owner, attr, None)
        if original is None:  # a later version of the program may drop a name
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer:
    """Records spans and counts while installed; ``install`` and ``uninstall``
    may alternate, so traced and untraced ops can share one process."""

    def __init__(self, modules: dict):
        self.modules = modules  # short name -> imported tinyclap module
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._corpus_depth = 0
        self._patches = Patches()

    # -- spans -------------------------------------------------------------------
    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def _span(self, name: str, fn):
        corpus = name.startswith("corpus.")

        def wrapper(*args, **kwargs):
            if corpus:
                self._corpus_depth += 1
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
                if corpus:
                    self._corpus_depth -= 1

        return wrapper

    def _kernel(self, label: str, fn):
        fwd, bw_name, calls = f"tensor.{label}.fwd", f"tensor.{label}.bw", f"tensor.{label}.calls"
        counts = self.counts

        def wrap_bw(bw):
            def traced_bw(g, adj):
                idx = self._open(bw_name)
                try:
                    bw(g, adj)
                finally:
                    self._close(idx)

            return traced_bw

        def wrapper(*args, **kwargs):
            idx = self._open(fwd)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            counts[calls] += 1
            counts["tensor.nodes"] += 1
            counts["tensor.out_bytes"] += out.data.nbytes
            bw = getattr(out, "_bw", None)
            if bw is not None:
                counts["tensor.grad_nodes"] += 1
                out._bw = wrap_bw(bw)
            return out

        return wrapper

    def _leaf_init(self, init):
        counts = self.counts

        def wrapper(tensor_self, *args, **kwargs):
            counts["tensor.nodes"] += 1
            return init(tensor_self, *args, **kwargs)

        return wrapper

    def _file_open(self, fn):
        counts = self.counts

        def wrapper(file, mode="r", *args, **kwargs):
            if self._corpus_depth:
                writing = any(c in mode for c in "wax+")
                counts["corpus.files_written" if writing else "corpus.files_read"] += 1
            return fn(file, mode, *args, **kwargs)

        return wrapper

    # -- install -----------------------------------------------------------------
    def install(self) -> None:
        tensor = self.modules["tensor"]
        for name in NAMED_KERNELS + OTHER_KERNELS:
            label = name if name in NAMED_KERNELS else "other"
            self._patches.replace(tensor, name, lambda fn, label=label: self._kernel(label, fn))
        self._patches.replace(tensor.Tensor, "__init__", self._leaf_init)
        for (module, attr), span in LAYER_SITES.items():
            self._patches.replace(self.modules[module], attr, lambda fn, span=span: self._span(span, fn))
        self._patches.replace(builtins, "open", self._file_open)
        self._patches.replace(pathlib.Path, "open", self._file_open)

    def uninstall(self) -> None:
        self._patches.restore()

    # -- results -----------------------------------------------------------------
    def self_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """``(total, self)`` seconds per span name; self = duration - children."""
        total: dict[str, float] = defaultdict(float)
        child: list[float] = [0.0] * len(self.names)
        for i, name in enumerate(self.names):
            d = self.ends[i] - self.starts[i]
            total[name] += d
            if self.parents[i] >= 0:
                child[self.parents[i]] += d
        own: dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            own[name] += self.ends[i] - self.starts[i] - child[i]
        return total, own

    def write(self, path) -> None:
        """One JSON line per span: name, start and end in seconds, parent index."""
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps([name, self.starts[i], self.ends[i], self.parents[i]]) + "\n")
