"""Span tracing of the nesua pipeline from outside the package.

The traced run replaces public names at the call sites the pipeline looks
them up through (module attributes of `nesua.cli`, `nesua.training`,
`nesua.gat`, `nesua.evaluate` and `nesua.autodiff`) with wrappers that
record one span per call: name, start, end and the enclosing span.  The
autodiff primitives get a bare call counter instead of a span, because
they are called dozens of times per train step.  Nothing under `src/` is
changed; `Tracer.uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import statistics
import time

# (module, attribute path, span name).  `gat_layer` is named per call:
# the first call inside one `gat.forward` is layer 1, the second layer 2.
SPAN_SITES = (
    ("nesua.cli", "cmd_gen", "cli.gen"),
    ("nesua.cli", "cmd_train", "cli.train"),
    ("nesua.cli", "cmd_eval", "cli.eval"),
    ("nesua.cli", "load_config", "config"),
    ("nesua.cli", "write_config", "config"),
    ("nesua.config", "RunConfig.digest", "config"),
    ("nesua.cli", "generate_scenario", "scenario.generate_scenario"),
    ("nesua.cli", "build_graph", "scenario.build_graph"),
    ("nesua.cli", "to_record", "scenario.to_record"),
    ("nesua.cli", "write_jsonl", "scenario.write_jsonl"),
    ("nesua.cli", "read_jsonl", "scenario.read_jsonl"),
    ("nesua.cli", "from_record", "scenario.from_record"),
    ("nesua.cli", "normalize_features", "scenario.normalize_features"),
    ("nesua.training", "normalize_features", "scenario.normalize_features"),
    ("nesua.cli", "split_and_normalize", "training.split_and_normalize"),
    ("nesua.cli", "train", "training.train"),
    ("nesua.cli", "write_history", "training.write_history"),
    ("nesua.training", "clone_model", "training.clone_model"),
    ("nesua.training", "loss", "training.loss"),
    ("nesua.training", "network_power_soft", "power.network_power_soft"),
    ("nesua.evaluate", "network_power_hard", "power.network_power_hard"),
    ("nesua.cli", "associate_oracle", "baselines.associate_oracle"),
    ("nesua.cli", "associate_ga_subsinr", "baselines.associate_ga_subsinr"),
    ("nesua.cli", "associate_rsrp", "baselines.associate_rsrp"),
    ("nesua.cli", "evaluate_policy", "evaluate.evaluate_policy"),
    ("nesua.cli", "export_heatmaps", "evaluate.export_heatmaps"),
    ("nesua.gat", "forward", "gat.forward"),
    ("nesua.gat", "gat_layer", "gat.layer"),
    ("nesua.gat", "readout", "gat.readout"),
    ("nesua.gat", "save_checkpoint", "gat.save_checkpoint"),
    ("nesua.gat", "load_checkpoint", "gat.load_checkpoint"),
    ("nesua.autodiff", "backward", "autodiff.backward"),
    ("nesua.autodiff", "adam_step", "autodiff.adam_step"),
    ("nesua.autodiff", "zero_grad", "autodiff.zero_grad"),
)

# autodiff primitives whose calls make up `autodiff.ops_per_step`
PRIMITIVES = (
    "add", "subtract", "multiply", "scale", "matmul", "transpose", "reshape",
    "slice_rows", "concat", "relu", "leaky_relu", "exp", "clamp",
    "row_softmax_masked", "sum_all", "row_sum", "trace_of_gram", "l2_norm",
    "complement_product_gate",
)

# tail percentiles tried from the top; one is used only when at least ten
# samples lie beyond it
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)


def _resolve(module_name, path):
    obj = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        obj = getattr(obj, part)
    return obj, attr


class Tracer:
    """Spans of one pipeline pass, kept in memory as parallel lists."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.ops_at_start: list[int] = []
        self.ops_at_end: list[int] = []
        self.ops = [0]
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._layer_seq = [0]
        self._saved: list[tuple] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, fn, name):
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        ops_at_start, ops_at_end, ops, stack = (
            self.ops_at_start, self.ops_at_end, self.ops, self._stack
        )
        layer_seq = self._layer_seq
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "gat.layer":
                layer_seq[0] += 1
                label = f"gat.layer{layer_seq[0]}"
            else:
                label = name
                if name == "gat.forward":
                    layer_seq[0] = 0
            idx = len(names)
            names.append(label)
            parents.append(stack[-1] if stack else -1)
            ends.append(math.nan)
            ops_at_start.append(ops[0])
            ops_at_end.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                ops_at_end[idx] = ops[0]
                stack.pop()

        return wrapper

    def _counter(self, fn):
        ops = self.ops

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ops[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, obj, attr, new):
        self._saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def install(self):
        """Wrap every site that exists; names of absent ones go to `missing`."""
        for module_name, path, name in SPAN_SITES:
            try:
                obj, attr = _resolve(module_name, path)
                original = getattr(obj, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{path}")
                continue
            self._patch(obj, attr, self._span(original, name))
        autodiff = importlib.import_module("nesua.autodiff")
        counted = {}
        for prim in PRIMITIVES:
            original = getattr(autodiff, prim, None)
            if original is None:
                self.missing.append(f"nesua.autodiff.{prim}")
                continue
            counted[original] = self._counter(original)
            self._patch(autodiff, prim, counted[original])
        # gat binds its activations into a table at import time
        table = getattr(importlib.import_module("nesua.gat"), "_ACTIVATIONS", {})
        for key, fn in list(table.items()):
            if fn in counted:
                self._saved.append((table, key, fn))
                table[key] = counted[fn]

    def uninstall(self):
        for obj, attr, original in reversed(self._saved):
            if isinstance(obj, dict):
                obj[attr] = original
            else:
                setattr(obj, attr, original)
        self._saved.clear()

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        own = list(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def _inside(self, idx: int, ancestor: str) -> bool:
        p = self.parents[idx]
        while p >= 0:
            if self.names[p] == ancestor:
                return True
            p = self.parents[p]
        return False

    def pass_stats(self) -> dict:
        """Per-name calls, self seconds and per-call durations, plus the
        training counts derived from the span tree."""
        own = self.self_times()
        by_name: dict[str, dict] = {}
        for i, name in enumerate(self.names):
            entry = by_name.setdefault(name, {"calls": 0, "self_s": 0.0, "durations": []})
            entry["calls"] += 1
            entry["self_s"] += own[i]
            entry["durations"].append(self.ends[i] - self.starts[i])
        train_spans = [i for i, n in enumerate(self.names) if n == "training.train"]
        steps = sum(1 for n in self.names if n == "autodiff.adam_step")
        train_forwards = sum(
            1 for i, n in enumerate(self.names)
            if n == "gat.forward" and self._inside(i, "training.train")
        )
        train_ops = sum(self.ops_at_end[i] - self.ops_at_start[i] for i in train_spans)
        counts = {
            "training.steps": steps,
            "training.forwards_per_step": (train_forwards - steps) / steps if steps else 0.0,
            "autodiff.ops_per_step": train_ops / steps if steps else 0.0,
        }
        return {"spans": by_name, "counts": counts}

    def write(self, fh, t0: float):
        """Append one JSON line per span; times are seconds since t0."""
        for i, name in enumerate(self.names):
            fh.write(json.dumps({
                "run": self.run_id,
                "id": i,
                "name": name,
                "start": self.starts[i] - t0,
                "end": self.ends[i] - t0,
                "parent": self.parents[i] if self.parents[i] >= 0 else None,
            }) + "\n")


def percentile(sorted_values, pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten of n samples beyond it;
    the median when n is too small for any."""
    for pct in TAIL_LADDER:
        if n * (1.0 - pct / 100.0) >= 10.0:
            return pct
    return 50.0


def summarize(passes: list[dict]) -> tuple[dict, dict]:
    """Fold the per-name span stats of several traced passes into metrics.

    Calls are per pass (identical across passes), self seconds the median
    over passes, and per-call percentiles pool the calls of every pass.
    Returns (metrics, sample_counts).
    """
    empty = {"calls": 0, "self_s": 0.0, "durations": []}
    metrics, samples = {}, {}
    for name in sorted({name for p in passes for name in p}):
        entries = [p.get(name, empty) for p in passes]
        durations = sorted(d for e in entries for d in e["durations"])
        tail = tail_percentile(len(durations))
        metrics[name] = {
            "calls": entries[0]["calls"],
            "self_s": statistics.median(e["self_s"] for e in entries),
            "p50_ms": percentile(durations, 50.0) * 1e3 if durations else 0.0,
            "tail_ms": percentile(durations, tail) * 1e3 if durations else 0.0,
        }
        samples[name] = {"n": len(durations), "tail_pct": tail, "passes": len(entries)}
    return metrics, samples
