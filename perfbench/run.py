"""Benchmark of the nesua command pipeline: gen -> gen (held out) -> train -> eval.

Run from the repository root:

    python3 perfbench/run.py --workload paper --seed 1 --seconds 60 --trace 0

One process runs one workload as a closed loop with a single client: the
four commands run in-process through `nesua.cli.main`, one at a time, and
the pass repeats until `--seconds` are used up.  The first pass is a
warm-up: it is checked but not timed.  `--trace 0` reports the end-to-end
metrics; `--trace 1` alternates untraced and traced passes and reports the
per-layer metrics (see `spans.py`).  Timings are scaled to a nominal host
speed by a reference workload timed around every command (see
`reference_s`).  The last line of stdout
is one JSON object: correct, attempted, failed, metrics.  Artifacts land
in `.perfbench_runs/<run id>/` under the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import glob
import gzip
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

# One BLAS thread, set before numpy loads and inherited by the set-up probes.
# On a shared 2-vCPU host a two-thread call waits for whichever vCPU the host
# is starving.  There a 512x512 matmul took 24 ms on two threads against
# 5-7 ms on one.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_runs")

# workload seed n draws training scenarios from n*SEED_STRIDE on and the
# held-out evaluation scenarios from EVAL_SEED_OFFSET further on
SEED_STRIDE = 10_000
EVAL_SEED_OFFSET = 5_000
SETUP_PROBES = 7
WARMUP_PASSES = 1
# timed passes a run makes at the least, by --trace
MIN_PASSES = {0: 3, 1: 4}
# seconds `reference_s` takes on the host the end-to-end timings are scaled to
REF_NOMINAL_S = 0.05
_REF_FLOATS = [float(i) / 7.0 for i in range(15_000)]
_REF_SMALL = [np.arange(7.0) + i for i in range(50)]
_REF_LARGE = np.arange(65_536 * 7, dtype=np.float64).reshape(65_536, 7) / 7.0


@dataclasses.dataclass(frozen=True)
class Workload:
    """One run file plus the sizes that fix how much work a pass does."""

    config: dict        # run file sections; train sizes are filled in per pass
    dataset_size: int   # training dataset records
    epochs: int
    eval_size: int      # held-out instances scored by eval
    needs_oracle: bool  # eval must run the exhaustive search (N**K within budget)

    def run_files(self, train_seed: int, eval_seed: int) -> tuple[dict, dict]:
        def run_file(size, seed):
            doc = json.loads(json.dumps(self.config))
            doc.setdefault("train", {}).update(dataset_size=size, epochs=self.epochs)
            doc["seed"] = seed
            return doc

        return run_file(self.dataset_size, train_seed), run_file(self.eval_size, eval_seed)

    @property
    def train_split(self) -> int:
        split = self.config.get("train", {}).get("split_fraction", 0.8)
        return min(max(int(self.dataset_size * split), 1), self.dataset_size - 1)


# Why each workload exists, and why the K=100 `train_small` workload was
# dropped, is in README.md next to this file.
WORKLOADS = {
    # paper defaults: 512-wide layers, Adam and checkpoint bytes dominate
    "paper": Workload(
        config={}, dataset_size=16, epochs=6, eval_size=32, needs_oracle=False,
    ),
    # K=7: eval runs the exhaustive search over 7**7 assignments
    "oracle": Workload(
        config={
            "scenario": {"n_ues": 7},
            "gat": {"hidden_dim": 32},
            "train": {"lr": 1e-3},
        },
        dataset_size=200, epochs=4, eval_size=4, needs_oracle=True,
    ),
}

END_TO_END = {
    "setup_s": "s",
    "gen_records_per_s": "1/s",
    "train_steps_per_s": "1/s",
    "eval_instances_per_s": "1/s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    "best_test_loss": "loss",
    "gain_vs_rsrp_pct": "%",
    "ops_ok_frac": "fraction",
}

_ALL = ("calls", "self_s", "p50_ms", "tail_ms")
LAYER_STATS = {
    "autodiff.backward": _ALL,
    "autodiff.adam_step": _ALL,
    "autodiff.zero_grad": ("self_s",),
    "gat.forward": _ALL,
    "gat.layer1": _ALL,
    "gat.layer2": _ALL,
    "gat.readout": _ALL,
    "gat.save_checkpoint": ("self_s",),
    "gat.load_checkpoint": ("self_s",),
    "training.train": ("self_s",),
    "training.loss": _ALL,
    "training.split_and_normalize": ("self_s",),
    "training.clone_model": ("calls",),
    "training.write_history": ("self_s",),
    "power.network_power_soft": _ALL,
    "power.network_power_hard": _ALL,
    "scenario.generate_scenario": _ALL,
    "scenario.build_graph": _ALL,
    "scenario.to_record": _ALL,
    "scenario.write_jsonl": ("self_s",),
    "scenario.read_jsonl": ("self_s",),
    "scenario.from_record": _ALL,
    "scenario.normalize_features": ("self_s",),
    "baselines.associate_oracle": _ALL,
    "baselines.associate_ga_subsinr": _ALL,
    "baselines.associate_rsrp": _ALL,
    "evaluate.evaluate_policy": _ALL,
    "evaluate.export_heatmaps": ("self_s",),
    "config": ("self_s",),
    "cli.gen": ("self_s",),
    "cli.train": ("self_s",),
    "cli.eval": ("self_s",),
}
STAT_UNITS = {"calls": "count", "self_s": "s", "p50_ms": "ms", "tail_ms": "ms"}
# exact counts: identical in every pass, checked as an operation
EXACT_COUNTS = {
    "autodiff.ops_per_step": "count",
    "training.steps": "count",
    "training.forwards_per_step": "count",
    "scenario.dataset_bytes_per_record": "B",
    "gat.checkpoint_bytes": "B",
}


def per_layer_units() -> dict:
    units = {
        f"{span}.{stat}": STAT_UNITS[stat]
        for span, stats in LAYER_STATS.items() for stat in stats
    }
    units.update(EXACT_COUNTS)
    units["trace_overhead_pct"] = "%"
    return units


# ---------------------------------------------------------------------------
# one pass


class Ops:
    """Attempted and failed operations: CLI commands and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[dict] = []

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append({"op": name, "detail": detail})
        return ok


def run_command(cli, argv) -> tuple[bool, float, str]:
    """Time one `nesua` command in-process; its output is captured."""
    gc.collect()
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # the command crashed; report it as a failed operation
            code = None
            captured.write(traceback.format_exc())
        seconds = time.perf_counter() - start
    return code == 0, seconds, f"exit {code}: {captured.getvalue()[-2000:]}"


def reference_s() -> float:
    """Seconds a fixed reference workload takes now.

    The host is shared: the same code runs up to 1.8x slower for seconds to
    minutes at a time.  The reference does a little of each kind of work the
    pipeline spends its time on (interpreted loops, the json module, numpy on
    small arrays and on arrays larger than the caches), so a slow stretch
    slows a command and the references around it alike.  It uses nothing
    from the package, so a change to nesua cannot move it.
    """
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    json.loads(json.dumps(_REF_FLOATS))
    for _ in range(30):
        for x in _REF_SMALL:
            (x * 2.0 + x).sum()
    y = np.minimum(1.0, _REF_LARGE * 0.5 + _REF_LARGE)
    (y > 0.3).all(axis=1)
    y.sum(axis=1)
    return time.perf_counter() - start


def run_pass(cli, pass_dir, run_files, seeds, ops: Ops) -> tuple[dict, dict] | None:
    """gen (training set), gen (held-out set), train, eval; None on failure.

    Returns the seconds of each kind of command, as measured and scaled to
    the nominal host speed.  A command's scale is REF_NOMINAL_S over the
    mean of the reference times taken just before and just after it.
    """
    train_cfg, eval_cfg = run_files
    train_seed, eval_seed = (str(s) for s in seeds)
    gen, gen_eval, train, evaluated = (
        os.path.join(pass_dir, name) for name in ("gen", "gen_eval", "train", "eval")
    )
    commands = (
        ("gen", ["gen", "--config", train_cfg, "--seed", train_seed, "--out", gen]),
        ("gen", ["gen", "--config", eval_cfg, "--seed", eval_seed, "--out", gen_eval]),
        ("train", [
            "train", "--config", train_cfg, "--seed", train_seed,
            "--dataset", os.path.join(gen, "dataset.jsonl"), "--out", train,
        ]),
        ("eval", [
            "eval", "--config", eval_cfg, "--seed", eval_seed,
            "--dataset", os.path.join(gen_eval, "dataset.jsonl"),
            "--checkpoint", os.path.join(train, "checkpoint_best.json"),
            "--out", evaluated,
        ]),
    )
    times = {"gen": 0.0, "train": 0.0, "eval": 0.0}
    scaled = dict(times)
    before = reference_s()
    for kind, argv in commands:
        ok, seconds, detail = run_command(cli, argv)
        if not ops.record(f"cli.{kind}", ok, detail):
            return None
        after = reference_s()
        times[kind] += seconds
        scaled[kind] += seconds * REF_NOMINAL_S / ((before + after) / 2)
        before = after
    return times, scaled


def measure_setup(run_dir, config: dict) -> tuple[float, float]:
    """Set-up seconds of one fresh interpreter, started and waited for, and
    the reference seconds taken right after it."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "probe.py"), json.dumps(config),
         os.path.join(run_dir, "probe.json")],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return float(proc.stdout.strip().splitlines()[-1]) - start, reference_s()


# ---------------------------------------------------------------------------
# environment


def _commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except OSError:
        return None
    return proc.stdout.strip() or None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)):
        digest.update(os.path.relpath(path, SRC).encode() + b"\0")
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def _blas() -> dict:
    import ctypes

    import numpy as np

    info = {"threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError):
        pass
    libs_dir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for lib_path in glob.glob(os.path.join(libs_dir, "*openblas*")):
        lib = ctypes.CDLL(lib_path)
        for symbol in (
            "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def environment(args, seeds) -> dict:
    import numpy as np

    return {
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas(),
        "workload": args.workload,
        "seed": args.seed,
        "train_seed": seeds[0],
        "eval_seed": seeds[1],
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# main


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def run_passes(args, wl, cli, run_dir, run_files, seeds, full_cfg, ops, probe) -> list[dict]:
    """Repeat passes until the next one would overrun `--seconds`.

    After the warm-up pass, traced runs alternate untraced and traced
    passes.  Every pass is checked, fingerprinted and deleted before the
    next one starts.  `probe`, if given, times one set-up after each pass,
    so that set-up is sampled across the whole run.
    """
    run_id = os.path.basename(run_dir)
    kinds = ("plain", "traced") if args.trace else ("plain",)
    passes = []
    t0 = time.perf_counter()
    deadline = time.monotonic() + args.seconds
    with contextlib.ExitStack() as stack:
        if args.trace:
            trace_fh = stack.enter_context(
                gzip.open(os.path.join(run_dir, "trace.jsonl.gz"), "wt")
            )
        while True:
            n = len(passes)
            kind = "warmup" if n < WARMUP_PASSES else kinds[(n - WARMUP_PASSES) % len(kinds)]
            pass_dir = os.path.join(run_dir, f"pass{n}")
            tracer = spans.Tracer(f"{run_id}/pass{n}") if kind == "traced" else None
            started = time.monotonic()
            if tracer:
                tracer.install()
            try:
                timed = run_pass(cli, pass_dir, run_files, seeds, ops)
            finally:
                if tracer:
                    tracer.uninstall()
            if timed is None:
                return passes
            times, scaled = timed
            if probe:
                probe()
            result = {
                "kind": kind,
                "times": times,
                "scaled_times": scaled,
                "pipeline_s": sum(times.values()),
                "wall_s": time.monotonic() - started,
                "fingerprint": checks.fingerprint(pass_dir),
                "best_test_loss": checks.best_test_loss(pass_dir),
                "gain_vs_rsrp_pct": checks.gain_vs_rsrp_pct(pass_dir),
                "counts": checks.file_counts(pass_dir, wl.dataset_size),
            }
            for name, ok, detail in checks.check_pass(pass_dir, wl, full_cfg):
                ops.record(name, ok, detail)
            if passes:
                ops.record(
                    "fingerprint_repeat",
                    result["fingerprint"] == passes[0]["fingerprint"],
                    f"{result['fingerprint']} vs {passes[0]['fingerprint']}",
                )
            if tracer:
                stats = tracer.pass_stats()
                result["counts"].update(stats["counts"])
                result["spans"] = stats["spans"]
                result["missing_sites"] = tracer.missing
                tracer.write(trace_fh, t0)
                first = next((p for p in passes if p["kind"] == "traced"), None)
                if first:
                    ops.record(
                        "exact_counts_repeat",
                        result["counts"] == first["counts"],
                        f"{result['counts']} vs {first['counts']}",
                    )
            shutil.rmtree(pass_dir, ignore_errors=True)
            passes.append(result)
            typical = statistics.median(p["wall_s"] for p in passes)
            enough = len(passes) >= WARMUP_PASSES + MIN_PASSES[args.trace]
            if enough and time.monotonic() + typical > deadline:
                return passes


def end_to_end_values(wl, plain, setup, ops, scaled=True) -> dict:
    """End-to-end metrics; with `scaled`, timings at the nominal host speed.

    Timings are means over the timed passes, not medians: the host switches
    between a fast and a slow speed, and a median jumps from one to the
    other as the share of slow passes crosses one half.
    """
    times = "scaled_times" if scaled else "times"

    def seconds(key):
        return statistics.fmean(p[times][key] for p in plain)

    return {
        "setup_s": statistics.median(
            REF_NOMINAL_S * s / ref if scaled else s for s, ref in setup
        ),
        "gen_records_per_s": (wl.dataset_size + wl.eval_size) / seconds("gen"),
        "train_steps_per_s": wl.train_split * wl.epochs / seconds("train"),
        "eval_instances_per_s": wl.eval_size / seconds("eval"),
        "pipeline_s": sum(seconds(key) for key in ("gen", "train", "eval")),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "best_test_loss": plain[0]["best_test_loss"],
        "gain_vs_rsrp_pct": plain[0]["gain_vs_rsrp_pct"],
        "ops_ok_frac": 1.0 - len(ops.failures) / ops.attempted,
    }


def per_layer_values(plain, traced) -> tuple[dict, dict]:
    layer, samples = spans.summarize([p["spans"] for p in traced])
    values = {
        f"{span}.{stat}": layer.get(span, {}).get(stat, 0)
        for span, stats in LAYER_STATS.items() for stat in stats
    }
    values.update({name: traced[0]["counts"][name] for name in EXACT_COUNTS})
    untraced_s = statistics.median(p["pipeline_s"] for p in plain)
    traced_s = statistics.median(p["pipeline_s"] for p in traced)
    values["trace_overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
    return values, samples


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "nesua", "cli.py")):
        print(f"no nesua sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from nesua import cli
    from nesua.config import RunConfig

    wl = WORKLOADS[args.workload]
    seeds = (args.seed * SEED_STRIDE, args.seed * SEED_STRIDE + EVAL_SEED_OFFSET)
    run_dir = os.path.join(
        WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    )
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    docs = wl.run_files(*seeds)
    run_files = [os.path.join(run_dir, name) for name in ("train_cfg.json", "eval_cfg.json")]
    for path, doc in zip(run_files, docs):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
    full_cfg = RunConfig.from_dict(docs[1]).to_dict()

    setup: list[tuple[float, float]] = []

    def probe():
        setup.append(measure_setup(run_dir, docs[0]))

    ops = Ops()
    passes = run_passes(
        args, wl, cli, run_dir, run_files, seeds, full_cfg, ops, None if args.trace else probe
    )
    while not args.trace and len(setup) < SETUP_PROBES:
        probe()
    plain = [p for p in passes if p["kind"] == "plain"]
    traced = [p for p in passes if p["kind"] == "traced"]
    if not plain or (args.trace and not traced):
        print(f"no pass completed: {ops.failures}", file=sys.stderr)
        return 1

    if args.trace:
        values, samples = per_layer_values(plain, traced)
        units = per_layer_units()
    else:
        values = end_to_end_values(wl, plain, setup, ops)
        samples = {"setup_s": len(setup), "timed_passes": len(plain)}
        units = END_TO_END
    unscaled = {} if args.trace else end_to_end_values(wl, plain, setup, ops, scaled=False)
    detail = {
        "run_dir": os.path.relpath(run_dir, ROOT),
        "env": environment(args, seeds),
        "samples": samples,
        "setup_samples_s": [s for s, _ in setup],
        "setup_refs_s": [ref for _, ref in setup],
        "unscaled": unscaled,
        "passes": [{k: v for k, v in p.items() if k != "spans"} for p in passes],
        "failures": ops.failures,
    }
    result = {
        "correct": not ops.failures,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    with open(os.path.join(run_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=2, sort_keys=True)
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
