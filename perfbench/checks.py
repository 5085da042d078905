"""Output checks and the output fingerprint of one pipeline pass.

Every check reads the files the commands wrote and recomputes what it can
from first principles, so a wrong number fails here even when the command
exited 0.  Each check is one operation towards `attempted`/`failed`.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

# files that make up the fingerprint, relative to one pass directory
FINGERPRINT_FILES = (
    "gen/dataset.jsonl",
    "gen_eval/dataset.jsonl",
    "train/history.csv",
    "train/checkpoint_last.json",
    "train/checkpoint_best.json",
    "eval/eval.csv",
)

REL_TOL = 1e-9


def fingerprint(pass_dir) -> str:
    digest = hashlib.sha256()
    for rel in FINGERPRINT_FILES:
        digest.update(rel.encode() + b"\0")
        with open(os.path.join(pass_dir, rel), "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
    return digest.hexdigest()


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL)


def full_load_cell_w(power: dict) -> float:
    """Draw of one cell at utilization 1, from the power section constants."""
    denom = (1.0 + power["epsilon"]) * power["sigma_max"]
    radio_const = power["n_tx"] * power["epsilon"] * power["p_max_pa_w"] / denom
    radio_slope = power["n_tx"] * (power["p_max_pa_w"] if power["eta_as_pout"] else 1.0) / denom
    return (
        power["p_fixed_w"] + power["p_bb0_w"] + power["p_bb_slope_w"]
        + radio_const + radio_slope
    )


def _check_dataset(gen_dir, expected: int):
    with open(os.path.join(gen_dir, "manifest.json"), encoding="utf-8") as fh:
        count = json.load(fh)["count"]
    with open(os.path.join(gen_dir, "dataset.jsonl"), "rb") as fh:
        lines = sum(1 for line in fh if line.strip())
    ok = count == expected and lines == expected
    return ok, f"manifest {count}, lines {lines}, expected {expected}"


def _check_history(train_dir, epochs: int):
    with open(os.path.join(train_dir, "history.csv"), encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    epochs_seen = [int(r["epoch"]) for r in rows]
    finite = all(
        math.isfinite(float(r[col]))
        for r in rows for col in ("mean_train_loss", "mean_test_loss", "lr")
    )
    ok = epochs_seen == list(range(1, epochs + 1)) and finite
    return ok, f"{len(rows)} rows for {epochs} epochs, finite={finite}"


def _read_eval(eval_dir):
    with open(os.path.join(eval_dir, "eval.csv"), encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        return reader.fieldnames, list(reader)


def _check_eval_rows(header, rows, expected: int, needs_oracle: bool, cfg: dict):
    n = cfg["scenario"]["n_cells"]
    lo = n * cfg["power"]["p_sleep_w"]
    hi = n * full_load_cell_w(cfg["power"])
    power_cols = [c for c in header if c.endswith("_power_w")]
    bad = [
        (r["seed"], c, r[c]) for r in rows for c in power_cols
        if not (math.isfinite(float(r[c])) and lo <= float(r[c]) <= hi)
    ]
    oracle_ok = "oracle_power_w" in header or not needs_oracle
    ok = len(rows) == expected and not bad and oracle_ok
    return ok, (
        f"{len(rows)} rows for {expected} instances, powers within "
        f"[{lo}, {hi}] W: {not bad} {bad[:3]}, oracle column if needed: {oracle_ok}"
    )


def _check_gains(rows):
    bad = []
    for r in rows:
        gnn = float(r["gnn_power_w"])
        for base in ("rsrp", "subsinr"):
            ref = float(r[f"{base}_power_w"])
            want = 100.0 * (ref - gnn) / ref
            if not _close(float(r[f"gain_vs_{base}_pct"]), want):
                bad.append((r["seed"], base))
    return not bad, f"gain columns recomputed from powers, mismatches {bad[:3]}"


def _check_summary(eval_dir, header, rows):
    with open(os.path.join(eval_dir, "eval_summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    bad = []
    if summary.get("n_instances") != len(rows):
        bad.append("n_instances")
    for col in header[1:]:
        mean = sum(float(r[col]) for r in rows) / len(rows)
        if not _close(summary.get(f"mean_{col}", math.nan), mean):
            bad.append(col)
    return not bad, f"summary means equal CSV means, mismatches {bad}"


def check_pass(pass_dir, wl, cfg: dict) -> list[tuple[str, bool, str]]:
    """Run every output check on one pass; returns (name, ok, detail) rows.

    A check that cannot read its input fails rather than raising.
    """
    eval_dir = os.path.join(pass_dir, "eval")
    results = []

    def run(name, fn, *args):
        try:
            ok, detail = fn(*args)
        except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append((name, ok, detail))

    run("gen_train_count", _check_dataset, os.path.join(pass_dir, "gen"), wl.dataset_size)
    run("gen_eval_count", _check_dataset, os.path.join(pass_dir, "gen_eval"), wl.eval_size)
    run("history_rows", _check_history, os.path.join(pass_dir, "train"), wl.epochs)
    try:
        header, rows = _read_eval(eval_dir)
    except OSError as exc:
        for name in ("eval_rows", "eval_gains", "eval_summary"):
            results.append((name, False, f"eval.csv unreadable: {exc}"))
        return results
    run("eval_rows", _check_eval_rows, header, rows, wl.eval_size, wl.needs_oracle, cfg)
    run("eval_gains", _check_gains, rows)
    run("eval_summary", _check_summary, eval_dir, header, rows)
    return results


def best_test_loss(pass_dir) -> float:
    with open(os.path.join(pass_dir, "train", "history.csv"), encoding="utf-8") as fh:
        return min(float(r["mean_test_loss"]) for r in csv.DictReader(fh))


def gain_vs_rsrp_pct(pass_dir) -> float:
    with open(os.path.join(pass_dir, "eval", "eval_summary.json"), encoding="utf-8") as fh:
        return float(json.load(fh)["mean_gain_vs_rsrp_pct"])


def file_counts(pass_dir, records: int) -> dict:
    """Exact byte counts of the stored artifacts."""
    def size(rel):
        return os.path.getsize(os.path.join(pass_dir, rel))

    return {
        "scenario.dataset_bytes_per_record": size("gen/dataset.jsonl") / records,
        "gat.checkpoint_bytes": size("train/checkpoint_last.json")
        + size("train/checkpoint_best.json"),
    }
