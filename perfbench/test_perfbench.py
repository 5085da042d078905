"""Tests of the benchmark itself, on a workload small enough to run in seconds.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import csv
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402

TINY = run.Workload(
    config={
        "scenario": {
            "n_cells": 2, "inter_site_distance": 500.0,
            "region": [2200.0, 2200.0], "n_ues": 3, "tx_power_dbm": 40.0,
        },
        "gat": {"hidden_dim": 4, "readout_activation": "identity"},
        "train": {"lr": 1e-3, "lambda1": 1.0, "lambda2": 0.1},
    },
    dataset_size=6, epochs=2, eval_size=3, needs_oracle=True,
)


@pytest.fixture
def bench(tmp_path, monkeypatch, capsys):
    """Run `run.main` on the tiny workload; returns (detail, result)."""
    monkeypatch.setitem(run.WORKLOADS, "tiny", TINY)
    monkeypatch.setattr(run, "WORK", str(tmp_path))
    monkeypatch.setattr(run, "SETUP_PROBES", 2)

    def go(seed, trace=0):
        code = run.main([
            "--workload", "tiny", "--seed", str(seed), "--seconds", "0.01",
            "--trace", str(trace),
        ])
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        return json.loads(lines[-2])["detail"], json.loads(lines[-1])

    return go


def test_runs_at_one_seed_match_and_other_seeds_differ(bench):
    first, res = bench(1)
    again, _ = bench(1)
    other, _ = bench(2)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0

    def prints(detail):
        return {p["fingerprint"] for p in detail["passes"]}

    assert len(prints(first)) == 1
    assert prints(first) == prints(again)
    assert prints(first).isdisjoint(prints(other))
    assert [p["best_test_loss"] for p in first["passes"]] == [
        p["best_test_loss"] for p in again["passes"]
    ]


def test_end_to_end_metrics_match_benchmark_json(bench):
    _, res = bench(3)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: m["unit"] for name, m in res["metrics"].items()
    }
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_run_reports_every_layer_and_exact_counts(bench):
    detail, res = bench(4, trace=1)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: m["unit"] for name, m in res["metrics"].items()
    }
    assert res["correct"]
    m = {name: v["value"] for name, v in res["metrics"].items()}
    steps = TINY.train_split * TINY.epochs
    assert m["training.steps"] == steps
    test_split = TINY.dataset_size - TINY.train_split
    assert m["training.forwards_per_step"] == test_split / TINY.train_split
    assert m["autodiff.ops_per_step"] > 0
    assert m["baselines.associate_oracle.calls"] == TINY.eval_size
    assert m["gat.layer1.calls"] == m["gat.layer2.calls"] == m["gat.forward.calls"]
    assert m["training.clone_model.calls"] >= 1
    traced = [p for p in detail["passes"] if p["kind"] == "traced"]
    assert len(traced) >= 2 and not traced[0]["missing_sites"]
    assert len({p["fingerprint"] for p in detail["passes"]}) == 1
    # the wrappers are gone once the traced pass ends
    from nesua import autodiff, cli

    assert cli.train.__module__ == "nesua.training"
    assert not hasattr(autodiff.matmul, "__wrapped__")


def test_checks_catch_a_wrong_gain(tmp_path):
    sys.path.insert(0, run.SRC)
    from nesua import cli
    from nesua.config import RunConfig

    docs = TINY.run_files(7, 70)
    files = []
    for name, doc in zip(("train.json", "eval.json"), docs):
        files.append(str(tmp_path / name))
        with open(files[-1], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    ops = run.Ops()
    pass_dir = str(tmp_path / "pass")
    assert run.run_pass(cli, pass_dir, files, (7, 70), ops) is not None
    cfg = RunConfig.from_dict(docs[1]).to_dict()
    assert all(ok for _, ok, _ in checks.check_pass(pass_dir, TINY, cfg))

    path = os.path.join(pass_dir, "eval", "eval.csv")
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    rows[0]["gain_vs_rsrp_pct"] = repr(float(rows[0]["gain_vs_rsrp_pct"]) + 1e-3)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    failed = {name for name, ok, _ in checks.check_pass(pass_dir, TINY, cfg) if not ok}
    assert failed == {"eval_gains", "eval_summary"}


def test_fails_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
