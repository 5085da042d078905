"""End-to-end command behavior: files, exit codes, reproducibility."""

import base64
import dataclasses
import json
import math
import os

import numpy as np
import pytest

from nesua import cli, gat
from nesua.codec import decode_array, encode_array
from nesua.config import RunConfig
from nesua.errors import ConfigError
from nesua.scenario import generate_scenario, to_record, write_jsonl

from helpers import reference_generate_scenario


def _cfg_dict(**over):
    data = {
        "scenario": {
            "n_cells": 2,
            "inter_site_distance": 500.0,
            "region": [2200.0, 2200.0],
            "n_ues": 3,
            "tx_power_dbm": 40.0,
        },
        "gat": {"hidden_dim": 4, "readout_activation": "identity"},
        "train": {
            "dataset_size": 6,
            "epochs": 2,
            "lr": 1e-3,
            "lambda1": 1.0,
            "lambda2": 0.1,
        },
        "eval": {"n_instances": 2},
        "seed": 1,
    }
    for key, section in over.items():
        if isinstance(section, dict):
            data.setdefault(key, {}).update(section)
        else:
            data[key] = section
    return data


def _write_cfg(tmp_path, name="cfg.json", **over):
    path = tmp_path / name
    path.write_text(json.dumps(_cfg_dict(**over)))
    return str(path)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.fixture(autouse=True)
def _single_worker(monkeypatch):
    monkeypatch.setenv("NESUA_THREADS", "1")


def test_gen_writes_dataset_manifest_and_config(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["gen", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "dataset.jsonl").read_text().splitlines()
    assert len(lines) == 6
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["count"] == len(lines)
    assert manifest["seed"] == 1
    merged = json.loads((out / "config.json").read_text())
    assert merged["train"]["dataset_size"] == 6
    first = json.loads(lines[0])
    assert "config_digest" not in first  # the manifest's alone


def test_gen_rerun_is_byte_identical(tmp_path):
    cfg = _write_cfg(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["gen", "--config", cfg, "--out", str(a)]) == 0
    assert cli.main(["gen", "--config", cfg, "--out", str(b)]) == 0
    assert _read(a / "dataset.jsonl") == _read(b / "dataset.jsonl")
    assert _read(a / "manifest.json") != b"" # sanity: file exists and is nonempty
    ma = json.loads((a / "manifest.json").read_text())
    mb = json.loads((b / "manifest.json").read_text())
    assert ma["config_digest"] == mb["config_digest"]


# one chunk and a seed; the last case draws with zero shadowing, where the
# scaled shadowing draws are -0.0, in a non-square region
@pytest.mark.parametrize(
    "n_ues, size, scenario",
    [
        (7, 53, {}),
        (50, 8, {}),
        (7, 53, {"region": [3200.0, 2600.0], "shadowing_sigma_db": 0.0}),
    ],
    ids=["7-53", "50-8", "7-53-unshadowed-non-square"],
)
def test_gen_dataset_equals_one_written_from_per_seed_draws(
    tmp_path, n_ues, size, scenario
):
    path = tmp_path / "cfg.json"
    doc = {
        "scenario": {"n_ues": n_ues, **scenario},
        "train": {"dataset_size": size},
        "seed": 11,
    }
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli.main(["gen", "--config", str(path), "--out", str(out)]) == 0
    cfg = RunConfig.from_dict(doc)
    records = []
    for seed in range(11, 11 + size):
        s = reference_generate_scenario(cfg.scenario, seed)
        records.append(to_record(s))
    write_jsonl(tmp_path / "reference.jsonl", records)
    assert _read(out / "dataset.jsonl") == _read(tmp_path / "reference.jsonl")


def test_seed_flag_overrides_config(tmp_path):
    cfg = _write_cfg(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["gen", "--config", cfg, "--out", str(a), "--seed", "7"]) == 0
    assert cli.main(["gen", "--config", cfg, "--out", str(b)]) == 0
    assert _read(a / "dataset.jsonl") != _read(b / "dataset.jsonl")
    assert json.loads((a / "manifest.json").read_text())["seed"] == 7


def test_unknown_config_key_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    data = _cfg_dict()
    data["scenario"]["n_celns"] = 3  # typo must not fall back to defaults
    del data["scenario"]["n_cells"]
    path.write_text(json.dumps(data))
    assert cli.main(["gen", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "n_celns" in capsys.readouterr().err


def test_invalid_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert cli.main(["gen", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


def test_missing_config_file_exits_3(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert cli.main(["gen", "--config", missing, "--out", str(tmp_path / "o")]) == 3


def test_missing_dataset_exits_3(tmp_path):
    cfg = _write_cfg(tmp_path)
    code = cli.main([
        "train", "--config", cfg, "--out", str(tmp_path / "o"),
        "--dataset", str(tmp_path / "nope.jsonl"),
    ])
    assert code == 3


def test_dataset_from_another_scenario_exits_2(tmp_path, capsys):
    # a 20 MHz dataset must not be trained or scored against a 5 MHz carrier
    wide = _write_cfg(tmp_path, name="wide.json", scenario={"bandwidth_mhz": 20.0})
    narrow = _write_cfg(tmp_path, name="narrow.json", scenario={"bandwidth_mhz": 5.0})
    data_dir, run_dir = _gen_and_train(tmp_path, wide)
    dataset = str(data_dir / "dataset.jsonl")
    capsys.readouterr()
    code = cli.main([
        "train", "--config", narrow, "--out", str(tmp_path / "t5"),
        "--dataset", dataset,
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert str(data_dir / "manifest.json") in err and narrow in err
    code = cli.main([
        "eval", "--config", narrow, "--out", str(tmp_path / "e5"),
        "--dataset", dataset,
        "--checkpoint", str(run_dir / "checkpoint_best.json"),
    ])
    assert code == 2
    assert not (tmp_path / "t5").exists() and not (tmp_path / "e5").exists()


def test_dataset_without_manifest_exits_3(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    data_dir = tmp_path / "data"
    assert cli.main(["gen", "--config", cfg, "--out", str(data_dir)]) == 0
    (data_dir / "manifest.json").unlink()
    code = cli.main([
        "train", "--config", cfg, "--out", str(tmp_path / "o"),
        "--dataset", str(data_dir / "dataset.jsonl"),
    ])
    assert code == 3
    assert "manifest.json" in capsys.readouterr().err


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["bogus-command"])
    assert exc.value.code == 2


def _gen_and_train(tmp_path, cfg_path, out_name="run", extra=()):
    data_dir = tmp_path / "data"
    assert cli.main(["gen", "--config", cfg_path, "--out", str(data_dir)]) == 0
    run_dir = tmp_path / out_name
    code = cli.main([
        "train", "--config", cfg_path, "--out", str(run_dir),
        "--dataset", str(data_dir / "dataset.jsonl"), *extra,
    ])
    assert code == 0
    return data_dir, run_dir


def test_train_writes_history_and_checkpoints(tmp_path):
    cfg = _write_cfg(tmp_path)
    _, run_dir = _gen_and_train(tmp_path, cfg)
    history = (run_dir / "history.csv").read_text().splitlines()
    assert history[0] == "epoch,mean_train_loss,mean_test_loss,lr"
    assert len(history) == 1 + 2  # header + one row per epoch
    assert (run_dir / "checkpoint_last.json").exists()
    assert (run_dir / "checkpoint_best.json").exists()
    assert (run_dir / "config.json").exists()


def test_train_rerun_is_bit_identical(tmp_path):
    cfg = _write_cfg(tmp_path)
    _, run_a = _gen_and_train(tmp_path, cfg, out_name="run_a")
    _, run_b = _gen_and_train(tmp_path, cfg, out_name="run_b")
    for name in ("history.csv", "checkpoint_last.json", "checkpoint_best.json"):
        assert _read(run_a / name) == _read(run_b / name)


def test_train_zero_epochs_equals_initialization(tmp_path):
    cfg = _write_cfg(tmp_path, train={"epochs": 0})
    _, run_dir = _gen_and_train(tmp_path, cfg)
    history = (run_dir / "history.csv").read_text().splitlines()
    assert history == ["epoch,mean_train_loss,mean_test_loss,lr"]
    model, _ = gat.load_checkpoint(run_dir / "checkpoint_last.json")
    init = gat.init_model(
        6, 2, gat.GatConfig(hidden_dim=4, readout_activation="identity"), seed=1
    )
    for name, view in model.params.items():
        assert np.array_equal(view, init.params[name])


def _resume_matches_straight(tmp_path, epochs, **train):
    """Train to epochs // 2, resume to `epochs`, and compare with a run
    trained straight to `epochs`."""
    cfg_full = _write_cfg(tmp_path, name="full.json", train={**train, "epochs": epochs})
    cfg_half = _write_cfg(tmp_path, name="half.json", train={**train, "epochs": epochs // 2})
    _, run_full = _gen_and_train(tmp_path, cfg_full, out_name="full")
    data_dir, run_half = _gen_and_train(tmp_path, cfg_half, out_name="half")
    resumed = tmp_path / "resumed"
    code = cli.main([
        "train", "--config", cfg_full, "--out", str(resumed),
        "--dataset", str(data_dir / "dataset.jsonl"),
        "--checkpoint", str(run_half / "checkpoint_last.json"),
    ])
    assert code == 0
    for name in ("history.csv", "checkpoint_last.json"):
        assert _read(resumed / name) == _read(run_full / name), name


def test_train_resume_matches_uninterrupted_run(tmp_path):
    _resume_matches_straight(tmp_path, 4)


def test_an_integer_lr_resumes_like_a_straight_run(tmp_path):
    # a float key given as a JSON integer is stored as a float, so the lr
    # of the history rows a resume reads back is written as in the new ones
    _resume_matches_straight(tmp_path, 2, lr=1)


def test_resume_under_other_optimizer_settings_exits_2(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    data_dir, run_dir = _gen_and_train(tmp_path, cfg)
    other = _write_cfg(
        tmp_path, name="other.json", train={"epochs": 4, "lr": 0.5, "beta2": 0.99}
    )
    last = run_dir / "checkpoint_last.json"
    capsys.readouterr()
    code = cli.main([
        "train", "--config", other, "--out", str(tmp_path / "r2"),
        "--dataset", str(data_dir / "dataset.jsonl"), "--checkpoint", str(last),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert str(last) in err and other in err
    assert "lr 0.001 vs 0.5" in err and "beta2 0.999 vs 0.99" in err
    assert "beta1" not in err
    assert not (tmp_path / "r2").exists()


@pytest.mark.parametrize(
    "over, named",
    [
        ({"train": {"lambda2": 5}}, "train: lambda2 0.1 vs 5"),
        ({"power": {"p_fixed_w": 300.0}}, "power: p_fixed_w 100.0 vs 300.0"),
    ],
    ids=["loss", "power"],
)
def test_resume_under_another_objective_exits_2(tmp_path, capsys, over, named):
    cfg = _write_cfg(tmp_path)
    data_dir, run_dir = _gen_and_train(tmp_path, cfg)
    last = run_dir / "checkpoint_last.json"
    stamped = json.loads(last.read_text())
    assert stamped["config"]["train"]["lambda1"] == 1.0
    assert stamped["config"]["train"]["lambda2"] == 0.1
    assert stamped["config"]["power"]["p_fixed_w"] == 100.0
    train = {"epochs": 4, **over.get("train", {})}
    other = _write_cfg(tmp_path, name="other.json", **{**over, "train": train})
    capsys.readouterr()
    code = cli.main([
        "train", "--config", other, "--out", str(tmp_path / "r2"),
        "--dataset", str(data_dir / "dataset.jsonl"), "--checkpoint", str(last),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert str(last) in err and other in err and named in err
    assert "lambda1" not in err and "p_bb0_w" not in err
    assert not (tmp_path / "r2").exists()


# each case trains on a dataset generated for its own config, so only the
# checkpoint's stamp can refuse it
@pytest.mark.parametrize(
    "over, named",
    [
        ({"train": {"dataset_size": 8}}, "train: dataset_size 6 vs 8"),
        ({"train": {"shuffle_seed": 3}}, "train: shuffle_seed 0 vs 3"),
        ({"seed": 2}, "seed: 1 vs 2"),
        ({"scenario": {"bandwidth_mhz": 10.0}}, "scenario: bandwidth_mhz 20.0 vs 10.0"),
    ],
    ids=["dataset_size", "shuffle_seed", "seed", "scenario"],
)
def test_resume_of_another_run_exits_2(tmp_path, capsys, over, named):
    cfg = _write_cfg(tmp_path)
    _, run_dir = _gen_and_train(tmp_path, cfg)
    last = run_dir / "checkpoint_last.json"
    train = {"epochs": 4, **over.get("train", {})}
    other = _write_cfg(tmp_path, name="other.json", **{**over, "train": train})
    other_data = tmp_path / "other_data"
    assert cli.main(["gen", "--config", other, "--out", str(other_data)]) == 0
    capsys.readouterr()
    code = cli.main([
        "train", "--config", other, "--out", str(tmp_path / "r2"),
        "--dataset", str(other_data / "dataset.jsonl"), "--checkpoint", str(last),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert str(last) in err and other in err and named in err
    assert err.count(" vs ") == 1  # neither epochs nor anything else
    assert not (tmp_path / "r2").exists()


def test_resume_rejects_a_checkpoint_without_a_config_stamp(tmp_path, capsys):
    # the layout of earlier versions, which stamped no config
    cfg = _write_cfg(tmp_path)
    data_dir, run_dir = _gen_and_train(tmp_path, cfg)
    last = run_dir / "checkpoint_last.json"
    doc = json.loads(last.read_text())
    del doc["config"]
    last.write_text(json.dumps(doc))
    capsys.readouterr()
    code = cli.main([
        "train", "--config", cfg, "--out", str(tmp_path / "r2"),
        "--dataset", str(data_dir / "dataset.jsonl"), "--checkpoint", str(last),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert str(last) in err and "config is missing" in err
    assert not (tmp_path / "r2").exists()


# the objective lives in the stamp's `train` weights and its `power` section;
# a stamp that lacks either must not resume under the run's objective
@pytest.mark.parametrize("section", ["loss", "power"])
def test_resume_rejects_a_checkpoint_without_the_objective_stamps(
    tmp_path, capsys, section
):
    named = {
        "loss": ["train: lambda1 None vs 1.0", "train: lambda2 None vs 0.1"],
        "power": ["power: p_fixed_w None vs 100.0"],
    }[section]
    cfg = _write_cfg(tmp_path)
    data_dir, run_dir = _gen_and_train(tmp_path, cfg)
    last = run_dir / "checkpoint_last.json"
    doc = json.loads(last.read_text())
    if section == "loss":
        del doc["config"]["train"]["lambda1"], doc["config"]["train"]["lambda2"]
    else:
        del doc["config"]["power"]
    last.write_text(json.dumps(doc))
    capsys.readouterr()
    code = cli.main([
        "train", "--config", cfg, "--out", str(tmp_path / "r2"),
        "--dataset", str(data_dir / "dataset.jsonl"), "--checkpoint", str(last),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert str(last) in err and cfg in err
    assert all(line in err for line in named)
    assert not (tmp_path / "r2").exists()


def test_resume_rejects_bare_checkpoint(tmp_path):
    cfg = _write_cfg(tmp_path)
    data_dir, run_dir = _gen_and_train(tmp_path, cfg)
    bare = tmp_path / "bare.json"
    model, _ = gat.load_checkpoint(run_dir / "checkpoint_best.json")
    gat.save_checkpoint(bare, model)  # no adam/epoch: not resumable
    code = cli.main([
        "train", "--config", cfg, "--out", str(tmp_path / "r2"),
        "--dataset", str(data_dir / "dataset.jsonl"),
        "--checkpoint", str(bare),
    ])
    assert code == 2


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_divergence_exits_4(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        gat={"activation": "identity", "readout_activation": "identity"},
        train={"lr": 1e200, "epochs": 3},
    )
    data_dir = tmp_path / "data"
    assert cli.main(["gen", "--config", cfg, "--out", str(data_dir)]) == 0
    code = cli.main([
        "train", "--config", cfg, "--out", str(tmp_path / "run"),
        "--dataset", str(data_dir / "dataset.jsonl"),
    ])
    assert code == 4


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_a_non_finite_test_split_loss_exits_4_writing_nothing(tmp_path, capsys):
    # one training instance: its one step is finite, and then the huge
    # learning rate makes the test instance's loss overflow
    cfg = _write_cfg(
        tmp_path,
        gat={"activation": "identity", "readout_activation": "identity"},
        train={"dataset_size": 2, "lr": 1e200, "epochs": 1},
    )
    data_dir = tmp_path / "data"
    assert cli.main(["gen", "--config", cfg, "--out", str(data_dir)]) == 0
    code = cli.main([
        "train", "--config", cfg, "--out", str(tmp_path / "run"),
        "--dataset", str(data_dir / "dataset.jsonl"),
    ])
    assert code == 4
    assert "test-split loss at epoch 1" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_eval_table_includes_all_four_policies(tmp_path):
    cfg = _write_cfg(tmp_path, scenario={"n_ues": 4})
    data_dir, run_dir = _gen_and_train(tmp_path, cfg)
    out = tmp_path / "ev"
    code = cli.main([
        "eval", "--config", cfg, "--out", str(out),
        "--dataset", str(data_dir / "dataset.jsonl"),
        "--checkpoint", str(run_dir / "checkpoint_best.json"),
    ])
    assert code == 0
    lines = (out / "eval.csv").read_text().splitlines()
    header = lines[0].split(",")
    for col in ("gnn_power_w", "rsrp_power_w", "subsinr_power_w", "oracle_power_w"):
        assert col in header
    assert len(lines) == 1 + 6

    # gains recompute exactly from the printed power columns
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        gnn = float(row["gnn_power_w"])
        rsrp = float(row["rsrp_power_w"])
        sub = float(row["subsinr_power_w"])
        assert float(row["gain_vs_rsrp_pct"]) == 100.0 * (rsrp - gnn) / rsrp
        assert float(row["gain_vs_subsinr_pct"]) == 100.0 * (sub - gnn) / sub
        assert float(row["oracle_power_w"]) <= min(gnn, rsrp, sub)

    summary = json.loads((out / "eval_summary.json").read_text())
    assert summary["n_instances"] == 6
    for name in ("heatmap_sinr.csv", "heatmap_gnn.csv", "heatmap_rsrp.csv",
                 "heatmap_ga_subsinr.csv", "heatmap_oracle.csv",
                 "coordinates.csv"):
        assert (out / name).exists()


def test_eval_rerun_is_bit_identical(tmp_path):
    cfg = _write_cfg(tmp_path)
    data_dir, run_dir = _gen_and_train(tmp_path, cfg)
    outs = []
    for name in ("ev_a", "ev_b"):
        out = tmp_path / name
        code = cli.main([
            "eval", "--config", cfg, "--out", str(out),
            "--dataset", str(data_dir / "dataset.jsonl"),
            "--checkpoint", str(run_dir / "checkpoint_best.json"),
        ])
        assert code == 0
        outs.append(out)
    for name in ("eval.csv", "eval_summary.json", "heatmap_sinr.csv"):
        assert _read(outs[0] / name) == _read(outs[1] / name)


def test_eval_needs_only_the_checkpoint_architecture(tmp_path):
    # a model trained at K=3 and 20 MHz is scored at K=5 and 10 MHz, also
    # from a checkpoint without a config stamp, as earlier versions wrote
    cfg = _write_cfg(tmp_path)
    _, run_dir = _gen_and_train(tmp_path, cfg)
    other = _write_cfg(
        tmp_path, name="other.json", scenario={"n_ues": 5, "bandwidth_mhz": 10.0}
    )
    data = tmp_path / "data5"
    assert cli.main(["gen", "--config", other, "--out", str(data)]) == 0
    best = run_dir / "checkpoint_best.json"
    unstamped = tmp_path / "unstamped.json"
    doc = json.loads(best.read_text())
    del doc["config"]
    unstamped.write_text(json.dumps(doc))
    for out, checkpoint in (("ev", best), ("ev_unstamped", unstamped)):
        code = cli.main([
            "eval", "--config", other, "--out", str(tmp_path / out),
            "--dataset", str(data / "dataset.jsonl"), "--checkpoint", str(checkpoint),
        ])
        assert code == 0
    assert _read(tmp_path / "ev" / "eval.csv") == _read(tmp_path / "ev_unstamped" / "eval.csv")


def test_eval_omits_oracle_when_over_budget(tmp_path):
    cfg = _write_cfg(tmp_path, eval={"oracle_budget": 2})
    data_dir, run_dir = _gen_and_train(tmp_path, cfg)
    out = tmp_path / "ev"
    code = cli.main([
        "eval", "--config", cfg, "--out", str(out),
        "--dataset", str(data_dir / "dataset.jsonl"),
        "--checkpoint", str(run_dir / "checkpoint_best.json"),
    ])
    assert code == 0
    header = (out / "eval.csv").read_text().splitlines()[0]
    assert "oracle" not in header


def test_eval_checkpoint_without_stats_exits_2(tmp_path):
    cfg = _write_cfg(tmp_path)
    data_dir, run_dir = _gen_and_train(tmp_path, cfg)
    bare = tmp_path / "bare.json"
    model, _ = gat.load_checkpoint(run_dir / "checkpoint_best.json")
    gat.save_checkpoint(bare, model)
    code = cli.main([
        "eval", "--config", cfg, "--out", str(tmp_path / "ev"),
        "--dataset", str(data_dir / "dataset.jsonl"),
        "--checkpoint", str(bare),
    ])
    assert code == 2


def _sweep_cfg(tmp_path, **over):
    merged = {
        "train": {"dataset_size": 4, "epochs": 1, "lr": 1e-3,
                  "lambda1": 1.0, "lambda2": 0.1},
        "eval": {"n_instances": 2},
    }
    merged.update(over)
    return _write_cfg(tmp_path, name="sweep.json", **merged)


def test_sweep_bandwidth_end_to_end(tmp_path):
    cfg = _sweep_cfg(tmp_path)
    out = tmp_path / "sw"
    code = cli.main([
        "sweep", "bandwidth", "--config", cfg, "--out", str(out),
        "--grid", "w=20;k=2,3",
    ])
    assert code == 0
    assert (out / "w20" / "DONE").exists()
    assert (out / "w20" / "checkpoint_best.json").exists()
    assert [p.name for p in out.glob("sweep_*.csv")] == ["sweep_bandwidth.csv"]
    lines = (out / "sweep_bandwidth.csv").read_text().splitlines()
    assert len(lines) == 1 + 2  # header + |W| * |K| rows
    header = lines[0].split(",")
    assert header[:3] == ["bandwidth_mhz", "n_ues", "n_instances"]
    for line in lines[1:]:
        assert dict(zip(header, line.split(",")))["n_instances"] == "2"


def test_sweep_bandwidth_trains_on_the_samples_it_generated(tmp_path, monkeypatch):
    cfg = _sweep_cfg(tmp_path)
    out = tmp_path / "sw"

    def no_decoding(*args, **kwargs):
        raise AssertionError("a sweep decoded a record")

    with monkeypatch.context() as patched:
        patched.setattr(cli, "from_record", no_decoding)
        for kind, grid in (("bandwidth", "w=20,40;k=2"), ("lambda", "ratio=1")):
            code = cli.main(["sweep", kind, "--config", cfg, "--out", str(out), "--grid", grid])
            assert code == 0
    assert sorted(p.name for p in out.glob("sweep_*.csv")) == [
        "sweep_bandwidth.csv", "sweep_lambda_ratio.csv",
    ]
    assert not list(out.rglob("dataset.jsonl")) and not list(out.rglob("manifest.json"))
    # `gen` and `train` from a point's config.json give its bytes
    for point in ("w20", "ratio1"):
        sub = out / point
        point_cfg = str(sub / "config.json")
        data, again = tmp_path / f"data_{point}", tmp_path / f"again_{point}"
        assert cli.main(["gen", "--config", point_cfg, "--out", str(data)]) == 0
        assert cli.main([
            "train", "--config", point_cfg, "--out", str(again),
            "--dataset", str(data / "dataset.jsonl"),
        ]) == 0
        for name in ("history.csv", "checkpoint_last.json", "checkpoint_best.json"):
            assert _read(sub / name) == _read(again / name), f"{point}/{name}"


def test_sweep_lambda_end_to_end(tmp_path):
    cfg = _sweep_cfg(tmp_path)
    out = tmp_path / "sw"
    code = cli.main([
        "sweep", "lambda", "--config", cfg, "--out", str(out),
        "--grid", "ratio=0,1",
    ])
    assert code == 0
    assert (out / "ratio0" / "DONE").exists()
    assert (out / "ratio1" / "DONE").exists()
    assert [p.name for p in out.glob("sweep_*.csv")] == ["sweep_lambda_ratio.csv"]
    lines = (out / "sweep_lambda_ratio.csv").read_text().splitlines()
    assert len(lines) == 1 + 2
    assert lines[0].split(",")[0] == "lambda_ratio"


@pytest.mark.parametrize(
    "kind, grid, point, values, over",
    [
        ("lambda", "ratio=0,1", "ratio1", {"lambda_ratio": "1"}, {}),
        ("bandwidth", "w=20;k=2,3", "w20", {"bandwidth_mhz": "20", "n_ues": "2"},
         {"n_ues": 2}),
    ],
    ids=["lambda", "bandwidth"],
)
def test_sweep_and_eval_score_alike(tmp_path, kind, grid, point, values, over):
    # eval of a point's model on the held-out scenarios, written by gen,
    # scores them as the sweep row does
    cfg = _sweep_cfg(tmp_path)
    out = tmp_path / "sw"
    assert cli.main(["sweep", kind, "--config", cfg, "--out", str(out), "--grid", grid]) == 0
    doc = json.loads((out / point / "config.json").read_text())
    doc["scenario"].update(over)
    doc["train"]["dataset_size"] = doc["eval"]["n_instances"]
    scored = tmp_path / "scored.json"
    scored.write_text(json.dumps(doc))
    data = tmp_path / "held_out"
    seed = str(doc["seed"] + cli.EVAL_SEED_OFFSET)
    assert cli.main(["gen", "--config", str(scored), "--seed", seed, "--out", str(data)]) == 0
    code = cli.main([
        "eval", "--config", str(scored), "--out", str(tmp_path / "ev"),
        "--dataset", str(data / "dataset.jsonl"),
        "--checkpoint", str(out / point / "checkpoint_best.json"),
    ])
    assert code == 0
    lines = (tmp_path / "ev" / "eval.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert len(rows) == 2
    (table,) = out.glob("sweep_*.csv")
    lines = table.read_text().splitlines()
    header = lines[0].split(",")
    row = next(
        row for row in (dict(zip(header, line.split(","))) for line in lines[1:])
        if all(row[key] == value for key, value in values.items())
    )
    assert row["n_instances"] == "2"
    for col in ("gnn_power_w", "rsrp_power_w", "subsinr_power_w"):
        mean = sum(float(r[col]) for r in rows) / len(rows)
        assert mean == pytest.approx(float(row[f"mean_{col}"]), rel=1e-12), col


def test_sweep_resume_skips_completed_points(tmp_path):
    cfg = _sweep_cfg(tmp_path)
    out = tmp_path / "sw"
    args = [
        "sweep", "lambda", "--config", cfg, "--out", str(out),
        "--grid", "ratio=0,1",
    ]
    assert cli.main(args) == 0
    first = (out / "sweep_lambda_ratio.csv").read_bytes()
    # doctor one finished sub-run; a resumed sweep must not retrain it
    doctored = out / "ratio0" / "checkpoint_best.json"
    doc = json.loads(doctored.read_text())
    doc["sentinel"] = "left by test"
    doctored.write_text(json.dumps(doc))
    marker = doctored.read_bytes()
    assert cli.main(args) == 0
    assert doctored.read_bytes() == marker
    # the rerun rewrites the one table, to the same bytes
    assert [p.name for p in out.glob("sweep_*.csv")] == ["sweep_lambda_ratio.csv"]
    assert (out / "sweep_lambda_ratio.csv").read_bytes() == first


def test_sweep_parallel_workers(tmp_path, monkeypatch):
    monkeypatch.setenv("NESUA_THREADS", "2")
    cfg = _sweep_cfg(tmp_path)
    out = tmp_path / "sw"
    code = cli.main([
        "sweep", "lambda", "--config", cfg, "--out", str(out),
        "--grid", "ratio=0,1",
    ])
    assert code == 0
    assert (out / "ratio0" / "DONE").exists()
    assert (out / "ratio1" / "DONE").exists()


def test_bad_grid_exits_2(tmp_path, capsys):
    cfg = _sweep_cfg(tmp_path)
    out = str(tmp_path / "sw")
    assert cli.main(["sweep", "bandwidth", "--config", cfg, "--out", out,
                     "--grid", "w=20"]) == 2
    assert cli.main(["sweep", "bandwidth", "--config", cfg, "--out", out,
                     "--grid", "w=20,x;k=2"]) == 2
    assert cli.main(["sweep", "lambda", "--config", cfg, "--out", out,
                     "--grid", ""]) == 2
    # a repeated key would sweep only its last values, and a repeated
    # value would train two points into one directory
    capsys.readouterr()
    assert cli.main(["sweep", "bandwidth", "--config", cfg, "--out", out,
                     "--grid", "w=20;w=40;k=3"]) == 2
    assert "grid key 'w' is given twice" in capsys.readouterr().err
    assert cli.main(["sweep", "bandwidth", "--config", cfg, "--out", out,
                     "--grid", "w=20,20.0;k=3"]) == 2
    assert "grid key 'w' repeats a value" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_bad_thread_env_exits_2(tmp_path, monkeypatch):
    monkeypatch.setenv("NESUA_THREADS", "zero")
    cfg = _sweep_cfg(tmp_path)
    code = cli.main([
        "sweep", "lambda", "--config", cfg, "--out", str(tmp_path / "sw"),
        "--grid", "ratio=0",
    ])
    assert code == 2


def test_runconfig_round_trip_and_digest_stability():
    cfg = RunConfig.from_dict(_cfg_dict())
    again = RunConfig.from_dict(cfg.to_dict())
    assert again == cfg
    assert again.digest() == cfg.digest()
    moved = RunConfig.from_dict({**cfg.to_dict(), "out_dir": "elsewhere"})
    assert moved.digest() == cfg.digest()
    changed = RunConfig.from_dict({**cfg.to_dict(), "seed": 99})
    assert changed.digest() != cfg.digest()


def test_the_stamp_keeps_its_key_order():
    # `gat.save_checkpoint` writes the stamp without sorting its keys, so
    # this order is part of every checkpoint's bytes
    stamp = RunConfig().stamp()
    assert list(stamp) == ["scenario", "power", "gat", "eval", "train", "seed"]
    assert list(stamp["train"]) == [
        "dataset_size", "split_fraction", "epochs", "lr", "beta1", "beta2",
        "shuffle_seed", "lambda1", "lambda2",
    ]


# a float, bool or string where the config takes an integer
@pytest.mark.parametrize(
    "section, key, value",
    [
        ("scenario", "n_ues", 3.0),
        ("train", "dataset_size", 4.0),
        ("gat", "hidden_dim", 4.0),
        ("train", "epochs", 1.0),
        ("train", "shuffle_seed", 0.5),
        (None, "seed", "abc"),
        (None, "seed", 3.7),
        (None, "seed", True),
    ],
)
def test_non_integer_for_an_integer_key_exits_2(tmp_path, capsys, section, key, value):
    over = {key: value} if section is None else {section: {key: value}}
    cfg = _write_cfg(tmp_path, **over)
    out = tmp_path / "o"
    assert cli.main(["gen", "--config", cfg, "--out", str(out)]) == 2
    named = key if section is None else f"{section}.{key}"
    assert f"{named} must be an integer, got {value!r}" in capsys.readouterr().err
    assert not out.exists()


# a section that is not a JSON object, including one that dict() would read
@pytest.mark.parametrize(
    "section, value",
    [("scenario", 5), ("train", 5), ("scenario", "x"), ("scenario", [["n_ues", 3]])],
)
def test_a_section_that_is_not_an_object_exits_2(tmp_path, capsys, section, value):
    cfg = _write_cfg(tmp_path, **{section: value})
    out = tmp_path / "o"
    assert cli.main(["gen", "--config", cfg, "--out", str(out)]) == 2
    assert f"section {section!r} must be an object" in capsys.readouterr().err
    assert not out.exists()


# NaN and Infinity parse as JSON numbers, nan and inf as grid values
@pytest.mark.parametrize(
    "over, grid, named",
    [
        ({"scenario": {"bandwidth_mhz": math.nan}}, None, "scenario.bandwidth_mhz"),
        ({"scenario": {"bandwidth_mhz": math.inf}}, None, "scenario.bandwidth_mhz"),
        ({"scenario": {"inter_site_distance": math.nan}}, None,
         "scenario.inter_site_distance"),
        ({"scenario": {"region": [2200.0, math.inf]}}, None, "scenario.region"),
        ({"train": {"lambda2": math.nan}}, None, "train.lambda2"),
        ({"scenario": {"carrier_ghz": -1.0}}, None, "carrier_ghz must be > 0"),
        ({}, "w=nan;k=3", "grid value for key 'w'"),
        ({}, "w=inf;k=3", "grid value for key 'w'"),
        ({"scenario": {"shadowing_sigma_db": -6.0}}, None,
         "shadowing_sigma_db must be >= 0, got -6.0"),
        # finite keys whose link budget is not: a noise power 10**1e307 mW,
        # and received powers that overflow to a NaN SINR in every record
        ({"scenario": {"noise_figure_db": 1e308}}, None, "noise_figure_db"),
        ({"scenario": {"tx_power_dbm": 4000.0}}, None, "tx_power_dbm"),
    ],
)
def test_a_non_finite_number_exits_2(tmp_path, capsys, over, grid, named):
    cfg = _write_cfg(tmp_path, **over)
    out = tmp_path / "o"
    command = ["gen"] if grid is None else ["sweep", "bandwidth", "--grid", grid]
    assert cli.main([*command, "--config", cfg, "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


# a float-typed key and each region extent take JSON numbers: no string,
# no bool (an int to Python, so it would read as 0 or 1), no null
@pytest.mark.parametrize(
    "over, named",
    [
        ({"scenario": {"tx_power_dbm": "40"}}, "scenario.tx_power_dbm"),
        ({"scenario": {"tx_power_dbm": True}}, "scenario.tx_power_dbm"),
        ({"scenario": {"tx_power_dbm": None}}, "scenario.tx_power_dbm"),
        ({"scenario": {"region": [2200.0, "2200"]}}, "scenario.region"),
        ({"train": {"lambda2": False}}, "train.lambda2"),
        ({"power": {"p_fixed_w": [100.0]}}, "power.p_fixed_w"),
    ],
    ids=["string", "true", "null", "string-extent", "false", "list"],
)
def test_a_float_key_takes_json_numbers_only(tmp_path, capsys, over, named):
    cfg = _write_cfg(tmp_path, **over)
    out = tmp_path / "o"
    assert cli.main(["gen", "--config", cfg, "--out", str(out)]) == 2
    assert f"{named} must be a finite number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "grid, named",
    [
        ("w=20;k=2.5", "grid key 'k': scenario.n_ues must be an integer, got 2.5"),
        ("w=20;k=3,0", "grid key 'k': n_ues must be >= 1, got 0"),
    ],
    ids=["fractional-k", "zero-k"],
)
def test_a_grid_value_its_config_key_cannot_take_exits_2(tmp_path, capsys, grid, named):
    # checked before any point trains, as a run file's value would be
    cfg = _sweep_cfg(tmp_path)
    out = tmp_path / "sw"
    code = cli.main(["sweep", "bandwidth", "--config", cfg, "--out", str(out), "--grid", grid])
    assert code == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_runconfig_rejects_unknown_sections():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"scenarios": {}})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"train": {"lambda3": 1.0}})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"eval": {"subsinr_agg": "median"}})


def _truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def test_truncated_checkpoint_exits_2(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    data_dir, run_dir = _gen_and_train(tmp_path, cfg)
    dataset = str(data_dir / "dataset.jsonl")
    best, last = run_dir / "checkpoint_best.json", run_dir / "checkpoint_last.json"
    _truncate(best)
    _truncate(last)
    capsys.readouterr()
    code = cli.main([
        "eval", "--config", cfg, "--out", str(tmp_path / "ev"),
        "--dataset", dataset, "--checkpoint", str(best),
    ])
    assert code == 2
    assert str(best) in capsys.readouterr().err
    code = cli.main([
        "train", "--config", cfg, "--out", str(tmp_path / "r2"),
        "--dataset", dataset, "--checkpoint", str(last),
    ])
    assert code == 2
    assert str(last) in capsys.readouterr().err


def test_truncated_dataset_line_exits_2(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    data_dir = tmp_path / "data"
    assert cli.main(["gen", "--config", cfg, "--out", str(data_dir)]) == 0
    dataset = data_dir / "dataset.jsonl"
    lines = dataset.read_text().splitlines()
    lines[-1] = lines[-1][: len(lines[-1]) // 2]
    dataset.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = cli.main([
        "train", "--config", cfg, "--out", str(tmp_path / "o"),
        "--dataset", str(dataset),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert str(dataset) in err and "line 6" in err


def test_dataset_shorter_than_manifest_exits_2(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    data_dir = tmp_path / "data"
    assert cli.main(["gen", "--config", cfg, "--out", str(data_dir)]) == 0
    dataset = data_dir / "dataset.jsonl"
    lines = dataset.read_text().splitlines()
    dataset.write_text("\n".join(lines[:-1]) + "\n")
    capsys.readouterr()
    code = cli.main([
        "train", "--config", cfg, "--out", str(tmp_path / "o"),
        "--dataset", str(dataset),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert str(dataset) in err and str(data_dir / "manifest.json") in err
    assert not (tmp_path / "o").exists()


def test_old_decimal_list_artifacts_exit_2(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    data_dir, run_dir = _gen_and_train(tmp_path, cfg)
    dataset = data_dir / "dataset.jsonl"
    best, last = run_dir / "checkpoint_best.json", run_dir / "checkpoint_last.json"

    doc = json.loads(best.read_text())
    doc["params"] = [
        {"name": p["name"], "shape": p["shape"],
         "values": decode_array(p).reshape(-1).tolist()}
        for p in doc["params"]
    ]
    best.write_text(json.dumps(doc))
    doc = json.loads(last.read_text())
    doc["adam"]["m"] = [decode_array(b).tolist() for b in doc["adam"]["m"]]
    last.write_text(json.dumps(doc))
    capsys.readouterr()
    code = cli.main([
        "eval", "--config", cfg, "--out", str(tmp_path / "ev"),
        "--dataset", str(dataset), "--checkpoint", str(best),
    ])
    assert code == 2
    assert str(best) in capsys.readouterr().err
    code = cli.main([
        "train", "--config", cfg, "--out", str(tmp_path / "r2"),
        "--dataset", str(dataset), "--checkpoint", str(last),
    ])
    assert code == 2
    assert str(last) in capsys.readouterr().err

    lines = dataset.read_text().splitlines()
    old = json.loads(lines[1])
    for key in ("rsrp_dbm", "sinr_db"):  # the decimal-list layout of earlier versions
        old[key] = decode_array(old[key]).tolist()
    lines[1] = json.dumps(old, separators=(",", ":"))
    dataset.write_text("\n".join(lines) + "\n")
    code = cli.main([
        "train", "--config", cfg, "--out", str(tmp_path / "r3"),
        "--dataset", str(dataset),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert str(dataset) in err and "record 2" in err


@pytest.mark.parametrize(
    "section, index, bad",
    [
        ("m", 0, encode_array(np.zeros(16))),  # gat1.W is (4, 6): no broadcast fits
        ("m", 5, encode_array(np.zeros(1))),  # readout.B is (2,): (1,) would broadcast
        ("v", 5, encode_array(np.zeros(1))),
        # right shape, not float64
        ("m", 1, {"dtype": "<i8", "shape": [8], "b64": base64.b64encode(bytes(64)).decode()}),
        ("v", None, None),  # one moment short
    ],
)
def test_resume_with_mismatched_adam_moments_exits_2(
    tmp_path, capsys, section, index, bad
):
    cfg = _write_cfg(tmp_path)
    data_dir, run_dir = _gen_and_train(tmp_path, cfg)
    last = run_dir / "checkpoint_last.json"
    doc = json.loads(last.read_text())
    if index is None:
        doc["adam"][section].pop()
    else:
        doc["adam"][section][index] = bad
    last.write_text(json.dumps(doc))
    capsys.readouterr()
    code = cli.main([
        "train", "--config", cfg, "--out", str(tmp_path / "r2"),
        "--dataset", str(data_dir / "dataset.jsonl"),
        "--checkpoint", str(last),
    ])
    assert code == 2
    assert str(last) in capsys.readouterr().err
    assert not (tmp_path / "r2").exists()


def test_checkpoint_for_another_architecture_exits_2(tmp_path, capsys):
    narrow = _write_cfg(tmp_path, name="h8.json", gat={"hidden_dim": 8})
    wide = _write_cfg(
        tmp_path, name="h16.json",
        gat={"hidden_dim": 16, "activation": "identity"},
    )
    data_dir, run_dir = _gen_and_train(tmp_path, narrow)
    dataset = str(data_dir / "dataset.jsonl")
    best, last = run_dir / "checkpoint_best.json", run_dir / "checkpoint_last.json"
    capsys.readouterr()
    code = cli.main([
        "eval", "--config", wide, "--out", str(tmp_path / "ev"),
        "--dataset", dataset, "--checkpoint", str(best),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert str(best) in err and wide in err
    assert "hidden_dim" in err and "activation" in err
    code = cli.main([
        "train", "--config", wide, "--out", str(tmp_path / "r2"),
        "--dataset", dataset, "--checkpoint", str(last),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert str(last) in err and wide in err and "hidden_dim" in err
    assert not (tmp_path / "ev").exists() and not (tmp_path / "r2").exists()


def test_checkpoint_for_another_cell_count_exits_2(tmp_path, capsys):
    two = _write_cfg(tmp_path, name="n2.json")
    three = _write_cfg(tmp_path, name="n3.json", scenario={"n_cells": 3})
    _, run_dir = _gen_and_train(tmp_path, two)
    data3 = tmp_path / "data3"
    assert cli.main(["gen", "--config", three, "--out", str(data3)]) == 0
    dataset = str(data3 / "dataset.jsonl")
    best, last = run_dir / "checkpoint_best.json", run_dir / "checkpoint_last.json"
    capsys.readouterr()
    code = cli.main([
        "eval", "--config", three, "--out", str(tmp_path / "ev"),
        "--dataset", dataset, "--checkpoint", str(best),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert str(best) in err and three in err
    assert "n_cells 2 vs 3" in err and "feat_dim 6 vs 9" in err
    # 2 epochs left to run, and none: both refused before anything is written
    for epochs, out in ((4, "r4"), (2, "r2")):
        cfg = _write_cfg(
            tmp_path, name=f"n3e{epochs}.json",
            scenario={"n_cells": 3}, train={"epochs": epochs},
        )
        code = cli.main([
            "train", "--config", cfg, "--out", str(tmp_path / out),
            "--dataset", dataset, "--checkpoint", str(last),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert str(last) in err and cfg in err
        assert "n_cells 2 vs 3" in err and "feat_dim 6 vs 9" in err
        assert not (tmp_path / out).exists()
    assert not (tmp_path / "ev").exists()


@pytest.mark.parametrize("key", ["rsrp_dbm", "ue_xy"])
def test_eval_refuses_a_record_its_seed_does_not_regenerate(tmp_path, capsys, key):
    cfg = _write_cfg(tmp_path)
    data_dir, run_dir = _gen_and_train(tmp_path, cfg)
    dataset = data_dir / "dataset.jsonl"
    lines = dataset.read_text().splitlines()
    rec = json.loads(lines[1])
    values = decode_array(rec[key])
    values[0, 0] += 1.0
    rec[key] = encode_array(values)
    lines[1] = json.dumps(rec, separators=(",", ":"))
    dataset.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = cli.main([
        "eval", "--config", cfg, "--out", str(tmp_path / "ev"),
        "--dataset", str(dataset),
        "--checkpoint", str(run_dir / "checkpoint_best.json"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert str(dataset) in err and "record 2:" in err and key in err
    assert not (tmp_path / "ev").exists()


def test_eval_scores_each_record_as_its_seed_draws_it(tmp_path, monkeypatch):
    # one draw per record, no decoding back into a scenario, and each
    # scored scenario is the seed's draw, field for field
    cfg_path = _write_cfg(tmp_path)
    data_dir, run_dir = _gen_and_train(tmp_path, cfg_path)
    cfg = RunConfig.from_dict(_cfg_dict())
    draws, scored = [], []
    compare = cli._compare

    def counted_draw(scenario_cfg, seed):
        draws.append(seed)
        return generate_scenario(scenario_cfg, seed)

    def no_decoding(*args, **kwargs):
        raise AssertionError("eval rebuilt a record with from_record")

    def recorded_compare(sample, *args, **kwargs):
        scored.append(sample.scenario)
        return compare(sample, *args, **kwargs)

    monkeypatch.setattr(cli, "generate_scenario", counted_draw)
    monkeypatch.setattr(cli, "from_record", no_decoding)
    monkeypatch.setattr(cli, "_compare", recorded_compare)
    code = cli.main([
        "eval", "--config", cfg_path, "--out", str(tmp_path / "ev"),
        "--dataset", str(data_dir / "dataset.jsonl"),
        "--checkpoint", str(run_dir / "checkpoint_best.json"),
    ])
    assert code == 0
    lines = (data_dir / "dataset.jsonl").read_text().splitlines()
    seeds = [json.loads(line)["seed"] for line in lines]
    assert len(seeds) == 6
    assert draws == seeds
    assert [s.seed for s in scored] == seeds
    for s in scored:
        fresh = generate_scenario(cfg.scenario, s.seed)
        for field in dataclasses.fields(fresh):
            got, want = getattr(s, field.name), getattr(fresh, field.name)
            if isinstance(want, np.ndarray):
                assert (got.dtype, got.shape) == (want.dtype, want.shape), field.name
                assert got.tobytes() == want.tobytes(), field.name
            else:
                assert got == want, field.name


def test_eval_flags_the_oracle_infeasible_only_when_no_assignment_fits(tmp_path):
    # at 500 Mbps a UE needs a full carrier at either cell, so two of the
    # three UEs share one cell and overload it, whatever the assignment
    for name, scenario, flag in (
        ("full", {"ue_demand_mbps": 500.0}, "0"),
        ("light", {}, "1"),
    ):
        cfg = _write_cfg(tmp_path, name=f"{name}.json", scenario=scenario)
        (tmp_path / name).mkdir()
        data_dir, run_dir = _gen_and_train(tmp_path / name, cfg)
        out = tmp_path / name / "ev"
        code = cli.main([
            "eval", "--config", cfg, "--out", str(out),
            "--dataset", str(data_dir / "dataset.jsonl"),
            "--checkpoint", str(run_dir / "checkpoint_best.json"),
        ])
        assert code == 0
        lines = (out / "eval.csv").read_text().splitlines()
        column = lines[0].split(",").index("oracle_feasible")
        assert [line.split(",")[column] for line in lines[1:]] == [flag] * 6, name


def test_a_dataset_in_the_earlier_five_array_format_trains_and_evals_alike(tmp_path):
    # records used to store the cell layout (`bs_xy`) and the PRB demand
    # (`prb`, int64) as well; every output of train and eval on such a
    # dataset is the bytes of the one on the dataset gen writes now
    cfg_path = _write_cfg(tmp_path, scenario={"n_ues": 4})
    cfg = RunConfig.from_dict(_cfg_dict(scenario={"n_ues": 4}))
    new = tmp_path / "new"
    assert cli.main(["gen", "--config", cfg_path, "--out", str(new)]) == 0
    old = tmp_path / "old"
    old.mkdir()
    for name in ("manifest.json", "config.json"):
        (old / name).write_bytes(_read(new / name))
    records = []
    for line in (new / "dataset.jsonl").read_text().splitlines():
        rec = json.loads(line)
        s = generate_scenario(cfg.scenario, rec["seed"])
        prb = s.prb_demand.astype("<i8")
        records.append({**rec, "bs_xy": encode_array(s.bs_positions), "prb": {
            "dtype": "<i8", "shape": list(prb.shape),
            "b64": base64.b64encode(prb.tobytes()).decode("ascii"),
        }})
    write_jsonl(old / "dataset.jsonl", records)
    outputs = {}
    for data in (new, old):
        dataset = str(data / "dataset.jsonl")
        run, ev = tmp_path / f"{data.name}_run", tmp_path / f"{data.name}_ev"
        assert cli.main(["train", "--config", cfg_path, "--out", str(run),
                         "--dataset", dataset]) == 0
        assert cli.main(["eval", "--config", cfg_path, "--out", str(ev), "--dataset", dataset,
                         "--checkpoint", str(run / "checkpoint_best.json")]) == 0
        outputs[data.name] = {
            f"{d.name[len(data.name):]}/{f}": _read(d / f)
            for d in (run, ev) for f in sorted(os.listdir(d))
        }
    assert "_ev/eval.csv" in outputs["new"]
    assert outputs["old"] == outputs["new"]


def test_train_never_regenerates_a_scenario(tmp_path, monkeypatch):
    cfg = _write_cfg(tmp_path)
    data_dir = tmp_path / "data"
    assert cli.main(["gen", "--config", cfg, "--out", str(data_dir)]) == 0

    def refuse(*args, **kwargs):
        raise AssertionError("train regenerated a scenario")

    monkeypatch.setattr(cli, "generate_scenario", refuse)
    code = cli.main([
        "train", "--config", cfg, "--out", str(tmp_path / "run"),
        "--dataset", str(data_dir / "dataset.jsonl"),
    ])
    assert code == 0


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("gat", "heads", 1),
        ("train", "checkpoint_every", 0),
        ("scenario", "rng_seed", 0),
        ("eval", "demand_mbps", 5.0),
    ],
)
def test_deleted_config_keys_exit_2(tmp_path, capsys, section, key, value):
    cfg = _write_cfg(tmp_path, **{section: {key: value}})
    out = tmp_path / "o"
    assert cli.main(["gen", "--config", cfg, "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_dataset_whose_manifest_names_rng_seed_exits_2(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    data_dir = tmp_path / "data"
    assert cli.main(["gen", "--config", cfg, "--out", str(data_dir)]) == 0
    manifest_path = data_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["config"]["scenario"]["rng_seed"] = 0  # the layout of earlier versions
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    code = cli.main([
        "train", "--config", cfg, "--out", str(tmp_path / "run"),
        "--dataset", str(data_dir / "dataset.jsonl"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert str(manifest_path) in err and "rng_seed" in err


def _doctor_best_checkpoint(run_dir, change):
    best = run_dir / "checkpoint_best.json"
    doc = json.loads(best.read_text())
    change(doc)
    best.write_text(json.dumps(doc))
    return best


def test_checkpoint_with_a_parameter_the_table_does_not_give_exits_2(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    data_dir, run_dir = _gen_and_train(tmp_path, cfg)

    def add_gat3(doc):
        extra = dict(next(p for p in doc["params"] if p["name"] == "gat2.W"))
        doc["params"].append({**extra, "name": "gat3.W"})

    best = _doctor_best_checkpoint(run_dir, add_gat3)
    capsys.readouterr()
    code = cli.main([
        "eval", "--config", cfg, "--out", str(tmp_path / "ev"),
        "--dataset", str(data_dir / "dataset.jsonl"), "--checkpoint", str(best),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert str(best) in err and "gat3.W" in err
    assert not (tmp_path / "ev").exists()


def test_checkpoint_whose_parameters_its_gat_section_does_not_shape_exits_2(
    tmp_path, capsys
):
    # stamped hidden_dim 2 over parameters 4 wide, evaluated under a
    # config that says 2 as well
    _, run_dir = _gen_and_train(tmp_path, _write_cfg(tmp_path))
    narrow = _write_cfg(tmp_path, name="h2.json", gat={"hidden_dim": 2})
    data_dir = tmp_path / "data"
    best = _doctor_best_checkpoint(run_dir, lambda doc: doc["gat"].update(hidden_dim=2))
    capsys.readouterr()
    code = cli.main([
        "eval", "--config", narrow, "--out", str(tmp_path / "ev"),
        "--dataset", str(data_dir / "dataset.jsonl"), "--checkpoint", str(best),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert str(best) in err and "gat1.W is shaped [4, 6]" in err
    assert not (tmp_path / "ev").exists()


def test_checkpoint_last_is_laid_out_by_the_parameter_table(tmp_path):
    cfg = _write_cfg(tmp_path)
    _, run_dir = _gen_and_train(tmp_path, cfg)
    doc = json.loads((run_dir / "checkpoint_last.json").read_text())
    table = gat.param_shapes(
        6, 2, gat.GatConfig(hidden_dim=4, readout_activation="identity")
    )
    assert list(table) == ["gat1.W", "gat1.a", "gat2.W", "gat2.a", "readout.Q", "readout.B"]
    assert [(p["name"], tuple(p["shape"])) for p in doc["params"]] == list(table.items())
    for key in ("m", "v"):
        assert [tuple(e["shape"]) for e in doc["adam"][key]] == list(table.values())


def test_sweep_refuses_a_point_without_a_config_stamp(tmp_path, capsys):
    # a point finished by an earlier version, which stamped no config
    cfg = _sweep_cfg(tmp_path)
    out = tmp_path / "sw"
    args = ["sweep", "lambda", "--config", cfg, "--out", str(out), "--grid", "ratio=0"]
    assert cli.main(args) == 0
    best = out / "ratio0" / "checkpoint_best.json"
    doc = json.loads(best.read_text())
    del doc["config"]
    best.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert str(best) in err and "config is missing" in err


@pytest.mark.parametrize(
    "kind, grid, point",
    [("lambda", "ratio=0", "ratio0"), ("bandwidth", "w=20;k=2", "w20")],
    ids=["lambda", "bandwidth"],
)
def test_sweep_refuses_a_point_trained_under_another_config(
    tmp_path, capsys, kind, grid, point
):
    out = tmp_path / "sw"
    args = ["sweep", kind, "--out", str(out), "--grid", grid]
    assert cli.main([*args, "--config", _sweep_cfg(tmp_path)]) == 0
    written = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    wider = _write_cfg(
        tmp_path, name="wider.json", gat={"hidden_dim": 8},
        train={"dataset_size": 4, "epochs": 3, "lr": 1e-3, "lambda1": 1.0, "lambda2": 0.1},
        eval={"n_instances": 2},
    )
    capsys.readouterr()
    assert cli.main([*args, "--config", wider]) == 2
    assert str(out / point) in capsys.readouterr().err
    # nothing trained or written: config.json still holds the first sweep's
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == written


def _edit_json(path, change, line=None):
    """Apply `change` to the JSON document at `path`, or to line `line`
    of a JSON-lines file."""
    if line is None:
        doc = json.loads(path.read_text())
        change(doc)
        path.write_text(json.dumps(doc))
        return
    lines = path.read_text().splitlines()
    doc = json.loads(lines[line])
    change(doc)
    lines[line] = json.dumps(doc, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")


# artifact edits that ended in a traceback, were trained on, or were blamed
# on another key; each now exits 2 naming the key
@pytest.mark.parametrize(
    "artifact, change, named",
    [
        ("last", lambda d: d.update(epoch="x"), "epoch must be an integer"),
        ("last", lambda d: d.update(epoch=99), "epoch must be in [0, 4], got 99"),
        ("last", lambda d: d.update(epoch=1.7), "epoch must be an integer, got 1.7"),
        ("last", lambda d: d.update(history=5), "history must be 2 x 4 finite numbers"),
        ("last", lambda d: d["adam"].update(step="x"), "adam.step must be an integer"),
        ("last", lambda d: d["adam"].update(step=2.5), "adam.step must be an integer"),
        ("last", lambda d: d["adam"].update(step=-1), "adam.step must be in [0, inf]"),
        ("best", lambda d: d.update(norm_stats=None), "norm_stats must be a JSON object"),
        ("best", lambda d: d["norm_stats"].pop("std"), "norm_stats.std is missing"),
        ("record", lambda d: d.update(seed="x"), "record 2: seed must be an integer"),
        ("record", lambda d: d.update(seed=1.5), "record 2: seed must be an integer, got 1.5"),
        ("manifest", lambda d: d.update(count="6"), "count must be an integer, got '6'"),
    ],
)
def test_a_damaged_artifact_key_exits_2_naming_it(tmp_path, capsys, artifact, change, named):
    cfg = _write_cfg(tmp_path)
    data_dir, run_dir = _gen_and_train(tmp_path, cfg)
    dataset = data_dir / "dataset.jsonl"
    path = {
        "last": run_dir / "checkpoint_last.json", "best": run_dir / "checkpoint_best.json",
        "record": dataset, "manifest": data_dir / "manifest.json",
    }[artifact]
    _edit_json(path, change, line=1 if artifact == "record" else None)
    resume = _write_cfg(tmp_path, name="resume.json", train={"epochs": 4})
    if artifact == "last":
        argv = ["train", "--config", resume, "--checkpoint", str(path)]
    else:
        argv = ["eval", "--config", cfg, "--checkpoint", str(run_dir / "checkpoint_best.json")]
    capsys.readouterr()
    out = tmp_path / "out"
    assert cli.main([*argv, "--dataset", str(dataset), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and named in err
    assert not out.exists()


def test_a_resume_steps_under_the_run_config_not_stored_adam_settings(tmp_path):
    # the adam section of earlier versions also held lr, beta1, beta2 and
    # eps_stability; edited or not, a resume ignores them
    cfg_full = _write_cfg(tmp_path, name="full.json", train={"epochs": 4})
    cfg_half = _write_cfg(tmp_path, name="half.json", train={"epochs": 2})
    data_dir, run_half = _gen_and_train(tmp_path, cfg_half, out_name="half")
    last = run_half / "checkpoint_last.json"
    edited = tmp_path / "edited.json"
    edited.write_text(last.read_text())
    _edit_json(edited, lambda d: d["adam"].update(
        lr=5.0, beta1=0.0, beta2=None, eps_stability="x"
    ))
    for name, checkpoint in (("plain", last), ("edited", edited)):
        assert cli.main([
            "train", "--config", cfg_full, "--out", str(tmp_path / name),
            "--dataset", str(data_dir / "dataset.jsonl"), "--checkpoint", str(checkpoint),
        ]) == 0
    for name in ("history.csv", "checkpoint_last.json", "checkpoint_best.json"):
        assert _read(tmp_path / "plain" / name) == _read(tmp_path / "edited" / name)
    doc = json.loads((tmp_path / "plain" / "checkpoint_last.json").read_text())
    assert set(doc["adam"]) == {"step", "m", "v"}
