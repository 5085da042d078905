"""Command-line entry point wiring datasets, training, evaluation, sweeps.

Every command reads one merged configuration (file plus flag overrides),
writes it back into the output directory, and keeps all numeric output
free of timestamps so a rerun with the same settings reproduces the same
bytes.  `eval` and both sweeps score every instance through one policy
comparison, `_compare`; `eval` writes its rows, and a sweep aggregates
them per grid point (`evaluate.write_sweep_csv`).  Exit codes: 0 success,
2 configuration error, 3 I/O error, 4 numeric abort.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import autodiff as ad
from . import gat as gat_mod
from .baselines import associate_ga_subsinr, associate_oracle, associate_rsrp
from .config import RunConfig, load_config, require_finite, require_same, write_config
from .errors import (
    BudgetExceededError,
    ConfigError,
    ContractError,
    ShapeError,
    TrainingDiverged,
)
from .evaluate import (
    evaluate_policy,
    export_heatmaps,
    gain_percent,
    write_sweep_csv,
)
from .scenario import (
    RECORD_FIELDS,
    FeatureStats,
    build_graph,
    from_record,
    generate_scenario,
    iter_scenarios,
    normalize_features,
    read_jsonl,
    to_record,
    write_jsonl,
)
from .training import LossConfig, Sample, split_and_normalize, train, write_history

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

# sweep evaluation scenarios draw seeds from a range disjoint from training
EVAL_SEED_OFFSET = 1_000_000


def _samples(cfg: RunConfig):
    """The training scenarios of cfg, each with its graph, in seed order."""
    seeds = range(cfg.seed, cfg.seed + cfg.train.dataset_size)
    for s in iter_scenarios(cfg.scenario, seeds):
        yield Sample(s, build_graph(s, cfg.scenario.gamma_th_db))


def _write_dataset(cfg: RunConfig, out_dir, samples) -> tuple[str, int]:
    """Write samples into out_dir as dataset.jsonl, then the manifest.json
    that `_load_pairs` checks it against; returns the dataset's path and
    record count."""
    os.makedirs(out_dir, exist_ok=True)
    digest = cfg.digest()
    records = [to_record(p.scenario, p.graph, config_digest=digest) for p in samples]
    dataset_path = os.path.join(out_dir, "dataset.jsonl")
    write_jsonl(dataset_path, records)
    manifest = {
        "config": cfg.stamp(),
        "config_digest": digest,
        "seed": cfg.seed,
        "count": len(records),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return dataset_path, len(records)


def cmd_gen(cfg: RunConfig) -> int:
    dataset_path, count = _write_dataset(cfg, cfg.out_dir, _samples(cfg))
    write_config(cfg, os.path.join(cfg.out_dir, "config.json"))
    print(f"wrote {count} records to {dataset_path}")
    return EXIT_OK


def _architectures(model, cfg: RunConfig, pairs) -> tuple[dict, dict]:
    """The model's architecture and the one the run config and its dataset
    call for, as stamps: a `gat` section with the cell count and the
    feature width."""
    return (
        {"gat": {**model.config.to_dict(), "n_cells": model.n_cells,
                 "feat_dim": model.feat_dim}},
        {"gat": {**cfg.gat.to_dict(), "n_cells": cfg.scenario.n_cells,
                 "feat_dim": pairs[0].graph.features.shape[1]}},
    )


def _resumable(stamp: dict) -> dict:
    """A stamp without what a resume may change: `train.epochs`, the epoch
    to train to, and the `eval` section, which training does not read. A
    stamp that is not an object keeps nothing."""
    if not isinstance(stamp, dict):
        return {}
    doc = {name: value for name, value in stamp.items() if name != "eval"}
    if isinstance(doc.get("train"), dict):
        doc["train"] = {k: v for k, v in doc["train"].items() if k != "epochs"}
    return doc


def _check_moments(adam_doc: dict, model, checkpoint):
    """Refuse Adam moments that are not laid out like the parameters: one
    entry per name of the model's table, in its order, each of its shape."""
    table = gat_mod.param_shapes(model.feat_dim, model.n_cells, model.config)
    for key in ("m", "v"):
        entries = adam_doc[key]
        if len(entries) != len(table):
            raise ConfigError(
                f"checkpoint {checkpoint} holds {len(entries)} adam.{key} "
                f"moments for {len(table)} parameters"
            )
        gat_mod.check_shapes(
            [(name, entry["shape"]) for name, entry in zip(table, entries)],
            table, f"checkpoint {checkpoint} adam.{key}",
        )


def _load_pairs(dataset_path, cfg: RunConfig, config_path=None) -> list:
    """Read a dataset after checking the manifest.json next to it: it must
    have been written for the run config's scenario section, and its
    record count must match the dataset's."""
    manifest_path = os.path.join(os.path.dirname(dataset_path), "manifest.json")
    with open(manifest_path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        manifest = json.loads(text)
        made_for = {"scenario": dict(manifest["config"]["scenario"])}
        count = manifest["count"]
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(
            f"manifest {manifest_path} lacks config.scenario or count: {exc!r}"
        ) from exc
    require_same(
        f"manifest {manifest_path} of dataset {dataset_path}", made_for,
        {"scenario": cfg.stamp()["scenario"]}, config_path,
    )
    records = read_jsonl(dataset_path)
    if len(records) != count:
        raise ConfigError(
            f"dataset {dataset_path} holds {len(records)} records but "
            f"{manifest_path} says {count}"
        )
    pairs = []
    for i, rec in enumerate(records, 1):
        try:
            pairs.append(Sample(*from_record(rec, cfg.scenario)))
        except ConfigError as exc:
            raise ConfigError(f"dataset {dataset_path} record {i}: {exc}") from None
    return pairs


def _with_sinr_cube(s, number, dataset_path, cfg: RunConfig):
    """The scenario of record `number` with the per-PRB SINR that records
    do not store, regenerated from its seed under the run config's
    `scenario` section. Every array the record does store must be
    bit-equal to the regenerated one, or ConfigError names the field."""
    fresh = generate_scenario(cfg.scenario, s.seed)
    for key, name in RECORD_FIELDS.items():
        stored, rebuilt = getattr(s, name), getattr(fresh, name)
        if (
            stored.dtype != rebuilt.dtype
            or stored.shape != rebuilt.shape
            or stored.tobytes() != rebuilt.tobytes()
        ):
            raise ConfigError(
                f"dataset {dataset_path} record {number}: stored {key} is not "
                f"what seed {s.seed} generates under the run config"
            )
    return dataclasses.replace(s, sinr_per_prb_db=fresh.sinr_per_prb_db)


def _train_to_dir(cfg: RunConfig, pairs, out_dir, checkpoint=None, config_path=None):
    """Split, train (optionally resuming), and persist the run artifacts.

    Resuming continues the epoch count from the checkpoint; best-model
    tracking restarts from the resume point. The checkpoint must be the
    run it continues: its stamp must be the run config's but for
    `train.epochs` and the `eval` section, its architecture that of the
    run config and the dataset's feature width, and its Adam moments
    float64 arrays shaped like the parameters they belong to.
    """
    train_s, test_s, stats = split_and_normalize(
        pairs, cfg.train.split_fraction, cfg.seed
    )
    model = None
    adam = None
    start_epoch = 0
    prior_history = []
    if checkpoint:
        model, leftover = gat_mod.load_checkpoint(checkpoint)
        missing = {"adam", "epoch", "config"} - set(leftover)
        if missing:
            raise ConfigError(
                f"checkpoint {checkpoint} is not resumable: missing "
                f"{', '.join(sorted(missing))}"
            )
        try:
            adam = ad.AdamState.from_dict(leftover["adam"])
        except (ConfigError, KeyError, TypeError) as exc:
            raise ConfigError(
                f"checkpoint {checkpoint} has no readable optimizer state: {exc!r}"
            ) from None
        built, wanted = _architectures(model, cfg, pairs)
        require_same(
            f"checkpoint {checkpoint}", {**_resumable(leftover["config"]), **built},
            {**_resumable(cfg.stamp()), **wanted}, config_path,
        )
        _check_moments(leftover["adam"], model, checkpoint)
        start_epoch = int(leftover["epoch"])
        prior_history = [tuple(row) for row in leftover.get("history", [])]
    res = train(
        [p.graph for p in train_s],
        cfg.train,
        cfg.loss,
        cfg.power,
        seed=cfg.seed,
        gat_cfg=cfg.gat,
        test=[p.graph for p in test_s],
        model=model,
        adam_state=adam,
        start_epoch=start_epoch,
    )
    full_history = prior_history + res.history
    os.makedirs(out_dir, exist_ok=True)
    write_history(os.path.join(out_dir, "history.csv"), full_history)
    common = {
        "config": cfg.stamp(),
        "config_digest": cfg.digest(),
        "norm_stats": stats.to_dict(),
    }
    gat_mod.save_checkpoint(
        os.path.join(out_dir, "checkpoint_last.json"),
        res.model,
        {
            **common,
            "epoch": cfg.train.epochs,
            "adam": res.adam_state.to_dict(
                [p.shape for p in res.model.params.values()], deferred=True
            ),
            "history": [list(row) for row in full_history],
        },
    )
    gat_mod.save_checkpoint(
        os.path.join(out_dir, "checkpoint_best.json"),
        res.best_model,
        {**common, "epoch": res.best_epoch},
    )
    write_config(cfg, os.path.join(out_dir, "config.json"))
    return res


def cmd_train(cfg: RunConfig, dataset_path, checkpoint, config_path=None) -> int:
    pairs = _load_pairs(dataset_path, cfg, config_path)
    res = _train_to_dir(
        cfg, pairs, cfg.out_dir, checkpoint=checkpoint, config_path=config_path
    )
    print(
        f"trained to epoch {cfg.train.epochs}; best epoch {res.best_epoch}; "
        f"outputs in {cfg.out_dir}"
    )
    return EXIT_OK


def _checkpoint_stats(leftover, path) -> FeatureStats:
    if "norm_stats" not in leftover:
        raise ConfigError(f"checkpoint {path} lacks normalization statistics")
    return FeatureStats.from_dict(leftover["norm_stats"])


def _compare(sample: Sample, model, cfg: RunConfig, with_oracle=False):
    """Score one instance under every policy: the model's hardened
    association, strongest RSRP, sub-band SINR and, when asked, the exact
    oracle. `sample` holds the scenario with its per-PRB SINR and the graph
    normalized for `model`. Returns the `eval.csv` row without its seed, a
    column -> value dict, and the policy reports in heatmap order."""
    s = sample.scenario
    demand = cfg.eval_demand_mbps()
    gnn = evaluate_policy(
        gat_mod.harden(gat_mod.forward(sample.graph, model)),
        s, cfg.power, demand, policy_name="gnn",
    )
    rsrp = evaluate_policy(associate_rsrp(s), s, cfg.power, demand, policy_name="rsrp")
    sub = evaluate_policy(
        associate_ga_subsinr(s, agg=cfg.eval.subsinr_agg), s, cfg.power, demand,
        policy_name="ga_subsinr",
    )
    row = {
        "gnn_power_w": gnn.total_power_w,
        "rsrp_power_w": rsrp.total_power_w,
        "subsinr_power_w": sub.total_power_w,
    }
    reports = [gnn, rsrp, sub]
    if with_oracle:
        oracle = associate_oracle(s, cfg.power, budget=cfg.eval.oracle_budget)
        orep = evaluate_policy(
            oracle.association, s, cfg.power, demand, policy_name="oracle"
        )
        row["oracle_power_w"] = orep.total_power_w
        row["oracle_feasible"] = int(oracle.feasible)
        reports.append(orep)
    row["gain_vs_rsrp_pct"] = gain_percent(gnn.total_power_w, rsrp.total_power_w)
    row["gain_vs_subsinr_pct"] = gain_percent(gnn.total_power_w, sub.total_power_w)
    row["gnn_switch_off"] = gnn.switched_off_count
    row["gnn_gbr_ok"] = int(gnn.gbr_satisfied)
    return row, reports


def cmd_eval(cfg: RunConfig, dataset_path, checkpoint, config_path=None) -> int:
    model, leftover = gat_mod.load_checkpoint(checkpoint)
    stats = _checkpoint_stats(leftover, checkpoint)
    pairs = _load_pairs(dataset_path, cfg, config_path)
    if not pairs:
        raise ConfigError(f"dataset {dataset_path} is empty")
    require_same(f"checkpoint {checkpoint}", *_architectures(model, cfg, pairs), config_path)
    scenario = pairs[0].scenario
    with_oracle = scenario.n_cells**scenario.n_ues <= cfg.eval.oracle_budget

    rows = []
    first_reports = None
    for number, sample in enumerate(pairs, 1):
        s = _with_sinr_cube(sample.scenario, number, dataset_path, cfg)
        row, reports = _compare(
            Sample(s, normalize_features(sample.graph, stats)), model, cfg, with_oracle
        )
        rows.append((s.seed, row))
        if first_reports is None:
            first_reports = (s, reports)

    header = list(rows[0][1])
    lines = [",".join(["seed", *header])]
    for seed, row in rows:
        cells = [repr(v) if isinstance(v, float) else str(v) for v in row.values()]
        lines.append(",".join([str(seed), *cells]))
    os.makedirs(cfg.out_dir, exist_ok=True)
    with open(os.path.join(cfg.out_dir, "eval.csv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    summary = {"n_instances": len(rows)}
    for name in header:
        total = 0.0  # plain left-to-right float sum: sum() and np.mean round otherwise
        for _, row in rows:
            total += row[name]
        summary[f"mean_{name}"] = total / len(rows)
    with open(
        os.path.join(cfg.out_dir, "eval_summary.json"), "w", encoding="utf-8"
    ) as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
    export_heatmaps(first_reports[0], first_reports[1], cfg.out_dir)
    write_config(cfg, os.path.join(cfg.out_dir, "config.json"))
    print(
        f"evaluated {len(pairs)} instances; mean gnn power "
        f"{summary['mean_gnn_power_w']:.3f} W; outputs in {cfg.out_dir}"
    )
    return EXIT_OK


def _parse_grid(text: str) -> dict:
    """Parse 'key=1,2;other=0.5,1' into {key: [values]}."""
    grid = {}
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"grid part {part!r} is not key=v1,v2,...")
        key, _, tail = part.partition("=")
        values = []
        for tok in tail.split(","):
            tok = tok.strip()
            if not tok:
                raise ConfigError(f"grid key {key!r} has an empty value")
            try:
                values.append(int(tok))
            except ValueError:
                try:
                    value = float(tok)
                except ValueError:
                    raise ConfigError(
                        f"grid value {tok!r} for key {key!r} is not a number"
                    ) from None
                require_finite(value, f"grid value for key {key!r}")
                values.append(value)
        grid[key.strip()] = values
    if not grid:
        raise ConfigError("empty grid")
    return grid


def _max_workers(n_points: int) -> int:
    env = os.environ.get("NESUA_THREADS", "").strip()
    if env:
        try:
            cap = int(env)
        except ValueError:
            raise ConfigError(f"NESUA_THREADS must be an integer, got {env!r}") from None
        if cap < 1:
            raise ConfigError(f"NESUA_THREADS must be >= 1, got {cap}")
    else:
        cap = os.cpu_count() or 1
    return max(1, min(cap, n_points))


def _train_point(payload) -> None:
    """Sweep worker: train one point's config into its directory, on the
    shared dataset when one is named, else on samples it generates and
    writes there first."""
    cfg_dict, dataset_path, sub_dir = payload
    cfg = RunConfig.from_dict(cfg_dict)
    if dataset_path is None:
        # training reads no per-PRB SINR, so the cube is not kept for it
        pairs = [
            Sample(dataclasses.replace(p.scenario, sinr_per_prb_db=None), p.graph)
            for p in _samples(cfg)
        ]
        _write_dataset(cfg, sub_dir, pairs)
    else:
        pairs = _load_pairs(dataset_path, cfg)
    _train_to_dir(cfg, pairs, sub_dir)
    with open(os.path.join(sub_dir, "DONE"), "w", encoding="utf-8") as fh:
        fh.write("ok\n")


def _train_points(cfg: RunConfig, points, sub_dirs, dataset_path=None, config_path=None):
    """Train each sweep point's config into its directory.

    A point with a DONE file is reused only if its checkpoint_best.json
    stamps the point's config (`require_same`). Any other finished point
    raises ConfigError naming its directory before anything is written, so
    a sweep never scores models trained under another config. Then the
    sweep's config.json is written, and the shared dataset at
    `dataset_path` if it has no manifest yet, and `_train_point` workers
    train the other points, up to `_max_workers` at a time.
    """
    todo = []
    for point_cfg, sub in zip(points, sub_dirs):
        if not os.path.exists(os.path.join(sub, "DONE")):
            todo.append((point_cfg.to_dict(), dataset_path, sub))
            continue
        best = os.path.join(sub, "checkpoint_best.json")
        with open(best, "r", encoding="utf-8") as fh:
            try:
                stamped = json.load(fh).get("config")
            except (ValueError, AttributeError):
                stamped = None
        try:
            require_same(
                f"checkpoint {best} of finished sweep point {sub}", stamped,
                point_cfg.stamp(), config_path,
            )
        except ConfigError as exc:
            raise ConfigError(f"{exc}; remove {sub} or sweep into another --out") from None
    os.makedirs(cfg.out_dir, exist_ok=True)
    write_config(cfg, os.path.join(cfg.out_dir, "config.json"))
    if dataset_path and not os.path.exists(os.path.join(cfg.out_dir, "manifest.json")):
        _write_dataset(cfg, cfg.out_dir, _samples(cfg))
    workers = _max_workers(len(todo))
    if workers == 1:
        for payload in todo:
            _train_point(payload)
        return
    # imported here: the pool's import costs every other command time and memory
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        list(pool.map(_train_point, todo))


def _load_point_model(sub_dir):
    path = os.path.join(sub_dir, "checkpoint_best.json")
    model, leftover = gat_mod.load_checkpoint(path)
    return model, _checkpoint_stats(leftover, path)


def _eval_samples(cfg: RunConfig, stats: FeatureStats) -> list:
    samples = []
    first = cfg.seed + EVAL_SEED_OFFSET
    for s in iter_scenarios(cfg.scenario, range(first, first + cfg.eval.n_instances)):
        g = build_graph(s, cfg.scenario.gamma_th_db)
        samples.append(Sample(s, normalize_features(g, stats)))
    return samples


def cmd_sweep(cfg: RunConfig, kind: str, grid_text: str, config_path=None) -> int:
    """Train every grid point, then score each point's model on its
    instances with `_compare` and write one row per point."""
    grid = _parse_grid(grid_text)
    points = []  # (swept values, model, instances), in table order
    if kind == "bandwidth":
        if set(grid) != {"w", "k"}:
            raise ConfigError(
                f"bandwidth sweep grid needs keys w and k, got {sorted(grid)}"
            )
        ws, ks = grid["w"], grid["k"]
        sub_dirs = [os.path.join(cfg.out_dir, f"w{w!r}") for w in ws]
        point_cfgs = [
            dataclasses.replace(cfg, scenario=dataclasses.replace(cfg.scenario, bandwidth_mhz=w))
            for w in ws
        ]
        _train_points(cfg, point_cfgs, sub_dirs, config_path=config_path)
        for w, point, sub in zip(ws, point_cfgs, sub_dirs):
            model, stats = _load_point_model(sub)
            for k in ks:
                scenario = dataclasses.replace(point.scenario, n_ues=k)
                samples = _eval_samples(dataclasses.replace(point, scenario=scenario), stats)
                points.append(({"bandwidth_mhz": w, "n_ues": k}, model, samples))
        variable = "bandwidth"
    elif kind == "lambda":
        if set(grid) != {"ratio"}:
            raise ConfigError(
                f"lambda sweep grid needs key ratio, got {sorted(grid)}"
            )
        ratios = grid["ratio"]
        sub_dirs = [os.path.join(cfg.out_dir, f"ratio{r!r}") for r in ratios]
        lam1 = cfg.loss.lambda1
        point_cfgs = [
            dataclasses.replace(cfg, loss=LossConfig(lambda1=lam1, lambda2=r * lam1))
            for r in ratios
        ]
        dataset_path = os.path.join(cfg.out_dir, "dataset.jsonl")
        _train_points(cfg, point_cfgs, sub_dirs, dataset_path, config_path)
        # all ratios share the dataset, split, and normalization
        pairs = _load_pairs(dataset_path, cfg, config_path)
        numbers = {id(p.scenario): i for i, p in enumerate(pairs, 1)}
        _, test_s, _ = split_and_normalize(pairs, cfg.train.split_fraction, cfg.seed)
        samples = [
            Sample(
                _with_sinr_cube(p.scenario, numbers[id(p.scenario)], dataset_path, cfg),
                p.graph,
            )
            for p in test_s
        ]
        for ratio, sub in zip(ratios, sub_dirs):
            points.append(({"lambda_ratio": ratio}, _load_point_model(sub)[0], samples))
        variable = "lambda_ratio"
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigError(f"unknown sweep kind {kind!r}")

    table = [
        (values, [_compare(sample, model, cfg)[0] for sample in samples])
        for values, model, samples in points
    ]
    path = write_sweep_csv(variable, table, cfg.scenario.n_cells, cfg.out_dir)
    print(f"sweep table written to {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nesua",
        description=(
            "Energy-aware user association: dataset generation, attention-"
            "model training, policy evaluation, and comparison sweeps."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument(
            "--config", default=None,
            help="JSON run file; every omitted key takes its default",
        )
        sp.add_argument("--seed", type=int, default=None, help="override config seed")
        sp.add_argument("--out", default=None, help="override config out_dir")

    gen = sub.add_parser("gen", help="generate and serialize a scenario dataset")
    common(gen)

    trn = sub.add_parser("train", help="train a model on a generated dataset")
    common(trn)
    trn.add_argument("--dataset", required=True, help="dataset.jsonl from gen")
    trn.add_argument(
        "--checkpoint", default=None,
        help="resume from a checkpoint_last.json written by train",
    )

    ev = sub.add_parser("eval", help="score policies on a dataset")
    common(ev)
    ev.add_argument("--dataset", required=True, help="dataset.jsonl from gen")
    ev.add_argument("--checkpoint", required=True, help="trained checkpoint")

    sw = sub.add_parser("sweep", help="train and compare across a grid")
    common(sw)
    sw.add_argument("kind", choices=("bandwidth", "lambda"))
    sw.add_argument(
        "--grid", required=True,
        help="bandwidth: 'w=20,40,80;k=20,50'; lambda: 'ratio=0,0.5,1,2,4'",
    )
    return parser


def _merged_config(args) -> RunConfig:
    data = load_config(args.config) if args.config else {}
    cfg = RunConfig.from_dict(data)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.out is not None:
        cfg = dataclasses.replace(cfg, out_dir=args.out)
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _merged_config(args)
        if args.command == "gen":
            return cmd_gen(cfg)
        if args.command == "train":
            return cmd_train(cfg, args.dataset, args.checkpoint, args.config)
        if args.command == "eval":
            return cmd_eval(cfg, args.dataset, args.checkpoint, args.config)
        return cmd_sweep(cfg, args.kind, args.grid, args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (
        ContractError,
        ShapeError,
        BudgetExceededError,
        TrainingDiverged,
        FloatingPointError,
    ) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
