"""Command-line entry point wiring datasets, training, evaluation, sweeps.

Every command reads one merged configuration (file plus flag overrides),
writes it back into the output directory, and writes no timestamp, in a
file or in a file name, so a rerun with the same settings reproduces the
same bytes.  `train` rebuilds each dataset record with `from_record`, then
builds the graphs of all of them as one stack, which it shuffles, splits
and z-scores whole and trains on (`training.split_and_normalize`).
`eval` instead draws each record's scenario once from its seed, checks the
stored arrays against that draw and scores it; both sweeps score the
scenarios they draw.  Every instance is scored, one at a time, through one
policy comparison, `_compare`; `eval` writes its rows.  A sweep trains each
grid point on the scenarios it draws, writing no dataset, and aggregates
the rows of `eval.n_instances` held-out instances per point
(`evaluate.write_sweep_csv`).  Exit codes: 0 success, 2 configuration
error, 3 I/O error, 4 numeric abort.
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
from .codec import write_table
from .config import (
    EVAL_CHECKPOINT, MANIFEST, RECORD, RESUME_CHECKPOINT, STAMP, RunConfig, load_config,
    read_artifact, read_json, require_finite, require_same, write_config, write_doc,
)
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
from .training import split_and_normalize, train, write_history

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

# sweep evaluation scenarios draw seeds from a range disjoint from training
EVAL_SEED_OFFSET = 1_000_000


def _scenarios(cfg: RunConfig):
    """The training scenarios of cfg, in seed order."""
    return iter_scenarios(cfg.scenario, range(cfg.seed, cfg.seed + cfg.train.dataset_size))


def cmd_gen(cfg: RunConfig) -> int:
    """Write dataset.jsonl, then the manifest.json `_read_dataset` checks it
    against. The records are drawn first, so a draw the config cannot make
    leaves no output directory."""
    records = [to_record(s) for s in _scenarios(cfg)]
    os.makedirs(cfg.out_dir, exist_ok=True)
    dataset_path = os.path.join(cfg.out_dir, "dataset.jsonl")
    write_jsonl(dataset_path, records)
    manifest = {
        "config": cfg.stamp(),
        "config_digest": cfg.digest(),
        "seed": cfg.seed,
        "count": len(records),
    }
    write_doc(os.path.join(cfg.out_dir, "manifest.json"), manifest)
    write_config(cfg, os.path.join(cfg.out_dir, "config.json"))
    print(f"wrote {len(records)} records to {dataset_path}")
    return EXIT_OK


def _architectures(model, cfg: RunConfig, graph) -> tuple[dict, dict]:
    """The model's architecture and the one the run config and a graph of
    its dataset (one instance or stacked) call for, as stamps: a `gat`
    section with the cell count and the feature width."""
    return (
        {"gat": {**dataclasses.asdict(model.config), "n_cells": model.n_cells,
                 "feat_dim": model.feat_dim}},
        {"gat": {**dataclasses.asdict(cfg.gat), "n_cells": cfg.scenario.n_cells,
                 "feat_dim": graph.features.shape[-1]}},
    )


def _resumable(stamp: dict) -> dict:
    """A stamp without what a resume may change: `train.epochs`, the epoch
    to train to, and the `eval` section, which training does not read."""
    doc = {name: value for name, value in stamp.items() if name != "eval"}
    if isinstance(doc.get("train"), dict):
        doc["train"] = {k: v for k, v in doc["train"].items() if k != "epochs"}
    return doc


def _read_dataset(dataset_path, cfg: RunConfig, config_path=None) -> list:
    """A dataset's records, after checking the manifest.json next to it:
    it must have been written for the run config's scenario section, and
    its record count must match the dataset's."""
    manifest_path = os.path.join(os.path.dirname(dataset_path), "manifest.json")
    where = f"manifest {manifest_path}"
    manifest = read_artifact(read_json(manifest_path, where), MANIFEST, where)
    require_same(
        f"{where} of dataset {dataset_path}", manifest["config"],
        {"scenario": cfg.stamp()["scenario"]}, config_path,
    )
    records = read_jsonl(dataset_path)
    if len(records) != manifest["count"]:
        raise ConfigError(
            f"dataset {dataset_path} holds {len(records)} records but "
            f"{manifest_path} says {manifest['count']}"
        )
    return records


def _drawn(records, dataset_path, cfg: RunConfig):
    """The scenario of each record, drawn from its seed under the run
    config's `scenario` section, one at a time. Each record is read by the
    `config.RECORD` table, and every array it stores must be bit-equal to
    the drawn one, or ConfigError names the dataset, the record and the key."""
    sc = cfg.scenario
    for number, rec in enumerate(records, 1):
        where = f"dataset {dataset_path} record {number}"
        arr = read_artifact(rec, RECORD, where, n_cells=sc.n_cells, n_ues=sc.n_ues)
        s = generate_scenario(sc, arr["seed"])
        for key, name in RECORD_FIELDS.items():
            if arr[key].tobytes() != getattr(s, name).tobytes():
                raise ConfigError(
                    f"{where}: stored {key} is not what seed {s.seed} "
                    f"generates under the run config"
                )
        yield s


def _train_to_dir(cfg: RunConfig, scenarios, out_dir, checkpoint=None, config_path=None):
    """Build the scenarios' graphs as one stack, split, train (optionally
    resuming), and persist the run artifacts.

    Resuming continues the epoch count from the checkpoint; best-model
    tracking restarts from the resume point. The checkpoint must be the
    run it continues: its stamp must be the run config's but for
    `train.epochs` and the `eval` section, its architecture that of the
    run config and the dataset's feature width, and its Adam moments
    float64 arrays shaped like the parameters they belong to.
    """
    graphs = build_graph(scenarios, cfg.scenario.gamma_th_db)
    train_g, test_g, stats = split_and_normalize(graphs, cfg.train.split_fraction, cfg.seed)
    model = None
    adam = None
    start_epoch = 0
    prior_history = []
    if checkpoint:
        model, leftover = gat_mod.load_checkpoint(checkpoint)
        where = f"checkpoint {checkpoint}"
        resume = read_artifact(leftover, RESUME_CHECKPOINT, where, epochs=cfg.train.epochs)
        shapes = [p.shape for p in model.params.values()]
        adam = ad.AdamState.from_dict(leftover["adam"], shapes, f"{where}: adam")
        built, wanted = _architectures(model, cfg, graphs)
        require_same(
            where, {**_resumable(resume["config"]), **built},
            {**_resumable(cfg.stamp()), **wanted}, config_path,
        )
        start_epoch = resume["epoch"]
        prior_history = [(int(row[0]), *row[1:]) for row in resume["history"].tolist()]
    res = train(
        train_g,
        cfg.train,
        cfg.power,
        seed=cfg.seed,
        gat_cfg=cfg.gat,
        test=test_g,
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
    """Train on a dataset of at least two records, one for each split."""
    scenarios = [
        from_record(rec, cfg.scenario, f"dataset {dataset_path} record {number}")
        for number, rec in enumerate(_read_dataset(dataset_path, cfg, config_path), 1)
    ]
    if len(scenarios) < 2:
        raise ConfigError(
            f"dataset {dataset_path} holds {len(scenarios)} record; train needs at "
            f"least 2, one for each split"
        )
    res = _train_to_dir(
        cfg, scenarios, cfg.out_dir, checkpoint=checkpoint, config_path=config_path
    )
    print(
        f"trained to epoch {cfg.train.epochs}; best epoch {res.best_epoch}; "
        f"outputs in {cfg.out_dir}"
    )
    return EXIT_OK


def _load_model(path) -> tuple:
    """A checkpoint's model and the feature statistics it stamps, read by
    the `EVAL_CHECKPOINT` table."""
    model, leftover = gat_mod.load_checkpoint(path)
    doc = read_artifact(leftover, EVAL_CHECKPOINT, f"checkpoint {path}", feat_dim=model.feat_dim)
    return model, FeatureStats(**doc["norm_stats"])


def _compare(s, graph, model, cfg: RunConfig, with_oracle=False):
    """Score one instance under every policy: the model's hardened
    association, strongest RSRP, sub-band SINR and, when asked, the exact
    oracle, each scored once. `s` is a drawn scenario, with its per-PRB
    SINR, and `graph` its graph normalized for `model`. Returns the
    `eval.csv` row without its seed, a column -> value dict, and the policy
    reports in heatmap order."""
    gnn = evaluate_policy(
        gat_mod.harden(gat_mod.forward(graph, model)), s, cfg.power, policy_name="gnn"
    )
    rsrp = evaluate_policy(associate_rsrp(s), s, cfg.power, policy_name="rsrp")
    sub = evaluate_policy(
        associate_ga_subsinr(s, agg=cfg.eval.subsinr_agg), s, cfg.power,
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
        orep = evaluate_policy(oracle, s, cfg.power, policy_name="oracle")
        row["oracle_power_w"] = orep.total_power_w
        # the search is exact: its answer overloads a cell only when every
        # assignment does
        row["oracle_feasible"] = int(orep.gbr_satisfied)
        reports.append(orep)
    row["gain_vs_rsrp_pct"] = gain_percent(gnn.total_power_w, rsrp.total_power_w)
    row["gain_vs_subsinr_pct"] = gain_percent(gnn.total_power_w, sub.total_power_w)
    row["gnn_switch_off"] = gnn.switched_off_count
    row["gnn_gbr_ok"] = int(gnn.gbr_satisfied)
    return row, reports


def cmd_eval(cfg: RunConfig, dataset_path, checkpoint, config_path=None) -> int:
    """Score every record's scenario, drawn once from its seed, under each
    policy. The model's architecture is checked against the first graph
    before any forward pass; nothing is written until every record scores."""
    model, stats = _load_model(checkpoint)
    records = _read_dataset(dataset_path, cfg, config_path)
    with_oracle = cfg.scenario.n_cells**cfg.scenario.n_ues <= cfg.eval.oracle_budget

    rows = []
    for s in _drawn(records, dataset_path, cfg):
        graph = build_graph(s, cfg.scenario.gamma_th_db)
        if not rows:  # the first graph, before any forward pass
            require_same(
                f"checkpoint {checkpoint}", *_architectures(model, cfg, graph), config_path
            )
        row, reports = _compare(s, normalize_features(graph, stats), model, cfg, with_oracle)
        if not rows:
            first_reports = (s, reports)
        rows.append((s.seed, row))

    header = list(rows[0][1])
    os.makedirs(cfg.out_dir, exist_ok=True)
    write_table(
        os.path.join(cfg.out_dir, "eval.csv"),
        ([seed, *row.values()] for seed, row in rows), ["seed", *header],
    )
    summary = {"n_instances": len(rows)}
    for name in header:
        total = 0.0  # plain left-to-right float sum: sum() and np.mean round otherwise
        for _, row in rows:
            total += row[name]
        summary[f"mean_{name}"] = total / len(rows)
    write_doc(os.path.join(cfg.out_dir, "eval_summary.json"), summary)
    export_heatmaps(first_reports[0], first_reports[1], cfg.out_dir)
    write_config(cfg, os.path.join(cfg.out_dir, "config.json"))
    print(
        f"evaluated {len(rows)} instances; mean gnn power "
        f"{summary['mean_gnn_power_w']:.3f} W; outputs in {cfg.out_dir}"
    )
    return EXIT_OK


def _parse_grid(text: str) -> dict:
    """Parse 'key=1,2;other=0.5,1' into {key: [values]}, each a JSON number,
    with no key and no value of a key (by `==`: 20 is 20.0) given twice."""
    grid = {}
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"grid part {part!r} is not key=v1,v2,...")
        key, _, tail = part.partition("=")
        key = key.strip()
        if key in grid:
            raise ConfigError(f"grid key {key!r} is given twice")
        try:  # JSON numbers, as a run file's
            values = json.loads(f"[{tail}]")
        except ValueError:
            values = []
        if not values or not all(type(v) in (int, float) for v in values):
            raise ConfigError(f"grid value for key {key!r} is not a number in {tail!r}")
        for value in values:
            require_finite(value, f"grid value for key {key!r}")
        if len(set(values)) != len(values):
            raise ConfigError(f"grid key {key!r} repeats a value in {tail!r}")
        grid[key] = values
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


def _train_point(cfg_dict: dict, sub_dir) -> None:
    """Sweep worker: train one point's config into its directory on the
    scenarios it draws, which `gen` writes from the point's config.json."""
    cfg = RunConfig.from_dict(cfg_dict)
    # training reads no per-PRB SINR, so the cube is not kept for it
    scenarios = [dataclasses.replace(s, sinr_per_prb=None) for s in _scenarios(cfg)]
    _train_to_dir(cfg, scenarios, sub_dir)
    with open(os.path.join(sub_dir, "DONE"), "w", encoding="utf-8") as fh:
        fh.write("ok\n")


def _train_points(cfg: RunConfig, points, config_path=None):
    """Train each sweep point's config into its directory.

    A point with a DONE file is reused only if its checkpoint_best.json
    stamps the point's config (`require_same`). Any other finished point
    raises ConfigError naming its directory before anything is written, so
    a sweep never scores models trained under another config. Then the
    sweep's config.json is written, and `_train_point` workers train the
    other points, up to `_max_workers` at a time.
    """
    todo = []
    for sub, point_cfg, _ in points:
        if not os.path.exists(os.path.join(sub, "DONE")):
            todo.append((point_cfg.to_dict(), sub))
            continue
        best = os.path.join(sub, "checkpoint_best.json")
        where = f"finished sweep point {sub} (remove it, or sweep into another --out): {best}"
        stamped = read_artifact(read_json(best, where), {"config": STAMP}, where)
        require_same(where, stamped["config"], point_cfg.stamp(), config_path)
    os.makedirs(cfg.out_dir, exist_ok=True)
    write_config(cfg, os.path.join(cfg.out_dir, "config.json"))
    workers = _max_workers(len(todo))
    if workers == 1:
        for payload in todo:
            _train_point(*payload)
        return
    # imported here: the pool's import costs every other command time and memory
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        list(pool.map(_train_point, *zip(*todo)))


def _with_grid_value(cfg: RunConfig, key: str, name: str, value) -> RunConfig:
    """cfg with `scenario.<name>` set to a value of grid key `key`, read
    under the run file's rules, so a value the key cannot take exits 2."""
    doc = cfg.to_dict()
    doc["scenario"][name] = value
    try:
        return RunConfig.from_dict(doc)
    except ConfigError as exc:
        raise ConfigError(f"grid key {key!r}: {exc}") from None


def cmd_sweep(cfg: RunConfig, kind: str, grid_text: str, config_path=None) -> int:
    """Train every grid point on the scenarios it draws, then score the
    point's model under each config it is scored at, with `_compare` on
    that config's `eval.n_instances` held-out scenarios: one table row each."""
    grid = _parse_grid(grid_text)
    points = []  # (directory, trained config, [(swept values, scored config)])
    if kind == "bandwidth":
        if set(grid) != {"w", "k"}:
            raise ConfigError(f"bandwidth sweep grid needs keys w and k, got {sorted(grid)}")
        for w in grid["w"]:
            trained = _with_grid_value(cfg, "w", "bandwidth_mhz", w)
            scored = [
                ({"bandwidth_mhz": w, "n_ues": k}, _with_grid_value(trained, "k", "n_ues", k))
                for k in grid["k"]
            ]
            points.append((os.path.join(cfg.out_dir, f"w{w!r}"), trained, scored))
        variable = "bandwidth"
    elif kind == "lambda":
        if set(grid) != {"ratio"}:
            raise ConfigError(f"lambda sweep grid needs key ratio, got {sorted(grid)}")
        for r in grid["ratio"]:
            trained = dataclasses.replace(
                cfg, train=dataclasses.replace(cfg.train, lambda2=r * cfg.train.lambda1)
            )
            sub = os.path.join(cfg.out_dir, f"ratio{r!r}")
            points.append((sub, trained, [({"lambda_ratio": r}, trained)]))
        variable = "lambda_ratio"
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigError(f"unknown sweep kind {kind!r}")

    _train_points(cfg, points, config_path)
    table = []
    for sub, _, scored in points:
        model, stats = _load_model(os.path.join(sub, "checkpoint_best.json"))
        for values, scored_cfg in scored:
            first = scored_cfg.seed + EVAL_SEED_OFFSET
            seeds = range(first, first + scored_cfg.eval.n_instances)
            rows = []
            for s in iter_scenarios(scored_cfg.scenario, seeds):
                graph = normalize_features(build_graph(s, scored_cfg.scenario.gamma_th_db), stats)
                rows.append(_compare(s, graph, model, scored_cfg)[0])
            table.append((values, rows))
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
    """The run file with `--seed` and `--out` over it, read by its rules."""
    data = load_config(args.config) if args.config else {}
    for key, flag in (("seed", args.seed), ("out_dir", args.out)):
        if flag is not None:
            data[key] = flag
    return RunConfig.from_dict(data)


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
