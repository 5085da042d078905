"""Command-line entry point wiring datasets, training, evaluation, sweeps.

Every command reads one merged configuration (file plus flag overrides),
writes it back into the output directory, and keeps all numeric output
free of timestamps so a rerun with the same settings reproduces the same
bytes.  Exit codes: 0 success, 2 configuration error, 3 I/O error,
4 numeric abort.
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
from .config import RunConfig, load_config, write_config
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
    sweep_bandwidth,
    sweep_lambda,
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

# run config sections that define the training objective; checkpoint_last
# stamps them, and a resume must run under the same ones
OBJECTIVE_SECTIONS = ("loss", "power")


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
    manifest_cfg = cfg.to_dict()
    manifest_cfg.pop("out_dir", None)  # placement, not data
    manifest = {
        "config": manifest_cfg,
        "config_digest": cfg.digest(),
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


def _differing(found: dict, wanted: dict) -> str:
    """'key found vs wanted' for every key on which two sections differ."""
    return ", ".join(
        f"{key} {found.get(key)!r} vs {wanted.get(key)!r}"
        for key in sorted(set(found) | set(wanted))
        if found.get(key) != wanted.get(key)
    )


def _check_architecture(model, checkpoint, cfg: RunConfig, pairs, config_path):
    """Refuse a checkpoint whose `gat` section is not the run config's, or
    that was built for another cell count or another feature width than
    the run config's scenario and its dataset."""
    found = {
        **model.config.to_dict(),
        "n_cells": model.n_cells,
        "feat_dim": model.feat_dim,
    }
    wanted = {
        **cfg.gat.to_dict(),
        "n_cells": cfg.scenario.n_cells,
        "feat_dim": pairs[0].graph.features.shape[1],
    }
    if found != wanted:
        raise ConfigError(
            f"checkpoint {checkpoint} was trained for another architecture: "
            f"it and {config_path or 'the default config'} with its dataset "
            f"differ in {_differing(found, wanted)}"
        )


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


def _check_optimizer(adam: ad.AdamState, checkpoint, cfg: RunConfig, config_path):
    """Refuse to resume under Adam settings other than the checkpoint's:
    the run would keep the checkpoint's, while `history.csv` records the
    run config's `lr`."""
    keys = ("lr", "beta1", "beta2")
    found = {key: getattr(adam, key) for key in keys}
    wanted = {key: getattr(cfg.train, key) for key in keys}
    if found != wanted:
        raise ConfigError(
            f"checkpoint {checkpoint} was trained with other optimizer settings: "
            f"it and {config_path or 'the default config'} differ in "
            f"{_differing(found, wanted)}"
        )


def _objective(cfg: RunConfig) -> dict:
    """The run config's `OBJECTIVE_SECTIONS`, as checkpoint_last stamps them."""
    return {name: dataclasses.asdict(getattr(cfg, name)) for name in OBJECTIVE_SECTIONS}


def _check_objective(leftover: dict, checkpoint, cfg: RunConfig, config_path):
    """Refuse to resume under loss weights or power constants other than
    the `loss` and `power` sections stamped in the checkpoint: the resumed
    epochs would train on another objective, and `history.csv` and
    `checkpoint_best` would mix the two."""
    differing = []
    for name, wanted in _objective(cfg).items():
        found = leftover[name] if isinstance(leftover[name], dict) else {}
        if found != wanted:
            differing.append(f"{name}: {_differing(found, wanted)}")
    if differing:
        raise ConfigError(
            f"checkpoint {checkpoint} was trained for another objective: "
            f"it and {config_path or 'the default config'} differ in "
            f"{'; '.join(differing)}"
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
        made_for = dict(manifest["config"]["scenario"])
        count = manifest["count"]
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(
            f"manifest {manifest_path} lacks config.scenario or count: {exc!r}"
        ) from exc
    wanted = cfg.to_dict()["scenario"]
    if made_for != wanted:
        raise ConfigError(
            f"dataset {dataset_path} was generated for another scenario: "
            f"{manifest_path} and {config_path or 'the default config'} differ "
            f"in {_differing(made_for, wanted)}"
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
    tracking restarts from the resume point. The checkpoint must have been
    trained for the run config's `gat` section, cell count and the
    dataset's feature width with the run config's Adam `lr`, `beta1` and
    `beta2`, `loss` weights and `power` constants, and its Adam moments
    must be float64 arrays shaped like the parameters they belong to.
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
        _check_architecture(model, checkpoint, cfg, pairs, config_path)
        missing = {"adam", "epoch", *OBJECTIVE_SECTIONS} - set(leftover)
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
        _check_moments(leftover["adam"], model, checkpoint)
        _check_optimizer(adam, checkpoint, cfg, config_path)
        _check_objective(leftover, checkpoint, cfg, config_path)
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
    common = {"config_digest": cfg.digest(), "norm_stats": stats.to_dict()}
    gat_mod.save_checkpoint(
        os.path.join(out_dir, "checkpoint_last.json"),
        res.model,
        {
            **common,
            "epoch": cfg.train.epochs,
            "adam": res.adam_state.to_dict(
                [p.shape for p in res.model.params.values()], deferred=True
            ),
            **_objective(cfg),
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


def cmd_eval(cfg: RunConfig, dataset_path, checkpoint, config_path=None) -> int:
    model, leftover = gat_mod.load_checkpoint(checkpoint)
    stats = _checkpoint_stats(leftover, checkpoint)
    pairs = _load_pairs(dataset_path, cfg, config_path)
    if not pairs:
        raise ConfigError(f"dataset {dataset_path} is empty")
    _check_architecture(model, checkpoint, cfg, pairs, config_path)
    demand = cfg.eval_demand_mbps()
    agg = cfg.eval.subsinr_agg
    k = pairs[0].scenario.n_ues
    n = pairs[0].scenario.n_cells
    with_oracle = n**k <= cfg.eval.oracle_budget

    header = ["seed", "gnn_power_w", "rsrp_power_w", "subsinr_power_w"]
    if with_oracle:
        header += ["oracle_power_w", "oracle_feasible"]
    header += [
        "gain_vs_rsrp_pct",
        "gain_vs_subsinr_pct",
        "gnn_switch_off",
        "gnn_gbr_ok",
    ]
    lines = [",".join(header)]
    sums = {name: 0.0 for name in header[1:]}
    first_reports = None
    for number, sample in enumerate(pairs, 1):
        s = _with_sinr_cube(sample.scenario, number, dataset_path, cfg)
        graph = normalize_features(sample.graph, stats)
        gnn = evaluate_policy(
            gat_mod.harden(gat_mod.forward(graph, model)),
            s, cfg.power, demand, policy_name="gnn",
        )
        rsrp = evaluate_policy(
            associate_rsrp(s), s, cfg.power, demand, policy_name="rsrp"
        )
        sub = evaluate_policy(
            associate_ga_subsinr(s, agg=agg), s, cfg.power, demand,
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
        row["gain_vs_rsrp_pct"] = gain_percent(
            row["gnn_power_w"], row["rsrp_power_w"]
        )
        row["gain_vs_subsinr_pct"] = gain_percent(
            row["gnn_power_w"], row["subsinr_power_w"]
        )
        row["gnn_switch_off"] = gnn.switched_off_count
        row["gnn_gbr_ok"] = int(gnn.gbr_satisfied)
        cells = [str(s.seed)]
        for name in header[1:]:
            value = row[name]
            cells.append(repr(value) if isinstance(value, float) else str(value))
            sums[name] += value
        lines.append(",".join(cells))
        if first_reports is None:
            first_reports = (s, reports)

    os.makedirs(cfg.out_dir, exist_ok=True)
    with open(os.path.join(cfg.out_dir, "eval.csv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    summary = {"n_instances": len(pairs)}
    for name in header[1:]:
        summary[f"mean_{name}"] = sums[name] / len(pairs)
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
                    values.append(float(tok))
                except ValueError:
                    raise ConfigError(
                        f"grid value {tok!r} for key {key!r} is not a number"
                    ) from None
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


def _train_points(cfg: RunConfig, points, sub_dirs, dataset_path=None):
    """Train each sweep point's config into its directory.

    A point with a DONE file is reused only if its checkpoint_best.json
    stamps the digest of the point's config. Any other finished point
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
        with open(os.path.join(sub, "checkpoint_best.json"), "r", encoding="utf-8") as fh:
            try:
                stamped = json.load(fh).get("config_digest")
            except (ValueError, AttributeError):
                stamped = None
        if stamped != point_cfg.digest():
            raise ConfigError(
                f"sweep point {sub} was trained under another config: its "
                f"checkpoint_best.json stamps config_digest {stamped!r}, the "
                f"point's config has {point_cfg.digest()!r}; remove the "
                f"directory or sweep into another --out"
            )
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


def cmd_sweep(cfg: RunConfig, kind: str, grid_text: str) -> int:
    grid = _parse_grid(grid_text)
    demand = cfg.eval_demand_mbps()
    agg = cfg.eval.subsinr_agg

    if kind == "bandwidth":
        if set(grid) != {"w", "k"}:
            raise ConfigError(
                f"bandwidth sweep grid needs keys w and k, got {sorted(grid)}"
            )
        ws, ks = grid["w"], grid["k"]
        sub_dirs = [os.path.join(cfg.out_dir, f"w{w!r}") for w in ws]
        points = [
            dataclasses.replace(cfg, scenario=dataclasses.replace(cfg.scenario, bandwidth_mhz=w))
            for w in ws
        ]
        _train_points(cfg, points, sub_dirs)
        models = {}
        test_sets = {}
        for w, point, sub in zip(ws, points, sub_dirs):
            model, stats = _load_point_model(sub)
            models[w] = model
            for k in ks:
                scenario = dataclasses.replace(point.scenario, n_ues=k)
                test_sets[(w, k)] = _eval_samples(
                    dataclasses.replace(point, scenario=scenario), stats
                )
        result = sweep_bandwidth(
            models, test_sets, ks, ws, cfg.power, agg=agg, demand_mbps=demand
        )
    elif kind == "lambda":
        if set(grid) != {"ratio"}:
            raise ConfigError(
                f"lambda sweep grid needs key ratio, got {sorted(grid)}"
            )
        ratios = grid["ratio"]
        sub_dirs = [os.path.join(cfg.out_dir, f"ratio{r!r}") for r in ratios]
        lam1 = cfg.loss.lambda1
        points = [
            dataclasses.replace(cfg, loss=LossConfig(lambda1=lam1, lambda2=r * lam1))
            for r in ratios
        ]
        dataset_path = os.path.join(cfg.out_dir, "dataset.jsonl")
        _train_points(cfg, points, sub_dirs, dataset_path)
        models = {}
        shared_samples = None
        for ratio, sub in zip(ratios, sub_dirs):
            model, stats = _load_point_model(sub)
            models[ratio] = model
            if shared_samples is None:
                # all ratios share the dataset, split, and normalization
                pairs = _load_pairs(dataset_path, cfg)
                numbers = {id(p.scenario): i for i, p in enumerate(pairs, 1)}
                _, test_s, _ = split_and_normalize(
                    pairs, cfg.train.split_fraction, cfg.seed
                )
                shared_samples = [
                    Sample(
                        _with_sinr_cube(
                            p.scenario, numbers[id(p.scenario)], dataset_path, cfg
                        ),
                        p.graph,
                    )
                    for p in test_s
                ]
        result = sweep_lambda(
            models, shared_samples, ratios, cfg.power, agg=agg, demand_mbps=demand
        )
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigError(f"unknown sweep kind {kind!r}")

    path = write_sweep_csv(result, cfg.out_dir)
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
        return cmd_sweep(cfg, args.kind, args.grid)
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
