"""Run configuration and artifact schemas: strict parsing, stable digests.

A run file is JSON with one object per section (`scenario`, `power`,
`gat`, `train`, `eval`) plus global `seed` and `out_dir`.  Unknown keys
are rejected so typos cannot silently fall back to defaults, a section
must be a JSON object, keys typed `int` take JSON integers only, keys
typed `float` and each `region` extent take finite JSON numbers only,
stored as floats, and `str` and `bool` keys take JSON strings and booleans.
`RunConfig.stamp` is the merged configuration without `out_dir`:
manifests and checkpoints store it, with its digest, and `require_same`
checks a stamp read back from an artifact against the run config. Every
other artifact key is read by `read_artifact` under a declared table.
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .baselines import ORACLE_BUDGET
from .codec import decode_array
from .errors import ConfigError
from .gat import GatConfig
from .power import PowerParams
from .scenario import MIN_STD, ScenarioConfig
from .training import TrainConfig


@dataclass(frozen=True)
class EvalConfig:
    """Evaluation-side knobs shared by the eval and sweep commands."""

    subsinr_agg: str = "max"        # sub-band aggregation of the genie baseline
    # eval runs the exact oracle when N^K fits; a search on a larger
    # instance stops once it has visited this many nodes
    oracle_budget: int = ORACLE_BUDGET
    n_instances: int = 50            # held-out instances a sweep scores per row

    def __post_init__(self):
        if self.subsinr_agg not in ("max", "mean_top8"):
            raise ConfigError(f"unknown subsinr_agg {self.subsinr_agg!r}")
        if self.oracle_budget < 1:
            raise ConfigError(f"oracle_budget must be >= 1, got {self.oracle_budget}")
        if self.n_instances < 1:
            raise ConfigError(f"n_instances must be >= 1, got {self.n_instances}")


_SECTIONS = {
    "scenario": ScenarioConfig,
    "power": PowerParams,
    "gat": GatConfig,
    "eval": EvalConfig,
    # last: the stamp, whose key order is part of the checkpoint bytes,
    # has always put `train` after `eval`
    "train": TrainConfig,
}


def _field_names(cls) -> set:
    return {f.name for f in dataclasses.fields(cls)}


def _require_int(value, where: str):
    # bool is an int subclass, and a float such as 4.0 would pass int() checks
    if type(value) is not int:
        raise ConfigError(f"{where} must be an integer, got {value!r}")


def require_finite(value, where: str):
    """Raise ConfigError naming `where` unless `value` is a finite int or
    float, not a bool: `json` reads NaN and Infinity, `float` nan and inf."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not number or not math.isfinite(value):
        raise ConfigError(f"{where} must be a finite number, got {value!r}")


def _section(data: dict, name: str) -> dict:
    """A copy of section `name` of a run file, which must be an object."""
    section = data.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"section {name!r} must be an object, got {section!r}")
    return dict(section)


def _build_section(cls, data: dict, name: str):
    unknown = sorted(set(data) - _field_names(cls))
    if unknown:
        raise ConfigError(f"unknown key(s) in section {name!r}: {', '.join(unknown)}")
    for f in dataclasses.fields(cls):
        if f.name not in data:
            continue
        value, where = data[f.name], f"{name}.{f.name}"
        if f.type == "int":
            _require_int(value, where)
        elif f.type == "float":  # stored as a float, so an integer writes as one
            require_finite(value, where)
            data[f.name] = float(value)
        elif f.type == "tuple":  # a JSON list
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"{where} must be a list of numbers, got {value!r}")
            for item in value:
                require_finite(item, where)
            data[f.name] = tuple(float(item) for item in value)
        elif type(value).__name__ != f.type:  # str and bool keys
            kind = "string" if f.type == "str" else "boolean"
            raise ConfigError(f"{where} must be a JSON {kind}, got {value!r}")
    return cls(**data)


# ---------------------------------------------------------------------------
# artifact schemas: a table per artifact read, one reader


# How `read_artifact` takes a key of JSON `kind`: "int" (from `low` to the
# bound named `high`), "object" (by the table `keys`; with `cls`, also a
# run-file section), "list", "array" (a finite float64 codec entry of
# `shape`; a "list" of parameters or Adam moments is decoded, and held
# finite, by `codec.decode_packed`),
# "numbers" (nested lists of `shape` finite numbers, each at least `low`)
# or "unread". A size in `shape` is an int or a bound's name.
Key = collections.namedtuple(
    "Key", "kind low high shape keys cls", defaults=(-math.inf, None, (), None, None)
)
UNREAD = Key("unread")
STAMP = Key("object")  # a `RunConfig.stamp`, compared by `require_same`
_GRID = ("n_ues", "n_cells")
MANIFEST = {
    "config": Key("object", keys={"scenario": STAMP}), "count": Key("int", low=1),
    "seed": UNREAD, "config_digest": UNREAD,
}
RECORD = {
    "seed": Key("int", low=0),
    "ue_xy": Key("array", shape=("n_ues", 2)),
    "sinr_db": Key("array", shape=_GRID),
    "rsrp_dbm": Key("array", shape=_GRID),
    # earlier datasets: the manifest's digest, the graph, the cell layout
    # and the PRB demand
    "config_digest": UNREAD, "adj": UNREAD, "feat": UNREAD, "bs_xy": UNREAD, "prb": UNREAD,
}
# every read of a checkpoint: the architecture and the named parameters,
# whose layout `gat.load_checkpoint` checks against the architecture's
CHECKPOINT = {
    "gat": Key("object", cls=GatConfig, keys={
        "feat_dim": Key("int", low=1), "n_cells": Key("int", low=1),
    }),
    "params": Key("list"),
    "config_digest": UNREAD,
}
NORM_STATS = {
    "mean": Key("numbers", shape=("feat_dim",)),
    "std": Key("numbers", low=MIN_STD, shape=("feat_dim",)),
}
EVAL_CHECKPOINT = {
    "norm_stats": Key("object", keys=NORM_STATS), "config": UNREAD, "epoch": UNREAD,
}
# Adam's settings are the stamped `train` section's; earlier versions
# stored them in `adam` as well
ADAM = {
    "step": Key("int", low=0), "m": Key("list"), "v": Key("list"),
    **dict.fromkeys(("lr", "beta1", "beta2", "eps_stability"), UNREAD),
}
RESUME_CHECKPOINT = {
    "config": STAMP,
    "epoch": Key("int", low=0, high="epochs"),
    "adam": Key("object", keys=ADAM),
    # a row per epoch: epoch, mean train loss, mean test loss, lr
    "history": Key("numbers", shape=("epoch", 4)),
    "norm_stats": UNREAD,
}


def read_artifact(doc, table: dict, where: str, **bounds) -> dict:
    """The keys of `doc` that `table` reads, each checked by its `Key`:
    an "array" decoded, "numbers" a float64 array, an "object" with a
    table the keys it reads (and its section under "config"). `bounds`
    names sizes and caps, as does each key read. A key that breaks its rule
    raises ConfigError naming `where` and the key, dotted below the top."""
    try:
        return _read(doc, Key("object", keys=table), "", bounds)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _read(value, spec, name: str, bounds):
    if spec.kind == "int":
        _require_int(value, name)
        if not spec.low <= value <= bounds.get(spec.high, math.inf):
            raise ConfigError(
                f"{name} must be in [{spec.low}, {bounds.get(spec.high, 'inf')}], got {value}"
            )
        return value
    if spec.kind == "object":
        if not isinstance(value, dict):
            raise ConfigError(f"{name or 'the document'} must be a JSON object, got {value!r}")
        out = {}
        for key, inner in (spec.keys or {}).items():
            where = f"{name}.{key}" if name else key
            if inner.kind != "unread":
                if key not in value:
                    raise ConfigError(f"{where} is missing")
                out[key] = bounds[key] = _read(value[key], inner, where, bounds)
        if spec.cls:  # a missing key reads as null, which no section key takes
            section = {key: value.get(key) for key in _field_names(spec.cls)}
            out["config"] = _build_section(spec.cls, section, name)
        return out if spec.keys else value
    if spec.kind == "list":
        if not isinstance(value, list):
            raise ConfigError(f"{name} must be a JSON list, got {value!r}")
        return value
    shape = tuple(bounds.get(size, size) for size in spec.shape)
    if spec.kind == "array":
        arr = decode_array(value, name)
        if arr.shape != shape:
            raise ConfigError(f"{name} has shape {list(arr.shape)}, not {list(shape)}")
        if not np.isfinite(arr).all():
            raise ConfigError(f"{name} holds a non-finite value")
        return arr
    # "numbers": checked as one array, so numpy, not Python, walks them
    try:
        arr = np.asarray(value if value != [] else np.empty((0, *shape[1:])))
    except ValueError:  # rows of unequal lengths
        arr = np.asarray(None)
    if arr.dtype.kind not in "iuf" or arr.shape != shape or not np.isfinite(arr).all():
        raise ConfigError(f"{name} must be {' x '.join(map(str, shape))} finite numbers")
    if (arr < spec.low).any():
        raise ConfigError(f"{name} must be at least {spec.low}")
    return arr.astype(np.float64)


@dataclass(frozen=True)
class RunConfig:
    """Merged settings for one reproducible run."""

    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    power: PowerParams = field(default_factory=PowerParams)
    gat: GatConfig = field(default_factory=GatConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    seed: int = 0
    out_dir: str = "runs"

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        allowed = set(_SECTIONS) | {"seed", "out_dir"}
        unknown = sorted(set(data) - allowed)
        if unknown:
            raise ConfigError(f"unknown top-level key(s): {', '.join(unknown)}")
        kwargs = {}
        for name, section_cls in _SECTIONS.items():
            section = _section(data, name)
            kwargs[name] = _build_section(section_cls, section, name)
        kwargs["seed"] = data.get("seed", 0)
        _require_int(kwargs["seed"], "seed")
        if kwargs["seed"] < 0:
            raise ConfigError(f"seed must be >= 0, got {kwargs['seed']}")
        kwargs["out_dir"] = data.get("out_dir", "runs")
        if not isinstance(kwargs["out_dir"], str):
            raise ConfigError(f"out_dir must be a JSON string, got {kwargs['out_dir']!r}")
        return cls(**kwargs)

    def to_dict(self) -> dict:
        doc = {name: dataclasses.asdict(getattr(self, name)) for name in _SECTIONS}
        doc["scenario"]["region"] = list(self.scenario.region)
        doc["seed"] = self.seed
        doc["out_dir"] = self.out_dir
        return doc

    def stamp(self) -> dict:
        """The config as artifacts store it: `to_dict` without `out_dir`,
        which is placement, not data, so two runs of one experiment into
        different directories stamp the same config."""
        doc = self.to_dict()
        doc.pop("out_dir")
        return doc

    def digest(self) -> str:
        canon = json.dumps(self.stamp(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def read_json(path, what: str) -> dict:
    """The JSON object in file `path`: ConfigError naming `what` if the
    text is not one, OSError if the file cannot be read."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{what} must hold a JSON object")
    return data


def load_config(path) -> dict:
    """Parse a JSON run file into a plain dict (`read_json`)."""
    return read_json(path, f"config file {path}")


def write_doc(path, doc: dict):
    """Write a small JSON document as the run's text files hold them:
    sorted keys, indented, a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_config(cfg: RunConfig, path):
    """Persist the run config's stamp next to run outputs."""
    write_doc(path, cfg.stamp())


def require_same(artifact: str, found, wanted: dict, config_path=None):
    """Raise ConfigError unless `found`, a config stamp read back from
    `artifact`, equals `wanted`, the part of the run config at
    `config_path` that the artifact must match.

    Both are laid out as `RunConfig.stamp` gives them: sections of keys,
    and top-level values. The message names the artifact, the run config
    and each differing key once, as `section: key found vs wanted`.
    """
    differing = []
    for name in sorted(set(found) | set(wanted)):
        got, want = found.get(name), wanted.get(name)
        if isinstance(got, dict) or isinstance(want, dict):
            got = got if isinstance(got, dict) else {}
            want = want if isinstance(want, dict) else {}
            differing += [
                f"{name}: {key} {got.get(key)!r} vs {want.get(key)!r}"
                for key in sorted(set(got) | set(want))
                if got.get(key) != want.get(key)
            ]
        elif got != want:
            differing.append(f"{name}: {got!r} vs {want!r}")
    if differing:
        raise ConfigError(
            f"{artifact} was made under another config: it and "
            f"{config_path or 'the default config'} differ in {'; '.join(differing)}"
        )
