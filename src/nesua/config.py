"""Run configuration: nested sections, strict parsing, stable digests.

A run file is JSON with one object per section (`scenario`, `power`,
`gat`, `train`, `eval`) plus global `seed` and `out_dir`.  Unknown keys
are rejected so typos cannot silently fall back to defaults, a section
must be a JSON object, keys typed `int` take JSON integers only, and keys
typed `float` and each `region` extent take finite numbers only.
`RunConfig.stamp` is the merged configuration without `out_dir`:
manifests and checkpoints store it, with its digest, and `require_same`
checks a stamp read back from an artifact against the run config.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field

from .errors import ConfigError
from .gat import GatConfig
from .power import PowerParams
from .scenario import ScenarioConfig
from .training import LossConfig, TrainConfig


@dataclass(frozen=True)
class EvalConfig:
    """Evaluation-side knobs shared by the eval and sweep commands."""

    subsinr_agg: str = "max"        # sub-band aggregation of the genie baseline
    # eval runs the exact oracle when N^K fits; a search on a larger
    # instance stops once it has visited this many nodes
    oracle_budget: int = 10_000_000
    n_instances: int = 50            # sweep-time test-set size per grid point
    demand_mbps: float = 0.0         # 0 means: use scenario.ue_demand_mbps

    def __post_init__(self):
        if self.subsinr_agg not in ("max", "mean_top8"):
            raise ConfigError(f"unknown subsinr_agg {self.subsinr_agg!r}")
        if self.oracle_budget < 1:
            raise ConfigError(f"oracle_budget must be >= 1, got {self.oracle_budget}")
        if self.n_instances < 1:
            raise ConfigError(f"n_instances must be >= 1, got {self.n_instances}")
        if not self.demand_mbps >= 0.0:
            raise ConfigError(f"demand_mbps must be >= 0, got {self.demand_mbps}")


_SECTIONS = {
    "scenario": ScenarioConfig,
    "power": PowerParams,
    "gat": GatConfig,
    "eval": EvalConfig,
}
_LOSS_KEYS = ("lambda1", "lambda2")


def _field_names(cls) -> set:
    return {f.name for f in dataclasses.fields(cls)}


def _require_int(value, where: str):
    # bool is an int subclass, and a float such as 4.0 would pass int() checks
    if type(value) is not int:
        raise ConfigError(f"{where} must be an integer, got {value!r}")


def require_finite(value, where: str):
    """Raise ConfigError naming `where` if `value` is a NaN or infinite
    float: `json` reads NaN and Infinity, and `float` reads nan and inf."""
    if isinstance(value, float) and not math.isfinite(value):
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
        if f.type in (int, "int"):
            _require_int(value, where)
        elif f.type in (float, "float"):
            require_finite(value, where)
        elif f.type in (tuple, "tuple") and isinstance(value, tuple):
            for item in value:
                require_finite(item, where)
    try:
        return cls(**data)
    except TypeError as exc:
        raise ConfigError(f"bad value in section {name!r}: {exc}") from exc


@dataclass(frozen=True)
class RunConfig:
    """Merged settings for one reproducible run."""

    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    power: PowerParams = field(default_factory=PowerParams)
    gat: GatConfig = field(default_factory=GatConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    seed: int = 0
    out_dir: str = "runs"

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        allowed = set(_SECTIONS) | {"train", "seed", "out_dir"}
        unknown = sorted(set(data) - allowed)
        if unknown:
            raise ConfigError(f"unknown top-level key(s): {', '.join(unknown)}")
        kwargs = {}
        for name, section_cls in _SECTIONS.items():
            section = _section(data, name)
            if name == "scenario" and isinstance(section.get("region"), list):
                section["region"] = tuple(section["region"])
            kwargs[name] = _build_section(section_cls, section, name)
        train_section = _section(data, "train")
        loss_section = {
            k: train_section.pop(k) for k in _LOSS_KEYS if k in train_section
        }
        kwargs["train"] = _build_section(TrainConfig, train_section, "train")
        kwargs["loss"] = _build_section(LossConfig, loss_section, "train")
        kwargs["seed"] = data.get("seed", 0)
        _require_int(kwargs["seed"], "seed")
        kwargs["out_dir"] = str(data.get("out_dir", "runs"))
        return cls(**kwargs)

    def to_dict(self) -> dict:
        doc = {name: dataclasses.asdict(getattr(self, name)) for name in _SECTIONS}
        doc["scenario"]["region"] = list(self.scenario.region)
        doc["train"] = {**dataclasses.asdict(self.train), **dataclasses.asdict(self.loss)}
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

    def eval_demand_mbps(self) -> float:
        return self.eval.demand_mbps or self.scenario.ue_demand_mbps


def load_config(path) -> dict:
    """Parse a JSON run file into a plain dict; parse failures are config
    errors, missing files are I/O errors."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return data


def write_config(cfg: RunConfig, path):
    """Persist the run config's stamp next to run outputs."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg.stamp(), fh, sort_keys=True, indent=2)
        fh.write("\n")


def require_same(artifact: str, found, wanted: dict, config_path=None):
    """Raise ConfigError unless `found`, a config stamp read back from
    `artifact`, equals `wanted`, the part of the run config at
    `config_path` that the artifact must match.

    Both are laid out as `RunConfig.stamp` gives them: sections of keys,
    and top-level values. The message names the artifact, the run config
    and each differing key once, as `section: key found vs wanted`.
    """
    if not isinstance(found, dict):
        raise ConfigError(f"{artifact} stamps no config")
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
