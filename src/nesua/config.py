"""Run configuration: nested sections, strict parsing, stable digests.

A run file is JSON with one object per section (`scenario`, `power`,
`gat`, `train`, `eval`) plus global `seed` and `out_dir`.  Unknown keys
are rejected so typos cannot silently fall back to defaults.  The digest
of the merged configuration stamps datasets and checkpoints, tying every
artifact to the exact settings that produced it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
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


def _build_section(cls, data: dict, name: str):
    unknown = sorted(set(data) - _field_names(cls))
    if unknown:
        raise ConfigError(f"unknown key(s) in section {name!r}: {', '.join(unknown)}")
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
            section = dict(data.get(name, {}))
            if not isinstance(section, dict):
                raise ConfigError(f"section {name!r} must be an object")
            if name == "scenario" and isinstance(section.get("region"), list):
                section["region"] = tuple(section["region"])
            kwargs[name] = _build_section(section_cls, section, name)
        train_section = dict(data.get("train", {}))
        if not isinstance(train_section, dict):
            raise ConfigError("section 'train' must be an object")
        loss_section = {
            k: train_section.pop(k) for k in _LOSS_KEYS if k in train_section
        }
        kwargs["train"] = _build_section(TrainConfig, train_section, "train")
        kwargs["loss"] = _build_section(LossConfig, loss_section, "train")
        kwargs["seed"] = int(data.get("seed", 0))
        kwargs["out_dir"] = str(data.get("out_dir", "runs"))
        return cls(**kwargs)

    def to_dict(self) -> dict:
        doc = {name: dataclasses.asdict(getattr(self, name)) for name in _SECTIONS}
        doc["scenario"]["region"] = list(self.scenario.region)
        doc["train"] = {**dataclasses.asdict(self.train), **dataclasses.asdict(self.loss)}
        doc["seed"] = self.seed
        doc["out_dir"] = self.out_dir
        return doc

    def digest(self) -> str:
        # out_dir is placement, not data: two runs of one experiment into
        # different directories must stamp identical digests
        doc = self.to_dict()
        doc.pop("out_dir")
        canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
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
    """Persist the effective merged configuration next to run outputs.

    The output directory is dropped: placement is evident from where the
    file sits, and keeping it out makes reruns into different directories
    byte-identical.
    """
    doc = cfg.to_dict()
    doc.pop("out_dir", None)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")
