"""Policy scoring, sweep tables, and plot-data export.

Every policy is reduced to a hard association and scored with the shared
power model, so numbers are comparable across the learned policy, the
heuristics, and the exact oracle.  The comparison of all policies on one
instance is `cli._compare`, which `eval` and both sweeps run;
`write_sweep_csv` aggregates its per-instance rows into one
mean/standard-error row per grid point, ready for CSV plotting.
"""

from __future__ import annotations

import math
import os
import re
import time
from dataclasses import dataclass

import numpy as np

from .baselines import HardAssociation
from .errors import ContractError
from .power import PowerParams, network_power_hard
from .scenario import Scenario

# metric columns emitted for every sweep point, in output order
SWEEP_COLUMNS = (
    "gnn_power_w",
    "rsrp_power_w",
    "subsinr_power_w",
    "gain_vs_rsrp_pct",
    "gain_vs_subsinr_pct",
    "switch_off_count",
    "switch_off_fraction",
)


@dataclass(frozen=True)
class PolicyReport:
    """Scorecard of one hard association on one scenario."""

    policy_name: str
    total_power_w: float
    cell_power_w: np.ndarray       # per-cell draw, length N
    switched_off_cells: np.ndarray  # indices of cells serving no UE
    overload: np.ndarray           # bool per cell, demand exceeds the carrier
    served_bps: float              # aggregate throughput actually granted
    gbr_required_bps: float        # demand total of the guaranteed-rate UEs
    gbr_satisfied: bool
    association: np.ndarray        # (K, N) one-hot

    @property
    def switched_off_count(self) -> int:
        return int(self.switched_off_cells.size)


def evaluate_policy(
    assoc: HardAssociation,
    s: Scenario,
    params: PowerParams,
    demand_mbps: float = 5.0,
    gbr_ues=None,
    policy_name: str = "policy",
) -> PolicyReport:
    """Score a hard association: power, switch-off, and served throughput.

    A UE's served rate is its demand scaled by its cell's admission ratio
    min(1, capacity / assigned PRBs); an overloaded cell degrades all of its
    UEs proportionally.  The rate guarantee is checked over `gbr_ues` (all
    UEs when None): their served sum must reach their demand total.
    """
    mat = assoc.as_matrix().astype(np.float64)
    if mat.shape != s.prb_demand.shape:
        raise ContractError(
            f"association {mat.shape} does not match scenario "
            f"demand {s.prb_demand.shape}"
        )
    npw = network_power_hard(mat, s.prb_demand, params, s.n_prb_total)
    scale = np.where(
        npw.load_prb > s.n_prb_total, s.n_prb_total / np.maximum(npw.load_prb, 1e-300), 1.0
    )
    demand_bps = demand_mbps * 1e6
    served_per_ue = demand_bps * scale[assoc.assignment]
    gbr = np.arange(s.n_ues) if gbr_ues is None else np.asarray(gbr_ues, dtype=int)
    gbr_required = demand_bps * gbr.size
    gbr_served = float(served_per_ue[gbr].sum())
    return PolicyReport(
        policy_name=policy_name,
        total_power_w=npw.total_w,
        cell_power_w=npw.cell_w,
        switched_off_cells=np.flatnonzero(~npw.active),
        overload=npw.overload,
        served_bps=float(served_per_ue.sum()),
        gbr_required_bps=gbr_required,
        gbr_satisfied=gbr_served >= gbr_required - 1e-6,
        association=mat,
    )


def gain_percent(p_gnn_w: float, p_base_w: float) -> float:
    """Relative power saving of the learned policy over a baseline.

    100 * (base - gnn) / base; positive means the learned policy is cheaper.
    """
    if p_base_w <= 0.0:
        raise ContractError(f"baseline power must be positive, got {p_base_w}")
    return 100.0 * (p_base_w - p_gnn_w) / p_base_w


def _mean_stderr(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    if arr.size < 2:
        return mean, 0.0
    return mean, float(arr.std(ddof=1) / math.sqrt(arr.size))


def _sweep_values(rows, col: str, n_cells: int) -> list:
    if col == "switch_off_count":
        return [row["gnn_switch_off"] for row in rows]
    if col == "switch_off_fraction":
        return [row["gnn_switch_off"] / n_cells for row in rows]
    return [row[col] for row in rows]


def write_sweep_csv(variable: str, points, n_cells: int, out_dir, timestamp: str | None = None):
    """Write one sweep table as `sweep_<variable>_<timestamp>.csv`.

    `points` holds one (swept values, rows) pair per grid point, in table
    order: a column -> value dict, and the per-instance `eval.csv` rows
    (`cli._compare`) of the point's model on its instances. Each of
    SWEEP_COLUMNS gets the mean and standard error over the rows, where
    `switch_off_count` is a row's `gnn_switch_off` and
    `switch_off_fraction` that over `n_cells`. Floats are written with
    repr so rereading reproduces them exactly.
    """
    if timestamp is None:
        timestamp = time.strftime("%Y%m%d-%H%M%S")
    path = os.path.join(out_dir, f"sweep_{variable}_{timestamp}.csv")
    keys = list(points[0][0])
    header = keys + ["status", "n_instances"]
    for col in SWEEP_COLUMNS:
        header += [f"mean_{col}", f"stderr_{col}"]
    lines = [",".join(header)]
    for values, rows in points:
        line = [repr(values[key]) for key in keys] + ["ok", str(len(rows))]
        for col in SWEEP_COLUMNS:
            mean, err = _mean_stderr(_sweep_values(rows, col, n_cells))
            line += [repr(mean), repr(err)]
        lines.append(",".join(line))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _matrix_lines(mat: np.ndarray, fmt=repr):
    return [",".join(fmt(v) for v in row) for row in np.asarray(mat).tolist()]


def export_heatmaps(s: Scenario, reports, out_dir):
    """Write plotting data: the SINR matrix, one association matrix per
    policy, and the node coordinates.

    Returns the written paths: len(reports) + 2 files.
    """
    for rep in reports:
        if rep.association.shape != (s.n_ues, s.n_cells):
            raise ContractError(
                f"report {rep.policy_name!r} association shape "
                f"{rep.association.shape} does not match the scenario"
            )
    paths = []
    sinr_path = os.path.join(out_dir, "heatmap_sinr.csv")
    with open(sinr_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(_matrix_lines(s.sinr_wideband_db)) + "\n")
    paths.append(sinr_path)
    for rep in reports:
        slug = re.sub(r"[^a-z0-9]+", "_", rep.policy_name.lower()).strip("_")
        if not slug:
            raise ContractError("policy_name must contain at least one word")
        path = os.path.join(out_dir, f"heatmap_{slug}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            lines = _matrix_lines(rep.association, fmt=lambda v: str(int(v)))
            fh.write("\n".join(lines) + "\n")
        paths.append(path)
    coord_path = os.path.join(out_dir, "coordinates.csv")
    with open(coord_path, "w", encoding="utf-8") as fh:
        fh.write("kind,index,x,y\n")
        for i, (x, y) in enumerate(s.bs_positions.tolist()):
            fh.write(f"bs,{i},{x!r},{y!r}\n")
        for i, (x, y) in enumerate(s.ue_positions.tolist()):
            fh.write(f"ue,{i},{x!r},{y!r}\n")
    paths.append(coord_path)
    return paths
