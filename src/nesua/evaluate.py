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
from dataclasses import dataclass

import numpy as np

from .baselines import HardAssociation
from .codec import write_table
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
    demand_mbps: float,
    policy_name: str,
) -> PolicyReport:
    """Score a hard association: power, switch-off, and served throughput.

    A UE's served rate is its demand scaled by its cell's admission ratio
    min(1, capacity / assigned PRBs); an overloaded cell degrades all of its
    UEs proportionally.  Every UE holds the rate guarantee: the served sum
    must reach the demand total.
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
    gbr_required = demand_bps * s.n_ues
    served = float(served_per_ue.sum())
    return PolicyReport(
        policy_name=policy_name,
        total_power_w=npw.total_w,
        cell_power_w=npw.cell_w,
        switched_off_cells=np.flatnonzero(~npw.active),
        overload=npw.overload,
        served_bps=served,
        gbr_required_bps=gbr_required,
        gbr_satisfied=served >= gbr_required - 1e-6,
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


def write_sweep_csv(variable: str, points, n_cells: int, out_dir):
    """Write one sweep table as `sweep_<variable>.csv`, replacing the
    table an earlier sweep of that variable wrote there.

    `points` holds one (swept values, rows) pair per grid point, in table
    order: a column -> value dict, and the per-instance `eval.csv` rows
    (`cli._compare`) of the point's model on its instances. Each of
    SWEEP_COLUMNS gets the mean and standard error over the rows, where
    `switch_off_count` is a row's `gnn_switch_off` and
    `switch_off_fraction` that over `n_cells`. The table is written by
    `codec.write_table`.
    """
    path = os.path.join(out_dir, f"sweep_{variable}.csv")
    keys = list(points[0][0])
    header = keys + ["n_instances"]
    for col in SWEEP_COLUMNS:
        header += [f"mean_{col}", f"stderr_{col}"]
    table = []
    for values, rows in points:
        line = [values[key] for key in keys] + [len(rows)]
        for col in SWEEP_COLUMNS:
            line += _mean_stderr(_sweep_values(rows, col, n_cells))
        table.append(line)
    write_table(path, table, header)
    return path


def export_heatmaps(s: Scenario, reports, out_dir):
    """Write plotting data: the SINR matrix, one association matrix per
    policy, and the node coordinates: len(reports) + 2 files."""
    for rep in reports:
        if rep.association.shape != (s.n_ues, s.n_cells):
            raise ContractError(
                f"report {rep.policy_name!r} association shape "
                f"{rep.association.shape} does not match the scenario"
            )
    write_table(os.path.join(out_dir, "heatmap_sinr.csv"), s.sinr_wideband_db.tolist())
    for rep in reports:
        slug = re.sub(r"[^a-z0-9]+", "_", rep.policy_name.lower()).strip("_")
        if not slug:
            raise ContractError("policy_name must contain at least one word")
        path = os.path.join(out_dir, f"heatmap_{slug}.csv")
        write_table(path, rep.association.astype(np.int64).tolist())
    coords = [("bs", i, x, y) for i, (x, y) in enumerate(s.bs_positions.tolist())]
    coords += [("ue", i, x, y) for i, (x, y) in enumerate(s.ue_positions.tolist())]
    write_table(os.path.join(out_dir, "coordinates.csv"), coords, ["kind", "index", "x", "y"])
