"""Base-station and network power consumption model.

A cell's draw splits into a fixed part, a baseband part affine in PRB
utilization, and a radio part affine in utilization with a constant
amplifier overhead. Switched-off cells draw only sleep power. The same
model exists in two forms: the per-cell array draw `cell_draw` and
`network_power_hard`, which the baselines and policy scoring (`evaluate`)
use; and a relaxed form (`network_power_soft`) for the training loss,
whose gradient `autodiff.gated_load_cost_backward` gives. Both take the
radio draw's constant and slope from `radio_coefficients`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, ContractError


@dataclass(frozen=True)
class PowerParams:
    """Per-BS power model constants. All powers in Watts."""

    p_fixed_w: float = 100.0    # always drawn while the cell is on
    p_bb0_w: float = 10.0       # baseband draw at zero load
    p_bb_slope_w: float = 20.0  # baseband increase per unit utilization
    epsilon: float = 0.5        # amplifier overhead factor, dimensionless
    sigma_max: float = 0.5      # peak amplifier efficiency, in (0, 1]
    p_max_pa_w: float = 40.0    # amplifier rating
    n_tx: int = 4               # transmit chains
    p_sleep_w: float = 0.0      # draw of a switched-off cell
    eta_as_pout: bool = False   # scale utilization by the PA rating in the radio term

    def __post_init__(self):
        if not 0.0 < self.sigma_max <= 1.0:
            raise ConfigError(f"sigma_max must be in (0, 1], got {self.sigma_max}")
        if self.epsilon < 0.0:
            raise ConfigError(f"epsilon must be >= 0, got {self.epsilon}")
        for name in ("p_fixed_w", "p_bb0_w", "p_bb_slope_w", "p_max_pa_w", "p_sleep_w"):
            if getattr(self, name) < 0.0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.n_tx < 1:
            raise ConfigError(f"n_tx must be >= 1, got {self.n_tx}")
        if self.p_sleep_w > self.p_fixed_w:
            raise ConfigError(
                f"p_sleep_w ({self.p_sleep_w}) exceeds p_fixed_w ({self.p_fixed_w})"
            )


def radio_coefficients(p: PowerParams) -> tuple[float, float]:
    """Constant and slope of the affine radio draw: radio(eta) = c0 + c1*eta."""
    denom = (1.0 + p.epsilon) * p.sigma_max
    c0 = p.n_tx * p.epsilon * p.p_max_pa_w / denom
    c1 = p.n_tx * (p.p_max_pa_w if p.eta_as_pout else 1.0) / denom
    return c0, c1


@dataclass(frozen=True)
class NetworkPower:
    """Total network draw with its per-cell decomposition."""

    total_w: float
    cell_w: np.ndarray      # per-cell draw, length N
    load_prb: np.ndarray    # per-cell assigned PRBs, length N
    active: np.ndarray      # bool, cell serves at least one UE
    overload: np.ndarray    # bool, assigned PRBs exceed the carrier


def _check_assignment(assignment: np.ndarray, k: int, n: int):
    if assignment.shape != (k,) or not np.issubdtype(assignment.dtype, np.integer):
        raise ContractError(
            f"association must be {k} integer cell indices, got "
            f"{assignment.dtype} shaped {assignment.shape}"
        )
    outside = (assignment < 0) | (assignment >= n)
    if outside.any():
        bad = int(np.argmax(outside))
        raise ContractError(
            f"association entry {bad} is cell {assignment[bad]}, not one of {n}"
        )


def network_power_hard(
    assignment: np.ndarray, prb: np.ndarray, p: PowerParams, n_prb_total: int
) -> NetworkPower:
    """Network draw for a hard association, one cell index per UE.

    A cell is active iff it serves at least one UE; its utilization is the
    assigned PRB count over the carrier's, clipped to 1. Each cell's load
    adds its UEs' PRBs in UE order.
    """
    assignment = np.asarray(assignment)
    prb = np.asarray(prb, dtype=np.float64)
    if prb.ndim != 2:
        raise ContractError(f"PRB demand must be 2-D, got shape {prb.shape}")
    k, n = prb.shape
    _check_assignment(assignment, k, n)
    load = np.bincount(assignment, weights=prb[np.arange(k), assignment], minlength=n)
    cell_w = cell_draw(load, p, n_prb_total)
    return NetworkPower(
        total_w=float(cell_w.sum()),
        cell_w=cell_w,
        load_prb=load,
        active=load > 0.0,
        overload=load > n_prb_total,
    )


def cell_draw(load: np.ndarray, p: PowerParams, n_prb_total: int) -> np.ndarray:
    """Per-cell draw for per-cell PRB loads: sleep power when a cell carries
    nothing, the full model at its clipped utilization otherwise."""
    c0, c1 = radio_coefficients(p)
    eta = np.minimum(1.0, load / n_prb_total)
    on_w = p.p_fixed_w + p.p_bb0_w + p.p_bb_slope_w * eta + c0 + c1 * eta
    return np.where(load > 0.0, on_w, p.p_sleep_w)


def network_power_soft(
    s: np.ndarray, prb: np.ndarray, p: PowerParams, n_prb_total: int, saved=None
):
    """Differentiable network draw for a row-stochastic association matrix.

    Each cell's on/off state is relaxed to the gate g_n = 1 - prod_k(1 - S_kn)
    and its load to the S-weighted PRB sum; both the load-dependent terms and
    the constant on-cost are scaled by the gate, so at one-hot corners the
    expression equals network_power_hard up to rounding (a gate of 0 must
    erase the radio draw of an empty cell, not just its fixed part). The
    whole draw is one op, `autodiff.gated_load_cost`, which appends its
    record to a list `saved` when given one.
    """
    if s.ndim != 2:
        raise ContractError(f"association matrix must be 2-D, got shape {s.shape}")
    k, n = s.shape
    prb = np.asarray(prb, dtype=np.float64)
    if prb.shape != (k, n):
        raise ContractError(f"association {s.shape} and PRB demand {prb.shape} differ")
    c0, c1 = radio_coefficients(p)
    return ad.gated_load_cost(
        s, prb, n_prb_total,
        on_const=p.p_fixed_w - p.p_sleep_w + p.p_bb0_w + c0,
        on_slope=p.p_bb_slope_w + c1,
        offset=n * p.p_sleep_w,
        saved=saved,
    )
