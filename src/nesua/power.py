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


def _check_one_hot(s_hard: np.ndarray):
    if s_hard.ndim != 2:
        raise ContractError(f"association matrix must be 2-D, got shape {s_hard.shape}")
    binary = (s_hard == 0.0) | (s_hard == 1.0)
    if not binary.all() or not np.all(s_hard.sum(axis=1) == 1.0):
        bad = int(np.argmax(~(binary.all(axis=1) & (s_hard.sum(axis=1) == 1.0))))
        raise ContractError(f"association row {bad} is not one-hot")


def network_power_hard(
    s_hard: np.ndarray, prb: np.ndarray, p: PowerParams, n_prb_total: int
) -> NetworkPower:
    """Network draw for a hard (one-hot per UE) association.

    A cell is active iff it serves at least one UE; its utilization is the
    assigned PRB count over the carrier's, clipped to 1.
    """
    s_hard = np.asarray(s_hard, dtype=np.float64)
    prb = np.asarray(prb, dtype=np.float64)
    _check_one_hot(s_hard)
    if s_hard.shape != prb.shape:
        raise ContractError(
            f"association {s_hard.shape} and PRB demand {prb.shape} differ"
        )
    load = (s_hard * prb).sum(axis=0)
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
    the constant on-cost are scaled by the gate, so the expression reproduces
    network_power_hard exactly at one-hot corners (a gate of 0 must erase the
    radio draw of an empty cell, not just its fixed part). The whole draw is
    one op, `autodiff.gated_load_cost`, which appends its record to a list
    `saved` when given one.
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
