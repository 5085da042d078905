"""Comparison association policies: signal-strength rules and an exact
minimum-power search.

The exact search treats association as a generalized assignment problem
(Ross & Soland 1975; Martello & Toth 1990) and solves it by branch and
bound, so its cost follows the instance's structure rather than N^K.

The signal-strength rules are capacity-blind on purpose: a UE joins its
best cell even if that overloads it, and overload shows up in reported
power through the clipped utilization.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BudgetExceededError, ConfigError, ContractError
from .power import PowerParams, cell_draw, on_cost
from .scenario import Scenario

ORACLE_BUDGET = 10_000_000
# relative slack before a bound cuts a branch; rounding in a bound is ~1e-14
_TIE_RTOL = 1e-9
# up to this many cells the search runs once per active-cell set
_MAX_SET_CELLS = 10


def associate_rsrp(s: Scenario) -> np.ndarray:
    """Each UE on its strongest wideband received power; ties to the
    lowest cell index."""
    return np.argmax(s.rsrp_dbm, axis=1)


def associate_ga_subsinr(s: Scenario, agg: str = "max") -> np.ndarray:
    """Each UE on the cell with the best per-PRB SINR profile.

    agg picks the profile summary of the linear per-PRB SINR: the single
    best PRB, or the mean of the best eight. A scenario read back from a
    dataset record carries no per-PRB SINR and raises ContractError;
    regenerate it from its seed first.
    """
    lin = s.sinr_per_prb
    if lin is None:
        raise ContractError(
            f"scenario seed {s.seed} carries no per-PRB SINR: dataset records "
            f"do not store it, regenerate the scenario from its seed"
        )
    if agg == "max":
        score = lin.max(axis=2)
    elif agg == "mean_top8":
        m = min(8, lin.shape[2])
        top = np.sort(lin, axis=2)[:, :, -m:]
        score = top.mean(axis=2)
    else:
        raise ConfigError(f"unknown sub-band aggregation {agg!r}")
    return np.argmax(score, axis=1)


def oracle_assignment(
    prb: np.ndarray,
    n_prb_total: int,
    p: PowerParams,
    budget: int = ORACLE_BUDGET,
) -> np.ndarray:
    """Cheapest feasible assignment, one cell index per UE, found by exact
    branch and bound.

    Feasible means no cell holds more PRBs than the carrier. If nothing is
    feasible the cheapest overloaded assignment is returned, so an
    overloaded result means no assignment fits. Ties go to the
    lexicographically smallest assignment, UE 0 being the most significant
    digit, and leaves are scored exactly as `network_power_hard` scores
    them, so the result is the one a full enumeration of all N^K
    assignments would pick.

    Instances with N^K <= budget are always solved. Above that the search
    raises `BudgetExceededError` once it has visited more than `budget`
    nodes.
    """
    prb = np.asarray(prb, dtype=np.float64)
    k, n = prb.shape
    search = _Search(prb, n_prb_total, p, None if n**k <= budget else budget)
    if not search.run(capacity=True):
        search.run(capacity=False)
    return np.array(search.best, dtype=np.int64).reshape(k)


class _Search:
    """Depth-first branch and bound, one active-cell set at a time.

    While no cell clips, network draw is N * sleep + |A| * wake + w * total
    load, where A is the set of active cells, `wake` a cell's on-cost above
    sleep and `w` the draw per PRB. Cell sets are searched in ascending
    order of that expression taken with each UE's cheapest demand in the
    set, and the search of a set keeps only assignments that wake exactly
    its cells, so every assignment is reached once. Within a set, UEs are
    branched on by descending regret (the gap between their two cheapest
    cells) and each UE tries its cells cheapest first, which finds a tight
    incumbent early.

    A branch is cut when it overfills a cell (capacity pass only), or when
    its bound exceeds the incumbent by more than a relative `_TIE_RTOL`.
    The bound is the partial draw, plus the wake cost of the set's cells
    still asleep, plus each remaining UE's cheapest load. A leaf that ties
    the incumbent up to rounding is therefore still scored, and a leaf
    replaces the incumbent when it draws less, or draws exactly as much
    and is lexicographically smaller.
    """

    def __init__(self, prb, n_prb_total, p, node_budget):
        self.prb = prb
        self.rows = prb.tolist()
        self.n_prb_total = n_prb_total
        self.p = p
        self.node_budget = node_budget
        self.wake_w, slope = on_cost(p)
        self.w_per_prb = slope / n_prb_total
        self.nodes = 0
        self.best_w = math.inf
        self.limit = math.inf
        self.best = None

    def run(self, capacity: bool) -> bool:
        """Search every cell set that can still win; True once any leaf is
        scored. Without `capacity` cells may overfill, and clip."""
        for bound, plan in self._cell_sets(capacity):
            if bound > self.limit:
                break
            self._search_set(*plan, capacity)
        return self.best is not None

    def _cell_sets(self, capacity):
        """(bound, plan) for every cell set that can host a leaf, cheapest
        bound first. A plan holds the set's cells as flags, the cells each
        UE may join, cheapest first, each UE's demand on the cheapest of
        them, and the PRBs the set can carry."""
        x, t = self.prb, self.n_prb_total
        k, n = x.shape
        if n <= _MAX_SET_CELLS:
            allowed = required = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1 == 1
        else:  # too many subsets: a single set, every cell allowed, none required
            allowed = np.ones((1, n), dtype=bool)
            required = np.zeros((1, n), dtype=bool)
        # a UE may also sit on a cell it puts no load on: that cell stays asleep
        reach = allowed[:, None, :] | (x == 0.0)[None]
        if capacity:
            reach &= (x <= t)[None]
        least = np.where(reach, x[None], np.inf).min(axis=2)
        n_required = required.sum(axis=1)
        carry = allowed.sum(axis=1) * t
        ok = np.isfinite(least).all(axis=1) & (n_required <= k)
        if capacity:
            ok &= least.sum(axis=1) <= carry
        else:  # once a cell clips, more load on it is free
            least = np.zeros_like(least)
        bound = (
            n * self.p.p_sleep_w
            + n_required * self.wake_w
            + self.w_per_prb * least.sum(axis=1)
        )
        sets = np.flatnonzero(ok)
        for s in sets[np.argsort(bound[sets], kind="stable")]:
            cells = [
                sorted(np.flatnonzero(r).tolist(), key=row.__getitem__)
                for r, row in zip(reach[s], self.rows)
            ]
            yield float(bound[s]), (
                required[s].tolist(), cells, least[s].tolist(), int(carry[s])
            )

    def _search_set(self, required, cells, least, carry, capacity):
        x = self.rows
        k = len(x)
        t = self.n_prb_total
        wake, w = self.wake_w, self.w_per_prb

        def regret(ue):
            c = cells[ue]
            return x[ue][c[1]] - x[ue][c[0]] if len(c) > 1 else math.inf

        order = sorted(range(k), key=regret, reverse=True)
        rest_prb = [0.0] * (k + 1)  # cheapest demand of the UEs from depth j on
        for j in range(k - 1, -1, -1):
            rest_prb[j] = rest_prb[j + 1] + least[order[j]]
        rest_w = [w * v for v in rest_prb]
        loads = [0.0] * len(required)
        path = [0] * k

        def visit(j, draw, used, asleep):
            self.nodes += 1
            if self.node_budget is not None and self.nodes > self.node_budget:
                raise BudgetExceededError(
                    f"oracle search visited more than {self.node_budget} nodes "
                    f"on {k} UEs x {len(required)} cells"
                )
            if j == k:
                if not asleep:
                    self._score_leaf(path)
                return
            ue = order[j]
            row = x[ue]
            for m in cells[ue]:
                load = loads[m]
                new = load + row[m]
                if capacity and (new > t or used + row[m] + rest_prb[j + 1] > carry):
                    continue
                woke = load == 0.0 and new > 0.0
                d = draw + w * (min(new, t) - min(load, t)) + (wake if woke else 0.0)
                a = asleep - (woke and required[m])
                if a > k - j - 1 or d + a * wake + rest_w[j + 1] > self.limit:
                    continue
                loads[m] = new
                path[ue] = m
                visit(j + 1, d, used + row[m], a)
                loads[m] = load

        visit(0, len(required) * self.p.p_sleep_w, 0.0, sum(required))

    def _score_leaf(self, path):
        # loads summed in UE order, as network_power_hard sums them
        loads = [0.0] * self.prb.shape[1]
        for row, m in zip(self.rows, path):
            loads[m] += row[m]
        power_w = float(cell_draw(np.array(loads), self.p, self.n_prb_total).sum())
        if power_w < self.best_w or (power_w == self.best_w and path < self.best):
            self.best_w = power_w
            self.best = list(path)
            self.limit = power_w + _TIE_RTOL * abs(power_w)


def associate_oracle(
    s: Scenario, p: PowerParams, budget: int = ORACLE_BUDGET
) -> np.ndarray:
    """`oracle_assignment` of the scenario's PRB demand: each UE's cell."""
    return oracle_assignment(s.prb_demand, s.n_prb_total, p, budget)
