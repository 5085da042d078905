"""Association policy hand cases, oracle optimality, and dominance."""

import dataclasses
import itertools

import numpy as np
import pytest

from helpers import enumerate_oracle, reference_generate_scenario
from nesua import baselines as bl
from nesua import gat
from nesua import scenario as sc
from nesua.errors import BudgetExceededError, ConfigError, ContractError
from nesua.power import PowerParams, network_power_hard

DEFAULTS = PowerParams()


def _scenario(sinr_db=None, rsrp=None, per_prb_db=None, prb=None, t=51):
    # hand cases give the per-PRB SINR in dB; a scenario holds it linear
    if sinr_db is None:
        sinr_db = 10.0 * np.log10((10.0 ** (per_prb_db / 10.0)).mean(axis=2))
    k, n = sinr_db.shape
    if per_prb_db is None:
        per_prb_db = np.repeat(sinr_db[:, :, None], 3, axis=2)
    return sc.Scenario(
        seed=0,
        bs_positions=np.zeros((n, 2)),
        ue_positions=np.zeros((k, 2)),
        distance=np.ones((k, n)),
        sinr_wideband_db=sinr_db,
        sinr_per_prb=10.0 ** (per_prb_db / 10.0),
        rsrp_dbm=sinr_db.copy() if rsrp is None else rsrp,
        prb_demand=np.ones((k, n), dtype=np.int64) if prb is None else prb,
        n_prb_total=t,
    )


def test_rsrp_tie_breaks_to_lowest_index():
    s = _scenario(sinr_db=np.zeros((1, 2)), rsrp=np.array([[-80.0, -80.0]]))
    assert bl.associate_rsrp(s).tolist() == [0]


def test_rsrp_hand_matrix():
    rsrp = np.array([[-70.0, -90.0], [-95.0, -60.0], [-80.0, -79.0]])
    s = _scenario(sinr_db=np.zeros((3, 2)), rsrp=rsrp)
    assert bl.associate_rsrp(s).tolist() == [0, 1, 1]


def test_rsrp_follows_distance_without_shadowing():
    cfg = sc.ScenarioConfig(n_cells=3, n_ues=20, region=(2500.0, 2500.0),
                            inter_site_distance=900.0, shadowing_sigma_db=0.0)
    s = sc.generate_scenario(cfg, 40)
    nearest = np.argmin(s.distance, axis=1)
    assert bl.associate_rsrp(s).tolist() == nearest.tolist()


def test_ga_subsinr_single_cell():
    per = np.zeros((4, 1, 5))
    s = _scenario(per_prb_db=per)
    assert bl.associate_ga_subsinr(s).tolist() == [0, 0, 0, 0]


def test_ga_subsinr_prefers_one_clean_prb():
    # cell 1 is better on average, cell 2 has a single standout PRB
    per = np.zeros((1, 2, 4))
    per[0, 0] = [10.0, 10.0, 10.0, 10.0]
    per[0, 1] = [-20.0, -20.0, 15.0, -20.0]
    s = _scenario(per_prb_db=per)
    assert bl.associate_ga_subsinr(s).tolist() == [1]
    # the wideband view disagrees: mean favors cell 0
    assert np.argmax(s.sinr_wideband_db[0]) == 0


def test_ga_subsinr_tie_and_agg_switch():
    per = np.tile(np.linspace(0.0, 3.0, 6), (2, 3, 1))
    s = _scenario(per_prb_db=per)
    assert bl.associate_ga_subsinr(s).tolist() == [0, 0]
    assert bl.associate_ga_subsinr(s, agg="mean_top8").tolist() == [0, 0]
    with pytest.raises(ConfigError):
        bl.associate_ga_subsinr(s, agg="median")


def test_ga_subsinr_mean_top8_can_differ_from_max():
    per = np.zeros((1, 2, 10))
    per[0, 0] = 8.0            # uniformly strong
    per[0, 1] = -30.0
    per[0, 1, 0] = 9.0         # one lucky PRB, rest dreadful
    s = _scenario(per_prb_db=per)
    assert bl.associate_ga_subsinr(s, agg="max").tolist() == [1]
    assert bl.associate_ga_subsinr(s, agg="mean_top8").tolist() == [0]


def test_ga_subsinr_refuses_a_scenario_without_its_cube():
    s = dataclasses.replace(
        _scenario(sinr_db=np.zeros((2, 3))), seed=41, sinr_per_prb=None
    )
    with pytest.raises(ContractError, match="seed 41"):
        bl.associate_ga_subsinr(s)


def test_flat_channel_makes_subsinr_match_rsrp():
    # one cell per reuse group: no interference, so both policies rank by
    # received power alone
    cfg = sc.ScenarioConfig(n_cells=3, n_ues=25, region=(2500.0, 2500.0),
                            inter_site_distance=900.0, reuse_factor=1.0 / 3.0)
    for seed in range(10):
        s = reference_generate_scenario(cfg, seed, fading=False)
        a = bl.associate_rsrp(s)
        b = bl.associate_ga_subsinr(s)
        np.testing.assert_array_equal(a, b)


def _independent_best(prb, t, p):
    k, n = prb.shape
    best = None
    for tup in itertools.product(range(n), repeat=k):
        res = network_power_hard(np.array(tup), prb, p, t)
        key = (not (res.load_prb <= t).all(), res.total_w)
        if best is None or key < best[0]:
            best = (key, tup, res.total_w)
    return best


def test_oracle_symmetric_tie_goes_lexicographic():
    res = bl.oracle_assignment(np.array([[10.0, 10.0]]), 51, DEFAULTS)
    assert res.assignment.tolist() == [0]
    assert res.feasible


def test_oracle_two_ue_hand_enumeration():
    prb = np.array([[1.0, 50.0], [50.0, 1.0]])
    res = bl.oracle_assignment(prb, 51, DEFAULTS)
    _, tup, pw = _independent_best(prb, 51, DEFAULTS)
    assert res.assignment.tolist() == list(tup)
    assert res.power_w == pytest.approx(pw, rel=1e-12)


def test_oracle_consolidates_when_fixed_power_dominates():
    p = PowerParams(p_fixed_w=500.0, p_sleep_w=0.0)
    prb = np.ones((3, 2))
    res = bl.oracle_assignment(prb, 51, p)
    assert res.assignment.tolist() == [0, 0, 0]
    assert res.feasible


def test_oracle_matches_independent_enumeration():
    rng = np.random.default_rng(50)
    for trial in range(40):
        k = int(rng.integers(1, 6))
        n = int(rng.integers(1, 4))
        if n**k > 4096:
            continue
        prb = rng.integers(1, 35, size=(k, n)).astype(float)
        p = PowerParams(p_sleep_w=float(rng.choice([0.0, 10.0])))
        res = bl.oracle_assignment(prb, 51, p)
        key, tup, pw = _independent_best(prb, 51, p)
        assert res.assignment.tolist() == list(tup), f"trial {trial}"
        assert res.power_w == pytest.approx(pw, rel=1e-12)
        assert res.feasible == (not key[0])


def _assert_same_as_enumeration(prb, t, p, msg=""):
    res = bl.oracle_assignment(prb, t, p)
    assignment, power_w, feasible = enumerate_oracle(prb, t, p)
    assert res.assignment.tolist() == assignment.tolist(), msg
    assert res.power_w == power_w, msg
    assert res.feasible == feasible, msg
    return res


def test_oracle_crosses_chunk_boundaries_consistently():
    # the reference crosses several enumeration chunks on this instance
    prb = np.linspace(1.0, 12.0, 9 * 4).reshape(9, 4)
    res = _assert_same_as_enumeration(prb, 51, DEFAULTS)
    chunked = enumerate_oracle(prb, 51, DEFAULTS, chunk=1000)
    assert res.assignment.tolist() == chunked[0].tolist()
    assert res.power_w == chunked[1]


def _random_instance(rng, trial):
    """Small instance drawn to hit ties, fractions, overload, zero demand
    and sleep draw."""
    k = int(rng.integers(1, 8))
    n = int(rng.integers(1, 5))
    while n**k > 3000:
        k -= 1
    t = int(rng.choice([9, 51]))
    kind = trial % 5
    if kind == 0:  # integer demand, some of it over the carrier
        prb = rng.integers(1, t + 4, size=(k, n)).astype(float)
    elif kind == 1:  # non-integer demand
        prb = rng.uniform(0.3, 0.7 * t, size=(k, n))
    elif kind == 2:  # forced ties: every UE demands the same row
        prb = np.tile(rng.integers(1, t // 2 + 2, size=n).astype(float), (k, 1))
    elif kind == 3:  # duplicated decimal rows: ties that rounding can split
        prb = np.round(rng.uniform(0.1, 0.5 * t, size=(k, n)), 1)
        prb[k // 2:] = prb[: k - k // 2]
    else:  # every cell over the carrier for at least one UE: often infeasible
        prb = rng.integers(t // 2, t + 6, size=(k, n)).astype(float)
        prb[0] = t + 1.0
    if trial % 7 == 0:  # zero demand: a UE that leaves its cell asleep
        prb[rng.random(prb.shape) < 0.3] = 0.0
    sleep = float(rng.choice([0.0, 7.5, 40.0]))
    p = PowerParams(p_sleep_w=sleep, p_bb_slope_w=float(rng.choice([20.0, 400.0])))
    return prb, t, p


def test_oracle_matches_enumeration_on_random_instances():
    rng = np.random.default_rng(2024)
    infeasible = fractional = 0
    for trial in range(320):
        prb, t, p = _random_instance(rng, trial)
        res = _assert_same_as_enumeration(prb, t, p, f"trial {trial}")
        infeasible += not res.feasible
        fractional += bool((prb != np.round(prb)).any())
    assert infeasible >= 20 and fractional >= 50


@pytest.mark.parametrize("n,k", [(2, 18), (3, 12), (4, 9), (7, 7)])
def test_oracle_matches_enumeration_on_deep_trees(n, k):
    rng = np.random.default_rng(n * 100 + k)
    t = 51
    # total demand near the capacity of two cells, so packing decides
    prb = rng.integers(1, 2 * 2 * t // k + 2, size=(k, n)).astype(float)
    _assert_same_as_enumeration(prb, t, DEFAULTS)
    # one demand row shared by every UE: many exact ties
    _assert_same_as_enumeration(np.tile(prb[0], (k, 1)), t, PowerParams(p_sleep_w=7.5))


def test_oracle_matches_enumeration_beyond_per_set_search():
    # more cells than the per-set search handles: one unrestricted search
    rng = np.random.default_rng(13)
    n = bl._MAX_SET_CELLS + 3
    for _ in range(3):
        prb = rng.integers(1, 40, size=(3, n)).astype(float)
        _assert_same_as_enumeration(prb, 51, PowerParams(p_sleep_w=7.5))


def test_oracle_overload_fallback_is_flagged():
    prb = np.full((2, 2), 60.0)  # every assignment overloads some cell
    res = bl.oracle_assignment(prb, 51, DEFAULTS)
    assert not res.feasible
    _, tup, pw = _independent_best(prb, 51, DEFAULTS)
    assert res.assignment.tolist() == list(tup)
    assert res.power_w == pytest.approx(pw, rel=1e-12)


def test_oracle_budget_refusal():
    # N^K is far above the budget, so the search stops after `budget` nodes
    prb = np.ones((30, 7))
    with pytest.raises(BudgetExceededError):
        bl.oracle_assignment(prb, 51, DEFAULTS, budget=50)
    res = bl.oracle_assignment(prb, 51, DEFAULTS)  # ~200 nodes
    assert res.assignment.tolist() == [0] * 30


def test_oracle_never_refuses_within_enumeration_budget():
    # two 30-PRB UEs cannot share a cell: the search visits more nodes
    # than the 7^2 assignments, yet a budget of N^K must still solve it
    prb = np.full((2, 7), 30.0)
    res = bl.oracle_assignment(prb, 51, DEFAULTS, budget=7**2)
    assert res.assignment.tolist() == [0, 1]
    with pytest.raises(BudgetExceededError):
        bl.oracle_assignment(prb, 51, DEFAULTS, budget=7**2 - 1)


def test_oracle_solves_paper_defaults_at_k20():
    # 7^20 assignments: far beyond enumeration, solved exactly in milliseconds
    cfg = sc.ScenarioConfig(n_ues=20)
    model = gat.init_model(
        3 * cfg.n_cells, cfg.n_cells, gat.GatConfig(hidden_dim=8), seed=0
    )
    for seed in range(3):
        s = sc.generate_scenario(cfg, 300 + seed)
        res = bl.associate_oracle(s, DEFAULTS)
        assert res.feasible
        g = sc.build_graph(s, cfg.gamma_th_db)
        policies = {
            "rsrp": bl.associate_rsrp(s),
            "subsinr": bl.associate_ga_subsinr(s),
            "gnn": gat.harden(gat.forward(g, model)),
        }
        for name, policy in policies.items():
            net = network_power_hard(
                policy, s.prb_demand, DEFAULTS, s.n_prb_total
            )
            if net.overload.any():
                # clipped draw: no feasible assignment competes with that; only
                # the untrained model piles every UE onto one cell
                assert name == "gnn", f"seed {seed}"
                continue
            assert res.power_w <= net.total_w, f"seed {seed} {name}"


def test_oracle_dominates_signal_strength_policies():
    cfg = sc.ScenarioConfig(n_cells=3, n_ues=5, region=(2500.0, 2500.0),
                            inter_site_distance=900.0, ue_demand_mbps=2.0,
                            tx_power_dbm=46.0)
    for seed in range(25):
        s = sc.generate_scenario(cfg, 100 + seed)
        oracle = bl.associate_oracle(s, DEFAULTS)
        for policy in (bl.associate_rsrp(s), bl.associate_ga_subsinr(s)):
            pw = network_power_hard(
                policy, s.prb_demand, DEFAULTS, s.n_prb_total
            ).total_w
            assert oracle.power_w <= pw + 1e-9


# a scenario holds the per-PRB SINR as a linear ratio; the GA baseline
# used to read it back from dB, and picks the same cells without the trip
@pytest.mark.parametrize("agg", ["max", "mean_top8"])
@pytest.mark.parametrize("n_ues, n_cells, bandwidth_mhz", [
    (7, 3, 20.0), (7, 7, 80.0), (50, 7, 20.0), (100, 3, 80.0),
])
def test_ga_subsinr_on_the_linear_cube_equals_it_through_db(
    agg, n_ues, n_cells, bandwidth_mhz
):
    cfg = sc.ScenarioConfig(n_ues=n_ues, n_cells=n_cells, bandwidth_mhz=bandwidth_mhz)
    for s in sc.iter_scenarios(cfg, range(300, 400)):
        cube_db = np.multiply(10.0, np.log10(s.sinr_per_prb))
        via_db = dataclasses.replace(s, sinr_per_prb=10.0 ** (cube_db / 10.0))
        assert (
            bl.associate_ga_subsinr(s, agg).tobytes()
            == bl.associate_ga_subsinr(via_db, agg).tobytes()
        ), s.seed
