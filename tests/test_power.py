"""Closed-form values, invariants, and gradients of the power model."""

import numpy as np
import pytest

from nesua import autodiff as ad
from nesua import power as pw
from nesua.errors import ConfigError, ContractError

from helpers import finite_difference_grad

DEFAULTS = pw.PowerParams()


# the radio draw is c0 + c1*eta; with the defaults (4 chains, a 40 W
# amplifier, epsilon 0.5, sigma_max 0.5) c0 = 4*0.5*40/0.75 = 320/3 W and
# c1 = 4/0.75 = 16/3 W, so a full cell's radio draws 112 W; the rest of an
# active cell's draw is 100 W fixed plus 10 + 20*eta W baseband
ON_AT_ZERO_W = 110.0 + 320.0 / 3.0
ON_SLOPE_W = 20.0 + 16.0 / 3.0


def _on_w(eta):
    return ON_AT_ZERO_W + ON_SLOPE_W * eta


def test_radio_power_closed_forms():
    c0, c1 = pw.radio_coefficients(DEFAULTS)
    assert c0 == pytest.approx(106.6666666667, rel=1e-9)
    assert c0 + c1 == pytest.approx(112.0, rel=1e-9)


def test_radio_power_identity_reduction():
    p = pw.PowerParams(epsilon=0.0, sigma_max=1.0, n_tx=1)
    assert pw.radio_coefficients(p) == (0.0, 1.0)


def test_radio_power_is_affine():
    rng = np.random.default_rng(10)
    for _ in range(50):
        p = pw.PowerParams(
            epsilon=rng.uniform(0.0, 2.0),
            sigma_max=rng.uniform(0.1, 1.0),
            p_max_pa_w=rng.uniform(1.0, 80.0),
            n_tx=int(rng.integers(1, 9)),
        )
        load = rng.uniform(0.0, 51.0, size=2)
        slope = p.n_tx / ((1.0 + p.epsilon) * p.sigma_max) + p.p_bb_slope_w
        draw = pw.cell_draw(load, p, 51)
        assert draw[1] - draw[0] == pytest.approx(
            (load[1] - load[0]) / 51.0 * slope, rel=1e-9, abs=1e-9
        )


def test_eta_as_pout_scales_the_slope():
    p = pw.PowerParams(eta_as_pout=True)
    c0, c1 = pw.radio_coefficients(p)
    assert c0 == pytest.approx(106.6666666667, rel=1e-9)
    # slope becomes n_tx * p_max_pa / ((1+eps) * sigma_max) = 4*40/0.75
    assert c1 == pytest.approx(160.0 / 0.75, rel=1e-12)


def test_utilization_and_overload():
    # utilization is clipped at 1: a cell asked for more PRBs than it has
    # draws what a full one does, and only then is it flagged overloaded
    draw = pw.cell_draw(np.array([0.0, 51.0, 60.0]), DEFAULTS, 51)
    np.testing.assert_allclose(draw, [0.0, 242.0, 242.0], rtol=1e-12)
    prb = np.array([[51.0, 1.0], [1.0, 60.0]])
    res = pw.network_power_hard(np.array([0, 1]), prb, DEFAULTS, 51)
    assert res.overload.tolist() == [False, True]
    np.testing.assert_allclose(res.cell_w, [242.0, 242.0], rtol=1e-12)


def test_bs_power_values():
    p = pw.PowerParams(p_sleep_w=7.5)
    draw = pw.cell_draw(np.array([0.0, 1e-12, 25.5]), p, 51)
    assert draw[0] == 7.5  # an empty cell sleeps
    assert draw[1] == pytest.approx(100.0 + 10.0 + 106.6666666667, rel=1e-9)
    assert draw[2] == pytest.approx(229.3333333333, rel=1e-9)


def test_power_params_validation():
    with pytest.raises(ConfigError):
        pw.PowerParams(sigma_max=0.0)
    with pytest.raises(ConfigError):
        pw.PowerParams(sigma_max=1.5)
    with pytest.raises(ConfigError):
        pw.PowerParams(epsilon=-0.1)
    with pytest.raises(ConfigError):
        pw.PowerParams(p_fixed_w=-1.0)
    with pytest.raises(ConfigError):
        pw.PowerParams(n_tx=0)
    with pytest.raises(ConfigError):
        pw.PowerParams(p_sleep_w=50.0, p_fixed_w=40.0)


def _one_hot(rows, n, rng):
    """A random association: its cell indices and its (rows, n) one-hot matrix."""
    assignment = rng.integers(0, n, size=rows)
    return assignment, np.eye(n)[assignment]


def test_network_power_hard_switch_off_accounting():
    params = pw.PowerParams(p_sleep_w=5.0)
    k, n = 4, 3
    prb = np.full((k, n), 6.0)
    res = pw.network_power_hard(np.ones(k, dtype=np.int64), prb, params, n_prb_total=51)
    assert res.active.tolist() == [False, True, False]
    assert res.cell_w[0] == 5.0 and res.cell_w[2] == 5.0
    assert res.cell_w[1] == pytest.approx(_on_w(24.0 / 51.0), rel=1e-12)
    assert res.total_w == pytest.approx(res.cell_w.sum(), rel=1e-12)


def test_network_power_hard_empty_network():
    params = pw.PowerParams(p_sleep_w=3.0)
    res = pw.network_power_hard(np.zeros(0, dtype=np.int64), np.zeros((0, 4)), params, 51)
    assert res.total_w == pytest.approx(4 * 3.0)
    assert not res.active.any()


def test_network_power_hard_two_cell_hand_value():
    t = 51
    prb = np.array([[10.0, 20.0], [30.0, 5.0]])
    res = pw.network_power_hard(np.array([0, 1]), prb, DEFAULTS, t)
    np.testing.assert_allclose(res.load_prb, [10.0, 5.0])
    expected = _on_w(10 / t) + _on_w(5 / t)
    assert res.total_w == pytest.approx(expected, rel=1e-12)


def test_network_power_hard_rejects_anything_but_one_cell_index_per_ue():
    for assignment in (
        np.eye(2),                 # a one-hot matrix, not one index per UE
        np.array([0.0, 1.0]),      # float indices
        np.array([True, False]),   # bool flags
        np.array([0]),             # too few UEs
        np.array([0, 1, 1]),       # too many UEs
        np.array([0, 2]),          # a cell past the last one
        np.array([-1, 0]),         # a negative cell
    ):
        with pytest.raises(ContractError):
            pw.network_power_hard(assignment, np.ones((2, 2)), DEFAULTS, 51)


def test_network_power_hard_flags_overload():
    prb = np.full((3, 1), 30.0)
    res = pw.network_power_hard(np.zeros(3, dtype=np.int64), prb, DEFAULTS, n_prb_total=51)
    assert res.overload.tolist() == [True]
    assert res.cell_w[0] == pytest.approx(242.0, rel=1e-12)


def test_network_power_hard_monotone_in_each_demand_entry():
    rng = np.random.default_rng(11)
    for _ in range(200):
        k = int(rng.integers(1, 7))
        n = int(rng.integers(1, 5))
        s, _ = _one_hot(k, n, rng)
        prb = rng.integers(1, 40, size=(k, n)).astype(float)
        base = pw.network_power_hard(s, prb, DEFAULTS, 51).total_w
        i, j = int(rng.integers(0, k)), int(rng.integers(0, n))
        bumped = prb.copy()
        bumped[i, j] += rng.integers(1, 10)
        after = pw.network_power_hard(s, bumped, DEFAULTS, 51).total_w
        assert after >= base - 1e-12


def test_switch_off_benefit_identity():
    rng = np.random.default_rng(12)
    params = pw.PowerParams(p_sleep_w=4.0)
    t = 51
    for _ in range(100):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(2, 7))
        a, b = (int(c) for c in rng.permutation(n)[:2])
        lone = int(rng.integers(0, k))
        others = [c for c in range(n) if c != a]
        s = np.zeros(k, dtype=np.int64)
        s[lone] = a  # cell a serves exactly this one UE
        for row in range(k):
            if row != lone:
                s[row] = int(rng.choice(others))
        prb = rng.integers(1, 12, size=(k, n)).astype(float)
        before = pw.network_power_hard(s, prb, params, t)

        moved = s.copy()
        moved[lone] = b
        after = pw.network_power_hard(moved, prb, params, t)

        def draw(load, active):
            return _on_w(min(1.0, load / t)) if active else params.p_sleep_w

        gain_b = draw(after.load_prb[b], True) - draw(before.load_prb[b], before.active[b])
        drop_a = draw(before.load_prb[a], True) - params.p_sleep_w
        assert after.total_w - before.total_w == pytest.approx(
            gain_b - drop_a, abs=1e-9
        )


def test_soft_matches_hard_on_one_hot_associations():
    rng = np.random.default_rng(13)
    for trial in range(500):
        k = int(rng.integers(1, 9))
        n = int(rng.integers(1, 6))
        params = pw.PowerParams(p_sleep_w=float(rng.choice([0.0, 7.5])))
        assignment, s = _one_hot(k, n, rng)
        prb = rng.integers(1, 60, size=(k, n)).astype(float)
        hard = pw.network_power_hard(assignment, prb, params, 51).total_w
        soft = pw.network_power_soft(s, prb, params, 51)
        assert abs(soft - hard) <= 1e-9 * hard, f"trial {trial}: {soft} vs {hard}"


def _soft_power_and_grad(s, prb, params=DEFAULTS, n_prb_total=51):
    """The relaxed draw at s, its record and its gradient at s."""
    saved = []
    total = pw.network_power_soft(s, prb, params, n_prb_total, saved)
    return total, saved[0], ad.gated_load_cost_backward(saved[0], 1.0)


def test_soft_gate_splits_evenly_for_half_half_row():
    _, record, _ = _soft_power_and_grad(np.array([[0.5, 0.5]]), np.ones((1, 2)))
    np.testing.assert_allclose(record.gate, [0.5, 0.5])


def test_network_power_soft_gradient_matches_finite_differences():
    rng = np.random.default_rng(14)
    for _ in range(10):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(2, 5))
        prb = rng.integers(1, 8, size=(k, n)).astype(float)
        raw = rng.uniform(0.05, 0.95, size=(k, n))
        s = raw / raw.sum(axis=1, keepdims=True)
        fd = finite_difference_grad(lambda x: pw.network_power_soft(x, prb, DEFAULTS, 51), s)
        np.testing.assert_allclose(_soft_power_and_grad(s, prb)[2], fd, rtol=1e-4, atol=1e-6)


def test_network_power_soft_zero_gradient_past_full_load():
    # a saturated cell's load gradient vanishes; the gate gradient survives
    prb = np.full((3, 1), 40.0)
    _, _, grad = _soft_power_and_grad(np.full((3, 1), 0.9), prb)
    c0, c1 = pw.radio_coefficients(DEFAULTS)
    on_const = DEFAULTS.p_fixed_w + DEFAULTS.p_bb0_w + c0
    on_slope = DEFAULTS.p_bb_slope_w + c1
    # d total / d s_k = (on_const + on_slope * 1) * d gate / d s_k, gate grad = (1-s)^2
    expected = (on_const + on_slope) * 0.01
    np.testing.assert_allclose(grad, np.full((3, 1), expected), rtol=1e-12)
