"""Policy reports, gain arithmetic, sweep tables, and heatmap export."""

import os
from pathlib import Path

import numpy as np
import pytest

from nesua import cli, gat
from nesua import evaluate as ev
from nesua.baselines import associate_ga_subsinr, associate_oracle, associate_rsrp
from nesua.config import RunConfig
from nesua.errors import ContractError
from nesua.power import PowerParams, cell_draw, network_power_hard
from nesua.scenario import (
    Scenario,
    ScenarioConfig,
    build_graph,
    feature_stats,
    generate_scenario,
    normalize_features,
)
from nesua.training import Sample

DEFAULTS = PowerParams()


def _hand_scenario(prb_demand, n_prb_total=10):
    prb = np.asarray(prb_demand, dtype=np.int64)
    k, n = prb.shape
    return Scenario(
        seed=0,
        bs_positions=np.arange(2 * n, dtype=np.float64).reshape(n, 2),
        ue_positions=np.arange(2 * k, dtype=np.float64).reshape(k, 2),
        distance=np.ones((k, n)),
        sinr_wideband_db=np.zeros((k, n)),
        sinr_per_prb=np.ones((k, n, n_prb_total)),
        rsrp_dbm=np.zeros((k, n)),
        prb_demand=prb,
        n_prb_total=n_prb_total,
    )


def _cfg(**kw):
    base = dict(
        n_cells=2,
        inter_site_distance=500.0,
        region=(2200.0, 2200.0),
        n_ues=4,
        tx_power_dbm=40.0,
    )
    base.update(kw)
    return ScenarioConfig(**base)


def _samples(cfg, count, seed0=0):
    pairs = []
    for i in range(count):
        s = generate_scenario(cfg, seed0 + i)
        pairs.append((s, build_graph(s, cfg.gamma_th_db)))
    stats = feature_stats([g for _, g in pairs])
    return [Sample(s, normalize_features(g, stats)) for s, g in pairs]


def _hand_loads(assignment, prb, n):
    """Each cell's PRBs, added up one UE at a time."""
    loads = np.zeros(n)
    for ue, cell in enumerate(assignment.tolist()):
        loads[cell] += prb[ue][cell]
    return loads


def test_report_totals_reconcile():
    rng = np.random.default_rng(11)
    for _ in range(50):
        k = int(rng.integers(1, 10))
        n = int(rng.integers(1, 5))
        prb = rng.integers(1, 8, size=(k, n))
        assign = rng.integers(0, n, size=k)
        rep = ev.evaluate_policy(assign, _hand_scenario(prb), DEFAULTS, "hand")
        cell_w = cell_draw(_hand_loads(assign, prb, n), DEFAULTS, 10)
        assert abs(rep.total_power_w - cell_w.sum()) <= 1e-9
        assert rep.switched_off_count <= n


def test_empty_cell_reports_sleep_power():
    params = PowerParams(p_sleep_w=3.0)
    s = _hand_scenario([[2, 2], [2, 2]])
    rep = ev.evaluate_policy(np.array([0, 0]), s, params, "hand")
    assert rep.total_power_w == cell_draw(np.array([4.0]), params, 10)[0] + 3.0
    assert rep.switched_off_count == 1


def test_switch_off_count_matches_distinct_cells():
    rng = np.random.default_rng(7)
    for _ in range(100):
        k = int(rng.integers(1, 12))
        n = int(rng.integers(1, 6))
        assign = rng.integers(0, n, size=k)
        prb = rng.integers(1, 5, size=(k, n))
        rep = ev.evaluate_policy(assign, _hand_scenario(prb), DEFAULTS, "hand")
        assert rep.switched_off_count == n - len(set(assign.tolist()))


def _overload(assign, s):
    return network_power_hard(assign, s.prb_demand, DEFAULTS, s.n_prb_total).overload


def test_no_overload_serves_full_demand():
    s = _hand_scenario([[2, 2], [3, 3], [1, 1]], n_prb_total=10)
    assign = np.array([0, 0, 1])
    rep = ev.evaluate_policy(assign, s, DEFAULTS, "hand")
    assert rep.gbr_satisfied
    assert not _overload(assign, s).any()


def test_overloaded_cell_halves_served_throughput():
    # both UEs demand the full carrier from cell 0: load 2T -> each served 1/2
    t = 10
    s = _hand_scenario([[t, t], [t, t]], n_prb_total=t)
    assign = np.array([0, 0])
    rep = ev.evaluate_policy(assign, s, DEFAULTS, "hand")
    assert _overload(assign, s).tolist() == [True, False]
    assert not rep.gbr_satisfied


def test_an_overloaded_cell_misses_the_rate_guarantee_at_a_tiny_demand():
    # at 1e-13 Mb/s every UE still needs one PRB, so 60 UEs on one cell
    # overload its 51 PRBs: the guarantee is missed, however small the
    # shortfall in bps (9e-7)
    cfg = ScenarioConfig(n_ues=60, ue_demand_mbps=1e-13)
    s = generate_scenario(cfg, 1)
    assert (s.prb_demand == 1).all() and s.n_prb_total == 51
    assign = np.zeros(60, dtype=np.int64)
    assert _overload(assign, s).tolist() == [True] + [False] * 6
    assert not ev.evaluate_policy(assign, s, DEFAULTS, "hand").gbr_satisfied


def test_rate_guarantee_is_met_exactly_when_no_cell_is_overloaded():
    rng = np.random.default_rng(23)
    met = 0
    for _ in range(300):
        k = int(rng.integers(1, 9))
        n = int(rng.integers(1, 5))
        t = int(rng.integers(1, 12))
        prb = rng.integers(1, t + 1, size=(k, n))
        assign = rng.integers(0, n, size=k)
        rep = ev.evaluate_policy(assign, _hand_scenario(prb, n_prb_total=t), DEFAULTS, "hand")
        overloaded = (_hand_loads(assign, prb, n) > t).any()
        assert rep.gbr_satisfied == (not overloaded)
        met += rep.gbr_satisfied
    assert 0 < met < 300  # both outcomes are drawn


def test_association_shape_mismatch_rejected():
    s = _hand_scenario([[1, 1], [1, 1]])
    with pytest.raises(ContractError):
        ev.evaluate_policy(np.array([0, 0, 0]), s, DEFAULTS, "hand")


def test_gain_percent_values():
    assert ev.gain_percent(79.0, 100.0) == pytest.approx(21.0, abs=1e-12)
    assert ev.gain_percent(40.0, 100.0) == pytest.approx(60.0, abs=1e-12)
    assert ev.gain_percent(123.456, 123.456) == 0.0


def test_gain_percent_sign_flips_with_direction():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a, b = rng.uniform(1.0, 500.0, size=2)
        if a == b:
            continue
        assert np.sign(ev.gain_percent(a, b)) == -np.sign(ev.gain_percent(b, a))


def test_gain_percent_rejects_nonpositive_base():
    with pytest.raises(ContractError):
        ev.gain_percent(10.0, 0.0)
    with pytest.raises(ContractError):
        ev.gain_percent(10.0, -5.0)


def test_oracle_dominates_all_policies_on_reports():
    cfg = _cfg(n_ues=5, tx_power_dbm=46.0)
    for sample in _samples(cfg, 20):
        s = sample.scenario
        model = gat.init_model(sample.graph.features.shape[1], s.n_cells,
                               gat.GatConfig(hidden_dim=4), seed=s.seed)
        best = ev.evaluate_policy(associate_oracle(s, DEFAULTS), s, DEFAULTS, "oracle")
        for assoc in (
            gat.harden(gat.forward(sample.graph, model)),
            associate_rsrp(s),
            associate_ga_subsinr(s),
        ):
            rep = ev.evaluate_policy(assoc, s, DEFAULTS, "policy")
            assert best.total_power_w <= rep.total_power_w


def _model(samples, seed=0):
    return gat.init_model(
        samples[0].graph.features.shape[1], 2, gat.GatConfig(hidden_dim=4), seed=seed
    )


def _rows(model, samples, cfg):
    run = RunConfig(scenario=cfg)
    return [cli._compare(sample, model, run)[0] for sample in samples]


def _table(path):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_sweep_bandwidth_row_count_and_columns(tmp_path):
    ws, ks = [20, 40], [2, 3]
    points = []
    for w in ws:
        model = None
        for k in ks:
            cfg = _cfg(n_ues=k, bandwidth_mhz=w)
            samples = _samples(cfg, 3, seed0=10 * w + k)
            model = model or _model(samples)
            points.append(({"bandwidth_mhz": w, "n_ues": k}, _rows(model, samples, cfg)))
    path = ev.write_sweep_csv("bandwidth", points, 2, tmp_path)
    header, rows = _table(path)
    assert len(rows) == len(ws) * len(ks)
    metrics = [f"{stat}_{col}" for col in ev.SWEEP_COLUMNS for stat in ("mean", "stderr")]
    assert header == ["bandwidth_mhz", "n_ues", "n_instances", *metrics]
    for row in rows:
        assert row["n_instances"] == "3"
        for name in metrics:
            assert np.isfinite(float(row[name]))


def test_sweep_lambda_structure(tmp_path):
    cfg = _cfg(n_ues=3)
    samples = _samples(cfg, 4)
    ratios = [0.0, 1.0, 4.0]
    points = [
        ({"lambda_ratio": r}, _rows(_model(samples, seed=i), samples, cfg))
        for i, r in enumerate(ratios)
    ]
    path = ev.write_sweep_csv("lambda_ratio", points, 2, tmp_path)
    _, rows = _table(path)
    assert [float(row["lambda_ratio"]) for row in rows] == ratios
    for row in rows:
        count = float(row["mean_switch_off_count"])
        fraction = float(row["mean_switch_off_fraction"])
        assert fraction == pytest.approx(count / 2.0)


def test_sweep_csv_round_trip(tmp_path):
    cfg = _cfg(n_ues=2)
    samples = _samples(cfg, 3)
    rows = _rows(_model(samples), samples, cfg)
    points = [({"bandwidth_mhz": 20, "n_ues": 2}, rows)]
    path = ev.write_sweep_csv("bandwidth", points, 2, tmp_path)
    assert path == os.path.join(tmp_path, "sweep_bandwidth.csv")
    header, table = _table(path)
    assert header[:3] == ["bandwidth_mhz", "n_ues", "n_instances"]
    assert f"mean_{ev.SWEEP_COLUMNS[0]}" in header
    (ok_row,) = table
    mean = float(np.mean([row["gnn_power_w"] for row in rows]))
    assert float(ok_row["mean_gnn_power_w"]) == mean


def test_export_heatmaps_file_contract(tmp_path):
    cfg = _cfg(n_ues=4)
    s = generate_scenario(cfg, 3)
    reports = [
        ev.evaluate_policy(associate_rsrp(s), s, DEFAULTS, name)
        for name in ("gnn", "rsrp", "ga subsinr")
    ]
    ev.export_heatmaps(s, reports, tmp_path)
    # sinr + 3 associations + coordinates
    assert sorted(os.listdir(tmp_path)) == [
        "coordinates.csv",
        "heatmap_ga_subsinr.csv",
        "heatmap_gnn.csv",
        "heatmap_rsrp.csv",
        "heatmap_sinr.csv",
    ]

    # SINR matrix reproduces bit-for-bit through repr round-trip
    rows = (tmp_path / "heatmap_sinr.csv").read_text().splitlines()
    loaded = np.array([[float(v) for v in row.split(",")] for row in rows])
    assert np.array_equal(loaded, s.sinr_wideband_db)

    # association files hold one-hot integer rows
    rows = (tmp_path / "heatmap_rsrp.csv").read_text().splitlines()
    mat = np.array([[int(v) for v in row.split(",")] for row in rows])
    assert mat.shape == (s.n_ues, s.n_cells)
    assert np.array_equal(mat.sum(axis=1), np.ones(s.n_ues, dtype=int))
    assert np.array_equal(mat.argmax(axis=1), associate_rsrp(s))

    coords = (tmp_path / "coordinates.csv").read_text().splitlines()
    assert coords[0] == "kind,index,x,y"
    assert len(coords) == 1 + s.n_cells + s.n_ues


def test_export_heatmaps_rejects_foreign_report(tmp_path):
    cfg = _cfg(n_ues=4)
    s = generate_scenario(cfg, 3)
    other = generate_scenario(_cfg(n_ues=6), 4)
    rep = ev.evaluate_policy(associate_rsrp(other), other, DEFAULTS, "rsrp")
    with pytest.raises(ContractError):
        ev.export_heatmaps(s, [rep], tmp_path)
    # as many UEs, but on a cell the scenario does not have
    wider = generate_scenario(_cfg(n_ues=4, n_cells=7), 4)
    rep = ev.evaluate_policy(np.full(4, 6), wider, DEFAULTS, "wider")
    with pytest.raises(ContractError):
        ev.export_heatmaps(s, [rep], tmp_path)
    assert os.listdir(tmp_path) == []


def test_export_heatmaps_unwritable_path(tmp_path):
    cfg = _cfg(n_ues=2)
    s = generate_scenario(cfg, 1)
    rep = ev.evaluate_policy(associate_rsrp(s), s, DEFAULTS, "rsrp")
    with pytest.raises(OSError):
        ev.export_heatmaps(s, [rep], tmp_path / "missing" / "nested")
