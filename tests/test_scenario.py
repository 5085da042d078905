"""Geometry, channel, demand, graph, and serialization checks."""

import dataclasses
import json
import math

import numpy as np
import pytest

from nesua import scenario as sc
from nesua.errors import ConfigError, ContractError

from helpers import reference_generate_scenario


def small_cfg(**kw):
    base = dict(
        n_cells=3,
        n_ues=8,
        region=(2500.0, 2500.0),
        inter_site_distance=900.0,
    )
    base.update(kw)
    return sc.ScenarioConfig(**base)


def test_prb_counts_follow_bandwidth():
    for mhz, expected in [(20, 51), (40, 106), (80, 217)]:
        cfg = small_cfg(bandwidth_mhz=float(mhz))
        assert cfg.n_prb_total == expected


def test_config_validation():
    with pytest.raises(ConfigError):
        small_cfg(n_cells=0)
    with pytest.raises(ConfigError):
        small_cfg(n_ues=0)
    with pytest.raises(ConfigError):
        small_cfg(bandwidth_mhz=0.0)
    with pytest.raises(ConfigError):
        small_cfg(reuse_factor=0.0)
    with pytest.raises(ConfigError):
        small_cfg(reuse_factor=1.2)
    with pytest.raises(ConfigError):
        small_cfg(region=(2500.0,))
    with pytest.raises(ConfigError):
        small_cfg(bandwidth_mhz=0.001)  # guards eat the whole carrier


def test_reuse_group_count_is_stable_against_float_noise():
    assert small_cfg(reuse_factor=1.0 / 3.0).n_reuse_groups == 3
    assert small_cfg(reuse_factor=0.5).n_reuse_groups == 2
    assert small_cfg(reuse_factor=1.0).n_reuse_groups == 1
    assert small_cfg(reuse_factor=0.25).n_reuse_groups == 4


def test_hex_layout_seven_cells():
    bs = sc.hex_layout(7, 1000.0, (3000.0, 3000.0))
    center = np.array([1500.0, 1500.0])
    d = np.linalg.norm(bs - center, axis=1)
    assert d[0] == pytest.approx(0.0, abs=1e-9)
    np.testing.assert_allclose(np.sort(d[1:]), np.full(6, 1000.0), rtol=1e-9)
    # nearest-neighbor spacing is exactly one inter-site distance
    pair = np.linalg.norm(bs[:, None, :] - bs[None, :, :], axis=2)
    pair[pair == 0] = np.inf
    assert pair.min() == pytest.approx(1000.0, rel=1e-9)


def test_hex_layout_rejects_small_region():
    with pytest.raises(ConfigError):
        sc.hex_layout(7, 1000.0, (1500.0, 1500.0))


def test_hex_layout_refuses_a_small_region_on_every_call():
    for _ in range(3):
        with pytest.raises(ConfigError):
            sc.hex_layout(7, 1000.0, [1500.0, 1500.0])


def test_mutating_a_hex_layout_leaves_the_next_one_intact():
    first = sc.hex_layout(7, 1000.0, (3000.0, 3000.0))
    expected = first.copy()
    first[:] = -1.0
    second = sc.hex_layout(7, 1000.0, [3000.0, 3000.0])
    assert second is not first
    assert second.tobytes() == expected.tobytes()
    second[0, 0] = 5.0
    assert sc.hex_layout(7, 1000.0, (3000.0, 3000.0)).tobytes() == expected.tobytes()


def test_generate_is_deterministic():
    cfg = small_cfg()
    a = sc.generate_scenario(cfg, 123)
    b = sc.generate_scenario(cfg, 123)
    for name in ("ue_positions", "sinr_per_prb_db", "rsrp_dbm", "prb_demand"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    c = sc.generate_scenario(cfg, 124)
    assert not np.array_equal(a.ue_positions, c.ue_positions)


def test_generate_shapes_and_prb_count():
    cfg = sc.ScenarioConfig(n_cells=7, n_ues=50, bandwidth_mhz=20.0)
    s = sc.generate_scenario(cfg, 7)
    assert s.bs_positions.shape == (7, 2)
    assert s.ue_positions.shape == (50, 2)
    assert s.n_prb_total == 51
    assert s.sinr_per_prb_db.shape == (50, 7, 51)
    assert s.prb_demand.shape == (50, 7)


def test_distances_are_three_dimensional():
    cfg = small_cfg()
    s = sc.generate_scenario(cfg, 1)
    assert (s.distance >= cfg.h_tx_m - cfg.h_ue_m - 1e-12).all()


def test_wideband_sinr_is_linear_mean_of_per_prb():
    s = sc.generate_scenario(small_cfg(), 5)
    lin = 10.0 ** (s.sinr_per_prb_db / 10.0)
    wide = 10.0 * np.log10(lin.mean(axis=2))
    np.testing.assert_allclose(wide, s.sinr_wideband_db, rtol=1e-9)
    assert np.isfinite(s.sinr_per_prb_db).all()


def test_single_cell_sinr_reduces_to_snr():
    cfg = sc.ScenarioConfig(
        n_cells=1, n_ues=1, region=(1000.0, 1000.0), inter_site_distance=500.0
    )
    s = sc.generate_scenario(cfg, 3, shadowing=False, fading=False)
    d = s.distance[0, 0]
    pl = sc.free_space_reference_db(cfg.carrier_ghz) + 10 * cfg.pathloss_exponent * math.log10(d)
    rx = cfg.tx_power_dbm + 10 * math.log10(cfg.n_tx_antennas) - pl
    expected = rx - sc.noise_power_dbm(cfg)
    assert s.sinr_wideband_db[0, 0] == pytest.approx(expected, rel=1e-9)


def test_rsrp_excludes_fading_and_array_gain():
    cfg = small_cfg()
    s = sc.generate_scenario(cfg, 9, shadowing=False, fading=True)
    pl0 = sc.free_space_reference_db(cfg.carrier_ghz)
    expected = cfg.tx_power_dbm - (pl0 + 10 * cfg.pathloss_exponent * np.log10(s.distance))
    np.testing.assert_allclose(s.rsrp_dbm, expected, rtol=1e-12)


def test_prb_demand_bounds_and_examples():
    cfg = small_cfg()
    s = sc.generate_scenario(cfg, 11)
    assert (s.prb_demand >= 1).all()
    assert (s.prb_demand <= s.n_prb_total).all()

    # one PRB exactly: spectral efficiency 4 bit/s/Hz, demand = 4 * prb_bw
    base = sc.generate_scenario(small_cfg(n_ues=1), 2)
    sinr_db = np.full((1, 3), 10.0 * math.log10(2.0**4 - 1.0))
    probe = type(base)(
        **{
            **{f: getattr(base, f) for f in base.__dataclass_fields__},
            "sinr_wideband_db": sinr_db,
        }
    )
    demand_mbps = 4.0 * cfg.prb_bandwidth_hz / 1e6
    assert (sc.compute_prb_demand(probe, demand_mbps, cfg) == 1).all()

    # vanishing SINR: the carrier-size cap binds
    probe_lo = type(base)(
        **{
            **{f: getattr(base, f) for f in base.__dataclass_fields__},
            "sinr_wideband_db": np.full((1, 3), -300.0),
        }
    )
    assert (sc.compute_prb_demand(probe_lo, 5.0, cfg) == base.n_prb_total).all()

    # 5 Mbit/s at spectral efficiency 2 -> ceil(5e6 / 720e3) = 7
    probe_se2 = type(base)(
        **{
            **{f: getattr(base, f) for f in base.__dataclass_fields__},
            "sinr_wideband_db": np.full((1, 3), 10.0 * math.log10(3.0)),
        }
    )
    assert (sc.compute_prb_demand(probe_se2, 5.0, cfg) == 7).all()

    with pytest.raises(ContractError):
        sc.compute_prb_demand(s, 0.0, cfg)


def _scenario_with_sinr(sinr_db: np.ndarray) -> sc.Scenario:
    k, n = sinr_db.shape
    return sc.Scenario(
        seed=0,
        bs_positions=np.zeros((n, 2)),
        ue_positions=np.zeros((k, 2)),
        distance=np.ones((k, n)),
        sinr_wideband_db=sinr_db,
        sinr_per_prb_db=np.repeat(sinr_db[:, :, None], 4, axis=2),
        rsrp_dbm=sinr_db.copy(),
        prb_demand=np.ones((k, n), dtype=np.int64),
        n_prb_total=51,
    )


def test_build_graph_two_ue_hand_cases():
    both = _scenario_with_sinr(np.array([[10.0], [12.0]]))
    np.testing.assert_array_equal(
        sc.build_graph(both, 5.0).adjacency, np.ones((2, 2))
    )
    one = _scenario_with_sinr(np.array([[10.0], [3.0]]))
    np.testing.assert_array_equal(sc.build_graph(one, 5.0).adjacency, np.eye(2))


def test_build_graph_shared_cell_linking():
    # UE1,UE2 clear cell 1; UE2,UE3 clear cell 2; no common cell for UE1,UE3
    sinr = np.array([[10.0, -10.0], [10.0, 10.0], [-10.0, 10.0]])
    adj = sc.build_graph(_scenario_with_sinr(sinr), 0.0).adjacency
    expected = np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1]], dtype=float)
    np.testing.assert_array_equal(adj, expected)


def test_build_graph_feature_layout():
    s = sc.generate_scenario(small_cfg(), 21)
    g = sc.build_graph(s, 0.0)
    k, n = s.prb_demand.shape
    assert g.features.shape == (k, 3 * n)
    np.testing.assert_array_equal(g.features[:, :n], s.prb_demand)
    np.testing.assert_array_equal(g.features[:, n : 2 * n], s.distance)
    np.testing.assert_array_equal(g.features[:, 2 * n :], s.sinr_wideband_db)


def test_adjacency_matches_triple_loop_and_is_symmetric():
    rng = np.random.default_rng(30)
    cfg = small_cfg(n_ues=6)
    for trial in range(50):
        s = sc.generate_scenario(cfg, int(rng.integers(0, 10_000)))
        gamma = float(rng.uniform(-10.0, 15.0))
        adj = sc.build_graph(s, gamma).adjacency
        k, n = s.sinr_wideband_db.shape
        expected = np.eye(k)
        for i in range(k):
            for j in range(k):
                for cell in range(n):
                    if (
                        s.sinr_wideband_db[i, cell] > gamma
                        and s.sinr_wideband_db[j, cell] > gamma
                    ):
                        expected[i, j] = 1.0
        np.testing.assert_array_equal(adj, expected, err_msg=f"trial {trial}")
        np.testing.assert_array_equal(adj, adj.T)
        assert np.all(np.diag(adj) == 1.0)


def test_raising_threshold_only_removes_edges():
    rng = np.random.default_rng(31)
    cfg = small_cfg(n_ues=10)
    for _ in range(30):
        s = sc.generate_scenario(cfg, int(rng.integers(0, 10_000)))
        lo, hi = sorted(rng.uniform(-10.0, 15.0, size=2))
        a_lo = sc.build_graph(s, lo).adjacency
        a_hi = sc.build_graph(s, hi).adjacency
        assert np.all(a_hi <= a_lo)


def test_best_cell_sinr_decreases_with_distance_without_noise_terms():
    # reuse 1/3 over 3 cells puts each cell alone in its group: no
    # interference, so SINR must order exactly by distance
    cfg = small_cfg(n_ues=40)
    s = sc.generate_scenario(cfg, 17, shadowing=False, fading=False)
    for cell in range(s.n_cells):
        order = np.argsort(s.distance[:, cell])
        sinr_sorted = s.sinr_wideband_db[order, cell]
        assert np.all(np.diff(sinr_sorted) <= 1e-12)


def test_feature_normalization_round_trip():
    cfg = small_cfg(n_ues=12)
    graphs = [sc.build_graph(sc.generate_scenario(cfg, s), 0.0) for s in range(6)]
    stats = sc.feature_stats(graphs[:4])
    normed = [sc.normalize_features(g, stats) for g in graphs]
    pooled = np.concatenate([g.features for g in normed[:4]], axis=0)
    np.testing.assert_allclose(pooled.mean(axis=0), 0.0, atol=1e-9)
    for g in normed:
        assert np.isfinite(g.features).all()
    clone = sc.FeatureStats.from_dict(stats.to_dict())
    np.testing.assert_array_equal(clone.mean, stats.mean)
    np.testing.assert_array_equal(clone.std, stats.std)


def test_dataset_round_trip(tmp_path):
    cfg = small_cfg(n_ues=5)
    pairs = []
    for seed in range(4):
        s = sc.generate_scenario(cfg, seed)
        pairs.append((s, sc.build_graph(s, cfg.gamma_th_db)))
    path = tmp_path / "data.jsonl"
    sc.write_jsonl(path, [sc.to_record(s, g, "digest") for s, g in pairs])
    records = sc.read_jsonl(path)
    assert len(records) == 4
    for rec, (s, g) in zip(records, pairs):
        s2, g2 = sc.from_record(rec, cfg)
        assert s2.sinr_per_prb_db is None  # records do not store the cube
        for name in (
            "bs_positions", "ue_positions", "sinr_wideband_db", "rsrp_dbm",
        ):
            np.testing.assert_array_equal(getattr(s2, name), getattr(s, name))
        np.testing.assert_array_equal(s2.distance, s.distance)
        np.testing.assert_array_equal(s2.prb_demand, s.prb_demand)
        np.testing.assert_array_equal(g2.features, g.features)
        np.testing.assert_array_equal(g2.adjacency, g.adjacency)
        assert s2.n_prb_total == s.n_prb_total


def test_record_field_names_are_stable():
    cfg = small_cfg(n_ues=2)
    s = sc.generate_scenario(cfg, 0)
    rec = sc.to_record(s, sc.build_graph(s, 0.0))
    expected = {
        "seed", "config_digest", "bs_xy", "ue_xy", "sinr_db",
        "rsrp_dbm", "prb", "adj", "feat",
    }
    assert set(rec) == expected


def test_paper_default_record_stays_small():
    # the per-PRB SINR cube (K x N x T float64) would be 190,400 of its bytes
    cfg = sc.ScenarioConfig()
    s = sc.generate_scenario(cfg, 0)
    rec = sc.to_record(s, sc.build_graph(s, cfg.gamma_th_db), "0" * 64)
    assert "sinr_prb_db" not in rec
    assert len(json.dumps(rec, separators=(",", ":"))) < 32 * 1024


def assert_same_scenario(got, want):
    """Every field of two scenarios is equal; arrays in dtype, shape and
    bytes."""
    for f in dataclasses.fields(sc.Scenario):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape) == (b.dtype, b.shape), f.name
            assert a.tobytes() == b.tobytes(), f.name
        else:
            assert a == b, f.name


def _chunk_counts(cfg):
    chunk = sc.chunk_size(cfg)
    return [c for c in (1, chunk - 1, chunk, chunk + 1) if c >= 1]


# at reuse 1/3 each of the 7 cells has at most 2 co-channel interferers,
# so the interference sum is exact in any order; at reuse 1 all 6 other
# cells add non-zero terms and a reordered sum over cells changes bits
@pytest.mark.parametrize("reuse_factor", [1.0 / 3.0, 0.5, 1.0])
@pytest.mark.parametrize("n_ues", [7, 50])
@pytest.mark.parametrize(
    "shadowing, fading", [(True, True), (False, True), (True, False)]
)
def test_chunked_draws_match_the_per_seed_reference_bit_for_bit(
    n_ues, shadowing, fading, reuse_factor
):
    cfg = sc.ScenarioConfig(n_ues=n_ues, reuse_factor=reuse_factor)
    for count in _chunk_counts(cfg):
        seeds = list(range(900, 900 + count))
        got = sc.generate_scenarios(cfg, seeds, shadowing, fading)
        assert [s.seed for s in got] == seeds
        for s in got:
            assert_same_scenario(
                s, reference_generate_scenario(cfg, s.seed, shadowing, fading)
            )


@pytest.mark.parametrize("n_ues", [7, 50])
def test_iter_scenarios_crosses_chunks_in_seed_order(n_ues):
    cfg = sc.ScenarioConfig(n_ues=n_ues)
    for count in _chunk_counts(cfg):
        seeds = list(range(40, 40 + count))
        got = list(sc.iter_scenarios(cfg, seeds))
        assert [s.seed for s in got] == seeds
        for s in got:
            assert_same_scenario(s, reference_generate_scenario(cfg, s.seed))


def test_single_seed_draw_is_a_chunk_of_one():
    cfg = small_cfg(reuse_factor=1.0)  # every other cell interferes
    for seed in (0, 5):
        assert_same_scenario(
            sc.generate_scenario(cfg, seed), reference_generate_scenario(cfg, seed)
        )


def test_chunk_size_caps_the_per_prb_cube():
    for n_ues, expected in ((7, 52), (50, 7), (10_000, 1)):
        cfg = sc.ScenarioConfig(n_ues=n_ues)
        cube = n_ues * cfg.n_cells * cfg.n_prb_total * 8
        assert sc.chunk_size(cfg) == expected
        if expected > 1:
            assert expected * cube <= sc.CHUNK_CUBE_BYTES < (expected + 1) * cube


def test_scenarios_of_one_chunk_do_not_share_writable_arrays():
    a, b = sc.generate_scenarios(small_cfg(), [3, 4])
    for f in dataclasses.fields(sc.Scenario):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert not np.shares_memory(x, y), f.name


# the draws fill the chunk's buffers with standard variates and scale them
# after the loop; a zero sigma scales half the shadowing draws to -0.0
@pytest.mark.parametrize("sigma", [0.0, 6.0])
def test_in_place_draws_match_the_reference_over_many_seeds(sigma):
    for n_ues, count in ((1, 260), (7, 260), (50, 60)):
        cfg = sc.ScenarioConfig(
            n_ues=n_ues, region=(3200.0, 2600.0), shadowing_sigma_db=sigma
        )
        seeds = range(7000, 7000 + count)
        for s in sc.iter_scenarios(cfg, seeds):
            assert_same_scenario(s, reference_generate_scenario(cfg, s.seed))
