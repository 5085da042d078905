"""Geometry, channel, demand, graph, and serialization checks."""

import base64
import dataclasses
import json
import math

import numpy as np
import pytest

from nesua import scenario as sc
from nesua.codec import decode_array, encode_array
from nesua.config import NORM_STATS, read_artifact
from nesua.errors import ConfigError, ContractError

from helpers import compute_prb_demand, reference_generate_scenario


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
    # numpy's normal(0, sigma), whose draw generate_scenarios reproduces,
    # refuses a negative scale; zero switches the shadowing off
    with pytest.raises(ConfigError, match="shadowing_sigma_db must be >= 0, got -6.0"):
        small_cfg(shadowing_sigma_db=-6.0)
    small_cfg(shadowing_sigma_db=0.0)
    # a negative guard widens the usable band past the carrier: -1000 kHz
    # would give 61 PRBs in 20 MHz
    with pytest.raises(ConfigError, match="guard_khz must be >= 0, got -1000.0"):
        small_cfg(guard_khz=-1000.0)
    assert small_cfg(guard_khz=0.0).n_prb_total == 55
    # a gain that does not fall with distance
    for exponent in (0.0, -3.0):
        with pytest.raises(ConfigError, match=f"pathloss_exponent must be > 0, got {exponent}"):
            small_cfg(pathloss_exponent=exponent)
    # a per-PRB noise power that overflows or underflows a float
    for figure in (1e308, 4000.0, -4000.0):
        with pytest.raises(ConfigError, match="noise_figure_db"):
            small_cfg(noise_figure_db=figure)
    small_cfg(noise_figure_db=300.0)
    small_cfg(noise_figure_db=-300.0)


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
    for name in ("ue_positions", "sinr_per_prb", "rsrp_dbm", "prb_demand"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    c = sc.generate_scenario(cfg, 124)
    assert not np.array_equal(a.ue_positions, c.ue_positions)


def test_generate_shapes_and_prb_count():
    cfg = sc.ScenarioConfig(n_cells=7, n_ues=50, bandwidth_mhz=20.0)
    s = sc.generate_scenario(cfg, 7)
    assert s.bs_positions.shape == (7, 2)
    assert s.ue_positions.shape == (50, 2)
    assert s.n_prb_total == 51
    assert s.sinr_per_prb.shape == (50, 7, 51)
    assert s.prb_demand.shape == (50, 7)


def test_distances_are_three_dimensional():
    cfg = small_cfg()
    s = sc.generate_scenario(cfg, 1)
    assert (s.distance >= cfg.h_tx_m - cfg.h_ue_m - 1e-12).all()


def test_wideband_sinr_is_linear_mean_of_per_prb():
    s = sc.generate_scenario(small_cfg(), 5)
    wide = 10.0 * np.log10(s.sinr_per_prb.mean(axis=2))
    np.testing.assert_allclose(wide, s.sinr_wideband_db, rtol=1e-9)
    assert np.isfinite(s.sinr_per_prb).all() and (s.sinr_per_prb > 0).all()


def test_single_cell_sinr_reduces_to_snr():
    cfg = sc.ScenarioConfig(
        n_cells=1, n_ues=1, region=(1000.0, 1000.0), inter_site_distance=500.0
    )
    s = reference_generate_scenario(
        dataclasses.replace(cfg, shadowing_sigma_db=0.0), 3, fading=False
    )
    d = s.distance[0, 0]
    pl = sc.free_space_reference_db(cfg.carrier_ghz) + 10 * cfg.pathloss_exponent * math.log10(d)
    rx = cfg.tx_power_dbm + 10 * math.log10(cfg.n_tx_antennas) - pl
    expected = rx - sc.noise_power_dbm(cfg)
    assert s.sinr_wideband_db[0, 0] == pytest.approx(expected, rel=1e-9)


def test_rsrp_excludes_fading_and_array_gain():
    cfg = small_cfg()
    s = sc.generate_scenario(dataclasses.replace(cfg, shadowing_sigma_db=0.0), 9)
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
    assert (compute_prb_demand(probe, demand_mbps, cfg) == 1).all()

    # vanishing SINR: the carrier-size cap binds
    probe_lo = type(base)(
        **{
            **{f: getattr(base, f) for f in base.__dataclass_fields__},
            "sinr_wideband_db": np.full((1, 3), -300.0),
        }
    )
    assert (compute_prb_demand(probe_lo, 5.0, cfg) == base.n_prb_total).all()

    # 5 Mbit/s at spectral efficiency 2 -> ceil(5e6 / 720e3) = 7
    probe_se2 = type(base)(
        **{
            **{f: getattr(base, f) for f in base.__dataclass_fields__},
            "sinr_wideband_db": np.full((1, 3), 10.0 * math.log10(3.0)),
        }
    )
    assert (compute_prb_demand(probe_se2, 5.0, cfg) == 7).all()

    with pytest.raises(ContractError):
        compute_prb_demand(s, 0.0, cfg)


def _scenario_with_sinr(sinr_db: np.ndarray) -> sc.Scenario:
    k, n = sinr_db.shape
    return sc.Scenario(
        seed=0,
        bs_positions=np.zeros((n, 2)),
        ue_positions=np.zeros((k, 2)),
        distance=np.ones((k, n)),
        sinr_wideband_db=sinr_db,
        sinr_per_prb=np.repeat(10.0 ** (sinr_db[:, :, None] / 10.0), 4, axis=2),
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
    assert adj.dtype == bool


def test_graph_instance_checks_its_neighbour_mask():
    def graph(adjacency):
        return sc.GraphInstance(
            features=np.zeros((3, 6)), adjacency=adjacency,
            prb_matrix=np.ones((3, 2)), n_prb_total=51,
        )

    graph(np.eye(3, dtype=bool))
    empty_row = np.ones((3, 3), dtype=bool)
    empty_row[1] = False
    with pytest.raises(ContractError, match="a row with no neighbour"):
        graph(empty_row)
    with pytest.raises(ContractError, match=r"\(3, 3\) bool mask"):
        graph(np.ones((3, 3)))  # a float mask
    with pytest.raises(ContractError, match=r"\(3, 3\) bool mask"):
        graph(np.ones((3, 4), dtype=bool))


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
    s = reference_generate_scenario(
        dataclasses.replace(cfg, shadowing_sigma_db=0.0), 17, fading=False
    )
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
    clone = sc.FeatureStats(
        **read_artifact(stats.to_dict(), NORM_STATS, "norm_stats", feat_dim=stats.mean.size)
    )
    np.testing.assert_array_equal(clone.mean, stats.mean)
    np.testing.assert_array_equal(clone.std, stats.std)


@pytest.mark.parametrize(
    "kw",
    [
        dict(n_ues=1),
        dict(n_ues=7),
        dict(n_ues=50),
        dict(n_ues=7, region=(3200.0, 2600.0)),
        dict(n_ues=7, shadowing_sigma_db=0.0),
        dict(n_ues=7, gamma_th_db=-5.0),
        dict(n_ues=7, gamma_th_db=15.0),
    ],
    ids=["k1", "k7", "k50", "non-square", "sigma0", "gamma-5", "gamma15"],
)
def test_dataset_round_trip(tmp_path, kw):
    # a record stores the scenario only; the graph `build_graph` makes of
    # the scenario read back is the one it makes of the generated scenario
    cfg = small_cfg(**kw)
    scenarios = [sc.generate_scenario(cfg, seed) for seed in range(4)]
    path = tmp_path / "data.jsonl"
    sc.write_jsonl(path, [sc.to_record(s) for s in scenarios])
    records = sc.read_jsonl(path)
    assert len(records) == 4
    for rec, s in zip(records, scenarios):
        back = sc.from_record(rec, cfg)
        assert back.sinr_per_prb is None  # records do not store the cube
        assert_same_fields(back, dataclasses.replace(s, sinr_per_prb=None))
        assert_same_fields(
            sc.build_graph(back, cfg.gamma_th_db), sc.build_graph(s, cfg.gamma_th_db)
        )


def test_a_record_with_the_earlier_stored_graph_loads_alike():
    # records used to store the manifest's config digest, the graph (the
    # adjacency as int8 and the raw features), the cell layout and the PRB
    # demand (as int64) as well; a reader ignores them
    cfg = small_cfg(n_ues=7)
    s = sc.generate_scenario(cfg, 3)
    g = sc.build_graph(s, cfg.gamma_th_db)
    rec = sc.to_record(s)
    adj = g.adjacency.astype(np.int8)
    prb = s.prb_demand.astype("<i8")
    earlier = {
        **rec,
        "bs_xy": encode_array(s.bs_positions),
        "prb": {
            "dtype": "<i8",
            "shape": list(prb.shape),
            "b64": base64.b64encode(prb.tobytes()).decode("ascii"),
        },
        "config_digest": "0" * 64,
        "adj": {
            "dtype": "|i1",
            "shape": list(adj.shape),
            "b64": base64.b64encode(adj.tobytes()).decode("ascii"),
        },
        "feat": encode_array(g.features),
    }
    back = sc.from_record(json.loads(json.dumps(earlier)), cfg)
    assert_same_fields(back, sc.from_record(rec, cfg))
    assert_same_fields(back, dataclasses.replace(s, sinr_per_prb=None))
    assert_same_fields(sc.build_graph(back, cfg.gamma_th_db), g)


# every config combination of the grid, 40 seeds each: the fields
# `from_record` derives are bit-equal to the ones `generate_scenarios` drew
@pytest.mark.parametrize("n_ues", [3, 7, 50, 100])
@pytest.mark.parametrize("n_cells", [3, 7])
def test_derived_record_fields_equal_the_generated_ones(n_ues, n_cells):
    for bandwidth_mhz in (20.0, 40.0, 80.0):
        for demand in (1.0, 5.0, 20.0):
            cfg = sc.ScenarioConfig(
                n_cells=n_cells, n_ues=n_ues,
                bandwidth_mhz=bandwidth_mhz, ue_demand_mbps=demand,
            )
            for s in sc.iter_scenarios(cfg, range(200, 240)):
                back = sc.from_record(sc.to_record(s), cfg)
                assert_same_fields(back, dataclasses.replace(s, sinr_per_prb=None))


@pytest.mark.parametrize("key", ["ue_xy", "sinr_db", "rsrp_dbm"])
def test_a_record_array_not_shaped_for_the_config_is_refused(key):
    # the graph is built from these arrays, so a record must fit cfg
    cfg = small_cfg(n_ues=4)
    rec = sc.to_record(sc.generate_scenario(cfg, 0))
    rec[key] = encode_array(decode_array(rec[key])[1:])
    with pytest.raises(ConfigError, match=f"{key} has shape"):
        sc.from_record(rec, cfg)


def test_record_field_names_are_stable():
    cfg = small_cfg(n_ues=2)
    rec = sc.to_record(sc.generate_scenario(cfg, 0))
    expected = {"seed", "ue_xy", "sinr_db", "rsrp_dbm"}
    assert set(rec) == expected


def test_paper_default_record_stays_small():
    # the per-PRB SINR cube (K x N x T float64) would be 190,400 of its
    # bytes, the graph (adjacency and raw features) 14,631, and the cell
    # layout and PRB demand 3,980
    cfg = sc.ScenarioConfig()
    rec = sc.to_record(sc.generate_scenario(cfg, 0))
    assert "sinr_prb_db" not in rec
    assert len(json.dumps(rec, separators=(",", ":"))) < 9 * 1024


def assert_same_fields(got, want):
    """Every field of two scenarios, or of two graphs, is equal; arrays in
    dtype, shape and bytes."""
    for f in dataclasses.fields(want):
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
# fading off is the reference's flat-channel twin of a draw, which tests
# of noise-free geometry use: it keeps every field that fading does not scale
@pytest.mark.parametrize(
    "shadowing, fading", [(True, True), (False, True), (True, False)]
)
def test_chunked_draws_match_the_per_seed_reference_bit_for_bit(
    n_ues, shadowing, fading, reuse_factor
):
    cfg = sc.ScenarioConfig(n_ues=n_ues, reuse_factor=reuse_factor)
    if not shadowing:
        cfg = dataclasses.replace(cfg, shadowing_sigma_db=0.0)
    for count in _chunk_counts(cfg):
        seeds = list(range(900, 900 + count))
        got = sc.generate_scenarios(cfg, seeds)
        assert [s.seed for s in got] == seeds
        for s in got:
            want = reference_generate_scenario(cfg, s.seed, fading)
            if not fading:
                want = dataclasses.replace(
                    want, sinr_wideband_db=s.sinr_wideband_db,
                    sinr_per_prb=s.sinr_per_prb, prb_demand=s.prb_demand,
                )
            assert_same_fields(s, want)


@pytest.mark.parametrize("n_ues", [7, 50])
def test_iter_scenarios_crosses_chunks_in_seed_order(n_ues):
    cfg = sc.ScenarioConfig(n_ues=n_ues)
    for count in _chunk_counts(cfg):
        seeds = list(range(40, 40 + count))
        got = list(sc.iter_scenarios(cfg, seeds))
        assert [s.seed for s in got] == seeds
        for s in got:
            assert_same_fields(s, reference_generate_scenario(cfg, s.seed))


def test_single_seed_draw_is_a_chunk_of_one():
    cfg = small_cfg(reuse_factor=1.0)  # every other cell interferes
    for seed in (0, 5):
        assert_same_fields(
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
            assert_same_fields(s, reference_generate_scenario(cfg, s.seed))


def _region_for_13_sites(**kw):
    # 13 sites at 800 m spacing span about 3.2 km, so a 4 km square holds them
    return sc.ScenarioConfig(region=(4000.0, 4000.0), inter_site_distance=800.0, **kw)


def _received_mw(cfg, s):
    """Per-PRB received power (K, N, T) in mW of scenario s's draw, computed
    as `reference_generate_scenario` computes it."""
    rng = np.random.default_rng(s.seed)
    rng.uniform((0.0, 0.0), cfg.region, size=(cfg.n_ues, 2))
    shadow_db = rng.normal(0.0, cfg.shadowing_sigma_db, size=s.distance.shape)
    fade_gain = rng.exponential(1.0, size=(cfg.n_ues, cfg.n_cells, cfg.n_prb_total))
    pathloss_db = sc.free_space_reference_db(cfg.carrier_ghz) + (
        10.0 * cfg.pathloss_exponent * np.log10(s.distance)
    )
    rx_mean_dbm = (
        cfg.tx_power_dbm + 10.0 * math.log10(cfg.n_tx_antennas) - pathloss_db - shadow_db
    )
    return 10.0 ** (rx_mean_dbm[:, :, None] / 10.0) * fade_gain


# every co-channel layout: from one cell to 13, and groups of one cell (no
# interferer) up to all 13 cells (12 interferers each, where the order of
# the sum shows in the bits)
@pytest.mark.parametrize("reuse_factor", [1.0, 0.5, 1.0 / 3.0, 0.25, 1.0 / 7.0])
@pytest.mark.parametrize("n_cells", [1, 2, 3, 7, 13])
@pytest.mark.parametrize("n_ues", [7, 50])
def test_every_co_channel_layout_matches_the_reference_bit_for_bit(
    n_ues, n_cells, reuse_factor
):
    cfg = _region_for_13_sites(n_cells=n_cells, n_ues=n_ues, reuse_factor=reuse_factor)
    for count in (1, sc.chunk_size(cfg)):
        seeds = list(range(300, 300 + count))
        got = sc.generate_scenarios(cfg, seeds)
        assert [s.seed for s in got] == seeds
        for s in got:
            assert_same_fields(s, reference_generate_scenario(cfg, s.seed))


@pytest.mark.parametrize(
    "n_cells, reuse_factor, alone",
    [(1, 1.0, [0]), (2, 1.0 / 3.0, [0, 1]), (7, 0.25, [3]),
     (7, 1.0 / 7.0, list(range(7))), (13, 1.0 / 7.0, [6])],
)
def test_a_cell_without_co_channel_partner_sees_only_noise(n_cells, reuse_factor, alone):
    cfg = _region_for_13_sites(n_cells=n_cells, n_ues=7, reuse_factor=reuse_factor)
    others = [c for c in range(n_cells) if c not in alone]
    for s in sc.generate_scenarios(cfg, range(40, 44)):
        snr = _received_mw(cfg, s) / cfg.noise_mw
        assert s.sinr_per_prb[:, alone].tobytes() == snr[:, alone].tobytes()
        # a cell with partners hears them: its SINR is below its SNR
        assert (s.sinr_per_prb[:, others] < snr[:, others]).all()


def test_the_interference_sum_order_shows_in_the_bits():
    # at reuse 1 each of 13 cells sums 12 interferers; the draw sums them
    # in ascending cell order, and the descending sum differs in the bits
    cfg = _region_for_13_sites(n_cells=13, n_ues=50, reuse_factor=1.0)
    s = sc.generate_scenario(cfg, 8)
    rx = _received_mw(cfg, s)
    sums = {}
    for order in ("ascending", "descending"):
        cells = range(13) if order == "ascending" else range(12, -1, -1)
        interference = np.zeros_like(rx)
        for c in range(13):
            for m in cells:
                if m != c:
                    interference[:, c] += rx[:, m]
        sums[order] = (rx / (cfg.noise_mw + interference)).tobytes()
    assert s.sinr_per_prb.tobytes() == sums["ascending"]
    assert s.sinr_per_prb.tobytes() != sums["descending"]


def test_a_chunk_out_of_a_floats_range_names_its_first_seed():
    # a 3000 dB shadowing spread: a draw past about one sigma takes the
    # received power past a float's range, so some seeds draw and some fail
    cfg = small_cfg(n_cells=1, n_ues=1, shadowing_sigma_db=3000.0)
    failing = []
    for seed in range(12):
        try:
            sc.generate_scenario(cfg, seed)
        except ConfigError as exc:
            assert "tx_power_dbm" in str(exc) and "shadowing_sigma_db" in str(exc)
            failing.append(seed)
    assert 0 < len(failing) < 12 and failing[0] > 0
    for start in (0, failing[0] + 1):
        first = min(seed for seed in failing if seed >= start)
        with pytest.raises(ConfigError, match=f"^seed {first} draws a non-finite"):
            sc.generate_scenarios(cfg, range(start, 12))
