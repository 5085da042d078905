"""Stacked instances: every forward op, the loss, the graph build, the
z-score and the hardening take a leading instance axis and give each
instance the bytes of its own call; `gat.forward` runs a large stack in
chunks, so `train` scores its test stack in one call."""

import dataclasses
import math
import weakref

import numpy as np
import pytest

from nesua import autodiff as ad
from nesua import gat
from nesua import training as tr
from nesua.errors import ContractError, ShapeError
from nesua.power import PowerParams, network_power_soft
from nesua.scenario import (
    GraphInstance,
    ScenarioConfig,
    build_graph,
    feature_stats,
    generate_scenario,
    iter_scenarios,
    normalize_features,
)

PARAMS = PowerParams()
LAMBDAS = [(0.0, 0.0), (1.0, 0.0), (0.0, 0.3), (1.0, 1.0)]


def _same(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape), what
    assert got.tobytes() == want.tobytes(), what


def _same_graph(got, want):
    for name in ("features", "adjacency", "prb_matrix"):
        _same(getattr(got, name), getattr(want, name), name)
    assert got.n_prb_total == want.n_prb_total


def _drawn(k, n, count, seed0=0):
    """`count` scenarios of K UEs and N cells, and their stacked graph."""
    cfg = ScenarioConfig(n_cells=n, n_ues=k)
    scenarios = list(iter_scenarios(cfg, range(seed0, seed0 + count)))
    return scenarios, build_graph(scenarios, cfg.gamma_th_db)


def _normalized(k, n, count, seed0=0):
    graphs = _drawn(k, n, count, seed0)[1]
    return normalize_features(graphs, feature_stats(graphs))


def _model(graphs, hidden, activation="relu", seed=0):
    cfg = gat.GatConfig(hidden_dim=hidden, activation=activation,
                        readout_activation=activation)
    return gat.init_model(graphs.features.shape[-1], graphs.prb_matrix.shape[-1], cfg, seed)


def _rows(stacked):
    return [stacked[i] for i in range(stacked.features.shape[0])]


# ---------------------------------------------------------------------------
# bytes: stacked calls against one call per instance


@pytest.mark.parametrize("n", [1, 3, 7])
@pytest.mark.parametrize("k", [1, 3, 7, 50])
def test_graphs_build_and_normalize_stacked_as_alone(k, n):
    cfg = ScenarioConfig(n_cells=n, n_ues=k)
    scenarios, graphs = _drawn(k, n, 3)
    stats = feature_stats(graphs[np.array([2, 0])])
    normalized = normalize_features(graphs, stats)
    for i, s in enumerate(scenarios):
        alone = build_graph(s, cfg.gamma_th_db)
        _same_graph(graphs[i], alone)
        _same_graph(normalized[i], normalize_features(alone, stats))
    built = feature_stats(build_graph([scenarios[2], scenarios[0]], cfg.gamma_th_db))
    _same(stats.mean, built.mean, "mean")
    _same(stats.std, built.std, "std")


@pytest.mark.parametrize("activation", ["relu", "identity"])
@pytest.mark.parametrize("hidden", [4, 32, 512])
@pytest.mark.parametrize("n", [1, 3, 7])
@pytest.mark.parametrize("k", [1, 3, 7, 50])
def test_forward_ops_stacked_as_alone(k, n, hidden, activation):
    g = _normalized(k, n, 3)
    model = _model(g, hidden, activation)
    p, relu = model.params, activation == "relu"
    hw = ad.linear(g.features, p["gat1.W"])
    mixed = ad.attention_round(hw, p["gat1.a"], g.adjacency, 0.2, relu)
    s = ad.softmax_readout(mixed, p["readout.Q"], p["readout.B"], relu)
    forward = gat.forward(g, model)
    for i, one in enumerate(_rows(g)):
        _same(hw[i], ad.linear(one.features, p["gat1.W"]), "linear")
        _same(mixed[i], ad.attention_round(hw[i], p["gat1.a"], one.adjacency, 0.2, relu),
              "attention_round")
        _same(s[i], ad.softmax_readout(mixed[i], p["readout.Q"], p["readout.B"], relu),
              "softmax_readout")
        _same(forward[i], gat.forward(one, model), "gat.forward")


@pytest.mark.parametrize("lambdas", LAMBDAS)
@pytest.mark.parametrize("n", [1, 3, 7])
@pytest.mark.parametrize("k", [1, 3, 7, 50])
def test_loss_ops_stacked_as_alone(k, n, lambdas):
    g = _normalized(k, n, 3)
    s = gat.forward(g, _model(g, 4))
    tc = tr.TrainConfig(lambda1=lambdas[0], lambda2=lambdas[1])
    cost = ad.gated_load_cost(s, g.prb_matrix, g.n_prb_total, 3.0, 2.0, 0.5)
    terms = ad.association_penalties(s, g.prb_matrix, *lambdas)
    assert len(terms) == sum(lam > 0.0 for lam in lambdas)
    losses = tr.loss(s, g.prb_matrix, PARAMS, tc, g.n_prb_total)
    assert isinstance(losses, list) and len(losses) == 3
    for i, one in enumerate(_rows(g)):
        alone_cost = ad.gated_load_cost(s[i], one.prb_matrix, one.n_prb_total, 3.0, 2.0, 0.5)
        alone_terms = ad.association_penalties(s[i], one.prb_matrix, *lambdas)
        _same(cost[i], alone_cost, "gated_load_cost")
        _same([term[i] for term in terms], alone_terms, "association_penalties")
        _same(network_power_soft(s, g.prb_matrix, PARAMS, g.n_prb_total)[i],
              network_power_soft(s[i], one.prb_matrix, PARAMS, one.n_prb_total),
              "network_power_soft")
        alone = tr.loss(s[i], one.prb_matrix, PARAMS, tc, one.n_prb_total)
        assert type(alone) is float
        _same(losses[i], alone, "loss")


def test_a_stack_hardens_to_one_cell_index_per_ue_and_instance():
    g = _normalized(7, 7, 5)
    s = gat.forward(g, _model(g, 32))
    rand = np.random.default_rng(0).random((2, 3, 4))
    for stacked in (s, rand):
        hard = gat.harden(stacked)
        assert hard.shape == stacked.shape[:2]
        for i, one in enumerate(stacked):
            _same(hard[i], gat.harden(one), "harden")


def test_forty_instances_at_oracle_scale_score_as_alone():
    # K=7, hidden 32: flattened to (B*K, d), OpenBLAS blocks the rows of
    # these products otherwise than one call per instance, and the bits differ
    g = _normalized(7, 7, 40)
    model = _model(g, 32)
    tc = tr.TrainConfig()
    stacked = gat.forward(g, model)
    losses = tr.loss(stacked, g.prb_matrix, PARAMS, tc, g.n_prb_total)
    for i, one in enumerate(_rows(g)):
        s = gat.forward(one, model)
        _same(stacked[i], s, "gat.forward")
        _same(losses[i], tr.loss(s, one.prb_matrix, PARAMS, tc, one.n_prb_total), "loss")


# ---------------------------------------------------------------------------
# the test split in chunks


def _alone_mean(test, model, tc):
    return float(np.mean([
        tr.loss(gat.forward(g, model), g.prb_matrix, PARAMS, tc, g.n_prb_total) for g in test
    ]))


def _forward_recording(monkeypatch, g, model):
    """gat.forward of g, and the leading size of each attention round's
    input, in call order."""
    sizes, attention_round = [], ad.attention_round

    def recording(hw, *args):
        sizes.append(hw.shape[0])
        return attention_round(hw, *args)

    with monkeypatch.context() as patched:
        patched.setattr(ad, "attention_round", recording)
        return gat.forward(g, model), sizes


def test_forward_chunks_a_stack_to_fit_an_adam_block(monkeypatch):
    # 32768 // (7 * 32) = 146 instances at K=7 and hidden 32
    test = _normalized(7, 7, 300)
    model = _model(test, 32)
    s, sizes = _forward_recording(monkeypatch, test, model)
    assert sizes == [146, 146, 146, 146, 8, 8]
    for i, one in enumerate(_rows(test)):
        _same(s[i], gat.forward(one, model), "gat.forward")
    assert _forward_recording(monkeypatch, test[:146], model)[1] == [146, 146]


def test_a_chunk_boundary_keeps_the_test_mean(monkeypatch):
    # K=50 and hidden 512: one instance's activations fill the block
    g = _normalized(50, 7, 5)
    test, model = g[2:], _model(g, 512)
    s, sizes = _forward_recording(monkeypatch, test, model)
    assert sizes == [1] * 6
    for i, one in enumerate(_rows(test)):
        _same(s[i], gat.forward(one, model), "gat.forward")
    tc = tr.TrainConfig(dataset_size=5, epochs=1)
    res = tr.train(g[:2], tc, PARAMS, seed=0, test=test, gat_cfg=model.config)
    assert res.history[0][2] == _alone_mean(_rows(test), res.model, tc)


def test_the_test_column_is_the_per_instance_mean_or_nan_for_none():
    # 150 test instances at K=7 and hidden 32: forwarded in chunks of 146 and 4
    g = _normalized(7, 7, 152)
    tc, gcfg = tr.TrainConfig(dataset_size=152, epochs=1), gat.GatConfig(hidden_dim=32)
    res = tr.train(g[:2], tc, PARAMS, seed=0, test=g[2:], gat_cfg=gcfg)
    assert res.history[0][2] == _alone_mean(_rows(g[2:]), res.model, tc)
    empty = tr.train(g[:2], tc, PARAMS, seed=0, test=g[:0], gat_cfg=gcfg)
    assert math.isnan(empty.history[0][2])


def test_a_test_instance_the_model_cannot_take_stops_before_any_step(monkeypatch):
    graphs = _normalized(3, 2, 3)
    wide = dataclasses.replace(
        graphs[1:], features=np.concatenate([graphs[1:].features] * 2, axis=-1)
    )
    steps = []
    monkeypatch.setattr(ad, "adam_step", lambda *args: steps.append(args))
    tc = tr.TrainConfig(dataset_size=3, epochs=2)
    with pytest.raises(ShapeError, match="test split: feature width 12 vs model width 6"):
        tr.train(graphs[:2], tc, PARAMS, seed=0, test=wide,
                 gat_cfg=gat.GatConfig(hidden_dim=4))
    assert steps == []


# ---------------------------------------------------------------------------
# what a stack refuses


def test_a_stacked_call_is_not_recorded_for_backward():
    g = _normalized(3, 2, 2)
    model = _model(g, 4)
    p = model.params
    hw = ad.linear(g.features, p["gat1.W"])
    s = gat.forward(g, model)
    calls = [
        lambda saved: ad.linear(g.features, p["gat1.W"], saved),
        lambda saved: ad.attention_round(hw, p["gat1.a"], g.adjacency, 0.2, True, saved),
        lambda saved: ad.softmax_readout(hw, p["readout.Q"], p["readout.B"], True, saved),
        lambda saved: ad.gated_load_cost(s, g.prb_matrix, 51, 1.0, 1.0, 0.0, saved),
        lambda saved: ad.association_penalties(s, g.prb_matrix, 1.0, 1.0, saved),
        lambda saved: gat.forward(g, model, saved),
        lambda saved: tr.loss(s, g.prb_matrix, PARAMS, tr.TrainConfig(), 51, saved),
    ]
    for call in calls:
        call(None)
        saved = []
        with pytest.raises(ShapeError, match="cannot be recorded"):
            call(saved)
        assert saved == []
    # K=50 and hidden 512: two instances are two chunks
    big = _normalized(50, 7, 2)
    saved = []
    with pytest.raises(ShapeError, match="cannot be recorded"):
        gat.forward(big, _model(big, 512), saved)
    assert saved == []


def test_a_stacked_graph_checks_every_instance_mask():
    g = _drawn(3, 2, 3)[1]
    empty_row = g.adjacency.copy()
    empty_row[1, 2] = False
    with pytest.raises(ContractError, match="a row with no neighbour"):
        GraphInstance(g.features, empty_row, g.prb_matrix, g.n_prb_total)
    with pytest.raises(ContractError, match=r"\(3, 3, 3\) bool mask"):
        GraphInstance(g.features, g.adjacency[:2], g.prb_matrix, g.n_prb_total)


def test_stacking_needs_one_carrier():
    one, other = _drawn(3, 2, 1)[0][0], _drawn(3, 2, 1)[0][0]
    other = dataclasses.replace(other, n_prb_total=other.n_prb_total + 1)
    with pytest.raises(ContractError, match="one carrier"):
        build_graph([one, other], 0.0)
    with pytest.raises(ContractError, match="one carrier"):
        build_graph((s for s in (one, other)), 0.0)


def test_a_generator_builds_in_one_pass_and_frees_each_cube():
    cfg = ScenarioConfig(n_cells=3, n_ues=4)
    cubes = []

    def drawn():
        for seed in range(5):
            # every scenario before the one last read is gone, with its cube
            assert [cube() is None for cube in cubes[:-1]] == [True] * (len(cubes) - 1)
            s = generate_scenario(cfg, seed)
            cubes.append(weakref.ref(s.sinr_per_prb.base))
            yield s
            del s

    graphs = build_graph(drawn(), cfg.gamma_th_db)
    assert [cube() is None for cube in cubes] == [True] * 5
    _same_graph(graphs, _drawn(4, 3, 5)[1])
