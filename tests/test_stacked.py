"""Stacked instances: every forward op, the loss, the graph build and the
z-score take a leading instance axis and give each instance the bytes of
its own call; `train` scores its test split stacked, in chunks."""

import dataclasses
import math

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
    return normalize_features(graphs, feature_stats([graphs]))


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
    stats = feature_stats([graphs[np.array([2, 0])]])
    normalized = normalize_features(graphs, stats)
    for i, s in enumerate(scenarios):
        alone = build_graph(s, cfg.gamma_th_db)
        _same_graph(graphs[i], alone)
        _same_graph(normalized[i], normalize_features(alone, stats))
    _same(stats.mean, feature_stats([graphs[2], graphs[0]]).mean, "mean")
    _same(stats.std, feature_stats([graphs[2], graphs[0]]).std, "std")


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
    total = ad.add_terms(cost, terms)
    losses = tr.loss(s, g.prb_matrix, PARAMS, tc, g.n_prb_total)
    assert isinstance(losses, list) and len(losses) == 3
    for i, one in enumerate(_rows(g)):
        alone_cost = ad.gated_load_cost(s[i], one.prb_matrix, one.n_prb_total, 3.0, 2.0, 0.5)
        alone_terms = ad.association_penalties(s[i], one.prb_matrix, *lambdas)
        _same(cost[i], alone_cost, "gated_load_cost")
        _same(terms[:, i], alone_terms, "association_penalties")
        _same(total[i], ad.add_terms(alone_cost, alone_terms), "add_terms")
        _same(network_power_soft(s, g.prb_matrix, PARAMS, g.n_prb_total)[i],
              network_power_soft(s[i], one.prb_matrix, PARAMS, one.n_prb_total),
              "network_power_soft")
        alone = tr.loss(s[i], one.prb_matrix, PARAMS, tc, one.n_prb_total)
        assert type(alone) is float
        _same(losses[i], alone, "loss")


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


def test_test_chunks_fit_an_adam_block():
    # 32768 // (7 * 32) = 146 instances at K=7 and hidden 32
    test = _rows(_normalized(7, 7, 300))
    chunks = tr._test_chunks(test, _model(test[0], 32))
    assert [len(c.features) for c in chunks] == [146, 146, 8]
    for chunk, start in zip(chunks, (0, 146, 292)):
        _same_graph(chunk[0], test[start])
    assert len(tr._test_chunks(test[:40], _model(test[0], 32))) == 1


def test_a_chunk_boundary_keeps_the_mean():
    # K=50 and hidden 512: one instance's activations fill the block
    test = _rows(_normalized(50, 7, 3))
    model, tc = _model(test[0], 512), tr.TrainConfig()
    chunks = tr._test_chunks(test, model)
    assert [len(c.features) for c in chunks] == [1, 1, 1]
    assert tr._mean_loss(chunks, model, tc, PARAMS) == _alone_mean(test, model, tc)


def test_a_test_split_of_mixed_sizes_gives_the_per_instance_mean():
    three = _rows(_normalized(3, 2, 3))
    five = _rows(_normalized(5, 2, 2, seed0=10))
    test = [three[0], three[1], five[0], three[2], five[1]]
    model, tc = _model(three[0], 4), tr.TrainConfig(dataset_size=5, epochs=1)
    chunks = tr._test_chunks(test, model)
    assert [len(c.features) for c in chunks] == [2, 1, 1, 1]
    res = tr.train(three[:2], tc, PARAMS, seed=0, test=test, model=model)
    assert res.history[0][2] == _alone_mean(test, res.model, tc)
    empty = tr.train(three[:2], tc, PARAMS, seed=0, test=[], gat_cfg=gat.GatConfig(hidden_dim=4))
    assert math.isnan(empty.history[0][2])


def test_a_test_instance_the_model_cannot_take_stops_before_any_step(monkeypatch):
    graphs = _rows(_normalized(3, 2, 3))
    wide = dataclasses.replace(graphs[2], features=np.hstack([graphs[2].features] * 2))
    steps = []
    monkeypatch.setattr(ad, "adam_step", lambda *args: steps.append(args))
    tc = tr.TrainConfig(dataset_size=3, epochs=2)
    with pytest.raises(ShapeError, match="test instance 1: feature width 12 vs model width 6"):
        tr.train(graphs[:2], tc, PARAMS, seed=0, test=[graphs[2], wide],
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
        lambda saved: ad.add_terms(np.zeros(2), np.ones((2, 2)), saved),
        lambda saved: gat.forward(g, model, saved),
        lambda saved: tr.loss(s, g.prb_matrix, PARAMS, tr.TrainConfig(), 51, saved),
    ]
    for call in calls:
        call(None)
        saved = []
        with pytest.raises(ShapeError, match="cannot be recorded"):
            call(saved)
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
    graphs = [build_graph(one, 0.0), build_graph(other, 0.0)]
    with pytest.raises(ContractError, match="one carrier"):
        GraphInstance.stack(graphs)
