"""Loss algebra, dataset preparation, and training-loop behavior."""

import dataclasses
import math

import numpy as np
import pytest

from nesua import autodiff as ad
from nesua import gat
from nesua import training as tr
from nesua.baselines import oracle_assignment
from nesua.errors import ConfigError, ContractError, ShapeError, TrainingDiverged
from nesua.power import PowerParams, network_power_hard, network_power_soft
from nesua.scenario import GraphInstance, ScenarioConfig

from helpers import (
    FUSED_NODES,
    REFERENCE_NODES,
    assert_packed,
    dataset,
    finite_difference_grad,
    linear,
    reference_adam_step,
    reference_adam_step_over,
    reference_transformed,
    shapes_of,
    tape_backward,
    tape_loss,
)

DEFAULTS = PowerParams()


def test_config_validation():
    with pytest.raises(ConfigError, match="lambda1 must be finite and >= 0"):
        tr.TrainConfig(lambda1=-1.0)
    with pytest.raises(ConfigError, match="lambda2 must be finite and >= 0"):
        tr.TrainConfig(lambda2=math.inf)
    with pytest.raises(ConfigError):
        tr.TrainConfig(split_fraction=1.0)
    with pytest.raises(ConfigError):
        tr.TrainConfig(epochs=-1)
    with pytest.raises(ConfigError):
        tr.TrainConfig(lr=0.0)


def _rand_stochastic(k, n, rng):
    raw = rng.uniform(0.05, 1.0, size=(k, n))
    return raw / raw.sum(axis=1, keepdims=True)


def test_loss_reduces_to_power_without_regularizers():
    rng = np.random.default_rng(80)
    s = _rand_stochastic(4, 3, rng)
    prb = rng.integers(1, 20, size=(4, 3)).astype(float)
    tc = tr.TrainConfig(lambda1=0.0, lambda2=0.0)
    a = tr.loss(s, prb, DEFAULTS, tc, 51)
    b = network_power_soft(s, prb, DEFAULTS, 51)
    assert a == b


def test_loss_one_hot_kills_sharpness_term():
    s_hard = np.zeros((5, 3))
    s_hard[np.arange(5), [0, 2, 1, 0, 2]] = 1.0
    prb = np.ones((5, 3))
    with_t1 = tr.loss(s_hard, prb, DEFAULTS, tr.TrainConfig(lambda1=9.0, lambda2=0.0), 51)
    without = tr.loss(s_hard, prb, DEFAULTS, tr.TrainConfig(lambda1=0.0, lambda2=0.0), 51)
    assert with_t1 == without  # K - Tr(S S^T) is exactly zero at one-hot S


def test_loss_uniform_sharpness_hand_value():
    s = np.full((3, 2), 0.5)
    prb = np.ones((3, 2))
    lam = 4.0
    base = tr.loss(s, prb, DEFAULTS, tr.TrainConfig(lambda1=0.0, lambda2=0.0), 51)
    with_t1 = tr.loss(s, prb, DEFAULTS, tr.TrainConfig(lambda1=lam, lambda2=0.0), 51)
    assert with_t1 - base == pytest.approx(lam * 1.5, rel=1e-12)


def test_loss_concentration_term_is_l2_of_cell_loads():
    s_values = np.array([[0.25, 0.75], [0.5, 0.5]])
    prb = np.array([[4.0, 8.0], [2.0, 6.0]])
    p_hat = (s_values * prb).sum(axis=0)
    lam = 3.0
    base = tr.loss(s_values, prb, DEFAULTS, tr.TrainConfig(lambda1=0.0, lambda2=0.0), 51)
    full = tr.loss(s_values, prb, DEFAULTS, tr.TrainConfig(lambda1=0.0, lambda2=lam), 51)
    assert full - base == pytest.approx(lam * np.linalg.norm(p_hat), rel=1e-12)


def test_loss_lower_bound_and_t1_range():
    rng = np.random.default_rng(81)
    params = PowerParams(p_sleep_w=6.0)
    for _ in range(300):
        k = int(rng.integers(1, 8))
        n = int(rng.integers(1, 5))
        s = _rand_stochastic(k, n, rng)
        prb = rng.integers(1, 30, size=(k, n)).astype(float)
        tc = tr.TrainConfig(
            lambda1=float(rng.uniform(0, 3)), lambda2=float(rng.uniform(0, 3))
        )
        value = tr.loss(s, prb, params, tc, 51)
        assert value >= n * params.p_sleep_w - 1e-9
        sharp = k - (s**2).sum()
        assert -1e-12 <= sharp <= k * (1.0 - 1.0 / n) + 1e-12


def test_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(82)
    prb = rng.integers(1, 10, size=(4, 3)).astype(float)
    tc = tr.TrainConfig(lambda1=2.0, lambda2=0.5)
    s = _rand_stochastic(4, 3, rng)
    saved = []
    tr.loss(s, prb, DEFAULTS, tc, 51, saved)
    fd = finite_difference_grad(lambda x: tr.loss(x, prb, DEFAULTS, tc, 51), s.copy())
    np.testing.assert_allclose(ad.loss_backward(saved), fd, rtol=1e-4, atol=1e-6)


def _tiny_cfg(**kw):
    base = dict(
        n_cells=2,
        n_ues=4,
        region=(2000.0, 2000.0),
        inter_site_distance=800.0,
        ue_demand_mbps=2.0,
    )
    base.update(kw)
    return ScenarioConfig(**base)


def test_split_and_normalize_splits_and_normalizes():
    cfg = _tiny_cfg()
    train, test, stats = tr.split_and_normalize(*dataset(cfg, 10, 5), 0.8, 5)
    assert len(train) == 8 and len(test) == 2
    seeds = {s.scenario.seed for s in train} | {s.scenario.seed for s in test}
    assert len(seeds) == 10  # disjoint splits, nothing duplicated
    pooled = np.concatenate([s.graph.features for s in train], axis=0)
    np.testing.assert_allclose(pooled.mean(axis=0), 0.0, atol=1e-9)
    np.testing.assert_allclose(pooled.var(axis=0), 1.0, atol=1e-6)

    again = tr.split_and_normalize(*dataset(cfg, 10, 5), 0.8, 5)
    np.testing.assert_array_equal(
        train[0].graph.features, again[0][0].graph.features
    )


def test_split_and_normalize_argument_errors():
    with pytest.raises(ContractError):
        tr.split_and_normalize(*dataset(_tiny_cfg(), 1, 0), 0.8, 0)
    with pytest.raises(ContractError):
        tr.split_and_normalize(*dataset(_tiny_cfg(), 5, 0), 1.5, 0)


def _graphs(cfg, count, seed0=0):
    from nesua.scenario import (
        build_graph, feature_stats, generate_scenario, normalize_features,
    )

    raw = []
    for i in range(count):
        s = generate_scenario(cfg, seed0 + i)
        raw.append(build_graph(s, cfg.gamma_th_db))
    stats = feature_stats(raw)
    return [normalize_features(g, stats) for g in raw]


def _split(cfg, size, seed=0):
    """The train and test graphs `split_and_normalize` makes of a dataset."""
    train, test, _ = tr.split_and_normalize(*dataset(cfg, size, seed), 0.8, seed)
    return [p.graph for p in train], [p.graph for p in test]


def test_zero_epochs_returns_initialization():
    cfg = _tiny_cfg()
    graphs, test = _split(cfg, 3)
    tc = tr.TrainConfig(dataset_size=3, epochs=0, lr=1e-3)
    gcfg = gat.GatConfig(hidden_dim=4)
    res = tr.train(graphs, tc, DEFAULTS, seed=11, gat_cfg=gcfg, test=test)
    fresh = gat.init_model(graphs[0].features.shape[1], 2, gcfg, 11)
    for got, want in zip(res.model.params.values(), fresh.params.values()):
        np.testing.assert_array_equal(got, want)
    assert res.history == []


def test_training_is_deterministic():
    cfg = _tiny_cfg()
    graphs, test = _split(cfg, 4)
    tc = tr.TrainConfig(dataset_size=4, epochs=5, lr=1e-3, shuffle_seed=3)
    kw = dict(
        tc=tc, params=DEFAULTS, seed=2,
        gat_cfg=gat.GatConfig(hidden_dim=4), test=test,
    )
    a = tr.train(graphs, **kw)
    b = tr.train(graphs, **kw)
    assert a.history == b.history
    for p, q in zip(a.model.params.values(), b.model.params.values()):
        np.testing.assert_array_equal(p, q)


def test_single_instance_learns_the_cheap_cell():
    # both UEs fit on either cell, but cell 0 needs 1 PRB each versus 20;
    # a steep load slope makes cell 0 strictly cheaper for any occupancy,
    # and 4-way enumeration confirms everyone-on-0 is the optimum
    k, n = 2, 2
    params = PowerParams(p_bb_slope_w=200.0)
    prb = np.array([[1.0, 20.0], [1.0, 20.0]])
    g = GraphInstance(
        features=np.array([[0.2, -0.5, 1.0, 0.5, -1.0, 0.3],
                           [-0.2, 0.5, 0.9, -0.3, 0.8, -0.4]]),
        adjacency=np.ones((k, k), dtype=bool),
        prb_matrix=prb,
        n_prb_total=51,
    )
    best = oracle_assignment(prb, 51, params)
    assert best.tolist() == [0, 0]
    assert not network_power_hard(best, prb, params, 51).overload.any()

    tc = tr.TrainConfig(dataset_size=2, epochs=200, lr=2e-2, lambda1=5.0, lambda2=0.0)
    gcfg = gat.GatConfig(hidden_dim=8, readout_activation="identity")
    res = tr.train(
        [g], tc, params,
        seed=0, gat_cfg=gcfg, test=[],
    )
    s = gat.forward(g, res.model)
    assert gat.harden(s).tolist() == best.tolist()
    assert s[:, 0].min() > 0.99  # hardened, not merely leaning


def test_history_shape_and_loss_trend():
    cfg = _tiny_cfg(n_ues=5)
    graphs = _graphs(cfg, 8)
    tc = tr.TrainConfig(dataset_size=8, epochs=60, lr=2e-3, shuffle_seed=1, lambda2=0.1)
    gcfg = gat.GatConfig(hidden_dim=6, readout_activation="identity")
    res = tr.train(
        graphs[:6], tc, DEFAULTS,
        seed=4, gat_cfg=gcfg, test=graphs[6:],
    )
    assert len(res.history) == 60
    assert [row[0] for row in res.history] == list(range(1, 61))
    losses = np.array([row[1] for row in res.history])
    window = 20
    means = np.convolve(losses, np.ones(window) / window, mode="valid")
    violations = (np.diff(means) > 1e-9).sum()
    assert violations <= 0.05 * len(means) + 1

    # best checkpoint tracks the test column
    test_losses = [row[2] for row in res.history]
    assert res.best_epoch == int(np.argmin(test_losses)) + 1


def test_gradient_reaches_every_parameter_group():
    cfg = _tiny_cfg(n_ues=5)
    g = _graphs(cfg, 1)[0]
    gcfg = gat.GatConfig(hidden_dim=6, readout_activation="identity")
    tc = tr.TrainConfig(dataset_size=2, epochs=1, lr=1e-3)
    fresh = gat.init_model(g.features.shape[1], 2, gcfg, 8)
    res = tr.train(
        [g], tc, DEFAULTS, seed=8, gat_cfg=gcfg, test=[],
    )
    for (name, before), after in zip(
        fresh.params.items(), res.model.params.values()
    ):
        assert np.abs(after - before).max() > 0.0, name


def test_resume_matches_uninterrupted_run():
    cfg = _tiny_cfg(n_ues=4)
    graphs = _graphs(cfg, 5)
    gcfg = gat.GatConfig(hidden_dim=4)
    tc6 = tr.TrainConfig(dataset_size=5, epochs=6, lr=1e-3, shuffle_seed=9, lambda2=0.2)
    tc3 = tr.TrainConfig(dataset_size=5, epochs=3, lr=1e-3, shuffle_seed=9, lambda2=0.2)

    full = tr.train(graphs[:4], tc6, DEFAULTS, seed=1, gat_cfg=gcfg,
                    test=graphs[4:])
    half = tr.train(graphs[:4], tc3, DEFAULTS, seed=1, gat_cfg=gcfg,
                    test=graphs[4:])
    resumed = tr.train(
        graphs[:4], tc6, DEFAULTS, seed=1, gat_cfg=gcfg, test=graphs[4:],
        model=half.model, adam_state=half.adam_state, start_epoch=3,
    )
    assert half.history + resumed.history == full.history
    for p, q in zip(resumed.model.params.values(), full.model.params.values()):
        np.testing.assert_array_equal(p, q)


def test_training_matches_reference_kernels_bit_for_bit(monkeypatch):
    # the shipped layer transform and Adam step against the references
    # they replaced: transpose node plus matmul on the tape, and
    # fresh-array Adam
    cfg = _tiny_cfg(n_ues=7)
    graphs = _graphs(cfg, 6)
    tc = tr.TrainConfig(dataset_size=6, epochs=4, lr=1e-2, shuffle_seed=5, lambda2=0.2)
    kw = dict(
        tc=tc, params=DEFAULTS,
        seed=3, test=graphs[5:],
        gat_cfg=gat.GatConfig(hidden_dim=16, readout_activation="identity"),
    )
    shipped = tr.train(graphs[:5], **kw)
    assert len({row[1] for row in shipped.history}) == 4  # the model does learn
    shapes = [p.shape for p in shipped.model.params.values()]
    monkeypatch.setattr(
        ad, "backward",
        lambda saved, grad: tape_backward(saved, grad, FUSED_NODES, reference_transformed),
    )
    monkeypatch.setattr(ad, "adam_step", reference_adam_step_over(shapes))
    reference = tr.train(graphs[:5], **kw)

    assert np.array(shipped.history).tobytes() == np.array(reference.history).tobytes()
    assert shipped.best_epoch == reference.best_epoch
    for ours, theirs in (
        (shipped.model, reference.model),
        (shipped.best_model, reference.best_model),
    ):
        for p, q in zip(ours.params.values(), theirs.params.values()):
            assert p.tobytes() == q.tobytes()
    a, b = shipped.adam_state, reference.adam_state
    assert a.step == b.step == 4 * 5
    for key in ("m", "v"):
        for x, y in zip(ad.unpack(getattr(a, key), shapes), ad.unpack(getattr(b, key), shapes)):
            assert x.tobytes() == y.tobytes()


def _run_and_resume(graphs, gcfg, tmp_path, tag):
    """train for 4 epochs, then 2 epochs resumed to 4 through a checkpoint
    file; the results of both"""
    kw = dict(params=DEFAULTS, seed=3, test=graphs[8:])
    full = tr.train(graphs[:8], tr.TrainConfig(dataset_size=10, epochs=4, lr=1e-3,
                                               shuffle_seed=5, lambda2=0.2), gat_cfg=gcfg, **kw)
    half = tr.train(graphs[:8], tr.TrainConfig(dataset_size=10, epochs=2, lr=1e-3,
                                               shuffle_seed=5, lambda2=0.2), gat_cfg=gcfg, **kw)
    path = tmp_path / f"{tag}.json"
    gat.save_checkpoint(path, half.model, {"adam": half.adam_state.to_dict(shapes_of(half.model))})
    loaded, leftover = gat.load_checkpoint(path)
    tc = tr.TrainConfig(dataset_size=10, epochs=4, lr=1e-3, shuffle_seed=5, lambda2=0.2)
    resumed = tr.train(
        graphs[:8], tc, model=loaded,
        adam_state=ad.AdamState.from_dict(leftover["adam"], shapes_of(loaded)),
        start_epoch=2, **kw,
    )
    return full, resumed


def _fingerprint(res):
    adam = res.adam_state
    return (
        np.array(res.history).tobytes(),
        res.best_epoch,
        res.model.flat.tobytes(),
        res.best_model.flat.tobytes(),
        adam.step,
        adam.m.tobytes(),
        adam.v.tobytes(),
    )


def test_fused_nodes_train_and_resume_like_their_references(reference_nodes, tmp_path):
    # K=7 and hidden 32, the scale at which the per-node cost dominated
    graphs = _graphs(_tiny_cfg(n_ues=7), 10)
    gcfg = gat.GatConfig(hidden_dim=32)
    shipped = _run_and_resume(graphs, gcfg, tmp_path, "shipped")
    assert len({row[1] for row in shipped[0].history}) == 4  # the model does learn
    reference_nodes()
    reference = _run_and_resume(graphs, gcfg, tmp_path, "reference")
    for ours, theirs in zip(shipped, reference):
        assert _fingerprint(ours) == _fingerprint(theirs)


def _nodes_with_backward(root):
    seen, stack, count = set(), [root], 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        count += node._backward is not None
        stack.extend(p for p in node._parents if p.requires_grad)
    return count


def test_a_train_step_is_at_most_eight_backward_nodes():
    graph = _graphs(_tiny_cfg(n_ues=7), 1)[0]
    model = gat.init_model(graph.features.shape[1], 2, gat.GatConfig(hidden_dim=32), 0)
    saved = []
    s = gat.forward(graph, model, saved)
    tr.loss(s, graph.prb_matrix, DEFAULTS, tr.TrainConfig(), graph.n_prb_total, saved)
    # two transforms, two attention rounds, the readout, the power, the
    # penalties and their sum: one backward rule each, and as many nodes
    # on the tape, where the chains they stand for are 50
    assert [type(r).__name__ for r in saved] == [
        "Linear", "Attention", "Linear", "Attention", "Readout", "LoadCost", "Penalties", "Terms",
    ]
    assert _nodes_with_backward(tape_loss(saved)[0]) == 8
    assert _nodes_with_backward(tape_loss(saved, REFERENCE_NODES, linear)[0]) == 50


def test_resumed_adam_moments_are_trained_in_their_decoded_buffer():
    cfg = _tiny_cfg(n_ues=4)
    graphs = _graphs(cfg, 3)
    tc = tr.TrainConfig(dataset_size=3, epochs=1, lr=1e-2)
    res = tr.train(graphs[:2], tc, DEFAULTS, seed=2,
                   gat_cfg=gat.GatConfig(hidden_dim=4), test=graphs[2:])
    shapes = shapes_of(res.model)
    adam = ad.AdamState.from_dict(res.adam_state.to_dict(shapes), shapes)
    decoded_m, decoded_v = adam.m, adam.v
    tc2 = tr.TrainConfig(dataset_size=3, epochs=2, lr=1e-2)
    tr.train(graphs[:2], tc2, DEFAULTS, seed=2, model=res.model,
             adam_state=adam, start_epoch=1, test=graphs[2:])
    assert adam.m is decoded_m and adam.v is decoded_v
    assert adam.step == 4


def test_clone_copies_the_buffer_and_keeps_the_layers():
    rng = np.random.default_rng(79)
    arrays = [rng.normal(size=s) for s in [(4, 6), (8,), (4, 4), (8,), (4, 2), (2,)]]
    model = gat.GatModel(
        config=gat.GatConfig(hidden_dim=4),
        feat_dim=6,
        n_cells=2,
        flat=ad.pack(arrays),
    )
    twin = tr.clone_model(model)
    assert_packed(twin)
    assert twin.flat.tobytes() == model.flat.tobytes()
    assert not np.shares_memory(twin.flat, model.flat)
    assert (twin.config, twin.feat_dim, twin.n_cells) == (model.config, 6, 2)


def test_training_and_resume_keep_every_parameter_packed(tmp_path):
    cfg = _tiny_cfg(n_ues=5)
    graphs = _graphs(cfg, 4)
    gcfg = gat.GatConfig(hidden_dim=6, readout_activation="identity")
    tc = tr.TrainConfig(dataset_size=4, epochs=1, lr=1e-2, shuffle_seed=2)
    model = gat.init_model(graphs[0].features.shape[1], 2, gcfg, 3)
    res = tr.train(graphs[:3], tc, DEFAULTS, seed=3,
                   model=model, test=graphs[3:])
    assert res.model is model and res.adam_state.step == 3
    for m in (res.model, res.best_model, tr.clone_model(res.model)):
        assert_packed(m)

    # a resume from the saved checkpoint, as `train --checkpoint` does it
    path = tmp_path / "checkpoint.json"
    gat.save_checkpoint(path, res.model, {"adam": res.adam_state.to_dict(shapes_of(res.model))})
    loaded, leftover = gat.load_checkpoint(path)
    adam = ad.AdamState.from_dict(leftover["adam"], shapes_of(loaded))
    tc2 = tr.TrainConfig(dataset_size=4, epochs=2, lr=1e-2, shuffle_seed=2)
    resumed = tr.train(graphs[:3], tc2, DEFAULTS, seed=3,
                       model=loaded, adam_state=adam, start_epoch=1,
                       test=graphs[3:])
    assert_packed(resumed.model)
    assert resumed.adam_state.step == 6


def test_training_matches_per_parameter_reference_adam_bit_for_bit(monkeypatch):
    # one Adam pass over the packed buffers against the six named
    # parameters stepped one by one with the reference Adam
    cfg = _tiny_cfg(n_ues=7)
    graphs = _graphs(cfg, 6)
    tc = tr.TrainConfig(dataset_size=6, epochs=4, lr=1e-2, shuffle_seed=5, lambda2=0.2)
    gcfg = gat.GatConfig(hidden_dim=16, readout_activation="identity")

    feat_dim = graphs[0].features.shape[1]
    kw = dict(tc=tc, params=DEFAULTS, seed=3, test=graphs[5:])
    shipped = tr.train(graphs[:5], model=gat.init_model(feat_dim, 2, gcfg, 3), **kw)
    assert len({row[1] for row in shipped.history}) == 4  # the model does learn

    model = gat.init_model(feat_dim, 2, gcfg, 3)
    shapes = shapes_of(model)
    size = model.flat.size
    ref_state = ad.AdamState(
        m=ad.unpack(np.zeros(size), shapes), v=ad.unpack(np.zeros(size), shapes)
    )

    def per_parameter(param, grad, state, train):
        assert param is model.flat and train is tc
        assert_packed(model)
        named = list(model.params.values())
        reference_adam_step(named, ad.unpack(grad.copy(), shapes), ref_state, train)
        state.step += 1

    monkeypatch.setattr(ad, "adam_step", per_parameter)
    reference = tr.train(graphs[:5], model=model, **kw)

    assert np.array(shipped.history).tobytes() == np.array(reference.history).tobytes()
    assert shipped.best_epoch == reference.best_epoch
    for ours, theirs in (
        (shipped.model, reference.model),
        (shipped.best_model, reference.best_model),
    ):
        for p, q in zip(ours.params.values(), theirs.params.values()):
            assert p.tobytes() == q.tobytes()
    assert shipped.adam_state.step == ref_state.step == 4 * 5
    for key in ("m", "v"):
        for x, y in zip(ad.unpack(getattr(shipped.adam_state, key), shapes),
                        getattr(ref_state, key)):
            assert x.tobytes() == y.tobytes()


def test_each_step_overwrites_every_gradient_slot(monkeypatch):
    # the gradient buffer is never zeroed: a step whose backward left a
    # slot unwritten would step that parameter on stale values
    cfg = _tiny_cfg(n_ues=4)
    graphs = _graphs(cfg, 3)
    kw = dict(tc=tr.TrainConfig(dataset_size=3, epochs=2, lr=1e-2),
              params=DEFAULTS, seed=1, gat_cfg=gat.GatConfig(hidden_dim=4), test=graphs[2:])
    shipped = tr.train(graphs[:2], **kw)
    backward, steps = ad.backward, []

    def poisoned(saved, grad):
        grad.fill(np.nan)
        backward(saved, grad)
        steps.append(np.isfinite(grad).all())

    monkeypatch.setattr(ad, "backward", poisoned)
    again = tr.train(graphs[:2], **kw)
    assert steps == [True] * 4
    assert again.model.flat.tobytes() == shipped.model.flat.tobytes()


def test_adam_moments_shaped_unlike_their_parameters_are_refused():
    # same element count, another shape
    cfg = _tiny_cfg(n_ues=4)
    graphs = _graphs(cfg, 3)
    model = gat.init_model(graphs[0].features.shape[1], 2, gat.GatConfig(hidden_dim=4), 1)
    state = ad.AdamState.for_params(model.flat)
    state.v = state.v.reshape(1, -1)
    tc = tr.TrainConfig(dataset_size=3, epochs=1)
    with pytest.raises(ShapeError, match="adam.v"):
        tr.train(graphs[:2], tc, DEFAULTS, seed=1,
                 model=model, adam_state=state, test=graphs[2:])


def test_checkpoint_with_adam_state_save_load_save_is_byte_identical(tmp_path):
    cfg = _tiny_cfg(n_ues=4)
    graphs = _graphs(cfg, 3)
    tc = tr.TrainConfig(dataset_size=3, epochs=2, lr=1e-2)
    res = tr.train(graphs[:2], tc, DEFAULTS, seed=2,
                   gat_cfg=gat.GatConfig(hidden_dim=4), test=graphs[2:])
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    shapes = shapes_of(res.model)
    gat.save_checkpoint(first, res.model, {"adam": res.adam_state.to_dict(shapes), "epoch": 2})
    loaded, leftover = gat.load_checkpoint(first)
    adam = ad.AdamState.from_dict(leftover["adam"], shapes)
    gat.save_checkpoint(second, loaded, {"adam": adam.to_dict(shapes), "epoch": 2})
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_divergence_is_reported_with_location():
    cfg = _tiny_cfg()
    graphs = _graphs(cfg, 2)
    tc = tr.TrainConfig(dataset_size=2, epochs=10, lr=1e200)
    gcfg = gat.GatConfig(
        hidden_dim=4, activation="identity", readout_activation="identity"
    )
    with pytest.raises(TrainingDiverged, match="epoch"):
        tr.train(
            graphs, tc, DEFAULTS, seed=0,
            gat_cfg=gcfg, test=[],
        )


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_a_non_finite_test_split_loss_stops_training():
    # the training steps stay finite; only the test instance's features,
    # finite but near the float64 limit, overflow the forward
    cfg = _tiny_cfg()
    graphs = _graphs(cfg, 3)
    huge = dataclasses.replace(graphs[2], features=graphs[2].features * 1e308)
    assert np.isfinite(huge.features).all()
    tc = tr.TrainConfig(dataset_size=3, epochs=2)
    gcfg = gat.GatConfig(hidden_dim=4, activation="identity", readout_activation="identity")
    with pytest.raises(TrainingDiverged, match="test-split loss at epoch 1"):
        tr.train(graphs[:2], tc, DEFAULTS, seed=0, gat_cfg=gcfg, test=[huge])
    res = tr.train(graphs[:2], tc, DEFAULTS, seed=0, gat_cfg=gcfg, test=graphs[2:])
    assert all(math.isfinite(row[2]) for row in res.history)


def test_mixed_cell_counts_rejected():
    a = _graphs(_tiny_cfg(), 1)[0]
    b = _graphs(_tiny_cfg(n_cells=3, region=(2600.0, 2600.0)), 1, seed0=5)[0]
    tc = tr.TrainConfig(dataset_size=2, epochs=1)
    with pytest.raises(ContractError):
        tr.train([a, b], tc, DEFAULTS, seed=0, test=[])


def test_write_history_round_trips(tmp_path):
    rows = [(1, 410.5, 402.25, 5e-05), (2, 399.125, float("nan"), 5e-05)]
    path = tmp_path / "history.csv"
    tr.write_history(path, rows)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "epoch,mean_train_loss,mean_test_loss,lr"
    assert lines[1] == "1,410.5,402.25,5e-05"
    assert lines[2].startswith("2,399.125,nan,")
