"""Attention mechanics, readout, locality, and checkpoint round-trips."""

import base64
import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from nesua import autodiff as ad
from nesua import gat
from nesua.codec import encode_array
from nesua.errors import ConfigError, ShapeError
from nesua.scenario import GraphInstance

from helpers import (
    assert_packed,
    attention_scores,
    attention_weights,
    check_grad,
    model_over,
    reference_gat_layer,
    shapes_of,
)


def _random_adjacency(k, rng, p=0.5):
    a = (rng.uniform(size=(k, k)) < p).astype(float)
    a = np.maximum(a, a.T)
    np.fill_diagonal(a, 1.0)
    return a


def _instance(k, n, rng, adjacency=None):
    return GraphInstance(
        features=rng.normal(size=(k, 3 * n)),
        adjacency=_random_adjacency(k, rng) if adjacency is None else adjacency,
        prb_matrix=np.ones((k, n)),
        n_prb_total=51,
    )


def _model(feat_dim, n, hidden=6, seed=0, **cfg_kw):
    cfg = gat.GatConfig(hidden_dim=hidden, **cfg_kw)
    return gat.init_model(feat_dim, n, cfg, seed)


def test_config_validation():
    with pytest.raises(ConfigError):
        gat.GatConfig(hidden_dim=0)
    with pytest.raises(ConfigError):
        gat.GatConfig(negative_slope=-0.1)
    with pytest.raises(ConfigError):
        gat.GatConfig(activation="tanh")


def test_attention_scores_match_scalar_computation():
    # two nodes, explicit parameters, the pair scores recomputed one by one
    h = ad.constant(np.array([[1.0, 2.0], [-0.5, 0.5]]))
    w = np.array([[0.3, -0.2], [0.1, 0.4], [-0.6, 0.2]])
    a = np.array([0.2, -0.1, 0.5, 0.3, 0.7, -0.4])
    w_t, a_t = ad.parameter(w), ad.parameter(a)
    scores = attention_scores(gat._transformed(h, w_t), a_t, 0.2).values
    hw = h.values @ w.T
    for u in range(2):
        for v in range(2):
            z = float(a @ np.concatenate([hw[u], hw[v]]))
            expected = z if z >= 0 else 0.2 * z
            assert scores[u, v] == pytest.approx(expected, rel=1e-12)


def test_zero_attention_vector_gives_uniform_weights():
    rng = np.random.default_rng(60)
    h = ad.constant(rng.normal(size=(5, 4)))
    w, a = ad.parameter(rng.normal(size=(3, 4))), ad.parameter(np.zeros(6))
    adj = _random_adjacency(5, rng)
    att = attention_weights(gat._transformed(h, w), adj, a, 0.2).values
    for u in range(5):
        deg = adj[u].sum()
        np.testing.assert_allclose(att[u][adj[u] == 1], 1.0 / deg, rtol=1e-12)
        assert np.all(att[u][adj[u] == 0] == 0.0)


def test_single_node_attends_only_to_itself():
    rng = np.random.default_rng(61)
    h = ad.constant(rng.normal(size=(1, 4)))
    w, a = ad.parameter(rng.normal(size=(3, 4))), ad.parameter(rng.normal(size=6))
    att = attention_weights(
        gat._transformed(h, w), np.ones((1, 1)), a, 0.2
    ).values
    assert att[0, 0] == pytest.approx(1.0, abs=1e-15)


def test_uniform_attention_layer_averages_features():
    # zero scorer, two mutually connected nodes: output is the projected mean
    x = np.array([[1.0, -2.0, 0.5], [3.0, 0.0, -1.0]])
    w = np.array([[0.2, 0.1, -0.3], [0.5, -0.4, 0.6]])
    out = gat.gat_layer(
        ad.constant(x), np.ones((2, 2)), ad.parameter(w), ad.parameter(np.zeros(4)),
        0.2, "relu",
    ).values
    expected = np.maximum((x @ w.T).mean(axis=0), 0.0)
    np.testing.assert_allclose(out[0], expected, rtol=1e-12)
    np.testing.assert_allclose(out[1], expected, rtol=1e-12)


def _naive_layer(h, adj, w, a, slope, activation):
    hw = h @ w.T
    k, d = hw.shape
    out = np.zeros((k, d))
    for u in range(k):
        nbrs = [v for v in range(k) if adj[u, v] == 1.0]
        raw = []
        for v in nbrs:
            z = float(a @ np.concatenate([hw[u], hw[v]]))
            raw.append(z if z >= 0 else slope * z)
        raw = np.array(raw)
        e = np.exp(raw - raw.max())
        alpha = e / e.sum()
        agg = np.zeros(d)
        for weight, v in zip(alpha, nbrs):
            agg += weight * hw[v]
        out[u] = np.maximum(agg, 0.0) if activation == "relu" else agg
    return out


def test_layer_matches_per_node_loop():
    rng = np.random.default_rng(62)
    for trial in range(10):
        k, d_in, d_out = 5, 6, 4
        h = rng.normal(size=(k, d_in))
        w = rng.normal(size=(d_out, d_in))
        a = rng.normal(size=2 * d_out)
        adj = _random_adjacency(k, rng)
        fast = gat.gat_layer(
            ad.constant(h), adj, ad.parameter(w), ad.parameter(a), 0.2, "relu"
        ).values
        slow = _naive_layer(h, adj, w, a, 0.2, "relu")
        np.testing.assert_allclose(fast, slow, atol=1e-10, err_msg=f"trial {trial}")


def test_attention_rows_sum_to_one_and_mask_is_exact():
    rng = np.random.default_rng(63)
    for _ in range(20):
        k = int(rng.integers(2, 9))
        h = ad.constant(rng.normal(size=(k, 5)))
        w, a = ad.parameter(rng.normal(size=(4, 5))), ad.parameter(rng.normal(size=8))
        adj = _random_adjacency(k, rng, p=0.3)
        att = attention_weights(gat._transformed(h, w), adj, a, 0.2).values
        np.testing.assert_allclose(att.sum(axis=1), np.ones(k), atol=1e-12)
        assert np.all(att[adj == 0] == 0.0)


def test_readout_uniform_for_zero_parameters():
    rng = np.random.default_rng(64)
    model = _model(6, 4, hidden=5)
    model.params["readout.Q"].values[:] = 0.0
    model.params["readout.B"].values[:] = 0.0
    h = ad.constant(rng.normal(size=(3, 5)))
    s = gat.readout(h, model).values
    np.testing.assert_allclose(s, np.full((3, 4), 0.25), atol=1e-12)


def test_readout_concentrates_on_dominant_logit():
    model = _model(6, 3, hidden=1, readout_activation="identity")
    model.params["readout.Q"].values[:] = np.array([[10.0, 0.0, 0.0]])
    model.params["readout.B"].values[:] = 0.0
    s = gat.readout(ad.constant(np.array([[1.0]])), model).values
    assert s[0, 0] > 0.9999
    assert s[0].sum() == pytest.approx(1.0, abs=1e-12)


def test_forward_composes_public_ops():
    rng = np.random.default_rng(65)
    g = _instance(4, 2, rng)
    model = _model(6, 2, hidden=5, seed=3)
    s = gat.forward(g, model).values

    p = model.params
    h0 = ad.constant(g.features)
    h1 = gat.gat_layer(h0, g.adjacency, p["gat1.W"], p["gat1.a"], 0.2, "relu")
    h2 = gat.gat_layer(h1, g.adjacency, p["gat2.W"], p["gat2.a"], 0.2, "relu")
    manual = gat.readout(h2, model).values
    np.testing.assert_allclose(s, manual, atol=1e-12)


def test_forward_transforms_each_layer_once(monkeypatch):
    rng = np.random.default_rng(74)
    g = _instance(6, 3, rng)
    model = _model(9, 3, hidden=5, seed=4)
    calls = []
    transformed = gat._transformed

    def counting(h, w):
        calls.append(w)
        return transformed(h, w)

    monkeypatch.setattr(gat, "_transformed", counting)
    gat.forward(g, model)
    assert calls == [model.params["gat1.W"], model.params["gat2.W"]]


def test_shared_transform_matches_two_transform_layer():
    # forward bits are those of a layer that transforms twice; gradients
    # reach W as one summed product instead of two, so only rounding moves
    rng = np.random.default_rng(75)
    for trial in range(5):
        g = _instance(7, 3, rng)
        shared = _model(9, 3, hidden=16, seed=trial)
        twice = _model(9, 3, hidden=16, seed=trial)
        s = gat.forward(g, shared)
        h = ad.constant(g.features)
        for layer in ("gat1", "gat2"):
            h = reference_gat_layer(
                h, g.adjacency, twice.params[f"{layer}.W"], twice.params[f"{layer}.a"],
                0.2, "relu",
            )
        s_ref = gat.readout(h, twice)
        assert s.values.tobytes() == s_ref.values.tobytes()
        probe = ad.constant(rng.normal(size=s.shape))
        ad.backward(ad.sum_all(ad.multiply(s, probe)))
        ad.backward(ad.sum_all(ad.multiply(s_ref, probe)))
        for p, q in zip(shared.params.values(), twice.params.values()):
            scale = np.abs(q.grad).max()
            np.testing.assert_allclose(p.grad, q.grad, rtol=1e-9, atol=1e-12 * scale)


def test_forward_rows_on_simplex_for_random_parameters():
    rng = np.random.default_rng(66)
    for trial in range(200):
        k = int(rng.integers(1, 9))
        n = int(rng.integers(1, 5))
        g = _instance(k, n, rng)
        model = _model(3 * n, n, hidden=4, seed=trial)
        s = gat.forward(g, model).values
        assert np.all(s >= 0.0) and np.all(s <= 1.0)
        np.testing.assert_allclose(s.sum(axis=1), np.ones(k), atol=1e-9)


def test_forward_checks_feature_width():
    rng = np.random.default_rng(67)
    g = _instance(3, 2, rng)
    model = _model(9, 2)
    with pytest.raises(ShapeError):
        gat.forward(g, model)


def test_permutation_equivariance():
    rng = np.random.default_rng(68)
    for trial in range(10):
        k, n = 6, 3
        g = _instance(k, n, rng)
        model = _model(3 * n, n, hidden=5, seed=trial)
        s = gat.forward(g, model).values
        perm = rng.permutation(k)
        g_perm = GraphInstance(
            features=g.features[perm],
            adjacency=g.adjacency[np.ix_(perm, perm)],
            prb_matrix=g.prb_matrix[perm],
            n_prb_total=g.n_prb_total,
        )
        s_perm = gat.forward(g_perm, model).values
        np.testing.assert_allclose(s_perm, s[perm], atol=1e-9)


def test_locality_one_layer_exact():
    rng = np.random.default_rng(69)
    k = 5
    path = np.eye(k)
    for i in range(k - 1):
        path[i, i + 1] = path[i + 1, i] = 1.0
    h = rng.normal(size=(k, 4))
    w, a = ad.parameter(rng.normal(size=(3, 4))), ad.parameter(rng.normal(size=6))
    base = gat.gat_layer(ad.constant(h), path, w, a, 0.2, "relu").values
    tweaked = h.copy()
    tweaked[2] += 10.0  # node 2 is outside the neighborhood of node 0
    out = gat.gat_layer(ad.constant(tweaked), path, w, a, 0.2, "relu").values
    assert np.array_equal(out[0], base[0])
    assert not np.array_equal(out[1], base[1])  # node 1 does see node 2


def test_locality_two_layers_exact_beyond_two_hops():
    rng = np.random.default_rng(70)
    k, n = 5, 2
    path = np.eye(k)
    for i in range(k - 1):
        path[i, i + 1] = path[i + 1, i] = 1.0
    g = _instance(k, n, rng, adjacency=path)
    model = _model(3 * n, n, hidden=4, seed=1)
    base = gat.forward(g, model).values
    tweaked = g.features.copy()
    tweaked[4] += 5.0  # four hops from node 0
    g2 = GraphInstance(
        features=tweaked, adjacency=path, prb_matrix=g.prb_matrix,
        n_prb_total=g.n_prb_total,
    )
    out = gat.forward(g2, model).values
    assert np.array_equal(out[0], base[0])
    assert np.array_equal(out[1], base[1])  # still three hops away
    assert not np.array_equal(out[3], base[3])


def test_harden_rules():
    assert gat.harden(np.array([[0.2, 0.5, 0.3]])).assignment.tolist() == [1]
    assert gat.harden(np.array([[0.5, 0.5]])).assignment.tolist() == [0]


def test_harden_invariant_under_monotone_row_transforms():
    rng = np.random.default_rng(71)
    for _ in range(50):
        s = rng.uniform(size=(6, 4))
        s /= s.sum(axis=1, keepdims=True)
        base = gat.harden(s).assignment
        # strictly increasing map: scaled exp keeps the order of entries
        warped = np.exp(s * rng.uniform(0.5, 3.0)) * rng.uniform(0.1, 2.0)
        np.testing.assert_array_equal(gat.harden(warped).assignment, base)


def test_end_to_end_gradients_match_finite_differences():
    rng = np.random.default_rng(72)
    k, n, hidden = 4, 2, 3
    g = _instance(k, n, rng)
    template = _model(3 * n, n, hidden=hidden, seed=5)
    weights = rng.normal(size=(k, n))  # random linear probe of S
    arrays = [t.values.copy() for t in template.params.values()]

    def build(params):
        model = model_over(params, template.config, template.feat_dim, template.n_cells)
        return ad.sum_all(ad.multiply(gat.forward(g, model), ad.constant(weights)))

    check_grad(build, arrays, rtol=2e-4)


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(73)
    g = _instance(5, 3, rng)
    model = _model(9, 3, hidden=4, seed=9)
    extra = {"norm": {"mean": [0.0] * 9, "std": [1.0] * 9}, "note": 7}
    path = tmp_path / "model.json"
    gat.save_checkpoint(path, model, extra)
    loaded, leftover = gat.load_checkpoint(path)
    for orig, new in zip(model.params.values(), loaded.params.values()):
        np.testing.assert_array_equal(orig.values, new.values)
    assert leftover["note"] == 7
    assert leftover["norm"]["std"] == [1.0] * 9
    np.testing.assert_array_equal(
        gat.forward(g, model).values, gat.forward(g, loaded).values
    )


def _json_dump_bytes(model, extra, path):
    """The checkpoint `save_checkpoint` must write, laid out by json.dump."""
    doc = {
        "params": [
            {"name": name, **encode_array(t.values)}
            for name, t in model.params.items()
        ],
        "gat": {**model.config.to_dict(), "feat_dim": model.feat_dim,
                "n_cells": model.n_cells},
        **extra,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")
    return path.read_bytes()


def _trained_adam(model, seed):
    state = ad.AdamState.for_params(model.flat, lr=1e-3)
    rng = np.random.default_rng(seed)
    for buf in (state.m, state.v):
        buf[...] = rng.normal(size=buf.shape) ** 2
    state.step = 11
    return state


def test_saved_checkpoints_are_the_bytes_of_json_dump(tmp_path):
    # resumable: Adam state, history and norm_stats beside the parameters
    model = _model(9, 3, hidden=6, seed=5)
    state = _trained_adam(model, 1)
    common = {"config_digest": "ab12", "norm_stats": {"mean": [0.5, -0.0], "std": [1.0, 2.0]}}
    history = [[0, 1.25, float("nan")], [1, 0.75, float("inf")]]
    gat.save_checkpoint(tmp_path / "last.json", model, {
        **common, "epoch": 2, "adam": state.to_dict(shapes_of(model), deferred=True),
        "history": history,
    })
    assert (tmp_path / "last.json").read_bytes() == _json_dump_bytes(
        model, {**common, "epoch": 2, "adam": state.to_dict(shapes_of(model)), "history": history},
        tmp_path / "last_ref.json",
    )
    # best: parameters that hold every special value; gat2.W (96 x 96)
    # spans more than one of the writer's chunks
    best = _model(9, 3, hidden=96, seed=6)
    specials = [-0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2e-308]
    for p in best.params.values():
        p.values.reshape(-1)[: len(specials)] = specials[: p.values.size]
    gat.save_checkpoint(tmp_path / "best.json", best, {**common, "epoch": 1})
    assert (tmp_path / "best.json").read_bytes() == _json_dump_bytes(
        best, {**common, "epoch": 1}, tmp_path / "best_ref.json"
    )
    loaded, _ = gat.load_checkpoint(tmp_path / "best.json")
    assert loaded.flat.values.tobytes() == best.flat.values.tobytes()


def test_adam_to_dict_stays_json_text_and_round_trips():
    model = _model(9, 3, hidden=5, seed=8)
    state = _trained_adam(model, 2)
    text = json.dumps(state.to_dict(shapes_of(model)))
    for back in (ad.AdamState.from_dict(state.to_dict(shapes_of(model))),
                 ad.AdamState.from_dict(json.loads(text))):
        assert back.step == state.step and back.lr == state.lr
        for got, want in zip((back.m, back.v), (state.m, state.v)):
            assert got.tobytes() == want.tobytes()


def test_saving_a_paper_size_checkpoint_holds_no_copy_of_its_text(tmp_path):
    # hidden 512 with Adam state: an 8.9 MB checkpoint_last.json, which
    # json.dump of the encoded document wrote at a +8.2 MB peak
    model = gat.init_model(21, 7, gat.GatConfig(), 0)
    state = _trained_adam(model, 3)
    path = tmp_path / "checkpoint_last.json"
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        gat.save_checkpoint(
            path, model, {"epoch": 1, "adam": state.to_dict(shapes_of(model), deferred=True)}
        )
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 8_000_000
    assert peak < size / 2


def test_checkpoint_missing_param_rejected(tmp_path):
    import json

    model = _model(6, 2, hidden=3)
    path = tmp_path / "model.json"
    gat.save_checkpoint(path, model)
    doc = json.loads(path.read_text())
    doc["params"] = doc["params"][:-1]
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError):
        gat.load_checkpoint(path)


@pytest.mark.parametrize(
    "doctor, named",
    [
        (lambda doc: doc["params"].append({**doc["params"][2], "name": "gat3.W"}), "gat3.W"),
        (lambda doc: doc["gat"].update(hidden_dim=2), "gat1.W is shaped [3, 6]"),
        (lambda doc: doc["params"].insert(0, dict(doc["params"][0])), "gat1.W 2 times"),
        (lambda doc: doc["gat"].update(hidden_dim=3.0), "unreadable"),
    ],
    ids=["unknown-name", "other-shape", "duplicate-name", "non-integer-size"],
)
def test_checkpoint_params_are_checked_against_the_table(tmp_path, doctor, named):
    path = tmp_path / "model.json"
    gat.save_checkpoint(path, _model(6, 2, hidden=3))
    doc = json.loads(path.read_text())
    doctor(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError) as refused:
        gat.load_checkpoint(path)
    assert str(path) in str(refused.value) and named in str(refused.value)


def test_init_is_seed_deterministic():
    a = _model(6, 2, hidden=4, seed=42)
    b = _model(6, 2, hidden=4, seed=42)
    c = _model(6, 2, hidden=4, seed=43)
    for ta, tb in zip(a.params.values(), b.params.values()):
        np.testing.assert_array_equal(ta.values, tb.values)
    assert any(
        not np.array_equal(ta.values, tc.values)
        for ta, tc in zip(a.params.values(), c.params.values())
    )


# ---------------------------------------------------------------------------
# the packed parameter buffer


def test_init_model_packs_every_parameter():
    model = _model(9, 3, hidden=5, seed=2)
    assert_packed(model)
    assert model.flat.values.size == 5 * 9 + 10 + 5 * 5 + 10 + 5 * 3 + 3
    assert [p.shape for p in model.params.values()] == [
        (5, 9), (10,), (5, 5), (10,), (5, 3), (3,)
    ]


def test_load_checkpoint_packs_every_parameter(tmp_path):
    model = _model(9, 3, hidden=4, seed=9)
    path = tmp_path / "model.json"
    gat.save_checkpoint(path, model)
    loaded, _ = gat.load_checkpoint(path)
    assert_packed(loaded)
    assert loaded.flat.values.tobytes() == model.flat.values.tobytes()


def test_load_checkpoint_decodes_into_the_packed_buffer(tmp_path, monkeypatch):
    # paper size: the parameters are one 2.2 MB buffer, gat2.W 2 MB of it
    model = gat.init_model(21, 7, gat.GatConfig(), 0)
    path = tmp_path / "model.json"
    gat.save_checkpoint(path, model)
    doc = json.loads(path.read_text())
    # the parse is the same on both paths; leave it out of the peaks
    monkeypatch.setattr(gat, "json", SimpleNamespace(load=lambda fh: doc))

    def decode_then_pack():
        # the load path before: each parameter decoded whole into its own
        # array, then packed into a copy
        arrays = {}
        for e in doc["params"]:
            raw = base64.b64decode(e["b64"], validate=True)
            arrays[e["name"]] = np.frombuffer(raw, e["dtype"]).reshape(e["shape"]).astype("=f8")
        return gat.GatModel(model.config, 21, 7,
                            ad.Tensor(ad.pack([arrays[n] for n in model.params])))

    def peak(load):
        tracemalloc.start()
        try:
            loaded = load()
            return tracemalloc.get_traced_memory()[1], loaded
        finally:
            tracemalloc.stop()

    before, _ = peak(decode_then_pack)
    after, loaded = peak(lambda: gat.load_checkpoint(path)[0])
    buffer = model.flat.values.nbytes
    assert loaded.flat.values.tobytes() == model.flat.values.tobytes()
    assert_packed(loaded)
    assert after <= before - buffer
    assert after <= buffer + (1 << 20)


def test_backward_writes_gradients_into_the_gradient_buffer():
    rng = np.random.default_rng(77)
    g = _instance(6, 3, rng)
    model = _model(9, 3, hidden=5, seed=6)
    twin = _model(9, 3, hidden=5, seed=6)  # same values, no slots
    buffer = ad.attach_grad_slots(list(model.params.values()))
    probe = ad.constant(rng.normal(size=(6, 3)))
    for m in (model, twin):
        ad.backward(ad.sum_all(ad.multiply(gat.forward(g, m), probe)))
    assert_packed(model, buffer)
    assert_packed(twin)
    grads = [p.grad for p in twin.params.values()]
    assert buffer.tobytes() == ad.pack(grads).tobytes()
    for m in (model, twin):  # a second pass overwrites the slots
        ad.zero_grad(m.params.values())
        ad.backward(ad.sum_all(ad.multiply(gat.forward(g, m), ad.scale(probe, 2.0))))
    assert buffer.tobytes() == ad.pack([p.grad for p in twin.params.values()]).tobytes()


def test_adam_update_of_the_buffer_is_visible_through_forward():
    rng = np.random.default_rng(78)
    g = _instance(5, 3, rng)
    model = _model(9, 3, hidden=4, seed=7)
    before = gat.forward(g, model).values
    state = ad.AdamState(lr=1e-2, m=np.zeros(model.flat.values.size),
                         v=np.zeros(model.flat.values.size))
    ad.adam_step(model.flat, rng.normal(size=model.flat.values.size), state)
    after = gat.forward(g, model).values
    assert not np.array_equal(after, before)
    rebuilt = gat.GatModel(
        model.config, model.feat_dim, model.n_cells,
        ad.Tensor(ad.pack([p.values for p in model.params.values()])),
    )
    assert gat.forward(g, rebuilt).values.tobytes() == after.tobytes()
