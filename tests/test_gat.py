"""Attention mechanics, readout, locality, and checkpoint round-trips."""

import base64
import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from nesua import autodiff as ad
from nesua import config, gat
from nesua.codec import decode_array, encode_array
from nesua.errors import ConfigError, ShapeError
from nesua.power import PowerParams
from nesua.scenario import GraphInstance
from nesua.training import TrainConfig, loss

import helpers as tape
from helpers import (
    assert_packed,
    attention_scores,
    attention_weights,
    check_grad,
    reference_gat_layer,
    shapes_of,
    tape_forward,
    tape_loss,
)


def _random_adjacency(k, rng, p=0.5):
    a = rng.uniform(size=(k, k)) < p
    a |= a.T
    np.fill_diagonal(a, True)
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
    h = tape.constant(np.array([[1.0, 2.0], [-0.5, 0.5]]))
    w = np.array([[0.3, -0.2], [0.1, 0.4], [-0.6, 0.2]])
    a = np.array([0.2, -0.1, 0.5, 0.3, 0.7, -0.4])
    w_t, a_t = tape.parameter(w), tape.parameter(a)
    scores = attention_scores(tape.linear(h, w_t), a_t, 0.2).values
    hw = h.values @ w.T
    for u in range(2):
        for v in range(2):
            z = float(a @ np.concatenate([hw[u], hw[v]]))
            expected = z if z >= 0 else 0.2 * z
            assert scores[u, v] == pytest.approx(expected, rel=1e-12)


def test_zero_attention_vector_gives_uniform_weights():
    rng = np.random.default_rng(60)
    h = tape.constant(rng.normal(size=(5, 4)))
    w, a = tape.parameter(rng.normal(size=(3, 4))), tape.parameter(np.zeros(6))
    adj = _random_adjacency(5, rng)
    att = attention_weights(tape.linear(h, w), adj, a, 0.2).values
    for u in range(5):
        deg = adj[u].sum()
        np.testing.assert_allclose(att[u][adj[u] == 1], 1.0 / deg, rtol=1e-12)
        assert np.all(att[u][adj[u] == 0] == 0.0)


def test_single_node_attends_only_to_itself():
    rng = np.random.default_rng(61)
    h = tape.constant(rng.normal(size=(1, 4)))
    w, a = tape.parameter(rng.normal(size=(3, 4))), tape.parameter(rng.normal(size=6))
    att = attention_weights(tape.linear(h, w), np.ones((1, 1)), a, 0.2).values
    assert att[0, 0] == pytest.approx(1.0, abs=1e-15)


def test_uniform_attention_layer_averages_features():
    # zero scorer, two mutually connected nodes: output is the projected mean
    x = np.array([[1.0, -2.0, 0.5], [3.0, 0.0, -1.0]])
    w = np.array([[0.2, 0.1, -0.3], [0.5, -0.4, 0.6]])
    out = gat.gat_layer(x, np.ones((2, 2)), w, np.zeros(4), 0.2, "relu")
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
        fast = gat.gat_layer(h, adj, w, a, 0.2, "relu")
        slow = _naive_layer(h, adj, w, a, 0.2, "relu")
        np.testing.assert_allclose(fast, slow, atol=1e-10, err_msg=f"trial {trial}")


def test_attention_rows_sum_to_one_and_mask_is_exact():
    rng = np.random.default_rng(63)
    for _ in range(20):
        k = int(rng.integers(2, 9))
        h = tape.constant(rng.normal(size=(k, 5)))
        w, a = tape.parameter(rng.normal(size=(4, 5))), tape.parameter(rng.normal(size=8))
        adj = _random_adjacency(k, rng, p=0.3)
        att = attention_weights(tape.linear(h, w), adj, a, 0.2).values
        np.testing.assert_allclose(att.sum(axis=1), np.ones(k), atol=1e-12)
        assert np.all(att[adj == 0] == 0.0)


def test_readout_uniform_for_zero_parameters():
    rng = np.random.default_rng(64)
    model = _model(6, 4, hidden=5)
    model.params["readout.Q"][:] = 0.0
    model.params["readout.B"][:] = 0.0
    h = rng.normal(size=(3, 5))
    s = gat.readout(h, model)
    np.testing.assert_allclose(s, np.full((3, 4), 0.25), atol=1e-12)


def test_readout_concentrates_on_dominant_logit():
    model = _model(6, 3, hidden=1, readout_activation="identity")
    model.params["readout.Q"][:] = np.array([[10.0, 0.0, 0.0]])
    model.params["readout.B"][:] = 0.0
    s = gat.readout(np.array([[1.0]]), model)
    assert s[0, 0] > 0.9999
    assert s[0].sum() == pytest.approx(1.0, abs=1e-12)


def test_forward_composes_public_ops():
    rng = np.random.default_rng(65)
    g = _instance(4, 2, rng)
    model = _model(6, 2, hidden=5, seed=3)
    s = gat.forward(g, model)

    p = model.params
    h1 = gat.gat_layer(g.features, g.adjacency, p["gat1.W"], p["gat1.a"], 0.2, "relu")
    h2 = gat.gat_layer(h1, g.adjacency, p["gat2.W"], p["gat2.a"], 0.2, "relu")
    manual = gat.readout(h2, model)
    np.testing.assert_allclose(s, manual, atol=1e-12)


def test_forward_transforms_each_layer_once(monkeypatch):
    rng = np.random.default_rng(74)
    g = _instance(6, 3, rng)
    model = _model(9, 3, hidden=5, seed=4)
    calls = []
    transformed = ad.linear

    def counting(h, w, saved=None):
        calls.append(w)
        return transformed(h, w, saved)

    monkeypatch.setattr(ad, "linear", counting)
    gat.forward(g, model)
    assert len(calls) == 2
    assert calls[0] is model.params["gat1.W"] and calls[1] is model.params["gat2.W"]


def test_shared_transform_matches_two_transform_layer():
    # forward bits are those of a layer that transforms twice; gradients
    # reach W as one summed product instead of two, so only rounding moves
    rng = np.random.default_rng(75)
    for trial in range(5):
        g = _instance(7, 3, rng)
        model = _model(9, 3, hidden=16, seed=trial)
        shared = [tape.parameter(v) for v in model.params.values()]
        twice = [tape.parameter(v.copy()) for v in model.params.values()]
        s = tape_forward(g, shared, model.config)
        assert s.values.tobytes() == gat.forward(g, model).tobytes()
        h = tape.constant(g.features)
        for w, a in (twice[0:2], twice[2:4]):
            h = reference_gat_layer(h, g.adjacency, w, a, 0.2, "relu")
        s_ref = tape.softmax_readout(h, twice[4], twice[5], True)
        assert s.values.tobytes() == s_ref.values.tobytes()
        probe = tape.constant(rng.normal(size=s.shape))
        tape.backward(tape.sum_all(tape.multiply(s, probe)))
        tape.backward(tape.sum_all(tape.multiply(s_ref, probe)))
        for p, q in zip(shared, twice):
            scale = np.abs(q.grad).max()
            np.testing.assert_allclose(p.grad, q.grad, rtol=1e-9, atol=1e-12 * scale)


def test_forward_rows_on_simplex_for_random_parameters():
    rng = np.random.default_rng(66)
    for trial in range(200):
        k = int(rng.integers(1, 9))
        n = int(rng.integers(1, 5))
        g = _instance(k, n, rng)
        model = _model(3 * n, n, hidden=4, seed=trial)
        s = gat.forward(g, model)
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
        s = gat.forward(g, model)
        perm = rng.permutation(k)
        g_perm = GraphInstance(
            features=g.features[perm],
            adjacency=g.adjacency[np.ix_(perm, perm)],
            prb_matrix=g.prb_matrix[perm],
            n_prb_total=g.n_prb_total,
        )
        s_perm = gat.forward(g_perm, model)
        np.testing.assert_allclose(s_perm, s[perm], atol=1e-9)


def test_locality_one_layer_exact():
    rng = np.random.default_rng(69)
    k = 5
    path = np.eye(k, dtype=bool)
    for i in range(k - 1):
        path[i, i + 1] = path[i + 1, i] = True
    h = rng.normal(size=(k, 4))
    w, a = rng.normal(size=(3, 4)), rng.normal(size=6)
    base = gat.gat_layer(h, path, w, a, 0.2, "relu")
    tweaked = h.copy()
    tweaked[2] += 10.0  # node 2 is outside the neighborhood of node 0
    out = gat.gat_layer(tweaked, path, w, a, 0.2, "relu")
    assert np.array_equal(out[0], base[0])
    assert not np.array_equal(out[1], base[1])  # node 1 does see node 2


def test_locality_two_layers_exact_beyond_two_hops():
    rng = np.random.default_rng(70)
    k, n = 5, 2
    path = np.eye(k, dtype=bool)
    for i in range(k - 1):
        path[i, i + 1] = path[i + 1, i] = True
    g = _instance(k, n, rng, adjacency=path)
    model = _model(3 * n, n, hidden=4, seed=1)
    base = gat.forward(g, model)
    tweaked = g.features.copy()
    tweaked[4] += 5.0  # four hops from node 0
    g2 = GraphInstance(
        features=tweaked, adjacency=path, prb_matrix=g.prb_matrix,
        n_prb_total=g.n_prb_total,
    )
    out = gat.forward(g2, model)
    assert np.array_equal(out[0], base[0])
    assert np.array_equal(out[1], base[1])  # still three hops away
    assert not np.array_equal(out[3], base[3])


def test_harden_rules():
    assert gat.harden(np.array([[0.2, 0.5, 0.3]])).tolist() == [1]
    assert gat.harden(np.array([[0.5, 0.5]])).tolist() == [0]


def test_harden_invariant_under_monotone_row_transforms():
    rng = np.random.default_rng(71)
    for _ in range(50):
        s = rng.uniform(size=(6, 4))
        s /= s.sum(axis=1, keepdims=True)
        base = gat.harden(s)
        # strictly increasing map: scaled exp keeps the order of entries
        warped = np.exp(s * rng.uniform(0.5, 3.0)) * rng.uniform(0.1, 2.0)
        np.testing.assert_array_equal(gat.harden(warped), base)


def test_end_to_end_gradients_match_finite_differences():
    rng = np.random.default_rng(72)
    k, n, hidden = 4, 2, 3
    g = _instance(k, n, rng)
    template = _model(3 * n, n, hidden=hidden, seed=5)
    weights = rng.normal(size=(k, n))  # random linear probe of S
    arrays = [v.copy() for v in template.params.values()]

    def build(params):
        s = tape_forward(g, params, template.config)
        return tape.sum_all(tape.multiply(s, tape.constant(weights)))

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
        np.testing.assert_array_equal(orig, new)
    assert leftover["note"] == 7
    assert leftover["norm"]["std"] == [1.0] * 9
    np.testing.assert_array_equal(gat.forward(g, model), gat.forward(g, loaded))


def _json_dump_bytes(model, extra, path):
    """The checkpoint `save_checkpoint` must write, laid out by json.dump."""
    doc = {
        "params": [
            {"name": name, **encode_array(view)}
            for name, view in model.params.items()
        ],
        "gat": {**dataclasses.asdict(model.config), "feat_dim": model.feat_dim,
                "n_cells": model.n_cells},
        **extra,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")
    return path.read_bytes()


def _trained_adam(model, seed):
    state = ad.AdamState.for_params(model.flat)
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
        p.reshape(-1)[: len(specials)] = specials[: p.size]
    gat.save_checkpoint(tmp_path / "best.json", best, {**common, "epoch": 1})
    assert (tmp_path / "best.json").read_bytes() == _json_dump_bytes(
        best, {**common, "epoch": 1}, tmp_path / "best_ref.json"
    )
    params = json.loads((tmp_path / "best.json").read_text())["params"]
    stored = np.concatenate([decode_array(e).ravel() for e in params])
    assert stored.tobytes() == best.flat.tobytes()
    with pytest.raises(ConfigError, match="params holds a non-finite value"):
        gat.load_checkpoint(tmp_path / "best.json")  # NaN and infinities are refused


def test_adam_to_dict_stays_json_text_and_round_trips():
    model = _model(9, 3, hidden=5, seed=8)
    state = _trained_adam(model, 2)
    text = json.dumps(state.to_dict(shapes_of(model)))
    shapes = shapes_of(model)
    for back in (ad.AdamState.from_dict(state.to_dict(shapes), shapes),
                 ad.AdamState.from_dict(json.loads(text), shapes)):
        assert back.step == state.step
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
        (lambda doc: doc["gat"].update(hidden_dim=3.0), "gat.hidden_dim must be an integer"),
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
        np.testing.assert_array_equal(ta, tb)
    assert any(
        not np.array_equal(ta, tc)
        for ta, tc in zip(a.params.values(), c.params.values())
    )


# ---------------------------------------------------------------------------
# the packed parameter buffer


def test_init_model_packs_every_parameter():
    model = _model(9, 3, hidden=5, seed=2)
    assert_packed(model)
    assert model.flat.size == 5 * 9 + 10 + 5 * 5 + 10 + 5 * 3 + 3
    assert [p.shape for p in model.params.values()] == [
        (5, 9), (10,), (5, 5), (10,), (5, 3), (3,)
    ]


def test_load_checkpoint_packs_every_parameter(tmp_path):
    model = _model(9, 3, hidden=4, seed=9)
    path = tmp_path / "model.json"
    gat.save_checkpoint(path, model)
    loaded, _ = gat.load_checkpoint(path)
    assert_packed(loaded)
    assert loaded.flat.tobytes() == model.flat.tobytes()


def test_load_checkpoint_decodes_into_the_packed_buffer(tmp_path, monkeypatch):
    # paper size: the parameters are one 2.2 MB buffer, gat2.W 2 MB of it
    model = gat.init_model(21, 7, gat.GatConfig(), 0)
    path = tmp_path / "model.json"
    gat.save_checkpoint(path, model)
    doc = json.loads(path.read_text())
    # the parse is the same on both paths; leave it out of the peaks
    monkeypatch.setattr(config, "read_json", lambda path, what: doc)

    def decode_then_pack():
        # the load path before: each parameter decoded whole into its own
        # array, then packed into a copy
        arrays = {}
        for e in doc["params"]:
            raw = base64.b64decode(e["b64"], validate=True)
            arrays[e["name"]] = np.frombuffer(raw, e["dtype"]).reshape(e["shape"]).astype("=f8")
        return gat.GatModel(model.config, 21, 7, ad.pack([arrays[n] for n in model.params]))

    def peak(load):
        tracemalloc.start()
        try:
            loaded = load()
            return tracemalloc.get_traced_memory()[1], loaded
        finally:
            tracemalloc.stop()

    before, _ = peak(decode_then_pack)
    after, loaded = peak(lambda: gat.load_checkpoint(path)[0])
    buffer = model.flat.nbytes
    assert loaded.flat.tobytes() == model.flat.tobytes()
    assert_packed(loaded)
    assert after <= before - buffer
    assert after <= buffer + (1 << 20)


def test_backward_writes_gradients_into_the_gradient_buffer():
    # each parameter's gradient lands in its view of the buffer, and a
    # second step overwrites, not adds to, the first one's
    rng = np.random.default_rng(77)
    model = _model(9, 3, hidden=5, seed=6)
    buffer = np.empty_like(model.flat)
    for tc in (TrainConfig(), TrainConfig(lambda1=0.0, lambda2=2.0)):
        g = _instance(6, 3, rng)
        saved = []
        s = gat.forward(g, model, saved)
        loss(s, rng.uniform(1.0, 20.0, size=(6, 3)), PowerParams(), tc, 51, saved)
        ad.backward(saved, buffer)
        assert_packed(model)
        total, params = tape_loss(saved)
        tape.backward(total)
        assert buffer.tobytes() == ad.pack([p.grad for p in params]).tobytes()


def test_adam_update_of_the_buffer_is_visible_through_forward():
    rng = np.random.default_rng(78)
    g = _instance(5, 3, rng)
    model = _model(9, 3, hidden=4, seed=7)
    before = gat.forward(g, model)
    state = ad.AdamState(m=np.zeros(model.flat.size), v=np.zeros(model.flat.size))
    ad.adam_step(model.flat, rng.normal(size=model.flat.size), state, TrainConfig(lr=1e-2))
    after = gat.forward(g, model)
    assert not np.array_equal(after, before)
    rebuilt = gat.GatModel(
        model.config, model.feat_dim, model.n_cells, ad.pack(list(model.params.values())),
    )
    assert gat.forward(g, rebuilt).tobytes() == after.tobytes()
