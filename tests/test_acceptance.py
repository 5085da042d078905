"""Acceptance gate: ten end-to-end checks, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every verdict.
The slow entries (5-7) train small models from scratch; the whole file
stays well inside the stated per-check runtime budgets on one CPU.
"""

import hashlib
import json
from dataclasses import replace

import numpy as np

from nesua import autodiff as ad
from nesua import cli, gat
from nesua.baselines import (
    associate_ga_subsinr,
    associate_oracle,
    associate_rsrp,
)
from nesua.power import PowerParams, network_power_hard, network_power_soft, radio_coefficients
from nesua.scenario import (
    GraphInstance,
    ScenarioConfig,
    build_graph,
    generate_scenario,
    normalize_features,
)
from nesua.training import TrainConfig, loss, split_and_normalize, train

import helpers as tape
from helpers import check_grad, dataset, finite_difference_grad

PARAMS = PowerParams()


def _report(num, name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _hard_power(assignment, scenario):
    return network_power_hard(
        assignment, scenario.prb_demand, PARAMS, scenario.n_prb_total
    ).total_w


# ---------------------------------------------------------------------------
# 1: every primitive and the end-to-end loss pass finite-difference checks


def _sample_away_from(rng, shape, kinks, margin=0.05, lo=-2.0, hi=2.0):
    # resample entries that land within `margin` of a non-smooth point
    x = rng.uniform(lo, hi, size=shape)
    for _ in range(100):
        bad = np.zeros(x.shape, dtype=bool)
        for kink in kinks:
            bad |= np.abs(x - kink) < margin
        if not bad.any():
            return x
        x[bad] = rng.uniform(lo, hi, size=int(bad.sum()))
    raise AssertionError("could not sample away from kinks")


def _weighted_sum(out, _rng=None):
    # deterministic non-uniform weights so FD re-evaluations see the same map
    if out.shape == ():
        return out
    w = np.cos(np.arange(float(out.values.size))).reshape(out.shape) + 0.5
    return tape.sum_all(tape.multiply(out, tape.constant(w)))


def _check_primitives(rng):
    a = rng.normal(0.0, 1.0, (3, 4))
    b = rng.normal(0.0, 1.0, (3, 4))
    row = rng.normal(0.0, 1.0, (4,))
    m_left = rng.normal(0.0, 1.0, (3, 4))
    m_right = rng.normal(0.0, 1.0, (4, 2))
    vec = _sample_away_from(rng, (5,), kinks=())
    while np.linalg.norm(vec) < 0.3:
        vec = rng.uniform(-2.0, 2.0, size=5)
    kinked = _sample_away_from(rng, (3, 4), kinks=(0.0,))
    clamp_in = _sample_away_from(rng, (3, 4), kinks=(-0.7, 0.9))
    gate_in = rng.uniform(0.05, 0.95, (3, 4))
    mask = rng.integers(0, 2, size=(3, 4)).astype(float)
    mask[mask.sum(axis=1) == 0, 0] = 1.0
    slope = float(rng.uniform(0.05, 0.95))
    # the fused nodes draw from a child stream, so every draw of the
    # primitives above and of the loss check after stays as it was
    fused = rng.spawn(1)[0]
    hw = fused.normal(0.0, 1.0, (3, 4))
    scorer = fused.normal(0.0, 1.0, (8,))
    adjacency = fused.uniform(size=(3, 3)) < 0.5
    np.fill_diagonal(adjacency, True)
    bias = fused.normal(0.0, 1.0, (2,))
    demand = fused.uniform(1.0, 20.0, (3, 4))
    total = np.asarray(fused.normal(0.0, 1.0))
    terms = fused.normal(0.0, 1.0, (2,))

    cases = [
        (lambda p: _weighted_sum(tape.add(p[0], p[1]), rng), [a, b]),
        (lambda p: _weighted_sum(tape.subtract(p[0], p[1]), rng), [a, b]),
        (lambda p: _weighted_sum(tape.multiply(p[0], p[1]), rng), [a, b]),
        (lambda p: _weighted_sum(tape.add(p[0], p[1]), rng), [a, row]),
        (lambda p: _weighted_sum(tape.scale(p[0], -1.7), rng), [a]),
        (lambda p: _weighted_sum(tape.matmul(p[0], p[1]), rng), [m_left, m_right]),
        (lambda p: _weighted_sum(tape.transpose(p[0]), rng), [a]),
        (lambda p: _weighted_sum(tape.reshape(p[0], (2, 6)), rng), [a]),
        (lambda p: _weighted_sum(tape.slice_rows(p[0], 1, 3), rng), [a]),
        (lambda p: _weighted_sum(tape.concat([p[0], p[1]], axis=-1), rng), [a, b]),
        (lambda p: _weighted_sum(tape.relu(p[0]), rng), [kinked]),
        (lambda p: _weighted_sum(tape.leaky_relu(p[0], slope), rng), [kinked]),
        (lambda p: _weighted_sum(tape.exp(p[0]), rng), [a]),
        (lambda p: _weighted_sum(tape.clamp(p[0], -0.7, 0.9), rng), [clamp_in]),
        (lambda p: _weighted_sum(tape.row_softmax_masked(p[0], mask), rng), [a]),
        (lambda p: tape.sum_all(p[0]), [a]),
        (lambda p: _weighted_sum(tape.row_sum(p[0]), rng), [a]),
        (lambda p: tape.trace_of_gram(p[0]), [a]),
        (lambda p: tape.l2_norm(p[0]), [vec]),
        (lambda p: _weighted_sum(tape.complement_product_gate(p[0]), rng), [gate_in]),
        (lambda p: _weighted_sum(tape.attention_round(p[0], p[1], adjacency, slope, True), rng),
         [hw, scorer]),
        (lambda p: _weighted_sum(tape.softmax_readout(p[0], p[1], p[2], True), rng),
         [a, m_right, bias]),
        (lambda p: tape.gated_load_cost(p[0], demand, 200.0, 150.0, 30.0, 7.0), [gate_in]),
        (lambda p: _weighted_sum(tape.association_penalties(p[0], demand, 0.7, 0.3), rng),
         [gate_in]),
        (lambda p: tape.add_terms(p[0], p[1]), [total, terms]),
    ]
    for build, arrays in cases:
        check_grad(build, arrays, rtol=1e-4, atol=1e-6)


def _check_loss_gradient(rng):
    k, n, hidden = 3, 2, 4
    g = GraphInstance(
        features=rng.normal(0.0, 1.0, (k, 3 * n)),
        adjacency=np.ones((k, k), dtype=bool),
        prb_matrix=rng.uniform(1.0, 20.0, (k, n)),
        n_prb_total=200,
    )
    cfg = gat.GatConfig(
        hidden_dim=hidden, activation="identity", readout_activation="identity"
    )
    shapes = gat.param_shapes(3 * n, n, cfg).values()
    arrays = [rng.normal(0.0, 0.5, s) for s in shapes]
    tc = TrainConfig(lambda1=0.7, lambda2=0.3)

    def value(flat):
        s = gat.forward(g, gat.GatModel(cfg, 3 * n, n, flat))
        return loss(s, g.prb_matrix, PARAMS, tc, g.n_prb_total)

    # the train step's own gradient: forward, loss and `ad.backward`
    model, saved = gat.GatModel(cfg, 3 * n, n, ad.pack(arrays)), []
    loss(gat.forward(g, model, saved), g.prb_matrix, PARAMS, tc, g.n_prb_total, saved)
    grad = np.empty_like(model.flat)
    ad.backward(saved, grad)
    fd = finite_difference_grad(value, model.flat.copy())
    np.testing.assert_allclose(grad, fd, rtol=1e-4, atol=1e-6)


def test_gradients_match_finite_differences():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        _check_primitives(rng)
        _check_loss_gradient(rng)
    _report(1, "gradient checks", True,
            "all primitives, fused nodes + end-to-end loss, 100 seeds, rtol 1e-4")


# ---------------------------------------------------------------------------
# 2: closed-form radio draw at the utilization extremes


def test_radio_power_closed_forms():
    c0, c1 = radio_coefficients(PARAMS)
    lo, hi = c0, c0 + c1  # the radio draw c0 + c1*eta at eta 0 and 1
    ok_lo = abs(lo - 320.0 / 3.0) <= 1e-9 * (320.0 / 3.0)
    ok_hi = abs(hi - 112.0) <= 1e-9 * 112.0
    _report(2, "radio closed forms", ok_lo and ok_hi,
            f"radio(0)={lo:.10f} radio(1)={hi:.10f}")


# ---------------------------------------------------------------------------
# 3: adjacency equals the direct three-loop definition


def test_adjacency_matches_triple_loop():
    rng = np.random.default_rng(3)
    checked = 0
    for i in range(1000):
        n_ues = int(rng.integers(2, 31))
        gamma = float(rng.uniform(-5.0, 20.0))
        cfg = ScenarioConfig(
            n_cells=7, inter_site_distance=500.0, region=(2200.0, 2200.0),
            n_ues=n_ues, gamma_th_db=gamma,
        )
        s = generate_scenario(cfg, 20_000 + i)
        got = build_graph(s, gamma).adjacency
        want = np.zeros((n_ues, n_ues))
        for u in range(n_ues):
            for v in range(n_ues):
                if u == v:
                    want[u, v] = 1.0
                    continue
                for c in range(7):
                    if (s.sinr_wideband_db[u, c] > gamma
                            and s.sinr_wideband_db[v, c] > gamma):
                        want[u, v] = 1.0
                        break
        assert np.array_equal(got, want), f"scenario {i} disagrees"
        checked += 1
    _report(3, "adjacency brute force", checked == 1000,
            f"{checked} scenarios, exact match")


# ---------------------------------------------------------------------------
# 4: exhaustive search is never beaten by any policy


def test_oracle_dominates_every_policy():
    rng = np.random.default_rng(7)
    checked = 0
    for i in range(200):
        n_cells = int(rng.integers(2, 4))
        n_ues = int(rng.integers(2, 7))
        cfg = ScenarioConfig(
            n_cells=n_cells, inter_site_distance=500.0, region=(2200.0, 2200.0),
            n_ues=n_ues, tx_power_dbm=46.0,
        )
        s = generate_scenario(cfg, 5000 + i)
        oracle_w = _hard_power(associate_oracle(s, PARAMS), s)
        model = gat.init_model(3 * n_cells, n_cells,
                               gat.GatConfig(hidden_dim=8), seed=i)
        g = build_graph(s, cfg.gamma_th_db)
        policies = (
            associate_rsrp(s),
            associate_ga_subsinr(s),
            gat.harden(gat.forward(g, model)),
        )
        for assoc in policies:
            assert oracle_w <= _hard_power(assoc, s), f"instance {i}"
        checked += 1
    _report(4, "oracle dominance", checked == 200,
            "200 instances, exact comparison")


# ---------------------------------------------------------------------------
# 5: a small trained model lands near the exhaustive optimum


def test_small_instance_learning_tracks_oracle():
    cfg = ScenarioConfig(
        n_cells=3, inter_site_distance=500.0, region=(2200.0, 2200.0),
        n_ues=6,
    )
    train_split, test_split, _ = split_and_normalize(*dataset(cfg, 250, 100), 0.8, 100)
    result = train(
        [smp.graph for smp in train_split],
        TrainConfig(dataset_size=250, epochs=80, lr=1e-3, lambda2=0.0),
        PARAMS,
        seed=0,
        gat_cfg=gat.GatConfig(hidden_dim=32, readout_activation="identity"),
        test=[smp.graph for smp in test_split],
    )
    gnn_w, oracle_w, rsrp_w = [], [], []
    for smp in test_split:
        assoc = gat.harden(gat.forward(smp.graph, result.best_model))
        gnn_w.append(_hard_power(assoc, smp.scenario))
        oracle_w.append(_hard_power(associate_oracle(smp.scenario, PARAMS), smp.scenario))
        rsrp_w.append(_hard_power(associate_rsrp(smp.scenario), smp.scenario))
    gnn, oracle, rsrp = map(float, map(np.mean, (gnn_w, oracle_w, rsrp_w)))
    ok = gnn <= 1.05 * oracle and gnn < rsrp
    _report(5, "small-instance learning", ok,
            f"gnn={gnn:.2f} W oracle={oracle:.2f} W (x1.05={1.05 * oracle:.2f}) "
            f"rsrp={rsrp:.2f} W")


# ---------------------------------------------------------------------------
# 6: learned policy beats strongest-signal association across a small grid


def test_learned_policy_beats_rsrp_across_grid():
    details = []
    ok = True
    for w_mhz in (20.0, 80.0):
        cfg = ScenarioConfig(
            n_cells=7, inter_site_distance=500.0, region=(2200.0, 2200.0),
            n_ues=20, bandwidth_mhz=w_mhz,
        )
        train_split, test_split, stats = split_and_normalize(
            *dataset(cfg, 200, 100), 0.8, 100
        )
        result = train(
            [smp.graph for smp in train_split],
            TrainConfig(dataset_size=200, epochs=40, lr=1e-3, lambda2=0.0),
            PARAMS,
            seed=0,
            gat_cfg=gat.GatConfig(hidden_dim=32, readout_activation="identity"),
            test=[smp.graph for smp in test_split],
        )
        for n_ues in (20, 50):
            eval_cfg = replace(cfg, n_ues=n_ues)
            gnn_w, rsrp_w = [], []
            for j in range(40):
                s = generate_scenario(eval_cfg, 1_000_000 + j)
                g = normalize_features(build_graph(s, eval_cfg.gamma_th_db), stats)
                assoc = gat.harden(gat.forward(g, result.best_model))
                gnn_w.append(_hard_power(assoc, s))
                rsrp_w.append(_hard_power(associate_rsrp(s), s))
            gnn, rsrp = float(np.mean(gnn_w)), float(np.mean(rsrp_w))
            ok = ok and gnn < rsrp
            details.append(
                f"W={w_mhz:.0f} K={n_ues}: {gnn:.0f}<{rsrp:.0f} "
                f"({100.0 * (rsrp - gnn) / rsrp:.0f}%)"
            )
    _report(6, "grid-wide gain over RSRP", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 7: raising the balance weight drives switched-off cells to zero


def test_balance_weight_sweep_removes_switch_off():
    cfg = ScenarioConfig(
        n_cells=7, inter_site_distance=500.0, region=(2200.0, 2200.0),
        n_ues=100, ue_demand_mbps=20.0, gamma_th_db=15.0,
    )
    train_split, test_split, _ = split_and_normalize(*dataset(cfg, 200, 100), 0.8, 100)
    ratios = (0.0, 4.0, 64.0, 1024.0, 4096.0)
    means = []
    for ratio in ratios:
        result = train(
            [smp.graph for smp in train_split],
            TrainConfig(dataset_size=200, epochs=100, lr=1e-3, lambda2=ratio),
            PARAMS,
            seed=0,
            gat_cfg=gat.GatConfig(hidden_dim=32, readout_activation="identity"),
            test=[smp.graph for smp in test_split],
        )
        offs = []
        for smp in test_split:
            assoc = gat.harden(gat.forward(smp.graph, result.best_model))
            counts = np.bincount(assoc, minlength=cfg.n_cells)
            offs.append(int((counts == 0).sum()))
        means.append(float(np.mean(offs)))
    moving = [float(np.mean(means[max(0, i - 1):i + 2])) for i in range(len(means))]
    monotone = all(moving[i + 1] <= moving[i] + 1e-12 for i in range(len(moving) - 1))
    ok = monotone and means[-1] == 0.0
    _report(7, "balance sweep shape", ok,
            f"mean switch-off per ratio {ratios}: "
            f"{[round(m, 3) for m in means]}, 3-pt MA {[round(m, 3) for m in moving]}")


# ---------------------------------------------------------------------------
# 8: the relaxed power matches the discrete power at one-hot corners


def test_one_hot_soft_power_matches_hard():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(500):
        n_ues = int(rng.integers(2, 9))
        n_cells = int(rng.integers(2, 6))
        prb = rng.uniform(1.0, 30.0, size=(n_ues, n_cells))
        assignment = rng.integers(0, n_cells, size=n_ues)
        one_hot = np.zeros((n_ues, n_cells))
        one_hot[np.arange(n_ues), assignment] = 1.0
        soft = network_power_soft(one_hot, prb, PARAMS, 51)
        hard = network_power_hard(assignment, prb, PARAMS, 51).total_w
        worst = max(worst, abs(soft - hard) / hard)
        sharpness = ad.association_penalties(one_hot, prb, 1.0, 0.0)[0]
        assert sharpness == 0.0
    ok = worst <= 1e-9
    _report(8, "one-hot consistency", ok,
            f"500 instances, worst relative gap {worst:.3e}, sharpness term exactly 0")


# ---------------------------------------------------------------------------
# 9: the command pipeline is bit-reproducible


def _tree_hashes(root):
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(
                path.read_bytes()
            ).hexdigest()
    return out


def test_command_pipeline_reruns_bit_identical(tmp_path, monkeypatch):
    monkeypatch.setenv("NESUA_THREADS", "1")
    config = {
        "scenario": {
            "n_cells": 2,
            "inter_site_distance": 500.0,
            "region": [2200.0, 2200.0],
            "n_ues": 3,
            "tx_power_dbm": 40.0,
        },
        "gat": {"hidden_dim": 4, "readout_activation": "identity"},
        "train": {
            "dataset_size": 6,
            "epochs": 2,
            "lr": 1e-3,
            "lambda1": 1.0,
            "lambda2": 0.1,
        },
        "eval": {"n_instances": 2},
        "seed": 1,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    trees = []
    for tag in ("a", "b"):
        root = tmp_path / tag
        gen_dir, train_dir, eval_dir = root / "gen", root / "train", root / "eval"
        assert cli.main(["gen", "--config", str(cfg_path), "--out", str(gen_dir)]) == 0
        assert cli.main([
            "train", "--config", str(cfg_path),
            "--dataset", str(gen_dir / "dataset.jsonl"), "--out", str(train_dir),
        ]) == 0
        assert cli.main([
            "eval", "--config", str(cfg_path),
            "--dataset", str(gen_dir / "dataset.jsonl"),
            "--checkpoint", str(train_dir / "checkpoint_best.json"),
            "--out", str(eval_dir),
        ]) == 0
        trees.append(_tree_hashes(root))
    ok = trees[0] == trees[1] and len(trees[0]) > 0
    _report(9, "pipeline reproducibility", ok,
            f"{len(trees[0])} files byte-identical across gen/train/eval reruns")


# ---------------------------------------------------------------------------
# 10: structural invariants over 10^4 randomized trials


def _random_instance(rng, n_ues, n_cells, feat_dim, density=None):
    p = float(rng.uniform(0.2, 0.9)) if density is None else density
    upper = rng.random((n_ues, n_ues)) < p
    upper = np.triu(upper, 1)
    adj = np.eye(n_ues, dtype=bool) | upper | upper.T
    return GraphInstance(
        features=rng.normal(0.0, 1.0, (n_ues, feat_dim)),
        adjacency=adj,
        prb_matrix=rng.uniform(1.0, 20.0, (n_ues, n_cells)),
        n_prb_total=51,
    )


def _random_model(rng, feat_dim, n_cells):
    cfg = gat.GatConfig(
        hidden_dim=int(rng.integers(2, 9)),
        activation=("relu", "identity")[int(rng.integers(0, 2))],
        readout_activation=("relu", "identity")[int(rng.integers(0, 2))],
    )
    return gat.init_model(feat_dim, n_cells, cfg, seed=int(rng.integers(0, 2**31)))


def test_structural_invariants_hold():
    rng = np.random.default_rng(10)

    for _ in range(2500):  # rows live on the simplex
        n_ues, n_cells = int(rng.integers(2, 8)), int(rng.integers(2, 6))
        feat = int(rng.integers(3, 7))
        g = _random_instance(rng, n_ues, n_cells, feat)
        s = gat.forward(g, _random_model(rng, feat, n_cells))
        assert s.shape == (n_ues, n_cells)
        assert (s >= 0.0).all()
        assert np.abs(s.sum(axis=1) - 1.0).max() <= 1e-12

    for _ in range(2500):  # relabeling UEs relabels rows and nothing else
        n_ues, n_cells = int(rng.integers(2, 8)), int(rng.integers(2, 6))
        feat = int(rng.integers(3, 7))
        g = _random_instance(rng, n_ues, n_cells, feat)
        model = _random_model(rng, feat, n_cells)
        perm = rng.permutation(n_ues)
        permuted = GraphInstance(
            features=g.features[perm],
            adjacency=g.adjacency[np.ix_(perm, perm)],
            prb_matrix=g.prb_matrix[perm],
            n_prb_total=g.n_prb_total,
        )
        base = gat.forward(g, model)
        shuffled = gat.forward(permuted, model)
        assert np.allclose(shuffled, base[perm], rtol=1e-9, atol=1e-12)

    checked = 0  # rows ignore everything outside their two-hop ball
    while checked < 2500:
        n_ues = int(rng.integers(5, 10))
        n_cells = int(rng.integers(2, 6))
        feat = int(rng.integers(3, 7))
        g = _random_instance(rng, n_ues, n_cells, feat, density=0.15)
        adj = g.adjacency
        two_hop = (adj @ adj) | adj
        node = int(rng.integers(0, n_ues))
        outside = np.flatnonzero(~two_hop[node])
        if outside.size == 0:
            continue
        far = int(rng.choice(outside))
        model = _random_model(rng, feat, n_cells)
        before = gat.forward(g, model)[node].copy()
        bumped = g.features.copy()
        bumped[far] += rng.normal(0.0, 5.0, size=feat)
        after = gat.forward(replace(g, features=bumped), model)[node]
        assert np.array_equal(before, after)
        checked += 1

    for _ in range(2500):  # masked softmax: exact zeros, exact normalization
        rows, cols = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        x = rng.normal(0.0, 3.0, (rows, cols))
        keep = rng.integers(0, 2, size=(rows, cols)).astype(float)
        keep[keep.sum(axis=1) == 0, 0] = 1.0
        got = tape.row_softmax_masked(tape.constant(x), keep).values
        for r in range(rows):
            idx = np.flatnonzero(keep[r])
            ref = np.exp(x[r, idx] - x[r, idx].max())
            ref = ref / ref.sum()
            assert np.allclose(got[r, idx], ref, rtol=1e-12, atol=1e-15)
        assert (got[keep == 0.0] == 0.0).all()

    _report(10, "structural invariants", True,
            "4 x 2500 randomized trials green")
