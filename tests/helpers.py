"""Shared numeric test utilities."""

import math
from dataclasses import replace

import numpy as np

from nesua import autodiff as ad
from nesua import gat
from nesua.errors import ShapeError
from nesua.power import network_power_hard, radio_coefficients
from nesua.scenario import (
    Scenario,
    build_graph,
    compute_prb_demand,
    free_space_reference_db,
    hex_layout,
    iter_scenarios,
    noise_power_dbm,
    reuse_groups,
)
from nesua.training import Sample


def dataset_samples(cfg, size, seed):
    """The samples of a `size`-record dataset that `gen` draws from seed
    `seed` on, each scenario with its graph, as `train` reads them back
    before `training.split_and_normalize`."""
    return [
        Sample(s, build_graph(s, cfg.gamma_th_db))
        for s in iter_scenarios(cfg, range(seed, seed + size))
    ]


def finite_difference_grad(f, x, h_scale=1e-5):
    """Central finite differences of a scalar function over array x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        h = h_scale * max(1.0, abs(flat[i]))
        orig = flat[i]
        flat[i] = orig + h
        up = f(x)
        flat[i] = orig - h
        down = f(x)
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * h)
    return g


def reference_adam_step(params, grads, state):
    """Reference Adam over lists: the expression-per-line update
    `ad.adam_step` must match bit for bit. Each parameter steps on its own,
    and each moment line is computed as a fresh array, then stored into the
    moment array that `state` lists for the parameter, so moments given as
    the table's views of packed buffers are updated in those buffers."""
    if len(params) != len(state.m):
        raise ValueError(f"{len(params)} params vs state sized for {len(state.m)}")
    state.step += 1
    t = state.step
    for i, (p, g) in enumerate(zip(params, grads)):
        g = np.asarray(g, dtype=np.float64)
        state.m[i][...] = state.beta1 * state.m[i] + (1.0 - state.beta1) * g
        state.v[i][...] = state.beta2 * state.v[i] + (1.0 - state.beta2) * g**2
        m_hat = state.m[i] / (1.0 - state.beta1**t)
        v_hat = state.v[i] / (1.0 - state.beta2**t)
        p.values -= state.lr * m_hat / (np.sqrt(v_hat) + ad.ADAM_EPS)


def reference_adam_step_over(shapes):
    """An `ad.adam_step` stand-in that runs `reference_adam_step` over the
    views of `shapes` (a parameter table's shapes) of the packed parameter,
    gradient and moment buffers it is called with."""

    def step(param, grad, state):
        views = replace(state, m=ad.unpack(state.m, shapes), v=ad.unpack(state.v, shapes))
        params = [ad.Tensor(view) for view in ad.unpack(param.values, shapes)]
        reference_adam_step(params, ad.unpack(grad, shapes), views)
        state.step = views.step

    return step


def shapes_of(model):
    """The shapes of the model's parameters, in table order."""
    return [p.shape for p in model.params.values()]


def model_over(tensors, config, feat_dim, n_cells):
    """A model whose named parameters are `tensors`, in table order, in
    place of the views of its buffer: gradient checks read each tensor's
    own gradient."""
    flat = ad.Tensor(ad.pack([t.values for t in tensors]))
    model = gat.GatModel(config, feat_dim, n_cells, flat)
    model.params = dict(zip(model.params, tensors))
    return model


def _address(a):
    return a.__array_interface__["data"][0]


def assert_packed(model, grad_buffer=None):
    """Every named parameter's values are its own C-ordered view of
    `model.flat`, in table order with nothing between them. With a
    gradient buffer given, each parameter's gradient slot is the matching
    view of it; without, the parameters have no slots."""
    flat = model.flat.values
    assert flat.ndim == 1 and flat.flags.c_contiguous and flat.flags.owndata
    table = gat.param_shapes(model.feat_dim, model.n_cells, model.config)
    assert [(name, p.shape) for name, p in model.params.items()] == list(table.items())
    start = 0
    for name, p in model.params.items():
        stop = start + p.values.size
        assert p.values.shape == p.shape and p.values.flags.c_contiguous, name
        assert _address(p.values) == _address(flat[start:stop]), name
        if grad_buffer is None:
            assert p.grad_slot is None, name
        else:
            assert p.grad_slot.shape == p.shape, name
            assert _address(p.grad_slot) == _address(grad_buffer[start:stop]), name
            assert p.grad is None or p.grad is p.grad_slot, name
        start = stop
    assert start == flat.size


def reference_transformed(h, w):
    """Reference layer transform h @ W.T built from `matmul` and a
    `transpose` node, which `gat._transformed` must match bit for bit."""
    return ad.matmul(h, ad.transpose(w))


def attention_scores(hw, a, negative_slope):
    """Pairwise scores rho(u,v) for all node pairs from the layer's
    transformed features hw = h @ W.T and its scorer a, composed from
    primitives: the scorer splits into a source and a destination half, so
    the K*K pair matrix is a broadcast sum of two length-K projections."""
    k, d = hw.shape
    if a.shape != (2 * d,):
        raise ShapeError(
            f"attention vector {a.shape} does not fit width {d}"
        )
    src = ad.matmul(hw, ad.slice_rows(a, 0, d))
    dst = ad.matmul(hw, ad.slice_rows(a, d, 2 * d))
    pair = ad.add(ad.reshape(src, (k, 1)), ad.reshape(dst, (1, k)))
    return ad.leaky_relu(pair, negative_slope)


def attention_weights(hw, adjacency, a, negative_slope):
    """Scores of the transformed features hw normalized over each node's
    neighborhood; zero off-edges."""
    return ad.row_softmax_masked(attention_scores(hw, a, negative_slope), adjacency)


def reference_attention_round(hw, a, adjacency, negative_slope, relu):
    """Reference for `ad.attention_round`, composed from primitives."""
    mixed = ad.matmul(attention_weights(hw, adjacency, a, negative_slope), hw)
    return ad.relu(mixed) if relu else mixed


def reference_softmax_readout(h, q, b, relu):
    """Reference for `ad.softmax_readout`, composed from primitives."""
    logits = ad.add(ad.matmul(h, q), b)
    if relu:
        logits = ad.relu(logits)
    return ad.row_softmax_masked(logits, np.ones(logits.shape))


def reference_gated_load_cost(s, demand, capacity, on_const, on_slope, offset):
    """Reference for `ad.gated_load_cost`, composed from primitives."""
    n = s.shape[1]
    load = ad.row_sum(ad.transpose(ad.multiply(s, ad.constant(demand))))
    eta = ad.clamp(ad.scale(load, 1.0 / capacity), 0.0, 1.0)
    gate = ad.complement_product_gate(s)
    per_cell_on = ad.add(ad.scale(eta, on_slope), ad.constant(np.full(n, on_const)))
    total_on = ad.sum_all(ad.multiply(gate, per_cell_on))
    return ad.add(total_on, ad.constant(np.asarray(offset)))


def reference_association_penalties(s, demand, lambda1, lambda2):
    """Reference for `ad.association_penalties`, composed from primitives.
    Returns a list of scalar tensors, which only `reference_add_terms`
    takes."""
    terms = []
    if lambda1 > 0.0:
        sharpness = ad.add(
            ad.constant(np.asarray(float(s.shape[0]))),
            ad.scale(ad.trace_of_gram(s), -1.0),
        )
        terms.append(ad.scale(sharpness, lambda1))
    if lambda2 > 0.0:
        p_hat = ad.row_sum(ad.transpose(ad.multiply(s, ad.constant(demand))))
        terms.append(ad.scale(ad.l2_norm(p_hat), lambda2))
    return terms


def reference_add_terms(total, terms):
    """Reference for `ad.add_terms` over `reference_association_penalties`:
    one `add` node per term."""
    for term in terms:
        total = ad.add(total, term)
    return total


# every fused node and the composed reference that replaces it
REFERENCE_NODES = {
    "attention_round": reference_attention_round,
    "softmax_readout": reference_softmax_readout,
    "gated_load_cost": reference_gated_load_cost,
    "association_penalties": reference_association_penalties,
    "add_terms": reference_add_terms,
}


def reference_gat_layer(h, adjacency, w, a, negative_slope, activation="relu"):
    """Reference GAT layer that transforms h twice, once to score the pairs
    and once to aggregate; `gat.gat_layer`, which shares one transform,
    must give the same forward bits."""
    att = attention_weights(gat._transformed(h, w), adjacency, a, negative_slope)
    mixed = ad.matmul(att, gat._transformed(h, w))
    return ad.relu(mixed) if activation == "relu" else mixed


def check_grad(build_loss, arrays, rtol=1e-4, atol=1e-6):
    """Compare reverse-mode gradients of build_loss against finite differences.

    build_loss takes a list of Tensors (one per entry of arrays) and
    returns a scalar Tensor.
    """
    params = [ad.parameter(a.copy()) for a in arrays]
    loss = build_loss(params)
    ad.backward(loss)

    for i, p in enumerate(params):
        def scalar(x, i=i):
            probe = [ad.constant(q.values) for q in params]
            probe[i] = ad.constant(x)
            return build_loss(probe).item()

        fd = finite_difference_grad(scalar, arrays[i])
        got = p.grad if p.grad is not None else np.zeros_like(fd)
        np.testing.assert_allclose(got, fd, rtol=rtol, atol=atol,
                                   err_msg=f"gradient mismatch on input {i}")


def enumerate_oracle(prb, n_prb_total, p, chunk=1 << 16):
    """Reference oracle: score all N^K assignments in numpy chunks.

    Returns (assignment, power_w, feasible) under the contract of
    `baselines.oracle_assignment`: cheapest feasible assignment, else the
    cheapest overloaded one; ties to the lexicographically smallest
    assignment, UE 0 being the most significant digit.
    """
    prb = np.asarray(prb, dtype=np.float64)
    k, n = prb.shape
    total = n**k
    c0, c1 = radio_coefficients(p)
    place = n ** np.arange(k - 1, -1, -1)

    best_any = (np.inf, -1)
    best_feasible = (np.inf, -1)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total))
        digits = (idx[:, None] // place[None, :]) % n  # (C, K)
        one_hot = digits[:, :, None] == np.arange(n)[None, None, :]
        loads = np.einsum("ckn,kn->cn", one_hot, prb)
        eta = np.minimum(1.0, loads / n_prb_total)
        # same term order as network_power_hard so ties resolve identically
        on_w = p.p_fixed_w + p.p_bb0_w + p.p_bb_slope_w * eta + c0 + c1 * eta
        cell_w = np.where(loads > 0, on_w, p.p_sleep_w)
        power = cell_w.sum(axis=1)
        feasible = (loads <= n_prb_total).all(axis=1)

        j = int(np.argmin(power))
        if power[j] < best_any[0]:
            best_any = (float(power[j]), int(idx[j]))
        if feasible.any():
            pw = np.where(feasible, power, np.inf)
            j = int(np.argmin(pw))
            if pw[j] < best_feasible[0]:
                best_feasible = (float(pw[j]), int(idx[j]))

    found = best_feasible[1] >= 0
    chosen = best_feasible[1] if found else best_any[1]
    assignment = ((chosen // place) % n).astype(np.int64)
    s_hard = np.zeros((k, n))
    s_hard[np.arange(k), assignment] = 1.0
    power_w = network_power_hard(s_hard, prb, p, n_prb_total).total_w
    return assignment, power_w, found


def reference_generate_scenario(cfg, seed, shadowing=True, fading=True):
    """Reference scenario draw, one seed at a time, that
    `scenario.generate_scenarios` must match bit for bit in every field."""
    rng = np.random.default_rng(seed)
    bs = hex_layout(cfg.n_cells, cfg.inter_site_distance, cfg.region)
    ue = rng.uniform((0.0, 0.0), cfg.region, size=(cfg.n_ues, 2))

    dh = np.linalg.norm(ue[:, None, :] - bs[None, :, :], axis=2)
    dz = cfg.h_tx_m - cfg.h_ue_m
    dist = np.sqrt(dh**2 + dz**2)

    pl0 = free_space_reference_db(cfg.carrier_ghz)
    pathloss_db = pl0 + 10.0 * cfg.pathloss_exponent * np.log10(dist)
    shadow_db = rng.normal(0.0, cfg.shadowing_sigma_db, size=dist.shape)
    if not shadowing:
        shadow_db = np.zeros_like(shadow_db)

    t = cfg.n_prb_total
    fade_gain = rng.exponential(1.0, size=(cfg.n_ues, cfg.n_cells, t))
    if not fading:
        fade_gain = np.ones_like(fade_gain)

    array_gain_db = 10.0 * math.log10(cfg.n_tx_antennas)
    rx_mean_dbm = cfg.tx_power_dbm + array_gain_db - pathloss_db - shadow_db
    rx_mw = 10.0 ** (rx_mean_dbm[:, :, None] / 10.0) * fade_gain

    noise_mw = 10.0 ** (noise_power_dbm(cfg) / 10.0)
    groups = reuse_groups(cfg)
    same_group = groups[None, :] == groups[:, None]  # (N, N)
    interferers = same_group & ~np.eye(cfg.n_cells, dtype=bool)
    interf_mw = np.einsum("kmt,nm->knt", rx_mw, interferers.astype(float))
    sinr_lin = rx_mw / (noise_mw + interf_mw)

    sinr_per_prb_db = 10.0 * np.log10(sinr_lin)
    sinr_wideband_db = 10.0 * np.log10(sinr_lin.mean(axis=2))
    rsrp_dbm = cfg.tx_power_dbm - pathloss_db - shadow_db

    partial = Scenario(
        seed=seed,
        bs_positions=bs,
        ue_positions=ue,
        distance=dist,
        sinr_wideband_db=sinr_wideband_db,
        sinr_per_prb_db=sinr_per_prb_db,
        rsrp_dbm=rsrp_dbm,
        prb_demand=np.zeros_like(dist, dtype=np.int64),
        n_prb_total=t,
    )
    return replace(partial, prb_demand=compute_prb_demand(partial, cfg.ue_demand_mbps, cfg))
