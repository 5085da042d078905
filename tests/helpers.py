"""Shared numeric test utilities, and the references the package is held to.

The reverse-mode tape (`Tensor`, its 19 primitive ops and `backward`) runs
the chains of primitives that the fused ops stand for (`REFERENCE_NODES`)
and, through thin adapters, the shipped ops themselves (`FUSED_NODES`);
`tape_backward` rebuilds a train step from its op records on the tape, as
a stand-in for `ad.backward`.
"""

import math
from dataclasses import replace

import numpy as np

from nesua import autodiff as ad
from nesua import gat
from nesua.errors import ContractError, ShapeError
from nesua.power import network_power_hard, radio_coefficients
from nesua.scenario import (
    Scenario,
    _prb_demand,
    build_graph,
    free_space_reference_db,
    hex_layout,
    iter_scenarios,
    noise_power_dbm,
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


def reference_adam_step(params, grads, state, train):
    """Reference Adam over lists: the expression-per-line update
    `ad.adam_step` must match bit for bit, under the `lr`, `beta1` and
    `beta2` of `train`. Each parameter array steps on its own, in place,
    and each moment line is computed as a fresh array, then stored into the
    moment array that `state` lists for the parameter, so moments given as
    the table's views of packed buffers are updated in those buffers."""
    if len(params) != len(state.m):
        raise ValueError(f"{len(params)} params vs state sized for {len(state.m)}")
    state.step += 1
    t = state.step
    b1, b2 = train.beta1, train.beta2
    for i, (p, g) in enumerate(zip(params, grads)):
        g = np.asarray(g, dtype=np.float64)
        state.m[i][...] = b1 * state.m[i] + (1.0 - b1) * g
        state.v[i][...] = b2 * state.v[i] + (1.0 - b2) * g**2
        m_hat = state.m[i] / (1.0 - b1**t)
        v_hat = state.v[i] / (1.0 - b2**t)
        p -= train.lr * m_hat / (np.sqrt(v_hat) + ad.ADAM_EPS)


def reference_adam_step_over(shapes):
    """An `ad.adam_step` stand-in that runs `reference_adam_step` over the
    views of `shapes` (a parameter table's shapes) of the packed parameter,
    gradient and moment buffers it is called with."""

    def step(param, grad, state, train):
        views = replace(state, m=ad.unpack(state.m, shapes), v=ad.unpack(state.v, shapes))
        reference_adam_step(ad.unpack(param, shapes), ad.unpack(grad, shapes), views, train)
        state.step = views.step

    return step


def shapes_of(model):
    """The shapes of the model's parameters, in table order."""
    return [p.shape for p in model.params.values()]


def _address(a):
    return a.__array_interface__["data"][0]


def assert_packed(model):
    """Every named parameter is its own C-ordered view of `model.flat`, in
    table order with nothing between them."""
    flat = model.flat
    assert flat.ndim == 1 and flat.flags.c_contiguous and flat.flags.owndata
    table = gat.param_shapes(model.feat_dim, model.n_cells, model.config)
    assert [(name, p.shape) for name, p in model.params.items()] == list(table.items())
    start = 0
    for name, p in model.params.items():
        stop = start + p.size
        assert p.flags.c_contiguous, name
        assert _address(p) == _address(flat[start:stop]), name
        start = stop
    assert start == flat.size


# ---------------------------------------------------------------------------
# the reverse-mode tape: the reference the straight-line step is held to
#
# Every operation returns a new Tensor that remembers its inputs and a
# closure implementing the exact reverse rule, so the executed ops form a
# computation record that `backward` replays in reverse topological order.
# The first gradient a tensor receives becomes its buffer as `g + 0.0`, so
# -0.0 lands as +0.0 exactly as if it were added to zeros, and later
# gradients are added into it in place. By default the first gradient is
# copied into a fresh C-ordered buffer, because reverse rules hand out
# views and shared arrays; a rule that passes a product it has just
# computed and holds no other reference to says so with `fresh=True`, and
# that product is adopted instead.


class Tensor:
    """A dense float64 array with an accumulated gradient buffer."""

    __slots__ = ("values", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, values, requires_grad=False, _parents=()):
        self.values = np.asarray(values, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = _parents
        self._backward = None

    @property
    def shape(self):
        return self.values.shape

    def item(self) -> float:
        return float(self.values)

    def accumulate(self, g, fresh=False):
        """Add gradient g; `fresh=True` promises g is a new C-ordered
        array shaped like the values that nothing else references."""
        if self.grad is None:
            out = g if fresh else np.empty(self.values.shape)
            self.grad = np.add(g, 0.0, out=out)
        else:
            self.grad += g

    def zero_grad(self):
        self.grad = None


def constant(values) -> Tensor:
    return Tensor(values, requires_grad=False)


def parameter(values) -> Tensor:
    return Tensor(values, requires_grad=True)


def _result(values, parents: tuple, backward) -> Tensor:
    if any(p.requires_grad for p in parents):
        out = Tensor(values, requires_grad=True, _parents=parents)
        out._backward = backward
        return out
    return Tensor(values)


def _unbroadcast(g, shape):
    # collapse gradient of a broadcast operand back to its original shape
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _check_broadcast(op, a, b):
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not align") from None


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("add", a, b)

    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g, b.shape))

    return _result(a.values + b.values, (a, b), backward)


def subtract(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("subtract", a, b)

    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(-g, b.shape))

    return _result(a.values - b.values, (a, b), backward)


def multiply(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("multiply", a, b)

    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g * b.values, a.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g * a.values, b.shape))

    return _result(a.values * b.values, (a, b), backward)


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)

    def backward(g):
        x.accumulate(g * c)

    return _result(x.values * c, (x,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    va, vb = a.values, b.values
    if va.ndim != 2 or vb.ndim not in (1, 2):
        raise ShapeError(f"matmul: unsupported ranks {va.shape} @ {vb.shape}")
    if va.shape[1] != vb.shape[0]:
        raise ShapeError(f"matmul: inner dims differ, {va.shape} @ {vb.shape}")

    def backward(g):
        if a.requires_grad:
            a.accumulate(g @ vb.T if vb.ndim == 2 else np.outer(g, vb))
        if b.requires_grad:
            b.accumulate(va.T @ g)

    return _result(va @ vb, (a, b), backward)


def transpose(x: Tensor) -> Tensor:
    if x.values.ndim != 2:
        raise ShapeError(f"transpose: expected a matrix, got shape {x.shape}")

    def backward(g):
        x.accumulate(g.T)

    return _result(x.values.T, (x,), backward)


def reshape(x: Tensor, shape) -> Tensor:
    def backward(g):
        x.accumulate(g.reshape(x.shape))

    return _result(x.values.reshape(tuple(shape)), (x,), backward)


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    if not 0 <= start < stop <= x.shape[0]:
        raise ShapeError(f"slice_rows: [{start}:{stop}] out of range for shape {x.shape}")

    def backward(g):
        buf = np.zeros_like(x.values)
        buf[start:stop] = g
        x.accumulate(buf)

    return _result(x.values[start:stop].copy(), (x,), backward)


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = list(tensors)
    ndim = tensors[0].values.ndim
    axis = axis % ndim
    for t in tensors[1:]:
        if t.values.ndim != ndim:
            raise ShapeError(f"concat: rank mismatch, {tensors[0].shape} vs {t.shape}")
    splits = np.cumsum([t.shape[axis] for t in tensors])[:-1]

    def backward(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            if t.requires_grad:
                t.accumulate(piece)

    return _result(np.concatenate([t.values for t in tensors], axis=axis), tuple(tensors), backward)


def relu(x: Tensor) -> Tensor:
    mask = x.values > 0

    def backward(g):
        x.accumulate(g * mask)

    return _result(np.where(mask, x.values, 0.0), (x,), backward)


def leaky_relu(x: Tensor, negative_slope: float) -> Tensor:
    # subgradient at 0 taken as 1
    slope = float(negative_slope)
    mask = x.values >= 0

    def backward(g):
        x.accumulate(g * np.where(mask, 1.0, slope))

    return _result(np.where(mask, x.values, slope * x.values), (x,), backward)


def exp(x: Tensor) -> Tensor:
    out_values = np.exp(x.values)

    def backward(g):
        x.accumulate(g * out_values)

    return _result(out_values, (x,), backward)


def clamp(x: Tensor, lo: float, hi: float) -> Tensor:
    # gradient passes through on [lo, hi] (boundary counts as inside), zero outside
    inside = (x.values >= lo) & (x.values <= hi)

    def backward(g):
        x.accumulate(g * inside)

    return _result(np.clip(x.values, lo, hi), (x,), backward)


def row_softmax_masked(x: Tensor, mask) -> Tensor:
    """Softmax over the unmasked entries of each row. Masked entries are
    exactly 0 in the output and receive exactly 0 gradient. Every row must
    keep at least one unmasked entry."""
    keep = np.asarray(mask) != 0
    if keep.shape != x.shape:
        raise ShapeError(f"row_softmax_masked: mask {keep.shape} vs input {x.shape}")
    if not keep.any(axis=1).all():
        raise ContractError("row_softmax_masked: a row has no unmasked entries")
    s = ad._softmax_rows(x.values, keep)

    def backward(g):
        x.accumulate(ad._softmax_rows_grad(s, g))

    return _result(s, (x,), backward)


def sum_all(x: Tensor) -> Tensor:
    def backward(g):
        x.accumulate(np.full(x.shape, float(g)))

    return _result(x.values.sum(), (x,), backward)


def row_sum(x: Tensor) -> Tensor:
    if x.values.ndim != 2:
        raise ShapeError(f"row_sum: expected a matrix, got shape {x.shape}")

    def backward(g):
        x.accumulate(np.broadcast_to(g[:, None], x.shape).copy())

    return _result(x.values.sum(axis=1), (x,), backward)


def trace_of_gram(x: Tensor) -> Tensor:
    """Sum of squared entries, i.e. the trace of x @ x.T."""

    def backward(g):
        x.accumulate(2.0 * float(g) * x.values)

    return _result((x.values**2).sum(), (x,), backward)


def l2_norm(x: Tensor) -> Tensor:
    norm = float(np.sqrt((x.values**2).sum()))

    def backward(g):
        if norm > 0.0:
            x.accumulate(float(g) * x.values / norm)

    return _result(norm, (x,), backward)


def complement_product_gate(s: Tensor) -> Tensor:
    """Per column n of a K-by-N matrix: 1 - prod_k (1 - s[k, n])."""
    if s.values.ndim != 2:
        raise ShapeError(f"complement_product_gate: expected a matrix, got {s.shape}")
    q = 1.0 - s.values

    def backward(g):
        prefix, suffix = ad._leave_one_out_products(q)
        s.accumulate(g[None, :] * prefix * suffix)

    return _result(1.0 - q.prod(axis=0), (s,), backward)


def _topo_order(root: Tensor):
    """Nodes the root depends on, inputs first. Clears the gradient of
    every intermediate node on the way."""
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            if node._backward is not None:
                node.grad = None
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad:
                stack.append((p, False))
    return order


def backward(loss: Tensor):
    """Populate .grad for every tensor the scalar loss depends on. Leaf
    tensors add each call's gradient to what they hold (use zero_grad()
    between passes); intermediate nodes start from no gradient."""
    if loss.shape != ():
        raise ContractError(f"backward: loss must be scalar, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    order = _topo_order(loss)
    loss.accumulate(np.ones(()))
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def zero_grad(tensors):
    for t in tensors:
        t.zero_grad()


# ---------------------------------------------------------------------------
# tape adapters over the shipped ops: each runs an op's forward and, on the
# tape's reverse pass, its backward rule


def linear(x, w):
    """`ad.linear` on the tape."""
    saved = []
    values = ad.linear(x.values, w.values, saved)

    def backward(g):
        g_w = np.empty(w.shape)
        g_x = ad.linear_backward(saved[0], g, g_w, want_x=x.requires_grad)
        if x.requires_grad:
            x.accumulate(g_x, fresh=True)
        if w.requires_grad:
            w.accumulate(g_w, fresh=True)

    return _result(values, (x, w), backward)


def attention_round(hw, a, adjacency, negative_slope, relu):
    """`ad.attention_round` on the tape."""
    saved = []
    values = ad.attention_round(hw.values, a.values, adjacency, negative_slope, relu, saved)

    def backward(g):
        g_a = np.empty(a.shape)
        g_hw = ad.attention_round_backward(saved[0], g, g_a)
        if hw.requires_grad:
            hw.accumulate(g_hw, fresh=True)
        if a.requires_grad:
            a.accumulate(g_a, fresh=True)

    return _result(values, (hw, a), backward)


def softmax_readout(h, q, b, relu):
    """`ad.softmax_readout` on the tape."""
    saved = []
    values = ad.softmax_readout(h.values, q.values, b.values, relu, saved)

    def backward(g):
        g_q, g_b = np.empty(q.shape), np.empty(b.shape)
        g_h = ad.softmax_readout_backward(saved[0], g, g_q, g_b)
        for t, g_t in ((h, g_h), (q, g_q), (b, g_b)):
            if t.requires_grad:
                t.accumulate(g_t, fresh=True)

    return _result(values, (h, q, b), backward)


def gated_load_cost(s, demand, capacity, on_const, on_slope, offset):
    """`ad.gated_load_cost` on the tape."""
    saved = []
    values = ad.gated_load_cost(s.values, demand, capacity, on_const, on_slope, offset, saved)

    def backward(g):
        s.accumulate(ad.gated_load_cost_backward(saved[0], g), fresh=True)

    return _result(values, (s,), backward)


def association_penalties(s, demand, lambda1, lambda2):
    """`ad.association_penalties` on the tape. Its rule adds each term's
    gradient to s's in turn, as a chain of nodes would."""
    saved = []
    values = ad.association_penalties(s.values, demand, lambda1, lambda2, saved)

    def backward(g):
        if s.grad is None:
            s.accumulate(np.zeros(s.shape), fresh=True)
        ad.association_penalties_backward(saved[0], g, s.grad)

    return _result(values, (s,), backward)


def add_terms(total, terms):
    """`ad.add_terms` on the tape; the total comes first among the
    parents, so `backward` runs the total's own rule before that of the
    node that made the terms."""
    saved = []
    values = ad.add_terms(total.values, terms.values, saved)

    def backward(g):
        g_total, g_terms = ad.add_terms_backward(saved[0], g)
        if total.requires_grad:
            total.accumulate(np.asarray(g_total))
        if terms.requires_grad:
            terms.accumulate(g_terms)

    return _result(values, (total, terms), backward)


# ---------------------------------------------------------------------------
# the primitive chains the fused ops stand for


def reference_transformed(h, w):
    """Reference layer transform h @ W.T built from `matmul` and a
    `transpose` node, which `ad.linear` must match bit for bit."""
    return matmul(h, transpose(w))


def attention_scores(hw, a, negative_slope):
    """Pairwise scores rho(u,v) for all node pairs from the layer's
    transformed features hw = h @ W.T and its scorer a, composed from
    primitives: the scorer splits into a source and a destination half, so
    the K*K pair matrix is a broadcast sum of two length-K projections."""
    k, d = hw.shape
    if a.shape != (2 * d,):
        raise ShapeError(f"attention vector {a.shape} does not fit width {d}")
    src = matmul(hw, slice_rows(a, 0, d))
    dst = matmul(hw, slice_rows(a, d, 2 * d))
    pair = add(reshape(src, (k, 1)), reshape(dst, (1, k)))
    return leaky_relu(pair, negative_slope)


def attention_weights(hw, adjacency, a, negative_slope):
    """Scores of the transformed features hw normalized over each node's
    neighborhood; zero off-edges."""
    return row_softmax_masked(attention_scores(hw, a, negative_slope), adjacency)


def reference_attention_round(hw, a, adjacency, negative_slope, use_relu):
    """Reference for `ad.attention_round`, composed from primitives."""
    mixed = matmul(attention_weights(hw, adjacency, a, negative_slope), hw)
    return relu(mixed) if use_relu else mixed


def reference_softmax_readout(h, q, b, use_relu):
    """Reference for `ad.softmax_readout`, composed from primitives."""
    logits = add(matmul(h, q), b)
    if use_relu:
        logits = relu(logits)
    return row_softmax_masked(logits, np.ones(logits.shape))


def reference_gated_load_cost(s, demand, capacity, on_const, on_slope, offset):
    """Reference for `ad.gated_load_cost`, composed from primitives."""
    n = s.shape[1]
    load = row_sum(transpose(multiply(s, constant(demand))))
    eta = clamp(scale(load, 1.0 / capacity), 0.0, 1.0)
    gate = complement_product_gate(s)
    per_cell_on = add(scale(eta, on_slope), constant(np.full(n, on_const)))
    total_on = sum_all(multiply(gate, per_cell_on))
    return add(total_on, constant(np.asarray(offset)))


def reference_association_penalties(s, demand, lambda1, lambda2):
    """Reference for `ad.association_penalties`, composed from primitives.
    Returns a list of scalar tensors, which only `reference_add_terms`
    takes."""
    terms = []
    if lambda1 > 0.0:
        sharpness = add(constant(np.asarray(float(s.shape[0]))), scale(trace_of_gram(s), -1.0))
        terms.append(scale(sharpness, lambda1))
    if lambda2 > 0.0:
        p_hat = row_sum(transpose(multiply(s, constant(demand))))
        terms.append(scale(l2_norm(p_hat), lambda2))
    return terms


def reference_add_terms(total, terms):
    """Reference for `ad.add_terms` over `reference_association_penalties`:
    one `add` node per term."""
    for term in terms:
        total = add(total, term)
    return total


# every fused op on the tape, and the composed reference that it replaces
FUSED_NODES = {
    "attention_round": attention_round,
    "softmax_readout": softmax_readout,
    "gated_load_cost": gated_load_cost,
    "association_penalties": association_penalties,
    "add_terms": add_terms,
}
REFERENCE_NODES = {
    "attention_round": reference_attention_round,
    "softmax_readout": reference_softmax_readout,
    "gated_load_cost": reference_gated_load_cost,
    "association_penalties": reference_association_penalties,
    "add_terms": reference_add_terms,
}


def tape_forward(g, params, config):
    """`gat.forward` on the tape: the soft association of graph g under
    the six parameter tensors `params`, in table order."""
    w1, a1, w2, a2, q, b = params
    h = constant(g.features)
    for w, a in ((w1, a1), (w2, a2)):
        h = attention_round(
            linear(h, w), a, g.adjacency, config.negative_slope, config.activation == "relu"
        )
    return softmax_readout(h, q, b, config.readout_activation == "relu")


def tape_loss(saved, nodes=FUSED_NODES, transform=linear):
    """The loss of the train step whose op records `saved` holds, rebuilt
    on the tape from the records' arguments. Returns the loss tensor and
    the six parameter tensors, over the step's own parameter arrays."""
    lin1, att1, lin2, att2, head, power, *rest = saved
    params = [parameter(v) for v in (lin1.w, att1.a, lin2.w, att2.a, head.q, head.b)]
    h = constant(lin1.x)
    for att, w, a in ((att1, params[0], params[1]), (att2, params[2], params[3])):
        h = nodes["attention_round"](transform(h, w), a, att.keep, att.negative_slope, att.relu)
    s = nodes["softmax_readout"](h, params[4], params[5], head.relu)
    total = nodes["gated_load_cost"](
        s, power.demand, power.capacity, power.on_const, power.on_slope, power.offset
    )
    if rest:
        pen = rest[0]
        penalties = nodes["association_penalties"](s, pen.demand, pen.lambda1, pen.lambda2)
        total = nodes["add_terms"](total, penalties)
    return total, params


def tape_backward(saved, grad, nodes=REFERENCE_NODES, transform=reference_transformed):
    """An `ad.backward` stand-in: the step's loss rebuilt on the tape
    (`tape_loss`, by default from the primitive chains) and run backward,
    its parameters' gradients packed into `grad`. Returns the loss."""
    total, params = tape_loss(saved, nodes, transform)
    backward(total)
    grad[...] = ad.pack([p.grad for p in params])
    return total.item()


def reference_gat_layer(h, adjacency, w, a, negative_slope, activation="relu"):
    """Reference GAT layer that transforms h twice, once to score the pairs
    and once to aggregate; `gat.gat_layer`, which shares one transform,
    must give the same forward bits."""
    att = attention_weights(linear(h, w), adjacency, a, negative_slope)
    mixed = matmul(att, linear(h, w))
    return relu(mixed) if activation == "relu" else mixed


def check_grad(build_loss, arrays, rtol=1e-4, atol=1e-6):
    """Compare reverse-mode gradients of build_loss against finite differences.

    build_loss takes a list of Tensors (one per entry of arrays) and
    returns a scalar Tensor.
    """
    params = [parameter(a.copy()) for a in arrays]
    loss = build_loss(params)
    backward(loss)

    for i, p in enumerate(params):
        def scalar(x, i=i):
            probe = [constant(q.values) for q in params]
            probe[i] = constant(x)
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
    power_w = network_power_hard(assignment, prb, p, n_prb_total).total_w
    return assignment, power_w, found


def compute_prb_demand(s, demand_mbps, cfg):
    """PRBs each UE needs at each cell to carry `demand_mbps`: the demand
    kernel `generate_scenarios` and `from_record` share, over the
    scenario's wideband SINR."""
    return _prb_demand(s.sinr_wideband_db, demand_mbps, cfg, s.n_prb_total)


def reference_generate_scenario(cfg, seed, fading=True):
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

    t = cfg.n_prb_total
    fade_gain = rng.exponential(1.0, size=(cfg.n_ues, cfg.n_cells, t))
    if not fading:
        fade_gain = np.ones_like(fade_gain)

    array_gain_db = 10.0 * math.log10(cfg.n_tx_antennas)
    rx_mean_dbm = cfg.tx_power_dbm + array_gain_db - pathloss_db - shadow_db
    rx_mw = 10.0 ** (rx_mean_dbm[:, :, None] / 10.0) * fade_gain

    noise_mw = 10.0 ** (noise_power_dbm(cfg) / 10.0)
    groups = np.arange(cfg.n_cells) % cfg.n_reuse_groups
    same_group = groups[None, :] == groups[:, None]  # (N, N)
    interferers = same_group & ~np.eye(cfg.n_cells, dtype=bool)
    interf_mw = np.einsum("kmt,nm->knt", rx_mw, interferers.astype(float))
    sinr_lin = rx_mw / (noise_mw + interf_mw)

    sinr_wideband_db = 10.0 * np.log10(sinr_lin.mean(axis=2))
    rsrp_dbm = cfg.tx_power_dbm - pathloss_db - shadow_db

    partial = Scenario(
        seed=seed,
        bs_positions=bs,
        ue_positions=ue,
        distance=dist,
        sinr_wideband_db=sinr_wideband_db,
        sinr_per_prb=sinr_lin,
        rsrp_dbm=rsrp_dbm,
        prb_demand=np.zeros_like(dist, dtype=np.int64),
        n_prb_total=t,
    )
    return replace(partial, prb_demand=compute_prb_demand(partial, cfg.ue_demand_mbps, cfg))
