"""Dense reverse-mode automatic differentiation on float64 numpy buffers.

Every operation returns a new Tensor that remembers its inputs and a
closure implementing the exact reverse rule, so the executed ops form a
computation record that backward() replays in reverse topological order.
Only the primitives needed by the attention pipeline and the network
power loss are provided (add, subtract, multiply, scale, matmul, linear,
transpose, reshape, slice_rows, concat, the nonlinearities, the
reductions and the cell gate); there is no broadcasting beyond what those
compositions use.

Fused nodes: the model and its loss run on five nodes that each do the
work of a chain of primitives, with one hand-written backward rule:
`attention_round` (score, mask, softmax and aggregate one GAT round),
`softmax_readout`, `gated_load_cost` (the network power),
`association_penalties` (the two regularisers) and `add_terms`. With the
two `linear` transforms, a train step's graph is 8 nodes instead of 50,
and the per-node bookkeeping (`_result`, `_topo_order`, `accumulate`)
shrinks with it. A fused backward reproduces the chain's bits: it runs the
chain's reverse operations in the chain's order, normalises each
intermediate gradient with `+ 0.0` where the chain's first-gradient copy
did, and feeds a tensor that several consumers reach in the order
`backward` would have run them (the transformed features get the
aggregation gradient, then the source and destination score gradients;
the association gets the gate, load, trace and load-norm gradients). The
chains they replace live on in the tests as bit-for-bit references.

Gradient buffers: the first gradient a tensor receives becomes its
buffer as `g + 0.0`, so -0.0 lands as +0.0 exactly as if it were added
to zeros, and later gradients are added into it in place. By default the
first gradient is copied into a fresh C-ordered buffer, because reverse
rules hand out views and shared arrays: `add` passes one gradient to both
parents, `_unbroadcast` may return its input, and `transpose`, `reshape`
and `concat` pass views. A rule that passes a product it has just
computed and holds no other reference to, as `linear` does with both of
its gradient products, says so with `fresh=True`; that product is then
adopted, with `+ 0.0` applied in place, instead of copied.

Packed parameters: a model keeps its parameters back to back in one
C-ordered buffer (`pack`), each parameter a tensor over its view of it
(`unpack`). `attach_grad_slots` gives each of them a `grad_slot`, its
view of one gradient buffer of the same layout. A parameter's first
gradient of a backward pass is written into its slot (as `g + 0.0`, or by
`linear` straight through `np.matmul(..., out=)`) instead of a fresh
buffer, so after backward the gradient buffer holds every parameter's
gradient. `AdamState` keeps each moment as one more buffer of that
layout, and one `adam_step` over the four buffers updates them all. Slots
are never zero-filled: a parameter that got no gradient in a pass keeps
`grad` None while its slot still holds the previous pass's gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codec import decode_packed, encode_array
from .errors import ConfigError, ContractError, ShapeError


class Tensor:
    """A dense float64 array with an accumulated gradient buffer."""

    __slots__ = (
        "values", "grad", "grad_slot", "requires_grad", "_parents", "_backward"
    )

    def __init__(self, values, requires_grad=False, _parents=()):
        self.values = np.asarray(values, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.grad_slot = None  # set by attach_grad_slots
        self._parents = _parents
        self._backward = None

    @property
    def shape(self):
        return self.values.shape

    def item(self) -> float:
        return float(self.values)

    def accumulate(self, g, fresh=False):
        """Add gradient g; `fresh=True` promises g is a new C-ordered
        array shaped like the values that nothing else references. A
        first gradient goes into `grad_slot` when the tensor has one."""
        if self.grad is None:
            out = self.grad_slot
            if out is None:
                out = g if fresh else np.empty(self.values.shape)
            self.grad = np.add(g, 0.0, out=out)
        else:
            self.grad += g

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def constant(values) -> Tensor:
    return Tensor(values, requires_grad=False)


def parameter(values) -> Tensor:
    return Tensor(values, requires_grad=True)


def _result(values, parents: tuple, backward) -> Tensor:
    if parents[0].requires_grad or any(p.requires_grad for p in parents[1:]):
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
    if a.shape == b.shape:
        return
    try:
        return np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not align") from None


# ---------------------------------------------------------------------------
# elementwise and linear-algebra primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("add", a, b)
    out_values = a.values + b.values

    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g, b.shape))

    return _result(out_values, (a, b), backward)


def subtract(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("subtract", a, b)
    out_values = a.values - b.values

    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(-g, b.shape))

    return _result(out_values, (a, b), backward)


def multiply(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("multiply", a, b)
    out_values = a.values * b.values

    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g * b.values, a.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g * a.values, b.shape))

    return _result(out_values, (a, b), backward)


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
    out_values = va @ vb

    def backward(g):
        if vb.ndim == 2:
            if a.requires_grad:
                a.accumulate(g @ vb.T)
            if b.requires_grad:
                b.accumulate(va.T @ g)
        else:
            if a.requires_grad:
                a.accumulate(np.outer(g, vb))
            if b.requires_grad:
                b.accumulate(va.T @ g)

    return _result(out_values, (a, b), backward)


def linear(x: Tensor, w: Tensor) -> Tensor:
    """x @ w.T for rows x (K, d_in) and a weight matrix w (d_out, d_in),
    without a transpose node or its gradient buffer. Both gradient
    products are fresh arrays and are adopted as first gradients; a first
    weight gradient is computed straight into w's `grad_slot` if it has
    one."""
    vx, vw = x.values, w.values
    if vx.ndim != 2 or vw.ndim != 2:
        raise ShapeError(f"linear: expected matrices, got {vx.shape} and {vw.shape}")
    if vx.shape[1] != vw.shape[1]:
        raise ShapeError(f"linear: widths differ, {vx.shape} vs weight {vw.shape}")

    def backward(g):
        if x.requires_grad:
            x.accumulate(g @ vw, fresh=True)
        if w.requires_grad:
            out = w.grad_slot if w.grad is None else None
            w.accumulate(np.matmul(g.T, vx, out=out), fresh=True)

    return _result(vx @ vw.T, (x, w), backward)


def transpose(x: Tensor) -> Tensor:
    if x.values.ndim != 2:
        raise ShapeError(f"transpose: expected a matrix, got shape {x.shape}")

    def backward(g):
        x.accumulate(g.T)

    return _result(x.values.T, (x,), backward)


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)

    def backward(g):
        x.accumulate(g.reshape(x.shape))

    return _result(x.values.reshape(shape), (x,), backward)


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
            raise ShapeError(
                f"concat: rank mismatch, {tensors[0].shape} vs {t.shape}"
            )
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            if t.requires_grad:
                t.accumulate(piece)

    return _result(np.concatenate([t.values for t in tensors], axis=axis), tuple(tensors), backward)


# ---------------------------------------------------------------------------
# nonlinearities


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


def _keep_mask(mask, shape, op):
    """The entries a masked row softmax keeps: mask != 0, shaped like its
    input, with at least one kept entry in every row."""
    keep = (mask.values if isinstance(mask, Tensor) else np.asarray(mask)) != 0
    if keep.shape != shape:
        raise ShapeError(f"{op}: mask {keep.shape} vs input {shape}")
    if not keep.any(axis=1).all():
        raise ContractError(f"{op}: a row has no unmasked entries")
    return keep


def _softmax_rows(x, keep=None):
    """Softmax of each row of x over its kept entries (all when keep is None)."""
    shifted = x if keep is None else np.where(keep, x, -np.inf)
    shifted = shifted - shifted.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _softmax_rows_grad(s, g):
    """Gradient at the input of a row softmax whose output is s."""
    dot = (g * s).sum(axis=1, keepdims=True)
    return s * (g - dot)


def row_softmax_masked(x: Tensor, mask) -> Tensor:
    """Softmax over the unmasked entries of each row.

    Masked entries are exactly 0 in the output and receive exactly 0
    gradient. Every row must keep at least one unmasked entry.
    """
    s = _softmax_rows(x.values, _keep_mask(mask, x.shape, "row_softmax_masked"))

    def backward(g):
        x.accumulate(_softmax_rows_grad(s, g))

    return _result(s, (x,), backward)


# ---------------------------------------------------------------------------
# reductions


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


def _leave_one_out_products(q):
    """Per column of q, the products of the entries above and below each
    row (prefix, suffix): their product leaves that row's factor out, and
    is exact even when some factor is 0."""
    prefix = np.ones_like(q)
    suffix = np.ones_like(q)
    if q.shape[0] > 1:
        prefix[1:] = np.cumprod(q[:-1], axis=0)
        suffix[:-1] = np.cumprod(q[::-1], axis=0)[-2::-1]
    return prefix, suffix


def complement_product_gate(s: Tensor) -> Tensor:
    """Per column n of a K-by-N matrix: 1 - prod_k (1 - s[k, n]).

    0 when the column is all zeros, 1 as soon as any entry is 1; smooth in
    between. Used as the differentiable on/off gate of a cell.
    """
    if s.values.ndim != 2:
        raise ShapeError(f"complement_product_gate: expected a matrix, got {s.shape}")
    q = 1.0 - s.values
    out_values = 1.0 - q.prod(axis=0)

    def backward(g):
        prefix, suffix = _leave_one_out_products(q)
        s.accumulate(g[None, :] * prefix * suffix)

    return _result(out_values, (s,), backward)


# ---------------------------------------------------------------------------
# fused nodes: one node, and one backward rule, per chain of primitives
# (see the module docstring for how their bits match the chains')


def _relu(x):
    """`np.where(x > 0, x, 0.0)` bit for bit, without a branch per element:
    fmax maps NaN to 0.0, and `+= 0.0` turns the -0.0 that it may keep for
    a -0.0 input into +0.0."""
    out = np.fmax(x, 0.0)
    out += 0.0
    return out


def _positive(x):
    """1.0 where x > 0, else 0.0, as float64: a product with it is that
    with the bool mask `x > 0`, without casting the bools on the fly."""
    return (x > 0).astype(np.float64)


def _leaky_scale(x, negative_slope):
    """`np.where(x >= 0, 1.0, negative_slope)` without a branch per
    element: x times it is leaky_relu(x) bit for bit (x * 1.0 is x), and it
    is leaky_relu's derivative."""
    return np.array([float(negative_slope), 1.0]).take((x >= 0).view(np.uint8))


def attention_round(hw: Tensor, a: Tensor, adjacency, negative_slope: float,
                    relu: bool) -> Tensor:
    """One graph attention round over transformed node features hw (K, d).

    The scorer a (2d,) splits into a source and a destination half, so
    the K-by-K pair scores are the broadcast sum of two length-K
    projections, hw a_src + (hw a_dst)^T. The round returns
    act(softmax(leaky_relu(scores)) @ hw): the softmax runs over each row's
    neighbours (adjacency != 0, at least one per row), and act is relu or
    the identity. Bit-equal, forward and backward, to slicing a, two
    matmuls, reshapes, add, leaky_relu, row_softmax_masked, matmul and
    relu; hw gets its aggregation gradient first, then the source and
    destination score gradients.
    """
    vh = hw.values
    k, d = vh.shape
    if a.shape != (2 * d,):
        raise ShapeError(f"attention vector {a.shape} does not fit width {d}")
    keep = _keep_mask(adjacency, (k, k), "attention_round")
    # copies, as `slice_rows` makes: the products see the chain's operands
    a_src, a_dst = a.values[:d].copy(), a.values[d:].copy()
    pair = (vh @ a_src).reshape(k, 1) + (vh @ a_dst).reshape(1, k)
    scale = _leaky_scale(pair, negative_slope)
    att = _softmax_rows(pair * scale, keep)
    mixed = att @ vh
    out_values = _relu(mixed) if relu else mixed

    def backward(g):
        if relu:
            g = g * _positive(mixed)
            g += 0.0
        g_att = g @ vh.T + 0.0
        g_pair = (_softmax_rows_grad(att, g_att) + 0.0) * scale + 0.0
        g_src = _unbroadcast(g_pair, (k, 1)).reshape(k) + 0.0
        g_dst = _unbroadcast(g_pair, (1, k)).reshape(k) + 0.0
        if hw.requires_grad:
            hw.accumulate(att.T @ g, fresh=True)
            # the two rank-1 products, one after the other in one buffer
            rank1 = np.multiply.outer(g_src, a_src)
            hw.accumulate(rank1)
            hw.accumulate(np.multiply.outer(g_dst, a_dst, out=rank1))
        if a.requires_grad:
            g_a = np.empty(2 * d)
            np.add(vh.T @ g_src, 0.0, out=g_a[:d])
            np.add(vh.T @ g_dst, 0.0, out=g_a[d:])
            a.accumulate(g_a, fresh=True)

    return _result(out_values, (hw, a), backward)


def softmax_readout(h: Tensor, q: Tensor, b: Tensor, relu: bool) -> Tensor:
    """Row softmax of act(h @ q + b) for rows h (K, d), weights q (d, N)
    and a bias b that broadcasts to (K, N); act is relu or the identity.
    Bit-equal, forward and backward, to matmul, add, relu and
    row_softmax_masked under an all-ones mask."""
    vh, vq = h.values, q.values
    if vh.ndim != 2 or vq.ndim != 2:
        raise ShapeError(f"softmax_readout: expected matrices, got {vh.shape} and {vq.shape}")
    if vh.shape[1] != vq.shape[0]:
        raise ShapeError(f"softmax_readout: inner dims differ, {vh.shape} @ {vq.shape}")
    logits = vh @ vq
    if (_check_broadcast("softmax_readout", logits, b) or logits.shape) != logits.shape:
        raise ShapeError(f"softmax_readout: bias {b.shape} does not fit logits {logits.shape}")
    logits = logits + b.values
    s = _softmax_rows(_relu(logits) if relu else logits)

    def backward(g):
        g = _softmax_rows_grad(s, g) + 0.0
        if relu:
            g *= _positive(logits)
            g += 0.0
        if h.requires_grad:
            h.accumulate(g @ vq.T, fresh=True)
        if q.requires_grad:
            q.accumulate(vh.T @ g, fresh=True)
        if b.requires_grad:
            b.accumulate(_unbroadcast(g, b.shape))

    return _result(s, (h, q, b), backward)


def _check_association(op, s, demand):
    if s.values.ndim != 2 or np.shape(demand) != s.shape:
        raise ShapeError(f"{op}: association {s.shape} and demand {np.shape(demand)} differ")


def gated_load_cost(s: Tensor, demand: np.ndarray, capacity: float, on_const: float,
                    on_slope: float, offset: float) -> Tensor:
    """sum_n gate_n (on_slope eta_n + on_const) + offset for an association
    s (K, N) and a demand of the same shape: gate is
    `complement_product_gate(s)` and eta_n = clip(load_n / capacity, 0, 1)
    with load the column sums of s * demand. Bit-equal, forward and
    backward, to multiply, transpose, row_sum, scale, clamp, the gate,
    scale, add, multiply, sum_all and add; s gets its gate gradient first,
    then its load gradient."""
    _check_association("gated_load_cost", s, demand)
    vs = s.values
    n = vs.shape[1]
    per_capacity = float(1.0 / capacity)
    scaled = (vs * demand).T.sum(axis=1) * per_capacity
    inside = (scaled >= 0.0) & (scaled <= 1.0)
    slope = float(on_slope)
    per_cell = np.clip(scaled, 0.0, 1.0) * slope + np.full(n, on_const)
    q = 1.0 - vs
    gate = 1.0 - q.prod(axis=0)

    def backward(g):
        g_cells = np.full(n, float(g) + 0.0)
        g_gate = g_cells * per_cell + 0.0
        g_per_cell = g_cells * gate + 0.0
        prefix, suffix = _leave_one_out_products(q)
        s.accumulate(g_gate[None, :] * prefix * suffix, fresh=True)
        g_load = ((g_per_cell * slope + 0.0) * inside + 0.0) * per_capacity + 0.0
        s.accumulate(g_load[None, :] * demand)

    return _result((gate * per_cell).sum() + np.asarray(offset), (s,), backward)


def association_penalties(s: Tensor, demand: np.ndarray, lambda1: float,
                          lambda2: float) -> Tensor:
    """The weighted regularisers of an association s (K, N), one entry per
    positive weight, in this order: lambda1 (K - Tr(s s^T)) and
    lambda2 |p_hat|_2, p_hat being the column sums of s * demand. Bit-equal,
    forward and backward, to trace_of_gram, scale, add and scale, then
    multiply, transpose, row_sum, l2_norm and scale; s gets the trace
    gradient first."""
    _check_association("association_penalties", s, demand)
    vs = s.values
    lambda1, lambda2 = float(lambda1), float(lambda2)
    terms = []
    if lambda1 > 0.0:
        terms.append((float(vs.shape[0]) + (vs**2).sum() * -1.0) * lambda1)
    if lambda2 > 0.0:
        p_hat = (vs * demand).T.sum(axis=1)
        norm = float(np.sqrt((p_hat**2).sum()))
        terms.append(norm * lambda2)

    def backward(g):
        if lambda1 > 0.0:
            g_trace = (float(g[0]) * lambda1 + 0.0) * -1.0 + 0.0
            s.accumulate(2.0 * g_trace * vs)
        if lambda2 > 0.0 and norm > 0.0:
            g_hat = (float(g[-1]) * lambda2 + 0.0) * p_hat / norm + 0.0
            s.accumulate(g_hat[None, :] * demand)

    return _result(np.array(terms), (s,), backward)


def add_terms(total: Tensor, terms: Tensor) -> Tensor:
    """A scalar total plus each entry of the vector terms, added left to
    right as a chain of `add` nodes would. The total comes first among the
    parents, so `backward` runs the total's own rule before that of the
    node that made the terms."""
    if total.shape != () or terms.values.ndim != 1:
        raise ShapeError(f"add_terms: expected a scalar and a vector, got {total.shape} and {terms.shape}")
    value = total.values
    for t in terms.values:
        value = value + t

    def backward(g):
        if total.requires_grad:
            total.accumulate(g)
        if terms.requires_grad:
            terms.accumulate(np.full(terms.shape, float(g)))

    return _result(value, (total, terms), backward)


# ---------------------------------------------------------------------------
# reverse pass


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
    """Populate .grad for every tensor the scalar loss depends on.

    Leaf tensors (parameters) add each call's gradient to what they hold,
    so calling backward again on the same graph, or on a new graph over
    the same parameters, adds the gradient once more; use zero_grad()
    between steps. Intermediate nodes start from no gradient on every
    call.
    """
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
# packed parameters


def pack(arrays) -> np.ndarray:
    """A new 1-D float64 buffer holding the arrays back to back, each in
    C order."""
    return np.concatenate([np.ravel(a) for a in arrays], dtype=np.float64)


def unpack(flat: np.ndarray, shapes) -> list:
    """Views of the 1-D buffer flat, one per shape, back to back."""
    views, start = [], 0
    for shape in shapes:
        stop = start + math.prod(shape)
        views.append(flat[start:stop].reshape(shape))
        start = stop
    return views


def attach_grad_slots(tensors) -> np.ndarray:
    """A new gradient buffer laid out like `pack` of the tensors' values.

    Each tensor's `grad_slot` becomes its view of the buffer, and a
    gradient the tensor already holds is copied into it. Setting the
    slots back to None releases the buffer.
    """
    buf = np.empty(sum(t.values.size for t in tensors))
    for t, slot in zip(tensors, unpack(buf, [t.shape for t in tensors])):
        t.grad_slot = slot
        if t.grad is not None:
            slot[...] = t.grad
            t.grad = slot
    return buf


# ---------------------------------------------------------------------------
# optimizer

# Adam's denominator term: added to the root of the second moment
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Bias-corrected Adam's step counter and its two moments, each one
    1-D float64 buffer laid out like the parameter buffer it steps."""

    lr: float = 5e-5
    beta1: float = 0.9
    beta2: float = 0.999
    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None

    @classmethod
    def for_params(cls, flat: Tensor, lr=5e-5, beta1=0.9, beta2=0.999):
        """Zero moments for the packed parameter buffer `flat`."""
        return cls(
            lr=lr, beta1=beta1, beta2=beta2,
            m=np.zeros_like(flat.values), v=np.zeros_like(flat.values),
        )

    def to_dict(self, shapes, deferred: bool = False):
        """JSON-ready state: the step and each moment as one array per
        parameter, the buffer's views of `shapes` in order; with `deferred`,
        their base64 text is left to `codec.write_json`
        (`codec.encode_array`). The settings are the stamped run config's."""
        return {
            "step": self.step,
            "m": [encode_array(buf, deferred) for buf in unpack(self.m, shapes)],
            "v": [encode_array(buf, deferred) for buf in unpack(self.v, shapes)],
        }

    @classmethod
    def from_dict(cls, d, train, shapes, where: str = "adam"):
        """The state `to_dict(shapes)` wrote, stepping by the `lr`, `beta1`
        and `beta2` of `train` (a `training.TrainConfig`), each moment
        decoded into one buffer (`codec.decode_packed`). Moments not shaped
        as `shapes` raise ConfigError naming `where`, as decoding does."""
        moments, wanted = [], [list(shape) for shape in shapes]
        for key in ("m", "v"):
            moments.append(decode_packed(d[key], f"{where}.{key}"))
            if [entry["shape"] for entry in d[key]] != wanted:
                raise ConfigError(f"{where}.{key} is not shaped as the parameters, {wanted}")
        return cls(train.lr, train.beta1, train.beta2, d["step"], *moments)


# Elements per Adam block. Two scratch blocks of 256 KB stay in cache and
# are allocated once per step, where scratch the size of a 512x512 weight
# (2 MB each) was faulted back in from the OS every step.
_ADAM_BLOCK = 32768


def adam_step(param: Tensor, grad: np.ndarray, state: AdamState):
    """One in-place bias-corrected Adam update of a 1-D parameter buffer.

    The moments and the parameter are updated in place, one operation at
    a time in the order of
    m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g**2;
    p -= lr (m / (1 - b1**t)) / (sqrt(v / (1 - b2**t)) + eps),
    so the bits equal those of the expressions written out. The buffers
    are walked in slices of at most `_ADAM_BLOCK` elements, and every
    slice runs the whole sequence through two scratch arrays of one block
    each, allocated once per call. Adam is elementwise, so the blocking
    does not change a bit. The gradient is not written to.
    """
    p = param.values
    for key, buf in (("grad", grad), ("adam.m", state.m), ("adam.v", state.v)):
        if p.ndim != 1 or np.shape(buf) != p.shape:
            raise ShapeError(
                f"adam_step: {key} is shaped {np.shape(buf)}, the parameter buffer {p.shape}"
            )
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    bias1, bias2 = 1.0 - b1**t, 1.0 - b2**t
    scratch1, scratch2 = np.empty(_ADAM_BLOCK), np.empty(_ADAM_BLOCK)
    g = np.asarray(grad, dtype=np.float64)
    for start in range(0, p.size, _ADAM_BLOCK):
        block = slice(start, start + _ADAM_BLOCK)
        pb, gb, mb, vb = p[block], g[block], state.m[block], state.v[block]
        s1, s2 = scratch1[: pb.size], scratch2[: pb.size]
        np.multiply(mb, b1, out=mb)
        np.multiply(gb, 1.0 - b1, out=s1)
        np.add(mb, s1, out=mb)
        np.square(gb, out=s1)
        np.multiply(s1, 1.0 - b2, out=s1)
        np.multiply(vb, b2, out=vb)
        np.add(vb, s1, out=vb)
        np.divide(mb, bias1, out=s1)
        np.divide(vb, bias2, out=s2)
        np.sqrt(s2, out=s2)
        np.add(s2, ADAM_EPS, out=s2)
        np.multiply(s1, state.lr, out=s1)
        np.divide(s1, s2, out=s1)
        np.subtract(pb, s1, out=pb)
