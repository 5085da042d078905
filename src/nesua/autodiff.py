"""The loss gradient of one train step, written out, and Adam.

A train step always runs the same chain of eight ops: per GAT layer a
transform `linear` and an `attention_round` (score, mask, softmax and
aggregate), then `softmax_readout`, and the loss's `gated_load_cost` (the
network power), `association_penalties` (the two regularisers) and
`add_terms`. Each op is a numpy forward that returns its values; given a
list `saved`, it also appends a record of what its backward rule needs.
`backward(saved, grad)` is the chain's reverse pass in a fixed order, with
no tape: it runs each op's backward rule (`linear_backward`, ...) once and
writes every parameter's gradient into its view of `grad`, one buffer laid
out like the packed parameters (`pack`, `unpack`). Every slot of `grad` is
overwritten on every call.

The rules reproduce, bit for bit, the chains of primitive ops they stand
for (which live on in the tests as references, with the reverse-mode tape
that ran them): each first gradient of an intermediate is normalised with
`+ 0.0`, so -0.0 lands as +0.0 exactly as if it were added to zeros, and a
value that several products reach gets them in the tape's order. The
transformed features of a layer get the aggregation gradient, then the
source and destination score gradients; the association gets the gate,
load, trace and load-norm gradients, in that order.

Every forward also takes its array arguments with a leading instance
axis, (B, K, d) for (K, d), and returns the values of the B instances
stacked, each with the bits of its own 2-D call: matrix products are
numpy's stacked `@`, which calls BLAS once per instance (flattening to
(B*K, d) would block the rows otherwise and change bits), sums over UEs
reduce `axis=-2` and softmaxes run over `axis=-1`. Backward rules read one
instance's records, so a stacked call with `saved` raises ShapeError.

`AdamState` keeps Adam's step counter and its two moments, each one more
buffer of the parameter layout, and one `adam_step` over the four buffers
updates every parameter under the `train` section's settings.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .codec import decode_packed, encode_array
from .errors import ConfigError, ShapeError

# What each op's backward rule reads: the op's arguments, then the
# intermediates of its forward.
Linear = namedtuple("Linear", "x w")
Attention = namedtuple(
    "Attention", "hw a keep negative_slope relu a_src a_dst scale att mixed"
)
Readout = namedtuple("Readout", "h q b relu logits s")
LoadCost = namedtuple(
    "LoadCost", "s demand capacity on_const on_slope offset scaled q gate per_cell"
)
Penalties = namedtuple("Penalties", "s demand lambda1 lambda2 p_hat norm")
Terms = namedtuple("Terms", "n")


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


def _softmax_rows(x, keep=None):
    """Softmax of each row of x over its kept entries (all when keep is None)."""
    shifted = x if keep is None else np.where(keep, x, -np.inf)
    shifted = shifted - np.maximum.reduce(shifted, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def _softmax_rows_grad(s, g):
    """Gradient at the input of a row softmax whose output is s."""
    dot = np.add.reduce(g * s, axis=1, keepdims=True)
    return s * (g - dot)


def _leave_one_out_products(q):
    """Per column of q, the products of the entries above and below each
    row (prefix, suffix): their product leaves that row's factor out, and
    is exact even when some factor is 0."""
    prefix = np.ones(q.shape)
    suffix = np.ones(q.shape)
    if q.shape[0] > 1:
        prefix[1:] = q[:-1].cumprod(axis=0)
        suffix[:-1] = q[::-1].cumprod(axis=0)[-2::-1]
    return prefix, suffix


def _stacked(op, shape):
    """The error for an op given `saved` and a stacked input: backward
    rules read one instance."""
    return ShapeError(f"{op}: a stacked input {shape} cannot be recorded for backward")


# ---------------------------------------------------------------------------
# the ops of a step: forward, then backward rule


def linear(x, w, saved=None):
    """x @ w.T for rows x (..., K, d_in) and a weight matrix w (d_out, d_in)."""
    if x.ndim < 2 or w.ndim != 2:
        raise ShapeError(f"linear: expected matrices, got {x.shape} and {w.shape}")
    if x.shape[-1] != w.shape[1]:
        raise ShapeError(f"linear: widths differ, {x.shape} vs weight {w.shape}")
    if saved is not None and x.ndim > 2:
        raise _stacked("linear", x.shape)
    if saved is not None:
        saved.append(Linear(x, w))
    return x @ w.T


def linear_backward(rec, g, g_w, want_x=True):
    """Write the weight gradient g.T @ x into g_w; return the input's
    gradient g @ w, or None without `want_x`."""
    np.matmul(g.T, rec.x, out=g_w)
    g_w += 0.0
    if want_x:
        g_x = g @ rec.w
        g_x += 0.0
        return g_x
    return None


def attention_round(hw, a, adjacency, negative_slope, relu, saved=None):
    """One graph attention round over transformed node features hw (..., K, d).

    The scorer a (2d,) splits into a source and a destination half, so
    the K-by-K pair scores are the broadcast sum of two length-K
    projections, hw a_src + (hw a_dst)^T. The round returns
    act(softmax(leaky_relu(scores)) @ hw): the softmax runs over each row's
    neighbours, the True entries of the bool mask `adjacency`, at least one
    per row (`GraphInstance` checks that), and act is relu or the identity.
    A stacked hw takes a mask (..., K, K) with the same leading axes.
    """
    k, d = hw.shape[-2:]
    if a.shape != (2 * d,):
        raise ShapeError(f"attention vector {a.shape} does not fit width {d}")
    if adjacency.shape != hw.shape[:-1] + (k,):
        raise ShapeError(
            f"attention_round: mask {adjacency.shape} vs input {hw.shape[:-1] + (k,)}"
        )
    if saved is not None and hw.ndim > 2:
        raise _stacked("attention_round", hw.shape)
    # copies, as the primitive chain's slices were: the products see
    # operands of their own
    a_src, a_dst = a[:d].copy(), a[d:].copy()
    pair = (hw @ a_src)[..., :, None] + (hw @ a_dst)[..., None, :]
    scale = _leaky_scale(pair, negative_slope)
    att = _softmax_rows(pair * scale, adjacency)
    mixed = att @ hw
    if saved is not None:
        saved.append(Attention(hw, a, adjacency, negative_slope, relu, a_src, a_dst, scale, att, mixed))
    return _relu(mixed) if relu else mixed


def attention_round_backward(rec, g, g_a):
    """Write the scorer's gradient into g_a; return that of hw: the
    aggregation gradient, plus the source, plus the destination score
    gradient."""
    vh, att = rec.hw, rec.att
    k, d = vh.shape
    if rec.relu:
        g = g * _positive(rec.mixed)
        g += 0.0
    g_att = g @ vh.T + 0.0
    g_pair = (_softmax_rows_grad(att, g_att) + 0.0) * rec.scale + 0.0
    g_src = np.add.reduce(g_pair, axis=1) + 0.0
    g_dst = np.add.reduce(g_pair, axis=0) + 0.0
    g_hw = att.T @ g
    g_hw += 0.0
    # the two rank-1 products, one after the other in one buffer
    rank1 = np.multiply.outer(g_src, rec.a_src)
    g_hw += rank1
    g_hw += np.multiply.outer(g_dst, rec.a_dst, out=rank1)
    np.add(vh.T @ g_src, 0.0, out=g_a[:d])
    np.add(vh.T @ g_dst, 0.0, out=g_a[d:])
    return g_hw


def softmax_readout(h, q, b, relu, saved=None):
    """Row softmax of act(h @ q + b) for rows h (..., K, d), weights q (d, N)
    and a bias b (N,); act is relu or the identity."""
    if h.ndim < 2 or q.ndim != 2:
        raise ShapeError(f"softmax_readout: expected matrices, got {h.shape} and {q.shape}")
    if h.shape[-1] != q.shape[0]:
        raise ShapeError(f"softmax_readout: inner dims differ, {h.shape} @ {q.shape}")
    if b.shape != (q.shape[1],):
        raise ShapeError(f"softmax_readout: bias {b.shape} does not fit {q.shape[1]} cells")
    if saved is not None and h.ndim > 2:
        raise _stacked("softmax_readout", h.shape)
    logits = h @ q + b
    s = _softmax_rows(_relu(logits) if relu else logits)
    if saved is not None:
        saved.append(Readout(h, q, b, relu, logits, s))
    return s


def softmax_readout_backward(rec, g, g_q, g_b):
    """Write the gradients of q and b into g_q and g_b; return that of h."""
    g = _softmax_rows_grad(rec.s, g) + 0.0
    if rec.relu:
        g *= _positive(rec.logits)
        g += 0.0
    np.matmul(rec.h.T, g, out=g_q)
    g_q += 0.0
    np.add(np.add.reduce(g, axis=0), 0.0, out=g_b)
    g_h = g @ rec.q.T
    g_h += 0.0
    return g_h


def _check_association(op, s, demand, saved):
    if s.ndim < 2 or np.shape(demand) != s.shape:
        raise ShapeError(f"{op}: association {s.shape} and demand {np.shape(demand)} differ")
    if saved is not None and s.ndim > 2:
        raise _stacked(op, s.shape)


def gated_load_cost(s, demand, capacity, on_const, on_slope, offset, saved=None):
    """sum_n gate_n (on_slope eta_n + on_const) + offset for an association
    s (K, N) and a demand of the same shape: gate_n = 1 - prod_k (1 - s_kn)
    is 0 for an empty column and 1 as soon as an entry is 1, and
    eta_n = clip(load_n / capacity, 0, 1) with load the column sums of
    s * demand. A stacked s (..., K, N) gives one cost per instance."""
    _check_association("gated_load_cost", s, demand, saved)
    scaled = np.add.reduce(s * demand, axis=-2) * float(1.0 / capacity)
    per_cell = scaled.clip(0.0, 1.0) * float(on_slope) + float(on_const)
    q = 1.0 - s
    gate = 1.0 - np.multiply.reduce(q, axis=-2)
    if saved is not None:
        saved.append(LoadCost(s, demand, capacity, on_const, on_slope, offset, scaled, q,
                              gate, per_cell))
    return np.add.reduce(gate * per_cell, axis=-1) + np.asarray(offset)


def gated_load_cost_backward(rec, g):
    """The gradient of s for an upstream gradient g: the gate's, then the
    load's added to it."""
    g = float(g) + 0.0  # the same for every cell
    g_gate = rec.per_cell * g + 0.0
    g_per_cell = rec.gate * g + 0.0
    prefix, suffix = _leave_one_out_products(rec.q)
    g_s = g_gate[None, :] * prefix * suffix
    g_s += 0.0
    inside = (rec.scaled >= 0.0) & (rec.scaled <= 1.0)  # clip's pass-through
    g_load = (
        ((g_per_cell * float(rec.on_slope) + 0.0) * inside + 0.0)
        * float(1.0 / rec.capacity) + 0.0
    )
    g_s += g_load[None, :] * rec.demand
    return g_s


def association_penalties(s, demand, lambda1, lambda2, saved=None):
    """The weighted regularisers of an association s (K, N), one entry per
    positive weight, in this order: lambda1 (K - Tr(s s^T)) and
    lambda2 |p_hat|_2, p_hat being the column sums of s * demand. For a
    stacked s (..., K, N), each entry holds one value per instance."""
    _check_association("association_penalties", s, demand, saved)
    lambda1, lambda2 = float(lambda1), float(lambda2)
    terms, p_hat, norm = [], None, 0.0
    if lambda1 > 0.0:
        sharpness = float(s.shape[-2]) + np.add.reduce(s**2, axis=(-2, -1)) * -1.0
        terms.append(sharpness * lambda1)
    if lambda2 > 0.0:
        p_hat = np.add.reduce(s * demand, axis=-2)
        norm = np.sqrt(np.add.reduce(p_hat**2, axis=-1))
        terms.append(norm * lambda2)
    if saved is not None:
        saved.append(Penalties(s, demand, lambda1, lambda2, p_hat, float(norm)))
    return np.array(terms) if terms else np.zeros((0, *s.shape[:-2]))


def association_penalties_backward(rec, g, g_s):
    """Add the gradients of s for the upstream gradients g of the terms to
    g_s in place: the trace term's, then the load norm's."""
    if rec.lambda1 > 0.0:
        g_trace = (float(g[0]) * rec.lambda1 + 0.0) * -1.0 + 0.0
        g_s += 2.0 * g_trace * rec.s
    if rec.lambda2 > 0.0 and rec.norm > 0.0:
        g_hat = (float(g[-1]) * rec.lambda2 + 0.0) * rec.p_hat / rec.norm + 0.0
        g_s += g_hat[None, :] * rec.demand


def add_terms(total, terms, saved=None):
    """A scalar total plus each entry of the vector terms, left to right;
    a stacked total (B,) takes terms (n, B), one value per instance each."""
    lead, shape = np.shape(total), np.shape(terms)
    if not shape or shape[1:] != lead:
        raise ShapeError(
            f"add_terms: expected a scalar and a vector, or their stacks, "
            f"got {lead} and {shape}"
        )
    if saved is not None and lead:
        raise _stacked("add_terms", lead)
    value = total
    for t in terms:
        value = value + t
    if saved is not None:
        saved.append(Terms(len(terms)))
    return value


def add_terms_backward(rec, g):
    """The upstream gradient g passed on: to the total, and to every term."""
    return float(g) + 0.0, np.full(rec.n, float(g))


# ---------------------------------------------------------------------------
# reverse pass


def loss_backward(records):
    """The loss's gradient at the association, from the records of its
    ops: the power's alone, or the power's, penalties' and their sum's."""
    power, *rest = records
    g_total = 1.0
    if rest:
        penalties, terms = rest
        g_total, g_terms = add_terms_backward(terms, g_total)
    g_s = gated_load_cost_backward(power, g_total)
    if rest:
        association_penalties_backward(penalties, g_terms, g_s)
    return g_s


def backward(saved, grad):
    """Write the gradient of a train step's loss into `grad`.

    `saved` holds the records of the step's ops in forward order: a
    `linear` and an `attention_round` per layer, the `softmax_readout`,
    then the loss's (`loss_backward`). `grad` is laid out like the packed
    parameters (`gat.param_shapes`): each layer's W and a, then the
    readout's Q and B; every element of it is written.
    """
    lin1, att1, lin2, att2, head, *loss = saved
    g_w1, g_a1, g_w2, g_a2, g_q, g_b = unpack(
        grad, [r.shape for r in (lin1.w, att1.a, lin2.w, att2.a, head.q, head.b)]
    )
    g_h = softmax_readout_backward(head, loss_backward(loss), g_q, g_b)
    g_h = linear_backward(lin2, attention_round_backward(att2, g_h, g_a2), g_w2)
    linear_backward(lin1, attention_round_backward(att1, g_h, g_a1), g_w1, want_x=False)


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


# ---------------------------------------------------------------------------
# optimizer

# Adam's denominator term: added to the root of the second moment
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Bias-corrected Adam's step counter and its two moments, each one
    1-D float64 buffer laid out like the parameter buffer it steps. The
    settings are the `train` section's (`adam_step`)."""

    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None

    @classmethod
    def for_params(cls, flat: np.ndarray):
        """Zero moments for the packed parameter buffer `flat`."""
        return cls(m=np.zeros_like(flat), v=np.zeros_like(flat))

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
    def from_dict(cls, d, shapes, where: str = "adam"):
        """The state `to_dict(shapes)` wrote, each moment decoded into one
        buffer (`codec.decode_packed`). Moments not shaped as `shapes` raise
        ConfigError naming `where`, as decoding does."""
        moments, wanted = [], [list(shape) for shape in shapes]
        for key in ("m", "v"):
            moments.append(decode_packed(d[key], f"{where}.{key}"))
            if [entry["shape"] for entry in d[key]] != wanted:
                raise ConfigError(f"{where}.{key} is not shaped as the parameters, {wanted}")
        return cls(d["step"], *moments)


# Elements per Adam block. Two scratch blocks of 256 KB stay in cache and
# are allocated once per step, where scratch the size of a 512x512 weight
# (2 MB each) was faulted back in from the OS every step.
ADAM_BLOCK = 32768


def adam_step(p: np.ndarray, grad: np.ndarray, state: AdamState, train):
    """One in-place bias-corrected Adam update of a 1-D parameter buffer,
    stepping by the `lr`, `beta1` and `beta2` of `train` (a
    `training.TrainConfig`).

    The moments and the parameter are updated in place, one operation at
    a time in the order of
    m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g**2;
    p -= lr (m / (1 - b1**t)) / (sqrt(v / (1 - b2**t)) + eps),
    so the bits equal those of the expressions written out. The buffers
    are walked in slices of at most `ADAM_BLOCK` elements, and every
    slice runs the whole sequence through two scratch arrays of at most one
    block each, allocated once per call. Adam is elementwise, so the blocking
    does not change a bit. The gradient is not written to.
    """
    for key, buf in (("grad", grad), ("adam.m", state.m), ("adam.v", state.v)):
        if p.ndim != 1 or np.shape(buf) != p.shape:
            raise ShapeError(
                f"adam_step: {key} is shaped {np.shape(buf)}, the parameter buffer {p.shape}"
            )
    state.step += 1
    t = state.step
    b1, b2 = train.beta1, train.beta2
    bias1, bias2 = 1.0 - b1**t, 1.0 - b2**t
    scratch1, scratch2 = np.empty(min(p.size, ADAM_BLOCK)), np.empty(min(p.size, ADAM_BLOCK))
    g = np.asarray(grad, dtype=np.float64)
    for start in range(0, p.size, ADAM_BLOCK):
        block = slice(start, start + ADAM_BLOCK)
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
        np.multiply(s1, train.lr, out=s1)
        np.divide(s1, s2, out=s1)
        np.subtract(pb, s1, out=pb)
