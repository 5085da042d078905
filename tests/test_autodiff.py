"""The tape reference's own gradient and contract checks, and Adam.

The straight-line step (`ad.backward`) is held to the reverse-mode tape in
`helpers` bit for bit (`test_straight_line_step.py`); these tests check the
tape and its primitives against finite differences and their contracts.
"""

import tracemalloc

import numpy as np
import pytest

from nesua import autodiff as ad
from nesua.errors import ContractError, ShapeError
from nesua.training import TrainConfig

import helpers as tape
from helpers import check_grad, reference_adam_step


def test_add_subtract_multiply_gradients():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.normal(size=(4, 3))
        b = rng.normal(size=(4, 3))
        check_grad(lambda t: tape.sum_all(tape.add(t[0], t[1])), [a, b])
        check_grad(lambda t: tape.sum_all(tape.subtract(t[0], t[1])), [a, b])
        check_grad(lambda t: tape.sum_all(tape.multiply(t[0], t[1])), [a, b])


def test_broadcast_gradients():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(5, 4))
    row = rng.normal(size=(1, 4))
    col = rng.normal(size=(5, 1))
    vec = rng.normal(size=(4,))
    check_grad(lambda t: tape.sum_all(tape.add(t[0], t[1])), [a, row])
    check_grad(lambda t: tape.sum_all(tape.multiply(t[0], t[1])), [a, col])
    check_grad(lambda t: tape.sum_all(tape.add(t[0], t[1])), [a, vec])
    # outer-product style broadcast (K,1) + (1,K)
    u = rng.normal(size=(6, 1))
    v = rng.normal(size=(1, 6))
    check_grad(
        lambda t: tape.sum_all(tape.multiply(tape.add(t[0], t[1]), tape.add(t[0], t[1]))), [u, v]
    )


def test_shape_mismatch_raises():
    a = tape.constant(np.zeros((3, 4)))
    b = tape.constant(np.zeros((2, 5)))
    with pytest.raises(ShapeError):
        tape.add(a, b)
    with pytest.raises(ShapeError):
        tape.matmul(a, b)
    with pytest.raises(ShapeError):
        tape.transpose(tape.constant(np.zeros(3)))


def test_matmul_gradients():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = rng.normal(size=(4, 6))
        b = rng.normal(size=(6, 3))
        check_grad(lambda t: tape.sum_all(tape.matmul(t[0], t[1])), [a, b])
    # matrix @ vector
    a = rng.normal(size=(5, 7))
    v = rng.normal(size=(7,))
    check_grad(lambda t: tape.sum_all(tape.matmul(t[0], t[1])), [a, v])


@pytest.mark.parametrize(
    "k, d_in, d_out", [(1, 21, 512), (50, 1, 512), (50, 21, 512), (50, 512, 512)]
)
def test_linear_is_bit_equal_to_matmul_of_transpose(k, d_in, d_out):
    rng = np.random.default_rng(k + d_in + d_out)
    x_values = rng.normal(size=(k, d_in))
    w_values = rng.normal(size=(d_out, d_in))
    upstream = tape.constant(rng.normal(size=(k, d_out)))
    x, w = tape.parameter(x_values.copy()), tape.parameter(w_values.copy())
    x_ref, w_ref = tape.parameter(x_values.copy()), tape.parameter(w_values.copy())
    out = tape.linear(x, w)
    out_ref = tape.matmul(x_ref, tape.transpose(w_ref))
    assert out.values.tobytes() == out_ref.values.tobytes()
    tape.backward(tape.sum_all(tape.multiply(out, upstream)))
    tape.backward(tape.sum_all(tape.multiply(out_ref, upstream)))
    assert x.grad.tobytes() == x_ref.grad.tobytes()
    assert w.grad.tobytes() == w_ref.grad.tobytes()
    # the adopted products are C-ordered buffers of their own, and the
    # backward of a second forward adds into them in place
    buffers = x.grad, w.grad
    for buf in buffers:
        assert buf.flags.c_contiguous and buf.flags.owndata
    out = tape.linear(x, w)
    out_ref = tape.matmul(x_ref, tape.transpose(w_ref))
    tape.backward(tape.sum_all(tape.multiply(out, upstream)))
    tape.backward(tape.sum_all(tape.multiply(out_ref, upstream)))
    assert x.grad is buffers[0] and w.grad is buffers[1]
    assert x.grad.tobytes() == x_ref.grad.tobytes()
    assert w.grad.tobytes() == w_ref.grad.tobytes()


def test_linear_gradients_and_shape_errors():
    rng = np.random.default_rng(11)
    for _ in range(10):
        x = rng.normal(size=(5, 4))
        w = rng.normal(size=(3, 4))
        check_grad(lambda t: tape.trace_of_gram(tape.linear(t[0], t[1])), [x, w])
    x = tape.constant(np.zeros((5, 4)))
    with pytest.raises(ShapeError):
        tape.linear(tape.constant(np.zeros(4)), tape.constant(np.zeros((3, 4))))
    with pytest.raises(ShapeError):
        tape.linear(x, tape.constant(np.zeros(4)))
    with pytest.raises(ShapeError):
        tape.linear(x, tape.constant(np.zeros((3, 5))))


def test_accumulate_gives_a_fresh_c_ordered_buffer():
    x = tape.parameter(np.arange(6.0).reshape(2, 3))
    xt = tape.transpose(x)
    assert not xt.values.flags.c_contiguous
    tape.backward(tape.trace_of_gram(xt))  # its gradient is an F-ordered array
    assert xt.grad.flags.c_contiguous and xt.grad.flags.owndata
    assert x.grad.flags.c_contiguous and x.grad.flags.owndata
    np.testing.assert_array_equal(xt.grad, 2.0 * xt.values)
    np.testing.assert_array_equal(x.grad, 2.0 * x.values)


def test_accumulate_first_negative_zero_lands_as_positive_zero():
    x = tape.parameter(np.array([1.0, 2.0]))
    x.accumulate(np.array([-0.0, -0.0]))
    assert not np.signbit(x.grad).any()
    # an adopted fresh product gets the same + 0.0, in place
    fresh = tape.parameter(np.array([1.0, 2.0]))
    product = np.array([-0.0, -0.0])
    fresh.accumulate(product, fresh=True)
    assert fresh.grad is product and not np.signbit(fresh.grad).any()
    y = tape.parameter(np.array([1.0, 2.0]))
    tape.backward(tape.sum_all(tape.multiply(y, tape.constant(np.array([-0.0, 3.0])))))
    assert y.grad.tobytes() == np.array([0.0, 3.0]).tobytes()


def test_add_parents_get_distinct_gradient_buffers():
    a = tape.parameter(np.ones((2, 3)))
    b = tape.parameter(np.ones((2, 3)))
    out = tape.add(a, b)
    tape.backward(tape.sum_all(out))
    for one, other in ((a, b), (a, out), (b, out)):
        assert not np.shares_memory(one.grad, other.grad)
    a.grad += 1.0
    np.testing.assert_array_equal(b.grad, np.ones((2, 3)))
    c = tape.parameter(np.ones(6))
    view = tape.reshape(c, (2, 3))
    tape.backward(tape.sum_all(view))
    assert not np.shares_memory(c.grad, view.grad)


def test_transpose_reshape_slice_concat_gradients():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 6))
    check_grad(
        lambda t: tape.sum_all(tape.multiply(tape.transpose(t[0]), tape.transpose(t[0]))), [a]
    )
    check_grad(
        lambda t: tape.sum_all(
            tape.multiply(tape.reshape(t[0], (2, 12)), tape.reshape(t[0], (2, 12)))
        ),
        [a],
    )
    check_grad(lambda t: tape.trace_of_gram(tape.slice_rows(t[0], 1, 3)), [a])
    b = rng.normal(size=(4, 2))
    check_grad(lambda t: tape.trace_of_gram(tape.concat([t[0], t[1]], axis=1)), [a, b])
    check_grad(lambda t: tape.trace_of_gram(tape.concat([t[0], t[1]], axis=0)), [a, a.copy()])


def test_nonlinearity_gradients():
    rng = np.random.default_rng(4)
    for _ in range(20):
        # keep probes away from the kinks so finite differences are clean
        x = rng.normal(size=(5, 4))
        x[np.abs(x) < 0.05] += 0.1
        check_grad(lambda t: tape.sum_all(tape.relu(t[0])), [x])
        check_grad(lambda t: tape.sum_all(tape.leaky_relu(t[0], 0.2)), [x])
        check_grad(lambda t: tape.sum_all(tape.exp(tape.scale(t[0], 0.3))), [x])
        xc = x.copy()
        xc[np.abs(xc - 1.0) < 0.05] += 0.1
        xc[np.abs(xc + 1.0) < 0.05] += 0.1
        check_grad(lambda t: tape.trace_of_gram(tape.clamp(t[0], -1.0, 1.0)), [xc])


def test_leaky_relu_values():
    x = tape.constant(np.array([-2.0, -0.5, 0.0, 0.5, 2.0]))
    out = tape.leaky_relu(x, 0.2)
    np.testing.assert_allclose(out.values, [-0.4, -0.1, 0.0, 0.5, 2.0])


def test_masked_softmax_values_and_gradient():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 5))
    mask = rng.integers(0, 2, size=(4, 5)).astype(float)
    mask[:, 0] = 1.0  # every row keeps one entry
    out = tape.row_softmax_masked(tape.constant(x), mask)
    assert np.all(out.values[mask == 0] == 0.0)
    np.testing.assert_allclose(out.values.sum(axis=1), np.ones(4), rtol=1e-12)
    check_grad(lambda t: tape.trace_of_gram(tape.row_softmax_masked(t[0], mask)), [x])


def test_masked_softmax_masked_entries_get_zero_gradient():
    rng = np.random.default_rng(6)
    x = tape.parameter(rng.normal(size=(3, 4)))
    mask = np.array([[1, 0, 1, 0], [1, 1, 0, 0], [0, 0, 0, 1]], dtype=float)
    loss = tape.trace_of_gram(tape.row_softmax_masked(x, mask))
    tape.backward(loss)
    assert np.all(x.grad[mask == 0] == 0.0)


def test_masked_softmax_empty_row_rejected():
    x = tape.constant(np.zeros((2, 3)))
    mask = np.array([[1, 1, 1], [0, 0, 0]], dtype=float)
    with pytest.raises(ContractError):
        tape.row_softmax_masked(x, mask)


def test_masked_softmax_is_stable_at_large_scores():
    x = tape.constant(np.array([[1e4, 1e4 - 2.0, -1e4]]))
    out = tape.row_softmax_masked(x, np.ones((1, 3)))
    assert np.isfinite(out.values).all()
    np.testing.assert_allclose(out.values.sum(), 1.0, rtol=1e-12)


def test_reduction_gradients():
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.normal(size=(4, 5))
        check_grad(lambda t: tape.sum_all(t[0]), [x])
        check_grad(
            lambda t: tape.sum_all(tape.multiply(tape.row_sum(t[0]), tape.row_sum(t[0]))), [x]
        )
        check_grad(lambda t: tape.trace_of_gram(t[0]), [x])
        check_grad(lambda t: tape.l2_norm(t[0]), [x])


def test_l2_norm_value():
    x = tape.constant(np.array([3.0, 4.0]))
    assert tape.l2_norm(x).item() == pytest.approx(5.0)


def test_complement_product_gate_values():
    s = np.array([[0.0, 1.0, 0.5], [0.0, 0.3, 0.5]])
    out = tape.complement_product_gate(tape.constant(s))
    np.testing.assert_allclose(out.values, [0.0, 1.0, 0.75])


def test_complement_product_gate_gradient():
    rng = np.random.default_rng(8)
    for _ in range(20):
        s = rng.uniform(0.05, 0.95, size=(5, 3))
        check_grad(lambda t: tape.sum_all(tape.complement_product_gate(t[0])), [s])
    # exact leave-one-out products even with zero factors present
    s = rng.uniform(0.05, 0.95, size=(4, 3))
    s[1, 0] = 1.0  # makes (1 - s) vanish for that factor
    check_grad(lambda t: tape.sum_all(tape.complement_product_gate(t[0])), [s])


def test_gradient_accumulates_when_input_is_reused():
    x = tape.parameter(np.array([2.0, 3.0]))
    loss = tape.sum_all(tape.multiply(x, x))  # d/dx sum(x^2) = 2x
    tape.backward(loss)
    np.testing.assert_allclose(x.grad, [4.0, 6.0])


def test_backward_accumulates_across_calls_until_zeroed():
    x = tape.parameter(np.array([1.0, -1.0]))
    for _ in range(2):
        tape.backward(tape.sum_all(tape.multiply(x, x)))
    np.testing.assert_allclose(x.grad, [4.0, -4.0])
    tape.zero_grad([x])
    assert x.grad is None


def test_backward_on_a_reused_graph_adds_the_gradient_once_per_call():
    # intermediate nodes must not pass on the total of earlier calls
    x = tape.parameter(np.array([1.0, 2.0]))
    loss = tape.sum_all(tape.scale(tape.scale(x, 3.0), 1.0))
    for calls in (1, 2, 3):
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, [3.0 * calls, 3.0 * calls])


def test_backward_requires_scalar_loss():
    x = tape.parameter(np.zeros((2, 2)))
    with pytest.raises(ContractError):
        tape.backward(tape.add(x, x))


def test_constants_collect_no_gradient():
    c = tape.constant(np.ones(3))
    x = tape.parameter(np.ones(3))
    tape.backward(tape.sum_all(tape.multiply(c, x)))
    assert c.grad is None
    np.testing.assert_allclose(x.grad, np.ones(3))


def test_deep_chain_does_not_overflow_recursion():
    x = tape.parameter(np.array(1.0))
    y = x
    for _ in range(5000):
        y = tape.scale(y, 1.0)
    tape.backward(y)
    assert x.grad == pytest.approx(1.0)


def test_adam_first_step_moves_by_lr():
    # with a single constant gradient the bias-corrected step is exactly lr
    p = np.array([1.0, 2.0, 3.0])
    state = ad.AdamState.for_params(p)
    g = np.array([0.5, -2.0, 1e-12])
    ad.adam_step(p, g, state, TrainConfig(lr=0.1))
    expected = np.array([1.0, 2.0, 3.0]) - 0.1 * g / (np.abs(g) + 1e-8)
    np.testing.assert_allclose(p, expected, rtol=1e-9)
    assert state.step == 1


def test_adam_constant_gradient_converges_on_quadratic():
    p = np.array([5.0])
    state = ad.AdamState.for_params(p)
    train = TrainConfig(lr=0.05)
    for _ in range(4000):
        g = 2.0 * p  # d/dp p^2
        ad.adam_step(p, g, state, train)
    assert abs(p[0]) < 1e-3


def test_adam_state_round_trips_through_dict():
    p = np.array([1.0, -1.0])
    state = ad.AdamState.for_params(p)
    train = TrainConfig(lr=0.01)
    ad.adam_step(p, np.array([0.3, -0.7]), state, train)
    clone = ad.AdamState.from_dict(state.to_dict([(1,), (1,)]), [(1,), (1,)])
    assert clone.step == state.step
    np.testing.assert_array_equal(clone.m, state.m)
    np.testing.assert_array_equal(clone.v, state.v)

    # both continue identically
    p2 = p.copy()
    g = np.array([-0.2, 0.4])
    ad.adam_step(p, g, state, train)
    ad.adam_step(p2, g, clone, train)
    np.testing.assert_array_equal(p, p2)


def _check_adam_against_reference(shapes, seed, order="C"):
    # one packed buffer against the reference stepping each of its views,
    # held in `order`, on its own
    rng = np.random.default_rng(seed)
    special = np.array([0.0, -0.0, 1e-300, -1e-300, 1e150, -1e150])
    flat = ad.pack([rng.normal(size=shape) for shape in shapes])
    ref = [np.array(v, order=order) for v in ad.unpack(flat, shapes)]
    size = flat.size
    train = TrainConfig(lr=1e-2)
    state = ad.AdamState.for_params(flat)
    ref_state = ad.AdamState(
        m=ad.unpack(np.zeros(size), shapes), v=ad.unpack(np.zeros(size), shapes)
    )
    for step in range(50):
        grads = []
        for shape in shapes:
            g = rng.normal(size=shape) * 10.0 ** rng.integers(-5, 5, size=shape)
            flat_g = g.reshape(-1)
            picks = rng.integers(0, flat_g.size, size=2)
            flat_g[picks] = rng.choice(special, size=2)
            grads.append(np.asarray(g, order=order))
        grad = ad.pack(grads)
        before = grad.tobytes()
        ad.adam_step(flat, grad, state, train)
        assert grad.tobytes() == before
        reference_adam_step(ref, grads, ref_state, train)
        assert state.step == ref_state.step == step + 1
        views = [ad.unpack(buf, shapes) for buf in (flat, state.m, state.v)]
        for i, (p, m, v, q) in enumerate(zip(*views, ref)):
            assert p.tobytes() == q.tobytes(), (step, i)
            assert m.tobytes() == ref_state.m[i].tobytes(), (step, i)
            assert v.tobytes() == ref_state.v[i].tobytes(), (step, i)


def test_adam_step_matches_reference_bit_for_bit():
    _check_adam_against_reference([(4, 3), (3,), (2, 2), ()], seed=12)


_BLOCK = ad.ADAM_BLOCK


@pytest.mark.parametrize(
    "shapes, order",
    [
        ([(_BLOCK - 1,), (_BLOCK,), (_BLOCK // 64, 64)], "C"),
        ([(3 * _BLOCK + 17,), (512, 512), (512, 7), (_BLOCK // 8 + 1, 8)], "C"),
        ([(300, 200), (7, 512)], "F"),
    ],
    ids=["up-to-one-block", "several-blocks-ragged-tail", "fortran-ordered"],
)
def test_adam_step_blocks_match_reference_bit_for_bit(shapes, order):
    _check_adam_against_reference(shapes, seed=len(shapes), order=order)


def test_adam_step_scratch_stays_below_one_megabyte():
    # a 512x512 parameter is 2 MB; full-size scratch would peak at 4 MB
    rng = np.random.default_rng(14)
    p = rng.normal(size=512 * 512)
    g = rng.normal(size=512 * 512)
    state = ad.AdamState.for_params(p)
    train = TrainConfig(lr=1e-3)
    ad.adam_step(p, g, state, train)
    tracemalloc.start()
    try:
        ad.adam_step(p, g, state, train)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_adam_step_rejects_moments_shaped_unlike_their_parameter():
    p = np.array([1.0, 2.0, 3.0])
    for key, bad in (("m", np.zeros(1)), ("v", np.zeros((3, 1)))):
        state = ad.AdamState.for_params(p)
        setattr(state, key, bad)
        with pytest.raises(ShapeError):
            ad.adam_step(p, np.ones(3), state, TrainConfig(lr=0.1))
        assert state.step == 0
        np.testing.assert_array_equal(p, [1.0, 2.0, 3.0])


def test_full_pipeline_gradient_composition():
    # a miniature of the real forward pass: linear map, attention-style
    # masked softmax, gate, and norm terms combined into one scalar
    rng = np.random.default_rng(9)
    h = rng.normal(size=(5, 4))
    w = rng.normal(size=(3, 4))
    q = rng.normal(size=(3, 2))
    mask = np.ones((5, 5))
    mask[0, 3] = mask[3, 0] = 0.0

    def build(t):
        hw = tape.matmul(t[0], tape.transpose(t[1]))
        scores = tape.matmul(
            hw, tape.matmul(tape.transpose(hw), tape.constant(np.ones((5, 5)) / 5))
        )
        att = tape.row_softmax_masked(scores, mask)
        mixed = tape.relu(tape.matmul(att, hw))
        s = tape.row_softmax_masked(tape.matmul(mixed, t[2]), np.ones((5, 2)))
        gate = tape.complement_product_gate(s)
        norms = tape.add(tape.trace_of_gram(s), tape.l2_norm(tape.row_sum(s)))
        return tape.add(tape.sum_all(gate), norms)

    check_grad(build, [h, w, q], rtol=2e-4)
