"""The fused ops against the primitive chains they replace: bit-equal
values and gradients (each op on the tape through its adapter in
`helpers`), finite differences at the edge cases, and the checks the
primitives made."""

import numpy as np
import pytest

from nesua import autodiff as ad
from nesua.errors import ContractError, ShapeError
from nesua.power import PowerParams, network_power_soft

import helpers as tape
from helpers import FUSED_NODES as FUSED
from helpers import REFERENCE_NODES, check_grad


def _adjacency(k, rng, p=0.5):
    a = rng.uniform(size=(k, k)) < p
    a |= a.T
    np.fill_diagonal(a, True)
    return a


def _weighted(out):
    # deterministic non-uniform weights, so every evaluation sees one map
    if out.shape == ():
        return out
    w = np.cos(np.arange(float(out.values.size))).reshape(out.shape) + 0.5
    return tape.sum_all(tape.multiply(out, tape.constant(w)))


def _attention(k, slope, relu, adjacency=None, width=4):
    if adjacency is None:
        adjacency = _adjacency(k, np.random.default_rng(k))

    def arrays(rng):
        return [rng.normal(size=(k, width)), rng.normal(size=(2 * width,))]

    def build(nodes, p):
        return nodes["attention_round"](p[0], p[1], adjacency, slope, relu)

    return arrays, build


def _readout(n, relu, k=5, width=3):
    def arrays(rng):
        return [rng.normal(size=(k, width)), rng.normal(size=(width, n)),
                rng.normal(size=(n,))]

    def build(nodes, p):
        return nodes["softmax_readout"](p[0], p[1], p[2], relu)

    return arrays, build


def _power(n, zero_column=False):
    demand = np.random.default_rng(1).uniform(1.0, 20.0, (4, n))

    def arrays(rng):
        s = rng.uniform(0.05, 0.95, (4, n))
        if zero_column:
            s[:, 0] = 0.0
        return [s]

    def build(nodes, p):
        return nodes["gated_load_cost"](p[0], demand, 200.0, 150.0, 30.0, 7.0)

    return arrays, build


def _penalties(lambda1, lambda2, zero=False, n=3):
    demand = np.random.default_rng(2).uniform(1.0, 20.0, (4, n))

    def arrays(rng):
        return [np.zeros((4, n)) if zero else rng.uniform(0.05, 0.95, (4, n))]

    def build(nodes, p):
        # s also feeds the total, as the association feeds the power
        penalties = nodes["association_penalties"](p[0], demand, lambda1, lambda2)
        return tape.sum_terms(_weighted(p[0]), penalties)

    return arrays, build


CASES = {
    "attention": _attention(5, 0.2, True),
    "attention-identity": _attention(5, 0.2, False),
    "attention-slope-0": _attention(5, 0.0, True),
    "attention-k1": _attention(1, 0.2, True),
    "attention-self-only": _attention(4, 0.2, True, adjacency=np.eye(4, dtype=bool)),
    "attention-one-neighbour": _attention(
        3, 0.2, False, adjacency=np.array([[0, 1, 0], [1, 1, 1], [0, 1, 1]], dtype=bool)
    ),
    "readout": _readout(3, True),
    "readout-identity": _readout(3, False),
    "readout-one-cell": _readout(1, True),
    "power": _power(3),
    "power-one-cell": _power(1),
    "power-empty-cell": _power(3, zero_column=True),
    "penalties": _penalties(0.7, 0.3),
    "penalties-lambda1-0": _penalties(0.0, 0.3),
    "penalties-lambda2-0": _penalties(0.7, 0.0),
    "penalties-zero-load": _penalties(0.7, 0.3, zero=True),
    "penalties-one-cell": _penalties(0.7, 0.3, n=1),
    "penalties-no-term": _penalties(0.0, 0.0),
}


# paper width (K=50, d=512, 7 cells): the masks and selects span many
# SIMD registers, so their vector loops run, not only the scalar tails
PAPER_CASES = {
    "attention-paper": _attention(50, 0.2, True, width=512),
    "attention-paper-identity": _attention(50, 0.2, False, width=512),
    "readout-paper": _readout(7, True, k=50, width=512),
    "readout-paper-identity": _readout(7, False, k=50, width=512),
}


@pytest.mark.parametrize("case", list(CASES) + list(PAPER_CASES))
def test_fused_node_is_bit_equal_to_its_reference(case):
    arrays_of, build = {**CASES, **PAPER_CASES}[case]
    for seed in range(5):
        arrays = arrays_of(np.random.default_rng(seed))
        runs = []
        for nodes in (FUSED, REFERENCE_NODES):
            params = [tape.parameter(a.copy()) for a in arrays]
            out = build(nodes, params)
            tape.backward(_weighted(out))
            runs.append((out.values.tobytes(), [p.grad.tobytes() for p in params]))
        assert runs[0] == runs[1], f"seed {seed}"


@pytest.mark.parametrize("case", CASES)
def test_fused_node_gradient_matches_finite_differences(case):
    arrays_of, build = CASES[case]
    for seed in range(3):
        arrays = arrays_of(np.random.default_rng(10 + seed))
        check_grad(lambda p: _weighted(build(FUSED, p)), arrays, rtol=1e-4, atol=1e-6)


def _edge_values(n, shift):
    """n values cycling through signed zeros, infinities, NaNs (one with a
    payload), subnormals and normal numbers; the cycle length is coprime
    with every SIMD width, so each value meets every lane and the tail."""
    specials = np.array([
        0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
        2.2e-308, -2.2e-308, 1.5, -1.5, 0.2, -3.0e300, 3.0e300,
    ])
    specials[4] = np.frombuffer(np.uint64(0x7FF8_0000_0000_0123).tobytes(), np.float64)[0]
    return np.roll(np.resize(specials, n), shift)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 127, 1001])
def test_branch_free_masks_equal_the_selects_bit_for_bit(n):
    # `ad._relu` is np.fmax plus `+= 0.0`: on its own, np.fmax(-0.0, 0.0)
    # can give -0.0 (numpy 2.4, AVX-512, in the first tail lane), where
    # the select gives +0.0
    for shift in range(15):
        x = _edge_values(n, shift)
        assert ad._relu(x).tobytes() == np.where(x > 0, x, 0.0).tobytes()
        assert ad._positive(x).tobytes() == np.where(x > 0, 1.0, 0.0).tobytes()
        for slope in (0.0, 0.2, 1.0, 3.0):
            scale = ad._leaky_scale(x, slope)
            assert scale.tobytes() == np.where(x >= 0, 1.0, slope).tobytes()
            with np.errstate(invalid="ignore"):  # 0 * inf
                assert (x * scale).tobytes() == np.where(x >= 0, x, slope * x).tobytes()


def test_fused_nodes_are_one_node_each():
    # one record per op when a list is given, none without; on the tape,
    # one node with one backward rule
    rng = np.random.default_rng(3)
    hw, a = rng.normal(size=(4, 3)), rng.normal(size=6)
    adjacency = _adjacency(4, rng)
    saved = []
    values = ad.attention_round(hw, a, adjacency, 0.2, True, saved)
    assert len(saved) == 1 and saved[0].hw is hw and saved[0].a is a
    assert ad.attention_round(hw, a, adjacency, 0.2, True).tobytes() == values.tobytes()
    hw_t, a_t = tape.parameter(hw), tape.parameter(a)
    out = FUSED["attention_round"](hw_t, a_t, adjacency, 0.2, True)
    assert out._parents == (hw_t, a_t) and out._backward is not None
    const = FUSED["attention_round"](
        tape.constant(hw), tape.constant(a), np.ones((4, 4)), 0.2, True
    )
    assert not const.requires_grad and const._backward is None


def test_attention_round_keeps_the_primitive_checks():
    rng = np.random.default_rng(4)
    hw = rng.normal(size=(3, 4))
    with pytest.raises(ShapeError):  # scorer for another width
        ad.attention_round(hw, np.zeros(6), np.ones((3, 3), dtype=bool), 0.2, True)
    with pytest.raises(ShapeError):  # mask of another shape
        ad.attention_round(hw, np.zeros(8), np.ones((3, 4), dtype=bool), 0.2, True)
    # a row with no neighbour is refused where the mask is made, by `GraphInstance`
    # (test_scenario.py::test_graph_instance_checks_its_neighbour_mask)


def test_softmax_readout_checks_shapes():
    h = np.ones((4, 3))
    with pytest.raises(ShapeError):
        ad.softmax_readout(h, np.ones((2, 5)), np.zeros(5), True)
    with pytest.raises(ShapeError):
        ad.softmax_readout(h, np.ones((3, 5)), np.zeros(4), True)
    with pytest.raises(ShapeError):  # a bias that would widen the logits
        ad.softmax_readout(h, np.ones((3, 5)), np.zeros((2, 4, 5)), True)


def test_loss_nodes_check_the_association():
    s = np.full((4, 3), 1.0 / 3.0)
    with pytest.raises(ShapeError):
        ad.gated_load_cost(s, np.ones((4, 2)), 51, 1.0, 1.0, 0.0)
    with pytest.raises(ShapeError):
        ad.association_penalties(s, np.ones((3, 3)), 1.0, 1.0)
    # network_power_soft keeps its own contract errors in front of the op
    with pytest.raises(ContractError):
        network_power_soft(np.ones(3), np.ones(3), PowerParams(), 51)
    with pytest.raises(ContractError):
        network_power_soft(s, np.ones((4, 2)), PowerParams(), 51)
