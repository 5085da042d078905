"""The straight-line step against the tape: `ad.backward` writes, bit for
bit, the gradient that the reverse-mode tape computes over the chains of
primitive ops the fused ops stand for, and the loss is the tape's."""

import numpy as np
import pytest

from nesua import autodiff as ad
from nesua import gat
from nesua import training as tr
from nesua.power import PowerParams
from nesua.scenario import GraphInstance

from helpers import tape_backward

ACTIVATIONS = ("relu", "identity")


def _graph(k, n, rng):
    adjacency = rng.uniform(size=(k, k)) < 0.5
    adjacency |= adjacency.T
    np.fill_diagonal(adjacency, True)
    return GraphInstance(
        features=rng.normal(size=(k, 3 * n)),
        adjacency=adjacency,
        prb_matrix=rng.integers(1, 30, size=(k, n)).astype(float),
        n_prb_total=51,
    )


def _step(graph, model, tc, params=PowerParams()):
    """The loss and the gradient buffer of one step, the buffer filled
    with NaN before `ad.backward` writes it."""
    saved = []
    s = gat.forward(graph, model, saved)
    value = tr.loss(s, graph.prb_matrix, params, tc, graph.n_prb_total, saved)
    grad = np.full(model.flat.shape, np.nan)
    ad.backward(saved, grad)
    return value, grad, saved


@pytest.mark.parametrize("lambdas", [(0.0, 0.0), (0.7, 0.0), (0.0, 0.3), (0.7, 0.3)])
@pytest.mark.parametrize("readout_activation", ACTIVATIONS)
@pytest.mark.parametrize("activation", ACTIVATIONS)
@pytest.mark.parametrize("k", [1, 6])
def test_backward_matches_the_tape_bit_for_bit(k, activation, readout_activation, lambdas):
    rng = np.random.default_rng([k, len(activation), len(readout_activation), *map(int, lambdas)])
    cfg = gat.GatConfig(hidden_dim=8, activation=activation,
                        readout_activation=readout_activation)
    tc = tr.TrainConfig(lambda1=lambdas[0], lambda2=lambdas[1])
    for seed in range(3):
        graph = _graph(k, 3, rng)
        model = gat.init_model(9, 3, cfg, seed)
        value, grad, saved = _step(graph, model, tc)
        assert len(saved) == (8 if tc.lambda1 > 0.0 or tc.lambda2 > 0.0 else 6)
        reference = np.full(grad.shape, np.nan)
        reference_value = tape_backward(saved, reference)
        assert np.isfinite(grad).all()  # every slot written
        assert grad.tobytes() == reference.tobytes(), f"seed {seed}"
        assert np.float64(value).tobytes() == np.float64(reference_value).tobytes()


def test_backward_matches_the_tape_at_paper_size():
    # hidden 512, K=50: the matmuls span many SIMD registers and BLAS blocks
    rng = np.random.default_rng(5)
    graph = _graph(50, 7, rng)
    model = gat.init_model(21, 7, gat.GatConfig(), 3)
    value, grad, saved = _step(graph, model, tr.TrainConfig())
    reference = np.empty_like(grad)
    assert np.float64(value).tobytes() == np.float64(tape_backward(saved, reference)).tobytes()
    assert grad.tobytes() == reference.tobytes()
