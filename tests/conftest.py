"""Shared fixtures."""

import pytest

from nesua import autodiff as ad

from helpers import REFERENCE_NODES, linear, tape_backward


@pytest.fixture
def reference_nodes(monkeypatch):
    """A function that, once called, swaps the train step's reverse pass
    (`ad.backward`) for the tape over the composed references of the
    fused ops (`helpers.REFERENCE_NODES`) until the test ends, so the same
    run can be made with and without them."""

    def swap():
        def reference_backward(saved, grad):
            tape_backward(saved, grad, REFERENCE_NODES, linear)

        monkeypatch.setattr(ad, "backward", reference_backward)

    return swap
