"""Shared fixtures."""

import pytest

from nesua import autodiff as ad

from helpers import REFERENCE_NODES


@pytest.fixture
def reference_nodes(monkeypatch):
    """A function that, once called, swaps every fused autodiff node for
    its composed reference (`helpers.REFERENCE_NODES`) until the test
    ends, so the same run can be made with and without them."""

    def swap():
        for name, reference in REFERENCE_NODES.items():
            monkeypatch.setattr(ad, name, reference)

    return swap
