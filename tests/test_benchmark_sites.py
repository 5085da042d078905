"""The benchmark's traced call sites still exist in nesua.

`perfbench/spans.py` wraps module attributes by name; a site that a
refactor drops or renames is only reported as missing at benchmark time,
and the layer it times reads zero. This test reads the site lists from
that file (without changing it) and resolves every entry.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _spans()


@pytest.mark.parametrize(
    "module_name, path", [(m, p) for m, p, _ in SPANS.SPAN_SITES]
)
def test_every_span_site_resolves(module_name, path):
    obj = importlib.import_module(module_name)
    for part in path.split("."):
        assert hasattr(obj, part), f"{module_name}.{path}: no {part!r}"
        obj = getattr(obj, part)
    assert callable(obj), f"{module_name}.{path} is not callable"


def test_every_counted_primitive_resolves():
    autodiff = importlib.import_module("nesua.autodiff")
    missing = [name for name in SPANS.PRIMITIVES if not callable(getattr(autodiff, name, None))]
    assert missing == []


def test_tracer_installs_and_restores_the_activation_table():
    # `Tracer.install` walks `nesua.gat._ACTIVATIONS` with `.items()` and
    # `uninstall` restores it as a dict: another type stops every traced run
    gat = importlib.import_module("nesua.gat")
    assert isinstance(gat._ACTIVATIONS, dict)
    before = dict(gat._ACTIVATIONS)
    tracer = SPANS.Tracer("test")
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert gat._ACTIVATIONS == before
