"""The benchmark's traced call sites still exist in nesua and are reached.

`perfbench/spans.py` wraps module attributes by name; a site that a
refactor drops, renames or routes a command around is only reported at
benchmark time, as missing or as a layer that reads zero. These tests read
the site lists from that file (without changing it), resolve every entry
(a declared `RETIRED` one must be gone from `nesua.autodiff` and resolve in
the test helpers' tape reference instead), and run a small
gen -> train -> eval through the traced sites.
"""

import functools
import importlib
import importlib.util
import json
from pathlib import Path

import helpers
import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _spans()

# Sites `spans.py` still names that the package no longer has: the tape's
# `zero_grad` and the 19 composed ops it counted as `PRIMITIVES`, which
# the straight-line step retired. The benchmark reports them as missing
# until its site lists are brought up to date (ROADMAP item 1).
RETIRED = {f"nesua.autodiff.{name}" for name in (
    "zero_grad",
    "add", "subtract", "multiply", "scale", "matmul", "transpose", "reshape",
    "slice_rows", "concat", "relu", "leaky_relu", "exp", "clamp",
    "row_softmax_masked", "sum_all", "row_sum", "trace_of_gram", "l2_norm",
    "complement_product_gate",
)}
LIVE_SITES = [
    (m, p) for m, p, _ in SPANS.SPAN_SITES if f"{m}.{p}" not in RETIRED
]


def _assert_retired(name):
    """A retired autodiff name is gone from the package and kept by the tape reference."""
    autodiff = importlib.import_module("nesua.autodiff")
    assert not hasattr(autodiff, name), f"nesua.autodiff.{name} is retired"
    assert callable(getattr(helpers, name, None)), f"helpers.{name} is not callable"


@pytest.mark.parametrize("module_name, path", [(m, p) for m, p, _ in SPANS.SPAN_SITES])
def test_every_span_site_resolves(module_name, path):
    if f"{module_name}.{path}" in RETIRED:
        _assert_retired(path)
        return
    obj = importlib.import_module(module_name)
    for part in path.split("."):
        assert hasattr(obj, part), f"{module_name}.{path}: no {part!r}"
        obj = getattr(obj, part)
    assert callable(obj), f"{module_name}.{path} is not callable"


def test_every_counted_primitive_resolves():
    assert {f"nesua.autodiff.{name}" for name in SPANS.PRIMITIVES} <= RETIRED
    for name in SPANS.PRIMITIVES:
        _assert_retired(name)


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


def test_a_traced_pipeline_reaches_every_span_site(tmp_path, monkeypatch):
    # K=3 at N=7 keeps the exhaustive oracle within eval's budget
    cli = importlib.import_module("nesua.cli")
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "scenario": {"n_ues": 3},
        "gat": {"hidden_dim": 4},
        "train": {"dataset_size": 4, "epochs": 1},
    }))
    data, run, ev = (str(tmp_path / name) for name in ("data", "run", "ev"))
    tracer = SPANS.Tracer("test")
    tracer.install()
    try:
        assert set(tracer.missing) == RETIRED and len(tracer.missing) == len(RETIRED)
        calls = {}
        for module_name, path in LIVE_SITES:
            obj, attr = SPANS._resolve(module_name, path)
            traced = getattr(obj, attr)

            @functools.wraps(traced)
            def counted(*args, _site=(module_name, path), _fn=traced, **kwargs):
                calls[_site] = calls.get(_site, 0) + 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(obj, attr, counted)
        common = ["--config", str(cfg)]
        assert cli.main(["gen", *common, "--out", data]) == 0
        dataset = ["--dataset", str(tmp_path / "data" / "dataset.jsonl")]
        assert cli.main(["train", *common, "--out", run, *dataset]) == 0
        checkpoint = ["--checkpoint", str(tmp_path / "run" / "checkpoint_best.json")]
        assert cli.main(["eval", *common, "--out", ev, *dataset, *checkpoint]) == 0
    finally:
        monkeypatch.undo()
        tracer.uninstall()
    unreached = [f"{m}.{p}" for m, p in LIVE_SITES if calls.get((m, p), 0) < 1]
    assert unreached == []
    expected = {
        name for m, p, name in SPANS.SPAN_SITES if f"{m}.{p}" not in RETIRED
    } - {"gat.layer"}
    spans = tracer.pass_stats()["spans"]
    assert expected | {"gat.layer1", "gat.layer2"} <= set(spans)
