"""The exit-code contract, generated from a real run.

Every key of a small run's artifacts (the manifest, a dataset record, both
checkpoints, and the `gat`, `adam` and `norm_stats` sections inside them)
and every run-file field is damaged one way at a time, and the command
that reads it runs in process through `cli.main`. A damaged artifact key
must make the command exit 2 or 3 with the key named in its message; exit
0 is allowed only for a key the reading command's schema tables
(`nesua.config`) declare unread, or one inside such a key. The message
must name the file as well, and the record for a dataset record. Every
float64 array (a record's, the parameters, the Adam moments) also gets a
NaN and each infinity written into it, which must exit 2 the same way. A
run-file field takes each value its
declared type refuses with exit 2 naming the field, and a value of its
type with exit 0 or with exit 2 naming the field. No case may raise.

The `config` stamps are damaged as whole keys; the keys inside them are
run-file fields, which the run-file cases walk, and `require_same`
compares them. A run-file field is not deleted: that gives its default,
by design. The cases run in a seeded random order, so a failure that
depends on what ran before it reproduces.
"""

import dataclasses
import json
import random

import numpy as np
import pytest

from nesua import cli, config
from nesua.codec import decode_array, encode_array
from nesua.config import RunConfig

DELETE = object()
MUTATIONS = {
    "delete": DELETE,
    "null": None,
    "string": "x",
    "bool": True,
    "float-for-int": 1.5,
    "negative": -1,
    "list": [0],
    "object": {},
}
# written into the last element of a key's last float64 array
NON_FINITE = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}
NESTED = ("gat", "adam", "norm_stats")  # sections walked key by key
SECTION_KEY = config.Key("section")
RUN_FILE = {
    "scenario": {"n_cells": 2, "inter_site_distance": 500.0,
                 "region": [2200.0, 2200.0], "n_ues": 3, "tx_power_dbm": 40.0},
    "gat": {"hidden_dim": 4, "readout_activation": "identity"},
    "train": {"dataset_size": 6, "epochs": 2, "lr": 1e-3, "lambda1": 1.0, "lambda2": 0.1},
    "eval": {"n_instances": 2},
    "seed": 1,
}


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """A gen -> train run, the run file of a 3-epoch resume of it, and the
    argv of the command that reads each artifact."""
    root = tmp_path_factory.mktemp("contract")
    cfg, resume_cfg = root / "cfg.json", root / "resume.json"
    cfg.write_text(json.dumps(RUN_FILE))
    resume_cfg.write_text(json.dumps({**RUN_FILE, "train": {**RUN_FILE["train"], "epochs": 3}}))
    data, trained, out = root / "data", root / "run", str(root / "out")
    dataset = str(data / "dataset.jsonl")
    assert cli.main(["gen", "--config", str(cfg), "--out", str(data)]) == 0
    assert cli.main(["train", "--config", str(cfg), "--dataset", dataset, "--out", str(trained)]) == 0
    best, last = trained / "checkpoint_best.json", trained / "checkpoint_last.json"
    evaluate = ["eval", "--config", str(cfg), "--dataset", dataset, "--checkpoint", str(best)]
    return {
        "cfg": cfg,
        "out": out,
        # artifact -> (its file, the reading command, the tables it reads by)
        "manifest": (data / "manifest.json",
                     ["train", "--config", str(cfg), "--dataset", dataset], [config.MANIFEST]),
        "record": (data / "dataset.jsonl", evaluate, [config.RECORD]),
        "checkpoint_best": (best, evaluate, [config.CHECKPOINT, config.EVAL_CHECKPOINT]),
        "checkpoint_last": (last, ["train", "--config", str(resume_cfg), "--dataset", dataset,
                                   "--checkpoint", str(last)],
                            [config.CHECKPOINT, config.RESUME_CHECKPOINT]),
    }


def _declared(tables, path):
    """The `Key` of the key at `path` in the first of `tables` that
    declares it, or None. A key of an object's run-file section (`cls`)
    is read under the run file's rules."""
    for table in tables:
        spec = table.get(path[0])
        if spec is not None and len(path) == 2 and spec.kind != "unread":
            section = {f.name for f in dataclasses.fields(spec.cls)} if spec.cls else ()
            spec = (spec.keys or {}).get(path[1]) or (SECTION_KEY if path[1] in section else None)
        if spec is not None:
            return spec
    return None


def _key_paths(doc):
    for key, value in doc.items():
        yield (key,)
        if key in NESTED:
            for inner in value:
                yield (key, inner)


def _float_arrays(value):
    """The float64 codec entries that value is or lists."""
    entries = value if isinstance(value, list) else [value]
    return [e for e in entries if isinstance(e, dict) and e.get("dtype") == "<f8"]


def _value_at(doc, path):
    for name in path:
        doc = doc[name]
    return doc


def _with_non_finite(value, x):
    """value with x written over the last element of its last float64 array."""
    value = json.loads(json.dumps(value))
    entry = _float_arrays(value)[-1]
    arr = decode_array(entry)
    arr.reshape(-1)[-1] = x
    entry["b64"] = encode_array(arr)["b64"]
    return value


def _damaged(doc, path, value):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for name in path[:-1]:
        parent = parent[name]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _outcome(capsys, argv):
    capsys.readouterr()
    try:
        code = cli.main(argv)
    except Exception as exc:  # the contract: never a traceback
        return f"raised {exc!r}", ""
    return code, capsys.readouterr().err


def _artifact_failures(run, name, capsys):
    path, argv, tables = run[name]
    pristine = path.read_text()
    lines = pristine.splitlines()
    doc = json.loads(lines[1] if name == "record" else pristine)
    cases = [(p, m) for p in _key_paths(doc) for m in MUTATIONS]
    cases += [
        (p, m) for p in _key_paths(doc) if _float_arrays(_value_at(doc, p)) for m in NON_FINITE
    ]
    random.Random(16).shuffle(cases)
    failures = []
    for key_path, mutation in cases:
        spec = _declared(tables, key_path)
        dotted = ".".join(key_path)
        if spec is None:
            failures.append(f"{dotted}: not declared in the schema tables")
            continue
        if mutation in NON_FINITE:
            value = _with_non_finite(_value_at(doc, key_path), NON_FINITE[mutation])
        else:
            value = MUTATIONS[mutation]
        damaged = json.dumps(_damaged(doc, key_path, value))
        if name == "record":
            damaged = "\n".join([lines[0], damaged, *lines[2:]]) + "\n"
        path.write_text(damaged)
        try:
            code, err = _outcome(capsys, [*argv, "--out", run["out"]])
        finally:
            path.write_text(pristine)
        if code == 0 and spec.kind == "unread":
            continue
        named = key_path[-1] in err and str(path) in err
        if name == "record":
            named = named and "record 2" in err
        if code not in (2, 3) or not named:
            failures.append(f"{dotted} {mutation}: exit {code}: {err.strip()[-300:]}")
    return failures


# the JSON values a run-file field of each declared type takes
_OF_TYPE = {
    "int": lambda v: type(v) is int,
    "float": lambda v: type(v) in (int, float),
    "str": lambda v: type(v) is str,
    "bool": lambda v: type(v) is bool,
    "tuple": lambda v: type(v) is list and all(type(x) in (int, float) for x in v),
}


def _run_file_fields():
    """(section or None, key, declared type) of every run-file key."""
    for f in dataclasses.fields(RunConfig):
        if f.default_factory is dataclasses.MISSING:
            yield None, f.name, f.type
        else:
            section = "train" if f.name == "loss" else f.name
            for inner in dataclasses.fields(f.default_factory):
                yield section, inner.name, inner.type


def _run_file_failures(run, capsys, monkeypatch):
    monkeypatch.chdir(run["cfg"].parent)  # an `out_dir` of "x" writes there
    cases = [
        (field, mutation) for field in _run_file_fields()
        for mutation in MUTATIONS if mutation != "delete"
    ]
    random.Random(16).shuffle(cases)
    failures = []
    for (section, key, declared), mutation in cases:
        value = MUTATIONS[mutation]
        doc = json.loads(json.dumps(RUN_FILE))
        (doc if section is None else doc.setdefault(section, {}))[key] = value
        damaged = run["cfg"].with_name("damaged.json")
        damaged.write_text(json.dumps(doc))
        argv = ["gen", "--config", str(damaged)]
        if key != "out_dir":  # `--out` would stand in for it
            argv += ["--out", run["out"]]
        code, err = _outcome(capsys, argv)
        named = code == 2 and key in err
        if not (named or (code == 0 and _OF_TYPE[declared](value))):
            failures.append(f"{section}.{key} {mutation}: exit {code}: {err.strip()[-300:]}")
    return failures


@pytest.mark.parametrize(
    "source", ["manifest", "record", "checkpoint_best", "checkpoint_last", "run_file"]
)
def test_every_damaged_key_exits_2_naming_it(run, capsys, monkeypatch, source):
    if source == "run_file":
        failures = _run_file_failures(run, capsys, monkeypatch)
    else:
        failures = _artifact_failures(run, source, capsys)
    assert not failures, "\n".join(failures)


def test_a_non_finite_record_array_exits_2_under_train(run, capsys):
    # `eval` regenerates each record and so refuses any edit; `train`
    # reads the records as stored
    path, _, _ = run["record"]
    train = run["manifest"][1]
    pristine = path.read_text()
    lines = pristine.splitlines()
    record = json.loads(lines[1])
    failures = []
    for key, value in record.items():
        for mutation, x in NON_FINITE.items() if _float_arrays(value) else ():
            damaged = {**record, key: _with_non_finite(value, x)}
            path.write_text("\n".join([lines[0], json.dumps(damaged), *lines[2:]]) + "\n")
            try:
                code, err = _outcome(capsys, [*train, "--out", run["out"]])
            finally:
                path.write_text(pristine)
            if code != 2 or not all(word in err for word in (str(path), "record 2", key)):
                failures.append(f"{key} {mutation}: exit {code}: {err.strip()[-300:]}")
    assert not failures, "\n".join(failures)
