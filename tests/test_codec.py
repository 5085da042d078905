"""Exact array encoding used by the dataset records and the checkpoints."""

import json

import numpy as np
import pytest

from nesua import codec
from nesua.codec import decode_array, encode_array, write_json
from nesua.errors import ConfigError, ContractError

_SPECIALS = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.0 / 3.0])


@pytest.mark.parametrize(
    "values",
    [
        _SPECIALS,
        np.array(2.5),
        np.zeros((0,)),
        np.arange(7.0),
        np.arange(12.0).reshape(3, 4) / 7.0,
        (np.arange(12.0).reshape(3, 4) / 7.0).T,
        _SPECIALS.astype(">f8"),
    ],
    ids=[
        "f8-specials", "shape-()", "shape-(0,)", "shape-(7,)",
        "shape-(3,4)", "transposed", "big-endian-f8",
    ],
)
def test_round_trip_is_bit_exact_and_writable(values):
    stored = json.loads(json.dumps(encode_array(values)))
    assert stored["dtype"][0] == "<"  # byte order is always stated
    back = decode_array(stored)
    native = values.astype(values.dtype.newbyteorder("="))
    assert back.dtype == native.dtype
    assert back.shape == values.shape
    assert back.tobytes() == native.tobytes()
    assert back.flags.writeable and back.flags.owndata


def _good():
    return encode_array(np.arange(3.0))


@pytest.mark.parametrize(
    "entry",
    [
        {**_good(), "b64": "!!not base64!!"},
        {**_good(), "b64": 17},
        {**_good(), "shape": [4]},
        {**_good(), "shape": [2]},
        {**_good(), "shape": [-3]},
        {**_good(), "shape": "3"},
        {**_good(), "shape": [True, 3]},
        {**_good(), "dtype": "<f4"},
        {**_good(), "dtype": ">f8"},
        {**_good(), "dtype": "float64"},
        {"dtype": "|i1", "shape": [3], "b64": "AAEC"},
        {"dtype": "<i8", "shape": [3], "b64": "AAAAAAAAAAABAAAAAAAAAAIAAAAAAAAA"},
        {k: v for k, v in _good().items() if k != "b64"},
        {k: v for k, v in _good().items() if k != "dtype"},
        [0.0, 1.0, 2.0],
        {"name": "gat1.a", "shape": [3], "values": [0.0, 1.0, 2.0]},
        None,
    ],
    ids=[
        "bad-base64", "b64-not-text", "too-few-bytes", "too-many-bytes",
        "negative-size", "shape-not-list", "bool-size", "unknown-f4",
        "big-endian-dtype", "dtype-without-order", "int8", "int64", "missing-b64",
        "missing-dtype", "decimal-list", "old-checkpoint-entry", "null",
    ],
)
def test_malformed_entries_raise_config_error(entry):
    with pytest.raises(ConfigError):
        decode_array(entry)


def test_unsupported_dtype_is_not_encoded():
    with pytest.raises(ContractError):
        encode_array(np.zeros(2, dtype=np.float32))
    with pytest.raises(ContractError):
        encode_array(np.arange(3, dtype=np.int64))


def _reference_bytes(doc, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")
    return path.read_bytes()


# float64 counts (8 bytes a value) whose byte counts are small, or just
# under, on or over a multiple of the writer's chunk of whole 3-byte
# groups; together they leave every remainder mod 3
_STEP = codec._CHUNK // 4 * 3


@pytest.mark.parametrize(
    "count", [0, 1, 2, 3, _STEP - 1, _STEP, _STEP + 1, 2 * _STEP, 2 * _STEP + 2]
)
def test_write_json_equals_json_dump_bit_for_bit(tmp_path, count):
    rng = np.random.default_rng(count)
    arrays = [
        np.frombuffer(rng.bytes(8 * count), dtype=np.float64),  # any bits, NaN payloads too
        _SPECIALS,
        (np.arange(12.0).reshape(3, 4) / 7.0).T,
        np.array(2.5),
    ]
    doc = {
        "arrays": [encode_array(a, deferred=True) for a in arrays],
        "nested": {"one": encode_array(arrays[0], deferred=True), "text": "\u00e9\x00\"/"},
        "numbers": [np.nan, -np.inf, 1e300, -0.0, 2**70, True, None],
        1.5: "a float key", 3: "an int key", None: "a null key",
    }
    reference = {
        "arrays": [encode_array(a) for a in arrays],
        "nested": {"one": encode_array(arrays[0]), "text": doc["nested"]["text"]},
        **{k: v for k, v in doc.items() if k not in ("arrays", "nested")},
    }
    write_json(tmp_path / "raw.json", doc)
    assert (tmp_path / "raw.json").read_bytes() == _reference_bytes(reference, tmp_path / "ref.json")
    back = json.loads((tmp_path / "raw.json").read_text())
    for entry, a in zip(back["arrays"], arrays):
        assert decode_array(entry).tobytes() == a.astype(a.dtype.newbyteorder("=")).tobytes()


def test_encode_array_payload_is_json_text_unless_deferred():
    entry = encode_array(_SPECIALS)
    assert isinstance(entry["b64"], str)
    assert json.loads(json.dumps(entry)) == entry
    deferred = encode_array(_SPECIALS, deferred=True)
    assert isinstance(deferred["b64"], codec.Payload)
    assert {**deferred, "b64": entry["b64"]} == entry
    with pytest.raises(TypeError):  # json itself cannot write a payload
        json.dumps(deferred)


def test_write_json_rejects_what_it_cannot_write_exactly(tmp_path):
    payload = encode_array(np.arange(3.0), deferred=True)
    with pytest.raises(ContractError):  # a string that holds the marker
        write_json(tmp_path / "a.json", {"note": codec._MARK, "x": payload})
    with pytest.raises(TypeError):
        write_json(tmp_path / "b.json", {"x": payload, "y": object()})
    assert not (tmp_path / "a.json").exists() and not (tmp_path / "b.json").exists()


def test_write_table_writes_floats_as_plain_repr(tmp_path):
    path = tmp_path / "t.csv"
    cells = [np.float64(0.1), 1.0 / 3.0, -0.0, np.float64(np.nan), 5e-324]
    codec.write_table(path, [cells])
    line = path.read_text()
    assert line == "0.1,0.3333333333333333,-0.0,nan,5e-324\n"
    # a reread gives the same bits
    back = [float(c) for c in line.strip().split(",")]
    assert np.array(back).tobytes() == np.array(cells, dtype=np.float64).tobytes()


def test_write_table_writes_other_cells_with_str(tmp_path):
    path = tmp_path / "t.csv"
    codec.write_table(path, [["bs", 3, np.int64(-2), True], ("ue", 0, 0, False)])
    assert path.read_text() == "bs,3,-2,True\nue,0,0,False\n"


def test_write_table_with_and_without_a_header(tmp_path):
    rows = [(1, 2.5), (2, 0.25)]
    codec.write_table(tmp_path / "a.csv", rows, ["epoch", "loss"])
    assert (tmp_path / "a.csv").read_text() == "epoch,loss\n1,2.5\n2,0.25\n"
    codec.write_table(tmp_path / "b.csv", iter(rows))
    assert (tmp_path / "b.csv").read_text() == "1,2.5\n2,0.25\n"


def test_write_table_of_no_rows_under_a_header_is_the_header_line(tmp_path):
    # what a resume with no epoch left to train writes as its history
    path = tmp_path / "t.csv"
    codec.write_table(path, [], ["epoch", "mean_train_loss", "mean_test_loss", "lr"])
    assert path.read_text() == "epoch,mean_train_loss,mean_test_loss,lr\n"
