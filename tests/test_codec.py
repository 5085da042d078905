"""Exact array encoding used by the dataset records and the checkpoints."""

import json

import numpy as np
import pytest

from nesua.codec import decode_array, encode_array
from nesua.errors import ConfigError, ContractError

_SPECIALS = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.0 / 3.0])


@pytest.mark.parametrize(
    "values",
    [
        _SPECIALS,
        np.array([-(2**63), 2**63 - 1, 0, -1], dtype=np.int64),
        np.array([-128, 127, 0, 1], dtype=np.int8),
        np.array(2.5),
        np.zeros((0,)),
        np.arange(7.0),
        np.arange(12.0).reshape(3, 4) / 7.0,
        (np.arange(12.0).reshape(3, 4) / 7.0).T,
        _SPECIALS.astype(">f8"),
        np.arange(-3, 3).astype(">i8"),
    ],
    ids=[
        "f8-specials", "i8", "i1", "shape-()", "shape-(0,)", "shape-(7,)",
        "shape-(3,4)", "transposed", "big-endian-f8", "big-endian-i8",
    ],
)
def test_round_trip_is_bit_exact_and_writable(values):
    stored = json.loads(json.dumps(encode_array(values)))
    assert stored["dtype"][0] in "<|"  # byte order is always stated
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
        {k: v for k, v in _good().items() if k != "b64"},
        {k: v for k, v in _good().items() if k != "dtype"},
        [0.0, 1.0, 2.0],
        {"name": "gat1.a", "shape": [3], "values": [0.0, 1.0, 2.0]},
        None,
    ],
    ids=[
        "bad-base64", "b64-not-text", "too-few-bytes", "too-many-bytes",
        "negative-size", "shape-not-list", "bool-size", "unknown-f4",
        "big-endian-dtype", "dtype-without-order", "missing-b64",
        "missing-dtype", "decimal-list", "old-checkpoint-entry", "null",
    ],
)
def test_malformed_entries_raise_config_error(entry):
    with pytest.raises(ConfigError):
        decode_array(entry)


def test_unsupported_dtype_is_not_encoded():
    with pytest.raises(ContractError):
        encode_array(np.zeros(2, dtype=np.float32))
