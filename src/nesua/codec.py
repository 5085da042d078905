"""Exact JSON encoding of numpy arrays for the dataset and checkpoints.

An array is stored as its raw little-endian bytes, base64 encoded, next to
its dtype and shape: {"dtype": "<f8", "shape": [3, 4], "b64": "..."}.
Every value, NaN payloads and -0.0 included, comes back bit for bit, and
writing or parsing one costs a memory copy instead of a decimal
conversion per element.
"""

from __future__ import annotations

import base64
import binascii

import numpy as np

from .errors import ConfigError, ContractError

# the element types nesua stores: float64, int64 and int8 (adjacency)
DTYPES = ("<f8", "<i8", "|i1")


def encode_array(values) -> dict:
    """JSON-ready dict holding the array's little-endian bytes."""
    arr = np.asarray(values)
    dtype = arr.dtype.newbyteorder("<")
    if dtype.str not in DTYPES:
        raise ContractError(f"cannot encode arrays of dtype {arr.dtype}")
    raw = np.ascontiguousarray(arr, dtype=dtype).tobytes()
    return {
        "dtype": dtype.str,
        "shape": list(arr.shape),
        "b64": base64.b64encode(raw).decode("ascii"),
    }


def decode_array(entry) -> np.ndarray:
    """Native-order, writable array that owns its memory.

    Raises ConfigError for anything `encode_array` cannot have written:
    a missing key, an unknown dtype, a bad shape, invalid base64, or a
    byte count that does not match the shape.
    """
    try:
        dtype, shape, text = entry["dtype"], entry["shape"], entry["b64"]
    except (KeyError, TypeError) as exc:
        raise ConfigError(
            f"expected an array entry {{dtype, shape, b64}}, got "
            f"{type(entry).__name__} without {exc}"
        ) from None
    if dtype not in DTYPES:
        raise ConfigError(f"unknown array dtype {dtype!r}, expected one of {DTYPES}")
    if not isinstance(shape, list) or not all(
        type(n) is int and n >= 0 for n in shape
    ):
        raise ConfigError(f"array shape {shape!r} is not a list of sizes")
    try:
        raw = base64.b64decode(text, validate=True)
    except (binascii.Error, TypeError, ValueError) as exc:
        raise ConfigError(f"array bytes are not valid base64: {exc}") from None
    dt = np.dtype(dtype)
    expected = dt.itemsize * int(np.prod(shape, dtype=np.int64))
    if len(raw) != expected:
        raise ConfigError(
            f"array of shape {shape} and dtype {dtype} needs {expected} bytes, "
            f"got {len(raw)}"
        )
    # astype copies out of the read-only bytes buffer into native order
    return np.frombuffer(raw, dtype=dt).reshape(shape).astype(dt.newbyteorder("="))
