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
import math

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


def _header(entry) -> tuple[np.dtype, tuple, str]:
    """The dtype, shape and base64 text of an array entry; ConfigError for
    a missing key, an unknown dtype or a bad shape."""
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
    return np.dtype(dtype), tuple(shape), text


# base64 characters decoded at a time: decoding holds one chunk's bytes
# besides the array, not a second copy of it
_CHUNK = 1 << 16


def _decode_into(out: np.ndarray, dt: np.dtype, text):
    """Write the array that base64 text holds as raw dt bytes into out, a
    C-ordered native-order array of dt's kind; ConfigError for invalid
    base64 or a byte count other than out's.

    Chunks hold whole 4-character groups and each is checked as
    `base64.b64decode(..., validate=True)` checks the whole text; padding
    may only end the last one.
    """
    if not isinstance(text, str) or len(text) % 4:
        raise ConfigError("array bytes are not valid base64")
    size = len(text) // 4 * 3 - (2 if text.endswith("==") else text.endswith("="))
    if size != out.nbytes:
        raise ConfigError(
            f"array of shape {list(out.shape)} and dtype {dt.str} needs "
            f"{out.nbytes} bytes, got {size}"
        )
    raw = memoryview(out).cast("B")
    for start in range(0, len(text), _CHUNK):
        piece = text[start:start + _CHUNK]
        try:
            if start + _CHUNK < len(text) and piece.endswith("="):
                raise ValueError("padding before the end")
            data = base64.b64decode(piece, validate=True)
        except (binascii.Error, ValueError) as exc:
            raise ConfigError(f"array bytes are not valid base64: {exc}") from None
        at = start // 4 * 3
        raw[at:at + len(data)] = data
    if not dt.isnative:
        out.byteswap(inplace=True)


def decode_array(entry) -> np.ndarray:
    """Native-order, writable array that owns its memory.

    Raises ConfigError for anything `encode_array` cannot have written:
    a missing key, an unknown dtype, a bad shape, invalid base64, or a
    byte count that does not match the shape.
    """
    dt, shape, text = _header(entry)
    out = np.empty(shape, dtype=dt.newbyteorder("="))
    _decode_into(out, dt, text)
    return out


def decode_packed(entries) -> tuple[np.ndarray, list]:
    """float64 entries decoded back to back into one new 1-D buffer.

    Returns the buffer and each entry's C-ordered view of it. Raises
    ConfigError as `decode_array` does, and for an entry whose dtype is
    not float64; the buffer is allocated once every header is checked.
    """
    headers = [_header(entry) for entry in entries]
    for dt, shape, _ in headers:
        if dt.str != "<f8":
            raise ConfigError(f"expected a float64 array, got dtype {dt.str} {list(shape)}")
    flat = np.empty(sum(math.prod(shape) for _, shape, _ in headers))
    views, start = [], 0
    for dt, shape, text in headers:
        stop = start + math.prod(shape)
        views.append(flat[start:stop].reshape(shape))
        _decode_into(views[-1], dt, text)
        start = stop
    return flat, views
