"""Exact JSON encoding of numpy arrays for the dataset and checkpoints.

An array is stored as its raw little-endian bytes, base64 encoded, next to
its dtype and shape: {"dtype": "<f8", "shape": [3, 4], "b64": "..."}.
Every value, NaN payloads and -0.0 included, comes back bit for bit, and
writing or parsing one costs a memory copy instead of a decimal
conversion per element.

Files that hold large arrays (the checkpoints) are written by
`write_json`, which writes each array's base64 bytes straight to the file
instead of building them as one JSON string first. Every CSV table is
written by `write_table`, with floats in repr so a reread gives the same
bits.
"""

from __future__ import annotations

import base64
import binascii
import json
import math

import numpy as np

from .errors import ConfigError, ContractError

# the element types the codec writes and reads: float64 and int64
DTYPES = ("<f8", "<i8")


# base64 characters decoded, or written, at a time: decoding holds one
# chunk's bytes besides the array, not a second copy of it
_CHUNK = 1 << 16


class Payload:
    """The base64 text of an array's bytes, encoded as `write_json` writes
    it. It holds the array, not a copy: the bytes written are those the
    array has at the time of the write."""

    __slots__ = ("arr",)

    def __init__(self, arr: np.ndarray):
        self.arr = arr  # C-ordered

    def write_to(self, fh):
        """Write the base64 text to binary file fh, a chunk of whole
        3-byte groups at a time, so the chunks concatenate to it."""
        raw = self.arr.reshape(-1).view(np.uint8)
        step = _CHUNK // 4 * 3
        for start in range(0, raw.size, step):
            fh.write(base64.b64encode(raw[start:start + step]))


def encode_array(values, deferred: bool = False) -> dict:
    """JSON-ready dict holding the array's little-endian bytes. With
    `deferred`, its "b64" is a `Payload` for `write_json` to write."""
    arr = np.asarray(values)
    dtype = arr.dtype.newbyteorder("<")
    if dtype.str not in DTYPES:
        raise ContractError(f"cannot encode arrays of dtype {arr.dtype}")
    raw = np.ascontiguousarray(arr, dtype=dtype)
    return {
        "dtype": dtype.str,
        "shape": list(arr.shape),
        "b64": Payload(raw) if deferred else base64.b64encode(raw).decode("ascii"),
    }


# what json lays out in place of each Payload; a document string that
# holds it too is caught by counting the pieces
_MARK = "\x00payload\x00"
_ESCAPED_MARK = json.dumps(_MARK)


def write_json(path, doc):
    """Write the bytes of `json.dump(doc, fh); fh.write("\\n")` to path,
    where each `Payload` in doc stands for its base64 text.

    json lays out the document with a marker in place of every payload,
    and each payload's bytes are written where its marker was, one chunk
    at a time: base64 needs no escaping, so the text skips json's string
    escaper, and one chunk of it is in memory at a time instead of the
    whole document. Raises ContractError if a string in doc holds the
    marker, and TypeError for a value json cannot write.
    """
    payloads = []

    def hold(obj):
        if not isinstance(obj, Payload):
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        payloads.append(obj)
        return _MARK

    pieces = json.dumps(doc, default=hold).split(_ESCAPED_MARK)
    if len(pieces) != len(payloads) + 1:
        raise ContractError(f"a string in the document holds the marker {_MARK!r}")
    with open(path, "wb") as fh:
        fh.write(pieces[0].encode("ascii"))
        for payload, piece in zip(payloads, pieces[1:]):
            fh.write(b'"')
            payload.write_to(fh)
            fh.write(b'"')
            fh.write(piece.encode("ascii"))
        fh.write(b"\n")


def _header(entry, where: str) -> tuple[np.dtype, tuple, str]:
    """The dtype, shape and base64 text of an array entry; ConfigError
    naming `where` for a missing key, an unknown dtype or a bad shape."""
    try:
        dtype, shape, text = entry["dtype"], entry["shape"], entry["b64"]
    except (KeyError, TypeError) as exc:
        raise ConfigError(
            f"{where} must be an array entry {{dtype, shape, b64}}, got "
            f"{type(entry).__name__} without {exc}"
        ) from None
    if dtype not in DTYPES:
        raise ConfigError(f"{where} has unknown dtype {dtype!r}, expected one of {DTYPES}")
    if not isinstance(shape, list) or not all(
        type(n) is int and n >= 0 for n in shape
    ):
        raise ConfigError(f"{where} shape {shape!r} is not a list of sizes")
    return np.dtype(dtype), tuple(shape), text


def _decode_into(out: np.ndarray, dt: np.dtype, text, where: str):
    """Write the array that base64 text holds as raw dt bytes into out, a
    C-ordered native-order array of dt's kind; ConfigError naming `where`
    for invalid base64 or a byte count other than out's.

    Chunks hold whole 4-character groups and each is checked as
    `base64.b64decode(..., validate=True)` checks the whole text; padding
    may only end the last one.
    """
    if not isinstance(text, str) or len(text) % 4:
        raise ConfigError(f"{where} bytes are not valid base64")
    size = len(text) // 4 * 3 - (2 if text.endswith("==") else text.endswith("="))
    if size != out.nbytes:
        raise ConfigError(
            f"{where} of shape {list(out.shape)} and dtype {dt.str} needs "
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
            raise ConfigError(f"{where} bytes are not valid base64: {exc}") from None
        at = start // 4 * 3
        raw[at:at + len(data)] = data
    if not dt.isnative:
        out.byteswap(inplace=True)


def decode_array(entry, where: str = "array") -> np.ndarray:
    """Native-order, writable array that owns its memory.

    Raises ConfigError naming `where` for anything `encode_array` cannot
    have written: a missing key, an unknown dtype, a bad shape, invalid
    base64, or a byte count that does not match the shape.
    """
    dt, shape, text = _header(entry, where)
    out = np.empty(shape, dtype=dt.newbyteorder("="))
    _decode_into(out, dt, text, where)
    return out


def decode_packed(entries, where: str = "array") -> np.ndarray:
    """float64 entries decoded back to back into one new 1-D buffer, each
    in C order: a checkpoint's parameters or Adam moments, which must be
    finite.

    Raises ConfigError naming `where` as `decode_array` does, for an entry
    whose dtype is not float64, and for a NaN or an infinity; the buffer is
    allocated once every header is checked.
    """
    headers = [_header(entry, where) for entry in entries]
    for dt, shape, _ in headers:
        if dt.str != "<f8":
            raise ConfigError(f"{where} must be float64, got dtype {dt.str} {list(shape)}")
    flat = np.empty(sum(math.prod(shape) for _, shape, _ in headers))
    start = 0
    for dt, shape, text in headers:
        stop = start + math.prod(shape)
        _decode_into(flat[start:stop].reshape(shape), dt, text, where)
        start = stop
    if not np.isfinite(flat).all():
        raise ConfigError(f"{where} holds a non-finite value")
    return flat


def write_table(path, rows, header=None):
    """Write rows of cells as comma-separated lines, under `header` when
    one is given, each line ending in a newline. A float cell is written as
    `float.__repr__`, which a reread parses to the same bits (a numpy
    float's own repr names its type); any other cell with `str`."""
    lines = [] if header is None else [",".join(header)]
    for row in rows:
        lines.append(",".join(float.__repr__(c) if isinstance(c, float) else str(c) for c in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
