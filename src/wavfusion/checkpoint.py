"""Versioned binary container for model parameters.

Layout (all integers little-endian):

    magic   4 bytes  b"WVFN"
    version u32      currently 2
    header  u32 length, then that many bytes of UTF-8 ``key=value`` lines:
            the architecture the parameters belong to (see ``architecture``)
    records until end of file, each:
        name_len u16, name bytes (utf-8),
        rank     u8,  dims u32 * rank,
        payload  float32 * prod(dims)

Round-trips are bit-exact: save -> load -> save reproduces the file.
"""

from __future__ import annotations

import struct

import numpy as np

from .data import write_atomic
from .errors import CheckpointError, FormatError

MAGIC = b"WVFN"
VERSION = 2


def architecture(model) -> dict:
    """The model settings a checkpoint must match beyond parameter names and
    shapes (a heads=2 and a heads=4 model have the same parameter shapes)."""
    dims = ",".join(f"{m}:{w}" for m, w in sorted(model.feature_dims.items()))
    return {"num_classes": str(model.num_classes), "feature_dims": dims, "d": str(model.d),
            "heads": str(model.heads), "n_shallow": str(model.n_shallow),
            "n_deep": str(model.n_deep), "lvc_enabled": str(model.lvc_enabled),
            "fusion_mode": model.fusion_mode}


def save_model(path, model) -> None:
    write_records(path, [(name, p.data) for name, p in model.named_parameters()],
                  architecture(model))


def write_records(path, records, header: dict) -> None:
    text = "".join(f"{key}={value}\n" for key, value in header.items()).encode("utf-8")
    parts = [MAGIC, struct.pack("<II", VERSION, len(text)), text]
    for name, arr in records:
        raw = name.encode("utf-8")
        arr = np.asarray(arr)
        parts += [struct.pack("<H", len(raw)), raw,
                  struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape), arr.astype("<f4").tobytes()]
    write_atomic(path, b"".join(parts))


def read_records(path) -> tuple[dict, list]:
    """Parse a checkpoint into (header dict, [(name, float32 array)]);
    strict about size."""
    with open(path, "rb") as fh:
        blob = fh.read()

    def need(offset, n, what):
        if offset + n > len(blob):
            raise FormatError(f"truncated checkpoint: {what} needs {n} bytes at offset {offset}, "
                              f"file has {len(blob)}")

    need(0, 4, "magic")
    if blob[:4] != MAGIC:
        raise FormatError(f"bad magic {blob[:4]!r} at offset 0; expected {MAGIC!r}")
    need(4, 4, "version")
    version = struct.unpack_from("<I", blob, 4)[0]
    if version != VERSION:
        raise FormatError(f"unsupported checkpoint version {version} at offset 4")
    need(8, 4, "header length")
    header_len = struct.unpack_from("<I", blob, 8)[0]
    need(12, header_len, "header")
    header, pos = {}, 12
    for line in blob[12:12 + header_len].splitlines(keepends=True):
        key, sep, value = _utf8(line, pos, "header line").rstrip("\n").partition("=")
        if not sep:
            raise FormatError(f"header line {line!r} at offset {pos} is not key=value")
        header[key] = value
        pos += len(line)

    records = []
    while pos < len(blob):
        need(pos, 2, "record name length")
        name_len = struct.unpack_from("<H", blob, pos)[0]
        pos += 2
        need(pos, name_len, "record name")
        name = _utf8(blob[pos:pos + name_len], pos, "record name")
        pos += name_len
        need(pos, 1, "record rank")
        rank = blob[pos]
        pos += 1
        need(pos, 4 * rank, "record dims")
        dims = struct.unpack_from(f"<{rank}I" if rank else "<0I", blob, pos)
        pos += 4 * rank
        count = 1
        for dim in dims:
            count *= dim
        need(pos, 4 * count, f"payload of {name!r}")
        arr = np.frombuffer(blob, dtype="<f4", count=count, offset=pos).reshape(dims)
        pos += 4 * count
        records.append((name, arr))
    return header, records


def _utf8(raw: bytes, offset: int, what: str) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise FormatError(f"{what} {raw!r} at offset {offset} is not valid UTF-8") from None


def load_model(path, model) -> None:
    """Install checkpoint parameters into ``model`` (cast to its dtype).

    The header, checked first, must match the model's ``architecture`` and
    the records its parameter names and shapes; a failed check loads nothing.
    """
    header, records = read_records(path)
    for key, value in architecture(model).items():
        if header.get(key) != value:
            raise CheckpointError(f"checkpoint {key} = {header.get(key, '(absent)')} "
                                  f"but the model has {key} = {value}")
    params = dict(model.named_parameters())
    seen = set()
    for name, arr in records:
        if name not in params:
            raise CheckpointError(f"checkpoint parameter {name!r} unknown to this model")
        if name in seen:
            raise CheckpointError(f"duplicate checkpoint parameter {name!r}")
        seen.add(name)
        if arr.shape != params[name].data.shape:
            raise CheckpointError(f"parameter {name!r}: checkpoint shape {list(arr.shape)} "
                                  f"!= model shape {list(params[name].data.shape)}")
    missing = sorted(set(params) - seen)
    if missing:
        raise CheckpointError(f"checkpoint lacks parameters: {missing[:5]}{'...' if len(missing) > 5 else ''}")
    for name, arr in records:
        params[name].data = arr.astype(model.dtype)
