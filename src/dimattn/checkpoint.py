"""Binary checkpoint container: magic, JSON manifest, raw tensor payloads.

Layout:  b"TCKPT1" | u64 little-endian manifest length | manifest JSON |
payloads.  The manifest records version, the run configuration (for a
training run, with the corpus vocabulary under "vocab"), and for every
tensor its name, shape, precision and absolute byte offset.  Payloads
are little-endian raw bytes in row-major order; save/load round-trips are
bit-exact, and the manifest JSON is serialized with sorted keys so identical
inputs produce identical files.
"""

from __future__ import annotations

import json
import struct

import numpy as np

MAGIC = b"TCKPT1"
VERSION = 2

_DTYPES = {"f32": "<f4", "f64": "<f8"}


def _precision(arr: np.ndarray) -> str:
    if arr.dtype == np.float32:
        return "f32"
    if arr.dtype == np.float64:
        return "f64"
    raise ValueError(f"unsupported tensor dtype {arr.dtype}")


def _encode_manifest(config, tensors) -> bytes:
    return json.dumps(
        {"version": VERSION, "config": config, "tensors": tensors},
        sort_keys=True, separators=(",", ":"),
    ).encode("utf-8")


def save_checkpoint(path, params: dict, config: dict):
    names = sorted(params)
    rel_offsets, payloads, meta = [], [], []
    offset = 0
    for name in names:
        arr = np.ascontiguousarray(params[name])
        prec = _precision(arr)
        raw = arr.astype(_DTYPES[prec], copy=False).tobytes(order="C")
        meta.append((name, list(arr.shape), prec, len(raw)))
        rel_offsets.append(offset)
        payloads.append(raw)
        offset += len(raw)

    def manifest_for(base):
        return _encode_manifest(config, [
            {"name": n, "shape": s, "precision": p, "offset": base + rel, "nbytes": nb}
            for (n, s, p, nb), rel in zip(meta, rel_offsets)
        ])

    # Absolute offsets depend on the manifest length, which depends on the
    # offsets' digit counts; iterate to the fixed point (grows monotonically).
    base = len(MAGIC) + 8 + len(manifest_for(0))
    while True:
        manifest = manifest_for(base)
        new_base = len(MAGIC) + 8 + len(manifest)
        if new_base == base:
            break
        base = new_base
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<Q", len(manifest)))
        f.write(manifest)
        for raw in payloads:
            f.write(raw)


def _entry_fields(entry):
    """(name, shape, dtype, offset, nbytes) of one manifest tensor entry."""
    if not isinstance(entry, dict):
        raise ValueError(f"malformed tensor entry {entry!r}")
    missing = [k for k in ("name", "shape", "precision", "offset", "nbytes")
               if k not in entry]
    if missing:
        raise ValueError(f"tensor entry {entry.get('name')!r} lacks {missing}")
    if entry["precision"] not in _DTYPES:
        raise ValueError(f"tensor {entry['name']!r} has unknown precision "
                         f"{entry['precision']!r}, expected one of {sorted(_DTYPES)}")
    ints = [entry["offset"], entry["nbytes"]]
    if not isinstance(entry["shape"], list) or not all(
            isinstance(n, int) for n in ints + entry["shape"]):
        raise ValueError(f"tensor {entry['name']!r} has a non-integer offset, "
                         f"size or shape")
    return (entry["name"], entry["shape"], _DTYPES[entry["precision"]],
            entry["offset"], entry["nbytes"])


def load_checkpoint(path):
    """Returns (params dict, config dict); raises ValueError on a malformed
    file or a tensor holding NaN or inf."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[: len(MAGIC)] != MAGIC:
        raise ValueError(f"not a checkpoint file: bad magic {blob[:6]!r}")
    start = len(MAGIC) + 8
    if len(blob) < start:
        raise ValueError(f"truncated checkpoint: {len(blob)} bytes, the header "
                         f"alone takes {start}")
    (mlen,) = struct.unpack_from("<Q", blob, len(MAGIC))
    manifest = json.loads(blob[start: start + mlen].decode("utf-8"))
    if not isinstance(manifest, dict):
        raise ValueError("checkpoint manifest is not a JSON object")
    if manifest.get("version") != VERSION:
        raise ValueError(f"unsupported checkpoint version {manifest.get('version')}")
    for key, kind in (("config", dict), ("tensors", list)):
        if not isinstance(manifest.get(key), kind):
            raise ValueError(f"checkpoint manifest has no {key} {kind.__name__}")
    params = {}
    for entry in manifest["tensors"]:
        name, shape, dt, offset, nbytes = _entry_fields(entry)
        arr = np.frombuffer(blob, dtype=dt, count=nbytes // np.dtype(dt).itemsize,
                            offset=offset).reshape(shape)
        if not np.isfinite(arr).all():
            raise ValueError(f"tensor {name!r} holds a non-finite value")
        # copy: a view of the bytes blob is read-only
        params[name] = arr.copy()
    return params, manifest["config"]
