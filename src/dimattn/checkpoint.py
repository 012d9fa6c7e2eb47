"""Binary checkpoint container: magic, JSON manifest, raw tensor payloads.

Layout:  b"TCKPT1" | u64 little-endian manifest length | manifest JSON |
payloads.  The manifest records version, the run configuration, and for
every tensor its name, shape, precision and absolute byte offset.  Payloads
are little-endian raw bytes in row-major order; save/load round-trips are
bit-exact, and the manifest JSON is serialized with sorted keys so identical
inputs produce identical files.
"""

from __future__ import annotations

import json
import struct

import numpy as np

MAGIC = b"TCKPT1"
VERSION = 1

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


def load_checkpoint(path):
    """Returns (params dict, config dict); raises on a malformed file."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[: len(MAGIC)] != MAGIC:
        raise ValueError(f"not a checkpoint file: bad magic {blob[:6]!r}")
    (mlen,) = struct.unpack_from("<Q", blob, len(MAGIC))
    start = len(MAGIC) + 8
    manifest = json.loads(blob[start: start + mlen].decode("utf-8"))
    if manifest.get("version") != VERSION:
        raise ValueError(f"unsupported checkpoint version {manifest.get('version')}")
    params = {}
    for entry in manifest["tensors"]:
        dt = _DTYPES[entry["precision"]]
        arr = np.frombuffer(
            blob, dtype=dt, count=entry["nbytes"] // np.dtype(dt).itemsize,
            offset=entry["offset"],
        ).reshape(entry["shape"])
        # copy: a view of the bytes blob is read-only
        params[entry["name"]] = arr.copy()
    return params, manifest["config"]
