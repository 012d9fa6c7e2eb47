"""Checkpoint container, version 3: numpy's `.npz`, a zip of `.npy` members.

One stored member per tensor, in sorted name order, then `manifest`: the
sorted-key UTF-8 JSON `{"version", "config"}` as a uint8 array.  A training
run's config holds the corpus vocabulary under "vocab" and the corpus path
relative to the checkpoint's directory.  numpy writes every member with the
zip epoch as its time, so identical inputs give identical files.  Loading
checks each member's CRC-32 before it parses the member's header, takes f32
and f64 tensors only, bit-exact, and rejects NaN and inf; a file it cannot
read raises ValueError.
"""

from __future__ import annotations

import io
import json
import tokenize
import zipfile

import numpy as np

VERSION = 3


def save_checkpoint(path, params: dict, config: dict):
    manifest = json.dumps({"version": VERSION, "config": config}, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
    # a file object: given a path, np.savez would append ".npz" to it
    with open(path, "wb") as f:
        np.savez(f, **{name: params[name] for name in sorted(params)},
                 manifest=np.frombuffer(manifest, np.uint8))


def load_checkpoint(path):
    """Returns (params dict, config dict); raises ValueError on a malformed
    file or a tensor holding NaN or inf."""
    with open(path, "rb") as file:
        try:
            with zipfile.ZipFile(file) as zf:
                # zf.read checks a member's CRC-32, before its header is parsed
                arrays = {info.filename.removesuffix(".npy"):
                          np.lib.format.read_array(io.BytesIO(zf.read(info)),
                                                   allow_pickle=False)
                          for info in zf.infolist()}
            if "manifest" not in arrays:
                raise ValueError("no manifest member")
            manifest = json.loads(arrays.pop("manifest").tobytes().decode("utf-8"))
        except (zipfile.BadZipFile, EOFError, NotImplementedError, OSError,
                RuntimeError, TypeError, tokenize.TokenError, ValueError) as e:
            raise ValueError(f"corrupt checkpoint {path}: {e or type(e).__name__}") from e
    version = manifest.get("version") if isinstance(manifest, dict) else None
    if version != VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    if not isinstance(manifest.get("config"), dict):
        raise ValueError("checkpoint manifest has no config dict")
    for name, arr in arrays.items():
        if arr.dtype not in (np.float32, np.float64):
            raise ValueError(f"tensor {name!r} has dtype {arr.dtype}, not f32 or f64")
        if not np.isfinite(arr).all():
            raise ValueError(f"tensor {name!r} holds a non-finite value")
    return arrays, manifest["config"]
