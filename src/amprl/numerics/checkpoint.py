"""Binary checkpoint format.

Layout (all integers little-endian):
    magic   8 bytes  b"AMPTNSR\\0"
    version uint32   currently 1
    count   uint32   number of named tensors
    then per tensor, in ascending name order:
    name_len uint32, name utf-8 bytes, ndim uint32, shape uint64*ndim,
    data float64*prod(shape)

A JSON manifest is written next to the binary (same path + ".json") listing
tensor names/shapes, the binary's sha256 and caller metadata. Each file is
written all or nothing (`sequences._write_bytes`), the binary first, but the
two writes are separate, so loading refuses a binary without its manifest,
and checks that the manifest records the binary's sha256 and that nothing
follows the last tensor.
"""
from __future__ import annotations

import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

from ..sequences import _write_bytes, write_json
from .tensor import Tensor

MAGIC = b"AMPTNSR\x00"
VERSION = 1


def save_checkpoint(path: str | Path, tensors: dict, meta: dict | None = None) -> None:
    path = Path(path)
    chunks = [MAGIC, struct.pack("<II", VERSION, len(tensors))]
    manifest_tensors = []
    for name in sorted(tensors):
        value = tensors[name]
        arr = np.asarray(value.data if isinstance(value, Tensor) else value, dtype=np.float64)
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<I", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        chunks.append(arr.astype("<f8").tobytes())
        manifest_tensors.append({"name": name, "shape": list(arr.shape)})

    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    _write_bytes(path, chunks)
    manifest = {
        "format": "amprl-checkpoint",
        "version": VERSION,
        "sha256": digest.hexdigest(),
        "tensors": manifest_tensors,
        "meta": meta or {},
    }
    write_json(manifest, path.with_name(path.name + ".json"))


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    path = Path(path)
    blob = path.read_bytes()
    if blob[: len(MAGIC)] != MAGIC:
        raise ValueError(f"{path}: not a checkpoint file (bad magic)")
    offset = len(MAGIC)
    if len(blob) < offset + 8:
        raise ValueError(f"{path}: truncated checkpoint")
    version, count = struct.unpack_from("<II", blob, offset)
    offset += 8
    if version != VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        try:
            (name_len,) = struct.unpack_from("<I", blob, offset)
            at = offset + 4
            offset = at + name_len
            (ndim,) = struct.unpack_from("<I", blob, offset)
            offset += 4
            shape = struct.unpack_from(f"<{ndim}Q", blob, offset)
            offset += 8 * ndim
        except struct.error:  # a read past the end of the file
            raise ValueError(f"{path}: truncated checkpoint") from None
        try:
            name = blob[at : at + name_len].decode("utf-8")
        except UnicodeDecodeError:
            raise ValueError(f"{path}: tensor name at byte {at} is not UTF-8") from None
        size = math.prod(shape)  # Python ints: no shape field wraps or overflows it
        if 8 * size > len(blob) - offset:
            raise ValueError(
                f"{path}: truncated checkpoint: tensor {name!r} of shape {shape} needs {8 * size} bytes, {len(blob) - offset} remain"
            )
        try:
            arr = np.frombuffer(blob, dtype="<f8", count=size, offset=offset).reshape(shape)
        except ValueError as err:  # an empty shape with a dimension numpy cannot hold
            raise ValueError(f"{path}: tensor {name!r} has shape {shape}: {err}") from None
        offset += 8 * size
        tensors[name] = arr.astype(np.float64)
    if offset != len(blob):
        raise ValueError(f"{path}: {len(blob) - offset} byte(s) after the last tensor")
    mpath = path.with_name(path.name + ".json")
    if not mpath.exists():
        raise ValueError(f"{path}: its manifest {mpath.name} is missing")
    try:
        manifest = json.loads(mpath.read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise ValueError(f"{path}: its manifest {mpath.name} is not valid JSON ({err})") from None
    if not isinstance(manifest, dict) or "sha256" not in manifest:
        raise ValueError(f"{path}: {mpath.name} records no sha256 of the checkpoint")
    digest = hashlib.sha256(blob).hexdigest()
    if manifest["sha256"] != digest:
        raise ValueError(f"{path}: sha256 {digest} differs from the {manifest['sha256']} recorded in {mpath.name}")
    if not isinstance(manifest.get("meta", {}), dict):
        raise ValueError(f"{path}: the meta of {mpath.name} is not a JSON object")
    return tensors, manifest.get("meta", {})


def check_tensors(path: str | Path, tensors: dict[str, np.ndarray], expected: dict[str, tuple], section: str) -> None:
    """Raise a ValueError naming the first tensor whose name or shape a loaded checkpoint and its `section` disagree on.

    `expected` maps each tensor name to its shape as a tuple; shapes are checked in its order.
    """
    mismatch = sorted(set(tensors) ^ set(expected))
    if mismatch and mismatch[0] in tensors:
        raise ValueError(f"{path}: checkpoint holds tensor {mismatch[0]!r}, which its {section} does not define")
    if mismatch:
        raise ValueError(f"{path}: checkpoint lacks tensor {mismatch[0]!r}, which its {section} defines")
    for name, shape in expected.items():
        if tensors[name].shape != shape:
            raise ValueError(f"{path}: tensor {name!r} has shape {tensors[name].shape}, its {section} defines {shape}")
