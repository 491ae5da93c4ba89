"""MAGT binary container: a JSON header plus contiguous float32 tensor blobs.

Layout (little-endian):
  bytes 0-3    ASCII magic "MAGT"
  bytes 4-7    u32 format version (currently 1)
  bytes 8-15   u64 header length H
  bytes 16..   UTF-8 JSON header {"entries": [...]}
  remainder    f32 row-major blobs at offsets relative to the blob-region
               start; offsets are 4-byte aligned, ascending, non-overlapping

Each header entry carries its metadata keys plus a "tensors" table of
{"name", "rows", "cols", "offset"} records. The same container backs token
datasets, parameter checkpoints, and descriptor exports.
"""

from __future__ import annotations

import contextlib
import errno
import itertools
import json
import os
import re
import struct
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import (
    BadMagicError,
    CorruptContainerError,
    TruncatedFileError,
    UnsupportedVersionError,
)

MAGIC = b"MAGT"
VERSION = 1
_HEAD = struct.Struct("<4sIQ")
# numpy's bound on one float32 dimension, even of an empty array
_MAX_DIM = 2**61
# Elements per read of a tensor that read_container streams through its scratch
READ_BLOCK = 1 << 16
# A partial file of write_container's target; one pattern, not one cached per name
_PARTIAL = re.compile(r"\.(.+)\.[0-9a-f]{32}\.partial", re.DOTALL)


@dataclass
class ContainerEntry:
    """One logical record: JSON-serializable metadata plus named matrices."""

    meta: dict
    tensors: dict[str, np.ndarray] = field(default_factory=dict)
    # tensors read but not kept, by name: (header shape, every value finite)
    skipped: dict[str, tuple[tuple[int, int], bool]] = field(default_factory=dict)


def write_container(entries: list[ContainerEntry], path: str | Path) -> int:
    """Write entries to path; returns the byte count. Deterministic layout.

    The bytes go to a new file beside path, which then replaces path, so a
    write that fails or is killed leaves any earlier file at path whole.
    A C-contiguous float32 tensor is written from its own memory, uncopied.
    A directory at path fails before any file is made. Partial files older
    than this write's, left by killed writes to path, are then deleted.
    """
    header_entries = []
    arrays: list[np.ndarray] = []
    offset = 0
    for entry in entries:
        table = []
        for name, arr in entry.tensors.items():
            arr = np.ascontiguousarray(arr, dtype=np.float32)
            if arr.ndim != 2:
                raise CorruptContainerError(
                    f"tensor {name!r} must be 2-D, got shape {arr.shape}"
                )
            table.append(
                {"name": name, "rows": arr.shape[0], "cols": arr.shape[1], "offset": offset}
            )
            arrays.append(arr)
            offset += arr.nbytes
        header_entries.append({**entry.meta, "tensors": table})
    header = json.dumps(
        {"entries": header_entries}, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    path = Path(path)
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    partial = path.parent / f".{path.name}.{uuid.uuid4().hex}.partial"
    try:
        with open(partial, "xb") as f:
            began = os.fstat(f.fileno()).st_mtime_ns
            f.write(_HEAD.pack(MAGIC, VERSION, len(header)))
            f.write(header)
            for arr in arrays:
                f.write(arr)
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
    with os.scandir(path.parent) as siblings:
        for other in siblings:
            match = _PARTIAL.fullmatch(other.name)
            with contextlib.suppress(OSError):  # a newer partial file is a live writer's
                if match and match[1] == path.name and other.stat().st_mtime_ns < began:
                    os.unlink(other.path)
    return _HEAD.size + len(header) + offset


def read_container(path: str | Path,
                   keep: Callable[[str], bool] | None = None) -> list[ContainerEntry]:
    """Read and validate a container file; raises distinct errors per defect.

    Both headers and every tensor record are checked before the blob region
    is read, once and front to back. Each tensor whose name ``keep`` accepts
    is a C-contiguous, writable view of one 4-byte aligned buffer sized for
    those tensors alone, so the entries keep it alive; each run of adjacent
    kept tensors is one read. Without ``keep`` that buffer is the whole blob
    region, gaps included, read in one call. Every other tensor streams
    through one reused scratch of ``READ_BLOCK`` elements and lands in its
    entry's ``skipped`` with its header shape and whether it is finite.
    """
    path = Path(path)
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        fixed = f.read(_HEAD.size)
        if len(fixed) < _HEAD.size:
            raise TruncatedFileError(f"{path}: file shorter than the fixed header")
        magic, version, header_len = _HEAD.unpack(fixed)
        if magic != MAGIC:
            raise BadMagicError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise UnsupportedVersionError(f"{path}: unsupported container version {version}")
        if _HEAD.size + header_len > size:
            raise TruncatedFileError(f"{path}: header length {header_len} exceeds file size")
        try:
            header = json.loads(f.read(header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CorruptContainerError(f"{path}: header is not valid JSON ({exc})") from exc
        blob_len = size - _HEAD.size - header_len
        entries, plan = _tensor_layout(path, header, blob_len, keep)
        words = np.empty(-(-sum(p[0] for p in plan if p[4]) // 4), dtype="<f4")
        scratch = np.empty(0 if all(p[4] for p in plan) else READ_BLOCK, dtype="<f4")
        at = got = 0  # bytes put in the kept buffer (a multiple of 4 at each tensor), read
        for kept, run in itertools.groupby(plan, key=lambda p: p[4]):
            run = list(run)
            if kept:
                got += f.readinto(words.view(np.uint8)[at : at + sum(p[0] for p in run)])
                for nbytes, entry, name, shape, _ in run:
                    if entry is not None:
                        entry.tensors[name] = words[at // 4 :][: nbytes // 4].reshape(shape)
                    at += nbytes
                continue
            for nbytes, entry, name, shape, _ in run:
                finite = True
                for left in range(nbytes, 0, -4 * READ_BLOCK):  # the piece's unread bytes
                    got += f.readinto(scratch.view(np.uint8)[:left])
                    finite = finite and all_finite(scratch[: left // 4])
                if entry is not None:
                    entry.skipped[name] = (shape, finite)
        if got != blob_len:
            raise TruncatedFileError(f"{path}: file shorter than its header promises")
    return entries


def all_finite(values: np.ndarray) -> bool:
    """Whether no value is NaN or infinite. NaN reaches both extremes and an
    infinity one, so no full-size mask is built."""
    return not values.size or bool(np.isfinite(values.min()) and np.isfinite(values.max()))


def _tensor_layout(path: Path, header, blob_len: int, keep: Callable[[str], bool] | None
                   ) -> tuple[list[ContainerEntry], list[tuple]]:
    """The entries, with their metadata only, and the blob region in file
    order as (bytes, entry, tensor name, shape, kept) pieces, after checking
    every record against ``blob_len`` blob bytes. A gap between tensors is a
    piece with no entry, name or shape, kept only when ``keep`` is None."""
    if not isinstance(header, dict) or not isinstance(header.get("entries"), list):
        raise CorruptContainerError(f"{path}: header missing 'entries' list")
    entries, plan = [], []
    last_end = 0
    for raw_entry in header["entries"]:
        if not isinstance(raw_entry, dict) or not isinstance(raw_entry.get("tensors"), list):
            raise CorruptContainerError(f"{path}: entry missing 'tensors' table")
        entry = ContainerEntry({k: v for k, v in raw_entry.items() if k != "tensors"})
        entries.append(entry)
        names: set[str] = set()
        for rec in raw_entry["tensors"]:
            try:
                name, rows, cols, off = rec["name"], rec["rows"], rec["cols"], rec["offset"]
            except (TypeError, KeyError) as exc:
                raise CorruptContainerError(f"{path}: malformed tensor record {rec!r}") from exc
            if not isinstance(name, str) or not all(
                isinstance(v, int) and not isinstance(v, bool) for v in (rows, cols, off)
            ):
                raise CorruptContainerError(f"{path}: mistyped tensor record {rec!r}")
            if name in names:
                raise CorruptContainerError(f"{path}: duplicate tensor name {name!r}")
            if not (0 <= rows < _MAX_DIM and 0 <= cols < _MAX_DIM) or off < 0 or off % 4:
                raise CorruptContainerError(f"{path}: bad offset/shape in record {rec!r}")
            if off < last_end:
                raise CorruptContainerError(
                    f"{path}: tensor {name!r} offset {off} overlaps the previous blob"
                )
            size = rows * cols * 4
            if off + size > blob_len:
                raise TruncatedFileError(
                    f"{path}: tensor {name!r} extends past end of file"
                )
            names.add(name)
            if off > last_end:
                plan.append((off - last_end, None, None, None, keep is None))
            plan.append((size, entry, name, (rows, cols), keep is None or keep(name)))
            last_end = off + size
    if blob_len > last_end:
        plan.append((blob_len - last_end, None, None, None, keep is None))
    return entries, plan
