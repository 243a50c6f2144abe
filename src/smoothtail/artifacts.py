"""Deterministic file artifacts: JSON reports, CSV tables, binary pools.

Every file carries the run's config fingerprint and the package version.
Floats are serialized with repr (shortest round-trip), so identical runs
produce byte-identical files.  JSON reports are strict JSON: a non-finite
float makes write_json raise, so a report writes null itself wherever a
non-finite value is expected.

Each write makes a new file: the old name is unlinked and the bytes go into
a newly created inode.  Truncating a file whose previous contents are still
being written back can wait for that writeback (on ext4, and so can
renaming a file over it); a new file has nothing to wait for.  A hard link
or symlink at an artifact path is therefore replaced, not written through.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .branching import FixedPointPool
from .errors import ConfigError

POOL_MAGIC = b"STPOOL01"
VERSION_STRING = f"smoothtail-{__version__}"


def fingerprint(config: dict) -> str:
    """Stable 16-hex digest of a canonicalized config mapping."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"),
                      default=_json_default)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, Path):
        return str(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_new(path: Path, *chunks) -> None:
    """Write the byte chunks (bytes or C-contiguous buffers) into a new file
    at path, unlinking whatever the name pointed to before and creating the
    directories above it that are missing.  A path that cannot be made a
    new file (a regular file above it, no permission) is a config error
    naming the path."""
    path = Path(path)
    try:
        path.unlink(missing_ok=True)
        try:
            fh = open(path, "xb")
        except FileNotFoundError:
            # only the first artifact of a new --out pays for the mkdir
            path.parent.mkdir(parents=True, exist_ok=True)
            fh = open(path, "xb")
    except OSError as exc:
        raise ConfigError(f"{path}: cannot write: {exc.strerror or exc}") from None
    with fh:
        for chunk in chunks:
            fh.write(chunk)


def write_json(path: Path, payload: dict, fp: str) -> None:
    doc = {"meta": {"version": VERSION_STRING, "fingerprint": fp}}
    doc.update(payload)
    text = json.dumps(doc, sort_keys=True, indent=1, allow_nan=False,
                      default=_json_default)
    _write_new(path, (text + "\n").encode())


@contextmanager
def _reading(path: Path):
    """The file opened for binary reading; a file that cannot be opened or
    read (missing, a directory, no permission) is a config error naming the
    path."""
    try:
        with open(path, "rb") as fh:
            yield fh
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read: {exc.strerror or exc}") from None


def read_json(path: Path):
    """The JSON document in a UTF-8 file; an unreadable file, one that is not
    UTF-8 or not JSON is a config error naming the path (and for bad JSON
    its line and column)."""
    with _reading(path) as fh:
        raw = fh.read()
    try:
        return json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno} col {exc.colno}: "
                          f"{exc.msg}") from None


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def write_csv(path: Path, columns: list[str], rows, fp: str) -> None:
    lines = [f"# {VERSION_STRING} fingerprint={fp}", ",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _write_new(path, ("\n".join(lines) + "\n").encode())


# ---------------------------------------------------------------------------
# pool binary format
# ---------------------------------------------------------------------------
# layout: magic(8) | format u32 | d u32 | count u64 | generation u32 |
#         converged u8 | degenerate u8 | pad u16 | fingerprint 16 bytes hex |
#         version string 24 bytes | row-major float64 data

_HEADER = struct.Struct("<8sIIQIBBH16s24s")


def write_pool(path: Path, pool: FixedPointPool, fp: str) -> None:
    vec = np.ascontiguousarray(pool.vectors, dtype="<f8")
    header = _HEADER.pack(POOL_MAGIC, 1, vec.shape[1], vec.shape[0],
                          pool.generation, int(pool.converged),
                          int(pool.degenerate), 0,
                          fp[:16].encode().ljust(16, b"0"),
                          VERSION_STRING[:24].encode().ljust(24, b"\0"))
    _write_new(path, header, vec)


def read_pool(path: Path) -> FixedPointPool:
    """The pool in a pool file, read straight into the array it returns.

    The header and the file size are checked before the (count, d) array is
    allocated, so a header that declares more rows than the file holds
    allocates nothing.  A file that cannot be read, is not a pool file, is
    of another format, or whose payload is not the declared count * d
    float64 values is a config error naming the path."""
    with _reading(path) as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size or head[:8] != POOL_MAGIC:
            raise ConfigError(f"{path}: not a pool file")
        (_magic, fmt, d, count, gen, conv, degen, _pad, _fp,
         _ver) = _HEADER.unpack(head)
        if fmt != 1:
            raise ConfigError(f"{path}: pool format {fmt}; this version "
                              "reads format 1")
        _check_payload(path, os.fstat(fh.fileno()).st_size - _HEADER.size,
                       count, d)
        data = np.empty((count, d), dtype="<f8")
        # a short read: the file shrank after the size check
        _check_payload(path, fh.readinto(data.reshape(-1).view(np.uint8)),
                       count, d)
    return FixedPointPool(vectors=data, generation=gen,
                          converged=bool(conv), degenerate=bool(degen))


def _check_payload(path: Path, payload: int, count: int, d: int) -> None:
    if payload != count * d * 8:
        raise ConfigError(
            f"{path}: pool payload is {payload} bytes, the header declares "
            f"{count} x {d} float64 values ({count * d * 8} bytes); "
            "the file is truncated or corrupt")


def write_pool_csv(path: Path, pool: FixedPointPool, fp: str) -> None:
    cols = [f"x{i}" for i in range(pool.d)]
    write_csv(path, cols, pool.vectors, fp)
