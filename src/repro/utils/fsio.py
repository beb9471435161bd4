"""Crash-safe filesystem primitives: atomic commit + checksums.

Every durable artifact in the repo (store shards and manifests, ANN
state, cache objects) reaches its final name the same way: the bytes
are written to a temporary sibling, flushed and ``fsync``-ed, then
``os.replace``-d over the target, and the directory entry is fsynced
too.  A crash at any instant leaves either the old file or the new one
-- never a torn hybrid -- and at worst an orphaned ``*.tmp*`` sibling
that the next writer overwrites.

:func:`file_sha256` provides the per-artifact checksums recorded in
manifests, so corruption that bypasses the atomic-rename guarantee
(disk bitrot, an out-of-band truncation, a partially synced page) is
*detected* on open instead of surfacing as garbage query results.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Optional

import repro.faults as faults

__all__ = [
    "atomic_write_bytes",
    "atomic_write_text",
    "commit_file",
    "file_sha256",
    "fsync_dir",
    "fsync_file",
]

_CHUNK = 1 << 20


def fsync_file(path) -> None:
    """Flush one file's data to stable storage."""
    fd = os.open(str(path), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def fsync_dir(path) -> None:
    """Flush a directory entry (the rename itself) to stable storage.

    Best effort: some filesystems refuse to fsync a directory -- the
    rename is still atomic, just not yet durable, which matches the
    pre-fsync behaviour rather than failing the write.
    """
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def commit_file(tmp, target, failpoint: Optional[str] = None) -> None:
    """Atomically publish ``tmp`` (already fully written) as ``target``.

    fsyncs the temp file, fires ``failpoint`` (the crash-window a chaos
    test aims at: bytes durable under the wrong name), renames, and
    fsyncs the directory so the rename itself survives a power cut.
    """
    tmp, target = Path(tmp), Path(target)
    fsync_file(tmp)
    if failpoint:
        faults.inject(failpoint)
    os.replace(tmp, target)
    fsync_dir(target.parent)


def atomic_write_bytes(path, data: bytes,
                       failpoint: Optional[str] = None) -> None:
    """Write ``data`` to ``path`` via the temp→fsync→rename protocol."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    if failpoint:
        faults.inject(failpoint)
    os.replace(tmp, path)
    fsync_dir(path.parent)


def atomic_write_text(path, text: str,
                      failpoint: Optional[str] = None) -> None:
    atomic_write_bytes(path, text.encode("utf-8"), failpoint=failpoint)


def file_sha256(path) -> str:
    """Streaming sha256 of one file (the manifest checksum format)."""
    hasher = hashlib.sha256()
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(_CHUNK)
            if not chunk:
                break
            hasher.update(chunk)
    return hasher.hexdigest()
