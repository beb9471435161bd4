"""Crash-safe filesystem primitives: one atomic commit + checksums.

Every durable artifact in the repo (store shards and manifests, ANN
state, cache objects, checkpoints, the ``CURRENT`` pointer) reaches its
final name through :func:`atomic_write`, exactly once: the bytes are
written to the sibling ``<name>.tmp``, flushed and ``fsync``-ed, hashed,
``os.replace``-d over the target, and the directory entry is fsynced
too.  A crash at any instant leaves either the old file or the new one
-- never a torn hybrid -- and at worst an orphaned ``<name>.tmp`` that
the next writer overwrites (no reader globs ``*.tmp``).

The sha256 :func:`atomic_write` returns (equal to :func:`file_sha256`
of the published file) is what manifests record, so corruption that
bypasses the atomic-rename guarantee (disk bitrot, an out-of-band
truncation, a partially synced page) is *detected* on open instead of
surfacing as garbage query results.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import BinaryIO, Callable, Optional

import repro.faults as faults

__all__ = ["atomic_write", "atomic_write_text", "file_sha256", "fsync_dir"]

_CHUNK = 1 << 18


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


def atomic_write(path, write: Callable[[BinaryIO], None],
                 failpoint: Optional[str] = None) -> str:
    """Publish what ``write(handle)`` produces as ``path``; returns its sha256.

    The one commit sequence: data fsync, ``failpoint`` (the crash window
    a chaos test aims at: bytes durable under the wrong name), rename,
    directory fsync so the rename itself survives a power cut.  The
    digest is read back from the synced temp file rather than taken
    through a hashing handle, which ``zipfile`` would treat as
    unseekable and answer with different archive bytes.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        write(handle)
        handle.flush()
        os.fsync(handle.fileno())
    digest = file_sha256(tmp)
    if failpoint:
        faults.inject(failpoint)
    os.replace(tmp, path)
    fsync_dir(path.parent)
    return digest


def atomic_write_text(path, text: str,
                      failpoint: Optional[str] = None) -> None:
    data = text.encode("utf-8")
    atomic_write(path, lambda handle: handle.write(data), failpoint)


def file_sha256(path) -> str:
    """Streaming sha256 of one file (the manifest checksum format).

    Reads into one reused buffer, no larger than the file, so verifying
    a store on open allocates at most ``_CHUNK`` bytes however many
    shards it hashes, and hashing a small file touches no more memory
    than it holds.
    """
    hasher = hashlib.sha256()
    with open(path, "rb", buffering=0) as handle:
        file_size = os.fstat(handle.fileno()).st_size
        view = memoryview(bytearray(max(1, min(_CHUNK, file_size))))
        while True:
            read = handle.readinto(view)
            if not read:
                break
            hasher.update(view[:read])
    return hasher.hexdigest()
