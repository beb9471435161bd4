"""Versioned index generations with an atomic ``CURRENT`` pointer.

A *generation* is one immutable, fully-built embedding store directory.
The flat layout every earlier PR produced (``<index_root>/manifest.json``
and friends directly under the root) is generation 0; rebuilt or
extended stores are prepared under ``<index_root>/generations/gen-NNNNN``
while the old one keeps serving, then published by atomically rewriting
a one-line ``CURRENT`` pointer file (write temp → fsync → ``os.replace``,
the PR 7 crash-safe idiom).  Readers that pinned the old generation
before the flip keep sweeping it untouched -- shard files are never
mutated in place -- so an in-flight query stream crosses a swap without
a single failed or torn response.

Crash safety: a crash before the ``os.replace`` leaves the old
``CURRENT`` (old generation keeps serving, the half-prepared directory
is inert garbage); a crash after leaves the new one.  There is no state
in between.
"""

from __future__ import annotations

import json
import os
import re
import shutil
from pathlib import Path
from typing import List, Optional, Tuple

from repro.utils.fsio import atomic_write_text

__all__ = [
    "CURRENT_NAME",
    "FLAT_GENERATION",
    "GENERATIONS_DIR",
    "active_root",
    "clone_store",
    "commit_generation",
    "generation_seq",
    "list_generations",
    "prepare_generation",
    "read_current",
]

GENERATIONS_DIR = "generations"
CURRENT_NAME = "CURRENT"

#: Pointer value naming the flat (pre-generations) store layout.
FLAT_GENERATION = "."

_GEN_RE = re.compile(r"^gen-(\d{5,})$")

#: Store artifacts a new generation inherits from its parent.  Anything
#: else under the root (``generations/`` itself, ``quarantine/``, the
#: ``CURRENT`` pointer, stray temp files) stays behind.
_CLONE_GLOBS = ("manifest.json", "shard-*.npy", "shard-*.meta.npz")


def read_current(index_root) -> Optional[str]:
    """The committed generation pointer, or ``None`` if never written.

    Returned as the relative path stored in ``CURRENT`` (``"."`` for the
    flat layout, ``"generations/gen-00001"`` and up afterwards).
    """
    path = Path(index_root) / CURRENT_NAME
    try:
        text = path.read_text(encoding="utf-8").strip()
    except FileNotFoundError:
        return None
    return text or None


def active_root(index_root) -> Path:
    """Directory of the generation queries should sweep right now.

    A store that has never been swapped has no ``CURRENT`` file and its
    artifacts sit directly under ``index_root`` -- that flat layout *is*
    generation 0, so no migration step is needed to start serving it.
    """
    index_root = Path(index_root)
    rel = read_current(index_root)
    if rel is None or rel == FLAT_GENERATION:
        return index_root
    return index_root / rel


def generation_seq(rel: Optional[str]) -> int:
    """Monotone sequence number of a generation pointer value."""
    if rel is None or rel == FLAT_GENERATION:
        return 0
    match = _GEN_RE.match(Path(rel).name)
    if not match:
        raise ValueError(f"not a generation path: {rel!r}")
    return int(match.group(1))


def list_generations(index_root) -> List[str]:
    """Relative paths of every prepared generation, in sequence order."""
    base = Path(index_root) / GENERATIONS_DIR
    if not base.is_dir():
        return []
    found = []
    for entry in base.iterdir():
        if entry.is_dir() and _GEN_RE.match(entry.name):
            found.append(f"{GENERATIONS_DIR}/{entry.name}")
    found.sort(key=generation_seq)
    return found


def prepare_generation(index_root) -> Tuple[str, Path]:
    """Allocate the next generation directory (created, empty).

    Returns ``(relative_path, absolute_path)``.  Nothing is visible to
    readers until :func:`commit_generation` publishes the pointer.
    """
    index_root = Path(index_root)
    existing = list_generations(index_root)
    next_seq = max(
        [generation_seq(rel) for rel in existing]
        + [generation_seq(read_current(index_root))]
    ) + 1
    rel = f"{GENERATIONS_DIR}/gen-{next_seq:05d}"
    path = index_root / rel
    path.mkdir(parents=True, exist_ok=False)
    return rel, path


def clone_store(src_root, dst_root) -> int:
    """Populate a prepared generation with the parent store's artifacts.

    Hard-links files where the filesystem allows (shards are immutable
    once flushed, so sharing the bytes is safe and O(1) per file) and
    falls back to a copy otherwise.  Returns the number of files cloned.
    """
    src_root, dst_root = Path(src_root), Path(dst_root)
    sources = [
        src for pattern in _CLONE_GLOBS
        for src in sorted(src_root.glob(pattern))
    ]
    # the persisted ANN state, by the one name the cloned manifest gives
    # it (no glob: an orphaned ``ann-*.npz`` must stay behind);
    # linking is safe, the store replaces that file by rename
    ann = json.loads(
        (src_root / "manifest.json").read_text(encoding="utf-8")
    ).get("ann") or {}
    if "file" in ann:
        sources.append(src_root / ann["file"])
    cloned = 0
    for src in sources:
        if not src.is_file():
            continue
        dst = dst_root / src.name
        try:
            os.link(src, dst)
        except OSError:
            shutil.copy2(src, dst)
        cloned += 1
    return cloned


def commit_generation(index_root, rel: str) -> None:
    """Atomically flip ``CURRENT`` to ``rel``.

    The ``serving.swap`` failpoint fires inside the crash window (new
    pointer durable under the temp name, old one still in place): a
    raise there aborts the swap cleanly and the old generation keeps
    serving; a kill there models a power cut mid-swap.
    """
    atomic_write_text(Path(index_root) / CURRENT_NAME, rel + "\n",
                      failpoint="serving.swap")
