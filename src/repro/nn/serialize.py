"""Model checkpointing via ``numpy.savez``.

Writes go through :func:`repro.utils.fsio.atomic_write`, so a kill
mid-save leaves the previous checkpoint (or nothing) -- never a torn
archive.  Reads check every member's zip CRC-32 before parsing any, so
model checkpoints, Gemini checkpoints, the persisted ANN state and the
artifact cache's objects never load damaged arrays.
"""

from __future__ import annotations

import json
import zipfile
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from repro.utils.fsio import atomic_write

_META_KEY = "__meta__"


def save_state(path, state: Dict[str, np.ndarray], meta: Dict = None,
               failpoint: Optional[str] = None) -> str:
    """Save a state dict (and optional JSON-able metadata) to ``path``.

    Returns the sha256 of the published archive; ``failpoint`` fires in
    the commit's crash window (see :func:`~repro.utils.fsio.atomic_write`).
    """
    path = Path(path)
    if not path.name.endswith(".npz"):
        path = Path(str(path) + ".npz")  # match numpy.savez naming
    payload = dict(state)
    if _META_KEY in payload:
        raise ValueError(f"{_META_KEY!r} is a reserved key")
    payload[_META_KEY] = np.frombuffer(
        json.dumps(meta or {}).encode("utf-8"), dtype=np.uint8
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    return atomic_write(
        path, lambda handle: np.savez(handle, **payload), failpoint
    )


def load_state(path) -> Tuple[Dict[str, np.ndarray], Dict]:
    """Load ``(state_dict, meta)`` saved by :func:`save_state`.

    Only plain ndarrays are accepted (``allow_pickle=False``): checkpoints
    and embedding shards are data, never code.  A damaged archive (not a
    zip, or a member failing its CRC-32) is a ``ValueError`` naming the
    cause: ``np.load`` checks a member's CRC-32 only if it reads the
    member to its end, which a damaged npy shape can stop it short of,
    loading an array cut short with no error.
    """
    path = Path(path)
    if not path.exists() and path.with_suffix(".npz").exists():
        path = path.with_suffix(".npz")
    try:
        with zipfile.ZipFile(path) as archive:
            damaged = archive.testzip()
    except zipfile.BadZipFile as exc:
        raise ValueError(f"not a readable zip archive: {exc}") from exc
    if damaged is not None:
        raise ValueError(f"CRC-32 mismatch in member {damaged}")
    with np.load(path, allow_pickle=False) as archive:
        meta = json.loads(bytes(archive[_META_KEY]).decode("utf-8"))
        state = {
            key: archive[key] for key in archive.files if key != _META_KEY
        }
    return state, meta
