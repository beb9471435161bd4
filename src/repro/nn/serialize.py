"""Model checkpointing via ``numpy.savez``.

Writes go through :func:`repro.utils.fsio.atomic_write`, so a kill
mid-save leaves the previous checkpoint (or nothing) -- never a torn
archive.
"""

from __future__ import annotations

import json
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
    and embedding shards are data, never code.
    """
    path = Path(path)
    if not path.exists() and path.with_suffix(".npz").exists():
        path = path.with_suffix(".npz")
    with np.load(path, allow_pickle=False) as archive:
        meta = json.loads(bytes(archive[_META_KEY]).decode("utf-8"))
        state = {
            key: archive[key] for key in archive.files if key != _META_KEY
        }
    return state, meta
