"""Content-addressed on-disk artifact cache for the corpus pipeline.

Two artifact kinds are cached per binary, keyed so that any input change
invalidates exactly the work it dirties:

* ``trees`` -- the Decompile + Preprocess output
  (:class:`~repro.pipeline.stages.ExtractedBinary`), keyed by the binary's
  content digest + preprocess params.  Model-independent: retraining the
  model reuses cached trees and re-runs only the Encode stage, which
  compiles its level schedule from these columns (cheaper than reading
  a stored schedule back);
* ``enc`` -- the Encode output (:class:`~repro.core.model.FunctionEncoding`
  rows), keyed by binary digest + preprocess params + the encode dtype
  **+ the model's weights fingerprint**
  (:meth:`~repro.core.model.Asteria.fingerprint`).  A warm hit skips the
  offline phase entirely.

Layout of a cache directory::

    <root>/objects/<key>.npz      one artifact, named by its key
    <root>/objects/<key>.npz.tmp  a put in flight (or one a crash cut
                                  short); never read, overwritten by the
                                  next put of that key

The directory is its own index: an object's file name *is* its key, so a
lookup opens ``objects/<key>.npz`` and there is no manifest to keep in
step.  Every put is one :func:`repro.utils.fsio.atomic_write`, so an
object is visible whole or not at all, and a put survives a crash the
moment it returns.  Each archive member carries its zip CRC-32, and a
lookup reads every member whole against it before parsing: a torn,
truncated or bit-flipped object fails to load, is unlinked and is a
miss, so corruption costs a recompute, never a wrong artifact.  A
``manifest.json`` an older build left beside ``objects/`` is neither
read nor written.  ``root=None`` gives an ephemeral in-memory cache with
the same API.

The cache counts nothing: the pipeline counts each lookup where it makes
it (``repro_pipeline_cache_{hits,misses}_total{kind}``).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.binformat.binary import BinaryFile
from repro.core.model import FunctionEncoding
from repro.nn.serialize import load_state, save_state
from repro.nn.treebatch import CompiledPlan, plan_to_state
from repro.pipeline.stages import ExtractedBinary
from repro.utils.logging import get_logger

_LOG = get_logger("pipeline.cache")

OBJECTS_DIR = "objects"


def binary_digest(binary: BinaryFile) -> str:
    """Content digest of a binary (the cache's primary key component)."""
    return hashlib.sha256(binary.to_bytes()).hexdigest()


def artifact_key(kind: str, digest: str, params: Dict) -> str:
    """Content address of one artifact: kind + binary digest + params."""
    hasher = hashlib.sha256()
    hasher.update(kind.encode("utf-8"))
    hasher.update(b"|")
    hasher.update(digest.encode("utf-8"))
    hasher.update(b"|")
    hasher.update(json.dumps(params, sort_keys=True).encode("utf-8"))
    return f"{kind}-{hasher.hexdigest()[:40]}"


class ArtifactCache:
    """Content-addressed store of per-binary pipeline artifacts."""

    def __init__(self, root=None):
        self.root = Path(root) if root is not None else None
        self._mem: Dict[str, Tuple[Dict, Dict]] = {}
        if self.root is not None:
            (self.root / OBJECTS_DIR).mkdir(parents=True, exist_ok=True)

    @classmethod
    def in_memory(cls) -> "ArtifactCache":
        """An ephemeral cache: same API, nothing touches disk."""
        return cls(None)

    def __len__(self) -> int:
        if self.root is None:
            return len(self._mem)
        return sum(1 for _ in (self.root / OBJECTS_DIR).glob("*.npz"))

    def flush(self) -> None:
        """No-op: every :meth:`put` is durable when it returns.

        Remains only because the benchmark's per-layer replay
        (``benchmarks/e2e/layers.py``) still calls it; goes with ROADMAP
        items 1 and 4(b), as :meth:`put_ctrees` does.
        """

    # -- raw get/put -------------------------------------------------------

    def get(self, key: str) -> Optional[Tuple[Dict, Dict]]:
        """Look up one artifact as ``(state, meta)``; None on miss.

        A missing object is a plain miss.  One that fails to load (bad
        zip, CRC-32 mismatch, bad npy header, bad meta) is unlinked and
        is a miss too, so the next put of its key rewrites it.
        """
        if self.root is None:
            return self._mem.get(key)
        path = self.root / OBJECTS_DIR / f"{key}.npz"
        try:
            return load_state(path)
        except FileNotFoundError:
            return None
        except Exception as exc:
            _LOG.warning("dropping unreadable cache object %s: %s",
                         path.name, exc)
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def put(self, key: str, state: Dict[str, np.ndarray], meta: Dict) -> None:
        """Store one artifact (one atomic write of ``objects/<key>.npz``)."""
        if self.root is None:
            self._mem[key] = (dict(state), dict(meta))
            return
        # crash window: object bytes durable under the temp name -- a
        # reopen sees a miss for this key and recomputes, never a torn
        # object
        save_state(
            self.root / OBJECTS_DIR / f"{key}.npz", state, meta=meta,
            failpoint="cache.put.pre_rename",
        )

    # -- typed artifacts ---------------------------------------------------

    @staticmethod
    def _tree_params(min_ast_size: int) -> Dict:
        return {"min_ast_size": int(min_ast_size), "v": 1}

    @staticmethod
    def _ctree_params(
        min_ast_size: int, batch_size: int, node_budget: int, bucketed: bool
    ) -> Dict:
        return {
            "min_ast_size": int(min_ast_size),
            "batch_size": int(batch_size),
            "node_budget": int(node_budget),
            "bucketed": bool(bucketed),
            # bumped with the plan layout, so an object written in an
            # older layout is never looked up (not read and dropped)
            "v": 2,
        }

    @staticmethod
    def _encoding_params(
        model_fingerprint: str, min_ast_size: int, dtype: str = "float64"
    ) -> Dict:
        return {
            "min_ast_size": int(min_ast_size),
            "model": model_fingerprint,
            "dtype": str(dtype),
            "v": 1,
        }

    def get_trees(
        self, digest: str, min_ast_size: int
    ) -> Optional[ExtractedBinary]:
        key = artifact_key("trees", digest, self._tree_params(min_ast_size))
        found = self.get(key)
        if found is None:
            return None
        state, meta = found
        return ExtractedBinary(
            binary_name=meta["binary_name"],
            arch=meta["arch"],
            names=list(meta["names"]),
            ast_sizes=np.asarray(state["ast_sizes"], dtype=np.int64),
            callee_sizes=np.asarray(state["callee_sizes"], dtype=np.int64),
            callee_offsets=np.asarray(state["callee_offsets"], dtype=np.int64),
            labels=np.asarray(state["labels"], dtype=np.int64),
            lefts=np.asarray(state["lefts"], dtype=np.int64),
            rights=np.asarray(state["rights"], dtype=np.int64),
            tree_offsets=np.asarray(state["tree_offsets"], dtype=np.int64),
            n_decompiled=int(meta["n_decompiled"]),
            n_skipped_small=int(meta["n_skipped_small"]),
        )

    def put_trees(
        self, digest: str, min_ast_size: int, extracted: ExtractedBinary
    ) -> None:
        key = artifact_key("trees", digest, self._tree_params(min_ast_size))
        self.put(
            key,
            {
                "ast_sizes": extracted.ast_sizes,
                "callee_sizes": extracted.callee_sizes,
                "callee_offsets": extracted.callee_offsets,
                "labels": extracted.labels,
                "lefts": extracted.lefts,
                "rights": extracted.rights,
                "tree_offsets": extracted.tree_offsets,
            },
            meta={
                "binary_name": extracted.binary_name,
                "arch": extracted.arch,
                "names": list(extracted.names),
                "n_decompiled": extracted.n_decompiled,
                "n_skipped_small": extracted.n_skipped_small,
            },
        )

    def put_ctrees(
        self,
        digest: str,
        min_ast_size: int,
        batch_size: int,
        node_budget: int,
        plan: CompiledPlan,
        bucketed: bool = True,
    ) -> None:
        """Store one binary's compiled encode plan as a ``ctrees`` object.

        Write-only: no pipeline path reads these objects back.  This and
        :meth:`_ctree_params` remain only because the benchmark's
        per-layer replay (``benchmarks/e2e/layers.py``) still writes
        them; both go with ROADMAP items 1 and 4(b).
        """
        key = artifact_key(
            "ctrees", digest,
            self._ctree_params(min_ast_size, batch_size, node_budget, bucketed),
        )
        self.put(key, plan_to_state(plan), meta={"n_trees": plan.n_trees})

    def get_encodings(
        self,
        digest: str,
        model_fingerprint: str,
        min_ast_size: int,
        dtype: str = "float64",
    ) -> Optional[Tuple[List[FunctionEncoding], int]]:
        """Cached encodings for one binary, plus its skipped-function count."""
        key = artifact_key(
            "enc", digest,
            self._encoding_params(model_fingerprint, min_ast_size, dtype),
        )
        found = self.get(key)
        if found is None:
            return None
        state, meta = found
        vectors = np.asarray(state["vectors"])
        callee_counts = np.asarray(state["callee_counts"], dtype=np.int64)
        ast_sizes = np.asarray(state["ast_sizes"], dtype=np.int64)
        encodings = [
            FunctionEncoding(
                name=name,
                arch=meta["arch"],
                binary_name=meta["binary_name"],
                vector=vectors[i].copy(),
                callee_count=int(callee_counts[i]),
                ast_size=int(ast_sizes[i]),
            )
            for i, name in enumerate(meta["names"])
        ]
        return encodings, int(meta["n_skipped_small"])

    def put_encodings(
        self,
        digest: str,
        model_fingerprint: str,
        min_ast_size: int,
        binary_name: str,
        arch: str,
        encodings: List[FunctionEncoding],
        n_skipped_small: int = 0,
        dtype: str = "float64",
    ) -> None:
        key = artifact_key(
            "enc", digest,
            self._encoding_params(model_fingerprint, min_ast_size, dtype),
        )
        if encodings:
            vectors = np.stack([np.asarray(e.vector) for e in encodings])
        else:
            vectors = np.zeros((0, 0))
        self.put(
            key,
            {
                "vectors": vectors,
                "callee_counts": np.asarray(
                    [e.callee_count for e in encodings], dtype=np.int64
                ),
                "ast_sizes": np.asarray(
                    [e.ast_size for e in encodings], dtype=np.int64
                ),
            },
            meta={
                "binary_name": binary_name,
                "arch": arch,
                "names": [e.name for e in encodings],
                "n_skipped_small": int(n_skipped_small),
            },
        )
