"""Query service over a persistent embedding store.

:class:`SearchService` is the online half of the paper's offline/online
split: it encodes nothing.  Given ready query
:class:`~repro.core.model.FunctionEncoding` objects, the ANN backend
proposes candidate rows, the batched Siamese head exact-reranks them,
and an optional threshold (e.g. the Youden-derived cutoff from §IV)
prunes the rest.  :meth:`SearchService.query_batch` answers Q queries in
one corpus pass over the store's memory-mapped shards, with the same
rows and scores as Q single queries; callers that refresh the index
under their own lock (the engine) pass the pinned index in and sweep
it unlocked.  For the stateful
``ivf-pq`` backend over a durable store, the fitted index (scales,
centroids, int8 codes) is persisted next to the shards and reloaded on
open, so no re-quantization pass runs when the corpus has not changed --
appended rows are quantized incrementally.

The offline half -- decompile, preprocess, encode, append to the store --
is ``AsteriaEngine.ingest`` in :mod:`repro.api`.  The engine also
assembles the services it queries: ``engine.service`` over its own
index, and ``engine.make_service(root, meta)``, a fresh store in the
engine's shape and backend that the caller fills from a pipeline run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.model import Asteria, FunctionEncoding
from repro.index.ann import AnnIndex, backend_is_stateful, make_index
from repro.index.store import EmbeddingStore, StoredFunction
from repro.obs.metrics import MetricsRegistry
from repro.utils.logging import get_logger

_LOG = get_logger("index.search")


@dataclass(frozen=True)
class SearchHit:
    """One query result: score plus the stored function's metadata."""

    row: int
    score: float
    name: str
    binary_name: str
    arch: str
    callee_count: int
    ast_size: int
    image_id: str = ""


class SearchService:
    """Top-k search over an embedding store through one ANN backend."""

    def __init__(
        self,
        model: Asteria,
        store: EmbeddingStore,
        backend: str = "exact",
        registry: Optional[MetricsRegistry] = None,
        **backend_options,
    ):
        self.model = model
        self.store = store
        self.backend = backend
        self.backend_options = backend_options
        self.registry = registry
        self._index: Optional[AnnIndex] = None
        self._index_rows = -1
        #: Human-readable reasons the service is running below full
        #: fidelity (e.g. ANN build failed -> exact fallback); surfaced
        #: through engine stats and ``/healthz``.
        self.degraded_reasons: List[str] = []

    def index(self) -> AnnIndex:
        """The ANN index over the store (refreshed when the store grows).

        The stateful backend (``ivf-pq``) over a durable store
        round-trips through the persisted state in the store manifest:
        an unchanged corpus reopens without any quantization pass, a
        grown corpus processes only the appended rows, and either way
        the refreshed state is written back.
        """
        if self._index is None or self._index_rows != self.store.n_flushed:
            options = dict(self.backend_options)
            if self.registry is not None:
                options.setdefault("registry", self.registry)
            if (
                backend_is_stateful(self.backend)
                and self.store.root is not None
            ):
                options.setdefault("state", self.store.read_ann_state())
            try:
                self._index = make_index(
                    self.backend,
                    self.model,
                    self.store.vectors(),
                    self.store.callee_counts(),
                    **options,
                )
                self._persist_index(self._index)
                # a successful (re)build clears any earlier fallback
                self.degraded_reasons = [
                    r for r in self.degraded_reasons
                    if "serving exact sweeps" not in r
                ]
            except Exception as exc:
                # client errors (unknown backend, bad knob values) are
                # the caller's to fix -- degrading them to exact sweeps
                # would mask the typo (imported lazily; repro.api
                # imports this module)
                from repro.api.errors import BadRequestError

                if isinstance(exc, BadRequestError):
                    raise
                if self.backend == "exact":
                    raise  # nothing simpler to fall back to
                # graceful degradation: answer with the exact sweep
                # (correct, slower) rather than failing every query
                reason = (
                    f"{self.backend} index construction failed ({exc}); "
                    f"serving exact sweeps"
                )
                if reason not in self.degraded_reasons:
                    self.degraded_reasons.append(reason)
                _LOG.warning("ANN fallback: %s", reason)
                if self.registry is not None:
                    self.registry.counter(
                        "repro_ann_fallback_total",
                        "ANN construction failures degraded to exact "
                        "sweeps",
                    ).inc()
                self._index = make_index(
                    "exact",
                    self.model,
                    self.store.vectors(),
                    self.store.callee_counts(),
                    registry=self.registry,
                )
            self._index_rows = self.store.n_flushed
            if self.registry is not None:
                self.registry.counter(
                    "repro_index_rebuilds_total",
                    "ANN index (re)constructions over the store",
                ).inc()
        return self._index

    @property
    def index_generation(self) -> int:
        """Store rows covered by the materialised index (-1 = not built).

        Changes exactly when :meth:`index` rebuilds, so health endpoints
        can report "which corpus snapshot queries are answered from"
        without triggering a build.
        """
        return self._index_rows

    def ann_info(self) -> Optional[dict]:
        """Monitoring snapshot of the materialised ANN index, or ``None``.

        Deliberately side-effect free (never builds the index), so stats
        endpoints can poll it without perturbing the service.
        """
        if self._index is None:
            return None
        info = {
            "backend": self.backend,
            "persisted": getattr(self._index, "loaded_from_state", None),
            "rows_projected": getattr(self._index, "rows_projected", 0),
        }
        # tiered-backend knobs, when the materialised index has them
        for knob in ("n_lists", "nprobe", "rows_quantized"):
            value = getattr(self._index, knob, None)
            if value is not None:
                info[knob] = int(value)
        return info

    def _persist_index(self, index: AnnIndex) -> None:
        """Write refreshed ANN state back beside the shards (best effort)."""
        if not backend_is_stateful(self.backend) or self.store.root is None:
            return
        if index.loaded_from_state and not index.rows_projected:
            return  # persisted state already current
        try:
            params, arrays = index.state_dict()
            self.store.write_ann_state(params, arrays)
        except OSError as exc:
            _LOG.warning("could not persist ANN state: %s", exc)

    def query(
        self,
        encoding: FunctionEncoding,
        top_k: Optional[int] = 10,
        threshold: Optional[float] = None,
    ) -> List[SearchHit]:
        """Top-k (or all-above-threshold with ``top_k=None``) matches."""
        return self.query_batch([encoding], top_k, threshold)[0]

    def query_batch(
        self,
        encodings: Sequence[FunctionEncoding],
        top_k: Optional[int] = 10,
        threshold: Optional[float] = None,
        index: Optional[AnnIndex] = None,
    ) -> List[List[SearchHit]]:
        """Top-k matches for Q queries in one corpus pass
        (:meth:`AnnIndex.top_k_batch
        <repro.index.ann.AnnIndex.top_k_batch>`): exactly the hits of Q
        single :meth:`query` calls, and of an exact shard-parallel pool
        sweep, rows and scores bit for bit -- a score is a pure function
        of (query, row), whatever batch it is computed in.

        ``index`` (default: :meth:`index`, refreshed now) answers from one
        pinned earlier: flushed rows never change, so it needs no lock.
        """
        if index is None:
            index = self.index()
        neighbor_lists = index.top_k_batch(
            encodings, k=top_k, threshold=threshold
        )
        return [
            [
                _hit(n.row, n.score, self.store.metadata_at(n.row))
                for n in neighbors
            ]
            for neighbors in neighbor_lists
        ]


def _hit(row: int, score: float, meta: StoredFunction) -> SearchHit:
    return SearchHit(
        row=row,
        score=score,
        name=meta.name,
        binary_name=meta.binary_name,
        arch=meta.arch,
        callee_count=meta.callee_count,
        ast_size=meta.ast_size,
        image_id=meta.image_id,
    )
