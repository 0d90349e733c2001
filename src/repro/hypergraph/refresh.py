"""The topology-refresh engine: cached propagation operators.

The dynamic-topology models (DHGCN, DHGNN) rebuild a hypergraph and its
normalised propagation operator every ``refresh_period`` epochs.  Whenever the
hypergraph is structurally unchanged — repeated forward passes between
refreshes, the static channel across a multi-seed sweep, eval after training —
that pipeline (incidence and degree computation, the factor ``L`` and its
transpose) is pure waste.

:class:`OperatorCache` memoises ``hypergraph_propagation_operator`` /
``hypergraph_laplacian`` results behind :meth:`Hypergraph.fingerprint`, an
O(edges) structural key, with LRU eviction.  :class:`TopologyRefreshEngine`
bundles a cache with the chunked k-NN block size and is the single object the
model / training layers thread around.

Invalidation rules
------------------
* A cache entry can never go stale: the key covers node count, hyperedge
  tuples and bit-identical weights, and :class:`Hypergraph` is immutable, so a
  mutated topology (``with_weights``, ``add_hyperedges``, …) is a *different*
  key, never a wrong hit.
* On a dynamic refresh the previous topology's operators are dead weight; the
  builder calls :meth:`OperatorCache.discard` on the superseded hypergraph so
  abandoned dynamic entries do not evict live static ones.
* :meth:`OperatorCache.invalidate` drops everything (used between unrelated
  experiments and by tests).

Cached operators are shared, not copied — propagation operators are
immutable constants to the autograd layer (:mod:`repro.autograd.ops_sparse`);
their arrays are read-only.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Hashable, Mapping

import numpy as np
import scipy.sparse as sp

from repro.errors import ConfigurationError
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.laplacian import (
    HypergraphOperator,
    hypergraph_laplacian,
    hypergraph_propagation_operator,
)
from repro.hypergraph.neighbors import NeighborBackend, resolve_backend
from repro.obs.tracing import span
from repro.precision import resolve_dtype

#: Default LRU capacity; sized for a full benchmark sweep (one static operator
#: per dataset realisation plus the live dynamic operators of a deep model).
DEFAULT_CACHE_SIZE = 128

#: Default capacity of the neighbour-list memo (entries are ``(n, k)`` int64
#: arrays — small next to operators, but embeddings churn every refresh, so a
#: short LRU is all that ever pays off).
DEFAULT_NEIGHBOR_ENTRIES = 32


#: A cache entry: a factored propagation operator or a CSR Laplacian.
CachedOperator = HypergraphOperator | sp.csr_matrix


def _operator_nbytes(operator: CachedOperator) -> int:
    """Resident bytes of a cached operator (every array it holds)."""
    if isinstance(operator, HypergraphOperator):
        return operator.nbytes
    return int(operator.data.nbytes + operator.indices.nbytes + operator.indptr.nbytes)


def _features_digest(features: np.ndarray) -> bytes:
    """Stable content digest of an embedding matrix (C-contiguous bytes)."""
    return hashlib.blake2b(
        np.ascontiguousarray(features).tobytes(), digest_size=16
    ).digest()


class OperatorCache:
    """LRU cache of propagation operators and Laplacians keyed by
    hypergraph fingerprint.

    Besides the operators the cache keeps a small *neighbour-list memo*:
    ``(n, k)`` k-NN index arrays keyed by a content digest of the query
    embedding (plus ``k``/``include_self``/``metric`` and the backend's
    ``cache_key()``).  Layers, models or sweep runs that query the same
    embedding with the same parameters share one distance pass — the second
    query is a pure lookup with zero distance computations.

    Parameters
    ----------
    max_entries:
        LRU capacity; the least recently used operator is evicted beyond it.
    max_bytes:
        Optional byte budget over the resident operator arrays.  A long-lived
        server bounded only by entry *count* could still pin arbitrarily much
        memory (operator size grows with the topology); with ``max_bytes``
        set, least-recently-used operators are evicted until the budget holds
        again (the most recent entry is always kept so a single oversized
        operator still caches).  ``None`` (default) disables the byte bound.
    enabled:
        When ``False`` every request recomputes from scratch (used by the
        cache-equivalence regression tests and as the ablation switch).
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_CACHE_SIZE,
        *,
        max_bytes: int | None = None,
        max_neighbor_entries: int = DEFAULT_NEIGHBOR_ENTRIES,
        enabled: bool = True,
    ) -> None:
        if max_entries < 1:
            raise ConfigurationError(f"max_entries must be >= 1, got {max_entries}")
        if max_bytes is not None and max_bytes < 1:
            raise ConfigurationError(f"max_bytes must be >= 1 or None, got {max_bytes}")
        if max_neighbor_entries < 1:
            raise ConfigurationError(
                f"max_neighbor_entries must be >= 1, got {max_neighbor_entries}"
            )
        self.max_entries = int(max_entries)
        self.max_bytes = None if max_bytes is None else int(max_bytes)
        self.max_neighbor_entries = int(max_neighbor_entries)
        self.enabled = bool(enabled)
        self._entries: OrderedDict[tuple, CachedOperator] = OrderedDict()
        self._bytes = 0
        self._neighbor_entries: OrderedDict[tuple, np.ndarray] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.neighbor_hits = 0
        self.neighbor_misses = 0

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def _evict_to_budget(self) -> None:
        while len(self._entries) > self.max_entries or (
            self.max_bytes is not None
            and self._bytes > self.max_bytes
            and len(self._entries) > 1
        ):
            _, evicted = self._entries.popitem(last=False)
            self._bytes -= _operator_nbytes(evicted)
            self.evictions += 1

    def _get(self, hypergraph: Hypergraph, kind: Hashable, build) -> CachedOperator:
        if not self.enabled:
            self.misses += 1
            return build(hypergraph)
        key = (kind, hypergraph.fingerprint())
        cached = self._entries.get(key)
        if cached is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            return cached
        self.misses += 1
        operator = build(hypergraph)
        self._entries[key] = operator
        self._bytes += _operator_nbytes(operator)
        self._evict_to_budget()
        return operator

    def neighbor_indices(
        self,
        features: np.ndarray,
        k: int,
        *,
        include_self: bool = False,
        metric: str = "euclidean",
        backend: NeighborBackend,
        clamp_k: bool = False,
    ) -> np.ndarray:
        """Memoised ``backend.query`` keyed by embedding content.

        Returns a read-only ``(n, k)`` index array shared between hits —
        callers must copy before mutating.  A hit performs no distance
        computations and does not touch the backend, which is safe precisely
        because the key covers the full embedding bytes: identical content
        means the backend would have found identical neighbours (and, for the
        incremental backend, zero movers).  ``clamp_k`` is part of the key:
        a clamped small-population answer has a different column count than
        the (raising) strict one, so the two can never shadow each other.
        """
        features = np.asarray(features)
        if not self.enabled:
            self.neighbor_misses += 1
            return backend.query(
                features, k, include_self=include_self, metric=metric, clamp_k=clamp_k
            )
        key = (
            _features_digest(features),
            features.shape,
            features.dtype.name,
            int(k),
            bool(include_self),
            metric,
            backend.cache_key(),
            bool(clamp_k),
        )
        cached = self._neighbor_entries.get(key)
        if cached is not None:
            self._neighbor_entries.move_to_end(key)
            self.neighbor_hits += 1
            return cached
        self.neighbor_misses += 1
        indices = backend.query(
            features, k, include_self=include_self, metric=metric, clamp_k=clamp_k
        )
        indices.setflags(write=False)
        self._neighbor_entries[key] = indices
        while len(self._neighbor_entries) > self.max_neighbor_entries:
            self._neighbor_entries.popitem(last=False)
        return indices

    def propagation_operator(
        self,
        hypergraph: Hypergraph,
        *,
        self_loop_isolated: bool = True,
        dtype: np.dtype | str | None = None,
        context: Hashable = None,
    ) -> HypergraphOperator:
        """Cached ``Dv^-1/2 H W De^-1 Hᵀ Dv^-1/2`` (see :mod:`..laplacian`).

        The cache key includes the storage dtype (resolved from the precision
        policy when ``dtype`` is ``None``), so float64 and float32 requests
        for the same topology coexist without ever returning the wrong kind.
        ``context`` is an extra hashable key component; the refresh engine
        passes its neighbour-backend key there, so operators built from
        topologies of different backends never shadow each other.
        """
        target = resolve_dtype(dtype)
        return self._get(
            hypergraph,
            ("propagation", self_loop_isolated, target.name, context),
            lambda hg: hypergraph_propagation_operator(
                hg, self_loop_isolated=self_loop_isolated, dtype=target
            ),
        )

    def laplacian(
        self, hypergraph: Hypergraph, *, dtype: np.dtype | str | None = None
    ) -> sp.csr_matrix:
        """Cached normalised hypergraph Laplacian ``Δ = I - Θ``.

        Laplacians are only requested for static (backend-independent)
        topologies, so there is no ``context`` key here; a future dynamic
        Laplacian path must go through a refresh-protocol method that folds
        the backend key, like :meth:`TopologyRefreshEngine.refresh_operator`.
        """
        target = resolve_dtype(dtype)
        return self._get(
            hypergraph,
            ("laplacian", target.name),
            lambda hg: hypergraph_laplacian(hg, dtype=target),
        )

    # ------------------------------------------------------------------ #
    # Invalidation / introspection
    # ------------------------------------------------------------------ #
    def discard(self, hypergraph: Hypergraph) -> int:
        """Drop every cached operator of ``hypergraph``; returns the count.

        Called on refresh for the superseded dynamic topology — its operators
        can never be requested again, so keeping them would only push live
        entries out of the LRU.
        """
        fingerprint = hypergraph.fingerprint()
        stale = [key for key in self._entries if key[1] == fingerprint]
        for key in stale:
            self._bytes -= _operator_nbytes(self._entries.pop(key))
        return len(stale)

    def invalidate(self) -> None:
        """Drop every cached operator and memoised neighbour list
        (counters are preserved)."""
        self._entries.clear()
        self._neighbor_entries.clear()
        self._bytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict[str, int | float]:
        """Hit/miss counters plus the current occupancy and hit rate."""
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self._entries),
            "bytes": self._bytes,
            "hit_rate": self.hits / total if total else 0.0,
            "neighbor_hits": self.neighbor_hits,
            "neighbor_misses": self.neighbor_misses,
            "neighbor_entries": len(self._neighbor_entries),
        }

    # ------------------------------------------------------------------ #
    # Seeding (session forks share their parent's built operators)
    # ------------------------------------------------------------------ #
    def export_entries(self) -> dict[tuple, CachedOperator]:
        """Snapshot of the cached operators, most recently used last.

        Keys are the internal ``(kind, fingerprint)`` tuples; the operators
        are shared, not copied (they are immutable).
        """
        return dict(self._entries)

    def seed_entries(self, entries: Mapping[tuple, CachedOperator]) -> int:
        """Install entries exported by another cache (oldest-first, LRU applies).

        Entries are treated exactly like freshly built operators: they count
        toward both budgets and may evict (or immediately be evicted by) the
        LRU.  Returns the number of entries installed.
        """
        installed = 0
        for key, operator in entries.items():
            if not isinstance(key, tuple):
                raise ConfigurationError(f"cache keys must be tuples, got {type(key)!r}")
            if key in self._entries:
                self._bytes -= _operator_nbytes(self._entries.pop(key))
            self._entries[key] = operator
            self._bytes += _operator_nbytes(operator)
            installed += 1
        self._evict_to_budget()
        return installed

    def __repr__(self) -> str:
        return (
            f"OperatorCache(entries={len(self._entries)}/{self.max_entries}, "
            f"hits={self.hits}, misses={self.misses}, enabled={self.enabled})"
        )


class TopologyRefreshEngine:
    """Bundles the operator cache with the neighbour-search configuration.

    One engine is shared process-wide by default (:func:`get_default_engine`)
    so repeated runs in a sweep — same dataset realisation, different model
    seeds or refresh periods — reuse each other's static operators.  Models
    accept a private engine for isolation (``use_operator_cache=False``
    constructs a disabled one).

    Parameters
    ----------
    cache:
        The :class:`OperatorCache` to use; a fresh one is created by default.
    max_entries / enabled:
        Forwarded to the cache when ``cache`` is not given.
    block_size:
        Query-block size of the chunked k-NN
        (:func:`repro.hypergraph.knn.knn_indices`); ``None`` keeps the
        library default.
    backend:
        Neighbour-search backend used for every k-NN the engine's owners run
        (:mod:`repro.hypergraph.neighbors`): ``None`` = exact, or a
        registered name / :class:`NeighborBackend` instance.  Named backends
        are constructed fresh per engine with this ``block_size``, so
        stateful backends are never shared between models by accident.  The
        backend's ``cache_key()`` is folded into every operator-cache key the
        engine issues, so operators derived from different backends stay
        separate even for structurally identical topologies.
    """

    def __init__(
        self,
        *,
        cache: OperatorCache | None = None,
        max_entries: int = DEFAULT_CACHE_SIZE,
        enabled: bool = True,
        block_size: int | None = None,
        backend: NeighborBackend | str | None = None,
    ) -> None:
        if block_size is not None and block_size < 1:
            raise ConfigurationError(f"block_size must be >= 1, got {block_size}")
        self.cache = cache if cache is not None else OperatorCache(max_entries, enabled=enabled)
        self.block_size = block_size
        self.backend = resolve_backend(backend, block_size=block_size)

    @classmethod
    def for_model(
        cls,
        *,
        use_cache: bool = True,
        block_size: int | None = None,
        backend: NeighborBackend | str | None = None,
    ) -> "TopologyRefreshEngine":
        """Engine for one model: shared process-wide cache, or a private
        always-rebuild one when ``use_cache`` is off."""
        cache = get_default_engine().cache if use_cache else OperatorCache(enabled=False)
        return cls(cache=cache, block_size=block_size, backend=backend)

    def set_backend(self, backend: NeighborBackend | str | None) -> NeighborBackend:
        """Swap the neighbour-search backend (e.g. from ``TrainConfig``)."""
        self.backend = resolve_backend(backend, block_size=self.block_size)
        return self.backend

    def query_neighbors(
        self,
        features: np.ndarray,
        k: int,
        *,
        include_self: bool = False,
        metric: str = "euclidean",
        clamp_k: bool = False,
    ) -> np.ndarray:
        """k-NN indices through the engine's backend, memoised by content.

        The single neighbour-query path of the dynamic models: layers (or
        whole sweep runs) whose embeddings coincide bit-for-bit share one
        distance pass through the cache's neighbour memo — audited via the
        ``neighbor_hits`` / ``neighbor_misses`` counters in :meth:`stats`.
        The returned array is read-only and shared; copy before mutating.
        """
        with span("knn"):
            return self.cache.neighbor_indices(
                features, k, include_self=include_self, metric=metric,
                backend=self.backend, clamp_k=clamp_k,
            )

    def propagation_operator(
        self,
        hypergraph: Hypergraph,
        *,
        self_loop_isolated: bool = True,
        dtype: np.dtype | str | None = None,
    ) -> HypergraphOperator:
        """Cached operator for a *backend-independent* topology (static
        hypergraphs, eval passes) — shared across engines regardless of their
        neighbour backend, since the operator is a pure function of the
        fingerprinted structure."""
        with span("operator"):
            return self.cache.propagation_operator(
                hypergraph, self_loop_isolated=self_loop_isolated, dtype=dtype
            )

    def refresh_operator(
        self,
        previous: Hypergraph | None,
        hypergraph: Hypergraph,
        *,
        self_loop_isolated: bool = True,
        dtype: np.dtype | str | None = None,
    ) -> HypergraphOperator:
        """Operator of a refreshed topology, invalidating the superseded one.

        The single home of the supersede protocol: ``previous``'s cache
        entries are discarded only when the refresh actually changed the
        structure — a rebuild that reproduces the same fingerprint keeps (and
        hits) its entry.

        Refreshed (dynamic) topologies are *backend-derived*, so the
        backend's ``cache_key()`` is folded into the cache key here: two
        backends that happen to reproduce the same structure keep separate
        entries and their supersede protocols can never interfere.  Static
        requests (:meth:`propagation_operator`) stay unkeyed and shared.
        """
        if previous is not None and previous.fingerprint() != hypergraph.fingerprint():
            self.discard(previous)
        with span("operator"):
            return self.cache.propagation_operator(
                hypergraph,
                self_loop_isolated=self_loop_isolated,
                dtype=dtype,
                context=self.backend.cache_key(),
            )

    def laplacian(
        self, hypergraph: Hypergraph, *, dtype: np.dtype | str | None = None
    ) -> sp.csr_matrix:
        return self.cache.laplacian(hypergraph, dtype=dtype)

    def discard(self, hypergraph: Hypergraph) -> int:
        return self.cache.discard(hypergraph)

    def invalidate(self) -> None:
        self.cache.invalidate()

    def stats(self) -> dict[str, int | float]:
        return self.cache.stats()

    def __repr__(self) -> str:
        return (
            f"TopologyRefreshEngine(block_size={self.block_size}, "
            f"backend={self.backend!r}, cache={self.cache!r})"
        )


_DEFAULT_ENGINE: TopologyRefreshEngine | None = None


def get_default_engine() -> TopologyRefreshEngine:
    """The process-wide shared engine (created lazily)."""
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        _DEFAULT_ENGINE = TopologyRefreshEngine()
    return _DEFAULT_ENGINE


def reset_default_engine() -> None:
    """Replace the shared engine with a fresh one (test isolation hook)."""
    global _DEFAULT_ENGINE
    _DEFAULT_ENGINE = None
