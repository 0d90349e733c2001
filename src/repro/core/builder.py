"""Dynamic hypergraph construction from node embeddings."""

from __future__ import annotations

from typing import Hashable

import numpy as np

from repro.errors import ConfigurationError
from repro.hypergraph.construction import kmeans_hyperedges, knn_hyperedges, union_hypergraphs
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.laplacian import HypergraphOperator, compactness_hyperedge_weights
from repro.hypergraph.refresh import TopologyRefreshEngine, get_default_engine
from repro.utils.rng import as_rng


class DynamicHypergraphBuilder:
    """Builds the dynamic topology of DHGCN from a node embedding.

    Two hyperedge generators are combined:

    * **k-NN hyperedges** (local information) — one hyperedge per node made of
      the node and its ``k_neighbors`` nearest neighbours in embedding space;
    * **cluster hyperedges** (global information) — ``n_clusters`` k-means
      clusters, each becoming one hyperedge.

    Optionally every dynamic hyperedge is weighted by its compactness in
    embedding space (tight hyperedges get larger weight), which is the
    "dynamic hyperedge weighting" mechanism of the paper.

    The builder is deliberately *non-differentiable*: the topology is data,
    gradients flow through the convolution weights and the features, exactly
    as in the DHGNN family.

    Construction runs through a :class:`TopologyRefreshEngine`: the k-NN step
    goes through the engine's neighbour-search backend (exact chunked by
    default; incremental / LSH via ``engine.backend`` — see
    :mod:`repro.hypergraph.neighbors`) and the propagation operator comes
    from the engine's cache.  On every :meth:`build_operator` call the
    previously built topology's cache entries are discarded — a refresh
    supersedes them, so keeping them would only crowd out live static
    operators.
    """

    def __init__(
        self,
        k_neighbors: int = 4,
        n_clusters: int = 4,
        *,
        use_knn: bool = True,
        use_cluster: bool = True,
        use_edge_weighting: bool = True,
        weight_temperature: float = 1.0,
        seed=None,
        engine: TopologyRefreshEngine | None = None,
    ) -> None:
        if not use_knn and not use_cluster:
            raise ConfigurationError("at least one hyperedge generator must be enabled")
        if k_neighbors < 1:
            raise ConfigurationError(f"k_neighbors must be >= 1, got {k_neighbors}")
        if n_clusters < 1:
            raise ConfigurationError(f"n_clusters must be >= 1, got {n_clusters}")
        if weight_temperature <= 0:
            raise ConfigurationError(f"weight_temperature must be positive, got {weight_temperature}")
        self.k_neighbors = int(k_neighbors)
        self.n_clusters = int(n_clusters)
        self.use_knn = bool(use_knn)
        self.use_cluster = bool(use_cluster)
        self.use_edge_weighting = bool(use_edge_weighting)
        self.weight_temperature = float(weight_temperature)
        self.engine = engine if engine is not None else get_default_engine()
        self._rng = as_rng(seed)
        #: Previously built topology per slot (see :meth:`build_operator`).
        self._last_hypergraphs: dict[Hashable, Hypergraph] = {}
        #: Number of hypergraph constructions performed (refresh diagnostics).
        self.build_count = 0

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def build_hypergraph(self, embedding: np.ndarray) -> Hypergraph:
        """Construct the dynamic hypergraph for ``embedding`` (``(n, d)`` array).

        The k-NN generator keeps the embedding dtype (float32 embeddings get
        float32 distance slabs); k-means and the compactness weights cast to
        float64 internally as before — they are cheap relative to the
        distance pass and feed weight values, not neighbour selections.
        """
        embedding = np.asarray(embedding)
        if embedding.ndim != 2:
            raise ConfigurationError(f"embedding must be 2-D, got shape {embedding.shape}")
        n = embedding.shape[0]
        parts: list[Hypergraph] = []
        if self.use_knn:
            k = min(self.k_neighbors, max(n - 1, 1))
            # Routing through the engine (rather than its backend directly)
            # engages the content-keyed neighbour memo: layers or sweep runs
            # querying an identical embedding share one distance pass.
            parts.append(knn_hyperedges(embedding, k, engine=self.engine))
        if self.use_cluster:
            clusters = min(self.n_clusters, n)
            parts.append(kmeans_hyperedges(embedding, clusters, seed=self._rng))
        hypergraph = union_hypergraphs(*parts)
        if self.use_edge_weighting and hypergraph.n_hyperedges > 0:
            weights = compactness_hyperedge_weights(
                hypergraph, embedding, temperature=self.weight_temperature
            )
            hypergraph = hypergraph.with_weights(weights)
        self.build_count += 1
        return hypergraph

    def build_operator(self, embedding: np.ndarray, *, slot: Hashable = None) -> HypergraphOperator:
        """Construct the normalised propagation operator of the dynamic hypergraph.

        A refresh that changed the structure invalidates the superseded
        topology's cached operators; an identical rebuild hits the cache.

        ``slot`` identifies *whose* previous topology this build supersedes.
        A model whose layers share one builder (DHGCN) passes its layer index,
        so layer k's refresh compares against layer k's own previous topology
        — not the sibling layer built a moment earlier — and an unchanged
        layer keeps hitting its cached operator.
        """
        hypergraph = self.build_hypergraph(embedding)
        operator = self.engine.refresh_operator(self._last_hypergraphs.get(slot), hypergraph)
        self._last_hypergraphs[slot] = hypergraph
        return operator

    def cache_stats(self) -> dict[str, int | float]:
        """Hit/miss statistics of the engine's operator cache."""
        return self.engine.stats()

    def __repr__(self) -> str:
        return (
            f"DynamicHypergraphBuilder(k_neighbors={self.k_neighbors}, "
            f"n_clusters={self.n_clusters}, use_knn={self.use_knn}, "
            f"use_cluster={self.use_cluster}, use_edge_weighting={self.use_edge_weighting})"
        )
