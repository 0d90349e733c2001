"""End-to-end pipeline on a hypergraph-native co-authorship dataset.

Run with::

    python examples/coauthorship_pipeline.py

This example walks through the lower-level API that the one-line
``get_dataset`` helper hides:

1. generate a co-authorship hypergraph (papers = hyperedges over authors);
2. inspect its structure (sizes, homophily, degree statistics);
3. build the static propagation operator and a dynamic hypergraph from
   features;
4. train DHGCN and inspect which channel the learnable gates favour.
"""

from __future__ import annotations

import numpy as np

from repro import DHGCN, DHGCNConfig, DynamicHypergraphBuilder, TrainConfig, Trainer
from repro.data.coauthorship import make_coauthorship
from repro.hypergraph import (
    clique_expansion,
    hyperedge_homophily,
    hypergraph_propagation_operator,
    hypergraph_statistics,
)


def main() -> None:
    # ------------------------------------------------------------------ #
    # 1. Generate a co-authorship dataset: authors are nodes, papers are
    #    hyperedges, communities are the classes to predict.
    # ------------------------------------------------------------------ #
    dataset = make_coauthorship(
        "example-coauthorship",
        n_nodes=400,
        n_classes=6,
        n_features=500,
        n_hyperedges=600,
        min_authors=2,
        max_authors=6,
        community_purity=0.8,
        seed=1,
    )
    print(f"dataset: {dataset}")

    # ------------------------------------------------------------------ #
    # 2. Structural inspection.
    # ------------------------------------------------------------------ #
    stats = hypergraph_statistics(dataset.hypergraph)
    print("\nhypergraph statistics:")
    for key, value in stats.items():
        print(f"  {key:26s} {value}")
    print(
        f"  {'hyperedge homophily':26s} "
        f"{hyperedge_homophily(dataset.hypergraph, dataset.labels):.3f}"
    )
    expansion = clique_expansion(dataset.hypergraph)
    print(
        f"\nclique expansion: {expansion.n_edges} pairwise edges replace "
        f"{dataset.hypergraph.n_hyperedges} hyperedges "
        f"(information the pairwise GCN baseline has to work with)"
    )

    # ------------------------------------------------------------------ #
    # 3. Operators: static (from papers) and dynamic (from features).
    # ------------------------------------------------------------------ #
    static_operator = hypergraph_propagation_operator(dataset.hypergraph)
    print(f"\nstatic propagation operator: shape={static_operator.shape}, "
          f"factor nnz={static_operator.factor.nnz} "
          f"(materialised nnz={static_operator.tocsr().nnz})")

    builder = DynamicHypergraphBuilder(k_neighbors=4, n_clusters=6, seed=0)
    dynamic = builder.build_hypergraph(dataset.features)
    print(f"dynamic hypergraph from raw features: {dynamic.n_hyperedges} hyperedges, "
          f"weight range [{dynamic.weights.min():.3f}, {dynamic.weights.max():.3f}]")

    # ------------------------------------------------------------------ #
    # 4. Train DHGCN and inspect the static/dynamic balance it learned.
    # ------------------------------------------------------------------ #
    model = DHGCN(
        dataset.n_features,
        dataset.n_classes,
        DHGCNConfig(hidden_dim=32, k_neighbors=4, n_clusters=6),
        seed=0,
    )
    result = Trainer(model, dataset, TrainConfig(epochs=120, patience=30)).train()
    print(f"\nDHGCN test accuracy : {result.test_accuracy:.4f}")
    print(f"DHGCN test macro-F1 : {result.test_macro_f1:.4f}")
    gates = model.gate_values()
    print(f"static-channel gates per block: {[round(g, 3) for g in gates]}")
    favoured = "static" if np.mean(gates) > 0.5 else "dynamic"
    print(f"on this dataset the learned fusion favours the {favoured} channel")


if __name__ == "__main__":
    main()
