"""HGNN (Feng et al., AAAI 2019): hypergraph convolution on a static hypergraph."""

from __future__ import annotations

from repro.autograd.ops_sparse import spmm
from repro.autograd.tensor import Tensor, as_tensor
from repro.data.dataset import NodeClassificationDataset
from repro.errors import ConfigurationError
from repro.hypergraph.laplacian import HypergraphOperator, hypergraph_propagation_operator
from repro.models.base import BaseNodeClassifier
from repro.nn import Dropout, Linear
from repro.nn.container import ModuleList
from repro.utils.rng import as_rng, spawn_rngs


class HGNN(BaseNodeClassifier):
    """Stacked hypergraph convolutions ``X' = σ(Θ X W)``.

    ``Θ = Dv^-1/2 H W De^-1 Hᵀ Dv^-1/2`` is precomputed once from the dataset's
    *static* hypergraph: the topology is fixed for the whole training run,
    which is exactly the limitation DHGCN addresses.
    """

    name = "HGNN"

    def __init__(
        self,
        in_features: int,
        n_classes: int,
        hidden_dim: int = 32,
        n_layers: int = 2,
        dropout: float = 0.5,
        seed=None,
    ) -> None:
        super().__init__()
        if n_layers < 1:
            raise ConfigurationError(f"n_layers must be >= 1, got {n_layers}")
        rngs = spawn_rngs(as_rng(seed), n_layers)
        dims = [in_features] + [hidden_dim] * (n_layers - 1) + [n_classes]
        self.layers = ModuleList(
            Linear(dims[i], dims[i + 1], seed=rngs[i]) for i in range(n_layers)
        )
        self.dropout = Dropout(dropout, seed=seed)
        self._operator: HypergraphOperator | None = None

    def _setup(self, dataset: NodeClassificationDataset) -> None:
        self._operator = hypergraph_propagation_operator(dataset.hypergraph)

    def forward(self, features: Tensor) -> Tensor:
        self.require_setup()
        hidden = as_tensor(features)
        for position, layer in enumerate(self.layers):
            hidden = self.dropout(hidden)
            hidden = spmm(self._operator, layer(hidden))
            if position < len(self.layers) - 1:
                hidden = hidden.relu()
        return hidden
