"""Tests for the baseline models (MLP, GCN, GAT, HGNN, HyperGCN, DHGNN)."""

import numpy as np
import pytest

from repro.autograd import Tensor, cross_entropy
from repro.errors import ConfigurationError, TrainingError
from repro.models import DHGNN, GAT, GCN, HGNN, MLP, HyperGCN
from repro.models.hypergcn import hypergcn_adjacency

ALL_MODELS = [MLP, GCN, GAT, HGNN, HyperGCN, DHGNN]


def make_model(model_class, dataset, seed=0):
    return model_class(dataset.n_features, dataset.n_classes, seed=seed)


class TestCommonInterface:
    @pytest.mark.parametrize("model_class", ALL_MODELS)
    def test_forward_shape(self, model_class, tiny_citation_dataset):
        dataset = tiny_citation_dataset
        model = make_model(model_class, dataset).setup(dataset)
        logits = model(Tensor(dataset.features))
        assert logits.shape == (dataset.n_nodes, dataset.n_classes)
        assert np.all(np.isfinite(logits.data))

    @pytest.mark.parametrize("model_class", ALL_MODELS)
    def test_forward_before_setup_raises(self, model_class, tiny_citation_dataset):
        dataset = tiny_citation_dataset
        model = make_model(model_class, dataset)
        with pytest.raises(TrainingError):
            model(Tensor(dataset.features))

    @pytest.mark.parametrize("model_class", ALL_MODELS)
    def test_gradients_reach_all_parameters(self, model_class, tiny_citation_dataset):
        dataset = tiny_citation_dataset
        model = make_model(model_class, dataset).setup(dataset)
        model.train()
        loss = cross_entropy(model(Tensor(dataset.features)), dataset.labels, dataset.split.train)
        loss.backward()
        for name, parameter in model.named_parameters():
            assert parameter.grad is not None, f"no gradient for {name}"
            assert np.all(np.isfinite(parameter.grad)), f"non-finite gradient for {name}"

    @pytest.mark.parametrize("model_class", ALL_MODELS)
    def test_deterministic_initialisation(self, model_class, tiny_citation_dataset):
        dataset = tiny_citation_dataset
        a = make_model(model_class, dataset, seed=3)
        b = make_model(model_class, dataset, seed=3)
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert np.allclose(pa.data, pb.data)

    @pytest.mark.parametrize("model_class", ALL_MODELS)
    def test_works_on_feature_only_dataset(self, model_class, tiny_object_dataset):
        dataset = tiny_object_dataset
        model = make_model(model_class, dataset).setup(dataset)
        logits = model(Tensor(dataset.features))
        assert logits.shape == (dataset.n_nodes, dataset.n_classes)

    @pytest.mark.parametrize("model_class", [MLP, GCN, HGNN, HyperGCN, DHGNN])
    def test_invalid_layer_count(self, model_class):
        with pytest.raises(ConfigurationError):
            model_class(10, 3, n_layers=0)

    @pytest.mark.parametrize("model_class", ALL_MODELS)
    def test_eval_mode_is_deterministic(self, model_class, tiny_citation_dataset):
        dataset = tiny_citation_dataset
        model = make_model(model_class, dataset).setup(dataset)
        model.eval()
        first = model(Tensor(dataset.features)).data
        second = model(Tensor(dataset.features)).data
        assert np.allclose(first, second)


class TestSpecificBehaviour:
    def test_mlp_ignores_structure(self, tiny_citation_dataset, tiny_coauthorship_dataset):
        dataset = tiny_citation_dataset
        model = MLP(dataset.n_features, dataset.n_classes, seed=0).setup(dataset)
        model.eval()
        base = model(Tensor(dataset.features)).data
        # Re-setup with a different dataset's structure: output must not change.
        model.setup(dataset.with_hypergraph(tiny_coauthorship_dataset.hypergraph)
                    if dataset.n_nodes == tiny_coauthorship_dataset.hypergraph.n_nodes
                    else dataset)
        assert np.allclose(model(Tensor(dataset.features)).data, base)

    def test_gcn_structure_affects_output(self, tiny_coauthorship_dataset):
        # The co-authorship dataset has no explicit pairwise graph, so GCN
        # derives it from the hypergraph: changing the hypergraph must change
        # the propagation operator and therefore the output.
        dataset = tiny_coauthorship_dataset
        model = GCN(dataset.n_features, dataset.n_classes, seed=0).setup(dataset)
        model.eval()
        base = model(Tensor(dataset.features)).data
        shuffled = dataset.with_hypergraph(dataset.hypergraph.remove_hyperedges(range(0, 50)))
        model.setup(shuffled)
        assert not np.allclose(model(Tensor(dataset.features)).data, base)

    def test_gat_heads_configuration(self, tiny_citation_dataset):
        dataset = tiny_citation_dataset
        model = GAT(dataset.n_features, dataset.n_classes, hidden_dim=4, n_heads=2, seed=0)
        model.setup(dataset)
        assert model(Tensor(dataset.features)).shape == (dataset.n_nodes, dataset.n_classes)
        with pytest.raises(ConfigurationError):
            GAT(10, 3, n_heads=0)

    def test_hgnn_uses_static_hypergraph_operator(self, tiny_coauthorship_dataset):
        dataset = tiny_coauthorship_dataset
        model = HGNN(dataset.n_features, dataset.n_classes, seed=0).setup(dataset)
        operator = model._operator
        assert operator.shape == (dataset.n_nodes, dataset.n_nodes)
        dense = operator.toarray()
        assert np.allclose(dense, dense.T)

    def test_hypergcn_adjacency_mediator_weights(self):
        features = np.array([[0.0], [1.0], [10.0]])
        adjacency = hypergcn_adjacency([(0, 1, 2)], features, 3, use_mediators=True).toarray()
        # Farthest pair is (0, 2); node 1 is the mediator; weight 1/(2*3-3) = 1/3.
        assert adjacency[0, 2] == pytest.approx(1.0 / 3.0)
        assert adjacency[0, 1] == pytest.approx(1.0 / 3.0)
        assert adjacency[1, 2] == pytest.approx(1.0 / 3.0)

    def test_hypergcn_adjacency_without_mediators(self):
        features = np.array([[0.0], [1.0], [10.0]])
        adjacency = hypergcn_adjacency([(0, 1, 2)], features, 3, use_mediators=False).toarray()
        assert adjacency[0, 2] == pytest.approx(1.0)
        assert adjacency[0, 1] == 0.0

    def test_hypergcn_empty_hyperedges(self):
        adjacency = hypergcn_adjacency([], np.zeros((4, 2)), 4)
        assert adjacency.nnz == 0

    def test_dhgnn_refresh_schedule(self, tiny_citation_dataset):
        dataset = tiny_citation_dataset
        model = DHGNN(
            dataset.n_features, dataset.n_classes, refresh_period=2, k_neighbors=3, n_clusters=3, seed=0
        ).setup(dataset)
        model(Tensor(dataset.features))
        # Operators are immutable, so holding the references snapshots them.
        operators_after_first = list(model._operators)
        model.on_epoch(1)  # 1 % 2 != 0 -> no refresh scheduled
        model(Tensor(dataset.features))
        assert all(
            np.allclose(a.toarray(), b.toarray())
            for a, b in zip(operators_after_first, model._operators)
        )
        model.on_epoch(2)  # refresh scheduled
        model(Tensor(dataset.features))
        changed = any(
            not np.allclose(a.toarray(), b.toarray())
            for a, b in zip(operators_after_first, model._operators)
        )
        assert changed

    def test_dhgnn_validation(self):
        with pytest.raises(ConfigurationError):
            DHGNN(10, 3, k_neighbors=0)
        with pytest.raises(ConfigurationError):
            DHGNN(10, 3, n_clusters=0)
        with pytest.raises(ConfigurationError):
            DHGNN(10, 3, refresh_period=0)
