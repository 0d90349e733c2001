"""The factored propagation operator ``Θ = L · diag(c) · Lᵀ``.

Every product of :class:`HypergraphOperator` is checked against the dense
textbook definition ``Dv^-1/2 H W De^-1 Hᵀ Dv^-1/2`` (plus a unit diagonal
entry per isolated node), built here independently of the library.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import get_dataset
from repro.autograd import Tensor, check_gradients
from repro.autograd.ops_sparse import _TRANSPOSE_CACHE, spmm
from repro.core.builder import DynamicHypergraphBuilder
from repro.hypergraph import (
    Hypergraph,
    HypergraphOperator,
    OperatorCache,
    TopologyRefreshEngine,
    hypergraph_laplacian,
    hypergraph_propagation_operator,
)

#: Relative tolerance of each product against the dense definition.
RTOL = {np.float64: 1e-12, np.float32: 1e-5}
DTYPES = [np.float64, np.float32]


@st.composite
def hypergraphs(draw, max_nodes=14, max_edges=8):
    """Random hypergraphs covering the operator's corner cases.

    Nodes beyond the drawn hyperedges stay isolated; hyperedges may be
    singletons or repeat an earlier hyperedge; weights are non-unit; zero
    hyperedges gives the empty hypergraph.
    """
    n_nodes = draw(st.integers(min_value=1, max_value=max_nodes))
    n_edges = draw(st.integers(min_value=0, max_value=max_edges))
    node = st.integers(min_value=0, max_value=n_nodes - 1)
    hyperedges: list[list[int]] = []
    for _ in range(n_edges):
        if hyperedges and draw(st.booleans()):
            hyperedges.append(list(draw(st.sampled_from(hyperedges))))
        else:
            hyperedges.append(draw(st.lists(node, min_size=1, max_size=n_nodes)))
    weights = draw(
        st.lists(
            st.floats(min_value=0.05, max_value=20.0, allow_nan=False),
            min_size=n_edges,
            max_size=n_edges,
        )
    )
    return Hypergraph(n_nodes, hyperedges, weights)


def dense_operator(hypergraph: Hypergraph, *, self_loop_isolated: bool = True) -> np.ndarray:
    """``Dv^-1/2 H W De^-1 Hᵀ Dv^-1/2`` from its definition, in float64."""
    n = hypergraph.n_nodes
    incidence = np.zeros((n, hypergraph.n_hyperedges))
    for index, edge in enumerate(hypergraph.hyperedges):
        incidence[list(edge), index] = 1.0
    weights = np.asarray(hypergraph.weights, dtype=np.float64)
    node_degrees = incidence @ weights
    dv = np.zeros(n)
    dv[node_degrees > 0] = node_degrees[node_degrees > 0] ** -0.5
    edge_degrees = incidence.sum(axis=0)
    theta = (dv[:, None] * incidence) @ np.diag(weights / edge_degrees) @ (
        incidence.T * dv[None, :]
    )
    if self_loop_isolated:
        isolated = node_degrees == 0
        theta[isolated, isolated] = 1.0
    return theta


def assert_product_close(actual, dense, x, rtol):
    """``|actual - dense @ x| <= rtol · (|dense| @ |x|)`` elementwise.

    The bound scales with the magnitudes summed, not with the (possibly
    cancelled) result, so it holds near zero as well.
    """
    expected = dense @ x
    bound = rtol * (np.abs(dense) @ np.abs(x))
    assert actual.shape == expected.shape
    assert np.all(np.abs(actual - expected) <= bound), np.max(np.abs(actual - expected))


def features(hypergraph, dtype, seed=0, d=3):
    return np.random.default_rng(seed).normal(size=(hypergraph.n_nodes, d)).astype(dtype)


# --------------------------------------------------------------------------- #
# Products against the dense definition
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("self_loop_isolated", [True, False])
@given(hypergraph=hypergraphs())
@settings(max_examples=60, deadline=None)
def test_products_match_dense_definition(hypergraph, dtype, self_loop_isolated):
    operator = hypergraph_propagation_operator(
        hypergraph, self_loop_isolated=self_loop_isolated, dtype=dtype
    )
    dense = dense_operator(hypergraph, self_loop_isolated=self_loop_isolated)
    x = features(hypergraph, dtype)
    assert isinstance(operator, HypergraphOperator)
    assert operator.shape == dense.shape
    assert operator.dtype == dtype
    assert operator.T is operator
    forward = operator @ x
    assert forward.dtype == dtype
    # The reference runs in float64 on the very values the operator saw.
    reference_x = x.astype(np.float64)
    assert_product_close(forward, dense, reference_x, RTOL[dtype])
    assert_product_close(operator.T @ x, dense.T, reference_x, RTOL[dtype])
    np.testing.assert_allclose(operator.toarray(), dense, rtol=RTOL[dtype], atol=RTOL[dtype])


@pytest.mark.parametrize("dtype", DTYPES)
@given(hypergraph=hypergraphs())
@settings(max_examples=40, deadline=None)
def test_laplacian_values_unchanged(hypergraph, dtype):
    laplacian = hypergraph_laplacian(hypergraph, dtype=dtype)
    assert laplacian.dtype == dtype
    expected = np.eye(hypergraph.n_nodes) - dense_operator(hypergraph, self_loop_isolated=False)
    np.testing.assert_allclose(laplacian.toarray(), expected, rtol=0, atol=RTOL[dtype])


def test_factors_and_loop_columns():
    # Node 3 is isolated: it gets one unit loop column after the hyperedge
    # columns, with scale 1.
    hypergraph = Hypergraph(4, [[0, 1, 2], [1, 2]], [2.0, 0.5])
    operator = hypergraph_propagation_operator(hypergraph)
    assert operator.factor.shape == (4, 3)
    assert operator.factor.nnz == 5 + 1
    np.testing.assert_array_equal(operator.scale, [2.0 / 3.0, 0.25, 1.0])
    assert operator.factor[3, 2] == 1.0
    assert operator.factor_t.shape == (3, 4)
    assert np.array_equal(operator.factor_t.toarray(), operator.factor.toarray().T)


def test_operator_is_read_only():
    operator = hypergraph_propagation_operator(Hypergraph(3, [[0, 1], [1, 2]]))
    with pytest.raises(ValueError):
        operator.factor.data[0] = 5.0
    with pytest.raises(ValueError):
        operator.scale[0] = 5.0
    with pytest.raises(ValueError):
        operator.factor_t.data[0] = 5.0


# --------------------------------------------------------------------------- #
# Principal submatrices (compaction)
# --------------------------------------------------------------------------- #
def _mask(hypergraph: Hypergraph, deleted: np.ndarray) -> Hypergraph:
    """Drop deleted members; hyperedges left with under two nodes go."""
    edges, weights = [], []
    for edge, weight in zip(hypergraph.hyperedges, hypergraph.weights):
        members = [node for node in edge if not deleted[node]]
        if len(members) >= 2:
            edges.append(members)
            weights.append(float(weight))
    return Hypergraph(hypergraph.n_nodes, edges, weights or None)


@pytest.mark.parametrize("dtype", DTYPES)
@given(hypergraph=hypergraphs(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_restrict_is_principal_submatrix(hypergraph, dtype, data):
    nodes = data.draw(
        st.lists(
            st.integers(0, hypergraph.n_nodes - 1), min_size=1, unique=True
        ).map(sorted)
    )
    operator = hypergraph_propagation_operator(hypergraph, dtype=dtype)
    restricted = operator.restrict(nodes)
    assert restricted.dtype == dtype
    np.testing.assert_allclose(
        restricted.toarray(),
        dense_operator(hypergraph)[np.ix_(nodes, nodes)],
        rtol=RTOL[dtype],
        atol=RTOL[dtype],
    )


@pytest.mark.parametrize("dtype", DTYPES)
@given(hypergraph=hypergraphs(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_restrict_of_masked_operator_equals_rebuild_bytewise(hypergraph, dtype, data):
    # Once deleted nodes are masked out (isolated), restricting to the
    # survivors reproduces the compacted hypergraph's operator bit for bit.
    deleted = np.array(
        data.draw(st.lists(st.booleans(), min_size=hypergraph.n_nodes, max_size=hypergraph.n_nodes))
    )
    alive = np.flatnonzero(~deleted)
    if alive.size == 0:
        return
    masked = _mask(hypergraph, deleted)
    restricted = hypergraph_propagation_operator(masked, dtype=dtype).restrict(alive)
    rebuilt = hypergraph_propagation_operator(masked.subhypergraph(alive), dtype=dtype)
    assert restricted.factor.shape == rebuilt.factor.shape
    for got, want in (
        (restricted.factor.indptr, rebuilt.factor.indptr),
        (restricted.factor.indices, rebuilt.factor.indices),
        (restricted.factor.data, rebuilt.factor.data),
        (restricted.scale, rebuilt.scale),
    ):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


# --------------------------------------------------------------------------- #
# Autograd
# --------------------------------------------------------------------------- #
@given(hypergraph=hypergraphs(max_nodes=8), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_spmm_gradient_through_factored_operator(hypergraph, seed):
    operator = hypergraph_propagation_operator(hypergraph, dtype=np.float64)
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(hypergraph.n_nodes, 2)), requires_grad=True)
    target = rng.normal(size=(hypergraph.n_nodes, 2))
    check_gradients(
        lambda t: (spmm(operator, t) * spmm(operator, t) * target).sum(),
        [x],
        atol=1e-4,
        rtol=1e-3,
    )
    # The symmetric operator needs no memoised transpose.
    assert id(operator) not in _TRANSPOSE_CACHE


# --------------------------------------------------------------------------- #
# Size
# --------------------------------------------------------------------------- #
def test_dynamic_operator_at_train_shape_is_small():
    # The default DHGCN topology at n=2400: k-NN hyperedges (k=4) plus
    # 4 cluster hyperedges of hundreds of nodes each.  Materialised, those
    # clusters fill a third of the n x n matrix.
    dataset = get_dataset("cora-cocitation", seed=0, n_nodes=2400)
    engine = TopologyRefreshEngine()
    builder = DynamicHypergraphBuilder(k_neighbors=4, n_clusters=4, seed=0, engine=engine)
    operator = builder.build_operator(dataset.features.astype(np.float64))
    assert operator.shape == (2400, 2400)
    assert operator.nbytes < 1_000_000
    assert engine.stats()["bytes"] == operator.nbytes
    materialised = operator.tocsr()
    materialised_bytes = (
        materialised.data.nbytes + materialised.indices.nbytes + materialised.indptr.nbytes
    )
    assert materialised_bytes > 20 * operator.nbytes


def test_cache_byte_accounting_follows_factored_size():
    hypergraph = Hypergraph(6, [[0, 1, 2], [2, 3, 4, 5]], [1.0, 2.0])
    cache = OperatorCache()
    operator = cache.propagation_operator(hypergraph)
    laplacian = cache.laplacian(hypergraph)
    assert cache.stats()["bytes"] == operator.nbytes + (
        laplacian.data.nbytes + laplacian.indices.nbytes + laplacian.indptr.nbytes
    )
    cache.discard(hypergraph)
    assert cache.stats()["bytes"] == 0
