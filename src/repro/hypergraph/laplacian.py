"""Hypergraph propagation operators and Laplacians.

Follows Zhou, Huang & Schölkopf (2006) and the HGNN convolution
(Feng et al., AAAI 2019):

    Θ = Dv^{-1/2} H W De^{-1} Hᵀ Dv^{-1/2}
    Δ = I - Θ            (hypergraph Laplacian)

where ``H`` is the incidence matrix, ``W`` the diagonal hyperedge weight
matrix, ``Dv``/``De`` the node/hyperedge degree matrices.  Nodes that belong
to no hyperedge receive an identity row when ``self_loop_isolated`` is set so
their features survive the smoothing step unchanged.

``Θ`` is kept factored, as HGNN+ (Gao et al., TPAMI 2022) applies it:
``Θ = L · diag(c) · Lᵀ`` with ``L = Dv^{-1/2} H`` (``n × m``, one entry per
incidence) and ``c = w / δ``.  A cluster hyperedge of ``s`` nodes puts ``s²``
entries into a materialised ``Θ`` but only ``s`` into ``L``, so the factored
product costs ``O(Σ|e|)`` per feature column where the materialised one
costs ``O(Σ|e|²)``.  The operator is symmetric, so it is its own transpose
and the backward pass reuses the forward product.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import scipy.sparse as sp

from repro.hypergraph.hypergraph import Hypergraph
from repro.precision import resolve_dtype


def _safe_inverse(values: np.ndarray, power: float = 1.0) -> np.ndarray:
    """Elementwise ``values**-power`` with zeros left at zero."""
    inverse = np.zeros_like(values, dtype=np.float64)
    positive = values > 0
    inverse[positive] = np.power(values[positive], -power)
    return inverse


class HypergraphOperator:
    """The propagation operator ``Θ = L · diag(c) · Lᵀ`` in factored form.

    ``factor`` is ``L`` as CSR (``n × m``), ``factor_t`` its transpose as
    CSR, and ``scale`` the column scales ``c``.  ``op @ x`` computes
    ``L @ (c * (Lᵀ @ x))`` and never materialises the ``n × n`` matrix;
    :meth:`tocsr` / :meth:`toarray` do, for inspection and for
    :func:`hypergraph_laplacian`.  ``op.T is op`` (``Θ`` is symmetric).

    Instances are immutable: the arrays are read-only, so a cached operator
    shared between the trainer, frozen plans and serving sessions can never
    be changed under them.
    """

    __slots__ = ("factor", "factor_t", "scale")

    def __init__(self, factor: sp.csr_matrix, scale: np.ndarray) -> None:
        factor = factor.tocsr()
        scale = np.asarray(scale, dtype=factor.dtype)
        factor_t = factor.T.tocsr()
        for array in (
            factor.data, factor.indices, factor.indptr,
            factor_t.data, factor_t.indices, factor_t.indptr, scale,
        ):
            array.flags.writeable = False
        self.factor = factor
        self.factor_t = factor_t
        self.scale = scale

    @property
    def shape(self) -> tuple[int, int]:
        n = self.factor.shape[0]
        return (n, n)

    @property
    def dtype(self) -> np.dtype:
        return self.factor.dtype

    @property
    def T(self) -> "HypergraphOperator":
        return self

    @property
    def nbytes(self) -> int:
        """Resident bytes of both factors and the scales."""
        return int(
            sum(
                array.nbytes
                for matrix in (self.factor, self.factor_t)
                for array in (matrix.data, matrix.indices, matrix.indptr)
            )
            + self.scale.nbytes
        )

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        inner = self.factor_t @ x
        inner *= self.scale.reshape((-1,) + (1,) * (inner.ndim - 1))
        return self.factor @ inner

    def tocsr(self) -> sp.csr_matrix:
        """The materialised ``n × n`` matrix (``O(Σ|e|²)`` entries)."""
        return (self.factor @ sp.diags(self.scale) @ self.factor_t).tocsr()

    def toarray(self) -> np.ndarray:
        return self.tocsr().toarray()

    def restrict(self, nodes: Sequence[int] | np.ndarray) -> "HypergraphOperator":
        """``Θ[nodes][:, nodes]`` as a factored operator.

        A principal submatrix of ``L diag(c) Lᵀ`` is ``L[nodes] diag(c)
        L[nodes]ᵀ``, so this is a row selection of ``L``; the factor columns
        left without entries are dropped.  When the dropped nodes are
        isolated, the result is bit-identical to the operator built over the
        induced sub-hypergraph.
        """
        rows = self.factor[np.asarray(nodes, dtype=np.int64)]
        used = np.zeros(self.factor.shape[1], dtype=bool)
        used[rows.indices] = True
        remap = np.cumsum(used) - 1
        factor = sp.csr_matrix(
            (rows.data, remap[rows.indices].astype(rows.indices.dtype), rows.indptr),
            shape=(rows.shape[0], int(used.sum())),
        )
        return HypergraphOperator(factor, self.scale[used])

    def __repr__(self) -> str:
        return (
            f"HypergraphOperator(shape={self.shape}, factor_nnz={self.factor.nnz}, "
            f"dtype={self.dtype})"
        )


def hypergraph_propagation_operator(
    hypergraph: Hypergraph,
    *,
    self_loop_isolated: bool = True,
    dtype: np.dtype | str | None = None,
) -> HypergraphOperator:
    """Return the HGNN smoothing operator ``Dv^-1/2 H W De^-1 Hᵀ Dv^-1/2``.

    The operator is factored (:class:`HypergraphOperator`): ``L = Dv^-1/2 H``
    and ``c = w / δ``.

    Parameters
    ----------
    hypergraph:
        The hypergraph whose structure defines the operator.
    self_loop_isolated:
        When ``True`` (default), nodes contained in no hyperedge keep their
        own features through an added identity entry, which prevents their
        representations from collapsing to zero.  Each such node gets one
        unit column of ``L`` with scale 1, after the hyperedge columns.
    dtype:
        Storage dtype of the factors; ``None`` follows the active precision
        policy.  The factors are computed in float64 and cast once at the
        end, so float32 factors are bit-wise the rounded float64 ones.
    """
    target = resolve_dtype(dtype)
    n = hypergraph.n_nodes
    incidence = hypergraph.incidence_matrix().tocoo()
    m = hypergraph.n_hyperedges
    node_scale = _safe_inverse(hypergraph.node_degrees(), power=0.5)
    edge_scale = hypergraph.weights * _safe_inverse(hypergraph.edge_degrees())
    loops = (
        hypergraph.isolated_nodes() if self_loop_isolated else np.zeros(0, dtype=np.int64)
    )
    rows = np.concatenate((incidence.row, loops))
    cols = np.concatenate((incidence.col, m + np.arange(loops.size)))
    values = np.concatenate((node_scale[incidence.row], np.ones(loops.size)))
    # Isolated rows hold only their loop entry, so every row's columns stay
    # in ascending order through the COO -> CSR conversion.
    factor = sp.coo_matrix((values, (rows, cols)), shape=(n, m + loops.size)).tocsr()
    scale = np.concatenate((edge_scale, np.ones(loops.size)))
    return HypergraphOperator(factor.astype(target), scale.astype(target))


def hypergraph_laplacian(
    hypergraph: Hypergraph, *, dtype: np.dtype | str | None = None
) -> sp.csr_matrix:
    """Normalised hypergraph Laplacian ``Δ = I - Θ`` (Zhou et al., 2006)."""
    target = resolve_dtype(dtype)
    operator = hypergraph_propagation_operator(
        hypergraph, self_loop_isolated=False, dtype=np.float64
    )
    laplacian = (sp.eye(hypergraph.n_nodes) - operator.tocsr()).tocsr()
    if laplacian.dtype != target:
        laplacian = laplacian.astype(target)
    return laplacian


def compactness_hyperedge_weights(
    hypergraph: Hypergraph,
    features: np.ndarray,
    *,
    temperature: float = 1.0,
    eps: float = 1e-12,
) -> np.ndarray:
    """Dynamic hyperedge weights from embedding-space compactness.

    Each hyperedge is scored by the mean squared distance of its members to
    the hyperedge centroid; tighter hyperedges receive larger weights through
    ``w(e) = exp(-spread(e) / temperature)``, normalised to mean 1 so the
    overall scale of the propagation operator is preserved.

    This implements the "dynamic hyperedge weighting" component of DHGCN.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.shape[0] != hypergraph.n_nodes:
        raise ValueError(
            f"features must have {hypergraph.n_nodes} rows, got {features.shape[0]}"
        )
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    spreads = np.zeros(hypergraph.n_hyperedges, dtype=np.float64)
    for index, edge in enumerate(hypergraph.hyperedges):
        members = features[list(edge)]
        centroid = members.mean(axis=0, keepdims=True)
        spreads[index] = float(np.mean(np.sum((members - centroid) ** 2, axis=1)))
    # Normalise spreads so the temperature acts on a scale-free quantity.
    scale = float(np.mean(spreads)) + eps
    weights = np.exp(-spreads / (scale * temperature))
    weights = weights / (np.mean(weights) + eps)
    return np.maximum(weights, eps)
