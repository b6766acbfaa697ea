"""Relevance measurement ``s(x, y | m)`` between items.

The paper delegates the relevance computation to SCSE [17]; we use the
PathSim normalization of meta-graph instance counts, which is the same
family of measures (normalized meta-structure counts in [0, 1]):

    s(x, y | m) = 2 * c_m(x, y) / (c_m(x, x) + c_m(y, y))

where ``c_m`` counts meta-graph instances.  ``s`` is symmetric, lies in
[0, 1], and ``s(x, x | m) = 1`` whenever ``x`` participates in any
instance — all properties the diffusion dynamics rely on.

The :class:`RelevanceEngine` precomputes one dense item-by-item matrix
per meta-graph and exposes weighted combinations, which is what both
personal item networks (Sec. V-A(1)) and the market-level averages
``r̄^C`` / ``r̄^S`` (Sec. IV) consume.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MetaGraphError
from repro.kg.graph import KnowledgeGraph
from repro.kg.metagraph import MetaGraph, Relationship

__all__ = ["RelevanceEngine", "pathsim_normalize"]


def pathsim_normalize(counts: np.ndarray) -> np.ndarray:
    """PathSim-normalize a square instance-count matrix into [0, 1]."""
    counts = np.asarray(counts, dtype=float)
    if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
        raise MetaGraphError("instance-count matrix must be square")
    diagonal = np.diag(counts)
    denominator = diagonal[:, None] + diagonal[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(denominator > 0, 2.0 * counts / denominator, 0.0)
    return np.clip(s, 0.0, 1.0)


class RelevanceEngine:
    """Precomputed per-meta-graph item relevance matrices.

    Parameters
    ----------
    kg:
        The knowledge graph.
    meta_graphs:
        All meta-graphs (complementary and substitutable together).
        Their order defines the weighting-vector layout used by
        :mod:`repro.perception.weights`.
    item_nodes:
        KG node ids of the promoted items, in item-index order: item
        ``i`` of the IMDPP instance is KG node ``item_nodes[i]``.
    """

    def __init__(
        self,
        kg: KnowledgeGraph,
        meta_graphs: list[MetaGraph],
        item_nodes: list[int] | None = None,
    ):
        if not meta_graphs:
            raise MetaGraphError("need at least one meta-graph")
        self.kg = kg
        self.meta_graphs = list(meta_graphs)
        all_items = kg.nodes_of_type("ITEM")
        self.item_nodes = list(item_nodes) if item_nodes is not None else all_items
        type_index = kg.index_of_type("ITEM")
        try:
            item_positions = [type_index[node] for node in self.item_nodes]
        except KeyError as exc:
            raise MetaGraphError(f"item node {exc} is not an ITEM") from None
        self.n_items = len(self.item_nodes)

        matrices = []
        for meta_graph in self.meta_graphs:
            counts = meta_graph.instance_counts(kg).toarray()
            counts = counts[np.ix_(item_positions, item_positions)]
            s = pathsim_normalize(counts)
            np.fill_diagonal(s, 0.0)  # self-relevance never drives adoption
            matrices.append(s)
        #: (n_meta, n_items, n_items) stack of per-meta-graph relevance.
        self.matrices = np.stack(matrices)

        self.complementary_index = np.array(
            [
                i
                for i, m in enumerate(self.meta_graphs)
                if m.relationship is Relationship.COMPLEMENTARY
            ],
            dtype=int,
        )
        self.substitutable_index = np.array(
            [
                i
                for i, m in enumerate(self.meta_graphs)
                if m.relationship is Relationship.SUBSTITUTABLE
            ],
            dtype=int,
        )
        #: ``matrices[complementary_index]``: one complementary row's
        #: operand is a basic slice of it, not a fancy gather per row.
        self.complementary_matrices = self.matrices[self.complementary_index]

    # ------------------------------------------------------------------
    @property
    def n_meta(self) -> int:
        """Number of meta-graphs (weight-vector dimensionality)."""
        return len(self.meta_graphs)

    def matrix(self, meta_index: int) -> np.ndarray:
        """Relevance matrix ``s(., . | m)`` of one meta-graph."""
        return self.matrices[meta_index]

    def combine(
        self, weights: np.ndarray, relationship: Relationship
    ) -> np.ndarray:
        """Personal relevance ``r = clip(sum_m W[m] * s(.|m))``.

        Only meta-graphs of the requested relationship contribute —
        this is exactly ``r^C`` / ``r^S`` of Sec. V-A(1).
        """
        index = (
            self.complementary_index
            if relationship is Relationship.COMPLEMENTARY
            else self.substitutable_index
        )
        if index.size == 0:
            return np.zeros((self.n_items, self.n_items))
        combined = np.tensordot(weights[index], self.matrices[index], axes=1)
        return np.clip(combined, 0.0, 1.0)

    def average_relevance(
        self, weight_rows: np.ndarray, relationship: Relationship
    ) -> np.ndarray:
        """Average personal relevance over a set of users.

        ``weight_rows`` is an (n_users, n_meta) array of those users'
        current meta-graph weightings; because ``r`` is linear in the
        weights, the user-average relevance equals the relevance of the
        average weight vector (before clipping, which we apply last).
        This is the paper's ``r̄^C_{x,y}`` / ``r̄^S_{x,y}``.
        """
        if weight_rows.ndim != 2 or weight_rows.shape[1] != self.n_meta:
            raise MetaGraphError(
                "weight_rows must be (n_users, n_meta) = "
                f"(*, {self.n_meta}), got {weight_rows.shape}"
            )
        if weight_rows.shape[0] == 0:
            return np.zeros((self.n_items, self.n_items))
        mean_weights = weight_rows.mean(axis=0)
        return self.combine(mean_weights, relationship)
