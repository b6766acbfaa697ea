"""Nominee clustering for target-market identification (Procedure 3).

TMI clusters nominees "according to the social distances between the
nominees and the relevance between their promoting items, i.e.
``r̄^C_{x,y} - r̄^S_{x,y}``" — larger complementary and smaller
substitutable relevance encouraged.  The paper plugs in POT [53] or
FGCC [54]; we implement the objective directly: connect two nominees
when their users are within ``hop_threshold`` (undirected) *and* their
items' net relevance ``r̄^C - r̄^S`` is non-negative; clusters are the
connected components.  Same-user nominees with complementary items
also join.
"""

from __future__ import annotations

import numpy as np

from repro.core.problem import IMDPPInstance
from repro.kg.metagraph import Relationship
from repro.social.distances import pairwise_social_distance

__all__ = ["cluster_nominees", "average_relevance_matrices"]


def average_relevance_matrices(
    instance: IMDPPInstance,
    weight_rows: np.ndarray | None = None,
    users: list[int] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``(r̄^C, r̄^S)`` averaged over ``users`` (default: everyone).

    ``weight_rows`` overrides the weights used (e.g. the Monte-Carlo
    mean weights after promoting the current seed group); by default
    the instance's initial weightings apply.
    """
    weights = (
        weight_rows if weight_rows is not None else instance.initial_weights
    )
    if users is not None:
        index = np.asarray(sorted(set(users)), dtype=int)
        weights = weights[index] if len(index) else weights[:0]
    relevance = instance.relevance
    return (
        relevance.average_relevance(weights, Relationship.COMPLEMENTARY),
        relevance.average_relevance(weights, Relationship.SUBSTITUTABLE),
    )


def _affinity_clusters(
    nominees: list[tuple[int, int]],
    hops: np.ndarray,
    net_relevance: np.ndarray,
    hop_threshold: int,
) -> list[list[tuple[int, int]]]:
    n = len(nominees)
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for i in range(n):
        for j in range(i + 1, n):
            item_i, item_j = nominees[i][1], nominees[j][1]
            same_item = item_i == item_j
            net = net_relevance[item_i, item_j]
            socially_close = hops[i, j] <= hop_threshold
            if socially_close and (same_item or net >= 0.0):
                union(i, j)
    clusters: dict[int, list[tuple[int, int]]] = {}
    for i in range(n):
        clusters.setdefault(find(i), []).append(nominees[i])
    return list(clusters.values())


def cluster_nominees(
    instance: IMDPPInstance,
    nominees: list[tuple[int, int]],
    hop_threshold: int = 2,
    max_hops: int = 6,
) -> list[list[tuple[int, int]]]:
    """Cluster nominees into the groups that seed target markets."""
    if not nominees:
        return []
    users = [user for user, _ in nominees]
    hops_users = pairwise_social_distance(
        instance.network, sorted(set(users)), max_hops=max_hops
    )
    position = {user: i for i, user in enumerate(sorted(set(users)))}
    n = len(nominees)
    hops = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            hops[i, j] = hops_users[position[users[i]], position[users[j]]]
    avg_c, avg_s = average_relevance_matrices(instance)
    return _affinity_clusters(nominees, hops, avg_c - avg_s, hop_threshold)
