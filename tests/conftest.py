"""Shared fixtures: small, fast, deterministic problem instances."""

from __future__ import annotations

import os
import tempfile

import numpy as np
import pytest

from repro.core.problem import IMDPPInstance
from repro.kg.graph import KnowledgeGraph
from repro.kg.metagraph import (
    Relationship,
    diamond_metagraph,
    shared_attribute_metagraph,
)
from repro.kg.relevance import RelevanceEngine
from repro.perception.params import DynamicsParams
from repro.social.network import SocialNetwork


def own_shm_exports() -> set[str]:
    """Shared-memory export directories this process has on disk."""
    prefix = f"repro-shm-{os.getpid()}-"
    return {
        name
        for name in os.listdir(tempfile.gettempdir())
        if name.startswith(prefix)
    }


def build_tiny_kg() -> tuple[KnowledgeGraph, list[int]]:
    """Fig. 1-style KG: 4 items, shared features/brand/categories.

    Item roles: 0 = iPhone, 1 = AirPods, 2 = charger, 3 = iPad.
    0-1 and 1-2 share features, 0/1/2 share the brand, 0-3 share a
    category (substitutes).
    """
    kg = KnowledgeGraph()
    items = [kg.add_node("ITEM", f"item{i}") for i in range(4)]
    features = [kg.add_node("FEATURE", f"f{i}") for i in range(3)]
    brand = kg.add_node("BRAND", "brand")
    categories = [kg.add_node("CATEGORY", f"c{i}") for i in range(2)]
    kg.add_edge(items[0], features[0], "SUPPORT")
    kg.add_edge(items[1], features[0], "SUPPORT")
    kg.add_edge(items[1], features[1], "SUPPORT")
    kg.add_edge(items[2], features[1], "SUPPORT")
    kg.add_edge(items[0], brand, "PRODUCED_BY")
    kg.add_edge(items[1], brand, "PRODUCED_BY")
    kg.add_edge(items[2], brand, "PRODUCED_BY")
    kg.add_edge(items[0], categories[0], "BELONGS_TO")
    kg.add_edge(items[3], categories[0], "BELONGS_TO")
    kg.add_edge(items[1], categories[1], "BELONGS_TO")
    kg.add_edge(items[2], categories[1], "BELONGS_TO")
    return kg, items


def build_tiny_metagraphs():
    """m1 (feature), m2 (brand), m3 (diamond), ms1 (category)."""
    return [
        shared_attribute_metagraph(
            "m1", Relationship.COMPLEMENTARY, "FEATURE", "SUPPORT"
        ),
        shared_attribute_metagraph(
            "m2", Relationship.COMPLEMENTARY, "BRAND", "PRODUCED_BY"
        ),
        diamond_metagraph(
            "m3",
            Relationship.COMPLEMENTARY,
            [("FEATURE", "SUPPORT"), ("BRAND", "PRODUCED_BY")],
        ),
        shared_attribute_metagraph(
            "ms1", Relationship.SUBSTITUTABLE, "CATEGORY", "BELONGS_TO"
        ),
    ]


def build_tiny_network() -> SocialNetwork:
    """6-user undirected ring with a chord."""
    network = SocialNetwork(6, directed=False)
    edges = [(0, 1, 0.6), (1, 2, 0.5), (2, 3, 0.4), (3, 4, 0.7),
             (4, 5, 0.5), (5, 0, 0.3), (1, 4, 0.2)]
    for u, v, w in edges:
        network.add_edge(u, v, w)
    return network


def build_tiny_instance(
    budget: float = 30.0,
    n_promotions: int = 2,
    dynamics: DynamicsParams | None = None,
) -> IMDPPInstance:
    """Complete 6-user / 4-item instance used across the test suite."""
    kg, items = build_tiny_kg()
    relevance = RelevanceEngine(kg, build_tiny_metagraphs(), items)
    network = build_tiny_network()
    rng = np.random.default_rng(7)
    base_preference = rng.uniform(0.2, 0.7, size=(6, 4))
    weights = rng.uniform(0.3, 0.7, size=(6, relevance.n_meta))
    return IMDPPInstance(
        network=network,
        kg=kg,
        relevance=relevance,
        importance=np.array([1.0, 0.5, 0.8, 1.2]),
        base_preference=base_preference,
        initial_weights=weights,
        costs=np.full((6, 4), 5.0),
        budget=budget,
        n_promotions=n_promotions,
        dynamics=dynamics or DynamicsParams(),
        name="tiny",
    )


@pytest.fixture
def tiny_kg():
    return build_tiny_kg()


@pytest.fixture
def tiny_relevance():
    kg, items = build_tiny_kg()
    return RelevanceEngine(kg, build_tiny_metagraphs(), items)


@pytest.fixture
def tiny_network():
    return build_tiny_network()


@pytest.fixture
def tiny_instance():
    return build_tiny_instance()


@pytest.fixture
def frozen_instance():
    return build_tiny_instance(dynamics=DynamicsParams.frozen())
