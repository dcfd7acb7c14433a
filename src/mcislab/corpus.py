"""Seeded random instance generators for the cross-validation harness."""

from __future__ import annotations

import itertools
import random

from .graphs import Graph
from .reductions import CliqueInstance, ThreePartitionInstance

EDGE_PROBABILITIES = (0.2, 0.5, 0.8)


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def random_graph_pair(rng: random.Random, max_n: int) -> tuple[Graph, Graph]:
    """Erdős–Rényi pair; edge probability drawn per instance so both sparse
    and dense cover structure get exercised."""
    graphs = []
    for _ in range(2):
        n = rng.randint(2, max_n)
        p = rng.choice(EDGE_PROBABILITIES)
        graphs.append(random_graph(rng, n, p))
    return graphs[0], graphs[1]


def random_forest(rng: random.Random, max_n: int) -> Graph:
    """Random forest with at least two trees."""
    n = rng.randint(2, max_n)
    t = rng.randint(2, max(2, min(n, 4)))
    comp = list(range(t)) + [rng.randrange(t) for _ in range(n - t)]
    members: dict[int, list[int]] = {}
    edges = []
    for v, c in enumerate(comp):
        if members.setdefault(c, []):
            edges.append((rng.choice(members[c]), v))
        members[c].append(v)
    return Graph.from_edges(n, edges)


def random_clique_instance(rng: random.Random, n: int, l: int) -> CliqueInstance:
    p = rng.choice(EDGE_PROBABILITIES)
    return CliqueInstance(random_graph(rng, n, p), l)


def random_three_partition(rng: random.Random) -> ThreePartitionInstance:
    """Random instance with m <= 2 groups, 8 <= B <= 13 and items in the strict
    range B/4 < a_i < B/2, by rejection."""
    while True:
        m = rng.randint(1, 2)
        b = rng.randint(8, 13)
        lo, hi = b // 4 + 1, (b - 1) // 2
        items = tuple(rng.randint(lo, hi) for _ in range(3 * m))
        if sum(items) == m * b:
            return ThreePartitionInstance(items, m, b)
