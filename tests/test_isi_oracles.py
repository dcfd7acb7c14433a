"""``isi_backtracking`` against oracles that share none of its code: the
networkx VF2 matcher on seeded multi-component and dense pairs, and hypothesis
properties (a planted induced subgraph embeds; complementing both graphs
keeps the answer)."""

import itertools
import random

import pytest

from mcislab.corpus import random_graph
from mcislab.graphs import Graph, cycle_graph, is_induced_isomorphism, path_graph
from mcislab.solvers import SolveStats, isi_backtracking


def disjoint_union(pieces) -> Graph:
    edges, offset = [], 0
    for g in pieces:
        edges += [(u + offset, v + offset) for u, v in g.edges]
        offset += g.n
    return Graph.from_edges(offset, edges)


def random_tree(rng, n) -> Graph:
    return Graph.from_edges(n, [(v, rng.randrange(v)) for v in range(1, n)])


def piece(rng, kind) -> Graph:
    if kind == "path":
        return path_graph(rng.randint(1, 6))
    if kind == "cycle":
        return cycle_graph(rng.randint(3, 5))
    return random_tree(rng, rng.randint(1, 6))


def union_pair(rng, kinds):
    """A host of 2-4 pieces and a pattern of up to 5 pieces and at most the
    host's size, both drawn from a small pool so that isomorphic pieces
    repeat."""
    pool = [piece(rng, rng.choice(kinds)) for _ in range(3)]
    host = disjoint_union(rng.choice(pool) for _ in range(rng.randint(2, 4)))
    pieces = []
    for _ in range(rng.randint(2, 5)):
        extra = rng.choice(pool)
        if sum(g.n for g in pieces) + extra.n <= host.n:
            pieces.append(extra)
    return disjoint_union(pieces), host


def sparse_pair(rng):
    def sparse(n):
        return Graph.from_edges(
            n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 1.5 / n]
        )

    return sparse(rng.randint(3, 8)), sparse(rng.randint(6, 12))


def interleaved_pair(rng):
    """A host of 3-6 pieces of equal-size non-isomorphic shapes (P3 and K3;
    P4, K1,3 and C4) and a pattern of 2-4 pieces that may also be K1 or K2,
    each relabelled at random, so that host components of one size but
    different classes interleave by smallest vertex."""
    mixed = [path_graph(3), cycle_graph(3), path_graph(4), Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]),
             cycle_graph(4)]

    def relabelled(shapes, lo, hi):
        g = disjoint_union(rng.choice(shapes) for _ in range(rng.randint(lo, hi)))
        label = rng.sample(range(g.n), g.n)
        return Graph.from_edges(g.n, [(label[u], label[v]) for u, v in g.edges])

    return relabelled(mixed + [path_graph(1), path_graph(2)], 2, 4), relabelled(mixed, 3, 6)


def oracle_pairs():
    rng = random.Random(6)
    pairs = [union_pair(rng, ["path"]) for _ in range(120)]
    pairs += [union_pair(rng, ["tree", "tree", "path"]) for _ in range(120)]
    pairs += [union_pair(rng, ["cycle", "path"]) for _ in range(120)]
    pairs += [sparse_pair(rng) for _ in range(120)]
    pairs += [interleaved_pair(rng) for _ in range(120)]
    return pairs


def vf2_answers(pairs) -> list[bool]:
    """Whether each pattern embeds in its host, by networkx VF2."""
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    def to_nx(g):
        out = nx.Graph()
        out.add_nodes_from(range(g.n))
        out.add_edges_from(g.edges)
        return out

    # VF2's "subgraph" is the node-induced one
    return [GraphMatcher(to_nx(host), to_nx(pattern)).subgraph_is_isomorphic() for pattern, host in pairs]


def test_isi_agrees_with_networkx_vf2_on_multi_component_pairs():
    pairs = oracle_pairs()
    answers = vf2_answers(pairs)
    for (pattern, host), expected in zip(pairs, answers):
        witness = isi_backtracking(pattern, host)
        assert (witness is not None) == expected, (pattern, host)
        if witness is not None:
            assert is_induced_isomorphism(pattern, host, witness)
    # both answers occur often enough for the comparison to mean something
    assert min(answers.count(True), answers.count(False)) >= 100


def degree_refuted(pattern: Graph, host: Graph) -> bool:
    """The degree rule restated, on a pair that the vertex, edge and non-edge
    counts alone let through: the pattern's i-th largest degree or non-degree
    exceeds the host's."""
    def pairs(g):
        return g.n * (g.n - 1) // 2

    if pattern.n > host.n or pattern.m > host.m or pairs(pattern) - pattern.m > pairs(host) - host.m:
        return False
    degrees = [sorted((len(a) for a in g.adj), reverse=True) for g in (pattern, host)]
    non_degrees = [sorted((g.n - 1 - len(a) for a in g.adj), reverse=True) for g in (pattern, host)]
    return any(a > b for a, b in zip(*degrees)) or any(a > b for a, b in zip(*non_degrees))


def test_isi_agrees_with_networkx_vf2_on_dense_pairs():
    # dense pairs, where the degree sequences refute many patterns before any placement
    rng = random.Random(8)
    pairs = []
    for _ in range(1000):
        pattern = random_graph(rng, rng.randint(3, 7), rng.choice((0.5, 0.6, 0.7, 0.8)))
        pairs.append((pattern, random_graph(rng, rng.randint(pattern.n, 9), rng.choice((0.5, 0.6, 0.7, 0.8)))))
    refuted = 0
    for (pattern, host), expected in zip(pairs, vf2_answers(pairs)):
        stats = SolveStats()
        witness = isi_backtracking(pattern, host, stats)
        assert (witness is not None) == expected, (pattern, host)
        if witness is not None:
            assert is_induced_isomorphism(pattern, host, witness)
        if degree_refuted(pattern, host):
            assert stats.search_nodes == 0, (pattern, host)
            refuted += 1
    assert refuted >= 100
