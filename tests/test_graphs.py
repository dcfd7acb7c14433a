"""Tests for the graph core: parsing, induced subgraphs, the arbiter,
structural stats."""

import itertools
import random

import pytest

from mcislab.graphs import (
    MAX_VERTICES,
    Graph,
    GraphParseError,
    MappingError,
    SizeBoundError,
    VertexMapping,
    add_universal_vertex,
    complete_graph,
    connected_components,
    cycle_graph,
    edgeless_graph,
    graph_stats,
    induced_subgraph,
    induces_connected,
    induces_forest,
    is_induced_isomorphism,
    parse_graph,
    path_graph,
    serialize_graph,
)
from mcislab.reductions import incidence_graph


# --- parsing ---------------------------------------------------------------


def test_parse_path():
    g = parse_graph("3 2\n0 1\n1 2")
    assert g.n == 3
    assert sorted(g.edges) == [(0, 1), (1, 2)]


def test_parse_triangle():
    g = parse_graph("3 3\n0 1\n1 2\n0 2")
    assert sorted(g.edges) == [(0, 1), (0, 2), (1, 2)]


def test_parse_rejects_self_loop():
    with pytest.raises(GraphParseError) as exc:
        parse_graph("2 1\n0 0")
    assert "line 2" in str(exc.value)


def test_parse_rejects_out_of_range_endpoint():
    with pytest.raises(GraphParseError):
        parse_graph("2 1\n0 5")


def test_parse_collapses_duplicate_edges():
    g = parse_graph("3 3\n0 1\n1 0\n0 1")
    assert sorted(g.edges) == [(0, 1)]


def test_parse_rejects_header_edge_count_mismatch():
    for text in ("3 7\n0 1\n", "3 1\n0 1\n1 2\n", "p edge 3 2\ne 1 2\n"):
        with pytest.raises(GraphParseError) as exc:
            parse_graph(text)
        assert "edge lines" in str(exc.value)
    with pytest.raises(GraphParseError) as exc:
        parse_graph("c comment\np edge 3 3\ne 1 2\ne 2 3\n")
    assert exc.value.line_no == 2


def test_parse_comments_and_blank_lines():
    g = parse_graph("# a path\n3 2\n\n0 1  # first edge\n1 2\n")
    assert sorted(g.edges) == [(0, 1), (1, 2)]


def test_parse_dimacs_dialect():
    g = parse_graph("c triangle\np edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
    assert sorted(g.edges) == [(0, 1), (0, 2), (1, 2)]


def test_parse_malformed_line_reports_line_number():
    with pytest.raises(GraphParseError) as exc:
        parse_graph("3 2\n0 1\n1 2 3")
    assert exc.value.line_no == 3


@pytest.mark.parametrize(
    "text, line_no, message",
    [
        ("c comment\np graph 3 0\n", 2, "expected DIMACS header 'p edge n m'"),
        ("3\n", 1, "expected header 'n m'"),
        ("3 two\n", 1, "header counts must be integers"),
        ("-1 0\n", 1, "vertex count must be non-negative"),
        ("p edge 3 1\nc comment\nf 1 2\n", 3, "expected edge line 'e u v'"),
        ("3 1\n0 x\n", 2, "endpoints must be integers"),
        ("# nothing but a comment\n\n", 1, "empty document"),
        ("p edge 3 1\ne 0 1\n", 2, "endpoint out of range [1, 3]"),
        ("1_0 0\n", 1, "header counts must be integers"),
        ("3 1\n+0 \u0662\n", 2, "endpoints must be integers"),
        ("3 -1\n", 1, "edge count must be non-negative"),
    ],
    ids=["dimacs-header", "header-tokens", "header-counts", "negative-n", "dimacs-edge",
         "endpoint", "empty", "dimacs-range", "header-underscore", "endpoint-sign-and-digit",
         "negative-m"],
)
def test_parse_errors_name_their_line(text, line_no, message):
    with pytest.raises(GraphParseError) as exc:
        parse_graph(text)
    assert exc.value.line_no == line_no
    assert str(exc.value) == f"line {line_no}: {message}"


def test_parse_refuses_a_header_above_the_size_bound():
    # a 10-byte file once asked for 3,000,000 vertices; the header alone decides
    assert parse_graph(f"{MAX_VERTICES} 0\n").n == MAX_VERTICES
    for text in (f"{MAX_VERTICES + 1} 0\n", "p edge 3000000 0\ne 1 2\n"):
        with pytest.raises(SizeBoundError, match="^line 1: header declares"):
            parse_graph(text)


def test_roundtrip_serialize_parse():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(0, 9)
        edges = [
            (u, v)
            for u, v in itertools.combinations(range(n), 2)
            if rng.random() < 0.4
        ]
        g = Graph.from_edges(n, edges)
        again = parse_graph(serialize_graph(g))
        assert again.n == g.n and again.edges == g.edges


# --- construction invariants ----------------------------------------------


def test_graph_rejects_self_loop():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])


def test_graph_rejects_out_of_range():
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 2)])


def test_adjacency_is_symmetric():
    g = Graph.from_edges(4, [(0, 1), (2, 0), (1, 3)])
    for u in range(4):
        for v in g.adj[u]:
            assert u in g.adj[v]


# --- induced subgraph ------------------------------------------------------


def test_induced_subgraph_of_triangle_is_edge():
    sub = induced_subgraph(complete_graph(3), {0, 1})
    assert sub.n == 2 and sorted(sub.edges) == [(0, 1)]


def test_induced_subgraph_nonadjacent_pair():
    sub = induced_subgraph(path_graph(4), {0, 2})
    assert sub.n == 2 and sub.m == 0


def test_induced_subgraph_identity():
    g = Graph.from_edges(5, [(0, 3), (1, 2), (2, 4)])
    sub = induced_subgraph(g, range(5))
    assert sub.n == g.n and sub.edges == g.edges


def test_induced_subgraph_renumbers_in_increasing_id_order():
    # 4 -> 0, 5 -> 1, 7 -> 2, 9 -> 3, whatever order the vertices come in
    g = Graph.from_edges(10, [(4, 9), (5, 7), (7, 9), (0, 4)])
    sub = induced_subgraph(g, [9, 7, 4, 5])
    assert sub.n == 4 and sorted(sub.edges) == [(0, 3), (1, 2), (2, 3)]


def test_induced_subgraph_rejects_unknown_vertex():
    with pytest.raises(ValueError):
        induced_subgraph(path_graph(3), {0, 7})


# --- the arbiter -----------------------------------------------------------


def test_identity_on_triangle_is_isomorphism():
    identity = VertexMapping(((0, 0), (1, 1), (2, 2)))
    assert is_induced_isomorphism(complete_graph(3), complete_graph(3), identity)


def test_path_into_triangle_fails():
    # 0 and 2 are non-adjacent in P3 but adjacent in K3
    identity = VertexMapping(((0, 0), (1, 1), (2, 2)))
    assert not is_induced_isomorphism(path_graph(3), complete_graph(3), identity)


def test_c6_matches_incidence_of_k3():
    # independent oracle: brute force over all 6! bijections
    c6 = cycle_graph(6)
    inc = incidence_graph(complete_graph(3))
    found = [
        perm
        for perm in itertools.permutations(range(6))
        if is_induced_isomorphism(
            c6, inc, VertexMapping(tuple(zip(range(6), perm)))
        )
    ]
    assert found, "C6 must be isomorphic to the incidence graph of K3"


def test_non_injective_mapping_is_rejected():
    with pytest.raises(MappingError):
        is_induced_isomorphism(
            path_graph(3), path_graph(3), VertexMapping(((0, 1), (1, 1)))
        )


def test_out_of_range_mapping_is_rejected():
    with pytest.raises(MappingError):
        is_induced_isomorphism(
            path_graph(2), path_graph(2), VertexMapping(((0, 5),))
        )


def test_inclusion_map_property():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 8)
        g = Graph.from_edges(
            n,
            [
                (u, v)
                for u, v in itertools.combinations(range(n), 2)
                if rng.random() < 0.5
            ],
        )
        subset = sorted(v for v in range(n) if rng.random() < 0.6)
        sub = induced_subgraph(g, subset)
        inclusion = VertexMapping(tuple(enumerate(subset)))
        assert is_induced_isomorphism(sub, g, inclusion)


def test_arbiter_symmetric_under_inversion():
    rng = random.Random(6)
    for _ in range(30):
        g1 = Graph.from_edges(
            5,
            [(u, v) for u, v in itertools.combinations(range(5), 2) if rng.random() < 0.5],
        )
        g2 = Graph.from_edges(
            6,
            [(u, v) for u, v in itertools.combinations(range(6), 2) if rng.random() < 0.5],
        )
        targets = rng.sample(range(6), 4)
        m = VertexMapping(tuple(zip(range(4), targets)))
        inverse = VertexMapping(tuple(zip(targets, range(4))))
        assert is_induced_isomorphism(g1, g2, m) == is_induced_isomorphism(g2, g1, inverse)


# --- stats -----------------------------------------------------------------


def test_stats_c5():
    stats = graph_stats(cycle_graph(5))
    assert stats.girth == 5
    assert not stats.bipartite
    assert stats.c4_free
    assert stats.components == 1


def test_stats_forest_is_acyclic_and_bipartite():
    forest = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4)])
    stats = graph_stats(forest)
    assert stats.girth is None
    assert stats.bipartite
    assert stats.components == 3


def test_stats_k4():
    stats = graph_stats(complete_graph(4))
    assert stats.girth == 3
    assert not stats.bipartite
    assert not stats.c4_free


def test_stats_c4_detection():
    assert not graph_stats(cycle_graph(4)).c4_free


# --- universal vertex ------------------------------------------------------


def test_universal_on_edgeless_is_star():
    star = add_universal_vertex(edgeless_graph(3))
    assert star.n == 4
    assert sorted(star.edges) == [(0, 3), (1, 3), (2, 3)]


def test_universal_on_k3_is_k4():
    assert add_universal_vertex(complete_graph(3)).edges == complete_graph(4).edges


def test_universal_on_empty_graph():
    g = add_universal_vertex(edgeless_graph(0))
    assert g.n == 1 and g.m == 0


def test_universal_girth_3_on_forests_with_an_edge():
    rng = random.Random(9)
    for _ in range(15):
        n = rng.randint(2, 7)
        # random forest: attach each vertex to an earlier one with probability 1/2
        edges = [(rng.randrange(v), v) for v in range(1, n) if rng.random() < 0.5]
        if not edges:
            continue
        forest = Graph.from_edges(n, edges)
        assert graph_stats(forest).girth is None
        assert graph_stats(add_universal_vertex(forest)).girth == 3


# --- components ------------------------------------------------------------


def test_two_disjoint_edges_two_components():
    comps = connected_components(Graph.from_edges(4, [(0, 1), (2, 3)]))
    assert sorted(sorted(c) for c in comps) == [[0, 1], [2, 3]]


def test_connected_graph_one_component():
    assert len(connected_components(cycle_graph(5))) == 1


def test_edgeless_graph_singletons():
    assert len(connected_components(edgeless_graph(3))) == 3


# --- differential against networkx ------------------------------------------


def test_structural_facts_match_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(16)
    cases = []
    for n in range(6):  # every labelled graph with n <= 5
        pairs = list(itertools.combinations(range(n), 2))
        for keep in itertools.product((0, 1), repeat=len(pairs)):
            cases.append(Graph.from_edges(n, itertools.compress(pairs, keep)))
    for n in range(2, 41):
        for p in (1.5 / n, 3 / n):
            pairs = itertools.combinations(range(n), 2)
            cases.append(Graph.from_edges(n, [e for e in pairs if rng.random() < p]))
    for g in cases:
        h = nx.empty_graph(g.n)
        h.add_edges_from(g.edges)
        stats = graph_stats(g)
        assert (stats.girth or float("inf")) == nx.girth(h)
        assert stats.bipartite == nx.is_bipartite(h)
        common = (len(list(nx.common_neighbors(h, u, v))) for u, v in itertools.combinations(h, 2))
        assert stats.c4_free == all(c < 2 for c in common)
        assert stats.components == nx.number_connected_components(h)
        components = sorted(map(sorted, nx.connected_components(h)))
        assert sorted(map(sorted, connected_components(g))) == components
        subset = [v for v in range(g.n) if rng.random() < 0.6]
        sub = h.subgraph(subset)
        assert induces_connected(g, subset) == (not subset or nx.is_connected(sub))
        assert induces_forest(g, subset) == (not subset or nx.is_forest(sub))
