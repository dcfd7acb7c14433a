"""Hypothesis properties of ``isi_backtracking`` on multi-component graphs:
a relabelled induced subgraph of the host always embeds, and complementing
both graphs never changes the answer (an injective map preserves adjacency
and non-adjacency in G exactly when it does in the complement of G)."""

import itertools

import pytest

from mcislab.graphs import Graph, complete_graph, cycle_graph, is_induced_isomorphism, path_graph
from mcislab.solvers import isi_backtracking

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def build(kind: str, k: int) -> Graph:
    if kind == "cycle" and k >= 3:
        return cycle_graph(k)
    if kind == "star":
        return Graph.from_edges(k, [(0, v) for v in range(1, k)])
    if kind == "clique":
        return complete_graph(k)
    return path_graph(k)


@st.composite
def multi_component_graphs(draw) -> Graph:
    """Disjoint unions of 2-4 small paths, cycles, stars and cliques."""
    specs = draw(
        st.lists(
            st.tuples(st.sampled_from(["path", "cycle", "star", "clique"]), st.integers(1, 4)),
            min_size=2,
            max_size=4,
        )
    )
    edges, offset = [], 0
    for g in (build(*spec) for spec in specs):
        edges += [(u + offset, v + offset) for u, v in g.edges]
        offset += g.n
    return Graph.from_edges(offset, edges)


@st.composite
def planted_pairs(draw) -> tuple[Graph, Graph]:
    """A host and a relabelled induced subgraph of it."""
    host = draw(multi_component_graphs())
    keep = draw(st.lists(st.sampled_from(range(host.n)), min_size=1, unique=True))
    index = {v: i for i, v in enumerate(keep)}
    edges = [(index[u], index[v]) for u, v in host.edges if u in index and v in index]
    return Graph.from_edges(len(keep), edges), host


def complement(g: Graph) -> Graph:
    return Graph.from_edges(g.n, set(itertools.combinations(range(g.n), 2)) - g.edges)


@hypothesis.given(planted_pairs())
def test_a_relabelled_induced_subgraph_embeds(pair):
    pattern, host = pair
    witness = isi_backtracking(pattern, host)
    assert witness is not None and len(witness) == pattern.n
    assert is_induced_isomorphism(pattern, host, witness)


@hypothesis.given(planted_pairs(), st.data())
def test_complementing_both_graphs_keeps_the_answer(pair, data):
    pattern, host = pair
    if pattern.n >= 2 and data.draw(st.booleans()):
        # toggle one pair, so the pattern may no longer embed
        u, v = data.draw(st.sampled_from(list(itertools.combinations(range(pattern.n), 2))))
        pattern = Graph.from_edges(pattern.n, pattern.edges ^ {(u, v)})
    direct = isi_backtracking(pattern, host)
    flipped = isi_backtracking(complement(pattern), complement(host))
    assert (direct is None) == (flipped is None)
    hypothesis.event("embeds" if direct else "does not embed")
    for g1, g2, witness in ((pattern, host, direct), (complement(pattern), complement(host), flipped)):
        if witness is not None:
            assert is_induced_isomorphism(g1, g2, witness)
