"""Hypothesis properties of the arbiter ``is_induced_isomorphism`` on graphs
with at most 7 vertices and lists of pairs with ids in -1..8: it raises
``MappingError`` exactly when a coordinate repeats or leaves its vertex
range, and otherwise returns True exactly when every two pairs agree on
adjacency, read here from the two edge sets.  One test draws lists that are
mostly refused, the other one-to-one lists inside the ranges."""

import itertools

import pytest

from mcislab.graphs import Graph, MappingError, VertexMapping, is_induced_isomorphism

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def small_graphs(draw) -> Graph:
    n = draw(st.integers(0, 7))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, itertools.compress(pairs, keep))


@st.composite
def one_to_one(draw, g1: Graph, g2: Graph) -> list[tuple[int, int]]:
    """Pairs inside the vertex ranges that repeat no coordinate."""
    inside = st.tuples(st.integers(0, max(g1.n - 1, 0)), st.integers(0, max(g2.n - 1, 0)))
    return draw(st.lists(inside, min_size=min(g1.n, g2.n, 2), unique_by=(lambda p: p[0], lambda p: p[1])))


@st.composite
def faulty_lists(draw, g1: Graph, g2: Graph) -> list[tuple[int, int]]:
    """Any list, or a one-to-one list whose last pair then repeats a
    coordinate of the first pair, or has -1 or an id past the range there."""
    if draw(st.booleans()):
        return draw(st.lists(st.tuples(st.integers(-1, 8), st.integers(-1, 8))))
    pairs = draw(one_to_one(g1, g2))
    if pairs:
        side = draw(st.integers(0, 1))
        past = draw(st.integers((g1.n, g2.n)[side], 8))
        last = list(pairs[-1])
        last[side] = draw(st.sampled_from([pairs[0][side], -1, past]))
        pairs[-1] = tuple(last)
    return pairs


def edge(g: Graph, a: int, b: int) -> bool:
    return (min(a, b), max(a, b)) in g.edges


def check(g1: Graph, g2: Graph, pairs: list[tuple[int, int]]) -> None:
    us, vs = [u for u, _ in pairs], [v for _, v in pairs]
    mapping = VertexMapping(tuple(pairs))
    repeats = len(set(us)) < len(us) or len(set(vs)) < len(vs)
    outside = any(not 0 <= u < g1.n for u in us) or any(not 0 <= v < g2.n for v in vs)
    if repeats or outside:
        hypothesis.event("raises")
        with pytest.raises(MappingError):
            is_induced_isomorphism(g1, g2, mapping)
        return
    agree = all(edge(g1, u, x) == edge(g2, v, y) for (u, v), (x, y) in itertools.combinations(pairs, 2))
    hypothesis.event(f"returns {agree}")
    assert is_induced_isomorphism(g1, g2, mapping) == agree


@hypothesis.given(small_graphs(), small_graphs(), st.data())
def test_the_arbiter_refuses_exactly_the_maps_that_repeat_or_leave_a_range(g1, g2, data):
    check(g1, g2, data.draw(faulty_lists(g1, g2)))


@hypothesis.given(small_graphs(), small_graphs(), st.data())
def test_the_arbiter_accepts_exactly_the_maps_that_keep_adjacency(g1, g2, data):
    check(g1, g2, data.draw(one_to_one(g1, g2)))
