"""Hypothesis properties of ``parse_graph``: both dialects round-trip a
graph, and any document built from both dialects' tokens either parses or
raises ``GraphParseError`` naming a line of the document, never another
exception."""

import itertools

import pytest

from mcislab.graphs import Graph, GraphParseError, parse_graph, serialize_graph

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def graphs(draw) -> Graph:
    n = draw(st.integers(0, 9))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, k in zip(pairs, keep) if k])


def dimacs(g: Graph) -> str:
    lines = ["c rendered for the round trip", f"p edge {g.n} {g.m}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


@hypothesis.given(graphs())
def test_both_dialects_parse_back_to_the_same_graph(g):
    for text in (serialize_graph(g), dimacs(g)):
        again = parse_graph(text)
        assert (again.n, again.edges) == (g.n, g.edges)


TOKENS = ["c", "p", "e", "edge", "#", "x", "-1", "0", "1", "2", "3", "4", "07", "+2", "1.5"]


@st.composite
def documents(draw) -> str:
    """A graph in either dialect, or nothing, with token lines inserted."""
    g = draw(graphs())
    lines = draw(st.sampled_from(["", serialize_graph(g), dimacs(g)])).splitlines()
    for _ in range(draw(st.integers(0, 3))):
        tokens = draw(st.lists(st.sampled_from(TOKENS), max_size=5))
        lines.insert(draw(st.integers(0, len(lines))), " ".join(tokens))
    gaps = st.sampled_from([" ", "  ", "\t"])
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    return "".join(draw(gaps).join(line.split(" ")) + draw(ends) for line in lines)


@hypothesis.given(documents())
def test_any_document_parses_or_names_one_of_its_lines(text):
    try:
        parse_graph(text)
    except GraphParseError as exc:
        assert 1 <= exc.line_no <= max(1, len(text.splitlines()))
        hypothesis.event("GraphParseError")
    else:
        hypothesis.event("parses")
