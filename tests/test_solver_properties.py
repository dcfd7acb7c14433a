"""Hypothesis properties of the two exact MCIS/MCCIS solvers on any two
graphs with at most 6 vertices, in both modes: ``mcis_vc_fpt`` and the
brute-force oracle ``mcis_bruteforce`` agree on the size, and each witness
has that many pairs, passes the arbiter and, for MCCIS, induces a connected
subgraph on both sides."""

import itertools

import pytest

from mcislab.graphs import Graph, induces_connected, is_induced_isomorphism
from mcislab.solvers import SolveQuery, mcis_bruteforce, mcis_vc_fpt

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def small_graphs(draw) -> Graph:
    n = draw(st.integers(0, 6))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, itertools.compress(pairs, keep))


@hypothesis.given(small_graphs(), small_graphs(), st.booleans())
def test_fpt_and_bruteforce_agree_with_valid_witnesses(g1, g2, connected):
    query = SolveQuery(g1, g2, connected=connected)
    fpt, brute = mcis_vc_fpt(query), mcis_bruteforce(query)
    assert fpt.size == brute.size
    for result in (fpt, brute):
        assert is_induced_isomorphism(g1, g2, result.witness)
        if connected:
            assert induces_connected(g1, [u for u, _ in result.witness.pairs])
            assert induces_connected(g2, [v for _, v in result.witness.pairs])
