"""Tests for the solvers: backtracking ISI, the brute-force oracle, the
vertex-cover FPT algorithm, the configuration stream and the k-candidate
reduction."""

import itertools
import random

import pytest

from mcislab.corpus import random_graph_pair
from mcislab.graphs import (
    Graph,
    VertexMapping,
    complete_graph,
    cycle_graph,
    edgeless_graph,
    induces_connected,
    is_induced_isomorphism,
    path_graph,
)
from mcislab.params import min_vertex_cover
from mcislab.reductions import incidence_graph
from mcislab import solvers
from mcislab.solvers import (
    OracleBoundError,
    SolveQuery,
    WitnessError,
    configuration_bound,
    enumerate_configurations,
    isi_backtracking,
    mcis_bruteforce,
    mcis_vc_fpt,
    mcis_via_isi,
)


def assert_valid_witness(query, result):
    assert len(result.witness) == result.size
    assert is_induced_isomorphism(query.g1, query.g2, result.witness)
    if query.connected:
        assert induces_connected(query.g1, [u for u, _ in result.witness.pairs])
        assert induces_connected(query.g2, [v for _, v in result.witness.pairs])


# --- ISI backtracking ------------------------------------------------------


def test_isi_edge_into_edgeless_fails():
    assert isi_backtracking(path_graph(2), edgeless_graph(3)) is None


def test_isi_c6_into_incidence_k3():
    host = incidence_graph(complete_graph(3))
    witness = isi_backtracking(cycle_graph(6), host)
    assert witness is not None
    assert is_induced_isomorphism(cycle_graph(6), host, witness)


def test_isi_incidence_k3_needs_a_triangle_in_the_source():
    pattern = incidence_graph(complete_graph(3))
    for host_source in (cycle_graph(4), path_graph(4), cycle_graph(5)):
        host = incidence_graph(host_source)
        assert isi_backtracking(pattern, host) is None


def test_isi_empty_pattern_always_embeds():
    assert isi_backtracking(edgeless_graph(0), edgeless_graph(0)) == VertexMapping(())


def test_isi_agrees_with_bruteforce_subset_search():
    rng = random.Random(21)
    for _ in range(60):
        g1, g2 = random_graph_pair(rng, 7)
        got = isi_backtracking(g1, g2) is not None
        expected = g1.n <= g2.n and any(
            is_induced_isomorphism(g1, g2, VertexMapping(tuple(zip(range(g1.n), images))))
            for images in itertools.permutations(range(g2.n), g1.n)
        )
        assert got == expected


# --- brute-force oracle ----------------------------------------------------


def test_brute_identical_triangles():
    for conn in (False, True):
        result = mcis_bruteforce(SolveQuery(complete_graph(3), complete_graph(3), conn))
        assert result.size == 3


def test_brute_p3_vs_k3():
    result = mcis_bruteforce(SolveQuery(path_graph(3), complete_graph(3)))
    assert result.size == 2


def test_brute_connected_restriction():
    two_edges = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert mcis_bruteforce(SolveQuery(two_edges, path_graph(5), connected=True)).size == 2
    # without the restriction both edges fit
    assert mcis_bruteforce(SolveQuery(two_edges, path_graph(5))).size == 4


def test_brute_refuses_above_bound():
    with pytest.raises(OracleBoundError):
        mcis_bruteforce(SolveQuery(edgeless_graph(11), edgeless_graph(3)))


def test_brute_bound_override(monkeypatch):
    monkeypatch.setenv("MCIS_ORACLE_BOUND", "12")
    assert mcis_bruteforce(SolveQuery(edgeless_graph(11), edgeless_graph(3))).size == 3


def test_brute_empty_inputs():
    result = mcis_bruteforce(SolveQuery(edgeless_graph(0), path_graph(3)))
    assert result.size == 0 and result.witness == VertexMapping(())


def test_witness_guards_raise_without_assert(monkeypatch):
    # the guards must hold under python -O, which strips assert statements
    monkeypatch.setattr(solvers, "is_induced_isomorphism", lambda *args: False)
    with pytest.raises(WitnessError):
        isi_backtracking(path_graph(2), path_graph(3))
    # an embedding that maps an edge onto a non-edge reaches the oracle's guard
    monkeypatch.setattr(solvers, "isi_backtracking", lambda p, h: VertexMapping(((0, 0), (1, 1))))
    with pytest.raises(WitnessError):
        mcis_bruteforce(SolveQuery(path_graph(2), edgeless_graph(2)))
    # the FPT solver's arbiter is a guard too: a rejected candidate raises
    monkeypatch.setattr(solvers, "is_induced_isomorphism", lambda *args: False)
    with pytest.raises(WitnessError):
        mcis_vc_fpt(SolveQuery(path_graph(3), path_graph(3)))


# --- the FPT solver --------------------------------------------------------


def test_fpt_p3_vs_k3():
    assert mcis_vc_fpt(SolveQuery(path_graph(3), complete_graph(3))).size == 2


def test_fpt_self_match_connected():
    for g in (path_graph(5), cycle_graph(6), complete_graph(4)):
        result = mcis_vc_fpt(SolveQuery(g, g, connected=True))
        assert result.size == g.n


def test_fpt_edgeless_pair():
    result = mcis_vc_fpt(SolveQuery(edgeless_graph(5), edgeless_graph(3)))
    assert result.size == 3


def test_fpt_edgeless_pair_connected_is_single_vertex():
    result = mcis_vc_fpt(SolveQuery(edgeless_graph(5), edgeless_graph(3), connected=True))
    assert result.size == 1


def test_fpt_empty_input():
    assert mcis_vc_fpt(SolveQuery(edgeless_graph(0), complete_graph(3))).size == 0


def test_fpt_matches_oracle_on_random_pairs():
    rng = random.Random(22)
    for _ in range(60):
        g1, g2 = random_graph_pair(rng, 8)
        for conn in (False, True):
            query = SolveQuery(g1, g2, connected=conn)
            oracle = mcis_bruteforce(query)
            fpt = mcis_vc_fpt(query)
            assert fpt.size == oracle.size, (g1.edges, g2.edges, conn)
            assert_valid_witness(query, fpt)
            assert_valid_witness(query, oracle)


def test_fpt_size_bounds():
    rng = random.Random(23)
    for _ in range(30):
        g1, g2 = random_graph_pair(rng, 7)
        result = mcis_vc_fpt(SolveQuery(g1, g2))
        assert 1 <= result.size <= min(g1.n, g2.n)


def test_fpt_counter_stays_within_bound():
    rng = random.Random(24)
    for _ in range(30):
        g1, g2 = random_graph_pair(rng, 7)
        k1 = len(min_vertex_cover(g1).cover)
        k2 = len(min_vertex_cover(g2).cover)
        for conn in (False, True):
            result = mcis_vc_fpt(SolveQuery(g1, g2, connected=conn))
            assert result.stats.configurations <= configuration_bound(k1, k2)


def test_fpt_pruned_search_matches_exhaustive_stream():
    # the bijection bound and size-before-assembly only skip what cannot win
    rng = random.Random(29)
    for _ in range(120):
        g1, g2 = random_graph_pair(rng, 8)
        reached = max(len(m) for _, m in enumerate_configurations(g1, g2))
        assert mcis_vc_fpt(SolveQuery(g1, g2)).size == reached, (g1.edges, g2.edges)


def planted_cover_graph(rng, n, k):
    """Random edges inside a planted cover of size k, one or two cover
    neighbours for every other vertex, then a random relabelling."""
    edges = [(u, v) for u in range(k) for v in range(u + 1, k) if rng.random() < 0.5]
    for v in range(k, n):
        edges += [(u, v) for u in rng.sample(range(k), rng.randint(1, 2))]
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])


def test_fpt_n40_cover4_pair_stays_small():
    rng = random.Random(1)
    g1, g2 = planted_cover_graph(rng, 40, 4), planted_cover_graph(rng, 40, 4)
    assert len(min_vertex_cover(g1).cover) == len(min_vertex_cover(g2).cover) == 4
    # optima as computed by the search before the class bound (65k+
    # configurations in each mode)
    for conn, optimum in ((False, 36), (True, 31)):
        query = SolveQuery(g1, g2, connected=conn)
        result = mcis_vc_fpt(query)
        assert result.size == optimum
        assert_valid_witness(query, result)
        assert result.stats.configurations <= 1_000
        assert result.stats.bijections_tried > result.stats.bijections_pruned > 0


def test_fpt_draws_tripartition_buckets_lazily(monkeypatch):
    generated = []
    real = solvers.tripartitions

    def counting(cover, sizes=None):
        for trip in real(cover, sizes):
            generated.append(trip)
            yield trip

    monkeypatch.setattr(solvers, "tripartitions", counting)
    g = planted_cover_graph(random.Random(1), 40, 4)
    k = len(min_vertex_cover(g).cover)
    assert mcis_vc_fpt(SolveQuery(g, g)).size == 40
    # once the whole graph is matched no later bucket's ceiling can beat it,
    # so the bucket loop stops before most buckets are generated
    assert 0 < len(generated) < (3**k + 3**k) // 2


def test_fpt_assembly_is_checked_against_its_predicted_size(monkeypatch):
    monkeypatch.setattr(solvers, "_assemble", lambda *args: VertexMapping(()))
    with pytest.raises(WitnessError):
        mcis_vc_fpt(SolveQuery(path_graph(4), path_graph(4)))


def test_fpt_candidates_are_induced_by_construction(monkeypatch):
    verdicts = []
    real = solvers.is_induced_isomorphism

    def recording(*args):
        verdicts.append(real(*args))
        return verdicts[-1]

    monkeypatch.setattr(solvers, "is_induced_isomorphism", recording)
    rng = random.Random(41)
    for _ in range(60):
        g1, g2 = random_graph_pair(rng, 8)
        for conn in (False, True):
            mcis_vc_fpt(SolveQuery(g1, g2, connected=conn))
    # every candidate the FPT solver assembles passes the arbiter
    assert verdicts and all(verdicts)


def test_fpt_is_deterministic():
    rng = random.Random(25)
    g1, g2 = random_graph_pair(rng, 7)
    first = mcis_vc_fpt(SolveQuery(g1, g2))
    second = mcis_vc_fpt(SolveQuery(g1, g2))
    assert first.witness == second.witness and first.size == second.size


# --- configuration stream --------------------------------------------------


def test_enumerate_k2_pair_reaches_full_match():
    sizes = [len(m) for _, m in enumerate_configurations(path_graph(2), path_graph(2))]
    assert max(sizes) == 2


def test_enumerate_k3_vs_p3_never_reaches_three():
    sizes = [len(m) for _, m in enumerate_configurations(complete_graph(3), path_graph(3))]
    assert max(sizes) == 2


def test_enumerate_every_item_is_validated():
    rng = random.Random(26)
    for _ in range(10):
        g1, g2 = random_graph_pair(rng, 5)
        for config, mapping in enumerate_configurations(g1, g2):
            assert is_induced_isomorphism(g1, g2, mapping)
            assert len(config.cover_bijection) == len(config.trip1.matched)


def test_enumerate_dominates_every_bruteforce_optimum():
    rng = random.Random(27)
    for _ in range(15):
        g1, g2 = random_graph_pair(rng, 6)
        best = mcis_bruteforce(SolveQuery(g1, g2)).size
        reached = max(
            (len(m) for _, m in enumerate_configurations(g1, g2)), default=0
        )
        assert reached >= best


# --- the k-candidate reduction ---------------------------------------------


def test_via_isi_k3_pair():
    assert mcis_via_isi(SolveQuery(complete_graph(3), complete_graph(3), threshold=3))


def test_via_isi_k3_vs_p3_fails_at_three():
    assert not mcis_via_isi(SolveQuery(complete_graph(3), path_graph(3), threshold=3))


def test_via_isi_zero_threshold_is_trivially_true():
    assert mcis_via_isi(SolveQuery(edgeless_graph(1), complete_graph(5), threshold=0))


def test_via_isi_refuses_large_k():
    with pytest.raises(OracleBoundError):
        mcis_via_isi(SolveQuery(complete_graph(8), complete_graph(8), threshold=7))


def test_via_isi_decision_matches_oracle():
    rng = random.Random(28)
    for _ in range(15):
        g1, g2 = random_graph_pair(rng, 6)
        for conn in (False, True):
            opt = mcis_bruteforce(SolveQuery(g1, g2, connected=conn)).size
            for k in range(0, min(g1.n, g2.n) + 1):
                got = mcis_via_isi(SolveQuery(g1, g2, connected=conn, threshold=k))
                assert got == (opt >= k), (g1.edges, g2.edges, conn, k)
