"""Tests for the solvers: backtracking ISI, the brute-force oracle, the
vertex-cover FPT algorithm and the configuration stream."""

import itertools
import random
import time

import pytest

from mcislab.corpus import random_graph, random_graph_pair
from mcislab.graphs import (
    Graph,
    VertexMapping,
    complete_graph,
    connected_components,
    cycle_graph,
    edgeless_graph,
    induces_connected,
    is_induced_isomorphism,
    path_graph,
)
from mcislab.params import min_vertex_cover
from mcislab.reductions import (
    ThreePartitionInstance,
    incidence_graph,
    three_partition_exists,
    three_partition_to_forest_isi,
)
from mcislab import solvers
from mcislab.solvers import (
    OracleBoundError,
    SolveQuery,
    SolveStats,
    WitnessError,
    configuration_bound,
    enumerate_configurations,
    isi_backtracking,
    mcis_bruteforce,
    mcis_vc_fpt,
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


def three_partition_isi(items, m):
    out = three_partition_to_forest_isi(ThreePartitionInstance(tuple(items), m, 13))
    return out.g1, out.g2


def test_isi_three_partition_m3_yes_and_no_instances():
    pattern, host = three_partition_isi((4, 4, 5) * 3, 3)
    witness = isi_backtracking(pattern, host)
    assert witness is not None and len(witness) == pattern.n
    assert is_induced_isomorphism(pattern, host, witness)
    assert isi_backtracking(*three_partition_isi((4, 4, 6, 4, 4, 4, 5, 4, 4), 3)) is None


def test_isi_three_partition_m2_no_instance_stays_within_a_node_budget():
    # m=2: the vertex-by-vertex search over the whole host placed about 245k nodes.
    # m=6: about 2.3k; without the host twin rule of _pack, about 130k.
    for items, m in (((4, 4, 6, 4, 4, 4), 2), ((6,) + (4,) * 13 + (5,) * 4, 6)):
        stats = SolveStats()
        assert isi_backtracking(*three_partition_isi(items, m), stats) is None
        assert 0 < stats.search_nodes <= 5_000


def test_isi_three_partition_m2_orders_stay_within_their_node_ceilings():
    # every order of six items in 4..6 summing to 2B, B = 13: 15 yes orders
    # of 812 nodes each and 6 no orders of 894 each
    nodes = {True: [], False: []}
    for items in itertools.product(range(4, 7), repeat=6):
        if sum(items) != 26:
            continue
        stats = SolveStats()
        found = isi_backtracking(*three_partition_isi(items, 2), stats)
        answer = three_partition_exists(ThreePartitionInstance(items, 2, 13))
        assert (found is not None) == answer
        nodes[answer].append(stats.search_nodes)
    assert len(nodes[True]) == 15 and len(nodes[False]) == 6
    assert sum(nodes[True]) <= 12_180
    assert sum(nodes[False]) <= 5_364


def test_vertex_layer_yields_the_induced_embeddings_in_lexicographic_order():
    # the placements of the pattern, its components ordered as
    # isi_backtracking orders them, are the induced embeddings whose images
    # keep the floor rule, in the order itertools.permutations lists them
    rng = random.Random(24)
    for _ in range(100):
        pattern = random_graph(rng, rng.randint(1, 5), rng.choice((0.2, 0.5, 0.8)))
        host = random_graph(rng, rng.randint(pattern.n, 7), rng.choice((0.2, 0.5, 0.8)))
        comps = solvers._component_orders(pattern)
        classes = solvers._component_classes(pattern.adj, comps, [0])
        ranked = sorted(range(len(comps)), key=lambda i: (-len(comps[i]), classes[i]))
        comps, classes = [comps[i] for i in ranked], [classes[i] for i in ranked]
        order = [v for comp in comps for v in comp]
        ends = list(itertools.accumulate(len(comp) for comp in comps))
        expected = []
        for images in itertools.permutations(range(host.n), len(order)):
            if not is_induced_isomorphism(pattern, host, VertexMapping(tuple(sorted(zip(order, images))))):
                continue
            lows = [min(images[end - len(comp):end]) for comp, end in zip(comps, ends)]
            if all(lows[c] > lows[c - 1] for c in range(1, len(comps)) if classes[c] == classes[c - 1]):
                expected.append(images)
        placements = solvers._embeddings(pattern.adj, host.adj, comps, classes, range(host.n), [0])
        assert [tuple(found[v] for v in order) for found in placements] == expected


def test_isi_refutes_disjoint_triangles_in_a_connected_host_within_a_node_budget():
    # 5 triangles into 4, each hung from a hub by a path a_i - p_i - hub: one
    # host component, so the vertex layer alone decides.  About 10k nodes;
    # without the floor that orders isomorphic pattern components, about 159k.
    triangles = [(3 * i + a, 3 * i + b) for i in range(5) for a, b in ((0, 1), (1, 2), (0, 2))]
    pattern = Graph.from_edges(15, triangles)
    hub = 16
    edges = []
    for i in range(4):
        a, b, c, p = 4 * i, 4 * i + 1, 4 * i + 2, 4 * i + 3
        edges += [(a, b), (b, c), (a, c), (a, p), (p, hub)]
    host = Graph.from_edges(17, edges)
    stats = SolveStats()
    assert isi_backtracking(pattern, host, stats) is None
    assert 0 < stats.search_nodes <= 20_000


def test_isi_long_path_embeds_without_recursion():
    pattern, host = path_graph(1500), path_graph(1600)
    witness = isi_backtracking(pattern, host)
    assert witness is not None and len(witness) == 1500
    assert is_induced_isomorphism(pattern, host, witness)


def test_isi_refutes_a_pattern_with_more_non_edges_before_searching():
    # 3 vertices and 0 edges against 4 vertices and 5 edges: 3 non-edges, 1 in the host
    host = Graph.from_edges(4, [e for e in itertools.combinations(range(4), 2) if e != (0, 1)])
    stats = SolveStats()
    assert isi_backtracking(edgeless_graph(3), host, stats) is None
    assert stats.search_nodes == 0
    assert isi_backtracking(edgeless_graph(2), host, stats) is not None


def test_isi_packs_components_into_isomorphic_host_components():
    # two triangles and an edge into three disjoint triangles: the edge needs a triangle of its own
    triangles = [(3 * i + a, 3 * i + b) for i in range(3) for a, b in ((0, 1), (1, 2), (0, 2))]
    host = Graph.from_edges(9, triangles)
    pattern = Graph.from_edges(8, triangles[:6] + [(6, 7)])
    witness = isi_backtracking(pattern, host)
    assert witness is not None and is_induced_isomorphism(pattern, host, witness)
    # a triangle, two edges and an isolated vertex: every free host vertex
    # is then adjacent to a used one
    crowded = Graph.from_edges(8, triangles[:3] + [(3, 4), (5, 6)])
    assert isi_backtracking(crowded, host) is None


def test_brute_counts_the_search_nodes_of_its_isi_calls():
    result = mcis_bruteforce(SolveQuery(cycle_graph(5), path_graph(5)))
    assert result.size == 4 and result.stats.search_nodes > 0


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


def test_brute_empty_inputs():
    result = mcis_bruteforce(SolveQuery(edgeless_graph(0), path_graph(3)))
    assert result.size == 0 and result.witness == VertexMapping(())


def test_witness_guards_raise_without_assert(monkeypatch):
    # the guards must hold under python -O, which strips assert statements
    monkeypatch.setattr(solvers, "is_induced_isomorphism", lambda *args: False)
    with pytest.raises(WitnessError):
        isi_backtracking(path_graph(2), path_graph(3))
    # an embedding that maps an edge onto a non-edge reaches the oracle's guard
    monkeypatch.setattr(
        solvers, "isi_backtracking", lambda p, h, stats=None: VertexMapping(((0, 0), (1, 1)))
    )
    with pytest.raises(WitnessError):
        mcis_bruteforce(SolveQuery(path_graph(2), edgeless_graph(2)))
    # the FPT solver's arbiter is a guard too: a rejected candidate raises
    monkeypatch.setattr(solvers, "is_induced_isomorphism", lambda *args: False)
    with pytest.raises(WitnessError):
        mcis_vc_fpt(SolveQuery(path_graph(3), path_graph(3)))
    # connectivity decides rather than guards: the two edges of 2K2 are one
    # disconnected common subgraph, which MCCIS passes over for one edge
    monkeypatch.undo()
    two_edges = Graph.from_edges(4, [(0, 1), (2, 3)])
    query = SolveQuery(two_edges, two_edges, connected=True)
    result = mcis_vc_fpt(query)
    assert result.size == 2
    assert_valid_witness(query, result)


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


def test_fpt_k89_self_pair_is_bounded_before_its_bijections():
    # the pair bound cuts every tripartition pair that cannot match the whole
    # graph before its first bijection (1,401,410 were tried without it)
    g = Graph.from_edges(17, [(u, v) for u in range(8) for v in range(8, 17)])
    result = mcis_vc_fpt(SolveQuery(g, g))
    assert result.size == 17
    assert result.stats.bijections_tried <= 10
    assert result.stats.pairs_tried >= result.stats.pairs_pruned > 0


def test_fpt_n40_cover6_pair_prunes_whole_tripartition_pairs():
    rng = random.Random(1)
    g1, g2 = planted_cover_graph(rng, 40, 6), planted_cover_graph(rng, 40, 6)
    assert len(min_vertex_cover(g1).cover) == len(min_vertex_cover(g2).cover) == 6
    # optima and bijections tried by the search before the pair bound:
    # 22,450 bijections in plain mode, 28,933 in connected mode
    for conn, optimum, before in ((False, 36, 22_450), (True, 28, 28_933)):
        query = SolveQuery(g1, g2, connected=conn)
        result = mcis_vc_fpt(query)
        assert result.size == optimum
        assert_valid_witness(query, result)
        assert result.stats.pairs_pruned > 0
        assert result.stats.bijections_tried < before / 5


def test_fpt_matches_bruteforce_on_larger_planted_covers():
    # covers of 5-6 in 9-10 vertices: the pair bound prunes most here.  Covers
    # of 2-3 leave twin classes of several members: of the 261 candidates
    # their 40 pairs assemble, 81 have a class-plan key holding two or more
    # classes and 54 pair members of a class that a choice also took from
    for low, high in ((5, 6), (2, 3)):
        rng = random.Random(43)
        for _ in range(40):
            n, k = rng.randint(9, 10), rng.randint(low, high)
            g1, g2 = planted_cover_graph(rng, n, k), planted_cover_graph(rng, n, k)
            for conn in (False, True):
                query = SolveQuery(g1, g2, connected=conn)
                result = mcis_vc_fpt(query)
                assert result.size == mcis_bruteforce(query).size, (g1.edges, g2.edges, conn)
                assert_valid_witness(query, result)


def test_fpt_optimum_obeys_metamorphic_relations_at_planted_sizes():
    # no oracle reaches n = 30-60, so the optimum is checked against itself:
    # swapping the graphs and relabelling both keeps it, in both modes, and
    # an isolated vertex added to each graph raises the MCIS optimum by one.
    # Two pairs are drawn per cell and the first is solved; its witness must
    # be valid (a solver that keeps disconnected MCCIS candidates fails here).
    rng, relabel = random.Random(5), random.Random(99)

    def shuffled(g):
        perm = list(range(g.n))
        relabel.shuffle(perm)
        return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])

    for k in (4, 6, 8):
        for n in (30, 40, 60):
            g1, g2 = [planted_cover_graph(rng, n, k) for _ in range(4)][:2]
            swapped = (shuffled(g2), shuffled(g1))
            lifted = [Graph(g.n + 1, g.edges) for g in (g1, g2)]
            for conn in (False, True):
                query = SolveQuery(g1, g2, connected=conn)
                result = mcis_vc_fpt(query)
                assert_valid_witness(query, result)
                optimum = result.size
                assert mcis_vc_fpt(SolveQuery(*swapped, connected=conn)).size == optimum, (k, n, conn)
                if not conn:
                    assert mcis_vc_fpt(SolveQuery(*lifted)).size == optimum + 1, (k, n)


def test_fpt_check_seed_64_pair_drops_what_cannot_yield():
    # the costliest check-oracle pair before the cover-part and signature
    # filters: 117,589 configurations connected, 117 bijections unconnected
    g1, g2 = random_graph_pair(random.Random(64), 9)
    query = SolveQuery(g1, g2, connected=True)
    result = mcis_vc_fpt(query)
    assert result.size == 5
    assert result.witness.pairs == ((1, 2), (2, 4), (3, 8), (5, 5), (7, 7))
    assert_valid_witness(query, result)
    assert result.stats.configurations <= 2_000
    assert mcis_vc_fpt(SolveQuery(g1, g2)).stats.bijections_tried < 117


def test_fpt_matches_bruteforce_on_pairs_with_several_components():
    # the pairs where the connected cover part filter drops tripartitions
    rng = random.Random(44)
    kept = 0
    while kept < 60:
        g1, g2 = random_graph_pair(rng, 9)
        if max(len(connected_components(g)) for g in (g1, g2)) < 2:
            continue
        kept += 1
        for conn in (False, True):
            query = SolveQuery(g1, g2, connected=conn)
            result = mcis_vc_fpt(query)
            assert result.size == mcis_bruteforce(query).size, (g1.edges, g2.edges, conn)
            assert_valid_witness(query, result)


def test_cover_links_connect_a_part_iff_it_and_its_independent_neighbors_do():
    # one member of each twin class that meets the part stands for all of them
    rng = random.Random(45)
    for _ in range(40):
        g, _ = random_graph_pair(rng, 9)
        split = min_vertex_cover(g)
        cover = solvers._Cover(g, True)
        for size in range(1, len(split.cover) + 1):
            for part in itertools.combinations(sorted(split.cover), size):
                mask = sum(1 << cover.order.index(v) for v in part)
                joined = set(part) | {v for v in split.independent if g.adj[v] & set(part)}
                assert cover.linked[mask] == induces_connected(g, joined)
        assert not cover.linked[0]


def test_fpt_work_counters_stay_under_recorded_ceilings():
    # summed over check seeds 1-20 (the first 120 check-oracle solves); the
    # ceilings are the exact sums once MCCIS dropped the twin classes whose
    # members would be isolated from its choices (303 configurations, 1,527
    # choice nodes and 31 bijections pruned before), so a change that adds
    # work fails here even when timing noise hides it
    ceilings = {
        "configurations": 174,
        "candidates_validated": 174,
        "choice_nodes": 1_242,
        "bijections_tried": 669,
        "bijections_pruned": 30,
        "pairs_tried": 6_078,
        "pairs_pruned": 5_498,
    }
    totals = dict.fromkeys(ceilings, 0)
    connected_candidates = 0
    for seed in range(1, 21):
        rng = random.Random(seed)
        for _ in range(3):
            g1, g2 = random_graph_pair(rng, 9)
            for conn in (False, True):
                stats = mcis_vc_fpt(SolveQuery(g1, g2, connected=conn)).stats
                for name in totals:
                    totals[name] += getattr(stats, name)
                connected_candidates += stats.candidates_validated if conn else 0
    assert all(totals[name] <= ceilings[name] for name in ceilings), totals
    # only connected candidates are validated: 202 were before the cover-part
    # filter, most of them then failing the final connectivity check
    assert connected_candidates <= 101


def test_fpt_choice_layer_tests_each_class_choice_as_it_is_made():
    # when the choices of both sides were two itertools.product loops, tested
    # for size and cross adjacency only at their leaves, the 7th pair reached
    # 197,306 and 18,000 configurations and the 9th 7,411,060
    rng = random.Random(3)
    pairs = [
        (random_graph(rng, n, p), random_graph(rng, n, p))
        for n in (10, 10, 10, 12, 16) for p in (0.2, 0.3)
    ]
    g1, g2 = pairs[6]
    assert len(min_vertex_cover(g1).cover) == len(min_vertex_cover(g2).cover) == 6
    for conn in (False, True):
        query = SolveQuery(g1, g2, connected=conn)
        result = mcis_vc_fpt(query)
        assert result.size == 9
        assert_valid_witness(query, result)
        assert result.stats.configurations <= 100
    g1, g2 = pairs[8]
    assert len(min_vertex_cover(g1).cover) == len(min_vertex_cover(g2).cover) == 8
    query = SolveQuery(g1, g2)
    result = mcis_vc_fpt(query)
    assert result.size == 12
    assert_valid_witness(query, result)
    assert result.stats.configurations <= 100 and result.stats.choice_nodes > 0


def test_fpt_mccis_chooses_no_twin_class_that_would_be_isolated():
    # the 10th pair of the mid draw (n=18, p=0.1): tested for connectivity
    # only at complete assignments, it reached 191,627 choice nodes and 52,516
    # configurations, of which 2 were connected
    rng = random.Random(3)
    pairs = [
        (random_graph(rng, n, p), random_graph(rng, n, p))
        for n in (12, 14, 16, 18, 20) for p in (0.1, 0.2, 0.3)
    ]
    query = SolveQuery(*pairs[9], connected=True)
    result = mcis_vc_fpt(query)
    assert result.size == 8
    assert_valid_witness(query, result)
    assert result.stats.choice_nodes <= 12_000
    assert result.stats.configurations <= 36
    # the connectivity test rejects the other assignments without raising
    assert result.stats.candidates_validated < result.stats.configurations


def to_networkx(nx, g):
    """``g`` as a networkx graph on the same vertex ids."""
    h = nx.empty_graph(g.n)
    h.add_edges_from(g.edges)
    return h


def test_fpt_matches_networkx_ismags_past_the_bruteforce_bound():
    # an MCIS oracle that shares no code with the package, on pairs whose
    # choice layer places many class choices
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import ISMAGS

    rng = random.Random(6)
    placed = 0
    for n, p in [(11, 0.2), (11, 0.3), (12, 0.2), (12, 0.3)] * 2:
        g1, g2 = random_graph(rng, n, p), random_graph(rng, n, p)
        best = next(iter(ISMAGS(to_networkx(nx, g1), to_networkx(nx, g2)).largest_common_subgraph()), {})
        result = mcis_vc_fpt(SolveQuery(g1, g2))
        assert result.size == len(best), (g1.edges, g2.edges)
        placed += result.stats.choice_nodes
    assert placed > 1_000


def test_fpt_mccis_matches_a_networkx_oracle_past_the_bruteforce_bound():
    # an MCCIS oracle that shares no code with the package: the largest
    # connected vertex subset of g1 that VF2 finds node-induced in g2
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    def oracle(h1, h2):
        for size in range(len(h1), 0, -1):
            for subset in itertools.combinations(h1, size):
                sub = h1.subgraph(subset)
                if nx.is_connected(sub) and GraphMatcher(h2, sub).subgraph_is_isomorphic():
                    return size
        return 0

    rng = random.Random(6)
    for n, p in [(11, 0.2), (11, 0.3)] * 4:
        g1, g2 = random_graph(rng, n, p), random_graph(rng, n, p)
        h1, h2 = to_networkx(nx, g1), to_networkx(nx, g2)
        result = mcis_vc_fpt(SolveQuery(g1, g2, connected=True))
        assert result.size == oracle(h1, h2), (g1.edges, g2.edges)
        left = h1.subgraph([u for u, _ in result.witness.pairs])
        right = h2.subgraph([v for _, v in result.witness.pairs])
        assert nx.is_connected(left) and nx.is_connected(right)
        image = nx.relabel_nodes(left, dict(result.witness.pairs))
        assert set(map(frozenset, image.edges)) == set(map(frozenset, right.edges))


def test_cover_bijections_are_the_induced_permutations_each_once():
    # the FPT takes its cover bijections from the ISI vertex layer
    rng = random.Random(12)
    total = 0
    for draw in range(300):
        g1, g2 = random_graph_pair(rng, 7)
        size = rng.randint(0, min(5, g1.n, g2.n))
        m1, m2 = sorted(rng.sample(range(g1.n), size)), sorted(rng.sample(range(g2.n), size))
        if draw % 2:  # a part onto itself: the identity and every automorphism
            g2, m2 = g1, m1
        inner1 = {v: g1.adj[v] & set(m1) for v in m1}
        inner2 = {v: g2.adj[v] & set(m2) for v in m2}
        found = [tuple(sorted(sigma.items())) for sigma in solvers._cover_bijections(inner1, inner2)]
        expected = set()
        for image in itertools.permutations(m2):
            pairs = tuple(zip(m1, image))
            if is_induced_isomorphism(g1, g2, VertexMapping(pairs)):
                expected.add(pairs)
        assert len(found) == len(set(found))
        assert set(found) == expected
        total += len(found)
    assert total > 500


def test_fpt_draws_tripartition_buckets_lazily(monkeypatch):
    g = planted_cover_graph(random.Random(1), 40, 4)
    k = len(min_vertex_cover(g).cover)
    sizes = range(k + 1)
    # all buckets of both sides together reach the bound below, so it is not vacuous
    everything = sum(len(solvers._Cover(g, False).buckets[m, i]) for m in sizes for i in sizes)
    assert 2 * everything >= (3**k + 3**k) // 2
    generated = []
    real = solvers._Cover._bucket

    def counting(self, sizes):
        bucket = real(self, sizes)
        generated.extend(bucket)
        return bucket

    monkeypatch.setattr(solvers._Cover, "_bucket", counting)
    assert mcis_vc_fpt(SolveQuery(g, g)).size == 40
    # once the whole graph is matched no later bucket's ceiling can beat it,
    # so the bucket loop stops before most buckets are generated
    assert 0 < len(generated) < (3**k + 3**k) // 2


def sorted_buckets(k1, k2, a, b):
    """Every (ub, ms, i1s, i2s) size bucket, built whole and sorted by
    decreasing ceiling: the reference for the lazy bucket generator."""
    buckets = []
    for ms in range(min(k1, k2) + 1):
        for i1s in range(min(k1 - ms, b) + 1):
            for i2s in range(min(k2 - ms, a) + 1):
                buckets.append((ms + min(a + i1s, b + i2s), ms, i1s, i2s))
    buckets.sort(key=lambda bucket: (-bucket[0], *bucket[1:]))
    return buckets


def test_fpt_bucket_generator_yields_the_sorted_bucket_list():
    ceiling_zero = 0
    for k1, k2, a, b in itertools.product(range(6), range(6), range(7), range(7)):
        expected = sorted_buckets(k1, k2, a, b)
        assert list(solvers._buckets(k1, k2, a, b)) == expected
        ceiling_zero += expected[-1][0] == 0
    assert ceiling_zero  # some size sets end on a bucket of ceiling 0


def test_fpt_solves_hundreds_of_disjoint_edges_within_two_seconds():
    # a cover of 300 and 300 independent vertices: the bucket list alone
    # would hold tens of millions of tuples, and 600 choice levels follow
    g = Graph.from_edges(600, [(2 * i, 2 * i + 1) for i in range(300)])
    start = time.perf_counter()
    assert mcis_vc_fpt(SolveQuery(g, g)).size == 600
    assert time.perf_counter() - start < 2.0


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
        cover1, cover2 = min_vertex_cover(g1).cover, min_vertex_cover(g2).cover
        for bijection, mapping in enumerate_configurations(g1, g2):
            assert is_induced_isomorphism(g1, g2, mapping)
            # the cover bijection, in vertex ids, is the mapping on the matched
            # parts: its pairs of two cover vertices, in order
            assert bijection == tuple(p for p in mapping.pairs if p[0] in cover1 and p[1] in cover2)
            assert is_induced_isomorphism(g1, g2, VertexMapping(bijection))


def test_enumerate_dominates_every_bruteforce_optimum():
    rng = random.Random(27)
    for _ in range(15):
        g1, g2 = random_graph_pair(rng, 6)
        best = mcis_bruteforce(SolveQuery(g1, g2)).size
        reached = max(
            (len(m) for _, m in enumerate_configurations(g1, g2)), default=0
        )
        assert reached >= best

