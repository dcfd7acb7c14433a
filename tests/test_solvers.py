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
    SolveResult,
    SolveStats,
    WitnessError,
    configuration_bound,
    enumerate_configurations,
    isi_backtracking,
    mcis_bruteforce,
    mcis_vc_fpt,
)


def assert_valid_witness(query, result):
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
    # m=6: about 0.7k; without the host twin rule of _pack, about 129k.
    for items, m in (((4, 4, 6, 4, 4, 4), 2), ((6,) + (4,) * 13 + (5,) * 4, 6)):
        stats = SolveStats()
        assert isi_backtracking(*three_partition_isi(items, m), stats) is None
        assert 0 < stats.search_nodes <= 5_000


def test_isi_three_partition_m2_orders_stay_within_their_node_ceilings():
    # every order of six items in 4..6 summing to 2B, B = 13: 15 yes orders
    # of 173 nodes each and 6 no orders of 95 each.  Without the separator
    # count of _pack, 812 and 894: shares such as (5, 5, 4), 14 vertices in
    # 3 paths that cannot fit in a 15-vertex path, are refuted by search.
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
    assert sum(nodes[True]) <= 2_595
    assert sum(nodes[False]) <= 570


def test_isi_packs_a_share_the_separator_count_just_admits():
    # a spider with three legs of 2 (maximum degree 3) beside a K1: 3 pairwise
    # non-adjacent components of the spider leave at least 1 of its vertices
    # unused, and 4 at least 2, since deleting a vertex of degree d adds at
    # most d - 1 components.  networkx VF2 gives the same two answers.
    host = Graph.from_edges(8, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
    three_k2_k1 = Graph.from_edges(7, [(0, 1), (2, 3), (4, 5)])
    witness = isi_backtracking(three_k2_k1, host)
    assert witness is not None and is_induced_isomorphism(three_k2_k1, host, witness)
    assert {image for v, image in witness.pairs if v < 6} == {1, 2, 3, 4, 5, 6}
    # two K2 and three K1: the spider would hold 4 components with 1 spare
    # vertex.  47 nodes; without the separator count, 95.
    stats = SolveStats()
    assert isi_backtracking(Graph.from_edges(7, [(0, 1), (2, 3)]), host, stats) is None
    assert 0 < stats.search_nodes <= 47


def test_vertex_layer_yields_the_induced_embeddings_in_lexicographic_order():
    # the placements of the pattern, its components in _components' order as
    # isi_backtracking takes them, are the induced embeddings whose images
    # keep the floor rule, in the order itertools.permutations lists them
    rng = random.Random(24)
    for _ in range(100):
        pattern = random_graph(rng, rng.randint(1, 5), rng.choice((0.2, 0.5, 0.8)))
        host = random_graph(rng, rng.randint(pattern.n, 7), rng.choice((0.2, 0.5, 0.8)))
        comps, classes, _ = solvers._components(pattern, SolveStats())
        order = [v for comp in comps for v in comp]
        ends = list(itertools.accumulate(len(comp) for comp in comps))
        expected = []
        for images in itertools.permutations(range(host.n), len(order)):
            if not is_induced_isomorphism(pattern, host, VertexMapping(tuple(sorted(zip(order, images))))):
                continue
            lows = [min(images[end - len(comp):end]) for comp, end in zip(comps, ends)]
            if all(lows[c] > lows[c - 1] for c in range(1, len(comps)) if classes[c] == classes[c - 1]):
                expected.append(images)
        placements = solvers._embeddings(pattern.adj, host.adj, comps, classes, range(host.n), SolveStats())
        assert [tuple(found[v] for v in order) for found in placements] == expected


def _isomorphic(g, a, b):
    """Whether the vertex lists ``a`` and ``b`` induce isomorphic subgraphs of
    ``g``, by trying every bijection once the degree sequences agree."""
    if sorted(len(g.adj[v]) for v in a) != sorted(len(g.adj[v]) for v in b):
        return False
    pairs = list(itertools.combinations(range(len(a)), 2))
    return any(all((a[j] in g.adj[a[i]]) == (image[j] in g.adj[image[i]]) for i, j in pairs)
               for image in itertools.permutations(b))


def test_component_classes_are_the_isomorphism_classes():
    # a spider with legs 2, 2, 1 and one with legs 3, 1, 1: both trees have the
    # degree sequence (3, 2, 2, 1, 1, 1), so only the exact test parts them
    spider = [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5)]
    broom = [(0, 1), (0, 2), (0, 3), (1, 4), (4, 5)]
    rng = random.Random(46)
    for _ in range(60):
        shapes = [spider, broom]
        for _ in range(3):  # a random tree on up to 6 vertices, plus a few chords
            k = rng.randint(1, 6)
            tree = [(rng.randrange(v), v) for v in range(1, k)]
            shapes.append(tree + [e for e in itertools.combinations(range(k), 2)
                                  if e not in tree and rng.random() < 0.2])
        edges, n = [], 0
        for shape in rng.choices(shapes, k=rng.randint(2, 6)):
            k = 1 + max(itertools.chain.from_iterable(shape), default=0)
            label = rng.sample(range(n, n + k), k)
            edges += [(label[u], label[v]) for u, v in shape]
            n += k
        g = Graph.from_edges(n, edges)
        comps, classes, maps = solvers._components(g, SolveStats())
        assert sorted(map(sorted, comps)) == sorted(map(sorted, connected_components(g)))
        for i, j in itertools.combinations(range(len(comps)), 2):
            assert (classes[i] == classes[j]) == _isomorphic(g, comps[i], comps[j])
        # numbered by first appearance; each map a bijection from its class's
        # first component onto the component, keeping adjacency and
        # non-adjacency, and the identity on a first component
        assert [classes.index(c) for c in range(len(set(classes)))] == sorted({classes.index(c) for c in classes})
        for i, (comp, cid, m) in enumerate(zip(comps, classes, maps)):
            first = comps[classes.index(cid)]
            assert sorted(m) == sorted(first) and sorted(m.values()) == sorted(comp)
            assert all((m[v] in g.adj[m[u]]) == (v in g.adj[u]) for u, v in itertools.combinations(first, 2))
            assert i != classes.index(cid) or all(m[v] == v for v in first)
        # largest first, then class by class, then by smallest vertex: the
        # spider and the broom are one size, so their classes must not interleave
        keys = [(-len(comp), cid, min(comp)) for comp, cid in zip(comps, classes)]
        assert keys == sorted(keys)


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


def edges_beside_a_p3(t):
    """``t`` disjoint edges, and the same edges beside a P3."""
    edges = [(2 * i, 2 * i + 1) for i in range(t)]
    p3 = [(2 * t, 2 * t + 1), (2 * t + 1, 2 * t + 2)]
    return Graph.from_edges(2 * t, edges), Graph.from_edges(2 * t + 3, edges + p3)


def test_isi_packs_two_thousand_components_without_recursion():
    # 2,000 disjoint edges into themselves beside a P3: the component layer
    # goes 2,000 levels deep, past the default recursion limit, on the
    # driver's own stack.  2,000 component placements, 2 x 2 x 1,999 vertex
    # placements classing the edges of both graphs and 4 in the share searches;
    # the witness searches nothing, where a search per host component placed
    # 4,000 more
    pattern, host = edges_beside_a_p3(2000)
    stats = SolveStats()
    witness = isi_backtracking(pattern, host, stats)
    assert witness is not None and is_induced_isomorphism(pattern, host, witness)
    assert stats.search_nodes == 10_000


def test_isi_share_test_reads_one_host_component_per_candidate():
    # 20,000 disjoint edges into themselves beside a P3: the host's edges are
    # one class, so the share test reads the component before each candidate
    # host.  About 0.8 s; 8-9 s when it scanned every earlier host component
    pattern, host = edges_beside_a_p3(20_000)
    stats = SolveStats()
    started = time.perf_counter()
    witness = isi_backtracking(pattern, host, stats)
    assert time.perf_counter() - started < 3.0
    assert witness is not None and is_induced_isomorphism(pattern, host, witness)
    assert stats.search_nodes == 100_000


def test_isi_three_partition_m28_yes_instance_searches_each_share_once():
    # items (5, 5, 4, 4, 4, 4) * 14, B = 13: the one-neighbour share test
    # prunes exactly what the scan of every earlier host component pruned, and
    # the witness is the share searches' own embeddings: 121,424 placements
    # when each used host component was searched again
    stats = SolveStats()
    pattern, host = three_partition_isi((5, 5, 4, 4, 4, 4) * 14, 28)
    witness = isi_backtracking(pattern, host, stats)
    assert witness is not None and is_induced_isomorphism(pattern, host, witness)
    assert stats.search_nodes == 120_836


def test_isi_share_test_prunes_on_a_host_whose_classes_interleave():
    # 6 disjoint P3s into 5 x (P3, K3), laid out piece by piece, so that the
    # host's (-size, smallest vertex) order alternates the two classes; no
    # instance, since only 5 host components take a P3.  50 placements with
    # the host class by class; 76 with it in that alternating order, where the
    # one-neighbour share test rules out fewer host components
    pattern = Graph.from_edges(18, [(3 * i + a, 3 * i + a + 1) for i in range(6) for a in (0, 1)])
    host = Graph.from_edges(30, [e for i in range(5) for e in (
        (6 * i, 6 * i + 1), (6 * i + 1, 6 * i + 2), (6 * i + 3, 6 * i + 4), (6 * i + 4, 6 * i + 5), (6 * i + 3, 6 * i + 5))])
    stats = SolveStats()
    assert isi_backtracking(pattern, host, stats) is None
    assert stats.search_nodes == 50


def test_isi_checks_a_long_witness_in_linear_time():
    # the arbiter compared every two pairs of the witness: 11 s at 20,000 vertices
    g = path_graph(20_000)
    started = time.perf_counter()
    witness = isi_backtracking(g, g)
    assert time.perf_counter() - started < 2.0
    assert witness is not None and len(witness) == 20_000


def test_isi_carries_the_component_floor_in_constant_time_per_placement():
    # two 10,000-vertex paths into a 20,001-vertex path: one host component, so
    # the vertex layer places the second path above the first's smallest image.
    # 0.26 s; reading the first path's images again at each position of the
    # second, 8.6 s
    pattern = Graph.from_edges(20_000, [(i, i + 1) for i in range(19_999) if i != 9_999])
    started = time.perf_counter()
    witness = isi_backtracking(pattern, path_graph(20_001))
    assert time.perf_counter() - started < 2.0
    assert witness is not None and len(witness) == 20_000


def test_isi_refutes_a_pattern_with_more_non_edges_before_searching():
    # 3 vertices and 0 edges against 4 vertices and 5 edges: 3 non-edges, 1 in the host
    host = Graph.from_edges(4, [e for e in itertools.combinations(range(4), 2) if e != (0, 1)])
    stats = SolveStats()
    assert isi_backtracking(edgeless_graph(3), host, stats) is None
    assert stats.search_nodes == 0
    assert isi_backtracking(edgeless_graph(2), host, stats) is not None


def test_isi_refutes_a_pattern_by_its_degrees_before_searching():
    # each pattern has no more vertices, edges or non-edges than its host, and
    # the vertex layer would place a first vertex
    claw_and_point = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3)])
    triangle_and_point = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2)])
    # P4's second degree 2 exceeds the host's 1; the isolated vertex's
    # non-degree 3 exceeds every C5 vertex's 2
    for pattern, host in ((path_graph(4), claw_and_point), (triangle_and_point, cycle_graph(5))):
        stats = SolveStats()
        assert isi_backtracking(pattern, host, stats) is None
        assert stats.search_nodes == 0


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


def test_brute_refutes_k10_subsets_by_their_degrees():
    # the K10 pair: K10 against the 33rd dense draw of random.Random(3), with
    # 41 edges and clique number 8.  K10 and each K9 need more vertices of
    # degree 9, or 8 or more, than the draw has, so they are refuted before a
    # search; searching the ten K9s took the solve 1,096,008 search nodes
    rng = random.Random(3)
    for _ in range(33):
        dense = random_graph(rng, 10, rng.choice((0.6, 0.7, 0.8, 0.9)))
    result = mcis_bruteforce(SolveQuery(complete_graph(10), dense))
    assert result.size == 8
    assert result.stats.search_nodes <= 100
    assert result.stats.candidates_validated == 1


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
    # an embedding that maps an edge onto a non-edge reaches the oracle's guard;
    # P2's edge passes the degree test against P3, so the fake is called
    monkeypatch.setattr(
        solvers, "isi_backtracking", lambda p, h, stats=None: VertexMapping(((0, 0), (1, 2)))
    )
    with pytest.raises(WitnessError):
        mcis_bruteforce(SolveQuery(path_graph(2), path_graph(3)))
    # the FPT solver's arbiter is a guard too: a rejected candidate raises.
    # On C6 against itself the incumbent has 5 vertices and passes; the
    # search's candidate of 6 is the one rejected
    monkeypatch.setattr(solvers, "is_induced_isomorphism", lambda g1, g2, mapping: len(mapping) < 6)
    with pytest.raises(WitnessError, match="non-induced mapping"):
        mcis_vc_fpt(SolveQuery(cycle_graph(6), cycle_graph(6)))
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
    # the search itself answers an empty graph: the incumbent is empty and no bucket is walked
    k0, k3, p12 = edgeless_graph(0), complete_graph(3), path_graph(12)
    for conn in (False, True):
        for g1, g2 in ((k0, k0), (k0, k3), (k3, k0)):
            result = mcis_vc_fpt(SolveQuery(g1, g2, conn))
            assert (result.size, result.witness, result.method) == (0, VertexMapping(()), "vc-fpt")
            assert result.stats == SolveStats()
        # past the oracle bound, auto reaches the FPT through its gate, over the gate's covers
        for g1, g2 in ((k0, p12), (p12, k0)):
            assert solvers.solve(SolveQuery(g1, g2, conn), "auto").size == 0


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
        k1 = len(min_vertex_cover(g1))
        k2 = len(min_vertex_cover(g2))
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
    assert len(min_vertex_cover(g1)) == len(min_vertex_cover(g2)) == 4
    # optima as computed by the search before the class bound (65k+
    # configurations in each mode)
    for conn, optimum in ((False, 36), (True, 31)):
        query = SolveQuery(g1, g2, connected=conn)
        result = mcis_vc_fpt(query)
        assert result.size == optimum
        assert_valid_witness(query, result)
        assert result.stats.configurations <= 1_000
        # in MCIS the incumbent (a star against a star, 36 vertices) is the
        # optimum, so the label-class bound skips every bijection tried
        assert result.stats.bijections_tried >= result.stats.bijections_pruned > 0


def test_fpt_k89_self_pair_is_bounded_before_its_bijections():
    # every tripartition pair that cannot match the whole graph is cut before
    # its first bijection (1,401,410 were tried without the pair bound): the
    # room bound skips whole size buckets, and the walk builds no side whose
    # free members cannot beat the best size (12,868 pairs were reached and
    # pruned when the walk built every side)
    g = Graph.from_edges(17, [(u, v) for u in range(8) for v in range(8, 17)])
    result = mcis_vc_fpt(SolveQuery(g, g))
    assert result.size == 17
    assert result.stats.bijections_tried <= 10
    assert result.stats.buckets_pruned > 0
    assert result.stats.pairs_tried <= 2


@pytest.mark.parametrize("conn", [False, True])
def test_fpt_k20_21_self_pair_builds_only_sides_that_can_beat_the_best(conn):
    # K_{20,21} over its known cover (the cover search alone takes seconds here): the
    # first bucket, every cover vertex to-independent, yields 40; the room bound
    # then skips every bucket but the identity's, ms = 20.  Building every side
    # of those buckets tried 137,846,528,820 tripartition pairs
    g = Graph.from_edges(41, [(u, v) for u in range(20) for v in range(20, 41)])
    cover = frozenset(range(20))
    query = SolveQuery(g, g, connected=conn)
    result = mcis_vc_fpt(query, (solvers._Cover(g, cover), solvers._Cover(g, cover)))
    assert result.size == 41
    assert_valid_witness(query, result)
    assert result.stats.pairs_tried <= 2
    assert result.stats.buckets_pruned == 19


def test_fpt_n40_cover6_pair_prunes_whole_tripartition_pairs():
    rng = random.Random(1)
    g1, g2 = planted_cover_graph(rng, 40, 6), planted_cover_graph(rng, 40, 6)
    assert len(min_vertex_cover(g1)) == len(min_vertex_cover(g2)) == 6
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
    # The third graph H is planted into both graphs of a second pair (H plus
    # three vertices hung on its cover, relabelled twice), so that pair's
    # optimum is at least |H| in MCIS and H's largest component in MCCIS;
    # in 12 of the 18 solves the optimum is that floor.  Each pair's two
    # modes run over one shared pair of covers.
    rng, relabel, plant = random.Random(5), random.Random(99), random.Random(7)

    def shuffled(g):
        perm = list(range(g.n))
        relabel.shuffle(perm)
        return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])

    def hosting(h):
        cover, n = sorted(min_vertex_cover(h)), h.n + 3
        hung = [(u, v) for v in range(h.n, n) for u in plant.sample(cover, plant.randint(1, 2))]
        perm = list(range(n))
        plant.shuffle(perm)
        return Graph.from_edges(n, [(perm[u], perm[v]) for u, v in [*h.edges, *hung]])

    for k in (4, 6, 8):
        for n in (30, 40, 60):
            g1, g2, h, _ = [planted_cover_graph(rng, n, k) for _ in range(4)]
            swapped = (shuffled(g2), shuffled(g1))
            lifted = [Graph(g.n + 1, g.edges) for g in (g1, g2)]
            hosts = hosting(h), hosting(h)
            covers = solvers._Cover(g1), solvers._Cover(g2)
            host_covers = solvers._Cover(hosts[0]), solvers._Cover(hosts[1])
            for conn, floor in ((False, h.n), (True, max(map(len, connected_components(h))))):
                query = SolveQuery(g1, g2, connected=conn)
                result = mcis_vc_fpt(query, covers)
                assert_valid_witness(query, result)
                optimum = result.size
                assert mcis_vc_fpt(SolveQuery(*swapped, connected=conn)).size == optimum, (k, n, conn)
                if not conn:
                    assert mcis_vc_fpt(SolveQuery(*lifted)).size == optimum + 1, (k, n)
                query = SolveQuery(*hosts, connected=conn)
                result = mcis_vc_fpt(query, host_covers)
                assert_valid_witness(query, result)
                assert result.size >= floor, (k, n, conn)


def test_fpt_over_shared_covers_equals_fresh_solves_in_either_mode_order():
    # one pair of covers serves both modes: MCIS first or MCCIS first, every
    # size, witness and work counter equals that of a solve that builds its
    # own covers, so no table one mode fills leaks into the other; so do the
    # covers that `solve` builds from the auto gate's budgeted cover searches
    rng = random.Random(47)
    pairs = [random_graph_pair(rng, 9) for _ in range(40)]
    for k in (4, 6):
        planted = random.Random(1)
        pairs.append((planted_cover_graph(planted, 40, k), planted_cover_graph(planted, 40, k)))
    for g1, g2 in pairs:
        fresh = {conn: mcis_vc_fpt(SolveQuery(g1, g2, connected=conn)) for conn in (False, True)}
        budgeted = [min_vertex_cover(g, solvers.VC_CUTOFF) for g in (g1, g2)]
        assert None not in budgeted
        for order in ((False, True), (True, False)):
            for covers in (
                (solvers._Cover(g1), solvers._Cover(g2)),
                (solvers._Cover(g1, budgeted[0]), solvers._Cover(g2, budgeted[1])),
            ):
                for conn in order:
                    shared = mcis_vc_fpt(SolveQuery(g1, g2, connected=conn), covers)
                    want = fresh[conn]
                    assert (shared.size, shared.witness, shared.stats) == (want.size, want.witness, want.stats)


@pytest.mark.parametrize("algo", ["bruteforce", "vcfpt", "VC-FPT", ""])
def test_solve_rejects_an_unknown_route(algo):
    # a misspelt route used to run the FPT without the auto gate
    with pytest.raises(ValueError, match="unknown route"):
        solvers.solve(SolveQuery(path_graph(3), path_graph(3)), algo)


def test_fpt_check_seed_64_pair_drops_what_cannot_yield():
    # the costliest check-oracle pair before the cover-part and signature
    # filters: 117,589 configurations connected, 117 bijections unconnected
    g1, g2 = random_graph_pair(random.Random(64), 9)
    query = SolveQuery(g1, g2, connected=True)
    result = mcis_vc_fpt(query)
    assert result.size == 5
    # the incumbent, a double star against a double star, is the optimum
    assert result.witness.pairs == ((1, 2), (2, 4), (5, 5), (6, 8), (7, 7))
    assert result.stats.incumbent == 5
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
        cover = solvers._Cover(g)
        for size in range(1, len(cover.order) + 1):
            for part in itertools.combinations(cover.order, size):
                mask = sum(1 << cover.order.index(v) for v in part)
                joined = set(part) | {v for v in range(g.n) if v not in cover.order and g.adj[v] & set(part)}
                assert cover.linked[mask] == induces_connected(g, joined)
        assert not cover.linked[0]


def test_fpt_work_counters_stay_under_recorded_ceilings():
    # summed over check seeds 1-20 (the first 120 check-oracle solves); the
    # ceilings are the exact sums since the search starts from the incumbent
    # its covers' shapes pair (177 configurations, 1,668 choice nodes, 884
    # bijections and 6,294 pairs tried from a start of 1) and the walk builds
    # no side that cannot beat the best size (5,877 pairs tried and 5,384
    # pruned when it built every side), so a change that adds work fails here
    # even when timing noise hides it
    ceilings = {
        "configurations": 16,
        "candidates_validated": 16,
        "choice_nodes": 920,
        "bijections_tried": 633,
        "bijections_pruned": 20,
        "pairs_tried": 2_823,
        "pairs_pruned": 2_330,
    }
    totals = dict.fromkeys([*ceilings, "buckets_pruned"], 0)
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
    # the size buckets the room bound skips whole, exactly: fewer means a looser bound
    assert totals["buckets_pruned"] == 125, totals
    # only connected candidates are validated: 202 were before the cover-part
    # filter, most of them then failing the final connectivity check, and 75
    # from a start of 1
    assert connected_candidates <= 8


@pytest.mark.parametrize("conn", [False, True])
def test_fpt_incumbent_is_guarded_without_assert(conn, monkeypatch):
    # the incumbent becomes the witness unless the search beats it, so the
    # arbiter (and in MCCIS the connectivity test) guards it as a candidate
    query = SolveQuery(cycle_graph(6), cycle_graph(6), connected=conn)
    monkeypatch.setattr(solvers, "is_induced_isomorphism", lambda *args: False)
    with pytest.raises(WitnessError, match="incumbent"):
        mcis_vc_fpt(query)
    monkeypatch.undo()
    if conn:
        monkeypatch.setattr(solvers, "induces_connected", lambda *args: False)
        with pytest.raises(WitnessError, match="incumbent"):
            mcis_vc_fpt(query)


def test_fpt_incumbent_is_a_common_subgraph_no_larger_than_the_optimum():
    # the incumbent pairs two cover shapes with no search: it must be a valid
    # common induced subgraph, connected in MCCIS, and never beat the optimum
    def incumbent(g1, g2, conn):
        mapping = solvers._incumbent(solvers._Cover(g1), solvers._Cover(g2), conn)
        assert_valid_witness(SolveQuery(g1, g2, connected=conn), SolveResult(mapping, "", None))
        return len(mapping)

    rng = random.Random(48)
    for _ in range(500):
        g1, g2 = random_graph_pair(rng, 9)
        for conn in (False, True):
            result = mcis_vc_fpt(SolveQuery(g1, g2, connected=conn))
            assert incumbent(g1, g2, conn) == result.stats.incumbent <= result.size, (g1.edges, g2.edges)
    # the planted pairs of random.Random(5) with the optima the search finds
    # (MCIS, MCCIS), which equal those of a search started from 1
    rng = random.Random(5)
    optima = iter([(37, 28), (57, 49), (77, 63), (34, 28), (54, 43), (73, 55), (33, 25), (52, 41), (73, 57)])
    for k in (4, 8, 10):
        for n in (40, 60, 80):
            g1, g2 = planted_cover_graph(rng, n, k), planted_cover_graph(rng, n, k)
            for conn, optimum in zip((False, True), next(optima)):
                assert incumbent(g1, g2, conn) <= optimum, (k, n, conn)


def test_fpt_search_yields_only_mappings_that_beat_the_best_so_far():
    # mcis_vc_fpt keeps every mapping the search yields with no size test, so
    # each must beat the best size at the moment it is yielded: over the pairs
    # that check --max-n 9 --count 3 draws at seeds 1-60, from the incumbent
    yields = 0
    for seed in range(1, 61):
        rng = random.Random(seed)
        for _ in range(3):
            g1, g2 = random_graph_pair(rng, 9)
            c1, c2 = solvers._Cover(g1), solvers._Cover(g2)
            for conn in (False, True):
                best = [len(solvers._incumbent(c1, c2, conn))]
                for mapping in solvers._iter_search(c1, c2, conn, SolveStats(), best):
                    assert len(mapping) > best[0], (seed, g1.edges, g2.edges, conn)
                    best[0] = len(mapping)
                    yields += 1
    assert yields > 30


def test_fpt_incumbent_takes_the_star_on_a_tie_with_a_double_star():
    # the paw against the diamond (K4 less an edge), optimum 3: a star pairing
    # (a P3 about one cover vertex) and a double-star pairing (a triangle on
    # two) both reach it.  A tie goes to the shape with fewer cover positions;
    # no size can pin it, since a double star counted one too large only ever
    # ties with the star it then displaces
    paw = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    diamond = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    for conn in (False, True):
        result = mcis_vc_fpt(SolveQuery(paw, diamond, connected=conn))
        assert result.size == result.stats.incumbent == 3
        assert result.witness.pairs == ((1, 2), (2, 0), (3, 3))


def test_fpt_work_from_the_incumbent_on_the_benchmark_small_pairs():
    # the 44 n=10 pairs with planted covers of 3 that perfbench's fpt-sparse
    # workload solves in both modes; from a start of 1 the search placed 1,946
    # choice nodes and reached 364 configurations
    rng = random.Random("fpt-small:0")
    totals = dict.fromkeys(("choice_nodes", "configurations", "incumbent"), 0)
    for _ in range(44):
        g1, g2 = planted_cover_graph(rng, 10, 3), planted_cover_graph(rng, 10, 3)
        for conn in (False, True):
            stats = mcis_vc_fpt(SolveQuery(g1, g2, connected=conn)).stats
            for name in totals:
                totals[name] += getattr(stats, name)
    assert totals == {"choice_nodes": 91, "configurations": 17, "incumbent": 673}


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
    assert len(min_vertex_cover(g1)) == len(min_vertex_cover(g2)) == 6
    for conn in (False, True):
        query = SolveQuery(g1, g2, connected=conn)
        result = mcis_vc_fpt(query)
        assert result.size == 9
        assert_valid_witness(query, result)
        assert result.stats.configurations <= 100
    g1, g2 = pairs[8]
    assert len(min_vertex_cover(g1)) == len(min_vertex_cover(g2)) == 8
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


def test_fpt_mccis_witnesses_are_connected_on_sparse_random_pairs():
    # a candidate whose cover part is linked only through a twin class it
    # leaves out is disconnected, yet as large as the optimum; only the
    # connectivity test of _search_pair turns it down.  Without that test,
    # draws 103, 185 and 321 return such a witness
    rng = random.Random(1)
    for _ in range(400):
        n1, n2 = rng.randint(4, 9), rng.randint(4, 9)
        g1 = random_graph(rng, n1, rng.choice((0.2, 0.3, 0.5)))
        g2 = random_graph(rng, n2, rng.choice((0.2, 0.3, 0.5)))
        query = SolveQuery(g1, g2, connected=True)
        assert_valid_witness(query, mcis_vc_fpt(query))


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
    # the FPT's cover bijections are the vertex layer's placements of one matched
    # part, in the order _Cover.inner keeps for it, onto the other part's positions
    rng = random.Random(12)
    total = 0
    for draw in range(300):
        g1, g2 = random_graph_pair(rng, 7)
        size = rng.randint(0, min(5, g1.n, g2.n))
        m1, m2 = sorted(rng.sample(range(g1.n), size)), sorted(rng.sample(range(g2.n), size))
        if draw % 2:  # a part onto itself: the identity and every automorphism
            g2, m2 = g1, m1
        # every vertex in the cover, so that positions are vertex ids
        c1, c2 = (solvers._Cover(g, frozenset(range(g.n))) for g in (g1, g2))
        mask1, mask2 = sum(1 << v for v in m1), sum(1 << v for v in m2)
        (adj1, order1), (adj2, _) = c1.inner[mask1], c2.inner[mask2]
        stats = SolveStats()
        placements = solvers._embeddings(adj1, adj2, [order1], [0], c2.positions[mask2], stats)
        found = [tuple(sorted(sigma.items())) for sigma in placements]
        # each bijection ends on a placement of its own, and an empty part has none
        assert stats.search_nodes >= len(found) if size else stats.search_nodes == 0
        expected = set()
        for image in itertools.permutations(m2):
            pairs = tuple(zip(m1, image))
            if is_induced_isomorphism(g1, g2, VertexMapping(pairs)):
                expected.add(pairs)
        assert len(found) == len(set(found))
        assert set(found) == expected
        total += len(found)
    assert total > 500


@pytest.mark.parametrize("conn", [False, True])
def test_fpt_counts_its_cover_bijection_placements_as_search_nodes(conn):
    # the FPT's search_nodes are the vertex layer's placements of matched cover
    # positions; C6 against C6 draws one bijection, of an empty matched part
    for g1, g2, nodes in ((complete_graph(4), complete_graph(4), 4), (cycle_graph(5), cycle_graph(7), 36),
                          (cycle_graph(6), cycle_graph(6), 0)):
        stats = mcis_vc_fpt(SolveQuery(g1, g2, conn)).stats
        assert stats.search_nodes == nodes
        assert stats.bijections_tried > 0


def test_fpt_draws_tripartition_buckets_lazily(monkeypatch):
    g = planted_cover_graph(random.Random(1), 40, 4)
    k = len(min_vertex_cover(g))
    sizes = range(k + 1)
    # all buckets of both sides together reach the bound below, so it is not vacuous
    everything = sum(len(solvers._Cover(g)._bucket(False, m, i, -1)) for m in sizes for i in sizes)
    assert 2 * everything >= (3**k + 3**k) // 2
    generated = []
    real = solvers._Cover._bucket

    def counting(self, connected, ms, i, floor):
        bucket = real(self, connected, ms, i, floor)
        generated.extend(bucket)
        return bucket

    monkeypatch.setattr(solvers._Cover, "_bucket", counting)
    assert mcis_vc_fpt(SolveQuery(g, g)).size == 40
    # once the whole graph is matched no later bucket's ceiling can beat it,
    # so the bucket loop stops before most buckets are generated
    assert 0 < len(generated) < (3**k + 3**k) // 2


def test_fpt_walk_floor_leaves_room_for_the_largest_opposite_size(monkeypatch):
    # each side's bucket is walked once per search, at the best size less its
    # own sizes and the largest to-independent size that any bucket of those
    # sizes gives the opposite side; a smaller term would cut a side that a
    # later pair test of a larger opposite size passes
    real = solvers._Cover._bucket
    rng = random.Random(50)
    walks = 0
    for _ in range(60):
        g1, g2 = random_graph_pair(rng, 9)
        c1, c2 = solvers._Cover(g1), solvers._Cover(g2)
        k1, k2 = len(c1.order), len(c2.order)
        largest = {}
        for _, ms, i1s, i2s in solvers._buckets(k1, k2, g1.n - k1, g2.n - k2):
            largest[c1, ms, i1s] = max(largest.get((c1, ms, i1s), 0), i2s)
            largest[c2, ms, i2s] = max(largest.get((c2, ms, i2s), 0), i1s)
        for conn in (False, True):
            best, floors = [1], []

            def recording(self, connected, ms, i, floor):
                floors.append((best[0] - ms - i - floor, largest[self, ms, i]))
                return real(self, connected, ms, i, floor)

            monkeypatch.setattr(solvers._Cover, "_bucket", recording)
            for mapping in solvers._iter_search(c1, c2, conn, SolveStats(), best):
                best[0] = max(best[0], len(mapping))
            monkeypatch.undo()
            assert all(term == want for term, want in floors), (g1.edges, g2.edges, conn)
            walks += len(floors)
    assert walks > 100


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
    # C6's incumbent against itself has 5 vertices, so the search assembles
    # the optimum of 6 (on P4 the incumbent is the optimum, and nothing is)
    monkeypatch.setattr(solvers, "_assemble", lambda *args: VertexMapping(()))
    with pytest.raises(WitnessError, match="class plan predicts 6"):
        mcis_vc_fpt(SolveQuery(cycle_graph(6), cycle_graph(6)))


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
        cover1, cover2 = min_vertex_cover(g1), min_vertex_cover(g2)
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

