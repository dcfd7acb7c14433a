"""Tests for vertex cover, feedback vertex set, twins and tripartitions."""

import itertools
import random
from typing import NamedTuple

import pytest

from mcislab import params
from mcislab.graphs import (
    Graph,
    add_universal_vertex,
    complete_graph,
    cycle_graph,
    edgeless_graph,
    induces_connected,
    path_graph,
)
from mcislab.params import (
    min_feedback_vertex_set,
    min_vertex_cover,
    twin_partition,
    vertex_cover_number,
)
from mcislab.corpus import random_graph
from mcislab.solvers import _Cover


def brute_min_cover_size(g: Graph) -> int:
    """Independent oracle: smallest subset touching every edge."""
    for size in range(g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            chosen = set(combo)
            if all(u in chosen or v in chosen for u, v in g.edges):
                return size
    raise AssertionError


def brute_min_fvs_size(g: Graph) -> int:
    """Independent oracle: smallest subset whose removal kills all cycles."""
    for size in range(g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            removed = set(combo)
            keep = [v for v in range(g.n) if v not in removed]
            edges = [(u, v) for u, v in g.edges if u in keep and v in keep]
            # forest iff every component has |E| = |V| - 1, i.e. no cycle
            parent = {v: v for v in keep}

            def find(x):
                while parent[x] != x:
                    x = parent[x]
                return x

            acyclic = True
            for u, v in edges:
                ru, rv = find(u), find(v)
                if ru == rv:
                    acyclic = False
                    break
                parent[ru] = rv
            if acyclic:
                return size
    raise AssertionError


def random_graph(rng, n, p):
    return Graph.from_edges(
        n, [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p]
    )


# --- vertex cover ----------------------------------------------------------


def test_vc_cycle5():
    assert len(min_vertex_cover(cycle_graph(5))) == 3


def test_vc_k4():
    assert len(min_vertex_cover(complete_graph(4))) == 3


def test_vc_edgeless():
    assert min_vertex_cover(edgeless_graph(5)) == frozenset()


def test_vc_returns_a_valid_cover_split():
    rng = random.Random(2)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 8), rng.choice((0.2, 0.5, 0.8)))
        cover = min_vertex_cover(g)
        assert cover <= frozenset(range(g.n))
        assert all(u in cover or v in cover for u, v in g.edges)


def test_vc_matches_bruteforce_minimum():
    rng = random.Random(3)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 8), rng.choice((0.2, 0.5, 0.8)))
        assert len(min_vertex_cover(g)) == brute_min_cover_size(g)


def all_labelled_graphs(max_n):
    for n in range(max_n + 1):
        slots = list(itertools.combinations(range(n), 2))
        for mask in range(2 ** len(slots)):
            yield Graph.from_edges(n, (e for i, e in enumerate(slots) if mask >> i & 1))


def test_vc_is_minimum_and_independent_of_edge_order_against_enumeration():
    # any minimum cover serves the FPT, whose parameter is the cover's size;
    # the search is deterministic, and reordering or reorienting the edges a
    # graph is built from leaves its cover unchanged
    rng = random.Random(4)
    seeded = [
        random_graph(rng, rng.randint(1, 10), rng.choice((0.2, 0.5, 0.8)))
        for _ in range(60)
    ]
    shuffle = random.Random(7)
    for g in itertools.chain(all_labelled_graphs(5), seeded):
        cover = min_vertex_cover(g)
        assert all(u in cover or v in cover for u, v in g.edges)
        assert len(cover) == brute_min_cover_size(g)
        for _ in range(3):
            edges = [(v, u) if shuffle.random() < 0.5 else (u, v) for u, v in g.edges]
            shuffle.shuffle(edges)
            assert min_vertex_cover(Graph.from_edges(g.n, edges)) == cover


def test_vc_makes_one_cover_search_per_component(monkeypatch):
    calls = []

    def counted(adj, budget):
        calls.append(budget)
        return cover_search(adj, budget)

    cover_search = params._cover
    monkeypatch.setattr(params, "_cover", counted)
    # a triangle, a path, a 4-cycle and two isolated vertices
    g = Graph.from_edges(12, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (6, 7), (7, 8), (8, 9), (6, 9)])
    assert len(min_vertex_cover(g)) == 2 + 1 + 2
    assert sorted(calls) == [1, 1, 3, 3, 4]
    # a budget runs on across components: the 4-cycle's cover of 2 does not
    # fit the 1 that the triangle and the path leave of 4
    calls.clear()
    assert min_vertex_cover(g, 4) is None
    assert calls == [3, 2, 1]


def test_vc_sparse_n60_is_a_minimum_cover():
    g = random_graph(random.Random(2), 60, 0.03)
    cover = min_vertex_cover(g)
    assert all(u in cover or v in cover for u, v in g.edges)
    assert len(cover) == vertex_cover_number(g) == 23


# --- feedback vertex set ---------------------------------------------------


def test_fvs_forest_is_zero():
    forest = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4)])
    assert len(min_feedback_vertex_set(forest)) == 0


def test_fvs_universal_over_forest_is_one():
    forest = Graph.from_edges(5, [(0, 1), (2, 3), (3, 4)])
    lifted = add_universal_vertex(forest)
    assert len(min_feedback_vertex_set(lifted)) == 1


def test_fvs_k4_is_two():
    g = complete_graph(4)
    assert len(min_feedback_vertex_set(g)) == brute_min_fvs_size(g) == 2


def test_fvs_result_removal_is_acyclic():
    rng = random.Random(8)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 7), 0.5)
        fvs = min_feedback_vertex_set(g)
        assert fvs <= frozenset(range(g.n)) and len(fvs) == brute_min_fvs_size(g)


def test_fvs_at_most_vc():
    rng = random.Random(12)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 7), rng.choice((0.2, 0.5, 0.8)))
        assert len(min_feedback_vertex_set(g)) <= len(min_vertex_cover(g))


# --- twins -----------------------------------------------------------------


def test_twins_star_leaves_form_one_class():
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    classes = twin_partition(star, frozenset({0}))
    assert len(classes) == 1
    assert classes[0].neighborhood == frozenset({0})
    assert classes[0].members == (1, 2, 3)


def test_twins_p4_two_classes():
    classes = twin_partition(path_graph(4), frozenset({1, 2}))
    assert {(c.neighborhood, c.members) for c in classes} == {
        (frozenset({1}), (0,)),
        (frozenset({2}), (3,)),
    }


def test_twins_edgeless_single_empty_class():
    classes = twin_partition(edgeless_graph(4), frozenset())
    assert len(classes) == 1
    assert classes[0].neighborhood == frozenset()
    assert classes[0].members == (0, 1, 2, 3)


def test_twins_reject_invalid_split():
    with pytest.raises(ValueError, match="is not covered"):
        twin_partition(path_graph(3), frozenset({0}))
    # a vertex past the last, or a negative one, which adjacency would index
    # from the end, is no vertex of the graph
    for cover in ({1, 3}, {1, -1}):
        with pytest.raises(ValueError, match="out of range for n=3"):
            twin_partition(path_graph(3), frozenset(cover))


def test_twins_cover_the_independent_set_and_swaps_are_automorphisms():
    rng = random.Random(13)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 8), rng.choice((0.2, 0.5, 0.8)))
        cover = min_vertex_cover(g)
        classes = twin_partition(g, cover)
        members = [v for c in classes for v in c.members]
        assert sorted(members) == sorted(set(range(g.n)) - cover)
        assert len(classes) <= 2 ** len(cover)
        for cls in classes:
            for a, b in itertools.combinations(cls.members, 2):
                swap = {a: b, b: a}
                swapped = frozenset(
                    (
                        min(swap.get(u, u), swap.get(v, v)),
                        max(swap.get(u, u), swap.get(v, v)),
                    )
                    for u, v in g.edges
                )
                assert swapped == g.edges


# --- tripartitions ---------------------------------------------------------
# The FPT solver's generator: one cover's tripartitions per (matched,
# to-independent) size, the to-independent part pairwise non-adjacent and, in
# connected mode, the matched and to-independent parts together linked.


def bipartite(left, right):
    return Graph.from_edges(max(left + right) + 1, [(u, v) for u in left for v in right])


class Trip(NamedTuple):
    """A cover's vertices by role: matched, unused, or matched into the opposite independent set."""

    matched: frozenset
    unused: frozenset
    to_independent: frozenset


def generated(g, connected=False):
    """Each (m, i) bucket of the generator over g's minimum cover, as Trips."""
    cover = _Cover(g)
    sizes = range(len(cover.order) + 2)

    def trip(s):
        matched, to_indep = frozenset(cover.vertices(s.mm)), frozenset(cover.vertices(s.im))
        return Trip(matched, frozenset(cover.order) - matched - to_indep, to_indep)

    # a floor of -1 cuts nothing: every tripartition the walk keeps
    return {(m, i): [trip(s) for s in cover._bucket(connected, m, i, -1)] for m in sizes for i in sizes}


def reference(g, connected=False):
    """itertools.product order over the roles (matched, unused,
    to-independent), smallest vertex most significant, filtered by
    independence and, in connected mode, by connectivity in g of the used
    cover vertices with their independent neighbours."""
    cover = min_vertex_cover(g)
    kept = []
    for roles in itertools.product(range(3), repeat=len(cover)):
        parts = ([], [], [])
        for v, role in zip(sorted(cover), roles):
            parts[role].append(v)
        if any(v in g.adj[u] for u, v in itertools.combinations(parts[2], 2)):
            continue
        used = set(parts[0] + parts[2])
        joined = used | {v for v in range(g.n) if v not in cover and g.adj[v] & used}
        if connected and not (used and induces_connected(g, joined)):
            continue
        kept.append(Trip(*map(frozenset, parts)))
    return kept


def test_tripartition_counts():
    # with an independent cover nothing is filtered: 3^k in all
    assert sum(map(len, generated(edgeless_graph(3)).values())) == 1
    assert sum(map(len, generated(bipartite([3, 7], [0, 1, 2])).values())) == 9
    assert sum(map(len, generated(bipartite([0, 1, 2], [3, 4, 5, 6])).values())) == 27


def test_tripartition_parts_partition_the_cover():
    cover = {1, 4, 6}
    seen = set()
    for bucket in generated(bipartite(sorted(cover), [0, 2, 3, 5])).values():
        for trip in bucket:
            parts = (trip.matched, trip.unused, trip.to_independent)
            assert frozenset().union(*parts) == frozenset(cover)
            assert sum(len(p) for p in parts) == len(cover)
            seen.add(tuple(tuple(sorted(p)) for p in parts))
    assert len(seen) == 27  # all distinct


def test_tripartition_order_is_deterministic():
    g = random_graph(random.Random(3), 9, 0.5)
    assert generated(g) == generated(g)
    assert generated(g, True) == generated(g, True)


def test_tripartition_order_is_product_order():
    # roles (matched, unused, to-independent), smallest vertex most significant
    g = bipartite([8, 1, 5], [0, 2, 3, 4])
    expected = []
    for roles in itertools.product(range(3), repeat=3):
        parts = ([], [], [])
        for v, r in zip((1, 5, 8), roles):
            parts[r].append(v)
        expected.append(tuple(map(frozenset, parts)))
    for (m, i), bucket in generated(g).items():
        got = [(t.matched, t.unused, t.to_independent) for t in bucket]
        assert got == [t for t in expected if (len(t[0]), len(t[2])) == (m, i)]


def covers_up_to_eight():
    """Seeded graphs whose minimum covers take every size from 0 to 8."""
    rng = random.Random(46)
    draws = [edgeless_graph(2)] + [random_graph(rng, rng.randint(2, 10), rng.choice((0.2, 0.5))) for _ in range(60)]
    graphs = [g for g in draws if vertex_cover_number(g) <= 6]
    # and the first seeded draws with covers 7 and 8, the largest covers that
    # `solve --algo auto` sends to the FPT: 3^8 role vectors per mode
    rng = random.Random(7)
    wide = (random_graph(rng, rng.randint(10, 13), 0.3) for _ in itertools.count())
    return graphs + [next(g for g in wide if vertex_cover_number(g) == k) for k in (7, 8)]


def test_tripartition_size_buckets_filter_the_full_stream():
    graphs = covers_up_to_eight()
    covers = set()
    for g in graphs:
        k = vertex_cover_number(g)
        covers.add(k)
        for conn in (False, True):
            full = reference(g, conn)
            for (m, i), bucket in generated(g, conn).items():
                expected = [t for t in full if (len(t.matched), len(t.to_independent)) == (m, i)]
                assert bucket == expected, (g.edges, conn, m, i)
                if m + i > k:
                    assert expected == []
    assert covers == set(range(9))


def test_tripartition_walk_floor_keeps_exactly_the_sides_above_it():
    # a floor cuts branches by the members they leave free, which hold every
    # leaf's pairs mask, so it must keep the same sides as filtering the
    # whole walk by pairs, in the same order
    cut = 0
    for g in covers_up_to_eight():
        cover = _Cover(g)
        sizes = range(len(cover.order) + 1)
        for conn, m, i in itertools.product((False, True), sizes, sizes):
            full = cover._bucket(conn, m, i, -1)
            for floor in range(len(cover.flat) + 1):
                expected = [s for s in full if s.pairs.bit_count() > floor]
                assert cover._bucket(conn, m, i, floor) == expected, (g.edges, conn, m, i, floor)
                cut += len(full) - len(expected)
    assert cut  # some floor cuts something


def test_tripartition_room_bounds_the_members_an_independent_part_leaves_free():
    # room[i] bounds, from the block sizes alone, the members of the twin
    # classes with no neighbor in any independent i-subset of the cover
    rng = random.Random(49)
    tight = 0
    for _ in range(150):
        g = random_graph(rng, rng.randint(1, 11), rng.choice((0.1, 0.2, 0.4)))
        vc = min_vertex_cover(g)
        cover, twins = _Cover(g, vc), twin_partition(g, vc)
        assert len(cover.room) == len(cover.order) + 1
        for i in range(len(cover.order) + 1):
            most = max((
                sum(len(c.members) for c in twins if not c.neighborhood & set(part))
                for part in itertools.combinations(cover.order, i)
                if not any(v in g.adj[u] for u, v in itertools.combinations(part, 2))
            ), default=0)
            assert cover.room[i] >= most, (g.edges, i)
            tight += cover.room[i] == most
    assert tight  # and meets it somewhere, so it is not vacuous


def test_vertex_cover_number_helper():
    assert vertex_cover_number(cycle_graph(6)) == 3
    assert vertex_cover_number(edgeless_graph(4)) == 0


def test_min_vertex_cover_stops_past_its_budget():
    # with a budget the search answers only whether the cover fits it
    rng = random.Random(19)
    # two odd cycles, covers 3 and 4: the budget left runs on across components
    cycles = Graph.from_edges(12, [(j, (j + 1) % 5) for j in range(5)] + [(5 + j, 5 + (j + 1) % 7) for j in range(7)])
    graphs = [edgeless_graph(3), cycle_graph(7), cycles]
    graphs += [random_graph(rng, rng.randint(2, 14), rng.choice((0.1, 0.3, 0.6))) for _ in range(40)]
    for g in graphs:
        cover = min_vertex_cover(g)
        k = len(cover)
        for budget in range(k + 2):
            assert min_vertex_cover(g, budget) == (None if budget < k else cover), (g.edges, budget)
