"""Tests for vertex cover, feedback vertex set, twins and tripartitions."""

import itertools
import random
from typing import NamedTuple

import pytest

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
    CoverSplit,
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
    assert len(min_vertex_cover(cycle_graph(5)).cover) == 3


def test_vc_k4():
    assert len(min_vertex_cover(complete_graph(4)).cover) == 3


def test_vc_edgeless():
    split = min_vertex_cover(edgeless_graph(5))
    assert split.cover == frozenset()
    assert split.independent == frozenset(range(5))


def test_vc_returns_a_valid_cover_split():
    rng = random.Random(2)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 8), rng.choice((0.2, 0.5, 0.8)))
        split = min_vertex_cover(g)
        assert all(u in split.cover or v in split.cover for u, v in g.edges)
        assert not any(
            u in split.independent and v in split.independent for u, v in g.edges
        )
        assert split.cover | split.independent == frozenset(range(g.n))


def test_vc_matches_bruteforce_minimum():
    rng = random.Random(3)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 8), rng.choice((0.2, 0.5, 0.8)))
        assert len(min_vertex_cover(g).cover) == brute_min_cover_size(g)


def test_vc_lexicographically_smallest():
    # C4 has minimum covers {0,2} and {1,3}; the tie must break to {0,2}
    assert min_vertex_cover(cycle_graph(4)).cover == frozenset({0, 2})
    # one edge: both endpoints are minimum covers; take vertex 0
    assert min_vertex_cover(path_graph(2)).cover == frozenset({0})


def all_labelled_graphs(max_n):
    for n in range(max_n + 1):
        slots = list(itertools.combinations(range(n), 2))
        for mask in range(2 ** len(slots)):
            yield Graph.from_edges(n, (e for i, e in enumerate(slots) if mask >> i & 1))


def test_vc_lex_smallest_against_enumeration():
    rng = random.Random(4)
    seeded = [
        random_graph(rng, rng.randint(1, 10), rng.choice((0.2, 0.5, 0.8)))
        for _ in range(60)
    ]
    for g in itertools.chain(all_labelled_graphs(5), seeded):
        covers = (
            combo
            for size in range(g.n + 1)
            for combo in itertools.combinations(range(g.n), size)
            if all(u in combo or v in combo for u, v in g.edges)
        )
        # the first cover in (size, lex) order is the lex smallest minimum one
        assert tuple(sorted(min_vertex_cover(g).cover)) == next(covers)


def test_vc_sparse_n60_is_a_minimum_cover():
    g = random_graph(random.Random(2), 60, 0.03)
    split = min_vertex_cover(g)
    assert all(u in split.cover or v in split.cover for u, v in g.edges)
    assert len(split.cover) == vertex_cover_number(g) == 23


# --- feedback vertex set ---------------------------------------------------


def test_fvs_forest_is_zero():
    forest = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4)])
    assert min_feedback_vertex_set(forest).size == 0


def test_fvs_universal_over_forest_is_one():
    forest = Graph.from_edges(5, [(0, 1), (2, 3), (3, 4)])
    lifted = add_universal_vertex(forest)
    assert min_feedback_vertex_set(lifted).size == 1


def test_fvs_k4_is_two():
    g = complete_graph(4)
    assert min_feedback_vertex_set(g).size == brute_min_fvs_size(g) == 2


def test_fvs_result_removal_is_acyclic():
    rng = random.Random(8)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 7), 0.5)
        result = min_feedback_vertex_set(g)
        assert result.size == len(result.vertices) == brute_min_fvs_size(g)


def test_fvs_at_most_vc():
    rng = random.Random(12)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 7), rng.choice((0.2, 0.5, 0.8)))
        assert min_feedback_vertex_set(g).size <= len(min_vertex_cover(g).cover)


# --- twins -----------------------------------------------------------------


def test_twins_star_leaves_form_one_class():
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    split = CoverSplit(frozenset({0}), frozenset({1, 2, 3}))
    tp = twin_partition(star, split)
    assert len(tp.classes) == 1
    assert tp.classes[0].neighborhood == frozenset({0})
    assert tp.classes[0].members == (1, 2, 3)


def test_twins_p4_two_classes():
    split = CoverSplit(frozenset({1, 2}), frozenset({0, 3}))
    tp = twin_partition(path_graph(4), split)
    assert {(c.neighborhood, c.members) for c in tp.classes} == {
        (frozenset({1}), (0,)),
        (frozenset({2}), (3,)),
    }


def test_twins_edgeless_single_empty_class():
    split = CoverSplit(frozenset(), frozenset(range(4)))
    tp = twin_partition(edgeless_graph(4), split)
    assert len(tp.classes) == 1
    assert tp.classes[0].neighborhood == frozenset()
    assert tp.classes[0].members == (0, 1, 2, 3)


def test_twins_reject_invalid_split():
    with pytest.raises(ValueError):
        twin_partition(path_graph(3), CoverSplit(frozenset({0}), frozenset({1, 2})))


def test_twins_cover_the_independent_set_and_swaps_are_automorphisms():
    rng = random.Random(13)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 8), rng.choice((0.2, 0.5, 0.8)))
        split = min_vertex_cover(g)
        tp = twin_partition(g, split)
        members = [v for c in tp.classes for v in c.members]
        assert sorted(members) == sorted(split.independent)
        assert len(tp.classes) <= 2 ** len(split.cover)
        for cls in tp.classes:
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
    cover = _Cover(g, connected)
    sizes = range(len(cover.order) + 2)

    def trip(s):
        matched, to_indep = frozenset(cover.vertices(s.mm)), frozenset(cover.vertices(s.im))
        return Trip(matched, frozenset(cover.order) - matched - to_indep, to_indep)

    return {(m, i): [trip(s) for s in cover.buckets[m, i]] for m in sizes for i in sizes}


def reference(g, connected=False):
    """itertools.product order over the roles (matched, unused,
    to-independent), smallest vertex most significant, filtered by
    independence and, in connected mode, by connectivity in g of the used
    cover vertices with their independent neighbours."""
    split = min_vertex_cover(g)
    kept = []
    for roles in itertools.product(range(3), repeat=len(split.cover)):
        parts = ([], [], [])
        for v, role in zip(sorted(split.cover), roles):
            parts[role].append(v)
        if any(v in g.adj[u] for u, v in itertools.combinations(parts[2], 2)):
            continue
        used = set(parts[0] + parts[2])
        joined = used | {v for v in split.independent if g.adj[v] & used}
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


def test_tripartition_size_buckets_filter_the_full_stream():
    rng = random.Random(46)
    draws = [edgeless_graph(2)] + [random_graph(rng, rng.randint(2, 10), rng.choice((0.2, 0.5))) for _ in range(60)]
    graphs = [g for g in draws if vertex_cover_number(g) <= 6]
    # and the first seeded draws with covers 7 and 8, the largest covers that
    # `solve --algo auto` sends to the FPT: 3^8 role vectors per mode
    rng = random.Random(7)
    wide = (random_graph(rng, rng.randint(10, 13), 0.3) for _ in itertools.count())
    graphs += [next(g for g in wide if vertex_cover_number(g) == k) for k in (7, 8)]
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


def test_vertex_cover_number_helper():
    assert vertex_cover_number(cycle_graph(6)) == 3
    assert vertex_cover_number(edgeless_graph(4)) == 0


def test_vertex_cover_number_stops_past_its_budget():
    # with a budget the search answers only whether the cover fits it
    rng = random.Random(19)
    # two odd cycles, covers 3 and 4: the budget left runs on across components
    cycles = Graph.from_edges(12, [(j, (j + 1) % 5) for j in range(5)] + [(5 + j, 5 + (j + 1) % 7) for j in range(7)])
    graphs = [edgeless_graph(3), cycle_graph(7), cycles]
    graphs += [random_graph(rng, rng.randint(2, 14), rng.choice((0.1, 0.3, 0.6))) for _ in range(40)]
    for g in graphs:
        k = vertex_cover_number(g)
        for budget in range(k + 2):
            assert vertex_cover_number(g, budget) == min(k, budget + 1), (g.edges, budget)
