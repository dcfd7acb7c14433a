"""Exact solvers for common induced subgraph problems.

Three routes to an answer, deliberately redundant so they can cross-check
each other:

* :func:`isi_backtracking` — induced subgraph isomorphism by backtracking
  with degree and adjacency-consistency pruning.
* :func:`mcis_bruteforce` — the oracle: enumerate vertex subsets of the
  smaller graph in decreasing size and try to embed each into the other
  graph.  Refuses inputs above a configurable size bound; it exists for
  validation, not production use.
* :func:`mcis_vc_fpt` — the vertex-cover-parameterized algorithm: minimum
  covers on both sides, twin classes of the independent sets, then an
  enumeration of cover tripartitions, cover bijections and
  cover-to-twin-class assignments.  Tripartitions are visited size bucket
  by size bucket in decreasing order of the bucket's ceiling, each bucket
  drawn lazily from :func:`mcislab.params.tripartitions` when the search
  reaches it.  Once a cover bijection is fixed, the
  twin classes pair only within label classes (their cover neighborhood
  under the bijection), so the bijection can reach at most the matched and
  to-independent cover vertices plus ``sum(min(L_key, R_key))`` over the
  keys (McSplit's bound); a bijection whose bound cannot beat the best
  size so far is skipped whole.  Below it, each candidate's size is
  computed from the class capacities before the mapping is built, and
  only a candidate that beats the best size is assembled.  A candidate is
  kept only if every cover vertex sent into an opposite twin class agrees
  on adjacency with every twin class member sent onto an opposite cover
  vertex, so every assembled mapping is induced by construction; the
  trusted arbiter still checks each one, as a guard that raises
  :class:`WitnessError`.

:func:`enumerate_configurations` exposes the same enumeration as a stream,
and :func:`mcis_via_isi` decides the threshold variant by enumerating all
candidate graphs on ``k`` vertices.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass
from typing import Iterator

from .graphs import (
    Graph,
    VertexMapping,
    connected_components,
    induced_subgraph,
    induces_connected,
    is_induced_isomorphism,
)
from .params import (
    Tripartition,
    TwinPartition,
    min_vertex_cover,
    tripartitions,
    twin_partition,
)

DEFAULT_ORACLE_BOUND = 10
ORACLE_BOUND_ENV = "MCIS_ORACLE_BOUND"


class OracleBoundError(RuntimeError):
    """The brute-force oracle refused an instance above its size bound."""


class WitnessError(RuntimeError):
    """A solver built a witness that the arbiter rejects (a solver bug)."""


def oracle_bound() -> int:
    """Current oracle size bound; MCIS_ORACLE_BOUND, if set, must be a non-negative integer."""
    raw = os.environ.get(ORACLE_BOUND_ENV, str(DEFAULT_ORACLE_BOUND))
    if not raw.strip().isdecimal():
        raise ValueError(f"{ORACLE_BOUND_ENV} must be a non-negative integer, got {raw!r}")
    return int(raw)


@dataclass(frozen=True)
class SolveQuery:
    g1: Graph
    g2: Graph
    connected: bool = False
    threshold: int | None = None

    def __post_init__(self):
        if self.threshold is not None and self.threshold < 0:
            raise ValueError("threshold must be non-negative")


@dataclass
class SolveStats:
    """Deterministic work counters.

    ``configurations`` counts the (choice1, choice2) assignment pairs the FPT
    enumeration reaches; ``bijections_tried`` the cover bijections it
    examines and ``bijections_pruned`` those of them the label-class bound
    skips whole.
    """

    configurations: int = 0
    candidates_validated: int = 0
    bijections_tried: int = 0
    bijections_pruned: int = 0


@dataclass(frozen=True)
class SolveResult:
    size: int
    witness: VertexMapping
    method: str
    stats: SolveStats


@dataclass(frozen=True)
class CoverConfiguration:
    """The cover part of one configuration in the tripartition enumeration.

    The cover-to-twin-class assignments and the class pairing that complete
    the configuration are read off the mapping yielded with it.
    """

    trip1: Tripartition
    trip2: Tripartition
    cover_bijection: tuple[tuple[int, int], ...]


def configuration_bound(k1: int, k2: int) -> int:
    """Loose ceiling on how many configurations the enumeration may touch."""
    return 3**k1 * 3**k2 * math.factorial(max(k1, k2)) * 2 ** (2 * k1 * k2)


# ---------------------------------------------------------------------------
# induced subgraph isomorphism


def _pattern_components(g: Graph) -> list[list[int]]:
    """Components as vertex orders: big components first; inside one
    component grow by number of already-placed neighbors."""
    ordered: list[list[int]] = []
    for comp in sorted(connected_components(g), key=lambda c: (-len(c), min(c))):
        todo = set(comp)
        placed: set[int] = set()
        order: list[int] = []
        while todo:
            v = max(
                todo,
                key=lambda x: (len(g.adj[x] & placed), len(g.adj[x]), -x),
            )
            order.append(v)
            placed.add(v)
            todo.remove(v)
        ordered.append(order)
    return ordered


def _isomorphic_components(g: Graph, a: list[int], b: list[int]) -> bool:
    if len(a) != len(b):
        return False
    ga = induced_subgraph(g, a)
    gb = induced_subgraph(g, b)
    if ga.m != gb.m:
        return False
    return isi_backtracking(ga, gb) is not None


def isi_backtracking(pattern: Graph, host: Graph) -> VertexMapping | None:
    """Embed ``pattern`` as an induced subgraph of ``host``, or return None.

    Prunes by degree and adjacency consistency.  Consecutive isomorphic
    pattern components are interchangeable, so their images are forced into
    increasing min-image order; this kills the factorial blow-up on patterns
    made of many identical pieces (the 3-partition gadgets).
    """
    if pattern.n == 0:
        return VertexMapping(())
    if pattern.n > host.n or pattern.m > host.m:
        return None
    comps = _pattern_components(pattern)
    order = [v for comp in comps for v in comp]
    comp_of = {}
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
    comp_start = {}
    pos = 0
    for ci, comp in enumerate(comps):
        comp_start[ci] = pos
        pos += len(comp)
    # floor[ci]: all images of component ci must exceed the previous
    # isomorphic component's minimum image
    same_as_prev = [False] + [
        _isomorphic_components(pattern, comps[i - 1], comps[i])
        for i in range(1, len(comps))
    ]
    padj, hadj = pattern.adj, host.adj
    pdeg = [len(a) for a in padj]
    hdeg = [len(a) for a in hadj]
    assignment: dict[int, int] = {}
    used: set[int] = set()

    def extend(i: int, floor: int) -> bool:
        if i == len(order):
            return True
        u = order[i]
        ci = comp_of[u]
        if i == comp_start[ci]:
            if ci > 0 and same_as_prev[ci]:
                floor = min(assignment[x] for x in comps[ci - 1])
            else:
                floor = -1
        placed_nbrs = [assignment[x] for x in padj[u] if x in assignment]
        if placed_nbrs:
            cands = set(hadj[placed_nbrs[0]])
            for w in placed_nbrs[1:]:
                cands &= hadj[w]
            cands -= used
        else:
            cands = set(range(host.n)) - used
        for c in sorted(cands):
            if c <= floor or hdeg[c] < pdeg[u]:
                continue
            if any(
                (x in padj[u]) != (w in hadj[c]) for x, w in assignment.items()
            ):
                continue
            assignment[u] = c
            used.add(c)
            if extend(i + 1, floor):
                return True
            del assignment[u]
            used.remove(c)
        return False

    if not extend(0, -1):
        return None
    mapping = VertexMapping(tuple(sorted(assignment.items())))
    if not is_induced_isomorphism(pattern, host, mapping):
        raise WitnessError(f"isi_backtracking built a non-induced embedding {mapping.pairs}")
    return mapping


# ---------------------------------------------------------------------------
# brute-force oracle


def mcis_bruteforce(q: SolveQuery, bound: int | None = None) -> SolveResult:
    """Exact optimum by decreasing-size subset enumeration; validation only."""
    limit = oracle_bound() if bound is None else bound
    if q.g1.n > limit or q.g2.n > limit:
        raise OracleBoundError(
            f"oracle bound {limit} exceeded (inputs have {q.g1.n} and {q.g2.n} vertices)"
        )
    stats = SolveStats()
    swap = q.g1.n > q.g2.n
    small, big = (q.g2, q.g1) if swap else (q.g1, q.g2)
    for size in range(small.n, 0, -1):
        for subset in itertools.combinations(range(small.n), size):
            if q.connected and not induces_connected(small, subset):
                continue
            pattern = induced_subgraph(small, subset)
            stats.candidates_validated += 1
            m = isi_backtracking(pattern, big)
            if m is None:
                continue
            back = dict(enumerate(subset))
            pairs = [(back[u], v) for u, v in m.pairs]
            if swap:
                pairs = [(v, u) for u, v in pairs]
            witness = VertexMapping(tuple(sorted(pairs)))
            if not is_induced_isomorphism(q.g1, q.g2, witness):
                raise WitnessError(f"mcis_bruteforce built an invalid witness {witness.pairs}")
            return SolveResult(size, witness, "brute", stats)
    return SolveResult(0, VertexMapping(()), "brute", stats)


# ---------------------------------------------------------------------------
# the vertex-cover-parameterized enumeration


def _cover_bijections(
    g1: Graph, g2: Graph, t1: Tripartition, t2: Tripartition
) -> Iterator[dict[int, int]]:
    """Bijections between the matched cover parts that are induced isomorphisms."""
    adj1, adj2 = g1.adj, g2.adj
    d1 = {v: len(adj1[v] & t1.matched) for v in t1.matched}
    d2 = {v: len(adj2[v] & t2.matched) for v in t2.matched}
    order = sorted(t1.matched, key=lambda v: (-d1[v], v))
    targets = sorted(t2.matched)
    sigma: dict[int, int] = {}
    used: set[int] = set()

    def extend(i: int) -> Iterator[dict[int, int]]:
        if i == len(order):
            yield dict(sigma)
            return
        u = order[i]
        for v in targets:
            if v in used or d2[v] != d1[u]:
                continue
            if any((x in adj1[u]) != (sigma[x] in adj2[v]) for x in sigma):
                continue
            sigma[u] = v
            used.add(v)
            yield from extend(i + 1)
            del sigma[u]
            used.remove(v)

    yield from extend(0)


_TripClasses = tuple[dict[frozenset[int], list[int]], dict[frozenset[int], list[int]]]


def _trip_classes(twins: TwinPartition, t: Tripartition) -> _TripClasses:
    """A tripartition's view of its own graph's twin classes.

    Returns the classes grouped by their neighborhood inside the matched
    cover part, and the same grouping of the pairable classes only.  A class
    adjacent to the cover part mapped into the opposite independent set
    cannot be paired: its vertices would need a neighbor inside an
    independent set.
    """
    traces: dict[frozenset[int], list[int]] = {}
    pairable: dict[frozenset[int], list[int]] = {}
    for idx, cls in enumerate(twins.classes):
        trace = cls.neighborhood & t.matched
        traces.setdefault(trace, []).append(idx)
        if not cls.neighborhood & t.to_independent:
            pairable.setdefault(trace, []).append(idx)
    return traces, pairable


_Side = tuple[Tripartition, tuple[int, ...], tuple[int, ...], _TripClasses]


def _side_bucket(
    g: Graph, twins: TwinPartition, cover: frozenset[int], sizes: tuple[int, int]
) -> list[_Side]:
    """One cover's tripartitions with ``sizes`` (matched, to-independent), each
    with its sorted to-independent part, its degree multiset inside the
    matched part and its twin-class view.

    Tripartitions whose to-independent part is not pairwise non-adjacent are
    dropped: their vertices would have to map into an independent set.
    """
    bucket = []
    for t in tripartitions(cover, sizes):
        indep = tuple(sorted(t.to_independent))
        if any(g.has_edge(u, v) for u, v in itertools.combinations(indep, 2)):
            continue
        degms = tuple(sorted(len(g.adj[v] & t.matched) for v in t.matched))
        bucket.append((t, indep, degms, _trip_classes(twins, t)))
    return bucket


def _class_plan(
    pairable1: dict[frozenset[int], list[int]],
    pairable2: dict[frozenset[int], list[int]],
    sigma: dict[int, int],
    connected: bool,
) -> list[tuple[list[int], list[int]]]:
    """Pairable twin classes under ``sigma``, one ``(left, right)`` entry per key.

    A key is the image in the second graph's matched cover part of a class's
    neighborhood there; classes pair only within a key present on both
    sides.  In connected mode the empty key is dropped (its vertices would be
    isolated in the candidate).
    """
    # sigma is a bijection, so distinct traces keep distinct images
    groups1 = {frozenset(sigma[x] for x in trace): idxs for trace, idxs in pairable1.items()}
    keys = [key for key in groups1 if key in pairable2 and (key or not connected)]
    keys.sort(key=lambda k: tuple(sorted(k)))
    return [(groups1[key], pairable2[key]) for key in keys]


def _assemble(
    indep1: tuple[int, ...],
    indep2: tuple[int, ...],
    twins1: TwinPartition,
    twins2: TwinPartition,
    sigma: dict[int, int],
    choice1: tuple[int, ...],
    choice2: tuple[int, ...],
    plan: list[tuple[list[int], list[int]]],
) -> VertexMapping:
    """Build the full candidate mapping for one configuration.

    Within each key of ``plan`` the members of the first graph's classes are
    paired in order with those of the second graph's, net of the members
    consumed by the cover-to-independent-set assignments.
    """
    # one cursor per twin class: the assignments take members first
    rest1 = [iter(c.members) for c in twins1.classes]
    rest2 = [iter(c.members) for c in twins2.classes]
    pairs = list(sigma.items())
    pairs += [(u, next(rest2[s])) for u, s in zip(indep1, choice1)]
    pairs += [(next(rest1[r]), y) for y, r in zip(indep2, choice2)]
    for lefts, rights in plan:
        free1 = [u for i in lefts for u in rest1[i]]
        free2 = [v for j in rights for v in rest2[j]]
        pairs.extend(zip(free1, free2))
    return VertexMapping(tuple(sorted(pairs)))


def _class_choices(
    indep: tuple[int, ...],
    adj: tuple[frozenset[int], ...],
    mset: frozenset[int],
    image: dict[int, int],
    trace: dict[frozenset[int], list[int]],
) -> list[list[int]] | None:
    """For each vertex of ``indep``, the opposite twin classes whose cover
    neighborhood matches its own under ``image``; None if one has none."""
    cands = []
    for u in indep:
        lst = trace.get(frozenset(image[x] for x in adj[u] & mset))
        if not lst:
            return None
        cands.append(lst)
    return cands


def _iter_search(
    g1: Graph,
    g2: Graph,
    *,
    connected: bool,
    stats: SolveStats,
    best: list[int],
) -> Iterator[tuple[CoverConfiguration, VertexMapping]]:
    """Core enumeration shared by the FPT solver and the configuration stream.

    ``best`` is a one-element list holding the best size so far, updated by
    the consumer; subtrees whose size ceiling cannot beat it are skipped.
    Buckets (matched size and the two to-independent sizes) are visited in
    decreasing order of their ceiling; each side's tripartitions of one
    bucket come from ``tripartitions`` when the search first reaches it.
    """
    split1, split2 = min_vertex_cover(g1), min_vertex_cover(g2)
    twins1, twins2 = twin_partition(g1, split1), twin_partition(g2, split2)
    k1, k2 = len(split1.cover), len(split2.cover)
    i1_total, i2_total = len(split1.independent), len(split2.independent)
    side1 = functools.cache(functools.partial(_side_bucket, g1, twins1, split1.cover))
    side2 = functools.cache(functools.partial(_side_bucket, g2, twins2, split2.cover))

    buckets = []
    for ms in range(min(k1, k2) + 1):
        for i1s in range(min(k1 - ms, i2_total) + 1):
            for i2s in range(min(k2 - ms, i1_total) + 1):
                ub = ms + i1s + i2s + max(min(i1_total - i2s, i2_total - i1s), 0)
                buckets.append((ub, ms, i1s, i2s))
    buckets.sort(key=lambda b: (-b[0], b[1], b[2], b[3]))

    for ub, ms, i1s, i2s in buckets:
        if ub <= best[0]:
            break
        trips1 = side1((ms, i1s))
        if not trips1:
            continue
        by_degms: dict[tuple[int, ...], list[_Side]] = {}
        for s2 in side2((ms, i2s)):
            by_degms.setdefault(s2[2], []).append(s2)
        for s1 in trips1:
            if ub <= best[0]:
                break
            for s2 in by_degms.get(s1[2], ()):
                yield from _search_pair(
                    g1, g2, s1, s2, twins1, twins2, connected, stats, best, ub
                )


def _search_pair(
    g1: Graph,
    g2: Graph,
    s1: _Side,
    s2: _Side,
    twins1: TwinPartition,
    twins2: TwinPartition,
    connected: bool,
    stats: SolveStats,
    best: list[int],
    ub: int,
) -> Iterator[tuple[CoverConfiguration, VertexMapping]]:
    """Every configuration of one tripartition pair, pruned against ``best``.

    A candidate's size is known before it is built: the matched and
    to-independent cover vertices plus, for each key of the class plan,
    ``min(L_key, R_key)`` net of the members the assignments consume.  With
    nothing consumed this is McSplit's label-class bound, which prunes a
    whole bijection; a candidate is assembled only if its size beats
    ``best`` and its two assignments agree on cross adjacency.
    """
    t1, indep1, _, (trace1, pairable1) = s1
    t2, indep2, _, (trace2, pairable2) = s2
    size1 = [len(c.members) for c in twins1.classes]
    size2 = [len(c.members) for c in twins2.classes]
    nbhd1 = [c.neighborhood for c in twins1.classes]
    nbhd2 = [c.neighborhood for c in twins2.classes]
    base = len(t1.matched) + len(indep1) + len(indep2)

    for sigma in _cover_bijections(g1, g2, t1, t2):
        if ub <= best[0]:
            return
        stats.bijections_tried += 1
        inv = {v: u for u, v in sigma.items()}
        cands1 = _class_choices(indep1, g1.adj, t1.matched, sigma, trace2)
        if cands1 is None:
            continue
        cands2 = _class_choices(indep2, g2.adj, t2.matched, inv, trace1)
        if cands2 is None:
            continue
        plan = _class_plan(pairable1, pairable2, sigma, connected)
        cap1 = [sum(size1[i] for i in lefts) for lefts, _ in plan]
        cap2 = [sum(size2[j] for j in rights) for _, rights in plan]
        # the label-class bound: no choice below can pair more than this
        if base + sum(map(min, cap1, cap2)) <= best[0]:
            stats.bijections_pruned += 1
            continue
        slot1 = {i: k for k, (lefts, _) in enumerate(plan) for i in lefts}
        slot2 = {j: k for k, (_, rights) in enumerate(plan) for j in rights}
        for choice1 in itertools.product(*cands1):
            if any(choice1.count(s) > size2[s] for s in set(choice1)):
                continue
            # second-graph capacity left per key once choice1 is placed
            free2 = cap2[:]
            for s in choice1:
                if s in slot2:
                    free2[slot2[s]] -= 1
            paired = list(map(min, cap1, free2))
            reach = base + sum(paired)
            if reach <= best[0]:
                continue
            for choice2 in itertools.product(*cands2):
                stats.configurations += 1
                if any(choice2.count(r) > size1[r] for r in set(choice2)):
                    continue
                # the candidate's exact size, before it is built
                drop: dict[int, int] = {}
                for r in choice2:
                    if r in slot1:
                        drop[slot1[r]] = drop.get(slot1[r], 0) + 1
                size = reach + sum(
                    min(cap1[k] - d, free2[k]) - paired[k] for k, d in drop.items()
                )
                if size <= best[0]:
                    continue
                # u goes into class s while a member of class r comes to y;
                # the candidate is induced only if u~r and y~s agree
                cross = itertools.product(zip(indep1, choice1), zip(indep2, choice2))
                if any((u in nbhd1[r]) != (y in nbhd2[s]) for (u, s), (y, r) in cross):
                    continue
                mapping = _assemble(
                    indep1, indep2, twins1, twins2, sigma, choice1, choice2, plan
                )
                if len(mapping) != size:
                    raise WitnessError(
                        f"assembled {len(mapping)} pairs where the class plan predicts {size}"
                    )
                stats.candidates_validated += 1
                if not is_induced_isomorphism(g1, g2, mapping):
                    raise WitnessError(f"mcis_vc_fpt built a non-induced mapping {mapping.pairs}")
                # both sides are isomorphic, so one side's connectivity decides
                if connected and not induces_connected(g1, [u for u, _ in mapping.pairs]):
                    continue
                config = CoverConfiguration(t1, t2, tuple(sorted(sigma.items())))
                yield config, mapping


def enumerate_configurations(
    g1: Graph, g2: Graph, stats: SolveStats | None = None
) -> Iterator[tuple[CoverConfiguration, VertexMapping]]:
    """Stream every validated configuration with its maximal mapping.

    Up to twin exchanges and sub-selection, every common induced subgraph of
    the pair is dominated by some yielded item.  The floor of -1 is never
    raised, so nothing is pruned.
    """
    if stats is None:
        stats = SolveStats()
    yield from _iter_search(g1, g2, connected=False, stats=stats, best=[-1])


def mcis_vc_fpt(q: SolveQuery) -> SolveResult:
    """Exact MCIS/MCCIS via the cover-tripartition enumeration."""
    stats = SolveStats()
    method = "vc-fpt"
    if q.g1.n == 0 or q.g2.n == 0:
        return SolveResult(0, VertexMapping(()), method, stats)
    # A single vertex is always a (connected) common induced subgraph.
    best_witness = VertexMapping(((0, 0),))
    best = [1]
    for _, mapping in _iter_search(
        q.g1, q.g2, connected=q.connected, stats=stats, best=best
    ):
        if len(mapping) > best[0]:
            best[0] = len(mapping)
            best_witness = mapping
    return SolveResult(best[0], best_witness, method, stats)


# ---------------------------------------------------------------------------
# the natural-parameter reduction


def mcis_via_isi(q: SolveQuery) -> bool:
    """Decide the threshold variant by enumerating all k-vertex candidates.

    One representative per labeled adjacency matrix; each candidate must
    embed as an induced subgraph of both inputs.  Connected queries restrict
    the candidates to connected graphs.  Refuses k > 6.
    """
    if q.threshold is None:
        raise ValueError("mcis_via_isi needs a threshold")
    k = q.threshold
    if k > 6:
        raise OracleBoundError(
            f"k={k} needs 2^{k * (k - 1) // 2} candidate graphs; refusing above k=6"
        )
    if k == 0:
        return True
    slots = list(itertools.combinations(range(k), 2))
    for mask in range(2 ** len(slots)):
        candidate = Graph.from_edges(
            k, (e for i, e in enumerate(slots) if mask >> i & 1)
        )
        if q.connected and not induces_connected(candidate, range(k)):
            continue
        if isi_backtracking(candidate, q.g1) is None:
            continue
        if isi_backtracking(candidate, q.g2) is None:
            continue
        return True
    return False
