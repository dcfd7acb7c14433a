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
  cover-to-twin-class assignments.  Every candidate mapping is validated by
  the trusted arbiter before it can win.

:func:`enumerate_configurations` exposes the same enumeration as a stream,
and :func:`mcis_via_isi` decides the threshold variant by enumerating all
candidate graphs on ``k`` vertices.
"""

from __future__ import annotations

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
    CoverSplit,
    Tripartition,
    TwinPartition,
    min_vertex_cover,
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
    configurations: int = 0
    candidates_validated: int = 0


@dataclass(frozen=True)
class SolveResult:
    size: int
    witness: VertexMapping
    method: str
    stats: SolveStats


@dataclass(frozen=True)
class CoverConfiguration:
    """One fully specified choice in the tripartition enumeration.

    ``c1i_assignment`` maps each first-cover vertex destined for the second
    graph's independent set to the neighborhood signature of the twin class
    it lands in (and symmetrically for ``c2i_assignment``).
    ``class_pairing`` lists matched twin classes with the number of vertices
    exchanged between them.
    """

    trip1: Tripartition
    trip2: Tripartition
    cover_bijection: tuple[tuple[int, int], ...]
    c1i_assignment: tuple[tuple[int, frozenset[int]], ...]
    c2i_assignment: tuple[tuple[int, frozenset[int]], ...]
    class_pairing: tuple[tuple[frozenset[int], frozenset[int], int], ...]


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


@dataclass(frozen=True)
class _Trip:
    matched: tuple[int, ...]
    unused: tuple[int, ...]
    indep: tuple[int, ...]  # cover vertices sent to the opposite independent set
    mset: frozenset[int]
    iset: frozenset[int]
    degms: tuple[int, ...]  # degree multiset inside the matched part

    def as_tripartition(self) -> Tripartition:
        return Tripartition(
            frozenset(self.matched), frozenset(self.unused), frozenset(self.indep)
        )


def _side_trips(g: Graph, split: CoverSplit) -> dict[tuple[int, int], list[_Trip]]:
    """All tripartitions of one cover, grouped by (matched size, indep size).

    Tripartitions whose to-independent part is not pairwise non-adjacent are
    dropped outright: their vertices would have to map into an independent
    set.
    """
    cover = sorted(split.cover)
    groups: dict[tuple[int, int], list[_Trip]] = {}
    for roles in itertools.product(range(3), repeat=len(cover)):
        parts: tuple[list[int], list[int], list[int]] = ([], [], [])
        for v, r in zip(cover, roles):
            parts[r].append(v)
        matched, unused, indep = parts
        if any(g.has_edge(u, v) for u, v in itertools.combinations(indep, 2)):
            continue
        mset = frozenset(matched)
        degms = tuple(sorted(len(g.adj[v] & mset) for v in matched))
        trip = _Trip(
            tuple(matched), tuple(unused), tuple(indep), mset, frozenset(indep), degms
        )
        groups.setdefault((len(matched), len(indep)), []).append(trip)
    return groups


def _cover_bijections(
    g1: Graph, g2: Graph, t1: _Trip, t2: _Trip
) -> Iterator[dict[int, int]]:
    """Bijections between the matched cover parts that are induced isomorphisms."""
    adj1, adj2 = g1.adj, g2.adj
    d1 = {v: len(adj1[v] & t1.mset) for v in t1.matched}
    d2 = {v: len(adj2[v] & t2.mset) for v in t2.matched}
    order = sorted(t1.matched, key=lambda v: (-d1[v], v))
    sigma: dict[int, int] = {}
    used: set[int] = set()

    def extend(i: int) -> Iterator[dict[int, int]]:
        if i == len(order):
            yield dict(sigma)
            return
        u = order[i]
        for v in t2.matched:
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


def _assemble(
    g1: Graph,
    g2: Graph,
    t1: _Trip,
    t2: _Trip,
    twins1: TwinPartition,
    twins2: TwinPartition,
    sigma: dict[int, int],
    choice1: tuple[int, ...],
    choice2: tuple[int, ...],
    connected: bool,
) -> tuple[VertexMapping, tuple[tuple[frozenset[int], frozenset[int], int], ...]]:
    """Build the full candidate mapping for one configuration.

    Twin classes are matched greedily at maximum count, net of members
    consumed by the cover-to-independent-set assignments.  In connected mode
    class pairs without a surviving cover neighborhood contribute nothing
    (their vertices would be isolated in the candidate).
    """
    pairs: list[tuple[int, int]] = [(u, sigma[u]) for u in t1.matched]
    consumed1: dict[int, int] = {}
    consumed2: dict[int, int] = {}
    for u, sidx in zip(t1.indep, choice1):
        members = twins2.classes[sidx].members
        pairs.append((u, members[consumed2.get(sidx, 0)]))
        consumed2[sidx] = consumed2.get(sidx, 0) + 1
    for y, ridx in zip(t2.indep, choice2):
        members = twins1.classes[ridx].members
        pairs.append((members[consumed1.get(ridx, 0)], y))
        consumed1[ridx] = consumed1.get(ridx, 0) + 1

    # Pairable classes, grouped by the image of their surviving neighborhood.
    # Classes adjacent to the cover part mapped into the opposite independent
    # set are ineligible: their vertices would need a neighbor inside an
    # independent set.
    groups1: dict[frozenset[int], list[int]] = {}
    for idx, cls in enumerate(twins1.classes):
        if cls.neighborhood & t1.iset:
            continue
        key = frozenset(sigma[x] for x in cls.neighborhood & t1.mset)
        groups1.setdefault(key, []).append(idx)
    groups2: dict[frozenset[int], list[int]] = {}
    for idx, cls in enumerate(twins2.classes):
        if cls.neighborhood & t2.iset:
            continue
        key = cls.neighborhood & t2.mset
        groups2.setdefault(key, []).append(idx)

    pairing: list[tuple[frozenset[int], frozenset[int], int]] = []
    for key in sorted(groups1, key=lambda k: tuple(sorted(k))):
        if key not in groups2:
            continue
        if connected and not key:
            continue
        left = [
            (idx, list(twins1.classes[idx].members[consumed1.get(idx, 0):]))
            for idx in groups1[key]
        ]
        right = [
            (idx, list(twins2.classes[idx].members[consumed2.get(idx, 0):]))
            for idx in groups2[key]
        ]
        take = min(sum(len(m) for _, m in left), sum(len(m) for _, m in right))
        li = ri = 0
        while take > 0:
            while not left[li][1]:
                li += 1
            while not right[ri][1]:
                ri += 1
            lcls, lmembers = left[li]
            rcls, rmembers = right[ri]
            count = min(take, len(lmembers), len(rmembers))
            for _ in range(count):
                pairs.append((lmembers.pop(0), rmembers.pop(0)))
            pairing.append(
                (twins1.classes[lcls].neighborhood, twins2.classes[rcls].neighborhood, count)
            )
            take -= count
    return VertexMapping(tuple(sorted(pairs))), tuple(pairing)


def _iter_search(
    g1: Graph,
    g2: Graph,
    *,
    connected: bool,
    stats: SolveStats,
    best: list[int] | None = None,
) -> Iterator[tuple[CoverConfiguration, VertexMapping]]:
    """Core enumeration shared by the FPT solver and the configuration stream.

    When ``best`` (a one-element list holding the best size so far, updated
    by the consumer) is given, subtrees whose size ceiling cannot beat it are
    skipped; without it the enumeration is exhaustive.
    """
    split1, split2 = min_vertex_cover(g1), min_vertex_cover(g2)
    twins1, twins2 = twin_partition(g1, split1), twin_partition(g2, split2)
    i1_total, i2_total = len(split1.independent), len(split2.independent)
    side1 = _side_trips(g1, split1)
    side2 = _side_trips(g2, split2)

    buckets = []
    for ms, i1s in side1:
        for ms2, i2s in side2:
            if ms != ms2 or i1s > i2_total or i2s > i1_total:
                continue
            ub = ms + i1s + i2s + max(min(i1_total - i2s, i2_total - i1s), 0)
            buckets.append((ub, ms, i1s, i2s))
    buckets.sort(key=lambda b: (-b[0], b[1], b[2], b[3]))

    for ub, ms, i1s, i2s in buckets:
        if best is not None and ub <= best[0]:
            break
        by_degms: dict[tuple[int, ...], list[_Trip]] = {}
        for t2 in side2[(ms, i2s)]:
            by_degms.setdefault(t2.degms, []).append(t2)
        for t1 in side1[(ms, i1s)]:
            if best is not None and ub <= best[0]:
                break
            for t2 in by_degms.get(t1.degms, ()):
                yield from _search_pair(
                    g1, g2, t1, t2, twins1, twins2, connected, stats, best, ub
                )


def _search_pair(
    g1: Graph,
    g2: Graph,
    t1: _Trip,
    t2: _Trip,
    twins1: TwinPartition,
    twins2: TwinPartition,
    connected: bool,
    stats: SolveStats,
    best: list[int] | None,
    ub: int,
) -> Iterator[tuple[CoverConfiguration, VertexMapping]]:
    adj1, adj2 = g1.adj, g2.adj
    trace1: dict[frozenset[int], list[int]] = {}
    for idx, cls in enumerate(twins1.classes):
        trace1.setdefault(cls.neighborhood & t1.mset, []).append(idx)
    trace2: dict[frozenset[int], list[int]] = {}
    for idx, cls in enumerate(twins2.classes):
        trace2.setdefault(cls.neighborhood & t2.mset, []).append(idx)
    size1 = [len(c.members) for c in twins1.classes]
    size2 = [len(c.members) for c in twins2.classes]

    for sigma in _cover_bijections(g1, g2, t1, t2):
        if best is not None and ub <= best[0]:
            return
        inv = {v: u for u, v in sigma.items()}
        cands1: list[list[int]] = []
        for u in t1.indep:
            req = frozenset(sigma[x] for x in adj1[u] & t1.mset)
            lst = trace2.get(req)
            if not lst:
                break
            cands1.append(lst)
        else:
            cands2: list[list[int]] = []
            for y in t2.indep:
                req = frozenset(inv[x] for x in adj2[y] & t2.mset)
                lst = trace1.get(req)
                if not lst:
                    break
                cands2.append(lst)
            else:
                for choice1 in itertools.product(*cands1):
                    if any(choice1.count(s) > size2[s] for s in set(choice1)):
                        continue
                    for choice2 in itertools.product(*cands2):
                        stats.configurations += 1
                        if any(choice2.count(r) > size1[r] for r in set(choice2)):
                            continue
                        mapping, pairing = _assemble(
                            g1, g2, t1, t2, twins1, twins2, sigma, choice1, choice2,
                            connected,
                        )
                        if best is not None and len(mapping) <= best[0]:
                            continue
                        if connected and len(mapping) == 0:
                            continue
                        stats.candidates_validated += 1
                        if not is_induced_isomorphism(g1, g2, mapping):
                            continue
                        if connected:
                            sel1 = [u for u, _ in mapping.pairs]
                            sel2 = [v for _, v in mapping.pairs]
                            if not induces_connected(g1, sel1):
                                continue
                            if not induces_connected(g2, sel2):
                                continue
                        config = CoverConfiguration(
                            trip1=t1.as_tripartition(),
                            trip2=t2.as_tripartition(),
                            cover_bijection=tuple(sorted(sigma.items())),
                            c1i_assignment=tuple(
                                (u, twins2.classes[s].neighborhood)
                                for u, s in zip(t1.indep, choice1)
                            ),
                            c2i_assignment=tuple(
                                (y, twins1.classes[r].neighborhood)
                                for y, r in zip(t2.indep, choice2)
                            ),
                            class_pairing=pairing,
                        )
                        yield config, mapping


def enumerate_configurations(
    g1: Graph, g2: Graph, stats: SolveStats | None = None
) -> Iterator[tuple[CoverConfiguration, VertexMapping]]:
    """Stream every validated configuration with its maximal mapping.

    Up to twin exchanges and sub-selection, every common induced subgraph of
    the pair is dominated by some yielded item.
    """
    if stats is None:
        stats = SolveStats()
    yield from _iter_search(g1, g2, connected=False, stats=stats, best=None)


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
