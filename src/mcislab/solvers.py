"""Exact solvers for common induced subgraph problems.

Three routes to an answer, deliberately redundant so they can cross-check
each other:

* :func:`isi_backtracking` — induced subgraph isomorphism in two layers.
  :func:`_components` returns each graph's components class by class,
  largest first, each with its map from its class's first component.  When
  both have two or more, the component layer packs pattern components into
  host components, deciding once per call, by one search, whether a multiset
  of pattern component classes fits a host component class; a separator count
  refutes most misfits before the vertex layer runs.  The witness is those
  searches' embeddings, carried along the maps.
  The vertex layer places pattern vertices depth first with an explicit
  depth, along one table per call indexed by order position, pruned by
  degree, non-degree and adjacency to the images of earlier neighbors.
* :func:`mcis_bruteforce` — the oracle: enumerate vertex subsets of the
  smaller graph in decreasing size and embed each whose degrees fit into the
  other graph.  Refuses inputs above :data:`ORACLE_BOUND` vertices; it exists
  for validation, not production use.
* :func:`mcis_vc_fpt` — the vertex-cover-parameterized algorithm: minimum
  covers on both sides, twin classes of the independent sets, then an
  enumeration of cover tripartitions, cover bijections and
  cover-to-twin-class assignments.  Each graph's side (:class:`_Cover`,
  built by the caller once for both modes) holds its cover adjacency and
  twin classes as bitmasks and generates its tripartitions per size bucket, once per
  search, when the search first reaches it, by one depth-first walk over the roles (the buckets
  come one at a time, in decreasing order of their ceiling, from a closed form);
  to-independent parts must be independent, and for MCCIS the cover part
  linked.  The walk cuts a branch whose free members (of the classes with no neighbor in its
  to-independent part) cannot beat the best size, and the search skips a bucket whose bound
  on them (``room``) cannot.  A kept tripartition's ``pairs`` mask, which every
  pair bound and class plan reads, holds the members of the twin classes
  that can pair.  A tripartition pair can pair at most ``min(P1, P2)``
  members, P being a side's mask size, and at most the sum of ``min`` per
  degree signature of the classes' traces, which the bijections keep; it
  yields nothing if a to-independent vertex's signature is no opposite
  trace's.
  These tests skip a pair where the pair loop visits it, before its
  first bijection.  The cover bijections of a live pair are placements of
  the vertex layer, the one search for induced embeddings, of the first matched
  part in ``_Cover.inner``'s order onto the second's positions.  The pair search reads cover
  positions and bitmasks only, twin-class members included (member bit b
  is the vertex ``_Cover.flat[b]``), and translates them to vertex ids
  only when it assembles a candidate.  Once a cover bijection is
  fixed, the twin classes pair only within label classes (their cover
  neighborhood under the bijection), so the bijection can reach at most the
  matched and to-independent cover vertices plus ``sum(min(L_key, R_key))``
  over the keys (McSplit's bound); a bijection whose bound cannot beat the
  best size so far is skipped whole.  Below it, one :func:`depth_first` search,
  one step for both sides, gives each to-independent
  cover vertex a twin class and tests each choice as it is made: a member
  bit left in the class, adjacency agreeing with the opposite side's
  choices, and the size still reachable, which only falls; for MCCIS the
  class must also meet the opposite side's used cover vertices.  So every
  assembled mapping is induced by construction; the arbiter still tests each one, as a guard
  that raises :class:`WitnessError`.  For MCCIS, ``induces_connected``
  alone decides which cover parts are linked and which candidates stay.
  The search starts from an incumbent, two one- or two-vertex cover shapes
  (built once per side) paired trace by trace with no search, under the same
  guards; it stays the witness unless the search beats it (on an empty graph it is empty, and nothing can).

:func:`solve` routes MCIS/MCCIS by name, owns the size gates, and hands the gate's covers on.
:func:`enumerate_configurations` exposes the same enumeration as a stream
of mappings, each with its cover bijection.  No search here recurses: the
component layer and the class choices run on :func:`depth_first`'s stack.
The threshold question "is there a common induced subgraph on ``k``
vertices?" is answered from the exact optimum (``solve -k``).
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence, TypeVar

from .graphs import (
    Graph,
    VertexMapping,
    connected_components,
    induced_subgraph,
    induces_connected,
    is_induced_isomorphism,
)
from .params import min_vertex_cover, twin_partition

# the most vertices a graph may have for the brute-force oracle to take it
ORACLE_BOUND = 10
# past the oracle bound, `solve` under `auto` runs the FPT when the larger cover is at most this
VC_CUTOFF = 8
_Node = TypeVar("_Node")  # a node of a depth_first search


class OracleBoundError(RuntimeError):
    """A solver refused an instance above its size bound."""


class WitnessError(RuntimeError):
    """A solver built a witness that the arbiter rejects (a solver bug)."""


@dataclass(frozen=True)
class SolveQuery:
    g1: Graph
    g2: Graph
    connected: bool = False


@dataclass
class SolveStats:
    """Deterministic work counters.

    ``configurations`` counts the complete cover-to-twin-class assignments the
    FPT choice search reaches, and ``choice_nodes`` the class choices it places
    (within capacity and agreeing on cross adjacency with the choices before
    it; a choice that cannot beat the best size ends its branch).
    ``candidates_validated`` counts the candidates the arbiter checks (in brute
    force, the subsets searched: a subset refuted by its degrees is not); in
    MCCIS, ``configurations - candidates_validated`` counts the FPT candidates
    the connectivity test rejects.
    ``bijections_tried`` counts the cover bijections the FPT examines and
    ``bijections_pruned`` those the label-class bound skips whole.
    ``pairs_tried`` counts the tripartition pairs with equal matched degree
    multisets it reaches in a live bucket, among the tripartitions the walk keeps
    (in connected mode, with a connected cover part), and ``pairs_pruned`` those skipped before
    their first bijection, by the pair bound or by a to-independent vertex
    whose degree signature no opposite trace has; ``buckets_pruned`` counts the size
    buckets the room bound skips before either side is walked.  ``search_nodes`` counts
    placements on every route: a pattern vertex (in the FPT, a matched cover position)
    on a host vertex, or a pattern component in a host component; a refuted pattern
    makes none.  ``incumbent`` is the size the FPT search started from (0 on other routes).
    """

    configurations: int = 0
    choice_nodes: int = 0
    candidates_validated: int = 0
    bijections_tried: int = 0
    bijections_pruned: int = 0
    pairs_tried: int = 0
    pairs_pruned: int = 0
    buckets_pruned: int = 0
    search_nodes: int = 0
    incumbent: int = 0


@dataclass(frozen=True)
class SolveResult:
    witness: VertexMapping
    method: str
    stats: SolveStats

    @property
    def size(self) -> int:
        """The common induced subgraph's order: the witness's length."""
        return len(self.witness)


def _answers(q: SolveQuery, witness: VertexMapping) -> bool:
    """Whether ``witness`` answers ``q``: the arbiter first, since it refuses a
    pair out of range, which induces_connected would index blindly; once it
    accepts, the first side stands for both."""
    return is_induced_isomorphism(q.g1, q.g2, witness) and (
        not q.connected or induces_connected(q.g1, [u for u, _ in witness.pairs]))


def configuration_bound(k1: int, k2: int) -> int:
    """Loose ceiling on how many configurations the enumeration may touch."""
    return 3**k1 * 3**k2 * math.factorial(max(k1, k2)) * 2 ** (2 * k1 * k2)


def depth_first(root: _Node, children: Callable[[int, _Node], Iterator[_Node]], depth: int) -> Iterator[_Node]:
    """The nodes ``depth`` levels below ``root``, depth first, a node ``x`` at
    level ``l`` having the children ``children(l, x)``, none of them None.  The
    child iterators sit on an explicit stack, so no depth exhausts Python's;
    children that apply a choice as they yield it and take it back when resumed
    leave every choice on the path applied while a node is yielded."""
    stack = [iter([root])]  # the root, then one child iterator per level below it
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
        elif len(stack) > depth:
            yield node
        else:
            stack.append(children(len(stack) - 1, node))


# ---------------------------------------------------------------------------
# induced subgraph isomorphism


def _embeddings(
    padj: Sequence[frozenset[int]],
    hadj: Sequence[frozenset[int]],
    comps: list[list[int]],
    classes: list[int],
    pool: Sequence[int],
    stats: SolveStats,
) -> Iterator[dict[int, int]]:
    """The vertex layer: every placement of the vertices of ``comps``, in order.

    ``comps`` must be closed under ``padj``, as whole components are.  One
    table per call, indexed by order position, holds each position's earlier
    neighbors (as positions), its degree window and, at a component's first
    position, the previous component's positions if the two are of one
    class.  Depth first, with an explicit depth, one candidate list per
    position and the images in a list by position.  A pattern vertex with no
    earlier neighbor draws from ``pool`` (sorted host vertices).  A
    candidate ``c`` for ``u`` is adjacent to the images of ``u``'s earlier
    neighbors and to no other used vertex, i.e.
    ``|N(c) & used|`` equals their number; it has at least ``u``'s degree,
    and at least as many non-neighbors in ``pool`` as ``u`` has among the
    vertices of ``comps``.
    A component of the same class as the one before it must have all images
    above that component's smallest image (symmetry breaking).  Each
    placement adds one to the caller's ``stats.search_nodes``, and each yield is a fresh dict.
    """
    order = [v for comp in comps for v in comp]
    if not order:
        yield {}
        return
    n = len(order)
    # u's non-neighbors must land on c's: len(pool) - deg(c) >= len(order) - deg(u)
    slack = len(pool) - n  # below 0, no degree window admits a first candidate
    at = {v: i for i, v in enumerate(order)}
    # by position: earlier neighbors, degree window, and at a component's first
    # position the previous component's positions (empty unless isomorphic)
    table: list[tuple[list[int], int, int, range | None]] = []
    for ci, comp in enumerate(comps):
        i = len(table)
        prev = range(i - len(comps[ci - 1]), i) if ci and classes[ci] == classes[ci - 1] else range(0)
        for u in comp:
            i, du = len(table), len(padj[u])
            table.append(([at[x] for x in padj[u] if at.get(x, n) < i], du, du + slack, prev))
            prev = None
    images, floors, used = [-1] * n, [-1] * n, set()

    def candidates(i: int) -> Iterator[int]:
        earlier, du, top, prev = table[i]
        floors[i] = floor = floors[i - 1] if prev is None else min([images[p] for p in prev], default=-1)
        if not earlier:
            return iter([c for c in pool if c > floor and c not in used
                         and du <= len(hadj[c]) <= top and used.isdisjoint(hadj[c])])
        k, base = len(earlier), hadj[images[earlier[0]]]
        base = sorted(base.intersection(*[hadj[images[p]] for p in earlier[1:]]) if k > 1 else base)
        return iter([c for c in base if c > floor and c not in used
                     and du <= len(hadj[c]) <= top and len(hadj[c] & used) == k])

    stack = [candidates(0)] * n
    i = 0
    while True:
        c = next(stack[i], None)
        if c is None:
            if not i:
                return
            i -= 1
            used.discard(images[i])
            continue
        stats.search_nodes += 1
        images[i] = c
        if i + 1 < n:
            used.add(c)
            i += 1
            stack[i] = candidates(i)
            continue
        yield dict(zip(order, images))


def _components(g: Graph, stats: SolveStats) -> tuple[list[list[int]], list[int], list[dict[int, int]]]:
    """``g``'s components as vertex orders, the isomorphism class of each and each one's
    map, an isomorphism from its class's first component onto it (the identity on a first
    one).  Classes are numbered by first appearance in (-size, smallest vertex) order, and
    components come by class, so largest first, then by smallest vertex: the class list is
    non-decreasing, and ``bisect`` finds a class's run in it.  Each grows by placed neighbors,
    then degree, then smallest id, from a sorted key list that keeps stale entries, so a long
    path is not quadratic.  Sorted degree sequences (which fix n and m) are compared first; the
    exact test, the vertex layer embedding a component into its class's first one (placements
    count in ``stats``), runs only between equal sequences; the map is its embedding's inverse."""
    adj = g.adj
    ordered: list[list[int]] = []
    same_seq: dict[tuple[int, ...], list[int]] = {}  # per degree sequence: its classes
    classes: list[int] = []
    maps: list[dict[int, int]] = []
    pools: list[list[int]] = []
    for comp in sorted(connected_components(g), key=lambda c: (-len(c), min(c))):
        placed_nbrs = dict.fromkeys(comp, 0)
        keys = sorted((0, len(adj[v]), -v) for v in comp)
        order = []
        while keys:
            placed, _, v = keys.pop()
            v = -v
            if placed_nbrs.get(v) != placed:
                continue  # placed already, or a stale entry
            del placed_nbrs[v]
            order.append(v)
            for w in adj[v]:
                if w in placed_nbrs:
                    placed_nbrs[w] += 1
                    bisect.insort(keys, (placed_nbrs[w], len(adj[w]), -w))
        ordered.append(order)
        same_key = same_seq.setdefault(tuple(sorted(len(adj[v]) for v in order)), [])
        for cid in same_key:
            if (found := next(_embeddings(adj, adj, [order], [cid], pools[cid], stats), None)) is not None:
                classes.append(cid)
                maps.append({u: v for v, u in found.items()})
                break
        else:
            same_key.append(len(pools))
            classes.append(len(pools))
            maps.append(dict(zip(order, order)))
            pools.append(sorted(order))
    ranked = sorted(range(len(ordered)), key=classes.__getitem__)
    return [ordered[i] for i in ranked], [classes[i] for i in ranked], [maps[i] for i in ranked]


def _pack(
    padj: Sequence[frozenset[int]],
    hadj: Sequence[frozenset[int]],
    pattern: tuple[list[list[int]], list[int], list[dict[int, int]]],
    host: tuple[list[list[int]], list[int], list[dict[int, int]]],
    stats: SolveStats,
) -> dict[int, int] | None:
    """The component layer: give each pattern component a host component.

    ``pattern`` and ``host`` are the graphs' :func:`_components`, walked by index, so both
    come class by class.  A host component's share is the tuple of pattern classes given to
    it, in the order given; adding a class must fit, which the vertex layer decides once per
    (share, host class), embedding the share's first components of each class in the class's
    first component, its pool; the table keeps that embedding.  Before any placement, a share
    of c >= 2 components fails if the vertices it leaves over, times the pool's maximum degree
    D less one, fall below c - 1: its images are pairwise non-adjacent, and deleting a vertex
    of degree d from a graph adds at most d - 1 components.  Components of one class take
    non-decreasing host indices, and none goes to a host component when the one before it, of
    its class, holds the same share: within a host class the ones holding one share stay
    consecutive, so that one stands for every earlier one.  One :func:`depth_first` level per
    component; a placement stays applied while yielded, so the packing stays in ``where`` and
    ``share``.  The witness is the table's embeddings, searched no further: the j-th component
    placed in a host component goes along the maps onto its share's j-th, and so into it; no
    two host components are adjacent.  Both layers' placements count in ``stats.search_nodes``.
    """
    comps, classes, maps = pattern
    host_comps, hclasses, hmaps = host

    def first(share: tuple[int, ...], j: int) -> int:  # for share[j], its class's component at j's place in its run
        return bisect.bisect_left(classes, share[j]) + j - share.index(share[j])

    def fits(key: tuple[tuple[int, ...], int]) -> dict[int, int] | None | bool:
        share, pool = key[0], sorted(hmaps[bisect.bisect_left(hclasses, key[1])])
        part = [comps[first(share, j)] for j in range(len(share))]
        spare = max(len(pool) - sum(map(len, part)), 0)
        return (len(part) < 2 or spare * (max(len(hadj[v]) for v in pool) - 1) >= len(part) - 1) and next(
            _embeddings(padj, hadj, part, list(share), pool, stats), None)

    fit = _Table(fits)  # per (share, host class): an embedding, or a falsy value
    share: list[tuple[int, ...]] = [()] * len(host_comps)
    where = [-1] * len(comps)

    def place(t: int, _: int) -> Iterator[int]:
        cid = classes[t]
        for h in range(where[t - 1] if t and classes[t - 1] == cid else 0, len(host_comps)):
            # the host component before h, of h's class and holding h's share, rules h out
            if (h and hclasses[h - 1] == hclasses[h] and share[h - 1] == share[h]
                    or not fit[share[h] + (cid,), hclasses[h]]):
                continue
            stats.search_nodes += 1
            where[t] = h
            share[h] += (cid,)
            yield h
            share[h] = share[h][:-1]

    if next(depth_first(0, place, len(comps)), None) is None:
        return None
    assignment: dict[int, int] = {}
    nth = [0] * len(host_comps)  # per host component: the pattern components met in it so far
    for t, h in enumerate(where):
        s, found, hmap = first(share[h], nth[h]), fit[share[h], hclasses[h]], hmaps[h]
        assignment.update([(maps[t][v], hmap[found[maps[s][v]]]) for v in maps[t]])
        nth[h] += 1
    return assignment


def _degrees_fit(pattern: Sequence[int], host: Sequence[int]) -> bool:
    """Whether pattern degrees fit host degrees, both sorted non-increasing: an
    injective induced map keeps adjacency and non-adjacency, so the pattern's i-th
    largest degree, and i-th largest non-degree (n - 1 - degree), is at most the
    host's.  Summed, these also bound the pattern's edges and non-edges."""
    slack = len(host) - len(pattern)  # p - 1 - a <= h - 1 - b, for the i-th smallest a and b
    return slack >= 0 and all(map(int.__le__, pattern, host)) and all(
        b - a <= slack for a, b in zip(pattern[::-1], host[::-1]))


def isi_backtracking(
    pattern: Graph, host: Graph, stats: SolveStats | None = None
) -> VertexMapping | None:
    """Embed ``pattern`` as an induced subgraph of ``host``, or return None.

    Two layers.  When both graphs have at least two components, the
    component layer packs pattern components into host components
    (:func:`_pack`); otherwise the first placement of the vertex layer
    (:func:`_embeddings`) maps the pattern's vertices into the whole host,
    with degree and adjacency pruning and isomorphic pattern components
    forced into increasing min-image order.  Before either, a pattern with
    more vertices than the host, or whose degree sequences do not fit the
    host's (:func:`_degrees_fit`; so also more edges or non-edges), is refuted.
    :func:`_components` analyses the pattern and, for a pattern of two or more
    components, the host, class by class and with the maps that carry the witness.
    Both layers count their placements in ``stats.search_nodes``, into a
    fresh :class:`SolveStats` when none is given.  The arbiter checks the
    witness, as a guard that raises :class:`WitnessError`.
    """
    if not _degrees_fit(sorted(map(len, pattern.adj), reverse=True), sorted(map(len, host.adj), reverse=True)):
        return None
    stats = SolveStats() if stats is None else stats
    comps, classes, maps = _components(pattern, stats)
    hosts = _components(host, stats) if len(comps) > 1 else None
    if hosts and len(hosts[0]) > 1:
        found = _pack(pattern.adj, host.adj, (comps, classes, maps), hosts, stats)
    else:
        found = next(_embeddings(pattern.adj, host.adj, comps, classes, range(host.n), stats), None)
    if found is None:
        return None
    mapping = VertexMapping(tuple(sorted(found.items())))
    if not is_induced_isomorphism(pattern, host, mapping):
        raise WitnessError(f"isi_backtracking built a non-induced embedding {mapping.pairs}")
    return mapping


# ---------------------------------------------------------------------------
# brute-force oracle


def mcis_bruteforce(q: SolveQuery) -> SolveResult:
    """Exact optimum by decreasing-size subset enumeration; validation only.
    A subset whose induced degrees do not fit the other graph's
    (:func:`_degrees_fit`) is skipped first: neither validated nor searched."""
    if q.g1.n > ORACLE_BOUND or q.g2.n > ORACLE_BOUND:
        raise OracleBoundError(
            f"oracle bound {ORACLE_BOUND} exceeded (inputs have {q.g1.n} and {q.g2.n} vertices)"
        )
    stats = SolveStats()
    swap = q.g1.n > q.g2.n
    small, big = (q.g2, q.g1) if swap else (q.g1, q.g2)
    big_degrees = sorted(map(len, big.adj), reverse=True)
    for size in range(small.n, 0, -1):
        for subset in itertools.combinations(range(small.n), size):
            inside = frozenset(subset)
            if not _degrees_fit(sorted([len(small.adj[v] & inside) for v in subset], reverse=True), big_degrees):
                continue
            if q.connected and not induces_connected(small, subset):
                continue
            pattern = induced_subgraph(small, subset)
            stats.candidates_validated += 1
            m = isi_backtracking(pattern, big, stats)
            if m is None:
                continue
            pairs = [(subset[u], v) for u, v in m.pairs]
            if swap:
                pairs = [(v, u) for u, v in pairs]
            witness = VertexMapping(tuple(sorted(pairs)))
            if not _answers(q, witness):
                raise WitnessError(f"mcis_bruteforce built an invalid witness {witness.pairs}")
            return SolveResult(witness, "brute", stats)
    return SolveResult(VertexMapping(()), "brute", stats)


# ---------------------------------------------------------------------------
# the vertex-cover-parameterized enumeration


def _bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _Table(dict):
    """A dict that fills a missing key from ``fill(key)`` on first lookup."""

    def __init__(self, fill: Callable) -> None:
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


class _Part(NamedTuple):
    """A matched cover part as the pair loop and the pair search read it,
    once per part.  A twin class's trace is its neighborhood mask in the
    part, and ``masks`` holds each trace's members.  A vertex set's degree
    signature is its sorted degrees in the part; cover bijections keep it."""

    degms: tuple[int, ...]  # the part's own signature
    offers: frozenset[tuple[int, ...]]  # sig_members' keys, frozen: needs test 5x faster against them
    sig_at: list[tuple[int, ...]]  # per cover position: its neighbors' signature
    sig_members: dict[tuple[int, ...], int]  # per trace signature: the members of its classes
    traces: dict[int, list[int]]  # twin classes by trace
    masks: dict[int, int]  # per trace: the members of its classes


class _Side(NamedTuple):
    """One kept tripartition with what the pair loop reads."""

    part: _Part  # the matched part's signatures
    mm: int  # the matched positions
    im: int  # the to-independent positions
    pairs: int  # the members of the twin classes that can pair
    needs: frozenset[tuple[int, ...]]  # the to-independent vertices' signatures


class _Cover:
    """One graph's side of the FPT search in both modes, over a vertex ``cover`` of
    ``g`` or a minimum cover it searches, numbered 0..k-1 in increasing order so
    that cover adjacency, twin-class neighborhoods and members are bitmasks (member
    bit b is the vertex ``flat[b]``).  Tables keyed by a part are filled on first request,
    never for all 2^k parts up front (``inner`` for the bijections); nothing is keyed by mode.  The class
    ``blocks`` per position, the ``room`` bound per to-independent size and the
    incumbent's ``shapes`` are built once, with the cover."""

    def __init__(self, g: Graph, cover: frozenset[int] | None = None):
        cover = min_vertex_cover(g) if cover is None else cover
        self.g = g
        twins = twin_partition(g, cover)
        self.order = sorted(cover)
        pos = {v: j for j, v in enumerate(self.order)}
        self.adjmask = [sum(1 << pos[w] for w in g.adj[v] if w in pos) for v in self.order]
        self.nbhdmask = [sum(1 << pos[w] for w in c.neighborhood) for c in twins]
        self.flat = [v for c in twins for v in c.members]  # class by class
        ends = itertools.accumulate([len(c.members) for c in twins], initial=0)
        self.members = [(1 << b) - (1 << a) for a, b in itertools.pairwise(ends)]
        self.positions = _Table(lambda mask: tuple(_bits(mask)))
        self.parts = _Table(self._part)
        self.inner = _Table(self._inner)
        self.linked = _Table(self._linked)
        # per position: the members of the classes adjacent to it, and of those adjacent to it alone
        self.blocks, private = [0] * len(self.order), [0] * len(self.order)
        for nb, mk in zip(self.nbhdmask, self.members):
            for j in _bits(nb):
                self.blocks[j] |= mk
            if nb.bit_count() == 1:
                private[nb.bit_length() - 1] += mk.bit_count()
        # per size i: the most members an i-subset can leave free, bounded from block
        # sizes alone: it takes out a block no smaller than the i-th smallest, and
        # i disjoint private blocks no smaller together than the i smallest
        self.room = [len(self.flat) - max(lo, hi) for lo, hi in zip(
            [0, *sorted(b.bit_count() for b in self.blocks)], itertools.accumulate(sorted(private), initial=0))]
        self.shapes = self._shapes()

    def _shapes(self) -> list[tuple[tuple[int, ...], bool, tuple[int, ...]]]:
        """The incumbent's shapes, mode-free: cover positions, their adjacency,
        and members by trace (private to the first, private to the second,
        common, missed).  The independent set alone has no position, a star one
        with its neighbors, and a double star two in either order, adjacent or
        in one class's neighborhood: read off those masks, not a scan of pairs."""
        k, every, star = len(self.order), (1 << len(self.flat)) - 1, [*self.blocks, 0]  # position k stands for none
        duos = {(a, b) for a, am in enumerate(self.adjmask) for b in _bits(am)}
        duos.update(d for nb in set(self.nbhdmask) for d in itertools.permutations(self.positions[nb], 2))
        return [(tuple(p for p in (a, b) if p < k), bool(a < k and self.adjmask[a] >> b & 1),
                 (star[a] & ~star[b], star[b] & ~star[a], star[a] & star[b], every & ~(star[a] | star[b])))
                for a, b in [(k, k), *[(j, k) for j in range(k)], *sorted(duos)]]

    def vertices(self, mask: int) -> tuple[int, ...]:
        return tuple(self.order[j] for j in self.positions[mask])

    def image(self, mask: int, sigma: dict[int, int]) -> int:
        """The mask of the images under ``sigma`` of the positions of ``mask``."""
        return sum([1 << sigma[j] for j in self.positions[mask]])

    def _inner(self, mm: int) -> tuple[tuple[frozenset[int], ...], list[int]]:
        """The matched part ``mm`` as the vertex layer reads it: the adjacency inside it by
        cover position (empty outside it), and its bijections' order, by (-degree, position)."""
        adj = tuple([frozenset(self.positions[a & mm] if mm >> j & 1 else ()) for j, a in enumerate(self.adjmask)])
        return adj, sorted(self.positions[mm], key=lambda j: (-len(adj[j]), j))

    def _part(self, mm: int) -> _Part:
        """Signatures and twin classes by trace in the matched part ``mm``."""
        degree = [(a & mm).bit_count() for a in self.adjmask]
        sig = _Table(lambda t: tuple(sorted([degree[j] for j in self.positions[t]])))
        sig_members: dict[tuple[int, ...], int] = {}
        traces: dict[int, list[int]] = {}
        masks: dict[int, int] = {}
        for idx, (nb, mk) in enumerate(zip(self.nbhdmask, self.members)):
            traces.setdefault(nb & mm, []).append(idx)
            masks[nb & mm] = masks.get(nb & mm, 0) | mk
            s = sig[nb & mm]
            sig_members[s] = sig_members.get(s, 0) | mk
        sig_at = [sig[a & mm] for a in self.adjmask]
        return _Part(sig[mm], frozenset(sig_members), sig_at, sig_members, traces, masks)

    def _linked(self, used: int) -> bool:
        """Whether the cover part ``used`` is non-empty and connected with
        one member of each twin class that meets it: members are pairwise
        non-adjacent and meet only their class neighborhood, so one stands
        for all, as in any candidate with this cover part."""
        reps = [self.flat[(mk & -mk).bit_length() - 1] for mk, nb in zip(self.members, self.nbhdmask) if nb & used]
        return used != 0 and induces_connected(self.g, [*self.vertices(used), *reps])

    def _bucket(self, connected: bool, ms: int, i: int, floor: int) -> list[_Side]:
        """The tripartition generator: the cover's tripartitions with ``ms``
        matched and ``i`` to-independent positions, in MCCIS if ``connected``,
        in ``itertools.product`` order over the roles (matched, unused,
        to-independent), smallest vertex most significant, from one depth-first
        walk that tries the roles in that order at each position.  The walk
        keeps its own stack, so no cover size can exhaust Python's: each branch
        pushes its children in reverse, and matched pops first.  A branch ends
        once the positions left cannot hold the roles left; once no role is
        left, the rest are unused.  The to-independent part I is independent: it
        maps into an independent set.  In connected mode M ∪ I must be linked
        (:meth:`_linked`).  A twin class adjacent to I cannot pair (a branch
        carries the members I leaves free: a position joining I takes out its
        ``blocks``), nor in connected mode one isolated from M (an empty trace,
        ``masks[0]``), so ``pairs`` holds the members of the others; ``needs``
        holds the signature in M of each vertex of I, which an opposite part
        must offer.  A branch leaving at most ``floor`` free is cut, and a leaf
        whose ``pairs`` holds at most ``floor`` is not built: ``pairs`` lies
        within the free members, so no other side is lost.
        """
        k, bucket = len(self.order), []
        stack = [(0, 0, 0, (1 << len(self.flat)) - 1, ms, i)]
        while stack:
            j, mm, im, free, m, i = stack.pop()
            if m + i > k - j or free.bit_count() <= floor:
                continue
            if m or i:
                if i and not self.adjmask[j] & im:
                    stack.append((j + 1, mm, im | 1 << j, free & ~self.blocks[j], m, i - 1))
                stack.append((j + 1, mm, im, free, m, i))
                if m:
                    stack.append((j + 1, mm | 1 << j, im, free, m - 1, i))
                continue
            part = self.parts[mm]
            pairs = free & ~part.masks.get(0, 0) if connected else free
            if pairs.bit_count() > floor and (not connected or self.linked[mm | im]):
                needs = frozenset([part.sig_at[p] for p in self.positions[im]])
                bucket.append(_Side(part, mm, im, pairs, needs))
        return bucket


def _assemble(
    c1: _Cover,
    c2: _Cover,
    s1: _Side,
    s2: _Side,
    sigma: dict[int, int],
    chosen: Sequence[tuple[int, int]],
    taken: Sequence[int],
    plan: list[tuple[int, int]],
) -> VertexMapping:
    """Build the full candidate mapping for one configuration, in vertex ids.

    Each to-independent vertex takes the member bit its choice in
    ``chosen`` took, the first side's first; within each key of ``plan``
    the first graph's members that no choice took (``taken``, per graph)
    are paired in bit order with the second graph's.
    """
    indep1 = c1.vertices(s1.im)
    pairs = [(c1.order[u], c2.order[v]) for u, v in sigma.items()]
    pairs += [(u, c2.flat[b.bit_length() - 1]) for u, (_, b) in zip(indep1, chosen)]
    pairs += [(c1.flat[b.bit_length() - 1], y) for y, (_, b) in zip(c2.vertices(s2.im), chosen[len(indep1) :])]
    for mk1, mk2 in plan:
        pairs += zip([c1.flat[b] for b in _bits(mk1 & ~taken[0])], [c2.flat[b] for b in _bits(mk2 & ~taken[1])])
    return VertexMapping(tuple(sorted(pairs)))


def _class_choices(
    c: _Cover, s: _Side, image: dict[int, int], other: _Cover, o: _Side, connected: bool
) -> list[list[int]] | None:
    """For each to-independent position of ``s``, the twin classes of
    ``other`` whose trace in ``o``'s matched part is the image under
    ``image`` of its neighbors in ``s``'s; None if one has none.  In
    connected mode a class must also meet ``o``'s used cover positions: its
    members meet no other vertex of a candidate, so they would be isolated."""
    cands = [o.part.traces.get(c.image(c.adjmask[u] & s.mm, image), []) for u in c.positions[s.im]]
    if connected:
        used = o.mm | o.im
        cands = [[x for x in cs if other.nbhdmask[x] & used] for cs in cands]
    return cands if all(cands) else None


def _buckets(k1: int, k2: int, a: int, b: int) -> Iterator[tuple[int, int, int, int]]:
    """The size buckets ``(ub, ms, i1s, i2s)`` of covers of ``k1`` and ``k2``
    beside independent sets of ``a`` and ``b``, one at a time in increasing
    ``(-ub, ms, i1s, i2s)`` order: ``i1s <= min(k1 - ms, b)``, ``i2s <=
    min(k2 - ms, a)`` and ``ub = ms + min(a + i1s, b + i2s)``.  With ``r =
    ub - ms``, ``a + i1s = r`` comes first (the smaller ``i1s``), then
    ``b + i2s = r < a + i1s``."""
    for ub in range(min(k1 + a, k2 + b), -1, -1):
        for ms in range(min(k1, k2, ub) + 1):
            r = ub - ms
            if 0 <= r - a <= min(k1 - ms, b):
                for i2s in range(max(r - b, 0), min(k2 - ms, a) + 1):
                    yield ub, ms, r - a, i2s
            if 0 <= r - b <= min(k2 - ms, a):
                for i1s in range(max(r - a + 1, 0), min(k1 - ms, b) + 1):
                    yield ub, ms, i1s, r - b


def _iter_search(c1: _Cover, c2: _Cover, connected: bool, stats: SolveStats,
                 best: list[int]) -> Iterator[VertexMapping]:
    """Core enumeration shared by the FPT solver and the configuration stream:
    each kept candidate's mapping, over the caller's covers, in MCCIS if ``connected``.

    ``best`` is a one-element list holding the best size so far, raised by the
    consumer; each mapping yielded beats it, and subtrees that cannot are skipped.
    Buckets (matched size and the two to-independent sizes) come from
    :func:`_buckets` in decreasing order of their ceiling; one whose sizes plus
    the smaller ``room`` cannot beat ``best`` is skipped.  Each side's
    tripartitions of one bucket come from its :class:`_Cover`'s walk once per
    search, when first reached, at the floor under which no pair test of that side
    passes: ``best`` less its sizes and the largest opposite to-independent size.
    A tripartition pair whose ``pairs`` masks cannot lift the bucket's
    cover part above ``best``, as a whole or per trace signature, or in
    which a to-independent vertex's degree signature is offered by no
    opposite trace, is skipped before its first cover bijection, and a
    first-side tripartition whose own mask cannot is skipped with all its
    pairs.  The opposite side of a bucket is grouped by matched degree
    multiset once; each pair of a first-side tripartition with its group
    meets these tests where it is visited, against the current ``best``,
    and each pair that passes them all draws its own cover bijections.
    """
    k1, k2 = len(c1.order), len(c2.order)
    a, b = c1.g.n - k1, c2.g.n - k2

    def walk(key: tuple[int, int, int]) -> list[_Side]:  # best only rises, so its floor holds
        side, ms, i = key
        c, k_other, own = (c1, k2, a) if side == 0 else (c2, k1, b)
        return c._bucket(connected, ms, i, best[0] - ms - i - min(k_other - ms, own))

    buckets = _Table(walk)  # per side and sizes: its tripartitions, walked once
    for ub, ms, i1s, i2s in _buckets(k1, k2, a, b):
        if ub <= best[0]:
            break
        base = ms + i1s + i2s
        if base + min(c1.room[i1s], c2.room[i2s]) <= best[0]:
            stats.buckets_pruned += 1
            continue
        trips1 = buckets[0, ms, i1s]
        if not trips1:
            continue
        by_degms: dict[tuple[int, ...], list[_Side]] = {}
        for s2 in buckets[1, ms, i2s]:
            by_degms.setdefault(s2.part.degms, []).append(s2)
        for s1 in trips1:
            if ub <= best[0]:
                break
            group = by_degms.get(s1.part.degms, [])
            stats.pairs_tried += len(group)
            if not group or base + s1.pairs.bit_count() <= best[0]:
                stats.pairs_pruned += len(group)
                continue
            by_sig1 = [(sig, n) for sig, mk in s1.part.sig_members.items() if (n := (mk & s1.pairs).bit_count())]
            for s2 in group:
                # at most sum(min(L_sig, R_sig)) <= min(P1, P2) members pair: the
                # label-class bound of any bijection sums min(L_key, R_key) over
                # keys within one signature; and a to-independent vertex whose
                # signature no opposite trace has fails every bijection's choices
                if (
                    base + s2.pairs.bit_count() <= best[0]
                    or not s1.needs <= s2.part.offers
                    or not s2.needs <= s1.part.offers
                    or base + sum([
                        min(n, (s2.part.sig_members.get(sig, 0) & s2.pairs).bit_count()) for sig, n in by_sig1
                    ]) <= best[0]
                ):
                    stats.pairs_pruned += 1
                    continue
                yield from _search_pair(c1, c2, s1, s2, connected, stats, best, ub)


def _search_pair(
    c1: _Cover,
    c2: _Cover,
    s1: _Side,
    s2: _Side,
    connected: bool,
    stats: SolveStats,
    best: list[int],
    ub: int,
) -> Iterator[VertexMapping]:
    """Every configuration's mapping of one tripartition pair, pruned against ``best``.

    Positions and masks throughout, twin-class members included, until
    :func:`_assemble` builds a candidate.  A bijection's class plan is one
    ``(left, right)`` member-mask pair per key: a trace's members
    (``_Part.masks``) and its image's (a bijection keeps traces distinct),
    each ANDed with its side's ``pairs`` and kept when both are non-zero.
    A candidate's size is the matched and to-independent cover vertices
    plus ``min(L_key, R_key)`` per key over the members no choice took;
    with none taken it is McSplit's label-class bound, which prunes a whole
    bijection.  Below it :func:`depth_first` runs one level of ``choose``
    per to-independent position, first side first: a choice takes the lowest member
    left in its class into its graph's ``taken`` mask, and the size is
    recounted only when that member is in the plan.  A branch ends on an
    empty class, on cross adjacency that disagrees with a choice made, or on
    a size down to ``best``.  In
    connected mode the choices hold only classes that meet the opposite
    used cover positions (:func:`_class_choices`), and a candidate is kept
    only if it induces a connected subgraph of the first graph.
    """
    g1, g2, nbhd1, nbhd2 = c1.g, c2.g, c1.nbhdmask, c2.nbhdmask
    members = (c1.members, c2.members)
    indep1, indep2 = c1.positions[s1.im], c2.positions[s2.im]
    base = s1.mm.bit_count() + len(indep1) + len(indep2)
    chosen: list[tuple[int, int]] = []  # (class, member bit) per choice so far, the first side's first
    taken = [0, 0]  # per graph: the members the choices took

    def reach() -> int:  # the size still reachable: min per key over the members left
        rest1, rest2 = ~taken[0], ~taken[1]
        return base + sum([min((left & rest1).bit_count(), (right & rest2).bit_count()) for left, right in plan])

    # step t of the bijection below gives position v a class of graph g: each
    # choice stays applied while it is yielded, with the size reachable after it
    def choose(t: int, size: int) -> Iterator[int]:
        v, options, g = steps[t]
        for c in options:
            # a member of class c is left; and if u went into class s while it
            # comes to v, the candidate is induced only if u~c and v~s agree
            rest = members[g][c] & ~taken[g]
            if not rest or not g and any(
                (nbhd1[c] >> u ^ nbhd2[s] >> v) & 1 for u, (s, _) in zip(indep1, chosen)
            ):
                continue
            stats.choice_nodes += 1
            low = rest & -rest  # a choice takes the lowest member left
            taken[g] |= low
            # only a member in the plan moves the size, which then only falls
            now = reach() if low & inplan[g] else size
            if now > best[0]:
                chosen.append((c, low))
                yield now
                chosen.pop()
            taken[g] ^= low

    (adj1, order1), (adj2, _) = c1.inner[s1.mm], c2.inner[s2.mm]
    for sigma in _embeddings(adj1, adj2, [order1], [0], c2.positions[s2.mm], stats):  # the cover bijections
        if ub <= best[0]:
            return
        stats.bijections_tried += 1
        cands1 = _class_choices(c1, s1, sigma, c2, s2, connected)
        if cands1 is None:
            continue
        cands2 = _class_choices(c2, s2, {v: u for u, v in sigma.items()}, c1, s1, connected)
        if cands2 is None:
            continue
        plan = [(left, right) for trace, mk in s1.part.masks.items() if (left := mk & s1.pairs)
                and (right := s2.part.masks.get(c1.image(trace, sigma), 0) & s2.pairs)]
        bound = reach()  # nothing is taken here: the label-class bound
        if bound <= best[0]:
            stats.bijections_pruned += 1
            continue
        inplan = [sum([key[g] for key in plan]) for g in (0, 1)]  # per graph: the plan's members
        steps = [(u, cs, 1) for u, cs in zip(indep1, cands1)] + [(y, cs, 0) for y, cs in zip(indep2, cands2)]
        for size in depth_first(bound, choose, len(steps)):
            stats.configurations += 1
            mapping = _assemble(c1, c2, s1, s2, sigma, chosen, taken, plan)
            if len(mapping) != size:
                raise WitnessError(f"assembled {len(mapping)} pairs where the class plan predicts {size}")
            # the arbiter makes both sides isomorphic, so one side's connectivity decides
            if connected and not induces_connected(g1, [u for u, _ in mapping.pairs]):
                continue
            stats.candidates_validated += 1
            if not is_induced_isomorphism(g1, g2, mapping):
                raise WitnessError(f"mcis_vc_fpt built a non-induced mapping {mapping.pairs}")
            yield mapping


def _incumbent(c1: _Cover, c2: _Cover, connected: bool) -> VertexMapping:
    """The largest pairing of two shapes (:meth:`_Cover._shapes`) with equal
    cover part and adjacency, trace by trace, from one shape per isomorphism
    type (its key); in MCCIS without missed members or the shape with no
    position, so every pairing is connected.  Else a single vertex if both graphs
    have one, and none if not.  A tie goes to the first in shape order, so to the fewer cover positions."""
    traces = 3 if connected else 4
    kinds: list[dict[tuple[int, ...], tuple]] = [{}, {}]
    for c, kind in zip((c1, c2), kinds):
        for pos, adjacent, masks in c.shapes:
            if pos or not connected:
                kind.setdefault((len(pos), adjacent, *[mk.bit_count() for mk in masks[:traces]]), (pos, masks))
    pick = max(((k1[0] + sum(map(min, k1[2:], k2[2:])), s1, s2) for k1, s1 in kinds[0].items()
                for k2, s2 in kinds[1].items() if k1[:2] == k2[:2]), key=lambda t: t[0], default=None)
    if pick is None:  # a single vertex is a (connected) common induced subgraph of two non-empty graphs
        return VertexMapping(((0, 0),) if c1.g.n and c2.g.n else ())
    _, (pos1, masks1), (pos2, masks2) = pick
    pairs = [(c1.order[a], c2.order[b]) for a, b in zip(pos1, pos2)]
    for mk1, mk2 in zip(masks1[:traces], masks2):
        pairs += zip([c1.flat[b] for b in _bits(mk1)], [c2.flat[b] for b in _bits(mk2)])
    return VertexMapping(tuple(sorted(pairs)))


def enumerate_configurations(
    g1: Graph, g2: Graph
) -> Iterator[tuple[tuple[tuple[int, int], ...], VertexMapping]]:
    """Stream every validated configuration's maximal mapping, each with its
    cover bijection: the mapping's pairs of two cover vertices, in vertex ids.

    Up to twin exchanges and sub-selection, every common induced subgraph of
    the pair is dominated by some yielded mapping.  The floor of -1 is never
    raised, so nothing is pruned.
    """
    c1, c2 = _Cover(g1), _Cover(g2)
    cover1, cover2 = set(c1.order), set(c2.order)
    for mapping in _iter_search(c1, c2, False, SolveStats(), [-1]):
        yield tuple((u, v) for u, v in mapping.pairs if u in cover1 and v in cover2), mapping


def mcis_vc_fpt(q: SolveQuery, covers: tuple[_Cover, _Cover] | None = None) -> SolveResult:
    """Exact MCIS/MCCIS via the cover-tripartition enumeration, over ``covers`` if
    given, from :func:`_incumbent`'s size; its pairing stays the witness unless beaten
    (on an empty graph the empty one: the search then walks no bucket, counting nothing)."""
    c1, c2 = covers or (_Cover(q.g1), _Cover(q.g2))
    best_witness = _incumbent(c1, c2, q.connected)
    if not _answers(q, best_witness):
        raise WitnessError(f"mcis_vc_fpt built an invalid incumbent {best_witness.pairs}")
    best = [len(best_witness)]
    stats = SolveStats(incumbent=best[0])
    for best_witness in _iter_search(c1, c2, q.connected, stats, best):  # each beats best
        best[0] = len(best_witness)
    return SolveResult(best_witness, "vc-fpt", stats)


def solve(q: SolveQuery, algo: str) -> SolveResult:
    """MCIS/MCCIS by ``algo``: ``brute``, ``vc-fpt``, or ``auto``, the FPT once
    both covers fit the cutoff, tested only past the oracle bound (within it,
    one past the cutoff is K10's 9) up to the first graph that does not fit, then
    over the gate's covers.  An edgeless graph's cover is empty and fits, so the
    gate tests ``is None``.  A refusal raises OracleBoundError, another route ValueError."""
    if algo == "brute":
        return mcis_bruteforce(q)
    if algo not in ("vc-fpt", "auto"):
        raise ValueError(f"unknown route {algo!r}: expected brute, vc-fpt or auto")
    if algo == "auto" and max(q.g1.n, q.g2.n) > ORACLE_BOUND:
        budgeted = (min_vertex_cover(g, VC_CUTOFF) for g in (q.g1, q.g2))
        covers = list(itertools.takewhile(lambda cover: cover is not None, budgeted))
        if len(covers) < 2:
            raise OracleBoundError(
                f"refusing: a minimum vertex cover exceeds cutoff {VC_CUTOFF} "
                f"and inputs exceed the oracle bound {ORACLE_BOUND}"
            )
        return mcis_vc_fpt(q, (_Cover(q.g1, covers[0]), _Cover(q.g2, covers[1])))
    return mcis_vc_fpt(q)
