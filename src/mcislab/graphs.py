"""Simple undirected graphs and the structural predicates everything else uses.

Vertices are dense integers ``0..n-1``, and a graph is its vertex count and
its edges and nothing more: the roles of a gadget's vertices belong to
:mod:`mcislab.reductions`.  Graphs are immutable after construction, so they
can be shared freely between workers; every operation here is a pure
function returning a fresh graph or a plain value.

The induced-isomorphism checker in this module is the trusted arbiter of the
whole package: solver output is only reported after it passes
:func:`is_induced_isomorphism`.
"""

from __future__ import annotations

import itertools
import re
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Container, Iterable, Iterator


class GraphParseError(ValueError):
    """A graph document (edge-list or DIMACS) could not be parsed."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


# the most vertices a parsed graph or a built gadget may have
MAX_VERTICES = 100_000
# a header count or an endpoint, in ASCII digits
_INTEGER = re.compile("-?[0-9]+")


class SizeBoundError(RuntimeError):
    """A graph, parsed or built, would have more than MAX_VERTICES vertices."""

    def __init__(self, message: str):
        super().__init__(f"{message}, above the size bound {MAX_VERTICES}")


class MappingError(ValueError):
    """A vertex mapping violates its contract (not injective, out of range)."""


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices ``0..n-1``.

    ``edges`` stores each edge exactly once as an ordered pair ``(u, v)``
    with ``u < v``; ``adj`` and ``m`` are derived from it.
    """

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not 0 <= u < v < self.n:
                raise ValueError(f"edge ({u}, {v}) out of range for n={self.n}")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph, normalizing edge orientation and dropping duplicates."""
        return cls(n, frozenset((min(u, v), max(u, v)) for u, v in edges))

    @cached_property
    def adj(self) -> tuple[frozenset[int], ...]:
        nbrs: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return tuple(frozenset(s) for s in nbrs)

    @property
    def m(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class VertexMapping:
    """Partial injective map between the vertices of two graphs.

    Stored as ``(u, v)`` pairs meaning the first graph's ``u`` corresponds to
    the second graph's ``v``.
    """

    pairs: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class GraphStats:
    """Structural facts about one graph.

    ``girth`` is ``None`` for acyclic graphs; an explicit sentinel is used
    instead of a large magic number.  ``components`` counts the connected
    components (0 for the empty graph).
    """

    girth: int | None
    bipartite: bool
    c4_free: bool
    components: int


# ---------------------------------------------------------------------------
# constructors


def edgeless_graph(n: int) -> Graph:
    return Graph.from_edges(n, ())


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, itertools.combinations(range(n), 2))


# ---------------------------------------------------------------------------
# parsing and serialization


def parse_graph(text: str) -> Graph:
    """Parse an edge-list document, or DIMACS as an alternate input dialect.

    One grammar serves both: after the prefix is stripped, every meaningful
    line holds two integers ``-?[0-9]+``, first the header ``n m`` and then
    one edge per line.  Edge-list: no prefix, 0-based endpoints.  DIMACS,
    chosen when the first meaningful line starts with ``c`` or ``p``: ``c``
    comment lines, a ``p edge`` header prefix, an ``e`` edge prefix, 1-based
    endpoints.  The prefix is fixed once for the header and once for the
    edge lines.  In both, ``#`` starts a comment, and the header's ``m`` must
    equal the number of edge lines; duplicate edge lines count there but
    collapse to one edge.  A header above :data:`MAX_VERTICES` vertices
    raises :class:`SizeBoundError` before anything is built.
    """
    dimacs: bool | None = None
    header: tuple[int, int, int] | None = None  # n, m and the header's line number
    edge_lines = 0
    edges: set[tuple[int, int]] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if dimacs is None:
            dimacs = tokens[0] in ("c", "p")
            lead = ["p", "edge"] if dimacs else []  # the tokens before the two integers
        if dimacs and tokens[0] == "c":
            continue
        if len(tokens) < 2 or tokens[:-2] != lead:
            prefix = " ".join(lead + [""])
            if header is not None:
                raise GraphParseError(line_no, f"expected edge line '{prefix}u v'")
            kind = "DIMACS header" if dimacs else "header"
            raise GraphParseError(line_no, f"expected {kind} '{prefix}n m'")
        if not (_INTEGER.fullmatch(tokens[-2]) and _INTEGER.fullmatch(tokens[-1])):
            what = "header counts" if header is None else "endpoints"
            raise GraphParseError(line_no, f"{what} must be integers")
        a, b = int(tokens[-2]), int(tokens[-1])
        if header is None:
            if min(a, b) < 0:
                what = "vertex" if a < 0 else "edge"
                raise GraphParseError(line_no, f"{what} count must be non-negative")
            if a > MAX_VERTICES:
                raise SizeBoundError(f"line {line_no}: header declares {a} vertices")
            header, lead = (a, b, line_no), ["e"] if dimacs else []
            continue
        if a == b:
            raise GraphParseError(line_no, f"self-loop at vertex {a}")
        u, v = (a - dimacs, b - dimacs) if a < b else (b - dimacs, a - dimacs)  # DIMACS ids start at 1
        if u < 0 or v >= header[0]:
            span = f"[1, {header[0]}]" if dimacs else f"[0, {header[0]})"
            raise GraphParseError(line_no, f"endpoint out of range {span}")
        edges.add((u, v))
        edge_lines += 1
    if header is None:
        raise GraphParseError(1, "empty document")
    n, m, line_no = header
    if edge_lines != m:
        raise GraphParseError(line_no, f"header declares {m} edges, found {edge_lines} edge lines")
    return Graph(n, frozenset(edges))


def serialize_graph(g: Graph) -> str:
    """Render a graph in edge-list format."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# operations


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Subgraph induced by ``vertices``, renumbered in increasing id order."""
    order = sorted(set(vertices))
    for v in order:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} is not in the graph")
    index = {v: i for i, v in enumerate(order)}
    edges = [(index[u], index[v]) for u, v in g.edges if u in index and v in index]
    return Graph.from_edges(len(order), edges)


def is_induced_isomorphism(g1: Graph, g2: Graph, mapping: VertexMapping) -> bool:
    """Check that ``mapping`` preserves adjacency *and* non-adjacency.

    This is the trusted arbiter: every solver witness goes through here.
    Raises :class:`MappingError` when the mapping is not injective or maps
    outside the two vertex sets.  One pass over the edges at the mapped
    vertices: each mapped vertex's mapped neighbours must go exactly onto
    its image's neighbours among the images.
    """
    image = dict(mapping.pairs)
    targets = set(image.values())
    if len(image) != len(mapping.pairs) or len(targets) != len(image):
        raise MappingError("mapping is not injective")
    if image and (min(image) < 0 or max(image) >= g1.n or min(targets) < 0 or max(targets) >= g2.n):
        raise MappingError("mapping endpoint outside the vertex sets")
    adj1, adj2 = g1.adj, g2.adj
    return all({image[w] for w in adj1[u] if w in image} == adj2[v] & targets for u, v in image.items())


def add_universal_vertex(g: Graph) -> Graph:
    """Add one vertex, numbered ``g.n``, adjacent to every other."""
    return Graph(g.n + 1, g.edges | {(v, g.n) for v in range(g.n)})


def _levels(
    g: Graph, start: int, inside: Container[int] | None = None, depth: int | None = None
) -> dict[int, int]:
    """Breadth-first distances from ``start``, through ``inside`` only when it
    is given and at most ``depth`` deep when that is given."""
    dist = {start: 0}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        d = dist[v] + 1
        if depth is not None and d > depth:
            break
        for w in g.adj[v]:
            if w not in dist and (inside is None or w in inside):
                dist[w] = d
                queue.append(w)
    return dist


def connected_components(g: Graph) -> list[frozenset[int]]:
    """Partition of the vertex set into maximal connected sets."""
    components: list[frozenset[int]] = []
    seen: set[int] = set()
    for start in range(g.n):
        if start not in seen:
            components.append(frozenset(_levels(g, start)))
            seen |= components[-1]
    return components


def induces_connected(g: Graph, vertices: Iterable[int]) -> bool:
    """True iff ``vertices`` induce a connected subgraph (empty set counts)."""
    vs = set(vertices)
    return len(vs) <= 1 or len(_levels(g, min(vs), inside=vs)) == len(vs)


def induces_forest(g: Graph, vertices: Iterable[int]) -> bool:
    """True iff ``vertices`` induce an acyclic subgraph (the empty set counts)."""
    vs = set(vertices)
    # a graph has at least |V| - |E| components, and exactly that many iff it is a forest
    trees = len(vs) - sum(len(g.adj[v] & vs) for v in vs) // 2
    seen: set[int] = set()
    for v in vs:
        if v not in seen:
            trees -= 1
            if trees < 0:
                return False
            seen.update(_levels(g, v, inside=vs))
    return True


def graph_stats(g: Graph) -> GraphStats:
    """Girth, bipartiteness, C4-freeness and the component count in one shot.

    An edge whose ends share a neighbour closes a triangle: girth 3, and not
    bipartite.  There is a 4-cycle iff some root u reaches some x > u along
    two paths of length 2 (opposite corners); the scan stops at the first
    root that does.  The first root of each component is searched in full:
    the graph is bipartite iff no edge lies inside a level there, and a
    component with one edge fewer than vertices is a tree, whose other roots
    are skipped.  In a search an edge inside level d closes a cycle of at
    most 2d + 1 vertices, a vertex at level d with two neighbours at level
    d - 1 one of at most 2d, and a root on a shortest cycle sees its length.
    Later roots are searched only when neither a triangle nor a 4-cycle
    settles the girth.  Every cycle lies among the vertices no smaller than
    its smallest vertex, which has two larger neighbours on it; so a later
    root is searched only among larger vertices, only if two of its
    neighbours are larger, and once a cycle of length c is known only to
    depth c // 2.
    """
    adj, c4_free = g.adj, True
    tree: dict[int, bool] = {}  # per vertex reached so far: is its component a tree
    full: list[dict[int, int]] = []  # the search from each component's first root
    later: list[int] = []  # the other roots that may be a cycle's smallest vertex
    for root in range(g.n):
        first = root not in tree
        # once a 4-cycle is found, later roots have nothing left to tell
        if tree.get(root) or not first and (not c4_free or sum(w > root for w in adj[root]) < 2):
            continue
        if c4_free:
            ends = [x for w in adj[root] for x in adj[w] if x > root]
            c4_free = len(set(ends)) == len(ends)
        if not first:
            later.append(root)
            continue
        full.append(_levels(g, root))
        acyclic = sum(len(adj[v]) for v in full[-1]) == 2 * (len(full[-1]) - 1)  # m = n - 1
        tree.update(dict.fromkeys(full[-1], acyclic))
    triangle = not all(tree.values()) and any(not adj[u].isdisjoint(adj[v]) for u, v in g.edges)
    bipartite = not triangle  # a triangle is an odd cycle, and a forest has none
    girth = 3 if triangle else g.n + 1 if c4_free else 4  # n + 1 is longer than any cycle
    # drawn lazily, so each later search is bounded by the shortest cycle found before it
    rest = (_levels(g, r, range(r, g.n), girth // 2) for r in later if girth > 4)
    for levels in () if triangle else itertools.chain(full, rest):
        for v, d in levels.items():
            parents = 0
            for w in adj[v]:
                e = levels.get(w)
                if e == d:
                    bipartite = False
                    girth = min(girth, 2 * d + 1)
                elif e == d - 1:
                    parents += 1
            if parents >= 2:
                girth = min(girth, 2 * d)
    return GraphStats(girth if girth <= g.n else None, bipartite, c4_free, len(full))


def triangles(g: Graph) -> Iterator[tuple[int, int, int]]:
    """Yield every triangle of ``g`` as an ordered triple."""
    for u, v in sorted(g.edges):
        for w in sorted(g.adj[u] & g.adj[v]):
            if w > v:
                yield (u, v, w)
