"""Simple undirected graphs and the structural predicates everything else uses.

Vertices are dense integers ``0..n-1``.  Graphs are immutable after
construction, so they can be shared freely between workers; every operation
here is a pure function returning a fresh graph or a plain value.

The induced-isomorphism checker in this module is the trusted arbiter of the
whole package: solver output is only reported after it passes
:func:`is_induced_isomorphism`.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator


class GraphParseError(ValueError):
    """A graph document (edge-list or DIMACS) could not be parsed."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class MappingError(ValueError):
    """A vertex mapping violates its contract (not injective, out of range)."""


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices ``0..n-1``.

    ``edges`` stores each edge exactly once as an ordered pair ``(u, v)``
    with ``u < v``.  ``labels`` optionally attaches an opaque role string to
    each vertex; the gadget builders use this to keep their constructions
    inspectable ("p", "q", "r", "e_1_2", ...).
    """

    n: int
    edges: frozenset[tuple[int, int]]
    labels: tuple[str | None, ...] | None = None

    def __post_init__(self):
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not 0 <= u < v < self.n:
                raise ValueError(f"edge ({u}, {v}) out of range for n={self.n}")
        if self.labels is not None and len(self.labels) != self.n:
            raise ValueError("labels must have exactly one entry per vertex")

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int]],
        labels: Iterable[str | None] | None = None,
    ) -> "Graph":
        """Build a graph, normalizing edge orientation and dropping duplicates."""
        norm = frozenset((min(u, v), max(u, v)) for u, v in edges)
        return cls(n, norm, tuple(labels) if labels is not None else None)

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

    def vertices(self) -> range:
        return range(self.n)

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def label(self, v: int) -> str | None:
        return self.labels[v] if self.labels is not None else None


@dataclass(frozen=True)
class VertexMapping:
    """Partial injective map between the vertices of two graphs.

    Stored as ``(u, v)`` pairs meaning the first graph's ``u`` corresponds to
    the second graph's ``v``.
    """

    pairs: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.pairs)

    def as_dict(self) -> dict[int, int]:
        return dict(self.pairs)

    def inverse(self) -> "VertexMapping":
        return VertexMapping(tuple(sorted((v, u) for u, v in self.pairs)))

    @classmethod
    def identity(cls, n: int) -> "VertexMapping":
        return cls(tuple((v, v) for v in range(n)))


@dataclass(frozen=True)
class GraphStats:
    """Structural facts about one graph.

    ``girth`` is ``None`` for acyclic graphs; an explicit sentinel is used
    instead of a large magic number.
    """

    girth: int | None
    bipartite: bool
    c4_free: bool
    connected: bool


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

    Edge-list: first meaningful line ``n m``, then ``u v`` lines with 0-based
    endpoints; ``#`` starts a comment line.  DIMACS: ``c`` comments,
    ``p edge n m`` header, ``e u v`` lines with 1-based endpoints.  The
    header's ``m`` must equal the number of edge lines; duplicate edge lines
    count there but collapse to one edge.
    """
    header: tuple[int, int] | None = None
    header_line = 0
    dimacs = False
    n = 0
    edge_lines = 0
    edges: set[tuple[int, int]] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if header is None:
            if tokens[0] in ("c", "p"):
                dimacs = True
            if dimacs:
                if tokens[0] == "c":
                    continue
                if tokens[0] != "p" or len(tokens) != 4 or tokens[1] != "edge":
                    raise GraphParseError(line_no, "expected DIMACS header 'p edge n m'")
                count_tokens = tokens[2:]
            else:
                if len(tokens) != 2:
                    raise GraphParseError(line_no, "expected header 'n m'")
                count_tokens = tokens
            try:
                n, m = (int(t) for t in count_tokens)
            except ValueError:
                raise GraphParseError(line_no, "header counts must be integers") from None
            if n < 0:
                raise GraphParseError(line_no, "vertex count must be non-negative")
            header = (n, m)
            header_line = line_no
            continue
        if dimacs:
            if tokens[0] == "c":
                continue
            if tokens[0] != "e" or len(tokens) != 3:
                raise GraphParseError(line_no, "expected edge line 'e u v'")
            endpoint_tokens = tokens[1:]
            offset = 1
        else:
            if len(tokens) != 2:
                raise GraphParseError(line_no, "expected edge line 'u v'")
            endpoint_tokens = tokens
            offset = 0
        try:
            u, v = (int(t) - offset for t in endpoint_tokens)
        except ValueError:
            raise GraphParseError(line_no, "endpoints must be integers") from None
        if u == v:
            raise GraphParseError(line_no, f"self-loop at vertex {u + offset}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(line_no, f"endpoint out of range [0, {n})")
        edges.add((min(u, v), max(u, v)))
        edge_lines += 1
    if header is None:
        raise GraphParseError(1, "empty document")
    if edge_lines != header[1]:
        raise GraphParseError(
            header_line, f"header declares {header[1]} edges, found {edge_lines} edge lines"
        )
    return Graph(n, frozenset(edges))


def serialize_graph(g: Graph) -> str:
    """Render a graph in edge-list format (labels are not serialized)."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# operations


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Subgraph induced by ``vertices``; original ids are kept as labels."""
    order = sorted(set(vertices))
    for v in order:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} is not in the graph")
    index = {v: i for i, v in enumerate(order)}
    edges = [(index[u], index[v]) for u, v in g.edges if u in index and v in index]
    labels = tuple(g.label(v) if g.label(v) is not None else str(v) for v in order)
    return Graph.from_edges(len(order), edges, labels)


def is_induced_isomorphism(g1: Graph, g2: Graph, mapping: VertexMapping) -> bool:
    """Check that ``mapping`` preserves adjacency *and* non-adjacency.

    This is the trusted arbiter: every solver witness goes through here.
    Raises :class:`MappingError` when the mapping is not injective or maps
    outside the two vertex sets.
    """
    us = [u for u, _ in mapping.pairs]
    vs = [v for _, v in mapping.pairs]
    if len(set(us)) != len(us) or len(set(vs)) != len(vs):
        raise MappingError("mapping is not injective")
    if any(not 0 <= u < g1.n for u in us) or any(not 0 <= v < g2.n for v in vs):
        raise MappingError("mapping endpoint outside the vertex sets")
    adj1, adj2 = g1.adj, g2.adj
    for (u, v), (u2, v2) in itertools.combinations(mapping.pairs, 2):
        if (u2 in adj1[u]) != (v2 in adj2[v]):
            return False
    return True


def add_universal_vertex(g: Graph) -> Graph:
    """Add one vertex adjacent to everything; it gets the label "universal"."""
    edges = set(g.edges) | {(v, g.n) for v in range(g.n)}
    base = g.labels if g.labels is not None else (None,) * g.n
    return Graph.from_edges(g.n + 1, edges, base + ("universal",))


def connected_components(g: Graph) -> list[frozenset[int]]:
    """Partition of the vertex set into maximal connected sets."""
    seen = [False] * g.n
    components: list[frozenset[int]] = []
    for start in range(g.n):
        if seen[start]:
            continue
        queue = deque([start])
        seen[start] = True
        comp = {start}
        while queue:
            v = queue.popleft()
            for w in g.adj[v]:
                if not seen[w]:
                    seen[w] = True
                    comp.add(w)
                    queue.append(w)
        components.append(frozenset(comp))
    return components


def induces_connected(g: Graph, vertices: Iterable[int]) -> bool:
    """True iff ``vertices`` induce a connected subgraph (empty set counts)."""
    vs = set(vertices)
    if len(vs) <= 1:
        return True
    start = min(vs)
    queue = deque([start])
    seen = {start}
    while queue:
        v = queue.popleft()
        for w in g.adj[v]:
            if w in vs and w not in seen:
                seen.add(w)
                queue.append(w)
    return seen == vs


def _girth(g: Graph) -> int | None:
    # Shortest cycle through each edge: drop the edge, measure the u-v distance.
    best: int | None = None
    for u, v in g.edges:
        dist = {u: 0}
        queue = deque([u])
        while queue:
            x = queue.popleft()
            if x == v:
                break
            for y in g.adj[x]:
                if (x, y) in ((u, v), (v, u)):
                    continue
                if y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        if v in dist:
            cycle = dist[v] + 1
            if best is None or cycle < best:
                best = cycle
    return best


def _is_bipartite(g: Graph) -> bool:
    color: dict[int, int] = {}
    for start in range(g.n):
        if start in color:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in g.adj[v]:
                if w not in color:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    return False
    return True


def graph_stats(g: Graph) -> GraphStats:
    """Girth, bipartiteness, C4-freeness and connectivity in one shot."""
    c4_free = not any(
        len(g.adj[u] & g.adj[v]) >= 2 for u, v in itertools.combinations(range(g.n), 2)
    )
    return GraphStats(
        girth=_girth(g),
        bipartite=_is_bipartite(g),
        c4_free=c4_free,
        connected=len(connected_components(g)) <= 1,
    )


def triangles(g: Graph) -> Iterator[tuple[int, int, int]]:
    """Yield every triangle of ``g`` as an ordered triple."""
    for u, v in sorted(g.edges):
        for w in sorted(g.adj[u] & g.adj[v]):
            if w > v:
                yield (u, v, w)
