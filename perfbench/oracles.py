"""Answer checks that do not come from the solvers under test.

Everything here works on the benchmark's own graph type and reads the graph
files with its own parser, so a defect in ``mcislab.graphs`` cannot hide a
wrong answer.  networkx is optional: without it the MCIS/MCCIS optimum of
small pairs is not checked (witnesses still are).
"""

from __future__ import annotations

import itertools
from collections import deque

class Graph:
    """Undirected simple graph on ``0..n-1`` as adjacency sets."""

    def __init__(self, n: int, edges):
        self.n = n
        self.adj = [set() for _ in range(n)]
        self.edges = set()
        for u, v in edges:
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"bad edge ({u}, {v}) for n={n}")
            self.adj[u].add(v)
            self.adj[v].add(u)
            self.edges.add((min(u, v), max(u, v)))

    @property
    def m(self) -> int:
        return len(self.edges)

    def to_text(self) -> str:
        lines = [f"{self.n} {self.m}"] + [f"{u} {v}" for u, v in sorted(self.edges)]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Graph":
        rows = [line.split("#", 1)[0].split() for line in text.splitlines()]
        rows = [r for r in rows if r]
        n, m = int(rows[0][0]), int(rows[0][1])
        edges = [(int(a), int(b)) for a, b in rows[1:]]
        g = cls(n, edges)
        if g.m != m:
            raise ValueError(f"header says {m} edges, file has {g.m}")
        return g


# ---------------------------------------------------------------------------
# witnesses


def witness_problems(g1: Graph, g2: Graph, pairs, size: int, connected: bool) -> list[str]:
    """Why ``pairs`` is not a common induced subgraph of ``size`` vertices
    (empty list when it is one).  Checks range, injectivity, size, adjacency,
    non-adjacency and, for MCCIS, connectivity on both sides."""
    problems = []
    try:
        pairs = [(int(u), int(v)) for u, v in pairs]
    except (TypeError, ValueError):
        return ["witness is not a list of vertex pairs"]
    if len(pairs) != size:
        problems.append(f"witness has {len(pairs)} pairs, reported size {size}")
    us = [u for u, _ in pairs]
    vs = [v for _, v in pairs]
    if any(not 0 <= u < g1.n for u in us) or any(not 0 <= v < g2.n for v in vs):
        return problems + ["witness vertex out of range"]
    if len(set(us)) != len(us) or len(set(vs)) != len(vs):
        return problems + ["witness is not injective"]
    for (u, v), (x, y) in itertools.combinations(pairs, 2):
        if (x in g1.adj[u]) != (y in g2.adj[v]):
            kind = "adjacency" if x in g1.adj[u] else "non-adjacency"
            problems.append(f"{kind} of ({u},{x}) not preserved by ({v},{y})")
            break
    if connected and not (is_connected(g1, us) and is_connected(g2, vs)):
        problems.append("witness does not induce a connected subgraph")
    return problems


def is_connected(g: Graph, vertices) -> bool:
    vs = set(vertices)
    if len(vs) <= 1:
        return True
    start = next(iter(vs))
    seen = {start}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for y in g.adj[x]:
            if y in vs and y not in seen:
                seen.add(y)
                queue.append(y)
    return seen == vs


# ---------------------------------------------------------------------------
# source problems of the gadgets


def has_clique(g: Graph, k: int) -> bool:
    """Clique search by growing candidate sets in increasing vertex order."""

    def grow(size: int, cands: list[int]) -> bool:
        if size == k:
            return True
        for i, v in enumerate(cands):
            if size + len(cands) - i < k:
                return False
            if grow(size + 1, [w for w in cands[i + 1:] if w in g.adj[v]]):
                return True
        return False

    return grow(0, list(range(g.n)))


def three_partition_solvable(items, groups: int, target: int) -> bool:
    """Can ``items`` be split into ``groups`` triples that each sum to ``target``?"""
    if len(items) != 3 * groups or sum(items) != groups * target:
        return False

    def split(rest: tuple[int, ...]) -> bool:
        if not rest:
            return True
        first, tail = rest[0], rest[1:]
        for i, j in itertools.combinations(range(len(tail)), 2):
            if first + tail[i] + tail[j] == target:
                if split(tuple(x for k, x in enumerate(tail) if k not in (i, j))):
                    return True
        return False

    return split(tuple(sorted(items, reverse=True)))


# ---------------------------------------------------------------------------
# structural facts reported by ``analyze``


def components(g: Graph) -> int:
    seen = [False] * g.n
    count = 0
    for s in range(g.n):
        if seen[s]:
            continue
        count += 1
        seen[s] = True
        queue = deque([s])
        while queue:
            x = queue.popleft()
            for y in g.adj[x]:
                if not seen[y]:
                    seen[y] = True
                    queue.append(y)
    return count


def girth(g: Graph) -> int | None:
    """Shortest cycle length: BFS from every vertex, close on non-tree edges."""
    best = None
    for s in range(g.n):
        dist = {s: 0}
        parent = {s: -1}
        queue = deque([s])
        while queue:
            x = queue.popleft()
            for y in g.adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    parent[y] = x
                    queue.append(y)
                elif parent[x] != y and parent[y] != x:
                    cycle = dist[x] + dist[y] + 1
                    if best is None or cycle < best:
                        best = cycle
    return best


def bipartite(g: Graph) -> bool:
    color: dict[int, int] = {}
    for s in range(g.n):
        if s in color:
            continue
        color[s] = 0
        queue = deque([s])
        while queue:
            x = queue.popleft()
            for y in g.adj[x]:
                if y not in color:
                    color[y] = 1 - color[x]
                    queue.append(y)
                elif color[y] == color[x]:
                    return False
    return True


def c4_free(g: Graph) -> bool:
    return all(len(g.adj[u] & g.adj[v]) < 2 for u, v in itertools.combinations(range(g.n), 2))


def vertex_cover_size(g: Graph) -> int:
    """n minus a maximum independent set, by branching on bitmasks.

    Components are solved separately, a vertex of degree at most one is
    always taken into the independent set, otherwise the search branches on
    a vertex of maximum degree.  Results are memoised per vertex set.
    """
    nbr = [sum(1 << w for w in g.adj[v]) for v in range(g.n)]
    memo: dict[int, int] = {}

    def mis(cand: int) -> int:
        if cand == 0:
            return 0
        if cand in memo:
            return memo[cand]
        # split off the component of the lowest vertex
        low = cand & -cand
        comp, frontier = low, low
        while frontier:
            v = frontier.bit_length() - 1
            frontier &= ~(1 << v)
            new = nbr[v] & cand & ~comp
            comp |= new
            frontier |= new
        if comp != cand:
            result = mis(comp) + mis(cand & ~comp)
        else:
            best_v, best_d = -1, -1
            result = None
            rest = cand
            while rest:
                v = rest.bit_length() - 1
                rest &= ~(1 << v)
                d = bin(nbr[v] & cand).count("1")
                if d <= 1:
                    result = 1 + mis(cand & ~(1 << v) & ~nbr[v])
                    break
                if d > best_d:
                    best_v, best_d = v, d
            if result is None:
                v = best_v
                result = max(
                    mis(cand & ~(1 << v)),
                    1 + mis(cand & ~(1 << v) & ~nbr[v]),
                )
        memo[cand] = result
        return result

    return g.n - mis((1 << g.n) - 1)


# ``analyze`` reports the FVS size up to its default oracle bound, else null
FVS_BOUND = 10


def fvs_size(g: Graph) -> int:
    """Fewest vertices whose removal leaves a forest, that is a graph with
    as many edges as vertices minus components (subset search, n <= 10)."""
    for size in range(g.n + 1):
        for removed in itertools.combinations(range(g.n), size):
            keep = {v: i for i, v in enumerate(v for v in range(g.n) if v not in removed)}
            rest = Graph(len(keep), [(keep[u], keep[v]) for u, v in g.edges if u in keep and v in keep])
            if rest.m == rest.n - components(rest):
                return size
    raise AssertionError("removing every vertex leaves a forest")


def analyze_facts(g: Graph) -> dict:
    """The fields of ``analyze --json``."""
    cycle = girth(g)
    count = components(g)
    return {
        "n": g.n,
        "m": g.m,
        "connected": count <= 1,
        "components": count,
        "girth": cycle if cycle is not None else "acyclic",
        "bipartite": bipartite(g),
        "c4_free": c4_free(g),
        "vertex_cover_size": vertex_cover_size(g),
        "fvs_size": fvs_size(g) if g.n <= FVS_BOUND else None,
    }


# ---------------------------------------------------------------------------
# optimum of small MCIS / MCCIS pairs (networkx)


def _networkx():
    """networkx, or None when it is not installed (a bench-only dependency)."""
    try:
        import networkx
    except ImportError:
        return None
    return networkx


def _nx(nx, g: Graph):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def mcis_size(g1: Graph, g2: Graph) -> int | None:
    """Maximum common induced subgraph size by ISMAGS, None without networkx."""
    nx = _networkx()
    if nx is None:
        return None
    if g1.n == 0 or g2.n == 0:
        return 0
    ismags = nx.algorithms.isomorphism.ISMAGS(_nx(nx, g2), _nx(nx, g1))
    best = next(iter(ismags.largest_common_subgraph()), {})
    return len(best)


def connected_common_above(g1: Graph, g2: Graph, low: int, high: int) -> int | None:
    """Largest t in (low, high] such that some connected induced subgraph of
    g1 on t vertices embeds induced in g2 (VF2); None when there is none or
    networkx is absent."""
    nx = _networkx()
    if nx is None:
        return None
    h1, h2 = _nx(nx, g1), _nx(nx, g2)
    matcher = nx.algorithms.isomorphism.GraphMatcher
    for t in range(high, low, -1):
        for subset in itertools.combinations(range(g1.n), t):
            if not is_connected(g1, subset):
                continue
            if matcher(h2, h1.subgraph(subset)).subgraph_is_isomorphic():
                return t
    return None
