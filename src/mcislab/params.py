"""Structural parameters: minimum vertex cover, minimum feedback vertex set
and twin classes.

One exact search returns a minimum cover within a budget, or None.  The
minimum cover is the union of its covers, one search per connected component,
within an optional budget over the whole graph; the cover number is its size.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import AbstractSet, Mapping

from .graphs import Graph, connected_components, induces_forest


@dataclass(frozen=True)
class TwinClass:
    """Independent-set vertices sharing one exact neighborhood in the cover."""

    neighborhood: frozenset[int]
    members: tuple[int, ...]


# ---------------------------------------------------------------------------
# vertex cover


def _cover(adj: Mapping[int, AbstractSet[int]], budget: int) -> set[int] | None:
    """A minimum cover of ``adj`` if one has at most ``budget`` vertices, else None.

    Depth-first on an explicit stack: takes the neighbors of a leaf, else of a
    triangle's degree-2 corner, from a worklist of the vertices whose degree
    fell (some minimum cover holds them all), then branches on a vertex of
    maximum degree against its smallest neighbor.  ``adj`` is not modified.
    """
    best, residual = None, {v: set(nbrs) for v, nbrs in adj.items() if nbrs}
    stack = [(residual, set(), list(residual))]
    while stack:
        residual, taken, work = stack.pop()
        while work and len(taken) <= budget:
            ns = residual.get(work.pop(), ())
            if len(ns) == 1 or len(ns) == 2 and max(ns) in residual[min(ns)]:
                for u in list(ns):
                    taken.add(u)
                    work += _remove(residual, u)
        if not residual and len(taken) <= budget:
            best, budget = taken, len(taken) - 1
        if len(taken) >= budget:
            continue  # no branch below can beat the budget or the best cover
        u = max(residual, key=lambda w: (len(residual[w]), -w))
        v = min(residual[u])
        other = {w: set(ns) for w, ns in residual.items()}
        stack.append((other, taken | {v}, list(_remove(other, v))))
        taken.add(u)
        stack.append((residual, taken, list(_remove(residual, u))))  # runs first
    return best


def _remove(adj: dict[int, set[int]], v: int) -> set[int]:
    nbrs = adj.pop(v, set())
    for w in nbrs:
        adj[w].discard(v)
        if not adj[w]:
            del adj[w]
    return nbrs


def vertex_cover_number(g: Graph) -> int:
    """Size of a minimum vertex cover."""
    return len(min_vertex_cover(g))


def min_vertex_cover(g: Graph, budget: int | None = None) -> frozenset[int] | None:
    """A minimum vertex cover, or None once a component's cover does not fit
    the ``budget`` the components before it left: the union of the exact
    search's covers, one per component.  The empty cover fits too, so a caller
    tests ``is None``.  Any minimum cover serves the FPT, whose parameter is
    its size; the search is deterministic."""
    left, chosen = g.n if budget is None else budget, set()
    for comp in connected_components(g):
        cover = _cover({v: g.adj[v] for v in comp}, min(len(comp), left - len(chosen)))
        if cover is None:
            return None
        chosen |= cover
    return frozenset(chosen)


# ---------------------------------------------------------------------------
# feedback vertex set


def min_feedback_vertex_set(g: Graph) -> frozenset[int]:
    """A minimum vertex set whose removal leaves a forest, by subset enumeration (desk scale only)."""
    for size in range(g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            if induces_forest(g, set(range(g.n)).difference(combo)):
                return frozenset(combo)
    raise AssertionError("removing all vertices always leaves a forest")


# ---------------------------------------------------------------------------
# twins


def twin_partition(g: Graph, cover: AbstractSet[int]) -> tuple[TwinClass, ...]:
    """Group the vertices outside ``cover`` by their exact neighborhood in it.

    Only inhabited classes are materialized.  Raises ``ValueError`` when
    ``cover`` holds a vertex outside ``range(g.n)`` or misses an edge.
    """
    for v in cover:
        if not 0 <= v < g.n:
            raise ValueError(f"cover vertex {v} out of range for n={g.n}")
    for u, v in g.edges:
        if u not in cover and v not in cover:
            raise ValueError(f"edge ({u}, {v}) is not covered")
    groups: dict[frozenset[int], list[int]] = {}
    for v in range(g.n):
        if v not in cover:
            groups.setdefault(g.adj[v], []).append(v)
    return tuple(
        TwinClass(nbhd, tuple(members))
        for nbhd, members in sorted(groups.items(), key=lambda kv: tuple(sorted(kv[0])))
    )

