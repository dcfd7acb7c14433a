"""Structural parameters: minimum vertex cover, minimum feedback vertex set
and twin classes.

One budgeted exact search (leaf and triangle reductions, then branching)
gives both the vertex cover number and the lexicographically smallest minimum
cover, the tie-break that keeps repeated runs reproducible: with budget n it
returns the cover number, with a smaller budget whether the cover fits it,
and with the budget left whether a vertex still fits.  Both run it once per
connected component, since components are covered independently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import AbstractSet, Mapping

from .graphs import Graph, connected_components, induces_forest


@dataclass(frozen=True)
class CoverSplit:
    """A vertex cover together with the complementary independent set."""

    cover: frozenset[int]
    independent: frozenset[int]


@dataclass(frozen=True)
class TwinClass:
    """Independent-set vertices sharing one exact neighborhood in the cover."""

    neighborhood: frozenset[int]
    members: tuple[int, ...]


@dataclass(frozen=True)
class TwinPartition:
    classes: tuple[TwinClass, ...]


@dataclass(frozen=True)
class FvsResult:
    """A minimum-cardinality vertex set whose removal leaves a forest."""

    vertices: frozenset[int]
    size: int


# ---------------------------------------------------------------------------
# vertex cover


def _cover_size(adj: Mapping[int, AbstractSet[int]], budget: int) -> int:
    """Minimum cover size of ``adj`` if it is at most ``budget``, else budget + 1.

    Takes the neighbors of a leaf, else of a triangle's degree-2 corner,
    while there is one (some minimum cover holds them all), then branches on a
    vertex of maximum degree against its smallest neighbor and stops a
    branch once it cannot fit the budget.  ``adj`` is not modified.
    """
    adj = {v: set(nbrs) for v, nbrs in adj.items() if nbrs}
    taken = 0
    while taken <= budget:
        ns = next((s for s in adj.values() if len(s) == 1), None) or next(
            (s for s in adj.values() if len(s) == 2 and max(s) in adj[min(s)]), None)
        if ns is None:
            break
        taken += len(ns)
        for u in list(ns):
            _remove(adj, u)
    if not adj:
        return min(taken, budget + 1)
    if taken >= budget:
        return budget + 1
    u = max(adj, key=lambda v: (len(adj[v]), -v))
    v = min(adj[u])
    rest = budget - taken - 1
    best = _cover_size({w: ns - {u} for w, ns in adj.items() if w != u}, rest)
    _remove(adj, v)
    # the second branch only matters if it beats the first
    return taken + 1 + min(best, _cover_size(adj, best - 1))


def _remove(adj: dict[int, set[int]], v: int) -> None:
    for w in adj.pop(v, ()):
        adj[w].discard(v)
        if not adj[w]:
            del adj[w]


def vertex_cover_number(g: Graph, budget: int | None = None) -> int:
    """Size of a minimum vertex cover: the sum over the connected components,
    which are covered independently.  With a ``budget``, budget + 1 as soon
    as the sum exceeds it."""
    cap, total = g.n if budget is None else budget, 0
    for comp in connected_components(g):
        total += _cover_size({v: g.adj[v] for v in comp}, cap - total)
        if total > cap:
            break  # by exactly one: the search stopped at the budget left
    return total


def min_vertex_cover(g: Graph) -> CoverSplit:
    """Lexicographically smallest minimum vertex cover and its complement.

    Per connected component, with that component's cover size as its budget:
    forces each vertex in increasing order while the residual component still
    has a cover within the budget left; a vertex that does not fit is banned,
    which forces its remaining neighbors.
    """
    chosen: set[int] = set()
    for comp in connected_components(g):
        residual = {v: set(g.adj[v]) for v in comp if g.adj[v]}
        k = len(chosen) + _cover_size(residual, len(comp))
        for v in sorted(comp):
            if v not in residual:
                # already chosen, or isolated: forcing it would waste budget
                continue
            budget = k - len(chosen) - 1
            if _cover_size({w: ns - {v} for w, ns in residual.items() if w != v}, budget) <= budget:
                _remove(residual, v)
                chosen.add(v)
            else:
                chosen |= residual[v]
                for w in list(residual[v]):
                    _remove(residual, w)
    return CoverSplit(frozenset(chosen), frozenset(range(g.n)) - frozenset(chosen))


# ---------------------------------------------------------------------------
# feedback vertex set


def min_feedback_vertex_set(g: Graph) -> FvsResult:
    """Exact FVS by subset enumeration in increasing size (desk scale only)."""
    for size in range(g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            if induces_forest(g, set(range(g.n)).difference(combo)):
                return FvsResult(frozenset(combo), size)
    raise AssertionError("removing all vertices always leaves a forest")


# ---------------------------------------------------------------------------
# twins


def twin_partition(g: Graph, split: CoverSplit) -> TwinPartition:
    """Group independent-set vertices by their exact neighborhood in the cover.

    Only inhabited classes are materialized.  Raises ``ValueError`` when
    ``split`` is not a valid cover split of ``g``.
    """
    if split.cover | split.independent != frozenset(range(g.n)) or (
        split.cover & split.independent
    ):
        raise ValueError("cover and independent set must partition the vertices")
    for u, v in g.edges:
        if u not in split.cover and v not in split.cover:
            raise ValueError(f"edge ({u}, {v}) is not covered")
    groups: dict[frozenset[int], list[int]] = {}
    for v in sorted(split.independent):
        groups.setdefault(g.adj[v], []).append(v)
    classes = tuple(
        TwinClass(nbhd, tuple(members))
        for nbhd, members in sorted(groups.items(), key=lambda kv: tuple(sorted(kv[0])))
    )
    return TwinPartition(classes)

