"""Hardness-reduction gadget builders.

Each builder returns a :class:`ReductionOutput`: the constructed instance,
its vertices' roles and machine-checkable certificates (vertex-cover set,
size formulas, structural facts).  :func:`verify_reduction` re-derives the
certificates its docstring names from the built graphs and roles, and
compares the reduced instance's answer with the source's, by
:func:`~mcislab.solvers.isi_backtracking` for the three ISI gadgets and by
brute-force MCCIS for the universal lift, so each can be audited at desk scale.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .graphs import (
    MAX_VERTICES,
    Graph,
    SizeBoundError,
    add_universal_vertex,
    complete_graph,
    graph_stats,
    induced_subgraph,
    induces_forest,
    parse_graph,
    serialize_graph,
    triangles,
)
from .params import min_feedback_vertex_set
from .solvers import SolveQuery, depth_first, isi_backtracking, mcis_bruteforce


class EquivalenceClassError(ValueError):
    """Cross-composition inputs do not share one equivalence class."""


class SoundnessError(ValueError):
    """An input violates a precondition the equivalence proof relies on."""


@dataclass(frozen=True)
class CliqueInstance:
    """Does ``graph`` contain a clique on ``l`` vertices?"""

    graph: Graph
    l: int

    def __post_init__(self):
        if not 1 <= self.l <= self.graph.n:
            raise ValueError("clique size must be between 1 and the vertex count")


@dataclass(frozen=True)
class ThreePartitionInstance:
    """Partition ``3m`` positive integers into ``m`` triples summing to ``B``."""

    items: tuple[int, ...]
    m: int
    B: int

    def __post_init__(self):
        if len(self.items) != 3 * self.m:
            raise ValueError("need exactly 3m items")
        if any(a <= 0 for a in self.items):
            raise ValueError("items must be positive")
        if sum(self.items) != self.m * self.B:
            raise ValueError("items must sum to m*B")

    def satisfies_strict_range(self) -> bool:
        return all(4 * a > self.B and 2 * a < self.B for a in self.items)


@dataclass(frozen=True)
class ReductionOutput:
    """A produced instance plus everything needed to audit it.

    ``roles`` names each vertex's part in the gadget, one list per side, as
    the manifest stores it: ``{"g1": ["p", "q", ...], "g2": [...]}``.
    """

    kind: str
    g1: Graph
    g2: Graph
    target: int
    certificates: dict
    roles: dict


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ReductionReport:
    checks: tuple[CheckOutcome, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckOutcome]:
        return [c for c in self.checks if not c.passed]


# ---------------------------------------------------------------------------
# shared pieces


def _named(roles: list[str], edges: Iterable[tuple[str, str]]) -> tuple[Graph, list[str]]:
    """Graph on ``roles``, numbered in role order, with edges as role pairs; and its roles."""
    index = {name: i for i, name in enumerate(roles)}
    return Graph.from_edges(len(roles), ((index[a], index[b]) for a, b in edges)), roles


def _incidence(g: Graph) -> tuple[Graph, list[str]]:
    """The incidence graph of ``g`` and its roles, ``v_i`` then ``e_u_v`` (1-based)."""
    ends = {f"e_{u + 1}_{v + 1}": (u, v) for u, v in sorted(g.edges)}
    edges = [(f"v_{x + 1}", e) for e, pair in ends.items() for x in pair]
    return _named([f"v_{i + 1}" for i in range(g.n)] + list(ends), edges)


def incidence_graph(g: Graph) -> Graph:
    """Bipartite incidence graph: the vertex nodes, then one node per edge next to its ends."""
    return _incidence(g)[0]


def has_clique(g: Graph, l: int) -> bool:
    """Exhaustive clique search (the source-problem oracle for verification)."""
    if l <= 1:
        return g.n >= l
    for combo in itertools.combinations(range(g.n), l):
        if all(v in g.adj[u] for u, v in itertools.combinations(combo, 2)):
            return True
    return False


def three_partition_exists(inst: ThreePartitionInstance) -> bool:
    """Exhaustive grouping into triples (the 3-Partition oracle): one triple per
    level of :func:`~mcislab.solvers.depth_first`, the first item left with two
    of the others, so a grouping is a node ``m`` levels down with no item left."""

    def triples(_: int, remaining: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        first, rest = remaining[0], remaining[1:]
        for i, j in itertools.combinations(range(len(rest)), 2):
            if inst.items[first] + inst.items[rest[i]] + inst.items[rest[j]] == inst.B:
                yield tuple(x for x in rest if x not in (rest[i], rest[j]))

    return next(depth_first(tuple(range(3 * inst.m)), triples, inst.m), None) is not None


def _roles(out: ReductionOutput, side: str) -> list[str | None]:
    """``out``'s roles on ``side``; a ValueError unless there is one per vertex."""
    roles = out.roles.get(side)
    if roles is None or len(roles) != getattr(out, side).n:
        raise ValueError(f"{side} has no role per vertex")
    return roles


# ---------------------------------------------------------------------------
# builders


def clique_to_incidence_isi(g: Graph, k: int) -> ReductionOutput:
    """Clique -> ISI on C4-free bipartite incidence graphs.

    The pattern is the incidence graph of the complete graph on ``k``
    vertices, the host is the incidence graph of ``g``; the target size is
    ``k + k(k-1)/2``.
    """
    if k < 3:
        raise ValueError("k must be at least 3 (k <= 2 is trivial and excluded)")
    target = k + k * (k - 1) // 2
    size = max(target, g.n + g.m)
    if size > MAX_VERTICES:
        raise SizeBoundError(f"the gadget would have {size} vertices")
    g1, roles1 = _incidence(complete_graph(k))
    g2, roles2 = _incidence(g)
    certificates = {
        "k": k,
        "target_formula": "k + k*(k-1)/2",
        "bipartite": True,
        "c4_free": True,
        "edge_vertex_degree": 2,
        "host_size": g.n + g.m,
    }
    return ReductionOutput("clique-incidence", g1, g2, target, certificates, dict(g1=roles1, g2=roles2))


def cross_compose(instances: list[CliqueInstance]) -> ReductionOutput:
    """OR-composition of many same-shape Clique instances into one ISI instance.

    All instances must agree on vertex count and clique size; heterogeneous
    batches violate the equivalence relation and are rejected.  The composed
    host has one selector vertex per instance hanging off an anchor triangle,
    a layer of nodes for all possible edges, and a layer of nodes for the
    shared vertex set; the pattern encodes a clique of the sought size.  The
    certificates are the sizes ``n``, ``l``, ``t`` and ``l_prime`` (the
    target), the explicit vertex cover Z of the host with its size
    ``n(n-1)/2 + 2``, the unique triangle and the bipartite host minus p.
    Z is the parameter bound the composition needs: polynomial in n, free of
    t.  No cover is searched, so the build is linear in what it writes.
    """
    if not instances:
        raise EquivalenceClassError("need at least one instance")
    n = instances[0].graph.n
    l = instances[0].l
    if any(inst.graph.n != n or inst.l != l for inst in instances):
        raise EquivalenceClassError(
            "all instances must share the same vertex count and clique size"
        )
    t = len(instances)
    size = max(3 + t + n * (n - 1) // 2 + n, 4 + l * (l - 1) // 2 + l)
    if size > MAX_VERTICES:
        raise SizeBoundError(f"the gadget would have {size} vertices")

    # host: p q r | a_1..a_t | e_u_v for all pairs | v_1..v_n
    vnames = [f"v_{i + 1}" for i in range(n)]
    enames = {(u, v): f"e_{u + 1}_{v + 1}" for u, v in itertools.combinations(range(n), 2)}
    anames = [f"a_{i + 1}" for i in range(t)]
    edges = [("p", "q"), ("p", "r"), ("q", "r")] + [("r", a) for a in anames]
    for a, inst in zip(anames, instances):
        edges += [(a, enames[pair]) for pair in inst.graph.edges]
    edges += [(e, vnames[x]) for pair, e in enames.items() for x in pair]
    g2, roles2 = _named(["p", "q", "r", *anames, *enames.values(), *vnames], edges)

    # pattern: p q r a | e_1..e_{l(l-1)/2} | v_1..v_l
    ends = {f"e_{i + 1}": pair for i, pair in enumerate(itertools.combinations(range(l), 2))}
    pedges = [("p", "q"), ("p", "r"), ("q", "r"), ("r", "a")] + [("a", e) for e in ends]
    pedges += [(e, f"v_{x + 1}") for e, pair in ends.items() for x in pair]
    g1, roles1 = _named(["p", "q", "r", "a", *ends, *(f"v_{i + 1}" for i in range(l))], pedges)

    target = g1.n
    z = [v for v, name in enumerate(roles2) if name in ("p", "r") or name.startswith("e_")]
    certificates = {
        "n": n,
        "l": l,
        "t": t,
        "l_prime": target,
        "vertex_cover_z": z,
        "z_size_formula": n * (n - 1) // 2 + 2,
        "unique_triangle": ["p", "q", "r"],
        "g2_minus_p_bipartite": True,
    }
    return ReductionOutput("cross-compose", g1, g2, target, certificates, dict(g1=roles1, g2=roles2))


def isi_to_mccis(g1: Graph, g2: Graph) -> ReductionOutput:
    """Lift an ISI instance on forests to connected ISI / MCCIS.

    Adds a universal vertex to each side; the two universal vertices are the
    only ones with high enough degree to be matched together, so the lifted
    target is ``|V(g1)| + 1``.  Both inputs must be forests, so that each
    output's feedback vertex set is at most 1; an input with a cycle raises
    :class:`SoundnessError`, and one that already has :data:`MAX_VERTICES`
    vertices raises :class:`SizeBoundError`.  The added vertex is the last
    of each side and the only one with a role, "universal".
    """
    size = max(g1.n, g2.n) + 1
    if size > MAX_VERTICES:
        raise SizeBoundError(f"the gadget would have {size} vertices")
    for name, g in (("g1", g1), ("g2", g2)):
        if not induces_forest(g, range(g.n)):
            raise SoundnessError(f"{name} has a cycle; the lift needs forest inputs")
    out1 = add_universal_vertex(g1)
    out2 = add_universal_vertex(g2)
    certificates = {
        "target": g1.n + 1,
        "fvs_bound": 1,
        "universal_degrees": [g1.n, g2.n],
    }
    roles = {name: [None] * g.n + ["universal"] for name, g in (("g1", g1), ("g2", g2))}
    return ReductionOutput("universal", out1, out2, g1.n + 1, certificates, roles)


def _paths(paths: Iterable[tuple[int, str]]) -> tuple[Graph, list[str]]:
    """Disjoint union of paths from (length, role) pairs, numbered in order; and its roles."""
    edges: list[tuple[int, int]] = []
    roles: list[str] = []
    for length, role in paths:
        edges += [(len(roles) + j, len(roles) + j + 1) for j in range(length - 1)]
        roles += [role] * length
    return Graph.from_edges(len(roles), edges), roles


def three_partition_to_forest_isi(inst: ThreePartitionInstance) -> ReductionOutput:
    """3-Partition -> ISI on forests (paths into slightly longer paths).

    The pattern is the disjoint union of 3m paths with the item sizes; the
    host is m paths of B+2 vertices, for which the equivalence is provable:
    each host path must absorb exactly three pieces separated by two gap
    vertices.  The strict range B/4 < a_i < B/2 is required; without it the
    packing argument breaks.
    """
    if not inst.satisfies_strict_range():
        raise SoundnessError(
            "items must satisfy B/4 < a_i < B/2; the packing argument needs it"
        )
    host_len = inst.B + 2
    if inst.m * host_len > MAX_VERTICES:  # the pattern has m * B vertices
        raise SizeBoundError(f"the gadget would have {inst.m * host_len} vertices")
    g1, roles1 = _paths((a, f"piece_{i + 1}") for i, a in enumerate(inst.items))
    g2, roles2 = _paths((host_len, f"host_{i + 1}") for i in range(inst.m))
    certificates = {
        "m": inst.m,
        "B": inst.B,
        "items": list(inst.items),
        "host_len": host_len,
        "g2_size": inst.m * host_len,
        "forest": True,
    }
    return ReductionOutput("3partition", g1, g2, g1.n, certificates, dict(g1=roles1, g2=roles2))


# ---------------------------------------------------------------------------
# verification


def verify_reduction(out: ReductionOutput, source_answer: bool) -> ReductionReport:
    """Re-check the certificates against the graphs and roles, and compare
    answers against the source.

    Every certificate is read but ``target_formula``, a text.  A flag check
    passes only when the certificate states True and the property holds.
    The incidence gadget: both sides ``bipartite`` and ``c4_free``, of girth at
    least 5, with ``e_*`` vertices of ``edge_vertex_degree``; the target from
    ``k``, and ``host_size``.  The cross-composition: Z a cover of the host of
    ``z_size_formula`` vertices, ``unique_triangle`` the roles of its one
    triangle in vertex order, ``g2_minus_p_bipartite``, ``l_prime`` (the target
    and the pattern's order), ``t`` (the ``a_*`` roles) and ``n`` and ``l`` (the
    ``v_*`` roles of the host and of the pattern).  The universal lift: each
    side's feedback vertex set within ``fvs_bound`` and its universal vertex
    adjacent to all others, ``target`` and ``universal_degrees``.  3-Partition:
    both sides ``forest``, the host's size from ``m`` and ``B``, ``host_len``,
    ``g2_size`` and ``items`` (the pattern's ``piece_*`` runs, in order).  Only
    meant for instances small enough for the brute-force oracles.
    """
    checks: list[CheckOutcome] = []

    def check(name: str, passed: bool, detail: str = "") -> None:
        checks.append(CheckOutcome(name, passed, detail))

    cert = out.certificates
    if out.kind == "cross-compose":
        z = set(cert["vertex_cover_z"])
        covered = all(u in z or v in z for u, v in out.g2.edges)
        check("z_is_vertex_cover", covered)
        expected = cert["z_size_formula"]
        check("z_size_formula", len(z) == expected, f"|Z|={len(z)}, formula={expected}")
        roles = _roles(out, "g2")
        tri = [[roles[v] for v in t] for t in triangles(out.g2)]
        check("unique_triangle", tri == [cert["unique_triangle"]], f"triangles={tri}")
        keep = [v for v in range(out.g2.n) if v != roles.index("p")]
        check(
            "g2_minus_p_bipartite",
            cert["g2_minus_p_bipartite"] is True and graph_stats(induced_subgraph(out.g2, keep)).bipartite,
        )
        l_prime = cert["l_prime"]
        check("l_prime", l_prime == out.target == out.g1.n, f"l_prime={l_prime}, g1 has {out.g1.n}")
        for key, side, prefix in (("t", "g2", "a_"), ("n", "g2", "v_"), ("l", "g1", "v_")):
            found = sum(1 for role in _roles(out, side) if (role or "").startswith(prefix))
            check(key, cert[key] == found, f"{key}={cert[key]}, {prefix}* roles in {side}={found}")
    elif out.kind == "clique-incidence":
        for side, g in (("g1", out.g1), ("g2", out.g2)):
            stats = graph_stats(g)
            check(f"{side}_bipartite", cert["bipartite"] is True and stats.bipartite)
            check(f"{side}_c4_free", cert["c4_free"] is True and stats.c4_free)
            check(
                f"{side}_girth_at_least_5",
                stats.girth is None or stats.girth >= 5,
                f"girth={stats.girth}",
            )
            edge_nodes = [
                v for v, role in enumerate(_roles(out, side)) if (role or "").startswith("e_")
            ]
            check(
                f"{side}_edge_vertex_degree",
                all(len(g.adj[v]) == cert["edge_vertex_degree"] for v in edge_nodes),
            )
        k = cert["k"]
        check("target_formula", out.target == k + k * (k - 1) // 2)
        check("host_size", cert["host_size"] == out.g2.n)
    elif out.kind == "universal":
        degrees = []
        for side, g in (("g1", out.g1), ("g2", out.g2)):
            check(f"{side}_fvs_within_bound", len(min_feedback_vertex_set(g)) <= cert["fvs_bound"])
            universal = _roles(out, side).index("universal")
            degrees.append(len(g.adj[universal]))
            check(f"{side}_universal_degree", degrees[-1] == g.n - 1)
        check("target", cert["target"] == out.target == out.g1.n)
        check("universal_degrees", cert["universal_degrees"] == degrees, f"degrees={degrees}")
        result = mcis_bruteforce(SolveQuery(out.g1, out.g2, connected=True))
        check(
            "mccis_matches_source",
            (result.size >= out.target) == source_answer,
            f"mccis={result.size}, target={out.target}",
        )
    elif out.kind == "3partition":
        for side, g in (("g1", out.g1), ("g2", out.g2)):
            check(f"{side}_is_forest", cert["forest"] is True and induces_forest(g, range(g.n)))
        m, b, items = cert["m"], cert["B"], cert["items"]
        check("host_size", out.g2.n == m * (b + 2))
        check("host_len", cert["host_len"] == b + 2)
        check("g2_size", cert["g2_size"] == out.g2.n)
        pieces = [(role, len(list(run))) for role, run in itertools.groupby(_roles(out, "g1"))]
        check("items", pieces == [(f"piece_{i + 1}", a) for i, a in enumerate(items)], f"pieces={pieces}")
    else:
        check("known_kind", False, f"unknown reduction kind {out.kind!r}")
    if out.kind in ("cross-compose", "clique-incidence", "3partition"):
        answer = isi_backtracking(out.g1, out.g2) is not None
        check("isi_matches_source", answer == source_answer, f"isi={answer}")
    return ReductionReport(tuple(checks))


# ---------------------------------------------------------------------------
# on-disk form


def write_reduction(out: ReductionOutput, outdir: str | Path) -> Path:
    """Serialize a reduction output to a directory (edge-lists + manifest)."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "g1.edgelist").write_text(serialize_graph(out.g1))
    (outdir / "g2.edgelist").write_text(serialize_graph(out.g2))
    manifest = {
        "kind": out.kind,
        "target": out.target,
        "roles": {side: out.roles.get(side) for side in ("g1", "g2")},
        "certificates": out.certificates,
    }
    (outdir / "manifest.json").write_text(json.dumps(manifest) + "\n")
    return outdir


def read_reduction(outdir: str | Path) -> ReductionOutput:
    """Load a reduction output previously written by :func:`write_reduction`."""
    outdir = Path(outdir)
    manifest = json.loads((outdir / "manifest.json").read_text())

    g1, g2 = (parse_graph((outdir / f"{name}.edgelist").read_text()) for name in ("g1", "g2"))
    return ReductionOutput(
        manifest["kind"], g1, g2, manifest["target"], manifest["certificates"], manifest["roles"]
    )
