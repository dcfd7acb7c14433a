"""Hardness-reduction gadget builders.

Each builder returns a :class:`ReductionOutput`: the constructed instance
plus machine-checkable certificates (vertex-cover set, size formulas,
structural facts).  :func:`verify_reduction` re-derives every certificate
from scratch and compares the reduced instance's answer against the source
instance's answer using the brute-force solvers, so the constructions can be
audited end to end at desk scale.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path

from .graphs import (
    Graph,
    add_universal_vertex,
    complete_graph,
    graph_stats,
    induced_subgraph,
    parse_graph,
    serialize_graph,
    triangles,
)
from .params import min_feedback_vertex_set, vertex_cover_number
from .solvers import SolveQuery, isi_backtracking, mcis_bruteforce


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

    @property
    def n(self) -> int:
        return self.graph.n


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
    """A produced instance plus everything needed to audit it."""

    kind: str
    g1: Graph
    g2: Graph
    target: int
    certificates: dict = field(default_factory=dict)


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


def incidence_graph(g: Graph) -> Graph:
    """Bipartite incidence graph: one node per vertex, one per edge.

    Vertex nodes come first and keep 1-based labels ``v_i``; edge nodes are
    labeled ``e_u_v`` and are adjacent to their two endpoints.
    """
    labels = [f"v_{i + 1}" for i in range(g.n)]
    edges = []
    for idx, (u, v) in enumerate(sorted(g.edges)):
        node = g.n + idx
        labels.append(f"e_{u + 1}_{v + 1}")
        edges.append((u, node))
        edges.append((v, node))
    return Graph.from_edges(g.n + g.m, edges, labels)


def has_clique(g: Graph, l: int) -> bool:
    """Exhaustive clique search (the source-problem oracle for verification)."""
    if l <= 1:
        return g.n >= l
    for combo in itertools.combinations(range(g.n), l):
        if all(g.has_edge(u, v) for u, v in itertools.combinations(combo, 2)):
            return True
    return False


def three_partition_exists(inst: ThreePartitionInstance) -> bool:
    """Exhaustive grouping into triples (the 3-Partition oracle)."""

    def solve(remaining: tuple[int, ...]) -> bool:
        if not remaining:
            return True
        first = remaining[0]
        rest = remaining[1:]
        for i, j in itertools.combinations(range(len(rest)), 2):
            if inst.items[first] + inst.items[rest[i]] + inst.items[rest[j]] == inst.B:
                nxt = tuple(x for x in rest if x not in (rest[i], rest[j]))
                if solve(nxt):
                    return True
        return False

    return solve(tuple(range(3 * inst.m)))


def _label_index(g: Graph, name: str) -> int:
    if g.labels is None:
        raise ValueError(f"graph has no vertex labels to look up {name!r} in")
    return g.labels.index(name)


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
    g1 = incidence_graph(complete_graph(k))
    g2 = incidence_graph(g)
    target = k + k * (k - 1) // 2
    certificates = {
        "k": k,
        "target_formula": "k + k*(k-1)/2",
        "bipartite": True,
        "c4_free": True,
        "edge_vertex_degree": 2,
        "host_size": g.n + g.m,
    }
    return ReductionOutput("clique-incidence", g1, g2, target, certificates)


def cross_compose(instances: list[CliqueInstance]) -> ReductionOutput:
    """OR-composition of many same-shape Clique instances into one ISI instance.

    All instances must agree on vertex count and clique size; heterogeneous
    batches violate the equivalence relation and are rejected.  The composed
    host has one selector vertex per instance hanging off an anchor triangle,
    a layer of nodes for all possible edges, and a layer of nodes for the
    shared vertex set; the pattern encodes a clique of the sought size.  The
    certificate set includes the explicit vertex cover whose size is
    ``n(n-1)/2 + 2``.
    """
    if not instances:
        raise EquivalenceClassError("need at least one instance")
    n = instances[0].n
    l = instances[0].l
    if any(inst.n != n or inst.l != l for inst in instances):
        raise EquivalenceClassError(
            "all instances must share the same vertex count and clique size"
        )
    t = len(instances)

    # host: p q r | a_1..a_t | e_uv for all pairs | v_1..v_n
    labels = ["p", "q", "r"]
    labels += [f"a_{i + 1}" for i in range(t)]
    pair_list = list(itertools.combinations(range(n), 2))
    e_index = {}
    for u, v in pair_list:
        e_index[(u, v)] = len(labels)
        labels.append(f"e_{u + 1}_{v + 1}")
    v_base = len(labels)
    labels += [f"v_{i + 1}" for i in range(n)]
    p, q, r = 0, 1, 2
    edges = [(p, q), (p, r), (q, r)]
    edges += [(r, 3 + i) for i in range(t)]
    for i, inst in enumerate(instances):
        for u, v in inst.graph.edges:
            edges.append((3 + i, e_index[(u, v)]))
    for u, v in pair_list:
        edges.append((e_index[(u, v)], v_base + u))
        edges.append((e_index[(u, v)], v_base + v))
    g2 = Graph.from_edges(len(labels), edges, labels)

    # pattern: p q r a | e_1..e_{l(l-1)/2} | v_1..v_l
    plabels = ["p", "q", "r", "a"]
    k_pairs = list(itertools.combinations(range(l), 2))
    e1_base = 4
    plabels += [f"e_{i + 1}" for i in range(len(k_pairs))]
    v1_base = 4 + len(k_pairs)
    plabels += [f"v_{i + 1}" for i in range(l)]
    pedges = [(0, 1), (0, 2), (1, 2), (2, 3)]
    pedges += [(3, e1_base + i) for i in range(len(k_pairs))]
    for i, (u, v) in enumerate(k_pairs):
        pedges.append((e1_base + i, v1_base + u))
        pedges.append((e1_base + i, v1_base + v))
    g1 = Graph.from_edges(len(plabels), pedges, plabels)

    target = g1.n
    z = sorted([p, r] + [e_index[pair] for pair in pair_list])
    certificates = {
        "n": n,
        "l": l,
        "t": t,
        "l_prime": target,
        "vertex_cover_z": z,
        "z_size_formula": n * (n - 1) // 2 + 2,
        "unique_triangle": ["p", "q", "r"],
        "g2_minus_p_bipartite": True,
        # the composition's parameter is not pinned down; report both readings
        "parameter_z_plus_vc_g1": len(z) + vertex_cover_number(g1),
        "parameter_vc_sum": vertex_cover_number(g1) + vertex_cover_number(g2),
    }
    return ReductionOutput("cross-compose", g1, g2, target, certificates)


def isi_to_mccis(g1: Graph, g2: Graph) -> ReductionOutput:
    """Lift an ISI instance on forests to connected ISI / MCCIS.

    Adds a universal vertex to each side; the two universal vertices are the
    only ones with high enough degree to be matched together, so the lifted
    target is ``|V(g1)| + 1``.  Certificates assume forest inputs (feedback
    vertex set of each output is at most 1).
    """
    out1 = add_universal_vertex(g1)
    out2 = add_universal_vertex(g2)
    certificates = {
        "target": g1.n + 1,
        "fvs_bound": 1,
        "universal_degrees": [g1.n, g2.n],
    }
    return ReductionOutput("universal", out1, out2, g1.n + 1, certificates)


def three_partition_to_forest_isi(
    inst: ThreePartitionInstance, host_len: int | None = None
) -> ReductionOutput:
    """3-Partition -> ISI on forests (paths into slightly longer paths).

    The pattern is the disjoint union of 3m paths with the item sizes; the
    host is m paths of ``host_len`` vertices (default B+2, for which the
    equivalence is provable: each host path must absorb exactly three pieces
    separated by two gap vertices).  The strict range B/4 < a_i < B/2 is
    required; without it the packing argument breaks.
    """
    if not inst.satisfies_strict_range():
        raise SoundnessError(
            "items must satisfy B/4 < a_i < B/2; the packing argument needs it"
        )
    if host_len is None:
        host_len = inst.B + 2
    edges: list[tuple[int, int]] = []
    labels: list[str] = []
    offset = 0
    for i, a in enumerate(inst.items):
        edges += [(offset + j, offset + j + 1) for j in range(a - 1)]
        labels += [f"piece_{i + 1}"] * a
        offset += a
    g1 = Graph.from_edges(offset, edges, labels)
    hedges: list[tuple[int, int]] = []
    hlabels: list[str] = []
    offset = 0
    for i in range(inst.m):
        hedges += [(offset + j, offset + j + 1) for j in range(host_len - 1)]
        hlabels += [f"host_{i + 1}"] * host_len
        offset += host_len
    g2 = Graph.from_edges(offset, hedges, hlabels)
    certificates = {
        "m": inst.m,
        "B": inst.B,
        "items": list(inst.items),
        "host_len": host_len,
        "g2_size": inst.m * host_len,
        "forest": True,
    }
    return ReductionOutput("3partition", g1, g2, g1.n, certificates)


# ---------------------------------------------------------------------------
# verification


def verify_reduction(out: ReductionOutput, source_answer: bool) -> ReductionReport:
    """Re-check every certificate and compare answers against the source.

    Only meant for instances small enough for the brute-force oracles.
    """
    checks: list[CheckOutcome] = []

    def check(name: str, passed: bool, detail: str = "") -> None:
        checks.append(CheckOutcome(name, passed, detail))

    if out.kind == "cross-compose":
        z = set(out.certificates["vertex_cover_z"])
        covered = all(u in z or v in z for u, v in out.g2.edges)
        check("z_is_vertex_cover", covered)
        expected = out.certificates["z_size_formula"]
        check("z_size_formula", len(z) == expected, f"|Z|={len(z)}, formula={expected}")
        tri = list(triangles(out.g2))
        pqr = tuple(sorted(_label_index(out.g2, name) for name in ("p", "q", "r")))
        check("unique_triangle_pqr", tri == [pqr], f"triangles={tri}")
        keep = [v for v in range(out.g2.n) if v != _label_index(out.g2, "p")]
        check(
            "g2_minus_p_bipartite",
            graph_stats(induced_subgraph(out.g2, keep)).bipartite,
        )
        answer = isi_backtracking(out.g1, out.g2) is not None
        check("isi_matches_source", answer == source_answer, f"isi={answer}")
    elif out.kind == "clique-incidence":
        for side, g in (("g1", out.g1), ("g2", out.g2)):
            stats = graph_stats(g)
            check(f"{side}_bipartite", stats.bipartite)
            check(f"{side}_c4_free", stats.c4_free)
            check(
                f"{side}_girth_at_least_5",
                stats.girth is None or stats.girth >= 5,
                f"girth={stats.girth}",
            )
            edge_nodes = [
                v for v in range(g.n) if (g.label(v) or "").startswith("e_")
            ]
            check(
                f"{side}_edge_vertices_degree_2",
                all(g.degree(v) == 2 for v in edge_nodes),
            )
        k = out.certificates["k"]
        check("target_formula", out.target == k + k * (k - 1) // 2)
        answer = isi_backtracking(out.g1, out.g2) is not None
        check("isi_matches_source", answer == source_answer, f"isi={answer}")
    elif out.kind == "universal":
        for side, g in (("g1", out.g1), ("g2", out.g2)):
            check(
                f"{side}_fvs_at_most_1", min_feedback_vertex_set(g).size <= 1
            )
            universal = _label_index(g, "universal")
            check(f"{side}_universal_degree", g.degree(universal) == g.n - 1)
        result = mcis_bruteforce(SolveQuery(out.g1, out.g2, connected=True))
        check(
            "mccis_matches_source",
            (result.size >= out.target) == source_answer,
            f"mccis={result.size}, target={out.target}",
        )
    elif out.kind == "3partition":
        for side, g in (("g1", out.g1), ("g2", out.g2)):
            check(f"{side}_is_forest", graph_stats(g).girth is None)
        check(
            "host_size",
            out.g2.n == out.certificates["m"] * out.certificates["host_len"],
        )
        answer = isi_backtracking(out.g1, out.g2) is not None
        check("isi_matches_source", answer == source_answer, f"isi={answer}")
    else:
        check("known_kind", False, f"unknown reduction kind {out.kind!r}")
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
        "roles": {
            "g1": list(out.g1.labels) if out.g1.labels else None,
            "g2": list(out.g2.labels) if out.g2.labels else None,
        },
        "certificates": out.certificates,
    }
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return outdir


def read_reduction(outdir: str | Path) -> ReductionOutput:
    """Load a reduction output previously written by :func:`write_reduction`."""
    outdir = Path(outdir)
    manifest = json.loads((outdir / "manifest.json").read_text())

    def load(name: str) -> Graph:
        g = parse_graph((outdir / f"{name}.edgelist").read_text())
        roles = manifest["roles"][name]
        return Graph(g.n, g.edges, tuple(roles) if roles else None)

    return ReductionOutput(
        manifest["kind"],
        load("g1"),
        load("g2"),
        manifest["target"],
        manifest["certificates"],
    )
