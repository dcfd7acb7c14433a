"""Randomized cross-validation: solver vs oracle, reductions vs source truth.

Both suites are deterministic for a fixed seed and return a report dict that
the CLI prints; any mismatch carries the offending instance in edge-list
form so it can be replayed by hand.
"""

from __future__ import annotations

import random

from .corpus import (
    random_clique_instance,
    random_forest,
    random_graph_pair,
    random_three_partition,
)
from .graphs import induces_connected, is_induced_isomorphism, serialize_graph
from .reductions import (
    CliqueInstance,
    clique_to_incidence_isi,
    cross_compose,
    has_clique,
    isi_to_mccis,
    three_partition_exists,
    three_partition_to_forest_isi,
    verify_reduction,
)
from .solvers import (
    SolveQuery,
    configuration_bound,
    isi_backtracking,
    mcis_bruteforce,
    mcis_vc_fpt,
)
from .params import vertex_cover_number


def _witness_ok(query: SolveQuery, result) -> bool:
    if len(result.witness) != result.size:
        return False
    if result.size == 0:
        return True
    if not is_induced_isomorphism(query.g1, query.g2, result.witness):
        return False
    if query.connected:
        if not induces_connected(query.g1, [u for u, _ in result.witness.pairs]):
            return False
        if not induces_connected(query.g2, [v for _, v in result.witness.pairs]):
            return False
    return True


def run_oracle_suite(seed: int, count: int, max_n: int) -> dict:
    """Compare mcis_vc_fpt against mcis_bruteforce on a seeded random corpus.

    Checks, per instance and per connectivity flag: equal optimum size,
    witness validity, and the configuration-counter bound.
    """
    rng = random.Random(seed)
    failures = []
    instances = 0
    for index in range(count):
        g1, g2 = random_graph_pair(rng, max_n)
        k1, k2 = vertex_cover_number(g1), vertex_cover_number(g2)
        for connected in (False, True):
            query = SolveQuery(g1, g2, connected=connected)
            oracle = mcis_bruteforce(query)
            fpt = mcis_vc_fpt(query)
            instances += 1
            problems = []
            if fpt.size != oracle.size:
                problems.append(f"size mismatch: fpt={fpt.size} oracle={oracle.size}")
            if not _witness_ok(query, fpt):
                problems.append("fpt witness invalid")
            if not _witness_ok(query, oracle):
                problems.append("oracle witness invalid")
            if fpt.stats.configurations > configuration_bound(k1, k2):
                problems.append(
                    f"counter {fpt.stats.configurations} exceeds bound for k1={k1}, k2={k2}"
                )
            if problems:
                failures.append(
                    {
                        "index": index,
                        "connected": connected,
                        "problems": problems,
                        "g1": serialize_graph(g1),
                        "g2": serialize_graph(g2),
                    }
                )
    return {
        "suite": "oracle",
        "seed": seed,
        "instances": instances,
        "counter_bound_checked": instances,
        "failures": failures,
        "ok": not failures,
    }


def run_reduction_suite(seed: int, count: int) -> dict:
    """Certificate and soundness checks for all four gadget builders, ``count`` rounds."""
    rng = random.Random(seed)
    failures = []
    checks = 0

    def record(name: str, report) -> None:
        nonlocal checks
        checks += len(report.checks)
        for failure in report.failures():
            failures.append({"builder": name, "check": failure.name, "detail": failure.detail})

    for _ in range(count):
        # incidence reduction on a random source
        inst = random_clique_instance(rng, rng.randint(3, 5), 3)
        out = clique_to_incidence_isi(inst.graph, inst.l)
        record("clique-incidence", verify_reduction(out, has_clique(inst.graph, inst.l)))

        # cross-composition of a small batch
        n, l = rng.randint(3, 4), 3
        batch = [random_clique_instance(rng, n, l) for _ in range(rng.randint(1, 3))]
        out = cross_compose(batch)
        answer = any(has_clique(b.graph, l) for b in batch)
        record("cross-compose", verify_reduction(out, answer))

        # universal-vertex lift of a forest pair
        f1 = random_forest(rng, 6)
        f2 = random_forest(rng, 6)
        out = isi_to_mccis(f1, f2)
        record("universal", verify_reduction(out, isi_backtracking(f1, f2) is not None))

        # 3-partition reduction
        tp = random_three_partition(rng)
        out = three_partition_to_forest_isi(tp)
        record("3partition", verify_reduction(out, three_partition_exists(tp)))

    return {
        "suite": "reductions",
        "seed": seed,
        "checks": checks,
        "failures": failures,
        "ok": not failures,
    }
