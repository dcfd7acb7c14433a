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
from .graphs import MappingError, serialize_graph
from .reductions import (
    CheckOutcome,
    ReductionReport,
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
    WitnessError,
    _Cover,
    _answers,
    configuration_bound,
    isi_backtracking,
    mcis_bruteforce,
    mcis_vc_fpt,
)


def run_oracle_suite(seed: int, count: int, max_n: int) -> dict:
    """Compare mcis_vc_fpt against mcis_bruteforce on a seeded random corpus.

    Checks, per instance and per connectivity flag, over one cover per graph:
    equal optimum size, witness validity, and the configuration-counter bound.
    A route whose own guard raises is reported as a failure of that pair.
    """
    rng = random.Random(seed)
    failures = []
    instances = bound_checked = 0
    for index in range(count):
        g1, g2 = random_graph_pair(rng, max_n)
        covers = _Cover(g1), _Cover(g2)
        k1, k2 = len(covers[0].order), len(covers[1].order)
        for connected in (False, True):
            query = SolveQuery(g1, g2, connected=connected)
            instances += 1
            problems = []
            route = "oracle"
            try:
                oracle = mcis_bruteforce(query)
                route = "fpt"
                fpt = mcis_vc_fpt(query, covers)
            except (WitnessError, MappingError) as exc:
                problems.append(f"{route} raised {type(exc).__name__}: {exc}")
            else:
                bound_checked += 1
                if fpt.size != oracle.size:
                    problems.append(f"size mismatch: fpt={fpt.size} oracle={oracle.size}")
                if not _answers(query, fpt.witness):
                    problems.append("fpt witness invalid")
                if not _answers(query, oracle.witness):
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
        "counter_bound_checked": bound_checked,
        "failures": failures,
        "ok": not failures,
    }


def run_reduction_suite(seed: int, count: int) -> dict:
    """Certificate and soundness checks for all four gadget builders, ``count`` rounds.

    A guard that raises while a builder's output or its source is checked
    counts as one failed check of that builder.
    """
    rng = random.Random(seed)
    failures = []
    checks = 0

    def record(name: str, verify) -> None:
        nonlocal checks
        try:
            report = verify()
        except (WitnessError, MappingError) as exc:
            report = ReductionReport((CheckOutcome("guard", False, f"{type(exc).__name__}: {exc}"),))
        checks += len(report.checks)
        for failure in report.failures():
            failures.append({"builder": name, "check": failure.name, "detail": failure.detail})

    for _ in range(count):
        # incidence reduction on a random source
        inst = random_clique_instance(rng, rng.randint(3, 5), 3)
        out = clique_to_incidence_isi(inst.graph, inst.l)
        record(out.kind, lambda: verify_reduction(out, has_clique(inst.graph, inst.l)))

        # cross-composition of a small batch
        n, l = rng.randint(3, 4), 3
        batch = [random_clique_instance(rng, n, l) for _ in range(rng.randint(1, 3))]
        out = cross_compose(batch)
        answer = any(has_clique(b.graph, l) for b in batch)
        record(out.kind, lambda: verify_reduction(out, answer))

        # universal-vertex lift of a forest pair
        f1 = random_forest(rng, 6)
        f2 = random_forest(rng, 6)
        out = isi_to_mccis(f1, f2)
        record(out.kind, lambda: verify_reduction(out, isi_backtracking(f1, f2) is not None))

        # 3-partition reduction
        tp = random_three_partition(rng)
        out = three_partition_to_forest_isi(tp)
        record(out.kind, lambda: verify_reduction(out, three_partition_exists(tp)))

    return {
        "suite": "reductions",
        "seed": seed,
        "checks": checks,
        "failures": failures,
        "ok": not failures,
    }
