"""Acceptance gate: one test per release criterion, one printed verdict each.

The verdict lines bypass pytest's output capture, so they appear on every run.
"""

import itertools
import json
import random
import time

from mcislab.cli import main
from mcislab.corpus import random_forest, random_graph_pair, random_three_partition
from mcislab.graphs import (
    Graph,
    graph_stats,
    induces_connected,
    is_induced_isomorphism,
)
from mcislab.params import min_feedback_vertex_set, min_vertex_cover
from mcislab.reductions import (
    CliqueInstance,
    ThreePartitionInstance,
    clique_to_incidence_isi,
    cross_compose,
    has_clique,
    isi_to_mccis,
    three_partition_exists,
    three_partition_to_forest_isi,
    verify_reduction,
)
from mcislab.solvers import (
    SolveQuery,
    configuration_bound,
    enumerate_configurations,
    isi_backtracking,
    mcis_bruteforce,
    mcis_vc_fpt,
)


def verdict(capsys, number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"[PRIMARY] criterion {number} {name}: {status}{suffix}")
    assert ok, f"criterion {number} {name} failed{suffix}"


def seeded_random_graph(rng: random.Random, n: int) -> Graph:
    p = rng.choice((0.2, 0.5, 0.8))
    return Graph.from_edges(
        n, [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p]
    )


def test_criterion_1_oracle_equivalence(capsys):
    started = time.perf_counter()
    rng = random.Random(101)
    mismatches = 0
    pairs = 500
    for _ in range(pairs):
        g1, g2 = random_graph_pair(rng, 8)
        for connected in (False, True):
            query = SolveQuery(g1, g2, connected=connected)
            if mcis_vc_fpt(query).size != mcis_bruteforce(query).size:
                mismatches += 1
    elapsed = time.perf_counter() - started
    verdict(
        capsys,
        1,
        "oracle equivalence",
        mismatches == 0 and elapsed < 300,
        f"{pairs} pairs, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_2_witness_validity(capsys):
    rng = random.Random(102)
    bad = 0
    checked = 0
    for _ in range(150):
        g1, g2 = random_graph_pair(rng, 8)
        for connected in (False, True):
            query = SolveQuery(g1, g2, connected=connected)
            for result in (mcis_vc_fpt(query), mcis_bruteforce(query)):
                checked += 1
                ok = is_induced_isomorphism(g1, g2, result.witness)
                if connected and ok:
                    ok = induces_connected(
                        g1, [u for u, _ in result.witness.pairs]
                    ) and induces_connected(g2, [v for _, v in result.witness.pairs])
                if not ok:
                    bad += 1
    verdict(capsys, 2, "witness validity", bad == 0, f"{checked} witnesses, {bad} invalid")


def test_criterion_3_cross_composition_soundness(capsys):
    rng = random.Random(103)
    n, l = 5, 3
    # a pool of seeded yes/no Clique instances on n vertices
    yes_pool, no_pool = [], []
    while len(yes_pool) < 3 or len(no_pool) < 3:
        g = seeded_random_graph(rng, n)
        (yes_pool if has_clique(g, l) else no_pool).append(CliqueInstance(g, l))
    failures = []
    for t in (1, 2, 3):
        for pattern in itertools.product((False, True), repeat=t):
            batch = [
                (yes_pool if sign else no_pool)[i % 3] for i, sign in enumerate(pattern)
            ]
            out = cross_compose(batch)
            answer = isi_backtracking(out.g1, out.g2) is not None
            if answer != any(pattern):
                failures.append(f"t={t} pattern={pattern}: isi={answer}")
                continue
            report = verify_reduction(out, any(pattern))
            if not report.ok:
                failures.append(f"t={t} pattern={pattern}: {report.failures()}")
            z = out.certificates["vertex_cover_z"]
            if len(z) != n * (n - 1) // 2 + 2:
                failures.append(f"t={t} pattern={pattern}: |Z|={len(z)}")
    verdict(
        capsys,
        3,
        "cross-composition soundness",
        not failures,
        failures[0] if failures else "all 14 sign patterns",
    )


def test_criterion_4_incidence_reduction(capsys):
    rng = random.Random(104)
    failures = 0
    for _ in range(100):
        g = seeded_random_graph(rng, rng.randint(3, 6))
        k = rng.choice((3, 4))
        out = clique_to_incidence_isi(g, k)
        stats1, stats2 = graph_stats(out.g1), graph_stats(out.g2)
        ok = (
            stats1.bipartite
            and stats2.bipartite
            and stats1.c4_free
            and stats2.c4_free
            and out.target == k + k * (k - 1) // 2
            and (isi_backtracking(out.g1, out.g2) is not None) == has_clique(g, k)
        )
        if not ok:
            failures += 1
    verdict(capsys, 4, "incidence reduction", failures == 0, f"100 instances, {failures} bad")


def test_criterion_5_universal_vertex_lift(capsys):
    rng = random.Random(105)
    failures = 0
    for _ in range(50):
        g1 = random_forest(rng, 8)
        g2 = random_forest(rng, 8)
        out = isi_to_mccis(g1, g2)
        source = isi_backtracking(g1, g2) is not None
        lifted = mcis_bruteforce(SolveQuery(out.g1, out.g2, connected=True))
        ok = (
            (lifted.size >= out.target) == source
            and len(min_feedback_vertex_set(out.g1)) <= 1
            and len(min_feedback_vertex_set(out.g2)) <= 1
        )
        if not ok:
            failures += 1
    verdict(capsys, 5, "universal-vertex lift", failures == 0, f"50 forest pairs, {failures} bad")


def test_criterion_6_three_partition_reduction(capsys):
    yes = ThreePartitionInstance((4, 4, 5, 4, 4, 5), 2, 13)
    no = ThreePartitionInstance((4, 4, 4, 4, 4, 6), 2, 13)
    out_yes = three_partition_to_forest_isi(yes)
    out_no = three_partition_to_forest_isi(no)
    designated_ok = (
        isi_backtracking(out_yes.g1, out_yes.g2) is not None
        and isi_backtracking(out_no.g1, out_no.g2) is None
    )
    rng = random.Random(106)
    failures = 0
    for _ in range(20):
        inst = random_three_partition(rng)
        out = three_partition_to_forest_isi(inst)
        got = isi_backtracking(out.g1, out.g2) is not None
        if got != three_partition_exists(inst):
            failures += 1
    verdict(
        capsys,
        6,
        "3-partition reduction",
        designated_ok and failures == 0,
        f"designated pair ok={designated_ok}, 20 seeded, {failures} bad",
    )


def test_criterion_7_enumeration_completeness(capsys):
    rng = random.Random(107)
    failures = 0
    for _ in range(50):
        g1, g2 = random_graph_pair(rng, 6)
        best = mcis_bruteforce(SolveQuery(g1, g2)).size
        reached = max((len(m) for _, m in enumerate_configurations(g1, g2)), default=0)
        if reached < best:
            failures += 1
    verdict(capsys, 7, "enumeration completeness", failures == 0, f"50 pairs, {failures} bad")


def test_criterion_8_counter_bound(capsys):
    # direct check on a seeded sample
    rng = random.Random(108)
    direct_ok = True
    for _ in range(30):
        g1, g2 = random_graph_pair(rng, 7)
        k1 = len(min_vertex_cover(g1))
        k2 = len(min_vertex_cover(g2))
        for connected in (False, True):
            result = mcis_vc_fpt(SolveQuery(g1, g2, connected=connected))
            if result.stats.configurations > configuration_bound(k1, k2):
                direct_ok = False
    # and the check command enforces the same bound on every run
    code = main(
        ["check", "--suite", "oracle", "--seed", "108", "--count", "20",
         "--max-n", "7", "--json"]
    )
    report = json.loads(capsys.readouterr().out)
    suite = report["result"]["suites"][0]
    cli_ok = (
        code == 0
        and suite["ok"]
        and suite["counter_bound_checked"] == suite["instances"] > 0
    )
    verdict(capsys, 8, "counter bound", direct_ok and cli_ok)
