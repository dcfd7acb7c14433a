"""Self-test of the benchmark at a tiny size; run from the repository root:

    python3 perfbench/selftest.py

It runs every workload with one shrunken block, untraced and traced, and
checks that every metric named in BENCHMARK.json is printed with its unit,
that the answers check out, that each workload loads the layers it names
and leaves the others idle, and that no process a run started is left.  It
checks that a run whose blocks do not fit its deadline exits 3 without a
result.  It then feeds the checker a corrupted
witness, a flipped gadget answer and a wrong FVS size and checks that all
are caught.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

errors: list[str] = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        errors.append(message)


def shrink() -> None:
    """One small block per workload: few instances, small graphs, no 2 s
    3-Partition no-instance and only the cheapest recorded pool pair."""
    run.MIN_SAMPLES = 1
    run.SETUP_REPEATS = 1
    run.STATE = run.STATE / "selftest"  # keeps its counters apart from real runs
    pool = workloads.load_pool()[:1]
    workloads.load_pool = checks.load_pool = lambda: pool
    workloads.SMALL_PAIRS_PER_BLOCK = 2
    workloads.CHECK_SEEDS = range(1, 3)
    workloads.CHECK_COUNT = 1
    workloads.GADGET_MIX = {"3partition-no": 0, "3partition-yes": 1, "clique-incidence": 1, "cross-compose": 1}
    workloads.ANALYZE_SEEDED = (10,)
    workloads.ANALYZE_FIXED = (12,)
    workloads.ANALYZE_ANCHORS = (14,)


def no_children_left() -> bool:
    """True when this process has no child process, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def run_benchmark(workload: str, trace: int) -> tuple[int, list[str]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "1", "--seconds", "0.01", "--trace", str(trace)])
    expect(no_children_left(), f"{workload} trace {trace}: a process the run started is still there")
    return code, out.getvalue().splitlines()


def test_metrics(spec: dict) -> None:
    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = run_benchmark(workload, trace)
            result = json.loads(lines[-1])
            where = f"{workload} trace {trace}"
            expect(code == 0 and result["correct"] and result["failed"] == 0, f"{where}: failed run {result}")
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: keys {set(result)}")
            names = {m["name"]: m["unit"] for m in spec[key]}
            expect(set(result["metrics"]) == set(names), f"{where}: metrics {sorted(result['metrics'])}")
            for name, unit in names.items():
                got = result["metrics"].get(name, {})
                expect(got.get("unit") == unit, f"{where}: {name} has unit {got.get('unit')}, not {unit}")
                expect(any(line.split()[:1] == [name] and f" {unit}" in line for line in lines[:-1]),
                       f"{where}: {name} not printed with its unit")
            if trace == 0:
                expect(any(line.split()[:1] == ["failed_share"] for line in lines), f"{where}: no failed_share")
            else:
                expect(any(line.startswith("slowest ") for line in lines), f"{where}: no slowest instances")
                for name, busy in LAYERS_BUSY.get(workload, {}).items():
                    value = result["metrics"].get(name, {}).get("value")
                    expect((value != 0) == busy, f"{where}: {name} reads {value}")


# layers that must be loaded (True) or idle (False) on a workload
LAYERS_BUSY = {
    "fpt-sparse": {"solvers.mcis_vc_fpt.ms": True, "params.twin_partition.ms": True,
                   "solvers.isi_backtracking.calls": False},
    "check-oracle": {"solvers.mcis_bruteforce.ms": True, "solvers.isi_backtracking.calls": True},
    "gadget-isi": {"solvers.isi_backtracking.ms": True, "reductions.build.ms": True,
                   "solvers.mcis_vc_fpt.ms": False},
    "analyze-cover": {"params.min_vertex_cover.ms": True, "params.min_feedback_vertex_set.ms": True,
                      "graphs.graph_stats.ms": True, "solvers.mcis_vc_fpt.ms": False},
}


def test_deadline() -> None:
    """Blocks that do not fit the run's deadline are an error, not wrong answers."""
    saved = run.RUN_DEADLINE_S
    run.RUN_DEADLINE_S = 1.0
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run.main(["--workload", "gadget-isi", "--seed", "1", "--seconds", "300", "--trace", "0"])
    finally:
        run.RUN_DEADLINE_S = saved
    expect(code == 3 and '"correct"' not in out.getvalue(),
           f"deadline: exit {code}, output {out.getvalue()[-200:]!r}")
    expect(no_children_left(), "deadline: a process the run started is still there")


def cli_runs(argvs: list[list[str]]) -> list[tuple]:
    """Run command lines in-process the way the worker does."""
    sys.path.insert(0, str(run.SRC))
    from mcislab import cli

    runs = []
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        runs.append((code, out.getvalue(), "", 0.0))
    return runs


def edit_report(runs, index: int, edit) -> list[tuple]:
    runs = list(runs)
    code, out, err, elapsed = runs[index]
    report = json.loads(out)
    edit(report["result"])
    runs[index] = (code, json.dumps(report), err, elapsed)
    return runs


def test_caught() -> None:
    # the witness checker alone: identity map of a path into a triangle
    path = oracles.Graph(3, [(0, 1), (1, 2)])
    triangle = oracles.Graph(3, [(0, 1), (1, 2), (0, 2)])
    expect(oracles.witness_problems(path, triangle, [(0, 0), (1, 1), (2, 2)], 3, False) != [],
           "non-adjacency violation not caught")

    root = run.STATE / "caught"
    (solve,) = workloads.build("fpt-sparse", 1, root)[0][:1]
    checker = checks.Checker("fpt-sparse")
    runs = cli_runs(solve.argvs)
    problems, _ = checker.check(solve, runs)
    expect(problems == [], f"genuine fpt answer rejected: {problems}")

    def duplicate(result):
        result["witness"][-1] = result["witness"][0]

    def oversize(result):
        result["size"] += 1

    def drop(result):
        result["witness"].pop()

    for name, edit in (("duplicated pair", duplicate), ("size", oversize), ("dropped pair", drop)):
        problems, _ = checker.check(solve, edit_report(runs, 0, edit))
        expect(problems != [], f"corrupted witness ({name}) not caught")

    workloads.GADGET_MIX = {"3partition-no": 1, "3partition-yes": 1, "clique-incidence": 0, "cross-compose": 0}
    gadgets = workloads.build("gadget-isi", 1, root)[0]
    checker = checks.Checker("gadget-isi")
    for inst in gadgets:
        runs = cli_runs(inst.argvs)
        problems, _ = checker.check(inst, runs)
        expect(problems == [], f"genuine gadget answer rejected: {problems}")
        answer = json.loads(runs[1][1])["result"]["answer"]

        def flip(result):
            result["answer"] = not answer
            result["witness"] = None if answer else [[0, 0]]

        problems, _ = checker.check(inst, edit_report(runs, 1, flip))
        expect(problems != [], f"flipped gadget answer ({answer} -> {not answer}) not caught")

    small = [i for i in workloads.build("analyze-cover", 1, root)[0] if i.kind == "analyze-n10"]
    checker = checks.Checker("analyze-cover")
    runs = cli_runs(small[0].argvs)
    problems, _ = checker.check(small[0], runs)
    expect(problems == [], f"genuine analyze answer rejected: {problems}")

    def bump(result):
        result["fvs_size"] += 1

    problems, _ = checker.check(small[0], edit_report(runs, 0, bump))
    expect(problems != [], "wrong fvs_size not caught")


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    shrink()
    test_metrics(spec)
    test_deadline()
    test_caught()
    for message in errors:
        print("FAIL " + message)
    print("selftest: " + ("ok" if not errors else f"{len(errors)} failures"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
