"""End-to-end tests of the command-line surface via main(argv)."""

import dataclasses
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import mcislab
from mcislab import cli, harness, params, solvers
from mcislab.cli import (
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_REFUSED,
    EXIT_USAGE,
    build_parser,
    main,
)
from mcislab.corpus import random_graph, random_graph_pair
from mcislab.graphs import (
    Graph,
    MappingError,
    VertexMapping,
    complete_graph,
    cycle_graph,
    edgeless_graph,
    induces_connected,
    parse_graph,
    path_graph,
    serialize_graph,
)
from mcislab.params import min_vertex_cover, vertex_cover_number
from mcislab.reductions import CheckOutcome, ReductionReport, has_clique, read_reduction
from mcislab.solvers import (
    OracleBoundError,
    SolveQuery,
    WitnessError,
    mcis_bruteforce,
    mcis_vc_fpt,
    solve,
)


@pytest.fixture
def graph_files(tmp_path):
    def write(name, g):
        path = tmp_path / name
        path.write_text(serialize_graph(g))
        return str(path)

    return write


# --- solve ------------------------------------------------------------------


def test_solve_mcis_p3_k3(graph_files, capsys):
    p3 = graph_files("p3.el", path_graph(3))
    k3 = graph_files("k3.el", complete_graph(3))
    assert main(["solve", "--problem", "mcis", p3, k3]) == EXIT_OK
    out = capsys.readouterr().out
    assert "size 2" in out


def test_solve_mccis_self(graph_files, capsys):
    k3 = graph_files("k3.el", complete_graph(3))
    assert main(["solve", "--problem", "mccis", k3, k3]) == EXIT_OK
    assert "size 3" in capsys.readouterr().out


def test_solve_isi_yes_and_no(graph_files, capsys):
    p3 = graph_files("p3.el", path_graph(3))
    p5 = graph_files("p5.el", path_graph(5))
    k3 = graph_files("k3.el", complete_graph(3))
    assert main(["solve", "--problem", "isi", p3, p5]) == EXIT_OK
    first = capsys.readouterr().out
    assert first.startswith("yes")
    assert "witness:" in first
    assert main(["solve", "--problem", "isi", k3, p5]) == EXIT_OK
    assert capsys.readouterr().out.startswith("no")


def test_solve_isi_json_reports_search_nodes(graph_files, capsys):
    p3 = graph_files("p3.el", path_graph(3))
    p5 = graph_files("p5.el", path_graph(5))
    assert main(["solve", "--problem", "isi", "--json", p3, p5]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["answer"] is True
    assert report["stats"]["search_nodes"] >= 3


def test_solve_isi_empty_pattern_answers_yes_in_text_and_json(graph_files, capsys):
    empty = graph_files("empty.el", edgeless_graph(0))
    p3 = graph_files("p3.el", path_graph(3))
    assert main(["solve", "--problem", "isi", empty, p3]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == ["yes", "witness: "]
    assert main(["solve", "--problem", "isi", "--json", empty, p3]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["result"] == {"answer": True, "witness": []}


def _into_closed_pipe(*args):
    """Exit code and stderr of ``python -m mcislab.cli *args`` whose stdout reader has gone."""
    src = str(Path(mcislab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "mcislab.cli", *args]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()  # the reader goes away before the report is written
    err = proc.stderr.read().decode()
    proc.stderr.close()
    return proc.wait(timeout=60), err


def test_solve_into_a_closed_pipe_exits_1_without_a_traceback(graph_files):
    p3 = graph_files("p3.el", path_graph(3))
    k3 = graph_files("k3.el", complete_graph(3))
    code, err = _into_closed_pipe("solve", "--problem", "mcis", "--json", p3, k3)
    assert code == EXIT_USAGE
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


def test_solve_decision_threshold(graph_files, capsys):
    p3 = graph_files("p3.el", path_graph(3))
    k3 = graph_files("k3.el", complete_graph(3))
    assert main(["solve", "--problem", "mcis", p3, k3, "-k", "2"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("yes")
    assert main(["solve", "--problem", "mcis", p3, k3, "-k", "3"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("no")


def test_solve_json_report_shape(graph_files, capsys):
    # on C6 against itself the search beats its incumbent of 5 (two cover
    # vertices with their neighbors), so it reaches a configuration
    c6 = graph_files("c6.el", cycle_graph(6))
    assert main(["solve", "--problem", "mcis", "--json", c6, c6]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == "solve"
    assert report["result"]["size"] == 6
    assert report["result"]["method"] == "vc-fpt"
    assert "inputs_digest" in report and "timings_ms" in report
    assert report["stats"]["incumbent"] == 5
    assert report["stats"]["configurations"] >= 1
    assert report["stats"]["bijections_tried"] >= report["stats"]["bijections_pruned"] >= 0
    assert report["stats"]["pairs_tried"] >= report["stats"]["pairs_pruned"] >= 0
    assert report["stats"]["buckets_pruned"] >= 0
    assert report["stats"]["choice_nodes"] >= report["stats"]["configurations"] >= 1


def test_solve_json_deterministic_modulo_timings(graph_files, capsys):
    p3 = graph_files("p3.el", path_graph(3))
    k3 = graph_files("k3.el", complete_graph(3))
    reports = []
    for _ in range(2):
        main(["solve", "--problem", "mcis", "--json", p3, k3])
        report = json.loads(capsys.readouterr().out)
        del report["timings_ms"]
        reports.append(report)
    assert reports[0] == reports[1]


def test_solve_refuses_oversized_brute(graph_files, capsys):
    big = graph_files("p11.el", path_graph(11))
    code = main(
        ["solve", "--problem", "mcis", "--algo", "brute", big, big]
    )
    assert code == EXIT_REFUSED
    assert capsys.readouterr().err.startswith("error: oracle bound 10 exceeded")


@pytest.mark.parametrize("problem", ["mcis", "mccis"])
def test_solve_auto_past_the_cover_cutoff_uses_the_fpt_or_refuses(problem, graph_files, capsys):
    # K10 has cover 9, above the cutoff 8, but 10 vertices are within the oracle bound
    k10 = graph_files("k10.el", complete_graph(10))
    assert main(["solve", "--problem", problem, "--json", k10, k10]) == EXIT_OK
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["method"] == "vc-fpt" and result["size"] == 10
    k11 = graph_files("k11.el", complete_graph(11))
    assert main(["solve", "--problem", problem, k11, k11]) == EXIT_REFUSED
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: refusing: a minimum vertex cover exceeds cutoff 8 "
        "and inputs exceed the oracle bound 10\n"
    )


@pytest.mark.parametrize("problem", ["mcis", "mccis"])
def test_solve_auto_answers_k10_pairs_without_brute_force(problem, graph_files, capsys, monkeypatch):
    # within the oracle bound auto has one route, the FPT, even at K10's cover
    # of 9; a common induced subgraph of K10 is a clique, so the optimum is ω(G)
    def refuse(query):
        raise AssertionError("auto reached the brute-force oracle")

    monkeypatch.setattr(solvers, "mcis_bruteforce", refuse)
    k10 = graph_files("k10.el", complete_graph(10))
    rng = random.Random(11)
    for i in range(24):
        g = random_graph(rng, rng.randint(2, 10), rng.choice((0.2, 0.5, 0.8, 0.9)))
        omega = max(l for l in range(1, g.n + 1) if has_clique(g, l))
        assert main(["solve", "--problem", problem, "--json", k10, graph_files(f"g{i}.el", g)]) == EXIT_OK
        result = json.loads(capsys.readouterr().out)["result"]
        assert (result["size"], result["method"]) == (omega, "vc-fpt"), sorted(g.edges)


@pytest.mark.parametrize("problem", ["mcis", "mccis"])
def test_solve_auto_gate_admits_a_cover_of_the_cutoff_and_refuses_one_more(problem, graph_files, capsys):
    # past the oracle bound, disjoint edges have a cover of one per edge: 8
    # edges sit at the cutoff and 9 one past it
    def edges(count):
        return Graph.from_edges(2 * count, [(2 * i, 2 * i + 1) for i in range(count)])

    p3 = graph_files("p3.el", path_graph(3))
    at, past = graph_files("e8.el", edges(8)), graph_files("e9.el", edges(9))
    assert main(["solve", "--problem", problem, "--json", at, p3]) == EXIT_OK
    result = json.loads(capsys.readouterr().out)["result"]
    assert (result["size"], result["method"]) == (2, "vc-fpt")
    assert main(["solve", "--problem", problem, past, p3]) == EXIT_REFUSED
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: refusing: a minimum vertex cover exceeds cutoff 8 "
        "and inputs exceed the oracle bound 10\n"
    )
    query = SolveQuery(edges(9), path_graph(3), connected=problem == "mccis")
    with pytest.raises(OracleBoundError, match="exceeds cutoff 8"):
        solve(query, "auto")
    assert solve(query, "vc-fpt").size == 2


def test_solve_auto_admits_an_edgeless_graph_whose_empty_cover_fits():
    # an edgeless graph's minimum cover is empty, and falsy: the gate asks
    # whether a cover fit by `is None`, or it would refuse isolated vertices
    assert min_vertex_cover(edgeless_graph(11), 0) == frozenset()
    assert min_vertex_cover(path_graph(3), 0) is None
    for pair in ((edgeless_graph(11), path_graph(12)), (path_graph(12), edgeless_graph(11))):
        result = solve(SolveQuery(*pair), "auto")
        assert (result.size, result.method) == (6, "vc-fpt")


def test_solve_auto_refuses_dense_inputs_without_an_exact_cover(graph_files, capsys):
    # routing asks only whether both covers fit the cutoff; the exact cover
    # numbers of two G(30, 0.5) graphs took about half a minute before refusing
    paths = [graph_files(f"g{seed}.el", random_graph(random.Random(seed), 30, 0.5)) for seed in (1, 2)]
    started = time.perf_counter()
    assert main(["solve", "--problem", "mcis", *paths]) == EXIT_REFUSED
    assert time.perf_counter() - started < 3.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: refusing: a minimum vertex cover exceeds cutoff 8 "
        "and inputs exceed the oracle bound 10\n"
    )


@pytest.mark.parametrize("problem", ["mcis", "mccis"])
def test_solve_vc_fpt_takes_a_cover_deeper_than_the_recursion_limit(problem, graph_files, capsys):
    # the tripartition walk recursed once per cover vertex and ended a
    # cover of 1,100 in a RecursionError
    matching = Graph.from_edges(2_200, [(2 * i, 2 * i + 1) for i in range(1_100)])
    paths = [graph_files("matching.el", matching), graph_files("p2.el", path_graph(2))]
    argv = ["solve", "--problem", problem, "--algo", "vc-fpt", *paths]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[0] == "size 2"
    assert main([*argv, "--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["result"]["size"] == 2


def test_solve_usage_errors(graph_files, capsys):
    p3 = graph_files("p3.el", path_graph(3))
    assert main(["solve", "--problem", "isi", "--algo", "brute", p3, p3]) == EXIT_USAGE
    assert main(["solve", "--problem", "mcis", "--algo", "backtracking", p3, p3]) == EXIT_USAGE
    assert main(["solve", "--problem", "isi", "--algo", "backtracking", p3, p3]) == EXIT_USAGE
    assert main(["solve", "--problem", "nope", p3, p3]) == EXIT_USAGE
    assert main(["solve", "--problem", "mcis", p3, "/no/such/file"]) == EXIT_USAGE
    capsys.readouterr()
    # isi has no threshold to decide at
    assert main(["solve", "--problem", "isi", "-k", "5", p3, p3]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "-k applies to mcis and mccis" in captured.err


def test_solve_rejects_a_negative_threshold(graph_files, capsys):
    p3 = graph_files("p3.el", path_graph(3))
    k3 = graph_files("k3.el", complete_graph(3))
    assert main(["solve", "--problem", "mcis", "-k", "-1", p3, k3]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_solve_has_no_cover_cutoff_flag(graph_files, capsys):
    # the cutoff of --algo auto is a constant; the removed flag is rejected
    p3 = graph_files("p3.el", path_graph(3))
    assert main(["solve", "--problem", "mcis", "--vc-cutoff", "-5", p3, p3]) == EXIT_USAGE
    assert capsys.readouterr().out == ""


def test_solve_parse_error_is_usage(tmp_path):
    bad = tmp_path / "bad.el"
    bad.write_text("2 1\n0 0\n")
    ok = tmp_path / "ok.el"
    ok.write_text("2 1\n0 1\n")
    assert main(["solve", "--problem", "mcis", str(bad), str(ok)]) == EXIT_USAGE


def test_a_graph_file_that_is_not_text_is_a_usage_error(graph_files, tmp_path, capsys):
    binary = tmp_path / "binary.el"
    binary.write_bytes(b"\xff\xfe\x00")
    p3 = graph_files("p3.el", path_graph(3))
    for argv in (["analyze", str(binary)], ["solve", "--problem", "mcis", p3, str(binary)]):
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {binary}: not a text file\n"


# --- reduce -----------------------------------------------------------------


def test_reduce_clique_incidence(graph_files, tmp_path, capsys):
    k4 = graph_files("k4.el", complete_graph(4))
    outdir = tmp_path / "out"
    code = main(
        [
            "reduce", "--which", "clique-incidence", k4,
            "--clique-size", "3", "--outdir", str(outdir),
        ]
    )
    assert code == EXIT_OK
    assert "target 6" in capsys.readouterr().out
    loaded = read_reduction(outdir)
    assert loaded.kind == "clique-incidence" and loaded.target == 6


def test_reduce_cross_compose(graph_files, tmp_path):
    k4 = graph_files("k4.el", complete_graph(4))
    p4 = graph_files("p4.el", path_graph(4))
    outdir = tmp_path / "cc"
    code = main(
        [
            "reduce", "--which", "cross-compose", k4, p4,
            "--clique-size", "3", "--outdir", str(outdir),
        ]
    )
    assert code == EXIT_OK
    loaded = read_reduction(outdir)
    assert loaded.certificates["t"] == 2
    assert len(loaded.certificates["vertex_cover_z"]) == 4 * 3 // 2 + 2


def test_reduce_universal(graph_files, tmp_path):
    p2 = graph_files("p2.el", path_graph(2))
    p4 = graph_files("p4.el", path_graph(4))
    outdir = tmp_path / "lift"
    code = main(["reduce", "--which", "universal", p2, p4, "--outdir", str(outdir)])
    assert code == EXIT_OK
    assert read_reduction(outdir).target == 3


def test_reduce_universal_refuses_a_graph_with_a_cycle(graph_files, tmp_path, capsys):
    c5 = graph_files("c5.el", cycle_graph(5))
    outdir = tmp_path / "lift"
    assert main(["reduce", "--which", "universal", c5, c5, "--outdir", str(outdir)]) == EXIT_USAGE
    assert not outdir.exists()
    assert "has a cycle" in capsys.readouterr().err


def test_reduce_universal_refuses_an_input_at_the_size_bound(graph_files, tmp_path, capsys):
    # the lifted gadget would have 100,001 vertices: exit 2, and no file written
    path = graph_files("path.el", path_graph(100_000))
    outdir = tmp_path / "lift"
    assert main(["reduce", "--which", "universal", path, path, "--outdir", str(outdir)]) == EXIT_REFUSED
    assert not outdir.exists()
    assert capsys.readouterr().err == "error: the gadget would have 100001 vertices, above the size bound 100000\n"


def test_reduce_clique_incidence_refuses_a_clique_larger_than_the_graph(graph_files, tmp_path, capsys):
    # the pattern is the incidence graph of K_k, so k = 800 on a path of 3
    # once built 320,400 vertices; cross-compose refuses the same k
    p3 = graph_files("p3.el", path_graph(3))
    outdir = tmp_path / "inc"
    argv = ["reduce", "--which", "clique-incidence", p3, "--clique-size", "4", "--outdir", str(outdir)]
    assert main(argv) == EXIT_USAGE
    assert not outdir.exists()
    assert capsys.readouterr().out == ""
    argv[5] = "3"
    assert main(argv) == EXIT_OK


def test_commands_refuse_inputs_and_gadgets_above_the_size_bound(graph_files, tmp_path, capsys):
    # a size bound refuses with exit 2 and one line, before anything is built
    header = tmp_path / "header.el"
    header.write_text("100001 0\n")
    for argv in (["analyze", str(header)], ["solve", "--problem", "isi", str(header), str(header)]):
        assert main(argv) == EXIT_REFUSED
        assert capsys.readouterr().err == (
            f"error: {header}: line 1: header declares 100001 vertices, above the size bound 100000\n"
        )
    e500 = graph_files("e500.el", edgeless_graph(500))
    outdir = tmp_path / "out"
    reduces = [
        ["--which", "clique-incidence", e500, "--clique-size", "500"],
        ["--which", "3partition", "--items", "100000,100000,100000", "--groups", "1", "--target-sum", "300000"],
    ]
    for argv, size in zip(reduces, (125_250, 300_002)):
        assert main(["reduce", *argv, "--outdir", str(outdir)]) == EXIT_REFUSED
        assert not outdir.exists()
        assert capsys.readouterr().err == f"error: the gadget would have {size} vertices, above the size bound 100000\n"


def test_reduce_3partition(tmp_path, capsys):
    outdir = tmp_path / "tp"
    code = main(
        [
            "reduce", "--which", "3partition",
            "--items", "4,4,5,4,4,5", "--groups", "2", "--target-sum", "13",
            "--outdir", str(outdir),
        ]
    )
    assert code == EXIT_OK
    loaded = read_reduction(outdir)
    assert loaded.certificates["host_len"] == 15
    assert loaded.g2.n == 30


def test_reduce_has_no_host_length_flag(tmp_path, capsys):
    # the host path length is B+2, the only length the equivalence proof covers
    outdir = tmp_path / "tp"
    argv = [
        "reduce", "--which", "3partition", "--items", "1,1,1", "--groups", "1",
        "--target-sum", "3", "--host-len", "1", "--outdir", str(outdir),
    ]
    assert main(argv) == EXIT_USAGE
    assert not outdir.exists()
    assert capsys.readouterr().out == ""


def test_reduce_usage_errors(graph_files, tmp_path, capsys):
    k4 = graph_files("k4.el", complete_graph(4))
    out = str(tmp_path / "x")
    # missing inputs or flags that each builder needs; both Clique gadgets load
    # on one path, and each keeps its own message
    for argv, message in (
        (["clique-incidence", k4], "clique-incidence needs one graph file and --clique-size"),
        (["clique-incidence", k4, k4, "--clique-size", "3"],
         "clique-incidence needs one graph file and --clique-size"),
        (["cross-compose", "--clique-size", "3"], "cross-compose needs graph files and --clique-size"),
        (["universal", k4], "universal needs exactly two graph files"),
        (["3partition", "--items", "4,4,5", "--target-sum", "13"],
         "3partition needs --items, --groups and --target-sum"),
    ):
        capsys.readouterr()
        assert main(["reduce", "--which", *argv, "--outdir", out]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"
    # heterogeneous batch sizes reach the builder and fail as usage
    p3 = graph_files("p3.el", path_graph(3))
    assert (
        main(["reduce", "--which", "cross-compose", k4, p3, "--clique-size", "3", "--outdir", out])
        == EXIT_USAGE
    )
    # bad 3-partition arithmetic
    assert (
        main(
            ["reduce", "--which", "3partition", "--items", "1,2", "--groups", "1",
             "--target-sum", "3", "--outdir", out]
        )
        == EXIT_USAGE
    )
    # a Clique gadget's digest hashes its name, each source file in order, then k
    c4 = graph_files("c4.el", cycle_graph(4))
    for argv, digest in (
        (["clique-incidence", k4], "ed96f150d51c0800"),
        (["cross-compose", k4, c4], "c5e48693ff62e5ea"),
    ):
        capsys.readouterr()
        assert main(["reduce", "--which", *argv, "--clique-size", "3", "--outdir", out, "--json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["inputs_digest"] == digest


def test_reduce_3partition_refuses_items_that_are_not_integers(tmp_path, capsys):
    for items in ("4,4,x", "4,,5", "4;4;5"):
        outdir = tmp_path / "out"
        argv = ["reduce", "--which", "3partition", "--items", items, "--groups", "1",
                "--target-sum", "13", "--outdir", str(outdir)]
        assert main(argv) == EXIT_USAGE == 1
        assert capsys.readouterr().err == "error: --items must be comma-separated integers\n"
        assert not outdir.exists()


def test_reduce_to_an_outdir_it_cannot_write_is_a_usage_error(graph_files, tmp_path, capsys):
    k4 = graph_files("k4.el", complete_graph(4))
    taken = tmp_path / "taken"
    taken.write_text("a regular file\n")
    for out in (taken, taken / "below"):
        argv = ["reduce", "--which", "clique-incidence", k4, "--clique-size", "3", "--outdir", str(out)]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ") and "Traceback" not in err
    assert taken.read_text() == "a regular file\n"


# --- check ------------------------------------------------------------------


def test_check_small_run_passes(capsys):
    code = main(["check", "--suite", "oracle", "--seed", "7", "--count", "10", "--max-n", "6"])
    assert code == EXIT_OK
    assert "oracle: PASS" in capsys.readouterr().out


def test_check_json_contains_counter_totals(capsys):
    code = main(
        ["check", "--suite", "oracle", "--seed", "7", "--count", "5", "--max-n", "5", "--json"]
    )
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    suite = report["result"]["suites"][0]
    # each pair runs under both connectivity flags
    assert suite["ok"] and suite["instances"] == 10
    assert suite["counter_bound_checked"] == suite["instances"]


def test_each_question_searches_each_graph_cover_once(monkeypatch):
    # a check pair asks four questions (the oracle and the FPT, in two modes)
    # and auto past the oracle bound two (the gate and the FPT); each graph's
    # cover is searched and built once, for both modes, and a refused pair
    # stops at the first graph whose cover does not fit the cutoff
    searched, built = [], []
    real_cover, real_twins = params.min_vertex_cover, solvers.twin_partition

    def counting(g, budget=None):
        searched.append((g, budget))
        return real_cover(g, budget)

    def twins(g, cover):
        built.append(g)
        return real_twins(g, cover)

    for module in (params, solvers):
        monkeypatch.setattr(module, "min_vertex_cover", counting)
    monkeypatch.setattr(solvers, "twin_partition", twins)
    assert harness.run_oracle_suite(3, 4, 9)["ok"]
    rng = random.Random(3)
    drawn = [g for _ in range(4) for g in random_graph_pair(rng, 9)]
    assert searched == [(g, None) for g in drawn] and built == drawn

    def edges(count):
        return Graph.from_edges(2 * count, [(2 * i, 2 * i + 1) for i in range(count)])

    fits, past = (edges(8), edges(3)), edges(9)
    for connected in (False, True):
        searched.clear()
        built.clear()
        result = solve(SolveQuery(*fits, connected=connected), "auto")
        assert searched == [(g, solvers.VC_CUTOFF) for g in fits] and built == list(fits)
        assert result == mcis_vc_fpt(SolveQuery(*fits, connected=connected))
    for pair, tried in (((past, fits[1]), [past]), ((fits[1], past), [fits[1], past])):
        searched.clear()
        built.clear()
        with pytest.raises(OracleBoundError):
            solve(SolveQuery(*pair), "auto")
        assert searched == [(g, solvers.VC_CUTOFF) for g in tried] and built == []


@pytest.fixture
def fpt_one_short(monkeypatch):
    # an FPT whose witness loses its last pair: still an induced isomorphism,
    # one vertex short of the optimum
    def wrong(query, covers=None):
        result = mcis_vc_fpt(query, covers)
        return dataclasses.replace(result, witness=VertexMapping(result.witness.pairs[:-1]))

    monkeypatch.setattr(harness, "mcis_vc_fpt", wrong)


def test_oracle_suite_failures_carry_a_replayable_instance(fpt_one_short):
    report = harness.run_oracle_suite(7, 2, 6)
    assert not report["ok"] and len(report["failures"]) == report["instances"] == 4
    # each shortened witness stays connected in MCCIS, so only the size is wrong
    assert [(f["index"], f["connected"], f["problems"]) for f in report["failures"]] == [
        (0, False, ["size mismatch: fpt=2 oracle=3"]),
        (0, True, ["size mismatch: fpt=1 oracle=2"]),
        (1, False, ["size mismatch: fpt=2 oracle=3"]),
        (1, True, ["size mismatch: fpt=0 oracle=1"]),
    ]
    rng = random.Random(7)
    drawn = [random_graph_pair(rng, 6) for _ in range(2)]
    assert all(_replays(f, *drawn[f["index"]]) for f in report["failures"])


def _replays(failure, g1, g2):
    """Whether a failure's graphs read back as the instance it names."""
    return all((again.n, again.edges) == (g.n, g.edges)
               for again, g in ((parse_graph(failure["g1"]), g1), (parse_graph(failure["g2"]), g2)))


@pytest.mark.parametrize("route, seed", [("oracle", 6), ("fpt", 35)])
def test_oracle_suite_reports_a_witness_that_is_not_connected(monkeypatch, route, seed):
    # one route answering MCCIS with its MCIS witness: the seed draws one pair whose
    # MCIS witness is larger than the MCCIS optimum, and one where it is only disconnected
    solver = mcis_bruteforce if route == "oracle" else mcis_vc_fpt

    def mcis_witness(query, *covers):  # the FPT takes the suite's covers
        return solver(dataclasses.replace(query, connected=False), *covers)

    monkeypatch.setattr(harness, solver.__name__, mcis_witness)
    report = harness.run_oracle_suite(seed, 2, 6)
    rng = random.Random(seed)
    drawn = [random_graph_pair(rng, 6) for _ in range(2)]
    expected = []
    for index, (g1, g2) in enumerate(drawn):
        mcis = mcis_witness(SolveQuery(g1, g2))
        if not induces_connected(g1, [u for u, _ in mcis.witness.pairs]):
            mccis = mcis_bruteforce(SolveQuery(g1, g2, connected=True)).size
            fpt, oracle = (mccis, mcis.size) if route == "oracle" else (mcis.size, mccis)
            mismatch = [f"size mismatch: fpt={fpt} oracle={oracle}"] if fpt != oracle else []
            expected.append((index, True, [*mismatch, f"{route} witness invalid"]))
    assert [(f["index"], f["connected"], f["problems"]) for f in report["failures"]] == expected
    assert [len(problems) for *_, problems in expected] == [2, 1]
    assert all(_replays(f, *drawn[f["index"]]) for f in report["failures"])


def test_oracle_suite_reports_every_counter_above_the_bound(monkeypatch):
    monkeypatch.setattr(harness, "configuration_bound", lambda k1, k2: -1)
    report = harness.run_oracle_suite(7, 2, 6)
    assert not report["ok"] and len(report["failures"]) == report["instances"] == 4
    rng = random.Random(7)
    drawn = [random_graph_pair(rng, 6) for _ in range(2)]
    for failure in report["failures"]:
        g1, g2 = drawn[failure["index"]]
        configurations = mcis_vc_fpt(SolveQuery(g1, g2, failure["connected"])).stats.configurations
        k1, k2 = vertex_cover_number(g1), vertex_cover_number(g2)
        assert failure["problems"] == [f"counter {configurations} exceeds bound for k1={k1}, k2={k2}"]
        assert _replays(failure, g1, g2)


def test_oracle_suite_witness_check_rejects_a_mapping_the_arbiter_rejects():
    # P3 onto K3 by the identity keeps every edge but maps a non-edge onto an edge
    query = SolveQuery(path_graph(3), complete_graph(3))
    wrong = VertexMapping(((0, 0), (1, 1), (2, 2)))
    assert not solvers._answers(query, wrong)
    assert solvers._answers(query, mcis_bruteforce(query).witness)


def test_oracle_suite_witness_check_fails_on_each_condition_alone():
    # two isolated vertices onto two isolated vertices: an induced isomorphism
    # whose sides are disconnected, so only MCCIS refuses it
    g = edgeless_graph(2)
    both = VertexMapping(((0, 0), (1, 1)))
    for connected in (False, True):
        query = SolveQuery(g, g, connected=connected)
        assert solvers._answers(query, VertexMapping(()))
        assert solvers._answers(query, both) == (not connected)
    # the arbiter reads a witness before induces_connected, which would index
    # the first graph's adjacency at vertex 2 without a range check
    outside = VertexMapping(((2, 0), (3, 1)))
    with pytest.raises(MappingError):
        solvers._answers(SolveQuery(g, g, connected=True), outside)


@pytest.mark.parametrize(
    "route, name, error",
    [("mcis_vc_fpt", "fpt", WitnessError), ("mcis_bruteforce", "oracle", MappingError)],
)
def test_check_oracle_reports_a_route_whose_guard_raises(route, name, error, monkeypatch, capsys):
    # the route raises on MCCIS only, so the MCIS solves still read their bound
    real = getattr(harness, route)

    def raising(query, *covers):
        if query.connected:
            raise error("refused")
        return real(query, *covers)

    monkeypatch.setattr(harness, route, raising)
    report = harness.run_oracle_suite(7, 2, 6)
    assert report["instances"] == 4 and report["counter_bound_checked"] == 2
    expected = [f"{name} raised {error.__name__}: refused"]
    assert [(f["index"], f["connected"], f["problems"]) for f in report["failures"]] == [
        (0, True, expected),
        (1, True, expected),
    ]
    rng = random.Random(7)
    drawn = [random_graph_pair(rng, 6) for _ in range(2)]
    assert all(_replays(f, *drawn[f["index"]]) for f in report["failures"])
    argv = ["check", "--suite", "oracle", "--seed", "7", "--count", "2", "--max-n", "6"]
    assert main(argv) == EXIT_CHECK_FAILED
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert captured.err == "" and lines[0] == "oracle: FAIL (4 checks)"
    assert [json.loads(line.removeprefix("  failure: ")) for line in lines[1:]] == report["failures"]


def test_check_oracle_failure_exits_3_and_prints_each_failure(fpt_one_short, capsys):
    argv = ["check", "--suite", "oracle", "--seed", "7", "--count", "2", "--max-n", "6"]
    assert main(argv) == EXIT_CHECK_FAILED
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "oracle: FAIL (4 checks)"
    assert len(lines) == 5 and all(line.startswith("  failure: {") for line in lines[1:])


@pytest.mark.parametrize(
    "flags, code",
    [
        (["--count", "-3"], EXIT_USAGE),
        (["--max-n", "1"], EXIT_USAGE),
        (["--max-n", "11"], EXIT_REFUSED),
        (["--max-n", "30"], EXIT_REFUSED),
    ],
    ids=["count-negative", "max-n-1", "max-n-11", "max-n-30"],
)
def test_check_rejects_bad_oracle_settings(flags, code, capsys):
    assert main(["check", "--suite", "oracle", *flags]) == code
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


def test_check_reduction_suite(capsys):
    code = main(["check", "--suite", "reductions", "--seed", "3"])
    assert code == EXIT_OK
    assert "reductions: PASS" in capsys.readouterr().out


@pytest.mark.parametrize("count, checks", [(1, 34), (5, 170)])
def test_check_reduction_suite_runs_count_rounds(count, checks, capsys):
    argv = ["check", "--suite", "reductions", "--seed", "3", "--count", str(count)]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == f"reductions: PASS ({checks} checks)\n"


def test_check_reduction_suite_decides_the_seed_1_three_partition_no_instance(capsys):
    # round 1 of seed 1 draws a 3-Partition no-instance (items 4,4,6,4,4,4, B=13)
    argv = ["check", "--suite", "reductions", "--seed", "1", "--count", "1"]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == "reductions: PASS (34 checks)\n"


def test_check_reduction_failure_exits_3_and_prints_each_failed_check(monkeypatch, capsys):
    def failing(out, source_answer):
        return ReductionReport((CheckOutcome("sound", True), CheckOutcome("forced", False, out.kind)))

    monkeypatch.setattr(harness, "verify_reduction", failing)
    argv = ["check", "--suite", "reductions", "--count", "1"]
    assert main(argv) == EXIT_CHECK_FAILED
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "reductions: FAIL (8 checks)"
    # each builder's report names its output's kind, which is the builder's name
    assert lines[1:] == [
        "  failure: " + json.dumps({"builder": b, "check": "forced", "detail": b})
        for b in ("clique-incidence", "cross-compose", "universal", "3partition")
    ]


def test_check_reduction_guard_errors_are_failed_checks_of_their_builder(monkeypatch, capsys):
    # the universal round's source answer and the 3-Partition round's verifier raise
    real = harness.verify_reduction

    def isi_raises(pattern, host):
        raise WitnessError("isi refused")

    def verify(out, source_answer):
        if out.kind == "3partition":
            raise MappingError("verify refused")
        return real(out, source_answer)

    monkeypatch.setattr(harness, "isi_backtracking", isi_raises)
    monkeypatch.setattr(harness, "verify_reduction", verify)
    argv = ["check", "--suite", "reductions", "--seed", "3", "--count", "1"]
    assert main(argv) == EXIT_CHECK_FAILED
    captured = capsys.readouterr()
    # 34 checks, less the universal round's 7 and the 3-Partition round's 7,
    # plus one failed check for each
    assert captured.err == ""
    assert captured.out.splitlines() == [
        "reductions: FAIL (22 checks)",
        "  failure: " + json.dumps({"builder": "universal", "check": "guard", "detail": "WitnessError: isi refused"}),
        "  failure: " + json.dumps({"builder": "3partition", "check": "guard", "detail": "MappingError: verify refused"}),
    ]


def test_check_reduction_suite_rejects_a_zero_count(capsys):
    assert main(["check", "--suite", "reductions", "--count", "0"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


# --- analyze ----------------------------------------------------------------


def test_analyze_c5(tmp_path, capsys):
    path = tmp_path / "c5.el"
    path.write_text("5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n")
    assert main(["analyze", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "girth 5" in out
    assert "vertex_cover_size 3" in out
    assert "bipartite False" in out


def test_analyze_into_a_closed_pipe_exits_1_with_nothing_on_stderr(graph_files):
    c5 = graph_files("c5.el", cycle_graph(5))
    assert _into_closed_pipe("analyze", c5) == (EXIT_USAGE, "")


def test_analyze_forest_reports_acyclic(graph_files, capsys):
    p4 = graph_files("p4.el", path_graph(4))
    assert main(["analyze", p4]) == EXIT_OK
    out = capsys.readouterr().out
    assert "girth acyclic" in out
    assert "fvs_size 0" in out


def test_analyze_skips_the_fvs_above_the_oracle_bound(graph_files, capsys):
    p11 = graph_files("p11.el", path_graph(11))
    assert main(["analyze", p11]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "fvs_size skipped (above oracle bound)"
    assert "vertex_cover_size 5" in lines


def test_analyze_rejects_a_wrong_header_edge_count(tmp_path, capsys):
    path = tmp_path / "short.el"
    path.write_text("3 7\n0 1\n")
    assert main(["analyze", str(path)]) == EXIT_USAGE
    assert "header declares 7 edges, found 1 edge lines" in capsys.readouterr().err


def test_analyze_json(graph_files, capsys):
    k3 = graph_files("k3.el", complete_graph(3))
    assert main(["analyze", "--json", k3]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["girth"] == 3
    assert report["result"]["c4_free"] is True


def test_analyze_covers_many_disjoint_triangles_component_by_component(graph_files, capsys):
    # one cover search over the whole union branched once per triangle and
    # ended in a RecursionError after about 6 s; per component it is linear.
    # On one long component, a forcing loop toward the lexicographically
    # smallest cover searched the whole residual component once per vertex
    # outside its certificate (1.8 s on the chain, 4.6 s on the path); one
    # search per component takes milliseconds
    edges = [(3 * t + a, 3 * t + b) for t in range(1_200) for a, b in ((0, 1), (1, 2), (0, 2))]
    triangles = Graph.from_edges(3_600, edges)
    started = time.perf_counter()
    assert vertex_cover_number(triangles) == 2_400
    assert time.perf_counter() - started < 1.0
    started = time.perf_counter()
    assert len(min_vertex_cover(triangles)) == 2_400
    assert time.perf_counter() - started < 1.0
    assert main(["analyze", "--json", graph_files("triangles.el", triangles)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["result"]["vertex_cover_size"] == 2_400
    cycle = random.Random(1).sample(range(5_000), 5_000)
    path = random.Random(1).sample(range(6_000), 6_000)
    long_components = [
        Graph.from_edges(3_600, edges + [(3 * t + 2, 3 * t + 3) for t in range(1_199)]),
        Graph.from_edges(5_000, [(cycle[v], cycle[(v + 1) % 5_000]) for v in range(5_000)]),
        Graph.from_edges(6_000, [(path[v], path[v + 1]) for v in range(5_999)]),
    ]
    for g in long_components:
        started = time.perf_counter()
        cover = min_vertex_cover(g)
        assert time.perf_counter() - started < 1.0, g.n
        assert all(u in cover or v in cover for u, v in g.edges)
        assert len(cover) == vertex_cover_number(g)


def test_every_command_takes_adversarial_shapes_within_two_seconds(graph_files, tmp_path, capsys):
    # the cover search ended the triangle chain in a RecursionError, and
    # analyze took 18 s on the cycle, searching every root to depth 2,500.
    # A relabelled path holds the cover search's scan for each next leaf to
    # time, and a 10-byte header once cost analyze 40 s and 1.6 GB
    triangles = [(3 * t + a, 3 * t + b) for t in range(1_200) for a, b in ((0, 1), (1, 2), (0, 2))]
    label = random.Random(1).sample(range(6_000), 6_000)
    shapes = {
        "chain": Graph.from_edges(3_600, triangles + [(3 * t + 2, 3 * t + 3) for t in range(1_199)]),
        "cycle": cycle_graph(5_000),
        "path": path_graph(6_000),
        "relabelled-path": Graph.from_edges(6_000, [(label[v], label[v + 1]) for v in range(5_999)]),
        "star": Graph.from_edges(5_001, [(0, v) for v in range(1, 5_001)]),
    }
    paths = {name: graph_files(f"{name}.el", g) for name, g in shapes.items()}
    paths["header"] = str(tmp_path / "header.el")
    Path(paths["header"]).write_text("3000000 0\n")
    p3 = graph_files("p3.el", path_graph(3))
    for name, path in paths.items():
        solves = [["solve", "--problem", problem, p3, path] for problem in ("isi", "mcis", "mccis")]
        for argv in [["analyze", path], *solves]:
            started = time.perf_counter()
            assert main(argv) in (EXIT_OK, EXIT_USAGE, EXIT_REFUSED), (name, argv[:3])
            assert time.perf_counter() - started < 2.0, (name, argv[:3])
            capsys.readouterr()


# --- the one report path ----------------------------------------------------


@pytest.mark.parametrize(
    "argv, text",
    [
        (
            ["solve", "--problem", "mcis", "{p3}", "{k3}"],
            lambda r: [f"size {r['size']}", "witness: " + " ".join(f"{u}->{v}" for u, v in r["witness"])],
        ),
        (["solve", "--problem", "isi", "{p3}", "{k3}"], lambda r: ["no"]),
        (
            ["reduce", "--which", "universal", "{p3}", "{p3}", "--outdir", "{out}"],
            lambda r: [
                f"kind {r['kind']}",
                f"target {r['target']}",
                "certificates: " + json.dumps(r["certificates"]),
                f"written to {r['outdir']}",
            ],
        ),
        (["check", "--suite", "reductions", "--count", "1"], lambda r: ["reductions: PASS (34 checks)"]),
        (["analyze", "{k3}"], lambda r: [f"{key} {value}" for key, value in r.items()]),
    ],
    ids=["solve", "solve-isi", "reduce", "check", "analyze"],
)
def test_every_command_builds_one_report_shape(argv, text, graph_files, tmp_path, capsys):
    # main alone builds the report, so every command has the same keys in the
    # same order, and only solve, isi included, carries solver stats; without
    # --json the same call prints its result as lines
    names = {"p3": graph_files("p3.el", path_graph(3)), "k3": graph_files("k3.el", complete_graph(3))}
    argv = [arg.format(**names, out=tmp_path / "out") for arg in argv]
    assert main([*argv, "--json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    keys = ["command", "flags", "inputs_digest", "result", "timings_ms"]
    assert list(report) == keys + ["stats"] * (argv[0] == "solve")
    assert report["command"] == argv[0] and list(report["timings_ms"]) == ["total"]
    assert not {"command", "func", "json"} & set(report["flags"])
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == text(report["result"])


def test_a_usage_error_does_not_spoil_the_next_call_in_one_process(graph_files, capsys):
    p3 = graph_files("p3.el", path_graph(3))
    assert main(["solve", "--problem", "mcis", p3]) == EXIT_USAGE
    assert main(["analyze", p3]) == EXIT_OK
    captured = capsys.readouterr()
    assert "the following arguments are required: g2" in captured.err
    assert captured.out.splitlines()[:2] == ["n 3", "m 2"]


def test_the_argument_grammar_is_built_once_per_process():
    assert build_parser() is build_parser()


# --- round trip: reduce then solve ------------------------------------------


def test_reduce_then_solve_round_trip(graph_files, tmp_path, capsys):
    k4 = graph_files("k4.el", complete_graph(4))
    outdir = tmp_path / "rt"
    main(["reduce", "--which", "clique-incidence", k4, "--clique-size", "3",
          "--outdir", str(outdir)])
    capsys.readouterr()
    code = main(
        ["solve", "--problem", "isi", str(outdir / "g1.edgelist"), str(outdir / "g2.edgelist")]
    )
    assert code == EXIT_OK
    assert capsys.readouterr().out.startswith("yes")
