"""End-to-end tests of the command-line surface via main(argv)."""

import json

import pytest

from mcislab.cli import (
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_REFUSED,
    EXIT_USAGE,
    main,
)
from mcislab.graphs import complete_graph, path_graph, serialize_graph
from mcislab.reductions import read_reduction


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


def test_solve_decision_threshold(graph_files, capsys):
    p3 = graph_files("p3.el", path_graph(3))
    k3 = graph_files("k3.el", complete_graph(3))
    assert main(["solve", "--problem", "mcis", p3, k3, "-k", "2"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("yes")
    assert main(["solve", "--problem", "mcis", p3, k3, "-k", "3"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("no")


def test_solve_json_report_shape(graph_files, capsys):
    p3 = graph_files("p3.el", path_graph(3))
    k3 = graph_files("k3.el", complete_graph(3))
    assert main(["solve", "--problem", "mcis", "--json", p3, k3]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == "solve"
    assert report["result"]["size"] == 2
    assert report["result"]["method"] == "vc-fpt"
    assert "inputs_digest" in report and "timings_ms" in report
    assert report["stats"]["configurations"] >= 1
    assert report["stats"]["bijections_tried"] >= report["stats"]["bijections_pruned"] >= 0


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


def test_solve_refuses_oversized_brute(graph_files, capsys, monkeypatch):
    monkeypatch.setenv("MCIS_ORACLE_BOUND", "4")
    big = graph_files("p6.el", path_graph(6))
    code = main(
        ["solve", "--problem", "mcis", "--algo", "brute", big, big]
    )
    assert code == EXIT_REFUSED


def test_solve_usage_errors(graph_files):
    p3 = graph_files("p3.el", path_graph(3))
    assert main(["solve", "--problem", "isi", "--algo", "brute", p3, p3]) == EXIT_USAGE
    assert main(["solve", "--problem", "mcis", "--algo", "backtracking", p3, p3]) == EXIT_USAGE
    assert main(["solve", "--problem", "nope", p3, p3]) == EXIT_USAGE
    assert main(["solve", "--problem", "mcis", p3, "/no/such/file"]) == EXIT_USAGE


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


def test_reduce_3partition_rejects_a_bad_host_length(tmp_path, capsys):
    argv = [
        "reduce", "--which", "3partition", "--items", "4,4,5,4,4,5", "--groups", "2",
        "--target-sum", "13", "--host-len", "-2", "--outdir", str(tmp_path / "tp"),
    ]
    assert main(argv) == EXIT_USAGE
    assert "host_len must be at least 1" in capsys.readouterr().err


def test_reduce_usage_errors(graph_files, tmp_path):
    k4 = graph_files("k4.el", complete_graph(4))
    out = str(tmp_path / "x")
    # missing --clique-size
    assert main(["reduce", "--which", "clique-incidence", k4, "--outdir", out]) == EXIT_USAGE
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


@pytest.mark.parametrize("count, checks", [(1, 24), (5, 120)])
def test_check_reduction_suite_runs_count_rounds(count, checks, capsys):
    argv = ["check", "--suite", "reductions", "--seed", "3", "--count", str(count)]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == f"reductions: PASS ({checks} checks)\n"


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


def test_analyze_forest_reports_acyclic(graph_files, capsys):
    p4 = graph_files("p4.el", path_graph(4))
    assert main(["analyze", p4]) == EXIT_OK
    out = capsys.readouterr().out
    assert "girth acyclic" in out
    assert "fvs_size 0" in out


def test_analyze_rejects_a_bad_oracle_bound(graph_files, capsys, monkeypatch):
    p4 = graph_files("p4.el", path_graph(4))
    for bad in ("abc", "-2", "", "2.5"):
        monkeypatch.setenv("MCIS_ORACLE_BOUND", bad)
        assert main(["analyze", p4]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: MCIS_ORACLE_BOUND must be a non-negative integer")


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
