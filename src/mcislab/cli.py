"""Command-line surface: solve, reduce, check, analyze.

Each ``cmd_*`` returns an :data:`Outcome` and :func:`main` alone times the
command and prints its text lines or, with ``--json``, the run report: keys
``command``, ``flags``, ``inputs_digest``, ``result``, ``timings_ms`` and,
for ``solve``, ``stats``.  The argument grammar is built once per process.
Exit codes: 0 ok, 1 usage or input error (or a stdout closed by its reader),
2 refused (size bounds), 3 cross-validation failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import os
import sys
import time
from pathlib import Path

from . import harness
from .graphs import Graph, GraphParseError, SizeBoundError, graph_stats, parse_graph
from .params import min_feedback_vertex_set, vertex_cover_number
from .reductions import (
    CliqueInstance,
    ThreePartitionInstance,
    clique_to_incidence_isi,
    cross_compose,
    isi_to_mccis,
    three_partition_to_forest_isi,
    write_reduction,
)
from .solvers import (
    ORACLE_BOUND,
    OracleBoundError,
    SolveQuery,
    SolveStats,
    isi_backtracking,
    mcis_bruteforce,
    mcis_vc_fpt,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REFUSED = 2
EXIT_CHECK_FAILED = 3

# `solve --algo auto` runs the FPT solver when the larger cover is at most this
VC_CUTOFF = 8


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _digest(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def _load_graph(path: str) -> tuple[Graph, str]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: not a text file") from exc
    try:
        return parse_graph(text), text
    except GraphParseError as exc:
        raise CliError(f"{path}: {exc}") from exc
    except SizeBoundError as exc:
        raise CliError(f"{path}: {exc}", EXIT_REFUSED) from exc


# ---------------------------------------------------------------------------
# subcommands, each returning what main reports
Outcome = tuple[int, str, dict, list[str], SolveStats | None]


def cmd_solve(args: argparse.Namespace) -> Outcome:
    if args.k is not None and args.k < 0:
        raise CliError(f"-k must be non-negative, got {args.k}")
    g1, text1 = _load_graph(args.g1)
    g2, text2 = _load_graph(args.g2)
    digest = _digest(args.problem, args.algo, text1, text2, str(args.k))

    if args.problem == "isi":
        if args.algo != "auto":
            raise CliError("isi only supports --algo auto")
        if args.k is not None:
            raise CliError("-k applies to mcis and mccis")
        stats = SolveStats()
        witness = isi_backtracking(g1, g2, stats)
        result = {
            "answer": witness is not None,
            "witness": list(witness.pairs) if witness is not None else None,
        }
        lines = ["yes" if witness is not None else "no"]
        if witness is not None:
            lines.append("witness: " + " ".join(f"{u}->{v}" for u, v in witness.pairs))
        return EXIT_OK, digest, result, lines, stats

    query = SolveQuery(g1, g2, connected=args.problem == "mccis")
    algo = args.algo
    if algo == "auto":
        if max(vertex_cover_number(g1, VC_CUTOFF), vertex_cover_number(g2, VC_CUTOFF)) <= VC_CUTOFF:
            algo = "vc-fpt"
        elif max(g1.n, g2.n) <= ORACLE_BOUND:
            algo = "brute"
        else:
            raise CliError(
                f"refusing: a minimum vertex cover exceeds cutoff {VC_CUTOFF} "
                f"and inputs exceed the oracle bound {ORACLE_BOUND}",
                EXIT_REFUSED,
            )
    try:
        solved = mcis_vc_fpt(query) if algo == "vc-fpt" else mcis_bruteforce(query)
    except OracleBoundError as exc:
        raise CliError(str(exc), EXIT_REFUSED) from exc
    result = {"size": solved.size, "witness": list(solved.witness.pairs), "method": solved.method}
    lines = []
    if args.k is not None:
        result["answer"] = solved.size >= args.k
        lines.append("yes" if result["answer"] else "no")
    lines.append(f"size {solved.size}")
    lines.append("witness: " + " ".join(f"{u}->{v}" for u, v in solved.witness.pairs))
    return EXIT_OK, digest, result, lines, solved.stats


def cmd_reduce(args: argparse.Namespace) -> Outcome:
    try:
        if args.which == "clique-incidence":
            if len(args.inputs) != 1 or args.clique_size is None:
                raise CliError("clique-incidence needs one graph file and --clique-size")
            g, text = _load_graph(args.inputs[0])
            # k above n cannot embed, and the pattern, built from K_k, grows as k^2
            CliqueInstance(g, args.clique_size)
            out = clique_to_incidence_isi(g, args.clique_size)
            digest = _digest(args.which, text, str(args.clique_size))
        elif args.which == "cross-compose":
            if not args.inputs or args.clique_size is None:
                raise CliError("cross-compose needs graph files and --clique-size")
            batch, texts = [], []
            for path in args.inputs:
                g, text = _load_graph(path)
                batch.append(CliqueInstance(g, args.clique_size))
                texts.append(text)
            out = cross_compose(batch)
            digest = _digest(args.which, *texts, str(args.clique_size))
        elif args.which == "universal":
            if len(args.inputs) != 2:
                raise CliError("universal needs exactly two graph files")
            g1, text1 = _load_graph(args.inputs[0])
            g2, text2 = _load_graph(args.inputs[1])
            out = isi_to_mccis(g1, g2)
            digest = _digest(args.which, text1, text2)
        else:  # 3partition
            if args.items is None or args.groups is None or args.target_sum is None:
                raise CliError("3partition needs --items, --groups and --target-sum")
            items = tuple(int(x) for x in args.items.split(","))
            inst = ThreePartitionInstance(items, args.groups, args.target_sum)
            out = three_partition_to_forest_isi(inst)
            digest = _digest(args.which, args.items, str(args.groups), str(args.target_sum))
    except SizeBoundError as exc:
        raise CliError(str(exc), EXIT_REFUSED) from exc
    except ValueError as exc:
        raise CliError(str(exc)) from exc

    try:
        write_reduction(out, args.outdir)
    except OSError as exc:
        raise CliError(f"cannot write {args.outdir}: {exc}") from exc
    result = {"kind": out.kind, "target": out.target, "certificates": out.certificates, "outdir": args.outdir}
    lines = [
        f"kind {out.kind}",
        f"target {out.target}",
        "certificates: " + json.dumps(out.certificates, default=str),
        f"written to {args.outdir}",
    ]
    return EXIT_OK, digest, result, lines, None


def cmd_check(args: argparse.Namespace) -> Outcome:
    reports = []
    if args.count < 1:
        raise CliError(f"--count must be at least 1, got {args.count}")
    if args.suite in ("oracle", "all"):
        if args.max_n < 2:
            raise CliError(f"--max-n must be at least 2, got {args.max_n}")
        if args.max_n > ORACLE_BOUND:
            raise CliError(f"--max-n {args.max_n} exceeds the oracle bound {ORACLE_BOUND}", EXIT_REFUSED)
        reports.append(harness.run_oracle_suite(args.seed, args.count, args.max_n))
    if args.suite in ("reductions", "all"):
        reports.append(harness.run_reduction_suite(args.seed, args.count))
    ok = all(r["ok"] for r in reports)
    digest = _digest(args.suite, str(args.seed), str(args.count), str(args.max_n))
    result = {"suites": reports, "ok": ok}
    lines = []
    for r in reports:
        label = r["suite"]
        total = r.get("instances", r.get("checks"))
        lines.append(f"{label}: {'PASS' if r['ok'] else 'FAIL'} ({total} checks)")
        for failure in r["failures"]:
            lines.append(f"  failure: {json.dumps(failure)}")
    return (EXIT_OK if ok else EXIT_CHECK_FAILED), digest, result, lines, None


def cmd_analyze(args: argparse.Namespace) -> Outcome:
    g, text = _load_graph(args.file)
    stats = graph_stats(g)
    fvs_size = min_feedback_vertex_set(g).size if g.n <= ORACLE_BOUND else None
    result = {
        "n": g.n,
        "m": g.m,
        "connected": stats.components <= 1,
        "components": stats.components,
        "girth": stats.girth if stats.girth is not None else "acyclic",
        "bipartite": stats.bipartite,
        "c4_free": stats.c4_free,
        "vertex_cover_size": vertex_cover_number(g),
        "fvs_size": fvs_size,
    }
    lines = [f"{key} {value}" for key, value in result.items()]
    if fvs_size is None:
        lines[-1] = "fvs_size skipped (above oracle bound)"
    return EXIT_OK, _digest(text), result, lines, None


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcislab",
        description="Workbench for maximum common (connected) induced subgraph problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run a solver on two graph files")
    solve.add_argument("--problem", choices=("mcis", "mccis", "isi"), required=True)
    solve.add_argument("--algo", choices=("auto", "brute", "vc-fpt"), default="auto")
    solve.add_argument("g1")
    solve.add_argument("g2")
    solve.add_argument("-k", type=int, default=None, help="decision threshold")
    solve.add_argument("--json", action="store_true")
    solve.set_defaults(func=cmd_solve)

    reduce_ = sub.add_parser("reduce", help="run a gadget builder")
    reduce_.add_argument(
        "--which",
        choices=("clique-incidence", "cross-compose", "universal", "3partition"),
        required=True,
    )
    reduce_.add_argument("inputs", nargs="*", help="input graph files")
    reduce_.add_argument("--clique-size", type=int, default=None)
    reduce_.add_argument("--items", default=None, help="comma-separated 3-partition items")
    reduce_.add_argument("--groups", type=int, default=None)
    reduce_.add_argument("--target-sum", type=int, default=None)
    reduce_.add_argument("--outdir", required=True)
    reduce_.add_argument("--json", action="store_true")
    reduce_.set_defaults(func=cmd_reduce)

    check = sub.add_parser("check", help="randomized cross-validation")
    check.add_argument("--suite", choices=("oracle", "reductions", "all"), default="all")
    check.add_argument("--seed", type=int, default=1)
    check.add_argument("--count", type=int, default=50)
    check.add_argument("--max-n", type=int, default=7)
    check.add_argument("--json", action="store_true")
    check.set_defaults(func=cmd_check)

    analyze = sub.add_parser("analyze", help="structural facts about one graph")
    analyze.add_argument("file")
    analyze.add_argument("--json", action="store_true")
    analyze.set_defaults(func=cmd_analyze)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    started = time.perf_counter()
    try:
        code, digest, result, lines, stats = args.func(args)
        if args.json:
            report = {
                "command": args.command,
                "flags": {k: v for k, v in vars(args).items() if k not in ("command", "func", "json")},
                "inputs_digest": digest,
                "result": result,
                "timings_ms": {"total": round((time.perf_counter() - started) * 1000, 3)},
            }
            if stats is not None:
                report["stats"] = dataclasses.asdict(stats)
            lines = [json.dumps(report, indent=2, default=str)]
        print(*lines, sep="\n")
        sys.stdout.flush()  # a closed reader surfaces here, not at interpreter exit
        return code
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except BrokenPipeError:
        # stdout's reader is gone: send what is still buffered to devnull, as
        # the Python docs' SIGPIPE note does, so the exit flush does not fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
