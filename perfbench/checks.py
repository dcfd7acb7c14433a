"""Checks of each instance's output against an independent reference.

``Checker.check`` returns the problems found (empty when the answer is
right) and the deterministic counters of the instance, which must repeat
exactly between runs of the same seed.  References are computed lazily and
cached, after the timed loop.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import oracles
from oracles import Graph, witness_problems
from workloads import load_pool


def configuration_bound(k1: int, k2: int) -> int:
    """The paper's ceiling on configurations explored for cover sizes k1, k2."""
    return 3**k1 * 3**k2 * math.factorial(max(k1, k2)) * 2 ** (2 * k1 * k2)


class Checker:
    def __init__(self, workload: str):
        self._check = {"fpt-sparse": self._fpt, "check-oracle": self._check_suite,
                       "gadget-isi": self._gadget, "analyze-cover": self._analyze}[workload]
        self.pool = {e["index"]: e["sizes"] for e in load_pool()} if workload == "fpt-sparse" else {}
        self.skipped = 0  # optimum checks skipped because networkx is absent
        self._graphs: dict[str, Graph] = {}
        self._cover: dict[str, int] = {}
        self._mcis: dict[tuple[str, str], int | None] = {}
        self._facts: dict[str, dict] = {}

    def graph(self, path: str) -> Graph:
        if path not in self._graphs:
            self._graphs[path] = Graph.from_text(Path(path).read_text())
        return self._graphs[path]

    def cover(self, path: str) -> int:
        if path not in self._cover:
            self._cover[path] = oracles.vertex_cover_size(self.graph(path))
        return self._cover[path]

    def check(self, inst, runs) -> tuple[list[str], dict]:
        for code, _, err, _ in runs:
            if code != 0:
                return [f"exit code {code}: {err.strip()[-300:]}"], {}
        try:
            reports = [json.loads(out) for _, out, _, _ in runs]
        except json.JSONDecodeError as exc:
            return [f"output is not JSON: {exc}"], {}
        try:
            return self._check(inst, reports)
        except (KeyError, TypeError, ValueError) as exc:
            return [f"malformed report: {exc!r}"], {}

    # solve --problem mcis|mccis on fpt-sparse pairs
    def _fpt(self, inst, reports):
        facts = inst.facts
        report = reports[0]
        result, stats = report["result"], report["stats"]
        p1, p2 = facts["paths"]
        g1, g2 = self.graph(p1), self.graph(p2)
        connected = facts["problem"] == "mccis"
        size = result["size"]
        problems = witness_problems(g1, g2, result["witness"], size, connected)
        if "pool" in facts:
            expected = self.pool[facts["pool"]][facts["problem"]]
            if size != expected:
                problems.append(f"size {size}, recorded optimum {expected}")
        else:
            problems += self._small_optimum(p1, p2, size, connected, not problems)
        bound = configuration_bound(self.cover(p1), self.cover(p2))
        if stats["configurations"] > bound:
            problems.append(f"{stats['configurations']} configurations exceed the bound {bound}")
        counters = {k: stats[k] for k in ("configurations", "candidates_validated")}
        return problems, counters

    def _small_optimum(self, p1, p2, size, connected, witness_ok) -> list[str]:
        key = (p1, p2)
        if key not in self._mcis:
            self._mcis[key] = oracles.mcis_size(self.graph(p1), self.graph(p2))
        best = self._mcis[key]
        if best is None:
            self.skipped += 1
            return []
        if not connected:
            return [] if size == best else [f"size {size}, ISMAGS optimum {best}"]
        if size > best:
            return [f"connected size {size} exceeds the ISMAGS optimum {best}"]
        if witness_ok:
            larger = oracles.connected_common_above(self.graph(p1), self.graph(p2), size, best)
            if larger is not None:
                return [f"connected size {size}, but a connected common subgraph of {larger} exists"]
        return []

    # check --suite oracle
    def _check_suite(self, inst, reports):
        result = reports[0]["result"]
        (suite,) = result["suites"]
        problems = []
        if not result["ok"] or suite["failures"]:
            problems.append(f"check reported failures: {suite['failures']}")
        expected = 2 * inst.facts["count"]
        if suite["instances"] != expected or suite["counter_bound_checked"] != expected:
            problems.append(f"{suite['instances']} instances checked, expected {expected}")
        counters = {k: suite[k] for k in ("instances", "counter_bound_checked")}
        return problems, counters

    # reduce + solve --problem isi
    def _gadget(self, inst, reports):
        facts = inst.facts
        target = reports[0]["result"]["target"]
        result = reports[1]["result"]
        answer = result["answer"]
        if facts["which"] == "3partition":
            expected = facts["answer"]
        else:
            expected = any(oracles.has_clique(self.graph(p), facts["k"]) for p in facts["sources"])
        pattern = Graph.from_text(Path(facts["outdir"], "g1.edgelist").read_text())
        host = Graph.from_text(Path(facts["outdir"], "g2.edgelist").read_text())
        problems = []
        if answer != expected:
            problems.append(f"isi answer {answer}, source problem says {expected}")
        if target != pattern.n:
            problems.append(f"target {target} is not the pattern size {pattern.n}")
        if answer:
            problems += witness_problems(pattern, host, result["witness"], pattern.n, False)
        elif result["witness"] is not None:
            problems.append("a no answer carries a witness")
        return problems, {"answer": answer, "target": target}

    # analyze
    def _analyze(self, inst, reports):
        path = inst.facts["path"]
        if path not in self._facts:
            self._facts[path] = oracles.analyze_facts(self.graph(path))
        expected = self._facts[path]
        result = reports[0]["result"]
        problems = [
            f"{key} is {result.get(key)!r}, expected {value!r}"
            for key, value in expected.items()
            if result.get(key) != value
        ]
        return problems, {"vertex_cover_size": result.get("vertex_cover_size")}
