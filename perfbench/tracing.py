"""Timing wrappers around the public functions of ``mcislab``.

:meth:`Tracer.install` wraps every public, non-generator function defined in
the seven modules below and rebinds each module-level name that refers to it,
so calls made through a name another module imported (for example
``mcislab.solvers.is_induced_isomorphism``) are timed too.  Nothing under
``src/`` is edited.  Generator functions are left alone, because a wrapper
would only time the creation of the generator.

A span is (id, name, parent, instance, start, end).  Aggregates cover every
span; the raw spans are kept in memory up to ``max_spans`` and written out
when the run ends.  A function's ``ms`` counts only its outermost span, so a
recursive call is not counted twice; ``self_ms`` is the span time not
covered by child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from collections import defaultdict
from time import perf_counter

MODULES = ("cli", "graphs", "params", "solvers", "reductions", "harness", "corpus")


def _count_true(tracer, name, result):
    tracer.counters[name + ".true"] += bool(result)


def _count_found(tracer, name, result):
    tracer.counters[name + ".yes"] += result is not None


def _count_stats(tracer, name, result):
    tracer.counters[name + ".configurations"] += result.stats.configurations
    tracer.counters[name + ".candidates_validated"] += result.stats.candidates_validated


# counters read from a traced function's return value
RESULT_COUNTERS = {
    "graphs.is_induced_isomorphism": _count_true,
    "solvers.isi_backtracking": _count_found,
    "solvers.mcis_vc_fpt": _count_stats,
    "solvers.mcis_bruteforce": _count_stats,
}


class Tracer:
    def __init__(self, max_spans: int = 200_000):
        self.max_spans = max_spans
        self.instance = -1
        self.names: list[str] = []
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.depth: list[int] = []
        self.counters: defaultdict[str, int] = defaultdict(int)
        self.stack: list[list] = []  # [span id, name id, start, child time]
        self.next_span = 0
        self.spans = {key: array("q") for key in ("id", "name", "parent", "instance")}
        self.times = {key: array("d") for key in ("start", "end")}

    def install(self) -> None:
        modules = [importlib.import_module(f"mcislab.{short}") for short in MODULES]
        wrapped = {}
        for short, module in zip(MODULES, modules):
            for attr, fn in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                    or inspect.isgeneratorfunction(fn)
                ):
                    continue
                wrapped[fn] = self._wrap(f"{short}.{attr}", fn)
        for module in modules + [importlib.import_module("mcislab")]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(module, attr, wrapped[value])

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.total.append(0.0)
        self.self_time.append(0.0)
        self.depth.append(0)
        hook = RESULT_COUNTERS.get(name)
        stack = self.stack

        def traced(*args, **kwargs):
            span = self.next_span
            self.next_span += 1
            self.depth[nid] += 1
            frame = [span, nid, perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self._close(frame, end)
            if hook is not None:
                hook(self, name, result)
            return result

        return functools.wraps(fn)(traced)

    def _close(self, frame: list, end: float) -> None:
        span, nid, start, child = frame
        duration = end - start
        self.calls[nid] += 1
        self.self_time[nid] += duration - child
        self.depth[nid] -= 1
        if self.depth[nid] == 0:
            self.total[nid] += duration
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += duration
        if span < self.max_spans:
            for key, value in (("id", span), ("name", nid),
                               ("parent", parent[0] if parent else -1),
                               ("instance", self.instance)):
                self.spans[key].append(value)
            self.times["start"].append(start)
            self.times["end"].append(end)

    def summary(self) -> dict:
        return {
            "functions": {
                name: {
                    "calls": self.calls[i],
                    "ms": self.total[i] * 1000,
                    "self_ms": self.self_time[i] * 1000,
                }
                for i, name in enumerate(self.names)
            },
            "counters": dict(self.counters),
            "spans": self.next_span,
            "spans_kept": min(self.next_span, self.max_spans),
        }

    def write_spans(self, path: str) -> None:
        """One tab-separated line per kept span, names resolved."""
        with open(path, "w") as fh:
            fh.write("id\tname\tparent\tinstance\tstart\tend\n")
            for i in range(len(self.spans["id"])):
                fh.write(
                    f"{self.spans['id'][i]}\t{self.names[self.spans['name'][i]]}\t"
                    f"{self.spans['parent'][i]}\t{self.spans['instance'][i]}\t"
                    f"{self.times['start'][i]:.9f}\t{self.times['end'][i]:.9f}\n"
                )
