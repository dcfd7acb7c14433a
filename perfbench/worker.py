"""The worker child: runs CLI invocations in-process through ``mcislab.cli.main``.

Started by run.py as ``python3 perfbench/worker.py SRC_DIR [TRACE_FILE]``.
It speaks one JSON value per line: it reads ``[instance_id, argvs]`` on
stdin and answers, per command line, the exit code, stdout, stderr and wall
time, plus the worker's peak resident memory.  ``null`` or the end of stdin
ends the loop; a traced worker then answers with its span aggregates.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import random
import resource
import sys
import time
import traceback


# A fixed pure-Python routine of the same kind of work as the program (set
# and dict look-ups, lists, calls): breadth-first searches over one fixed
# sparse graph.  Its time measures how fast the host runs Python just then;
# monitor.py runs it while the worker runs the program.
_CAL_RNG = random.Random("perfbench-calibration")
CAL_GRAPH = [set() for _ in range(200)]
for _u in range(200):
    for _v in _CAL_RNG.sample(range(200), 3):
        if _v != _u:
            CAL_GRAPH[_u].add(_v)
            CAL_GRAPH[_v].add(_u)


def calibrate(rounds: int = 8) -> float:
    """Seconds taken by ``rounds`` breadth-first searches over CAL_GRAPH."""
    started = time.perf_counter()
    for root in range(rounds):
        seen = {root: 0}
        frontier = [root]
        while frontier:
            nxt = []
            for u in frontier:
                for v in CAL_GRAPH[u]:
                    if v not in seen:
                        seen[v] = seen[u] + 1
                        nxt.append(v)
            frontier = nxt
    return time.perf_counter() - started


def serve(requests, replies, src_dir: str, trace_file: str | None) -> None:
    sys.path.insert(0, src_dir)
    from mcislab import cli

    def send(value) -> None:
        replies.write(json.dumps(value) + "\n")
        replies.flush()

    tracer = None
    if trace_file is not None:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    send("ready")
    for line in requests:
        message = json.loads(line)
        if message is None:
            break
        instance_id, argvs = message
        if tracer is not None:
            tracer.instance = instance_id
        runs = []
        # each instance starts without the previous one's garbage, as a
        # fresh CLI process would; collecting is outside the timed region
        gc.collect()
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            started = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(list(argv))
            except Exception:  # a crash is a failed instance, not a failed run
                code = "exception"
                err.write(traceback.format_exc())
            elapsed = time.perf_counter() - started
            runs.append((code, out.getvalue(), err.getvalue(), elapsed))
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        send((instance_id, runs, peak_kb))
    else:
        return  # stdin closed: the driver is gone, nobody reads a summary
    if tracer is not None:
        tracer.write_spans(trace_file)
        send(tracer.summary())


def main() -> None:
    # The replies get their own copy of stdout; anything else the program
    # writes to file descriptor 1 goes to stderr and cannot break a reply.
    replies = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    trace_file = sys.argv[2] if len(sys.argv) > 2 else None
    serve(sys.stdin, replies, sys.argv[1], trace_file)
    replies.close()


if __name__ == "__main__":
    main()
