"""End-to-end and per-layer benchmark for mcislab's solve, check, reduce and analyze.

Run from the repository root:

    python3 perfbench/run.py --workload fpt-sparse --seed 1 --seconds 16 --trace 0

Load model: one closed-loop client.  The driver sends one instance at a
time to a single worker child process, which runs it in-process through
``mcislab.cli.main(argv)``; a per-instance timeout kills a hung worker and
counts the instance as failed.  The program sees only argv and the graph
files the corpus wrote.  A monitor process (monitor.py) measures the host's
speed meanwhile, and the end-to-end timings are scaled to a nominal host
speed with it.  Every answer is checked after the timed loop against
references that do not come from the solver under test (see oracles.py).

A run measures a number of whole blocks of the corpus that depends only
on ``--seconds`` and the workload (``workloads.blocks_per_run``), never on how
fast the program is, so every program is measured on the same instances.
``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the blocks
of half the time twice, untraced and then traced, and prints the per-layer
metrics together with the tracing overhead.  The
last line of output is one JSON object; the lines before it repeat every
metric with its unit and sample count, the environment, and (traced) the
slowest and the failed instances with the argv needed to replay them.
A wrong answer makes the run exit 1.  A run that cannot finish its blocks
before its deadline exits 3 without a result: that is an error of the
benchmark, not a wrong answer.  DESIGN.md explains the workloads.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import math
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Paths are relative to the repository root, the working directory, so the
# argv printed for a slow or failed instance replays from there.
HERE = Path(__file__).parent
ROOT = Path(".")
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

HELDOUT_SEED = 7919  # later claims must also hold on this seed
MIN_SAMPLES = 100  # at least 10 samples beyond p90
SETUP_REPEATS = 31
INSTANCE_TIMEOUT_S = 60.0
# Host speed.  On a shared host the same Python code runs up to 40% slower
# in periods that last from milliseconds to minutes, and CPU time slows with
# it.  While the worker runs, monitor.py times a fixed routine of the
# benchmark's own (worker.calibrate) every 20 ms.  Each instance's times are
# scaled by NOMINAL_CALIBRATION_S over the median of the monitor's samples
# taken during the instance, or of the MONITOR_MIN_SAMPLES nearest to it if
# fewer fell inside, so the end-to-end metrics read as on a host where the
# routine takes NOMINAL_CALIBRATION_S.  No change to the program can move
# the routine.
NOMINAL_CALIBRATION_S = 0.001
MONITOR_MIN_SAMPLES = 5
# Measuring must end by then, so that the answer checks fit and the run
# exits within 180 s.  Reaching it is an error of the benchmark.
RUN_DEADLINE_S = 160.0


class DeadlineReached(RuntimeError):
    """The run's blocks did not fit before RUN_DEADLINE_S."""


# ---------------------------------------------------------------------------
# set-up


def measure_setup() -> tuple[list[float], list[float]]:
    """Seconds to import the package afresh, once per repeat, and the
    calibration time taken just before each import.

    This is the program's share of the set-up; the corpus is the benchmark's
    own and is timed apart (``corpus_build_s``).  Measured in this process,
    so interpreter start-up, which swings widely on a shared machine, is not
    part of it."""
    import importlib

    from worker import calibrate

    sys.path.insert(0, str(SRC))
    times, calibrations = [], []
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m == "mcislab" or m.startswith("mcislab.")]:
            del sys.modules[name]
        gc.collect()
        calibrations.append(calibrate())
        started = time.perf_counter()
        importlib.import_module("mcislab.cli")
        times.append(time.perf_counter() - started)
    return times, calibrations


def corpus_dir(workload: str, seed: int) -> Path:
    return STATE / "corpus" / f"{workload}-{seed}"


# ---------------------------------------------------------------------------
# the worker child


class WorkerDied(RuntimeError):
    pass


class Worker:
    """One worker child process (worker.py) that speaks JSON lines over its
    stdin and stdout; restarted after a timeout or a crash.  Every child it
    starts is waited for, on every way out."""

    def __init__(self, trace_file: str | None):
        self.trace_file = trace_file
        self.summary = None
        self.proc = None
        self._start()

    def _start(self) -> None:
        argv = [sys.executable, str(HERE / "worker.py"), str(SRC)]
        if self.trace_file is not None:
            argv.append(self.trace_file)
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.buffer = b""
        try:
            if self._recv(INSTANCE_TIMEOUT_S) != "ready":
                raise WorkerDied("no ready message")
        except (WorkerDied, OSError, ValueError) as exc:  # OSError covers TimeoutError
            self._kill()
            raise RuntimeError(f"worker did not start: {exc}") from None

    def _send(self, value) -> None:
        self.proc.stdin.write(json.dumps(value).encode() + b"\n")
        self.proc.stdin.flush()

    def _recv(self, timeout: float):
        """The next JSON line from the worker.  Raises TimeoutError when none
        comes within ``timeout`` seconds, WorkerDied when the worker is gone."""
        end = time.perf_counter() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buffer:
            left = end - time.perf_counter()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise TimeoutError
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise WorkerDied("worker closed its output")
            self.buffer += chunk
        line, self.buffer = self.buffer.split(b"\n", 1)
        return json.loads(line)

    def _kill(self) -> None:
        if self.proc is None:
            return
        self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except OSError:
                pass
        self.proc = None

    def run(self, inst, timeout: float, deadline: float):
        """The worker's reply for ``inst``, or a string saying why there is none.

        The instance gets ``timeout`` seconds; if the run's deadline comes
        first, DeadlineReached is raised instead of failing the instance."""
        wait = min(timeout, deadline - time.perf_counter())
        if wait <= 0:
            raise DeadlineReached(f"run deadline reached before instance {inst.id}")
        try:
            self._send([inst.id, inst.argvs])
            return self._recv(wait)
        except TimeoutError:
            if wait < timeout:
                self._kill()
                raise DeadlineReached(f"run deadline reached during instance {inst.id}") from None
            reason = f"timeout after {timeout:.0f} s"
        except (WorkerDied, OSError, ValueError) as exc:
            reason = f"worker died: {exc!r}"
        self._kill()
        self._start()
        return reason

    def close(self) -> None:
        if self.proc is None:
            return
        try:
            self._send(None)
            if self.trace_file is not None:
                self.summary = self._recv(60)
            self.proc.wait(30)
        except (WorkerDied, TimeoutError, OSError, ValueError, subprocess.TimeoutExpired):
            pass
        self._kill()


class Monitor:
    """The host-speed monitor process (monitor.py)."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "monitor.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def stop(self) -> list[list[float]]:
        """Ends the monitor and returns its ``[time, seconds]`` samples."""
        try:
            out, _ = self.proc.communicate(timeout=30)  # closing stdin stops it
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            return []
        return json.loads(out) if out.strip() else []


class Sample:
    """One instance's reply.  ``latency`` is the wall time of its command
    lines in the worker; ``sent`` and ``received`` bound the driver's round
    trip, and ``scale`` is the factor to nominal host speed."""

    def __init__(self, inst, reply, sent: float, received: float):
        self.inst = inst
        if isinstance(reply, str):
            self.runs, self.peak_kb, self.error = [], 0, reply
            self.latency = INSTANCE_TIMEOUT_S
        else:
            _, self.runs, self.peak_kb = reply
            self.error = None
            self.latency = sum(run[3] for run in self.runs)
        self.sent, self.received = sent, received
        self.busy = received - sent
        self.scale = 1.0
        self.problems: list[str] = [self.error] if self.error else []
        self.counters: dict = {}


def measure(blocks, count: int, deadline: float, trace_file=None):
    """Run blocks ``0 .. count-1`` of the corpus once each, in order.

    Returns the samples, the traced worker's summary and the host-speed
    monitor's samples.  Raises DeadlineReached when the blocks do not fit
    the run.
    """
    monitor = Monitor()
    worker = None
    samples = []
    try:
        worker = Worker(trace_file)  # returns once the worker has imported mcislab
        for b in range(count):
            for inst in blocks[b % len(blocks)]:
                sent = time.perf_counter()
                reply = worker.run(inst, INSTANCE_TIMEOUT_S, deadline)
                samples.append(Sample(inst, reply, sent, time.perf_counter()))
    finally:
        if worker is not None:
            worker.close()
        speed = monitor.stop()
    scale_to_nominal(samples, speed)
    return samples, worker.summary, speed


# ---------------------------------------------------------------------------
# checks and counters


def check_samples(checker, samples) -> None:
    for sample in samples:
        if sample.error is None:
            sample.problems, sample.counters = checker.check(sample.inst, sample.runs)


def compare_counters(samples_lists, path: Path) -> None:
    """Deterministic counters must repeat exactly: within the run, between
    the untraced and the traced pass, and against an earlier run of the same
    seed on the same source (kept in ``path``)."""
    seen: dict[str, dict] = json.loads(path.read_text()) if path.exists() else {}
    for samples in samples_lists:
        for sample in samples:
            if not sample.counters:
                continue
            key = str(sample.inst.id)
            if key in seen and seen[key] != sample.counters:
                sample.problems.append(f"counters {sample.counters} differ from an earlier run: {seen[key]}")
            seen.setdefault(key, sample.counters)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(seen, sort_keys=True))


# ---------------------------------------------------------------------------
# metrics


def scale_to_nominal(samples, speed) -> None:
    """Set each sample's ``scale``: NOMINAL_CALIBRATION_S over the median of
    the monitor samples taken during its round trip, widened to the
    MONITOR_MIN_SAMPLES nearest when fewer fell inside."""
    times = [t for t, _ in speed]
    for sample in samples:
        lo, hi = bisect.bisect_left(times, sample.sent), bisect.bisect_right(times, sample.received)
        while hi - lo < MONITOR_MIN_SAMPLES and (lo > 0 or hi < len(times)):
            if lo > 0 and (hi == len(times) or sample.sent - times[lo - 1] <= times[hi] - sample.received):
                lo -= 1
            else:
                hi += 1
        near = [took for _, took in speed[lo:hi]]
        sample.scale = NOMINAL_CALIBRATION_S / statistics.median(near) if near else 1.0


def throughput(samples, scaled: bool = True) -> float:
    """Correct instances per second of the time spent on instances."""
    busy = sum(s.busy * (s.scale if scaled else 1.0) for s in samples)
    return sum(1 for s in samples if not s.problems) / busy


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the ``p``-quantile: the mean of the order
    statistics weighted by the Beta((n+1)p, (n+1)(1-p)) distribution over
    their ranks.  It uses every sample, not only the two next to the rank,
    so a gap in a sparse tail moves it less: on five runs of each workload
    it gave a steadier p90 than linear interpolation on all four."""
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    # the Beta distribution function at 1/n, 2/n, ..., by the midpoint rule
    per_rank = 64
    steps = per_rank * n
    cdf, total = [0.0], 0.0
    for k in range(steps):
        t = (k + 0.5) / steps
        total += math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t)) / steps
        if (k + 1) % per_rank == 0:
            cdf.append(total)
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs)) / total


def wall_clock(samples, setup, speed) -> dict:
    """The end-to-end figures unscaled, as the wall clock read them."""
    latencies = [s.latency * 1000 for s in samples]
    calibrations = [took for _, took in speed]
    return {
        "setup_s": (statistics.median(setup[0]), "s", len(setup[0])),
        "instances_per_s": (throughput(samples, scaled=False), "1/s", len(samples)),
        "latency_ms_p50": (statistics.median(latencies), "ms", len(samples)),
        "latency_ms_p90": (quantile(latencies, 0.9), "ms", len(samples)),
        "calibration_ms": (statistics.median(calibrations) * 1000 if calibrations else 0.0, "ms",
                           len(calibrations)),
    }


def end_to_end(samples, setup) -> dict:
    latencies = [s.latency * s.scale * 1000 for s in samples]
    imports, calibrations = setup
    n = len(samples)
    return {
        "setup_s": (statistics.median(imports) * NOMINAL_CALIBRATION_S / statistics.median(calibrations),
                    "s", len(imports)),
        "instances_per_s": (throughput(samples), "1/s", n),
        "latency_ms_p50": (statistics.median(latencies), "ms", n),
        "latency_ms_p90": (quantile(latencies, 0.9), "ms", n),
        "peak_rss_mb": (max(s.peak_kb for s in samples) / 1024, "MB", n),
    }


def per_layer(summary, plain_ips, traced_ips, traced_n) -> dict:
    fn = summary["functions"]
    counters = summary["counters"]

    def get(name, key):
        return fn.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {"cli.self_ms": (sum(v["self_ms"] for k, v in fn.items() if k.startswith("cli.")), "ms")}
    for name in ("graphs.parse_graph", "graphs.is_induced_isomorphism", "graphs.induces_connected",
                 "graphs.induced_subgraph", "params.min_vertex_cover", "params.vertex_cover_number",
                 "solvers.mcis_vc_fpt", "solvers.mcis_bruteforce", "solvers.isi_backtracking"):
        out[f"{name}.calls"] = (get(name, "calls"), "count")
        out[f"{name}.ms"] = (get(name, "ms"), "ms")
    for name in ("graphs.graph_stats", "params.twin_partition", "params.min_feedback_vertex_set",
                 "reductions.write_reduction", "corpus.random_graph_pair"):
        out[f"{name}.ms"] = (get(name, "ms"), "ms")
    for name in ("solvers.mcis_vc_fpt", "solvers.mcis_bruteforce", "solvers.isi_backtracking",
                 "harness.run_oracle_suite"):
        out[f"{name}.self_ms"] = (get(name, "self_ms"), "ms")
    iso = "graphs.is_induced_isomorphism"
    out[f"{iso}.true_ratio"] = (ratio(counters.get(iso + ".true", 0), get(iso, "calls")), "ratio")
    isi = "solvers.isi_backtracking"
    out[f"{isi}.yes_ratio"] = (ratio(counters.get(isi + ".yes", 0), get(isi, "calls")), "ratio")
    for name in ("solvers.mcis_vc_fpt", "solvers.mcis_bruteforce"):
        out[f"{name}.candidates_validated"] = (counters.get(name + ".candidates_validated", 0), "count")
    fpt = "solvers.mcis_vc_fpt"
    configurations = counters.get(fpt + ".configurations", 0)
    out[f"{fpt}.configurations"] = (configurations, "count")
    out[f"{fpt}.validated_per_configuration"] = (
        ratio(counters.get(fpt + ".candidates_validated", 0), configurations), "ratio")
    builders = ("clique_to_incidence_isi", "cross_compose", "isi_to_mccis", "three_partition_to_forest_isi")
    out["reductions.build.ms"] = (sum(get(f"reductions.{b}", "ms") for b in builders), "ms")
    out["trace.overhead_share"] = (1 - traced_ips / plain_ips if plain_ips else 0.0, "ratio")
    out["trace.instances"] = (traced_n, "count")
    out["trace.spans"] = (summary["spans"], "count")
    return out


# ---------------------------------------------------------------------------
# environment and reporting


def tree_digest(paths) -> str:
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def environment(seed: int) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": commit,
        "source_sha256": tree_digest((SRC / "mcislab").glob("*.py")),
        "bench_sha256": tree_digest([*HERE.glob("*.py"), HERE / "reference.json"]),
        "seed": seed,
        "heldout_seed": HELDOUT_SEED,
    }


def replay_record(workload, seed, sample) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "instance": sample.inst.id,
        "block": sample.inst.block,
        "kind": sample.inst.kind,
        "latency_ms": round(sample.latency * 1000, 3),
        "argv": sample.inst.argvs,
        "problems": sample.problems,
    }


def by_kind(samples) -> dict:
    kinds: dict[str, list[float]] = {}
    for s in samples:
        kinds.setdefault(s.inst.kind, []).append(s.latency * 1000)
    return {
        kind: {"samples": len(v), "p50": statistics.median(v), "max": max(v), "total": sum(v)}
        for kind, v in sorted(kinds.items())
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_DEADLINE_S

    if not (SRC / "mcislab" / "cli.py").is_file():
        print(f"error: no mcislab sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads
    from checks import Checker

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    # the program runs with its defaults: analyze's FVS bound is read from here
    os.environ.pop("MCIS_ORACLE_BOUND", None)
    setup = measure_setup()
    started = time.perf_counter()
    blocks = workloads.build(args.workload, args.seed, corpus_dir(args.workload, args.seed))
    corpus_s = time.perf_counter() - started
    checker = Checker(args.workload)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results_dir = STATE / "results"
    results_dir.mkdir(parents=True, exist_ok=True)

    try:
        if args.trace == 0:
            count = workloads.blocks_per_run(args.workload, args.seconds, len(blocks[0]), MIN_SAMPLES)
            samples, _, speed = measure(blocks, count, deadline)
            phases = [samples]
        else:
            count = workloads.blocks_per_run(args.workload, args.seconds / 2, len(blocks[0]))
            samples, _, speed = measure(blocks, count, deadline)
            trace_file = str(results_dir / f"{tag}.spans.tsv")
            traced, summary, _ = measure(blocks, count, deadline, trace_file)
            phases = [samples, traced]
    except DeadlineReached as exc:
        print(f"error: {exc}; {args.seconds:g} s of blocks did not fit in {RUN_DEADLINE_S:g} s",
              file=sys.stderr)
        return 3
    for phase in phases:
        check_samples(checker, phase)
    source = environment(args.seed)
    compare_counters(phases, STATE / "counters" / (
        f"{args.workload}-{args.seed}-{source['source_sha256']}-{source['bench_sha256']}.json"))

    attempted = sum(len(p) for p in phases)
    failed = [s for p in phases for s in p if s.problems]
    if args.trace == 0:
        metrics = end_to_end(samples, setup)
    else:
        plain_ips, traced_ips = throughput(samples), throughput(traced)
        if summary is None:  # the traced worker was restarted after a timeout
            summary = {"functions": {}, "counters": {}, "spans": 0}
        metrics = per_layer(summary, plain_ips, traced_ips, len(traced))

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} instances in {len(phases)} x {count} blocks, {len(failed)} failed, "
          f"references skipped {checker.skipped}")
    print(f"  corpus_build_s {corpus_s:.6g} s (samples 1)")
    for name, (value, unit, *n) in metrics.items():
        print(f"  {name} {value:.6g} {unit}" + (f" (samples {n[0]})" if n else ""))
    print(f"  failed_share {len(failed) / attempted if attempted else 0:.6g} share (samples {attempted})")
    unscaled = wall_clock(samples, setup, speed)
    for name, (value, unit, n) in unscaled.items():
        print(f"  wall_clock.{name} {value:.6g} {unit} (samples {n})")
    print("environment " + json.dumps(source))
    record = {
        "environment": source,
        "metrics": {k: {"value": v[0], "unit": v[1], "samples": v[2] if len(v) > 2 else None}
                    for k, v in metrics.items()},
        "failed_share": len(failed) / attempted if attempted else 0,
        "wall_clock": {k: {"value": v[0], "unit": v[1], "samples": v[2]} for k, v in unscaled.items()},
        "setup_s_samples": setup[0],
        "setup_calibration_s": setup[1],
        "corpus_build_s": corpus_s,
        "failures": [replay_record(args.workload, args.seed, s) for s in failed],
        "latency_ms_by_kind": by_kind(samples),
        # instance id, wall-clock latency, scale to nominal host speed
        "latency_ms": [[s.inst.id, round(s.latency * 1000, 3), round(s.scale, 4)] for s in samples],
        "monitor": speed,
    }
    if args.trace == 1:
        slowest_by_id: dict[int, Sample] = {}
        for s in samples:
            if s.inst.id not in slowest_by_id or s.latency > slowest_by_id[s.inst.id].latency:
                slowest_by_id[s.inst.id] = s
        slowest = sorted(slowest_by_id.values(), key=lambda s: s.latency, reverse=True)[:5]
        record["slowest"] = [replay_record(args.workload, args.seed, s) for s in slowest]
        record["functions"] = summary["functions"]
        for s in record["slowest"]:
            print("slowest " + json.dumps(s))
    for s in record["failures"]:
        print("failed " + json.dumps(s))
    (results_dir / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    correct = not failed
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    # a terminated run still stops its worker, in measure's finally clause
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
