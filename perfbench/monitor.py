"""The host-speed monitor: times ``worker.calibrate`` every ``PERIOD_S``.

Started by run.py as ``python3 perfbench/monitor.py`` next to the worker.
It keeps ``[midpoint, seconds]`` samples in memory, on the clock of
``time.perf_counter`` (the system-wide monotonic clock, so the driver can
match them with the worker's instance times), and writes them as one JSON
line to stdout when its stdin closes.  At about 1 ms of work every 20 ms it
uses about 5% of one CPU.
"""

from __future__ import annotations

import json
import select
import sys
import time

from worker import calibrate

PERIOD_S = 0.02


def main() -> None:
    samples = []
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        started = time.perf_counter()
        took = calibrate()
        samples.append([started + took / 2, took])
    sys.stdout.write(json.dumps(samples) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
