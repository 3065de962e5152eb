"""CPU-speed probe: times a fixed pure-Python loop on one CPU.

Usage (started by the load generator, see ``client.SpeedProbe``)::

    python3 perfbench/speedprobe.py --cpu N --period 0.02

Every ``period`` seconds it runs :func:`reference_loop` once and records
``(monotonic time, thread CPU microseconds)``.  The loop's CPU time grows
when the host slows the CPU down (a busy sibling hyperthread, shared
caches), which no process-time accounting in the guest shows otherwise.
At a line (or EOF) on stdin it prints one JSON list of the samples and
exits.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time


def reference_loop() -> int:
    """A fixed piece of interpreter-bound work (dict stores, int math)."""
    table = {}
    x = 0
    for i in range(1500):
        table[i & 63] = x
        x = (x * 31 + i) % 1000003
    return x


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--cpu", type=int, default=None)
    ap.add_argument("--period", type=float, default=0.02)
    args = ap.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    stop = threading.Event()

    def wait_stdin() -> None:
        sys.stdin.readline()
        stop.set()

    threading.Thread(target=wait_stdin, daemon=True).start()
    samples = []
    print("READY", flush=True)
    while not stop.wait(args.period):
        c0 = time.thread_time_ns()
        reference_loop()
        c1 = time.thread_time_ns()
        samples.append((time.monotonic(), (c1 - c0) / 1e3))
    print(json.dumps(samples), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
