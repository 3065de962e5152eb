"""Serving benchmark: ``lab`` and ``classroom`` workloads, traced layers.

Run from the root of a checkout::

    python3 perfbench/run.py --workload lab --seed 1 --seconds 20 --trace 0

``--trace 0`` measures one workload untraced and reports the end-to-end
metrics.  ``--trace 1`` runs shortened traced passes of ``lab``,
``classroom`` and the crash-recovery pass ``restart`` (plus an untraced
``lab`` pass for the tracing overhead), whatever ``--workload`` says, and
reports the per-layer metrics, each labelled with the pass it came from.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"

#: end-to-end metrics: name -> unit (every workload reports all of them)
END_TO_END = {
    "sessions_per_s": "1/s",
    "session_p50_ms": "ms",
    "server_peak_rss_mb": "MB",
    "setup_s": "s",
}
WORKLOADS = ("lab", "classroom")
#: sessions per lab connection in the traced run's count-bounded passes
TRACE_LAB_PER_LANE = 600
NOT_EXERCISED = ("video", "net", "learning", "baselines", "reporting",
                 "cluster routing", "faultline (disabled)")


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        return fail(f"no program source under {SRC}: run from a checkout")
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    sys.path[:0] = [str(SRC), str(HERE)]
    os.environ.pop("REPRO_OBS", None)

    import client
    import inputs
    import workloads
    from layers import per_layer

    if client.CLIENT_CPU is not None:
        os.sched_setaffinity(0, {client.CLIENT_CPU})

    run_dir = CHECKOUT / ".perfbench_run" / f"{args.workload}-{os.getpid()}"
    out_dir = CHECKOUT / ".perfbench_out"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    game = inputs.build_game()
    pool = inputs.script_pool(game, args.seed)
    try:
        if args.trace:
            seconds = max(5.0, args.seconds / 2)
            lab_plain = workloads.lab(run_dir / "lab-plain", args.seed, 0.0,
                                      pool=pool, per_lane=TRACE_LAB_PER_LANE,
                                      with_setup=False)
            lab_traced = workloads.lab(run_dir / "lab-traced", args.seed, 0.0,
                                       pool=pool, per_lane=TRACE_LAB_PER_LANE,
                                       trace=True, with_setup=False)
            room = workloads.classroom(run_dir / "classroom", args.seed,
                                       seconds, pool=pool, trace=True,
                                       with_setup=False)
            rst = workloads.restart(run_dir / "restart", args.seed,
                                    game=game, pool=pool, trace=True)
            passes = (lab_plain, lab_traced, room, rst)
            layers = per_layer(*passes)
            print(f"{'metric':34} {'value':>14} unit   workload   should move")
            for name, (value, unit, source, moves) in layers.items():
                print(f"{name:34} {value:14.4f} {unit:6} {source:10} {moves}")
            print("classroom client p50 %.3f ms: program phases cover %.1f%%, "
                  "benchmark spans on the blocking path cover %.1f%%" % (
                      room.notes["session_p50_ms"],
                      layers["obs.phase_share_pct"][0],
                      layers["obs.span_share_pct"][0]))
            metrics = {name: {"value": value, "unit": unit}
                       for name, (value, unit, _s, _m) in layers.items()}
            out_dir.mkdir(exist_ok=True)
            for label, sub in (("lab", "lab-traced/server"),
                               ("classroom", "classroom/server")):
                spans_file = run_dir / sub / "spans.jsonl"
                if spans_file.is_file():
                    shutil.copy(spans_file, out_dir / f"spans-{label}.jsonl")
        else:
            run = getattr(workloads, args.workload)
            result = run(run_dir, args.seed, args.seconds, pool=pool)
            passes = (result,)
            for key, value in sorted(result.notes.items()):
                print(f"  {key}: {value}")
            for key, value in sorted(result.counts.items()):
                print(f"  count {key}: {value}")
            print(f"{'metric':28} {'value':>14} unit")
            for name, unit in END_TO_END.items():
                print(f"{name:28} {result.metrics[name]:14.4f} {unit}")
            metrics = {name: {"value": result.metrics[name], "unit": unit}
                       for name, unit in END_TO_END.items()}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"python={platform.python_version()} cpus={os.cpu_count()} "
          f"not exercised: {', '.join(NOT_EXERCISED)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
