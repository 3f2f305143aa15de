"""The repository benchmark: one command, three workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sim_ls_read --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs the
same work twice in one process -- untraced, then with wrappers around
every layer's entry points -- and reports the per-layer metrics (plus
the tracing overhead between the two).  End-to-end figures never come
from a traced run.

Human-readable lines go first; the last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The
run's record (seed, scenario sizes, counts, results digest, failures)
is also written under ``perfbench/out/``, with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import traceback
from statistics import median
from typing import Dict, List, Optional

from stats import percentile
from tracing import Tracer

# The modules that import the library (workloads, layers) are imported
# inside functions: main() first checks for src/ and puts it on sys.path.
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: Every end-to-end metric: name -> unit.
END_TO_END_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "wall_s": "s",
    "episode_p50_s": "s",
    "episode_p90_s": "s",
    "events_per_s": "1/s",
    "query_p50_us": "us",
    "query_p99_us": "us",
    "peak_rss_mb": "MB",
}


def end_to_end(run) -> Dict[str, float]:
    """Every :data:`END_TO_END_UNITS` metric of one untraced run."""
    return {
        "setup_s": median(sum(parts) for parts in run.setup),
        "wall_s": run.wall_s,
        "episode_p50_s": percentile(run.episodes, 50),
        "episode_p90_s": percentile(run.episodes, 90),
        "events_per_s": run.control_events / run.control_s,
        "query_p50_us": 1e6 * percentile(run.queries, 50),
        "query_p99_us": 1e6 * percentile(run.queries, 99),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run_record(run, metrics: Dict[str, float]) -> Dict[str, object]:
    """The per-run record: inputs, sizes, counts and results digest."""
    return {
        "workload": run.workload,
        "seed": run.seed,
        "passes": run.passes,
        "episodes": len(run.episodes),
        "queries": len(run.queries),
        "events": sum(p["events"] for p in run.passes),
        "messages": sum(p["messages"] for p in run.passes),
        "frames": sum(p["frames"] for p in run.passes),
        "attempted": run.attempted,
        "failed": run.failed,
        "fail_frac": run.failed / run.attempted,
        "digest": run.digest,
        "host_speed_median": median(run.speeds),
        "raw": {
            "wall_s": run.raw_wall_s,
            "episode_p50_s": median(run.raw_episodes),
            "query_p50_us": 1e6 * median(run.raw_queries),
        },
        "failures": run.failures,
        "metrics": metrics,
    }


def play(name: str, seed: int, seconds: float, tracer=None, smoke: bool = False):
    """One run, with any pass that raises counted as a failure."""
    import workloads

    passes = workloads.plan_passes(workloads.WORKLOADS[name], seconds, smoke)
    run = workloads.Run(name, seed)
    try:
        workloads.play_passes(run, passes, tracer)
    except Exception as exc:  # noqa: BLE001 - a raising operation is a failure
        traceback.print_exc()
        run.attempted += 1
        run.fail(f"raised {exc!r}")
    return run


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False):
    """Run one workload; returns the result object and the run record."""
    from layers import PER_LAYER_UNITS, instrument, per_layer

    base = play(name, seed, seconds, smoke=smoke)
    runs = [base]
    if not trace:
        metrics = end_to_end(base)
        units = END_TO_END_UNITS
        record = run_record(base, metrics)
    else:
        tracer = Tracer()
        instrument(tracer)
        traced = play(name, seed, seconds, tracer, smoke)
        runs.append(traced)
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"{name}-seed{seed}.spans"))
        if traced.digest != base.digest:
            traced.fail("tracing changed the results digest")
        metrics = per_layer(traced, tracer, base.wall_s)
        units = PER_LAYER_UNITS
        record = run_record(traced, metrics)
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return result, record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no library source at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    try:
        result, record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except ValueError as exc:  # too few samples for a percentile
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    os.makedirs(OUT, exist_ok=True)
    suffix = "-trace" if args.trace else ""
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}{suffix}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"episodes={record['episodes']} queries={record['queries']} "
          f"fail_frac={record['fail_frac']:.4g} digest={record['digest']}")
    for name, entry in result["metrics"].items():
        print(f"  {name:42s} {entry['value']:14.6g} {entry['unit']}")
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")
    print("record " + json.dumps({k: v for k, v in record.items() if k != "metrics"}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
