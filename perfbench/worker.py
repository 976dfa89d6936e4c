"""Run one workload in this fresh interpreter and print its figures as one JSON line.

run.py starts this file once per set-up probe and once for the measured run.
It can also be run by hand from the repository root:

    PYTHONPATH=src python3 perfbench/worker.py --workload bn-n30-k3 --seed 1 --seconds 5 --trace 0

With --setup-only it stops after set-up and reports the set-up time alone.
With --trace 1 each job index runs untraced and then traced, and the spans
go to perfbench/out/.
"""

import argparse
import json
import platform
import resource
import sys
import tempfile
import time
from pathlib import Path

from spans import NullTracer, Tracer

OUT = Path(__file__).resolve().parent / "out"


def _totals(results):
    problems = [p for r in results for p in r.problems]
    return {
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "problems": problems[:20],
        "job_walls_s": [r.wall_s for r in results],
    }


def measure(args):
    # numpy's own import is not rowsparse's start-up, and its time swings with
    # the machine's file and thread costs: set-up time starts after it
    import numpy  # noqa: F401

    start = time.perf_counter()
    import workloads  # imports rowsparse

    workload = workloads.WORKLOADS[args.workload]()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="jobs-") as scratch:
        workload.setup(args.seed, Path(scratch))
        setup_s = time.perf_counter() - start
        if args.setup_only:
            return {"setup_s": setup_s}
        env = {"python": platform.python_version(), "numpy": workloads.np.__version__}
        if not args.trace:
            results = workloads.run_jobs(workload, args.seed, args.seconds, NullTracer())
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            return {
                "setup_s": setup_s,
                # means, not medians: machine speed drifts in phases of 15-30 s,
                # and a median jumps between phases where a mean averages them
                "job_s": workloads.job_seconds(results),
                "peak_rss_mb": peak_kb / 1024.0,
                "properties": workload.properties(results),
                "environment": env,
                **_totals(results),
            }
        tracer = Tracer()
        workload.first_draws(tracer, args.seed)
        untraced, traced = workloads.run_alternating(workload, args.seed, args.seconds, tracer)
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(spans_file)
        props = workload.properties(traced)
        return {
            "setup_s": setup_s,
            "metrics": {
                name: {"value": value, "unit": workloads.PER_LAYER_UNITS[name]}
                for name, value in workloads.layer_metrics(tracer, untraced, traced, props).items()
            },
            "properties": props,
            "environment": env,
            "self_time_ms": tracer.summary(),
            "spans_file": str(spans_file.relative_to(OUT.parent.parent)),
            **_totals(untraced + traced),
            "untraced_job_walls_s": [r.wall_s for r in untraced],
            "job_walls_s": [r.wall_s for r in traced],
        }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
