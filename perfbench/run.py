"""The rowsparse benchmark. From the repository root:

    python3 perfbench/run.py --workload bn-n30-k3 --seed 1 --seconds 25 --trace 0

Runs one workload in fresh single-threaded interpreters, checks the program's
outputs, prints every metric with its unit, writes a result file with
provenance to perfbench/out/, and ends its standard output with one JSON line:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones. Exits non-zero, without a
result line, when the program is missing or a run breaks.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKER = HERE / "worker.py"

WORKLOADS = ("bn-n30-k3", "hypertree-n16", "moment-sweep", "verify-fast")
END_TO_END_UNITS = {"setup_s": "s", "job_s": "s", "peak_rss_mb": "MB"}
SETUP_PROBES = 6  # fresh interpreters timed for setup_s, besides the measured one
BUDGET_S = 170.0  # the whole command stays under 180 s
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    pass


def nproc():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def child_env():
    """One process (ROWSPARSE_WORKERS unset), BLAS capped at nproc, the checkout's src first."""
    env = dict(os.environ)
    env.pop("ROWSPARSE_WORKERS", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in BLAS_VARS:
        env[var] = str(nproc())
    return env


def run_worker(args, deadline, extra=()):
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("time budget spent before the next worker could start")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=left)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the {BUDGET_S:.0f} s budget and was killed") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"worker printed no result:\n{proc.stdout[-2000:]}") from exc


def setup_probe(args, deadline):
    return run_worker(args, deadline, ["--setup-only"])["setup_s"]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit():
    """HEAD of the checkout when it is a git repository, else None."""
    if not (ROOT / ".git").exists():
        return None  # not a repository of its own; git would report an enclosing one
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(seed):
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(str(f.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "seed": seed,
        "python": platform.python_version(),
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,  # informational, not gated
        "blas_threads": nproc(),
        "rowsparse_workers": "unset (one process)",
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description="rowsparse benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "rowsparse" / "__init__.py").is_file():
        print(f"perfbench: no rowsparse package under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    try:
        if args.trace:
            run = run_worker(args, deadline)
            metrics = run["metrics"]
        else:
            setup_probe(args, deadline)  # untimed: writes bytecode, warms the file cache
            # probes on both sides of the measured run, so they see more than one
            # phase of the machine's drifting speed
            probes = [setup_probe(args, deadline) for _ in range(SETUP_PROBES // 2)]
            run = run_worker(args, deadline)
            probes += [setup_probe(args, deadline) for _ in range(SETUP_PROBES - len(probes))]
            run["setup_probes_s"] = probes + [run["setup_s"]]
            metrics = {
                "setup_s": statistics.median(run["setup_probes_s"]),
                "job_s": run["job_s"],
                "peak_rss_mb": run["peak_rss_mb"],
            }
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted, failed = run["attempted"], run["failed"]
    derived = {"failed_frac": failed / attempted}
    if not args.trace:
        job_s = run["job_s"]
        if "trials_per_job" in run["properties"]:
            derived["trials_per_s"] = run["properties"]["trials_per_job"] / job_s
        elif args.workload == "moment-sweep":
            derived["sweep_s"] = job_s
        else:
            derived["verify_s"] = job_s
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "provenance": provenance(args.seed), "derived": derived, **run, "result": result}
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:>14.6g} {m['unit']}")
    for name, value in derived.items():
        print(f"{name:34s} {value:>14.6g}  (derived)")
    for problem in run["problems"]:
        print(f"check failed: {problem}")
    print(f"result file: {out_file.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
