"""The four benchmark workloads: their jobs, output checks and per-layer split.

Every workload is a closed loop with one client: a job starts when the one
before it ends. A job is one ``run_campaign`` (``bn-n30-k3``,
``hypertree-n16``), one exact moment cell, the cells taken in turn
(``moment-sweep``), or one ``verify_suite("fast")`` (``verify-fast``). The
program sees only the configs built here from the seed. README.md says why
each workload exists and which layer it isolates.

Per-layer figures come from spans opened around calls into the public
functions of ``rowsparse`` (see spans.py); the program is not instrumented.
"""

import json
import math
import random
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from rowsparse import defect, experiment, intlinalg, moments, sampling, structured
from rowsparse.groups import FiniteAbelianGroup
from spans import NullTracer

HERE = Path(__file__).resolve().parent
PINNED_MOMENTS = HERE / "pinned_moments.json"

# (label, group divisors, n); the row weight is k = 3 throughout
MOMENT_CELLS = (
    ("Z2-n500", (2,), 500),
    ("Z3-n120", (3,), 120),
    ("Z2xZ2-n30", (2, 2), 30),
    ("Z5-n20", (5,), 20),
)
MOMENT_K = 3
FIRST_DRAWS = 3  # fresh hosts timed per traced run for sampling.first_draw_ms

# every per-layer metric with its unit; a layer a workload does not run reads 0
PER_LAYER_UNITS = {
    "sampling.first_draw_ms": "ms",
    "sampling.draw_ms_p50": "ms",
    "sampling.draw_ms_p90": "ms",
    "sampling.matrix_build_ms_p50": "ms",
    "sampling.micro_draw_us_p50": "us",
    "sampling.enumerate_ms": "ms",
    "sampling.draws": "count",
    "sampling.degenerate_errors": "count",
    "sampling.host_rows": "count",
    "snf.cokernel_ms_p50": "ms",
    "snf.cokernel_ms_p90": "ms",
    "snf.rank_mod2_ms_p50": "ms",
    "snf.sylow_ms_p50": "ms",
    "snf.torsion_bits_p50": "bits",
    "snf.torsion_bits_max": "bits",
    "experiment.trial_ms_p50": "ms",
    "experiment.trial_ms_p90": "ms",
    "experiment.report_ms": "ms",
    "experiment.trace_overhead_frac": "ratio",
    "experiment.unattributed_frac": "ratio",
    **{f"moments.cell_s.{label}": "s" for label, _, _ in MOMENT_CELLS},
    **{f"moments.types.{label}": "count" for label, _, _ in MOMENT_CELLS},
    "moments.cross_method_ms": "ms",
    "structured.gram_identity_ms": "ms",
    "defect.subset_mass_ms": "ms",
}

# spans that wrap one whole job and are no layer of their own; their self
# time is time no layer span covers. A moment-sweep job is one
# ``moments.cell`` span, which is a layer.
JOB_SPANS = ("experiment.campaign", "verify.suite")


@dataclass
class JobResult:
    wall_s: float
    attempted: int
    failed: int
    problems: list = field(default_factory=list)
    torsion_bits: list = field(default_factory=list)
    kind: str = "job"  # jobs of one kind do the same work; a moment cell's label


def job_seconds(results):
    """Wall time of one job of each kind, summed: the mean wall of each kind.

    Campaign and verify jobs are of one kind, so this is the mean job wall.
    On ``moment-sweep`` it is the time of one pass over all cells.
    """
    walls = {}
    for r in results:
        walls.setdefault(r.kind, []).append(r.wall_s)
    return sum(statistics.fmean(w) for w in walls.values())


# -- output checks ----------------------------------------------------------


def trial_problems(rec, forced_primes):
    """What is wrong with one trial record, by rules any correct sampler obeys.

    A sampled matrix is nonsingular, so the cokernel is finite; its F_2
    corank is the number of even elementary divisors; and for each prime p
    dividing the row weight k the all-ones vector lies in the kernel mod p,
    so the p-Sylow partition is never empty.
    """
    out = []
    if rec["free_rank"] != 0 or rec["det_zero"]:
        out.append(f"trial {rec['trial_id']}: free rank {rec['free_rank']}")
    even = sum(1 for d in rec["divisors"] if d % 2 == 0)
    if rec["f2_corank"] != even:
        out.append(f"trial {rec['trial_id']}: f2_corank {rec['f2_corank']} != {even} even divisors")
    for p in forced_primes:
        if not rec["sylow"].get(str(p)):
            out.append(f"trial {rec['trial_id']}: empty {p}-Sylow at k={rec['k']}")
    return out


def check_trials(data, cfg):
    """Check one trials.jsonl; returns (failed trial count, problems, torsion bits)."""
    lines = data.decode().splitlines()
    problems = []
    failed = abs(len(lines) - cfg.trials)
    if failed:
        problems.append(f"{len(lines)} records for {cfg.trials} trials")
    k = cfg.resolve_k()
    forced = [p for p in cfg.primes if k is not None and k % p == 0]
    bits = []
    for line in lines:
        rec = json.loads(line)
        bad = trial_problems(rec, forced)
        if bad:
            failed += 1
            problems.extend(bad)
        bits.append(sum(math.log2(d) for d in rec["divisors"]))
    return failed, problems, bits


def rerun_problems(first, second, seed):
    """Failed trial count and problems when a rerun on one seed changed trials.jsonl."""
    if first == second:
        return 0, []
    a, b = first.splitlines(), second.splitlines()
    differing = sum(1 for x, y in zip(a, b) if x != y) + abs(len(a) - len(b))
    return max(differing, 1), [f"rerun of campaign seed {seed} changed {differing} trial lines"]


def fraction_text(value):
    return f"{value.numerator}/{value.denominator}"


# -- workloads --------------------------------------------------------------


class Campaign:
    """``run_campaign`` with an output directory, so files and reports are written.

    Jobs run in pairs on one campaign seed, and the pair's trials.jsonl
    bytes must match.
    """

    def __init__(self, model, n, trials, k=None, primes=(2, 3)):
        self.model = model
        self.n = n
        self.k = k
        self.trials = trials
        self.primes = primes

    def config(self, seed, trials):
        return experiment.ExperimentConfig(
            model=self.model, n=self.n, k=self.k, primes=self.primes, trials=trials, seed=seed
        )

    def fresh_host(self):
        if self.model == "bn_matrix":
            return sampling.BasisSumRows(self.n, self.k)
        return sampling.BoundaryRows(self.n, 2)

    def setup(self, seed, scratch):
        self.scratch = scratch
        self._first_of_pair = None
        experiment.run_trial(self.config(seed, 1), 0)  # builds and caches the host

    def complete(self, jobs):
        """A run may end only when no rerun pair is open."""
        return jobs % 2 == 0

    def job(self, seed, index, tracer):
        cfg = self.config(seed * 1000 + index // 2, self.trials)
        out = self.scratch / f"job-{index}"
        if index % 2 == 0:
            self._first_of_pair = None  # a crash below leaves nothing to compare with
        start = time.perf_counter()
        try:
            with tracer.span("experiment.campaign", new_trace=True, job=index):
                experiment.run_campaign(cfg, out_dir=str(out))
            wall = time.perf_counter() - start
            data = (out / "trials.jsonl").read_bytes()
        except Exception as exc:  # a crashed job is counted as failed; the run goes on
            return JobResult(time.perf_counter() - start, cfg.trials, cfg.trials, [repr(exc)])
        finally:
            shutil.rmtree(out, ignore_errors=True)
        failed, problems, bits = check_trials(data, cfg)
        if index % 2 == 0:
            self._first_of_pair = data
        elif self._first_of_pair is not None:
            more, why = rerun_problems(self._first_of_pair, data, cfg.seed)
            failed = min(cfg.trials, failed + more)
            problems += why
        return JobResult(wall, cfg.trials, failed, problems, bits)

    def properties(self, results):
        bits = [b for r in results for b in r.torsion_bits]
        host = self.fresh_host()
        return {
            "host_rows": host.n_items,
            "matrix_dim": host.ncols,
            "trials_per_job": self.trials,
            "torsion_bits_p50": statistics.median(bits) if bits else 0.0,
            "torsion_bits_max": max(bits, default=0.0),
            "torsion_bits_hist": _histogram(bits),
        }

    def first_draws(self, tracer, seed):
        for i in range(FIRST_DRAWS):
            host = self.fresh_host()
            rng = np.random.default_rng([seed, 1000 + i])
            with tracer.span("sampling.first_draw", new_trace=True):
                sampling.sample_volume(host, rng)

    def patch(self, tracer):
        tracer.patch(experiment, "run_trial", "experiment.trial", new_trace=True)
        tracer.patch(experiment, "sample_volume", "sampling.draw")
        for owner, attr in (
            (sampling.RowFamily, "dense_row"),
            (sampling.BasisSumRows, "item_index"),
            (sampling.BoundaryRows, "item_index"),
        ):
            # only the calls run_trial makes to assemble the matrix, not the sampler's own
            tracer.patch(owner, attr, "sampling.matrix_build", only_under=("experiment.trial",))
        tracer.patch(experiment, "cokernel", "snf.cokernel")
        tracer.patch(experiment, "sylow", "snf.sylow")
        tracer.patch(experiment, "rank_mod_p", "snf.rank_mod2")
        tracer.patch(experiment, "build_report", "experiment.report")
        tracer.patch(experiment, "report_csv", "experiment.report")


class MomentSweep:
    """``surjection_moment_exact`` over fixed cells, one cell per job.

    Jobs take the cells in turn, in an order the seed picks, so a run's time
    is spread over every cell. ``job_seconds`` adds up the mean of each cell.
    """

    def __init__(self, cells=MOMENT_CELLS, k=MOMENT_K, pinned=PINNED_MOMENTS):
        self.cell_spec = cells
        self.k = k
        self.pinned = Path(pinned)

    def setup(self, seed, scratch):
        pins = json.loads(self.pinned.read_text())
        self.cells = [
            (label, FiniteAbelianGroup(divs), n, pins[label]) for label, divs, n in self.cell_spec
        ]
        random.Random(seed).shuffle(self.cells)

    def complete(self, jobs):
        """A run may end only when every cell has been timed."""
        return jobs >= len(self.cells)

    def job(self, seed, index, tracer):
        label, group, n, pin = self.cells[index % len(self.cells)]
        start = time.perf_counter()
        try:
            with tracer.span("moments.cell", new_trace=True, cell=label, job=index):
                value = moments.surjection_moment_exact(group, n, self.k)
        except Exception as exc:  # a crashed cell is counted as failed
            return JobResult(time.perf_counter() - start, 1, 1, [f"{label}: {exc!r}"], kind=label)
        wall = time.perf_counter() - start
        if fraction_text(value) != pin:
            problem = f"{label}: {float(value)!r} differs from the pinned value"
            return JobResult(wall, 1, 1, [problem], kind=label)
        return JobResult(wall, 1, 0, kind=label)

    def properties(self, results):
        return {"host_rows": 0, "cell_order": [label for label, *_ in self.cells]}

    def first_draws(self, tracer, seed):
        pass

    def patch(self, tracer):
        tracer.patch(moments, "expected_annihilated_exact", "moments.type")


class VerifyFast:
    """``verify_suite("fast")``; every ledger entry must read ``pass``.

    The suite draws from its own fixed seed; the workload seed only picks
    the streams of the traced run's first-draw probes.
    """

    def setup(self, seed, scratch):
        pass

    def complete(self, jobs):
        return True

    def job(self, seed, index, tracer):
        start = time.perf_counter()
        try:
            with tracer.span("verify.suite", new_trace=True, job=index):
                ledger = experiment.verify_suite("fast")
        except Exception as exc:  # a crashed suite is one failed unit
            return JobResult(time.perf_counter() - start, 1, 1, [repr(exc)])
        wall = time.perf_counter() - start
        bad = [f"{e['name']}: {e['status']} {e['detail']}" for e in ledger if e["status"] != "pass"]
        return JobResult(wall, len(ledger), len(bad), bad)

    def properties(self, results):
        return {"host_rows": sampling.BasisSumRows(3, 3).n_items}

    def first_draws(self, tracer, seed):
        for i in range(FIRST_DRAWS):
            rng = np.random.default_rng([seed, 1000 + i])
            with tracer.span("sampling.first_draw", new_trace=True):
                sampling.sample_volume(sampling.BasisSumRows(3, 3), rng)

    def patch(self, tracer):
        for attr in ("gram_closed_form", "gram_rowwise", "gram_determinant"):
            tracer.patch(structured, attr, "structured.gram_identity")
        # the gram-identity check is the fast suite's only caller of int_det
        tracer.patch(intlinalg, "int_det", "structured.gram_identity")
        tracer.patch(structured, "hypertree_identity", "structured.hypertree_identity")
        tracer.patch(sampling, "enumerate_distribution", "sampling.enumerate")
        tracer.patch(sampling, "sample_volume", "sampling.micro_draw")
        tracer.patch(moments, "surjection_moment_exact", "moments.cross_method")
        tracer.patch(moments, "surjection_moment_bruteforce", "moments.cross_method")
        tracer.patch(moments, "annihilation_probability", "moments.annihilation")
        tracer.patch(moments, "kl_curvature_check", "moments.kl_curvature")
        tracer.patch(defect, "isolated_double_probability", "defect.isolated_double")
        tracer.patch(defect, "subset_family_mass", "defect.subset_mass")


WORKLOADS = {
    "bn-n30-k3": lambda: Campaign("bn_matrix", n=30, k=3, trials=40),
    "hypertree-n16": lambda: Campaign("hypertree", n=16, trials=24),
    "moment-sweep": MomentSweep,
    "verify-fast": VerifyFast,
}


# -- running ----------------------------------------------------------------


def run_jobs(workload, seed, seconds, tracer):
    """Jobs back to back until `seconds` have passed and the workload is complete."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(workload.job(seed, len(results), tracer))
        if time.perf_counter() - start >= seconds and workload.complete(len(results)):
            return results


def run_alternating(workload, seed, seconds, tracer):
    """Each job index untraced and then traced, until `seconds` have passed.

    The two runs of one index have the same inputs and sit next to each
    other in time, so the machine's drifting speed cancels from their ratio.
    Returns (untraced results, traced results).
    """
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        index = len(traced)
        untraced.append(workload.job(seed, index, NullTracer()))
        workload.patch(tracer)
        try:
            traced.append(workload.job(seed, index, tracer))
        finally:
            tracer.restore()
        if time.perf_counter() - start >= seconds and workload.complete(len(traced)):
            return untraced, traced


# -- per-layer split --------------------------------------------------------


def _histogram(values):
    hist = {}
    for v in values:
        key = str(round(v))
        hist[key] = hist.get(key, 0) + 1
    return dict(sorted(hist.items(), key=lambda kv: int(kv[0])))


def _p50(values):
    return statistics.median(values) if values else 0.0


def _p90(values):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def layer_metrics(tracer, untraced, traced, props):
    """Every per-layer metric from the traced run's spans and job results.

    `untraced` and `traced` are the job results of `run_alternating`, one
    of each per job index.
    """
    spans = tracer.spans

    def ms(name):
        return [s.seconds * 1e3 for s in spans if s.name == name]

    def ms_per_trace(name):
        sums = {}
        for s in spans:
            if s.name == name:
                sums[s.trace] = sums.get(s.trace, 0.0) + s.seconds * 1e3
        return list(sums.values())

    draws = [s for s in spans if s.name in ("sampling.draw", "sampling.micro_draw")]
    overhead = sum(r.wall_s for r in traced) / sum(r.wall_s for r in untraced)
    self_s = tracer.self_seconds()
    job_total = sum(s.seconds for s in spans if s.name in JOB_SPANS)
    unattributed = sum(
        own for s, own in zip(spans, self_s) if s.name in JOB_SPANS + ("experiment.trial",)
    )

    out = {
        "sampling.first_draw_ms": _p50(ms("sampling.first_draw")),
        "sampling.draw_ms_p50": _p50(ms("sampling.draw")),
        "sampling.draw_ms_p90": _p90(ms("sampling.draw")),
        "sampling.matrix_build_ms_p50": _p50(ms_per_trace("sampling.matrix_build")),
        "sampling.micro_draw_us_p50": _p50(ms("sampling.micro_draw")) * 1e3,
        "sampling.enumerate_ms": _p50(ms_per_trace("sampling.enumerate")),
        "sampling.draws": len(draws),
        "sampling.degenerate_errors": sum(
            1 for s in spans
            if s.name.startswith("sampling.") and s.error == "DegenerateHostError"
        ),
        "sampling.host_rows": props.get("host_rows", 0),
        "snf.cokernel_ms_p50": _p50(ms("snf.cokernel")),
        "snf.cokernel_ms_p90": _p90(ms("snf.cokernel")),
        "snf.rank_mod2_ms_p50": _p50(ms("snf.rank_mod2")),
        "snf.sylow_ms_p50": _p50(ms_per_trace("snf.sylow")),
        "snf.torsion_bits_p50": props.get("torsion_bits_p50", 0.0),
        "snf.torsion_bits_max": props.get("torsion_bits_max", 0.0),
        "experiment.trial_ms_p50": _p50(ms("experiment.trial")),
        "experiment.trial_ms_p90": _p90(ms("experiment.trial")),
        "experiment.report_ms": _p50(ms_per_trace("experiment.report")),
        "experiment.trace_overhead_frac": overhead,
        "experiment.unattributed_frac": unattributed / job_total if job_total else 0.0,
        "moments.cross_method_ms": _p50(ms_per_trace("moments.cross_method")),
        "structured.gram_identity_ms": _p50(ms_per_trace("structured.gram_identity")),
        "defect.subset_mass_ms": _p50(ms_per_trace("defect.subset_mass")),
    }
    cell_of = {s.trace: s.attrs["cell"] for s in spans if s.name == "moments.cell"}
    types = {}
    for s in spans:
        if s.name == "moments.type":
            types[s.trace] = types.get(s.trace, 0) + 1
    for label, _, _ in MOMENT_CELLS:
        cell_ms = [s.seconds for s in spans if s.name == "moments.cell" and s.attrs["cell"] == label]
        out[f"moments.cell_s.{label}"] = _p50(cell_ms)
        out[f"moments.types.{label}"] = _p50(
            [types.get(trace, 0) for trace, cell in cell_of.items() if cell == label]
        )
    return {name: out[name] for name in PER_LAYER_UNITS}
