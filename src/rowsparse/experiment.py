"""Seeded Monte Carlo campaigns, reports, and the exact-identity verify suite.

A campaign draws matrices from the configured model, records Smith normal
form data per trial, and emits a JSON-lines trial file plus JSON/CSV reports.
Per-trial randomness derives from (seed, trial_id), so campaigns are
reproducible trial-for-trial regardless of worker count. A campaign draws
its trials a chunk at a time, one `sample_volume` call on the chunk's
per-trial Generators, which the host serves as one batched walk: a chunk
holds at most the host's `walk_size()` trials.
"""

import csv
import io
import itertools
import json
import math
import os
import platform
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial

import numpy as np

from . import defect, intlinalg, moments, sampling, structured
from .errors import IdentityError, InvalidInputError
from .groups import (
    FiniteAbelianGroup,
    cl_probability,
    is_prime,
    p_groups_up_to,
    sur_count_cokernel,
)
from .sampling import PRECISIONS, BasisSumRows, BoundaryRows, cached_family, sample_volume
# rank_mod_p is not called here; perfbench's traced campaigns patch it under this name
from .snf import cokernel, rank_mod_p, sylow

WORKERS_ENV = "ROWSPARSE_WORKERS"


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    trials: int
    seed: int
    model: str = "bn_matrix"
    k: int = None
    k_schedule: str = None  # "loglog:<c>" or "pow:<eps>"; evaluated at n
    primes: tuple = (2, 3)
    precision: str = "float64"

    def __post_init__(self):
        if self.model not in ("bn_matrix", "hypertree"):
            raise InvalidInputError(f"unknown model {self.model!r}")
        if self.trials < 1:
            raise InvalidInputError("need at least one trial")
        if self.seed < 0:
            raise InvalidInputError(f"seed must be >= 0, got {self.seed}")
        if self.precision not in PRECISIONS:
            raise InvalidInputError(f"unknown precision {self.precision!r}")
        for p in self.primes:
            if not is_prime(p):
                raise InvalidInputError(f"{p} is not prime")
        if self.model == "bn_matrix":
            if self.n < 1:
                raise InvalidInputError("need n >= 1")
            if (self.k is None) == (self.k_schedule is None):
                raise InvalidInputError("give exactly one of k or k_schedule")
            if self.k is not None and self.k < 3:
                raise InvalidInputError("k must be >= 3")
        if self.model == "hypertree":
            if self.n < 4:
                raise InvalidInputError("hypertree model needs n >= 4")
            if self.k is not None or self.k_schedule is not None:
                raise InvalidInputError("the hypertree model takes no k or k_schedule")
        self.resolve_k()  # a malformed schedule fails here, before any draw or worker

    def resolve_k(self):
        """Row weight at this n; schedules are clamped up to the minimum weight 3."""
        if self.model == "hypertree":
            return None
        if self.k is not None:
            return self.k
        kind, _, arg = self.k_schedule.partition(":")
        if kind not in ("loglog", "pow"):
            raise InvalidInputError(f"unknown k schedule {self.k_schedule!r}")
        try:
            c = float(arg)
            if kind == "loglog":
                raw = c * math.log(max(math.log(max(self.n, 3)), 1e-9))
            else:
                raw = self.n**c
            return max(3, math.ceil(raw))
        except (ValueError, OverflowError):  # no number, or no finite weight (inf, nan)
            raise InvalidInputError(f"k schedule {self.k_schedule!r} gives no row weight") from None


@dataclass
class TrialRecord:
    trial_id: int
    seed: tuple
    n: int
    k: int
    det_zero: bool
    divisors: tuple
    sylow: dict  # prime -> decreasing partition (or None when infinite)
    f2_corank: int
    free_rank: int = 0

    def to_json_dict(self):
        return {
            "trial_id": self.trial_id,
            "seed": list(self.seed),
            "n": self.n,
            "k": self.k,
            "det_zero": self.det_zero,
            "free_rank": self.free_rank,
            "divisors": list(self.divisors),
            "sylow": {str(p): (list(v) if v is not None else None) for p, v in self.sylow.items()},
            "f2_corank": self.f2_corank,
        }

    @classmethod
    def from_json_dict(cls, d):
        return cls(
            trial_id=d["trial_id"],
            seed=tuple(d["seed"]),
            n=d["n"],
            k=d["k"],
            det_zero=d["det_zero"],
            free_rank=d.get("free_rank", 0),
            divisors=tuple(d["divisors"]),
            sylow={int(p): (tuple(v) if v is not None else None) for p, v in d["sylow"].items()},
            f2_corank=d["f2_corank"],
        )


def _trial_family(cfg):
    if cfg.model == "bn_matrix":
        return cached_family(BasisSumRows, cfg.n, cfg.resolve_k())
    return cached_family(BoundaryRows, cfg.n, 2)


def _trial_rng(cfg, trial_id):
    return np.random.default_rng([cfg.seed, trial_id])


def run_trial(cfg, trial_id, subset=None):
    """One seeded trial; the rng stream is derived from (seed, trial_id).

    subset: the trial's draw, when the caller made it from that stream
    (as `run_campaign` does, a chunk of trials at a time); None draws it here.
    """
    family = _trial_family(cfg)
    if subset is None:
        subset = sample_volume(family, _trial_rng(cfg, trial_id), cfg.precision)
    cok = cokernel(family.subset_matrix(subset))
    syl = {}
    for p in cfg.primes:
        s = sylow(cok, p)
        syl[p] = None if s.infinite else s.partition
    return TrialRecord(
        trial_id=trial_id,
        seed=(cfg.seed, trial_id),
        n=cfg.n,
        k=cfg.resolve_k() if cfg.model == "bn_matrix" else 0,
        det_zero=not cok.is_finite,
        free_rank=cok.free_rank,
        divisors=cok.divisors,
        sylow=syl,
        f2_corank=family.ncols - len(subset) + cok.dim_mod(2),
    )


def _run_chunk(cfg, trial_ids):
    """The trials trial_ids, their draws taken by one sample_volume call on their streams."""
    subsets = sample_volume(
        _trial_family(cfg), [_trial_rng(cfg, i) for i in trial_ids], cfg.precision
    )
    return [run_trial(cfg, i, subset) for i, subset in zip(trial_ids, subsets)]


def _chunks(cfg, workers=1):
    """The trial ids as ranges of equal size, one per _run_chunk call: at most one walk's
    draws each (the host's `walk_size()`), and about a multiple of `workers` ranges, so
    the pool's workers get even shares."""
    count = -(-cfg.trials // _trial_family(cfg).walk_size())  # the fewest chunks that fit
    count = -(-count // workers) * workers
    size = -(-cfg.trials // count)
    return [range(start, min(start + size, cfg.trials)) for start in range(0, cfg.trials, size)]


def worker_count():
    """Worker processes from ROWSPARSE_WORKERS: 1 when unset, capped at the CPU count."""
    text = os.environ.get(WORKERS_ENV, "1")
    try:
        workers = int(text)
    except ValueError:
        raise InvalidInputError(f"{WORKERS_ENV} must be an integer, got {text!r}") from None
    if workers < 1:
        raise InvalidInputError(f"{WORKERS_ENV} must be >= 1, got {workers}")
    return min(workers, os.cpu_count() or 1)


def run_campaign(cfg, out_dir=None, tv_cap=81):
    """Run all trials; optionally persist trials.jsonl, report.json, report.csv.

    Returns (records, report). Worker count comes from worker_count(); outputs
    are identical either way.
    """
    if tv_cap < 1:  # refused before any draw, not in report_tv after all of them
        raise InvalidInputError(f"the Sylow order cap must be >= 1, got {tv_cap}")
    workers = worker_count()
    chunks = _chunks(cfg, workers)
    run = partial(_run_chunk, cfg)
    if workers > 1:
        # imported here: the pool's modules are a third of the package's import time
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(run, chunks))
    else:
        done = map(run, chunks)
    records = [rec for chunk in done for rec in chunk]
    report = build_report(cfg, records, tv_cap=tv_cap)
    if out_dir is not None:
        try:
            os.makedirs(out_dir, exist_ok=True)
            with open(os.path.join(out_dir, "trials.jsonl"), "w") as fh:
                for rec in records:
                    fh.write(json.dumps(rec.to_json_dict(), sort_keys=True) + "\n")
            with open(os.path.join(out_dir, "report.json"), "w") as fh:
                json.dump(report, fh, indent=2, sort_keys=True)
                fh.write("\n")
            with open(os.path.join(out_dir, "report.csv"), "w") as fh:
                fh.write(report_csv(report))
        except OSError as exc:
            raise InvalidInputError(f"cannot write under {out_dir}: {exc.strerror}") from None
    return records, report


def wilson_interval(successes, total):
    """95% Wilson score interval for a binomial proportion."""
    if total == 0:
        return 0.0, 1.0
    z = 1.96
    phat = successes / total
    denom = 1.0 + z * z / total
    center = (phat + z * z / (2 * total)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / total + z * z / (4 * total * total)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@lru_cache(maxsize=32)
def _cl_table(p, cap):
    """(label, partition, Cohen-Lenstra weight) of each p-group of order <= cap, built once."""
    return tuple(
        (G.label(), G.primary_partitions().get(p, ()), cl_probability(G, p))
        for G in p_groups_up_to(p, cap)
    )


def report_tv(records, p, cap):
    """Empirical p-Sylow distribution vs the Cohen-Lenstra weights, capped.

    Buckets are the p-groups of order <= cap, one "other" bucket for larger
    finite Sylow groups, and one "infinite" bucket for det = 0 trials (weight
    zero under the reference). Frequencies over all trials sum to 1.
    """
    if not records:
        raise InvalidInputError("no records")
    if not is_prime(p):
        raise InvalidInputError(f"{p} is not prime")
    total = len(records)
    counts = {}
    other = 0
    infinite = 0
    for rec in records:
        part = rec.sylow.get(p)
        if part is None:
            if p not in rec.sylow:
                raise InvalidInputError(f"records carry no Sylow data at p={p}")
            infinite += 1
            continue
        if p ** sum(part) <= cap:
            counts[tuple(part)] = counts.get(tuple(part), 0) + 1
        else:
            other += 1
    entries = []
    tv = 0.0
    for label, part, ref in _cl_table(p, cap):
        c = counts.get(part, 0)
        lo, hi = wilson_interval(c, total)
        entries.append(
            {
                "group": label,
                "partition": list(part),
                "count": c,
                "freq": c / total,
                "wilson": [lo, hi],
                "cl": ref,
            }
        )
        tv += abs(c / total - ref)
    ref_other = 1.0 - sum(e["cl"] for e in entries)
    tv += abs(other / total - ref_other)
    tv += infinite / total  # reference weight of infinite cokernels is 0
    return {
        "prime": p,
        "cap": cap,
        "trials": total,
        "entries": entries,
        "other_freq": other / total,
        "other_cl": ref_other,
        "infinite_freq": infinite / total,
        "tv": tv / 2.0,
    }


def report_moment(records, G):
    """Monte Carlo estimate of E(#Sur(cok, G)) with its standard error.

    Returns (estimate, standard_error); the error is None for a single record.
    """
    if not records:
        raise InvalidInputError("no records")
    keys = [(tuple(rec.divisors), rec.free_rank) for rec in records]
    counts = {key: sur_count_cokernel(*key, G) for key in set(keys)}  # one per distinct cokernel
    vals = [counts[key] for key in keys]
    mean = sum(vals) / len(vals)
    if len(vals) < 2:
        return mean, None
    var = sum((v - mean) ** 2 for v in vals) / (len(vals) - 1)
    return mean, math.sqrt(var / len(vals))


def build_report(cfg, records, tv_prime=None, tv_cap=81, moment_groups=None):
    primes = [tv_prime] if tv_prime else list(cfg.primes)
    if moment_groups is None:
        moment_groups = [FiniteAbelianGroup((p,)) for p in primes]
    report = {
        "config": {
            "model": cfg.model,
            "n": cfg.n,
            "k": cfg.resolve_k() if cfg.model == "bn_matrix" else None,
            "k_schedule": cfg.k_schedule,
            "primes": list(cfg.primes),
            "trials": cfg.trials,
            "seed": cfg.seed,
            "precision": cfg.precision,
        },
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "sylow": {str(p): report_tv(records, p, tv_cap) for p in primes},
        "moments": {},
        "det_zero_freq": sum(r.det_zero for r in records) / len(records),
    }
    for G in moment_groups:
        est, se = report_moment(records, G)
        report["moments"][G.label()] = {"estimate": est, "stderr": se}
    return report


def report_csv(report):
    """Flatten the per-group Sylow rows of a report into CSV text."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["prime", "group", "count", "freq", "wilson_lo", "wilson_hi", "cl"])
    for p, tv_block in sorted(report["sylow"].items()):
        for e in tv_block["entries"]:
            writer.writerow(
                [p, e["group"], e["count"], f"{e['freq']:.6f}",
                 f"{e['wilson'][0]:.6f}", f"{e['wilson'][1]:.6f}", f"{e['cl']:.6f}"]
            )
        writer.writerow([p, "other", "", f"{tv_block['other_freq']:.6f}", "", "",
                         f"{tv_block['other_cl']:.6f}"])
        writer.writerow([p, "infinite", "", f"{tv_block['infinite_freq']:.6f}", "", "", "0"])
        writer.writerow([p, "tv", "", f"{tv_block['tv']:.6f}", "", "", ""])
    return buf.getvalue()


def load_trials(path):
    """One campaign's trials.jsonl records; a malformed or foreign line raises InvalidInputError."""
    records = []
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError as exc:
                raise InvalidInputError(f"{path} line {number} is not JSON: {exc.msg}") from None
            try:
                rec = TrialRecord.from_json_dict(data)
                campaign = (rec.n, rec.k, rec.seed[0], sorted(rec.sylow))
            except KeyError as exc:
                raise InvalidInputError(f"{path} line {number} has no {exc} field") from None
            except (AttributeError, IndexError, TypeError, ValueError):
                raise InvalidInputError(f"{path} line {number} is not a trial record") from None
            if not records:
                first = campaign
            elif campaign != first:
                raise InvalidInputError(f"{path} line {number} differs from the first record "
                                        "in n, k, seed or Sylow primes")
            records.append(rec)
    return records


# -- exact identities ---------------------------------------------------------
#
# One registry serves `rowsparse verify` and the acceptance gate. Each check
# takes `full` (the full level's larger grid), raises IdentityError on a
# failed identity and returns a detail line. The raise is explicit, not an
# `assert`, so the checks still hold under `python -O`. Checks reach
# structured, sampling, moments, defect and intlinalg through their modules
# at call time, so a wrapper installed on a module attribute sees every call.


def _require(ok, message):
    if not ok:
        raise IdentityError(message)


def _gram_identity(full):
    ns = range(1, 9 if full else 6)
    ks = (3, 4, 5, 7) if full else (3, 4)
    for n in ns:
        for k in ks:
            closed = structured.gram_closed_form(n, k)
            summed = structured.gram_rowwise(n, k)
            _require(closed == summed, f"gram mismatch at {(n, k)}")
            _require(
                intlinalg.int_det(closed) == structured.gram_determinant(n, k),
                f"det mismatch at {(n, k)}",
            )
    return f"grid n<={max(ns)}, k in {ks}"


def _hypertree_identity(full):
    top = 8 if full else 6
    for n in range(3, top):
        for r in (1, 2):
            if r <= n - 2:
                lhs, rhs = structured.hypertree_identity(n, r)
                _require(lhs == rhs, f"hypertree identity fails at {(n, r)}: {lhs} != {rhs}")
    return f"n < {top}, r in (1, 2)"


def _sampler_vs_oracle(full):
    fam = cached_family(BasisSumRows, 3, 3)
    dist = dict(sampling.enumerate_distribution(fam))
    _require(sum(dist.values()) == 1, "oracle probabilities do not sum to 1")
    draws = 100_000 if full else 20_000
    rng = np.random.default_rng(20240901)
    cnt = Counter()
    for start in range(0, draws, sampling.DRAW_BATCH):
        cnt.update(sampling.sample_volume(fam, [rng] * min(sampling.DRAW_BATCH, draws - start)))
    _require(all(ss in dist for ss in cnt), "sampler emitted a zero-probability subset")
    tv = 0.5 * sum(abs(cnt.get(ss, 0) / draws - float(p)) for ss, p in dist.items())
    # a perfect sampler's TV concentrates at sum(sqrt(p)) / sqrt(2 pi draws)
    floor = sum(math.sqrt(p) for p in dist.values()) / math.sqrt(2 * math.pi * draws)
    allowance = 1.5 * floor + 0.01
    _require(tv <= allowance, f"TV {tv:.4f} above noise allowance {allowance:.4f}")
    return f"TV {tv:.4f} over {draws} draws (noise floor {floor:.4f})"


def _moment_cross_method(full):
    if full:
        grid = [(divs, n, k) for divs in ((2,), (3,), (2, 2)) for n in range(1, 9)
                for k in (3, 4, 5)]
    else:
        grid = (
            [((2,), n, k) for n in (2, 4, 6, 8) for k in (3, 4, 5)]
            + [((3,), n, 3) for n in (2, 3, 4)]
        )
    for divs, n, k in grid:
        G = FiniteAbelianGroup(divs)
        a = moments.surjection_moment_exact(G, n, k)
        b = moments.surjection_moment_bruteforce(G, n, k)
        _require(a == b, f"moment mismatch at {(G.label(), n, k)}: {a} != {b}")
    return f"{len(grid)} (G, n, k) cells"


def _isolated_double_probability(full):
    if full:
        _require(
            defect.isolated_double_probability(3, 3, 1) == Fraction(128, 729),
            "isolated-double probability at (3, 3, 1) is not 128/729",
        )
    for r in (1, 2):
        formula = defect.isolated_double_probability(3, 3, r)
        cols = list(range(1, r + 1))
        brute = defect.subset_family_mass(
            3, 3, lambda K: all(defect.column_is_isolated_double(K, i) for i in cols)
        )
        _require(formula == brute, f"column-event probability mismatch at r={r}")
    return "n=3, r in (1, 2), exact"


def _annihilation_normalization(full):
    top = 100 if full else 50
    G = FiniteAbelianGroup((2,))
    for k in (3, 5):
        for n in range(1, top + 1):
            _require(
                moments.annihilation_probability(moments.TypeVector(G, (n, 0), k)) == 1,
                f"zero tuple not annihilated with probability 1 at n={n}, k={k}",
            )
    return f"zero tuple pinned for n <= {top}, k in (3, 5)"


def _kl_curvature(full):
    combos = (
        [((2,), 3), ((3,), 3), ((2, 2), 3), ((2,), 5), ((3,), 5), ((2, 2), 5)]
        if full
        else [((2,), 3), ((3,), 3)]
    )
    worst = 0.0
    for divs, k in combos:
        G = FiniteAbelianGroup(divs)
        gnorm, hdev = moments.kl_curvature_check(G, k)
        _require(gnorm <= 1e-6, f"gradient {gnorm} too large for {divs}, k={k}")
        _require(hdev <= 1e-3 * G.order, f"hessian deviation {hdev} too large for {divs}")
        worst = max(worst, gnorm, hdev)
    return f"{len(combos)} (G, k) cells, worst deviation {worst:.2e}"


def _annihilation_vs_subsets(full):
    """The closed form P(A q = 0) against the subset mass of the q-sum-zero slice."""
    k = 3
    for divs in ((2,), (3,)):
        G = FiniteAbelianGroup(divs)
        g = G.order
        for n in (1, 2, 3):
            for q in itertools.product(range(g), repeat=n):
                brute = defect.subset_family_mass(
                    n, k, lambda Y: all(sum(q[x - 1] for x in b) % g == 0 for b in Y)
                )
                counts = [0] * g
                for x in q:
                    counts[x] += 1
                tv_ = moments.TypeVector(G, tuple(counts), k)
                _require(
                    moments.annihilation_probability(tv_) == brute,
                    f"mismatch at G={G.label()}, q={q}",
                )
    return "all q, G in (Z/2, Z/3), n <= 3, k = 3"


IDENTITIES = {
    "gram-identity": _gram_identity,
    "hypertree-identity": _hypertree_identity,
    "sampler-vs-oracle": _sampler_vs_oracle,
    "moment-cross-method": _moment_cross_method,
    "isolated-double-probability": _isolated_double_probability,
    "annihilation-normalization": _annihilation_normalization,
    "kl-curvature": _kl_curvature,
    "annihilation-vs-subsets": _annihilation_vs_subsets,
}
FULL_ONLY = ("annihilation-vs-subsets",)


def _check(name, fn):
    start = time.perf_counter()
    try:
        detail = fn()
        status = "pass"
    except Exception as exc:  # identity failures are data, not crashes
        detail = f"{type(exc).__name__}: {exc}"
        status = "fail"
    return {
        "name": name,
        "status": status,
        "elapsed_ms": round((time.perf_counter() - start) * 1000.0, 3),
        "detail": detail,
    }


def verify_suite(level="fast"):
    """Run the registered exact identities; returns a machine-readable ledger."""
    if level not in ("fast", "full"):
        raise InvalidInputError("level must be fast or full")
    full = level == "full"
    return [
        _check(name, lambda check=check: check(full))
        for name, check in IDENTITIES.items()
        if full or name not in FULL_ONLY
    ]
