"""Acceptance gate: one test per criterion, each at its stated tolerance.

Every test prints a [PASS]/[FAIL] line with the measured quantity. The
exact-identity criteria (c01, c02, c04, c05, c06, c11, c12) run the checks
of `rowsparse.experiment.IDENTITIES` at their full grids, the same checks
`rowsparse verify --level full` runs. Two
checks encode numeric targets that exact computation shows cannot be met by
any correct implementation; they are implemented faithfully and left red
rather than loosened:

* criterion 3 (basis-sum clause): the total-variation distance between 1e5
  empirical draws and the exact 1918-atom subset distribution at (n=3, k=3)
  concentrates at its sampling-noise floor sum(sqrt p)/sqrt(2 pi N) ~ 0.048,
  above the 0.02 target, for a perfect sampler;
* criterion 9: at k = 3 every row of a sample sums to 3, so mod 3 the
  all-ones vector always lies in the kernel: the 3-Sylow subgroup is never
  trivial, the empirical distribution is bounded away from the reference law
  (TV >= 0.56), and the exact moment E(#Sur(cok, Z/3)) at n = 30 equals
  3.5184, far outside [0.85, 1.15]. The convergence statement requires the
  prime not to divide the row weight.

Criterion 7 (floor clause) pins the exact Bonferroni bound at (n=1e4, k=3,
r=1) to its limit, within the criterion's tolerance 0.01, and checks that
it stays above the asymptotic floor. With C(n) = k^(n+1) n^((k-1) n) the
r-column isolated-double probability is

    p(n,k,r) = (2 (k-1))^r (1 - r/n)^((k-1) n) (n-r)^(-r),

so binom(n,r) p(n,k,r) -> x^r / r! with x = 2 (k-1) e^-(k-1), and the bound
binom(n,r) p(n,k,r) - r binom(n,r+1) p(n,k,r+1) tends to
(x^r / r!) (1 - r x / (r+1)). At k = 3, r = 1 that is 4 e^-2 - 8 e^-4
~ 0.394816. The floor x^r / (4 r!) = e^-2 ~ 0.135335 of corank_tail_floor is
a lower estimate of that limit, not the limit itself.
"""

import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np

from rowsparse.defect import bonferroni_lower, corank_tail_floor, mc_corank_tail
from rowsparse.experiment import (
    IDENTITIES,
    ExperimentConfig,
    report_moment,
    report_tv,
    run_campaign,
)
from rowsparse.groups import FiniteAbelianGroup
from rowsparse.moments import surjection_moment_exact
from rowsparse.sampling import (
    DRAW_BATCH,
    BasisSumRows,
    BoundaryRows,
    cached_family,
    enumerate_distribution,
    sample_volume,
)

Z2 = FiniteAbelianGroup((2,))
Z3 = FiniteAbelianGroup((3,))


def _report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def test_c01_gram_identity():
    start = time.perf_counter()
    IDENTITIES["gram-identity"](full=True)
    elapsed = time.perf_counter() - start
    ok = elapsed < 10.0
    assert _report("c01 gram identity", ok, f"exact over n<=8, k in (3,4,5,7), {elapsed:.1f}s")


def test_c02_hypertree_identity():
    start = time.perf_counter()
    IDENTITIES["hypertree-identity"](full=True)
    elapsed = time.perf_counter() - start
    ok = elapsed < 30.0
    assert _report("c02 hypertree identity", ok, f"exact for n<=7, r in (1,2), {elapsed:.1f}s")


def _empirical_tv(family, draws, seed):
    dist = dict(enumerate_distribution(family))
    rng = np.random.default_rng(seed)
    counts = Counter()
    for start in range(0, draws, DRAW_BATCH):
        counts.update(sample_volume(family, [rng] * min(DRAW_BATCH, draws - start)))
    stray = sum(c for ss, c in counts.items() if ss not in dist)
    tv = 0.5 * sum(abs(counts.get(ss, 0) / draws - float(p)) for ss, p in dist.items())
    tv += 0.5 * stray / draws
    return tv


def test_c03_sampler_tv_basis_model():
    """Faithful but unattainable: the noise floor of a perfect sampler at this
    atom resolution and sample size sits at ~0.048 > 0.02 (see module docstring)."""
    tv = _empirical_tv(cached_family(BasisSumRows, 3, 3), 100_000, seed=1001)
    ok = tv <= 0.02
    _report("c03 sampler TV (n=3, k=3)", ok, f"TV = {tv:.4f}, target <= 0.02")
    assert ok, (
        f"TV {tv:.4f} exceeds 0.02: equals the sampling-noise floor "
        "sum(sqrt p)/sqrt(2 pi N) = 0.0481 of the exact distribution itself"
    )


def test_c03_sampler_tv_hypertree_model():
    tv = _empirical_tv(cached_family(BoundaryRows, 5, 2), 100_000, seed=1002)
    ok = tv <= 0.02
    assert _report("c03 sampler TV (hypertree n=5)", ok, f"TV = {tv:.4f}, target <= 0.02")


def test_c04_annihilation_formula():
    start = time.perf_counter()
    IDENTITIES["annihilation-vs-subsets"](full=True)
    elapsed = time.perf_counter() - start
    assert _report(
        "c04 annihilation formula", True,
        f"exact for all q, G in (Z/2, Z/3), n<=3, k=3, {elapsed:.1f}s",
    )


def test_c05_moment_cross_method():
    start = time.perf_counter()
    IDENTITIES["moment-cross-method"](full=True)
    elapsed = time.perf_counter() - start
    ok = elapsed < 120.0
    assert _report("c05 moment cross-method", ok, f"exact over the full grid, {elapsed:.1f}s")


def test_c06_isolated_double_exactness():
    IDENTITIES["isolated-double-probability"](full=True)
    assert _report(
        "c06 isolated-double probability", True,
        "p(3,3,1) = 128/729 and p(3,3,2) pinned by full enumeration",
    )


def test_c07_bonferroni_floor():
    """The bound at n = 1e4 lies within 0.01 of its limit x (1 - x/2) =
    4 e^-2 - 8 e^-4, x = 4 e^-2 (see module docstring), and above the floor
    corank_tail_floor(3, 1) = e^-2."""
    value = float(bonferroni_lower(10_000, 3, 1))
    limit = 4 * math.exp(-2) - 8 * math.exp(-4)
    floor = corank_tail_floor(3, 1)
    ok = abs(value - limit) <= 0.01 and value >= floor
    assert _report(
        "c07 bonferroni floor", ok,
        f"bound(1e4,3,1) = {value:.6f}, |. - (4e^-2 - 8e^-4)| = {abs(value - limit):.1e}, "
        f"target <= 0.01; floor e^-2 = {floor:.6f}",
    )


def test_c07_mc_consistency():
    start = time.perf_counter()
    bound = float(bonferroni_lower(30, 3, 1))
    est, se = mc_corank_tail(30, 3, 1, 1000, rng=np.random.default_rng(707))
    elapsed = time.perf_counter() - start
    ok = est >= bound - 3 * se
    assert _report(
        "c07 corank tail vs bound", ok,
        f"estimate {est:.4f} +- {se:.4f} vs exact bound {bound:.4f}, {elapsed:.0f}s",
    )


def test_c08_fixed_weight_moment_stays_high():
    start = time.perf_counter()
    value = surjection_moment_exact(Z2, 500, 3)
    elapsed = time.perf_counter() - start
    ok = value >= Fraction(3, 2) and elapsed < 60.0
    assert _report(
        "c08 moment at fixed k", ok,
        f"E(#Sur(cok, Z/2)) at n=500, k=3 is {float(value):.6f} >= 1.5, {elapsed:.1f}s",
    )


def test_c09_cl_convergence_p3_k3():
    """Faithful but unattainable: 3 divides the row weight, so the 3-Sylow
    subgroup is never trivial (see module docstring)."""
    start = time.perf_counter()
    cfg = ExperimentConfig(n=30, trials=5000, seed=909, k=3, primes=(3,))
    records, _ = run_campaign(cfg)
    block = report_tv(records, 3, cap=81)
    est, se = report_moment(records, Z3)
    elapsed = time.perf_counter() - start
    tv_ok = block["tv"] <= 0.1
    moment_ok = 0.85 <= est <= 1.15
    _report(
        "c09 CL convergence (p=3, k=3)", tv_ok and moment_ok,
        f"TV = {block['tv']:.4f} (target <= 0.1), moment = {est:.4f} +- {se:.4f} "
        f"(target [0.85, 1.15]), {elapsed:.0f}s",
    )
    assert tv_ok, (
        f"TV = {block['tv']:.4f}: with 3 | k the trivial 3-Sylow group has empirical "
        f"frequency 0 against reference weight 0.560, so TV >= 0.56 always"
    )
    assert moment_ok, (
        f"moment = {est:.4f}: the exact value is "
        f"{float(surjection_moment_exact(Z3, 30, 3)):.4f} (> 2 deterministically since "
        "both nonzero constant vectors are always annihilated mod 3)"
    )


def test_c10_k_growth_contrast():
    start = time.perf_counter()
    m3 = surjection_moment_exact(Z2, 500, 3)
    m13 = surjection_moment_exact(Z2, 500, 13)
    elapsed = time.perf_counter() - start
    ok = abs(m13 - 1) < abs(m3 - 1) and elapsed < 60.0
    assert _report(
        "c10 k-growth contrast", ok,
        f"|moment - 1| exact: {float(abs(m13 - 1)):.6f} at k=13 < "
        f"{float(abs(m3 - 1)):.6f} at k=3, {elapsed:.1f}s",
    )


def test_c11_curvature_check():
    start = time.perf_counter()
    detail = IDENTITIES["kl-curvature"](full=True)
    elapsed = time.perf_counter() - start
    assert _report("c11 KL curvature", True, f"{detail}, {elapsed:.1f}s")


def test_c12_normalization_pin():
    IDENTITIES["annihilation-normalization"](full=True)
    assert _report(
        "c12 normalization pin", True, "P(A q = 0) = 1 exactly for the zero type, n <= 100"
    )
