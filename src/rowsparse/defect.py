"""Mod-2 kernel defect of the sampled matrices: exact column-event probabilities,
a Bonferroni lower bound for the corank tail, and Monte Carlo estimation.

The driving event for column i is "some chosen row meets i exactly twice and
no other chosen row meets i at all": such a column reduces to zero mod 2, so
r simultaneous events force an F_2-corank of at least r. The probability of
r simultaneous events is exact and index-free:

    (2 k (k-1) (n-r)^(k-2))^r * C(n-r) / C(n)

with C(n) the Gram determinant of the (n, k) family.
"""

import math
from fractions import Fraction

from . import sampling
from .errors import InvalidInputError
from .sampling import _as_rng
from .snf import cokernel
from .structured import gram_determinant


def column_is_isolated_double(subset, i):
    """True iff exactly one tuple of the subset meets i, with multiplicity two."""
    hits = 0
    doubled = False
    for b in subset:
        c = sum(1 for x in b if x == i)
        if c:
            hits += 1
            doubled = c == 2
    return hits == 1 and doubled


def isolated_double_probability(n, k, r):
    """Exact probability that r given columns are each isolated doubles.

    The value does not depend on which r columns are named.
    """
    if not 1 <= r < n:
        raise InvalidInputError(f"need 1 <= r < n, got r={r}")
    factor = 2 * k * (k - 1) * (n - r) ** (k - 2)
    return Fraction(factor**r * gram_determinant(n - r, k), gram_determinant(n, k))


def bonferroni_lower(n, k, r):
    """Exact Bonferroni lower bound on P(F_2-corank of the sample >= r)."""
    if not 1 <= r <= n - 1:
        raise InvalidInputError(f"need 1 <= r <= n-1, got r={r}")
    first = math.comb(n, r) * isolated_double_probability(n, k, r)
    if r + 1 < n:
        second = r * math.comb(n, r + 1) * isolated_double_probability(n, k, r + 1)
    else:
        second = Fraction(0)
    return first - second


def corank_tail_floor(k, r):
    """Asymptotic floor (1 / (4 r!)) * (2 (k-1) / e^(k-1))^r of the corank tail."""
    if k < 3 or k % 2 == 0:
        raise InvalidInputError("need odd k >= 3")
    if r < 1:
        raise InvalidInputError("need r >= 1")
    return (2 * (k - 1) / math.exp(k - 1)) ** r / (4 * math.factorial(r))


def mc_corank_tail(n, k, r, trials, rng=None, precision="float64"):
    """Monte Carlo estimate of P(F_2-corank >= r) with its binomial standard error.

    The trials are the successive draws on rng, taken one walk (`walk_size()`) at a time.
    """
    if r == 0:
        return 1.0, 0.0
    if trials < 100:
        raise InvalidInputError("need at least 100 trials")
    rng = _as_rng(rng)
    family = sampling.cached_family(sampling.BasisSumRows, n, k)
    walk = family.walk_size()
    hits = 0
    for start in range(0, trials, walk):
        for subset in sampling.sample_volume(family, [rng] * min(walk, trials - start), precision):
            # the F_2 corank as run_trial reads it, off the cokernel of the square draw
            if cokernel(family.subset_matrix(subset)).dim_mod(2) >= r:
                hits += 1
    est = hits / trials
    return est, math.sqrt(est * (1.0 - est) / trials)


def subset_family_mass(n, k, predicate):
    """Exact probability mass of {Y : predicate(Y)} under the volume measure.

    A filter over the distribution stored on the cached (n, k) host, so only
    the first call per host enumerates subsets.
    """
    family = sampling.cached_family(sampling.BasisSumRows, n, k)
    return sum(
        (p for subset, p in sampling.enumerate_distribution(family) if predicate(subset)),
        Fraction(0),
    )
