"""Exact moment machinery for kernel vectors of the sampled matrices.

For a finite abelian group G, a tuple q in G^n is annihilated by the sampled
n x n matrix A exactly when the chosen rows all lie in the q-sum-zero slice
of the family. That probability depends on q only through its type vector
(the histogram of its entries) and has a closed form:

    P(A q = 0) = det(D C) * prod_a w(a)^(n_a - 1) / (k * n^((k-1) n)),

where w(a) = n(k-1)_a counts (k-1)-tuples of entries summing to -a. Over the
support of the type, D = diag(n_a) and C is the rational symmetric matrix
C_ab = (k-1) n(k-2)_(a+b) + [a = b] n(k-1)_a / n_a, so D C is an integer
matrix and its determinant is a fraction-free Bareiss elimination. Every
type of one (n, k) shares the denominator k n^((k-1) n) (TypeVector.denominator),
so the type weights are integer numerators over it.
Summing over types whose support generates G gives the expected number of
surjections cok(A) -> G exactly. P(A q = 0) is invariant under Aut(G), so the
sweep visits one type per Aut(G)-orbit, adds its integer weight times the orbit
size, and builds one Fraction at the end.
"""

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial

import numpy as np

from .errors import InvalidInputError, SizeLimitError
from .groups import AUTOMORPHISM_LIMIT, FiniteAbelianGroup, aut_order, automorphisms
from .intlinalg import _det

TYPE_VECTOR_LIMIT = 10**7
# the shared denominator k n^((k-1) n) has about (k-1) n log2(n) bits, and a type's numerator
# as many; at 2^26 bits (8 MB each) forming the power took 22 s and multiplying two such
# integers 67 s on a 2-vCPU VM, so larger (n, k) are refused before they allocate
DENOMINATOR_BITS_LIMIT = 2**26
BRUTEFORCE_LIMIT = 10**7


def _check_sizes(n, k):
    """Refuse an (n, k) whose shared denominator passes the bit cap, before any power."""
    if (k - 1) * n * n.bit_length() > DENOMINATOR_BITS_LIMIT:
        raise SizeLimitError(f"k n^((k-1) n) at n={n}, k={k} exceeds {DENOMINATOR_BITS_LIMIT} bits")


@dataclass(frozen=True)
class TypeVector:
    """Histogram (n_a)_{a in G} of a tuple in G^n, with the row weight k."""

    group: FiniteAbelianGroup
    counts: tuple
    k: int

    def __post_init__(self):
        g = self.group.order
        if len(self.counts) != g:
            raise InvalidInputError(f"need {g} counts, got {len(self.counts)}")
        if min(self.counts) < 0:
            raise InvalidInputError("counts must be nonnegative")
        if self.k < 3:
            raise InvalidInputError("row weight must be >= 3")
        if self.n < 1:
            raise InvalidInputError("need a nonempty tuple")
        _check_sizes(self.n, self.k)

    @property
    def n(self):
        return sum(self.counts)

    @property
    def denominator(self):
        """k n^((k-1) n), a common denominator of every type weight of this (n, k)."""
        return self.k * self.n ** ((self.k - 1) * self.n)


def _getter(indices):
    """operator.itemgetter of the indices, returning a tuple also for one index."""
    return operator.itemgetter(*indices) if len(indices) > 1 else tuple


@lru_cache(maxsize=64)
def _table_getters(G):
    """Getters of G's negation and of each row of its add table: neg(s)[a] = s[-a] and
    add[a](s)[b] = s[a + b]."""
    add, neg, _ = G.tables()
    return _getter(neg), tuple(map(_getter, add))


def _conv_arrays(tv, upto):
    """n(ell)_a for ell = 1..upto, as sequences indexed like G.elements."""
    neg, add = _table_getters(tv.group)
    counts = tv.counts
    tables = [None, neg(counts)]
    for _ in range(2, upto + 1):
        prev = tables[-1]
        tables.append([sum(map(operator.mul, counts, row(prev))) for row in add])
    return tables


def _scaled_factor(tv, sup, conv):
    """Rows of the integer matrix D C over the support sup."""
    k, counts = tv.k, tv.counts
    add = tv.group.tables()[0]
    nk2, nk1 = conv[k - 2], conv[k - 1]
    rows = []
    for i, a in enumerate(sup):
        factor, shift = (k - 1) * counts[a], add[a]
        row = [factor * nk2[shift[b]] for b in sup]
        row[i] += nk1[a]
        rows.append(row)
    return rows


def _annihilation_numerator(tv):
    """det(D C) * prod_a w(a)^(n_a - 1), the integer P(A q = 0) * tv.denominator."""
    k, counts = tv.k, tv.counts
    tables = _conv_arrays(tv, k - 1)
    nk1 = tables[k - 1]
    sup = [i for i, c in enumerate(counts) if c]
    # nk1[a] = 0 for some a in sup makes row a of D C vanish, so det(D C) = 0 covers it
    num = _det(_scaled_factor(tv, sup, tables))
    if num:
        for a in sup:
            num *= nk1[a] ** (counts[a] - 1)
    return num


def annihilation_probability(tv):
    """Exact P(A q = 0) for any fixed tuple q of this type."""
    return Fraction(_annihilation_numerator(tv), tv.denominator)


@lru_cache(maxsize=1)
def _factorials(n):
    """(0!, 1!, ..., n!), built once per sweep."""
    return tuple(itertools.accumulate(range(1, n + 1), operator.mul, initial=1))


def expected_annihilated_exact(tv):
    """E(number of annihilated tuples of this type) * tv.denominator: multinomial * numerator."""
    n = tv.n
    fact = _factorials(n)
    mult = fact[n]
    for c in tv.counts:
        if c > 1:
            mult //= fact[c]
    return mult * _annihilation_numerator(tv)


def _generates(G, support_indices):
    return len(G.generated(support_indices)) == G.order


def _compositions(n, g):
    """Compositions of n into g parts, in lexicographic order."""
    if g == 1:
        yield (n,)
        return
    prefixes = iter([((), n)])  # (first g - 2 parts, what is left for the last two), lazily
    for _ in range(g - 2):
        prefixes = ((p + (c,), left - c) for p, left in prefixes for c in range(left + 1))
    for p, left in prefixes:
        yield from [p + (c, left - c) for c in range(left + 1)]


def type_orbits(G, n):
    """(type, orbit size) for the lexicographically largest type of each Aut(G)-orbit
    of compositions of n, in lexicographic order; the orbit has |Aut| / |Stab| members.
    Above AUTOMORPHISM_LIMIT the identity alone acts."""
    g = G.order
    identity = tuple(range(g))
    auts = automorphisms(G) if aut_order(G) <= AUTOMORPHISM_LIMIT else (identity,)
    getters = [operator.itemgetter(*p) for p in auts if p != identity]
    for counts in _compositions(n, g):
        stab = 1
        for get in getters:
            image = get(counts)
            if image > counts:
                break
            stab += image == counts
        else:
            yield counts, len(auts) // stab


def surjection_moment_exact(G, n, k):
    """E(#Sur(cok(A), G)) as an exact rational, summed over Aut(G)-orbits of types."""
    if n < 1 or k < 3:
        raise InvalidInputError(f"need n >= 1 and k >= 3, got n={n}, k={k}")
    _check_sizes(n, k)
    g = G.order
    if math.comb(n + g - 1, g - 1) > TYPE_VECTOR_LIMIT:
        raise SizeLimitError("too many type vectors for the exact sweep")
    if g == 1:
        return Fraction(1)
    denom = k * n ** ((k - 1) * n)  # TypeVector.denominator of every type
    generates = {}
    num = 0
    for counts, size in type_orbits(G, n):
        sup = tuple(i for i, c in enumerate(counts) if c > 0)
        if sup not in generates:
            generates[sup] = _generates(G, sup)
        if generates[sup]:
            num += size * expected_annihilated_exact(TypeVector(G, counts, k))
    return Fraction(num, denom)


def surjection_moment_bruteforce(G, n, k):
    """Same moment by enumerating every generating tuple q in G^n individually."""
    if n < 1 or k < 3:
        raise InvalidInputError(f"need n >= 1 and k >= 3, got n={n}, k={k}")
    _check_sizes(n, k)
    g = G.order
    if g**n > BRUTEFORCE_LIMIT:
        raise SizeLimitError("G^n too large for brute force")
    if g == 1:
        return Fraction(1)
    cache = {}
    total = Fraction(0)
    for q in itertools.product(range(g), repeat=n):
        key = tuple(map(q.count, range(g)))
        if key not in cache:
            sup = [i for i, c in enumerate(key) if c > 0]
            generating = _generates(G, sup)
            cache[key] = annihilation_probability(TypeVector(G, key, k)) if generating else 0
        total += cache[key]
    return total


def curvature_matrix(G):
    """Hessian of the KL functional at the uniform point: |G| (J + I), size |G|-1."""
    g = G.order
    d = g - 1
    return [[g * (1 + (i == j)) for j in range(d)] for i in range(d)]


def _kl_at_float(free, G, k, add, neg):
    g = G.order
    nu = np.concatenate(([1.0 - free.sum()], free))
    cur = nu[neg]
    for _ in range(k - 2):
        cur = np.array([float(np.dot(nu, cur[add[a]])) for a in range(g)])
    return sum(nu[a] * math.log(nu[a] / cur[a]) for a in range(g) if nu[a] > 0)


def kl_curvature_check(G, k):
    """Central finite differences of the KL functional at the uniform point.

    Returns (gradient norm, max deviation of the numeric Hessian from the
    closed-form curvature matrix), with steps 1e-4 for the gradient and 1e-3
    for the Hessian.
    """
    g = G.order
    d = g - 1
    if d == 0:
        return 0.0, 0.0
    add, neg = (np.array(t) for t in G.tables()[:2])
    x0, e = np.full(d, 1.0 / g), np.eye(d)
    f = partial(_kl_at_float, G=G, k=k, add=add, neg=neg)
    h = 1e-4
    grad = [(f(x0 + h * e[a]) - f(x0 - h * e[a])) / (2 * h) for a in range(d)]
    h = 1e-3
    hess = np.zeros((d, d))
    signs = ((1, 1), (1, -1), (-1, 1), (-1, -1))
    for a, b in itertools.product(range(d), repeat=2):
        c = [f(x0 + sa * h * e[a] + sb * h * e[b]) for sa, sb in signs]
        hess[a, b] = (c[0] - c[1] - c[2] + c[3]) / (4 * h * h)
    q = np.array(curvature_matrix(G), dtype=np.float64)
    return float(np.linalg.norm(grad)), float(np.abs(hess - q).max())
