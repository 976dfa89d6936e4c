"""Exact moment machinery for kernel vectors of the sampled matrices.

For a finite abelian group G, a tuple q in G^n is annihilated by the sampled
n x n matrix A exactly when the chosen rows all lie in the q-sum-zero slice
of the family. That probability depends on q only through its type vector
(the histogram of its entries) and has a closed form:

    P(A q = 0) = det(D C) * prod_a w(a)^(n_a - 1) / (k * n^((k-1) n)),

where w(a) = n(k-1)_a counts (k-1)-tuples of entries summing to -a,
D = diag(n_a) and D C is an integer matrix over the support of the type
(see TypeMatrix), so the determinant is a fraction-free Bareiss elimination.
Summing over types whose support generates G gives the expected number of
surjections cok(A) -> G exactly. P(A q = 0) is invariant under Aut(G), so the
sweep visits one type per Aut(G)-orbit, weights it by the orbit size, and
sums integer numerators over the shared denominator k n^((k-1) n) into one
Fraction at the end.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import InvalidInputError, SizeLimitError, UndefinedFormError
from .groups import FiniteAbelianGroup, automorphisms
from .intlinalg import int_det

TYPE_VECTOR_LIMIT = 10**7
BRUTEFORCE_LIMIT = 10**7


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
        if any(c < 0 for c in self.counts):
            raise InvalidInputError("counts must be nonnegative")
        if self.k < 3:
            raise InvalidInputError("row weight must be >= 3")
        if self.n < 1:
            raise InvalidInputError("need a nonempty tuple")

    @property
    def n(self):
        return sum(self.counts)

    @property
    def support(self):
        els = self.group.elements
        return tuple(els[i] for i, c in enumerate(self.counts) if c > 0)


@lru_cache(maxsize=64)
def _tables(G):
    """(add, neg): index tables of G's addition and negation, built once per group."""
    els = G.elements
    add = tuple(tuple(G.index(G.add(a, b)) for b in els) for a in els)
    return add, tuple(G.index(G.neg(e)) for e in els)


def _conv_arrays(tv, upto):
    """n(ell)_a for ell = 1..upto, as lists indexed like G.elements."""
    g = tv.group.order
    add, neg = _tables(tv.group)
    counts = tv.counts
    tables = [None, [counts[neg[a]] for a in range(g)]]
    for _ in range(2, upto + 1):
        prev = tables[-1]
        tables.append(
            [sum(counts[b] * prev[add[a][b]] for b in range(g)) for a in range(g)]
        )
    return tables


def convolution_powers(tv, ell):
    """n(ell)_a: weighted count of ell-tuples of entries summing to -a."""
    if not 1 <= ell <= tv.k - 1:
        raise InvalidInputError(f"need 1 <= ell <= k-1, got {ell}")
    table = _conv_arrays(tv, ell)[ell]
    return {e: table[i] for i, e in enumerate(tv.group.elements)}


def _scaled_factor(tv, sup, conv):
    """Rows of the integer matrix D C over the support sup (see TypeMatrix)."""
    k, counts = tv.k, tv.counts
    add = _tables(tv.group)[0]
    nk2, nk1 = conv[k - 2], conv[k - 1]
    return [
        [(k - 1) * counts[a] * nk2[add[a][b]] + (nk1[a] if a == b else 0) for b in sup]
        for a in sup
    ]


@dataclass(frozen=True)
class TypeMatrix:
    """Symmetric matrix attached to a type vector, via the congruent rational factor.

    M = D^(1/2) C D^(1/2) with D = diag(n_a) over the support (the weights) and
    C rational symmetric: C_aa = (k-1) n(k-2)_2a + n(k-1)_a / n_a and
    C_ab = (k-1) n(k-2)_(a+b). So det(M) = det(D C) needs no square roots, and
    D C is an integer matrix: the exact integer det is its Bareiss determinant.
    """

    elements: tuple
    C: tuple
    det: int
    diag: tuple
    weights: tuple

    @classmethod
    def build(cls, tv):
        sup = [i for i, c in enumerate(tv.counts) if c > 0]
        dc = _scaled_factor(tv, sup, _conv_arrays(tv, tv.k - 1))
        weights = tuple(tv.counts[a] for a in sup)
        els = tv.group.elements
        return cls(
            elements=tuple(els[i] for i in sup),
            C=tuple(tuple(Fraction(x, w) for x in row) for row, w in zip(dc, weights)),
            det=int_det(dc),
            diag=tuple(row[i] for i, row in enumerate(dc)),
            weights=weights,
        )

    def leading_minors_of_factor(self):
        """Leading principal minors of C (all >= 0 iff PSD), from those of D C over prod n_a."""
        out = []
        for size in range(1, len(self.C) + 1):
            w = self.weights[:size]
            block = [[int(x * wa) for x in row[:size]] for row, wa in zip(self.C, w)]
            out.append(Fraction(int_det(block), math.prod(w)))
        return out


def annihilation_probability(tv):
    """Exact P(A q = 0) for any fixed tuple q of this type."""
    k, n = tv.k, tv.n
    tables = _conv_arrays(tv, k - 1)
    nk1 = tables[k - 1]
    sup = [i for i, c in enumerate(tv.counts) if c > 0]
    if any(nk1[a] == 0 for a in sup):
        # a whole row of M vanishes, so det(M) = 0
        return Fraction(0)
    num = int_det(_scaled_factor(tv, sup, tables))
    for a in sup:
        num *= nk1[a] ** (tv.counts[a] - 1)
    return Fraction(num, k * n ** ((k - 1) * n))


def expected_annihilated_exact(tv):
    """E(number of annihilated tuples of this type) = multinomial * P(A q = 0)."""
    mult = math.factorial(tv.n) // math.prod(map(math.factorial, tv.counts))
    return mult * annihilation_probability(tv)


def _generates(G, support_indices):
    els = G.elements
    gens = [els[i] for i in support_indices]
    return len(G.generated(gens)) == G.order


def type_orbits(G, n):
    """(type, orbit size) for the lexicographically largest type of each Aut(G)-orbit
    of compositions of n; the orbit has |Aut| / |Stab| members. Above
    AUTOMORPHISM_LIMIT the identity alone acts."""
    try:
        auts = automorphisms(G)
    except SizeLimitError:
        auts = (tuple(range(G.order)),)
    g = G.order
    for bars in itertools.combinations(range(n + g - 1), g - 1):  # stars and bars
        counts = tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (n + g - 1,)))
        if any(tuple(counts[i] for i in p) > counts for p in auts):
            continue
        stab = sum(1 for p in auts if tuple(counts[i] for i in p) == counts)
        yield counts, len(auts) // stab


def surjection_moment_exact(G, n, k):
    """E(#Sur(cok(A), G)) as an exact rational, summed over Aut(G)-orbits of types."""
    if n < 1 or k < 3:
        raise InvalidInputError(f"need n >= 1 and k >= 3, got n={n}, k={k}")
    g = G.order
    if math.comb(n + g - 1, g - 1) > TYPE_VECTOR_LIMIT:
        raise SizeLimitError("too many type vectors for the exact sweep")
    if g == 1:
        return Fraction(1)
    denom = k * n ** ((k - 1) * n)  # every type weight's denominator divides it
    generates = {}
    num = 0
    for counts, size in type_orbits(G, n):
        sup = tuple(i for i, c in enumerate(counts) if c > 0)
        if sup not in generates:
            generates[sup] = _generates(G, sup)
        if generates[sup]:
            value = expected_annihilated_exact(TypeVector(G, counts, k))
            num += size * value.numerator * (denom // value.denominator)
    return Fraction(num, denom)


def surjection_moment_bruteforce(G, n, k):
    """Same moment by enumerating every generating tuple q in G^n individually."""
    if n < 1 or k < 3:
        raise InvalidInputError(f"need n >= 1 and k >= 3, got n={n}, k={k}")
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


def type_measures(tv):
    """(nu, mu): the empirical measure of the type and its (k-1)-fold reflected
    convolution power, both exact, both summing to 1."""
    G = tv.group
    n = tv.n
    nk1 = _conv_arrays(tv, tv.k - 1)[tv.k - 1]
    els = G.elements
    nu = {e: Fraction(tv.counts[i], n) for i, e in enumerate(els)}
    mu = {e: Fraction(nk1[i], n ** (tv.k - 1)) for i, e in enumerate(els)}
    return nu, mu


def kl_divergence(nu, mu):
    """KL divergence of finite measures with the 0 log 0 = 0 convention.

    Returns math.inf when nu charges a point that mu misses.
    """
    if set(nu) != set(mu):
        raise InvalidInputError("measures must share a common ground set")
    total = 0.0
    comp = 0.0
    for x, p in nu.items():
        if p == 0:
            continue
        q = mu[x]
        if q == 0:
            return math.inf
        term = float(p) * (_log_rational(p) - _log_rational(q))
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def _log_rational(x):
    if isinstance(x, Fraction):
        return math.log(x.numerator) - math.log(x.denominator)
    return math.log(x)


def expected_annihilated_via_kl(tv):
    """Logarithmic reformulation of the exact type weight; float64.

    Must agree with expected_annihilated_exact to ~1e-9 relative wherever its
    precondition (positive convolution weight on the support) holds.
    """
    G = tv.group
    k = tv.k
    n = tv.n
    nk1 = _conv_arrays(tv, k - 1)[k - 1]
    sup = [i for i, c in enumerate(tv.counts) if c > 0]
    if any(nk1[a] == 0 for a in sup):
        raise UndefinedFormError("zero convolution weight on the support")
    nu, mu = type_measures(tv)
    els = G.elements
    # log alpha = log multinomial + n * sum nu log nu; alpha <= 1 always
    log_alpha = math.lgamma(n + 1)
    for c in tv.counts:
        log_alpha -= math.lgamma(c + 1)
    for i in sup:
        p = nu[els[i]]
        log_alpha += n * float(p) * _log_rational(p)
    if log_alpha > 1e-9:
        raise AssertionError(f"alpha exceeded 1: log alpha = {log_alpha}")
    mm = TypeMatrix.build(tv)
    log_ratio = _log_rational(mm.det) - math.log(k)
    for i in sup:
        log_ratio -= _log_rational(Fraction(nk1[i]))
    d = kl_divergence(nu, mu)
    return math.exp(log_alpha + log_ratio - n * d)


# -- near-uniform classification -----------------------------------------


def ball_constants(G, n, k):
    """(constant, deviation_window, tail_window) controlling the near-uniform balls.

    constant = 2 m^4 |G|^2 k^4 with m the exponent of G; the windows scale as
    (k-1) * constant * sqrt(|G| n log n) and (k-1)^2 * constant * |G| log n.
    """
    g = G.order
    m = G.exponent
    constant = 2 * m**4 * g**2 * k**4
    logn = math.log(n) if n > 1 else 0.0
    deviation = (k - 1) * constant * math.sqrt(g * n * logn)
    tail = (k - 1) ** 2 * constant * g * logn
    return float(constant), deviation, tail


@dataclass(frozen=True)
class NearUniformLabel:
    """Classification of a type vector against the near-uniform ball of a subgroup."""

    kind: str  # "group", "subgroup", or "outside"
    subgroup: frozenset = None
    torsion_coset: bool = None  # subgroup balls split by a halving coset meeting the support
    constant: float = 0.0
    deviation_window: float = 0.0
    tail_window: float = 0.0


def classify_near_uniform(tv, H):
    """Label tv against the near-uniform ball of the subgroup H.

    Membership needs: the support generates G, every convolution weight on the
    support is positive, |nu(a) - uniform_H(a)| <= deviation_window / n for
    all a, and nu(G \\ H) <= tail_window / n. Subgroup balls are sub-labeled
    by whether some g outside H with 2g in H has its coset meeting the
    support.
    """
    G = tv.group
    H = frozenset(tuple(h) for h in H)
    els = G.elements
    if G.zero not in H or any(G.add(a, b) not in H for a in H for b in H):
        raise InvalidInputError("H is not a subgroup")
    constant, deviation, tail = ball_constants(G, tv.n, tv.k)
    label_out = NearUniformLabel(
        kind="outside", constant=constant, deviation_window=deviation, tail_window=tail
    )
    sup = [i for i, c in enumerate(tv.counts) if c > 0]
    if not _generates(G, sup):
        return label_out
    nk1 = _conv_arrays(tv, tv.k - 1)[tv.k - 1]
    if any(nk1[a] == 0 for a in sup):
        return label_out
    n = tv.n
    h = len(H)
    for i, e in enumerate(els):
        target = Fraction(1, h) if e in H else Fraction(0)
        if abs(Fraction(tv.counts[i], n) - target) * n > Fraction(deviation):
            return label_out
    outside_mass = sum(tv.counts[i] for i, e in enumerate(els) if e not in H)
    if Fraction(outside_mass) > Fraction(tail):
        return label_out
    if h == G.order:
        return NearUniformLabel(
            kind="group", subgroup=H, constant=constant,
            deviation_window=deviation, tail_window=tail,
        )
    support = set(tv.support)
    torsion = False
    for g_el in els:
        if g_el in H:
            continue
        if G.add(g_el, g_el) in H and any(G.add(g_el, hh) in support for hh in H):
            torsion = True
            break
    return NearUniformLabel(
        kind="subgroup", subgroup=H, torsion_coset=torsion, constant=constant,
        deviation_window=deviation, tail_window=tail,
    )


# -- Gaussian shape of the main term ---------------------------------------


def curvature_matrix(G):
    """Hessian of the KL functional at the uniform point: |G| (J + I), size |G|-1."""
    g = G.order if isinstance(G, FiniteAbelianGroup) else int(G)
    d = g - 1
    return [[g * (1 + (i == j)) for j in range(d)] for i in range(d)]


def expected_annihilated_gaussian(tv):
    """Gaussian approximation of the exact type weight near the uniform point."""
    G = tv.group
    g = G.order
    n = tv.n
    q = np.array(curvature_matrix(G), dtype=np.float64)
    y = np.array(
        [(c - n / g) / math.sqrt(n) for c in tv.counts[1:]], dtype=np.float64
    )
    quad = float(y @ q @ y)
    return math.sqrt(g) ** g / math.sqrt(2 * math.pi * n) ** (g - 1) * math.exp(-quad / 2)


def _kl_at_float(free, G, k, add, neg):
    g = G.order
    nu = np.empty(g)
    nu[1:] = free
    nu[0] = 1.0 - free.sum()
    cur = nu[neg]
    for _ in range(k - 2):
        nxt = np.zeros(g)
        for a in range(g):
            nxt[a] = float(np.dot(nu, cur[add[a]]))
        cur = nxt
    total = 0.0
    for a in range(g):
        if nu[a] > 0:
            total += nu[a] * math.log(nu[a] / cur[a])
    return total


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
    add, neg = (np.array(t) for t in _tables(G))
    x0 = np.full(d, 1.0 / g)

    def f(x):
        return _kl_at_float(x, G, k, add, neg)

    h = 1e-4
    grad = np.zeros(d)
    for a in range(d):
        xp = x0.copy()
        xp[a] += h
        xm = x0.copy()
        xm[a] -= h
        grad[a] = (f(xp) - f(xm)) / (2 * h)
    h = 1e-3
    hess = np.zeros((d, d))
    for a in range(d):
        for b in range(d):
            corners = []
            for sa, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                x = x0.copy()
                x[a] += sa * h
                x[b] += sb * h
                corners.append(f(x))
            hess[a, b] = (corners[0] - corners[1] - corners[2] + corners[3]) / (4 * h * h)
    q = np.array(curvature_matrix(G), dtype=np.float64)
    return float(np.linalg.norm(grad)), float(np.abs(hess - q).max())


# -- order-2 closed forms ---------------------------------------------------


def parity_closed_forms(n, k, ell):
    """For G of order 2 and the type (n - ell, ell): the two convolution weights.

    n(k-1)_0 = (n^(k-1) + (n-2 ell)^(k-1)) / 2 and n(k-1)_1 is the complement.
    """
    if not 0 <= ell <= n:
        raise InvalidInputError("need 0 <= ell <= n")
    s = n ** (k - 1)
    t = (n - 2 * ell) ** (k - 1)
    if (s - t) % 2:
        raise InvalidInputError("parity mismatch; is k an integer >= 3?")
    return (s + t) // 2, (s - t) // 2


def order2_moment_floor(k):
    """Constant lower envelope (k-1)^2 / (4^(k-1) k) of the near-1 type's weight."""
    if k < 3 or k % 2 == 0:
        raise InvalidInputError("need odd k >= 3")
    return Fraction((k - 1) ** 2, 4 ** (k - 1) * k)
