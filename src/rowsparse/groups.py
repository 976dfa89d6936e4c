"""Finite abelian groups: automorphisms, Hom/Sur counting, Cohen-Lenstra weights.

Groups are carried as invariant-factor chains d_1 | d_2 | ... (all >= 2).
Element-level work (subgroup lattices, Moebius inversion) enumerates tuples,
which is fine because every group this package touches is tiny.
"""

import itertools
import math
from functools import lru_cache

from .errors import InvalidInputError, SizeLimitError

SUBGROUP_ORDER_LIMIT = 10**4
AUTOMORPHISM_LIMIT = 10**4
# factors kept of the Cohen-Lenstra product prod (1 - p^-i); the rest change it by < 2 p^-64
CL_TRUNCATION = 64


def _prime_factors(m):
    out = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def is_prime(p):
    return p >= 2 and _prime_factors(p) == {p: 1}


class FiniteAbelianGroup:
    """An abstract finite abelian group given by its invariant-factor chain."""

    __slots__ = ("divisors", "_elements", "_index", "_subgroups")

    def __init__(self, divisors=()):
        divisors = tuple(int(d) for d in divisors)
        for d in divisors:
            if d < 2:
                raise InvalidInputError("invariant factors must be >= 2")
        for a, b in zip(divisors, divisors[1:]):
            if b % a != 0:
                raise InvalidInputError(f"not a divisor chain: {divisors}")
        self.divisors = divisors
        self._elements = None
        self._index = None
        self._subgroups = None

    @classmethod
    def from_partition(cls, p, partition):
        """p-group with summands Z/p^lam for lam in the partition."""
        if not is_prime(p):
            raise InvalidInputError(f"{p} is not prime")
        return cls._assemble({p: list(partition)}) if partition else cls()

    @classmethod
    def _assemble(cls, partitions):
        for p, ex in partitions.items():
            ex.sort(reverse=True)
        depth = max((len(ex) for ex in partitions.values()), default=0)
        chain = []
        for i in range(depth):
            d = 1
            for p, ex in partitions.items():
                if i < len(ex):
                    d *= p ** ex[i]
            chain.append(d)
        return cls(tuple(reversed(chain)))

    # -- basic structure -------------------------------------------------

    @property
    def order(self):
        return math.prod(self.divisors) if self.divisors else 1

    @property
    def rank(self):
        return len(self.divisors)

    def __eq__(self, other):
        return isinstance(other, FiniteAbelianGroup) and self.divisors == other.divisors

    def __hash__(self):
        return hash(self.divisors)

    def __repr__(self):
        return f"FiniteAbelianGroup({self.divisors})"

    def label(self):
        if not self.divisors:
            return "1"
        return "+".join(f"Z/{d}" for d in self.divisors)

    def primary_partitions(self):
        """Per-prime partitions of exponents, each sorted decreasing."""
        out = {}
        for d in self.divisors:
            for p, e in _prime_factors(d).items():
                out.setdefault(p, []).append(e)
        return {p: tuple(sorted(ex, reverse=True)) for p, ex in out.items()}

    # -- element arithmetic ----------------------------------------------

    @property
    def elements(self):
        if self._elements is None:
            if self.divisors:
                self._elements = tuple(
                    itertools.product(*[range(d) for d in self.divisors])
                )
            else:
                self._elements = ((),)
            self._index = {e: i for i, e in enumerate(self._elements)}
        return self._elements

    def index(self, e):
        self.elements
        return self._index[tuple(e)]

    @property
    def zero(self):
        return (0,) * len(self.divisors)

    def add(self, a, b):
        return tuple((x + y) % d for x, y, d in zip(a, b, self.divisors))

    def neg(self, a):
        return tuple((-x) % d for x, d in zip(a, self.divisors))

    def scale(self, m, a):
        return tuple((m * x) % d for x, d in zip(a, self.divisors))

    def generated(self, gens):
        """Subgroup generated by the given elements, as a frozenset."""
        cur = {self.zero}
        frontier = [self.zero]
        gens = [tuple(g) for g in gens]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = self.add(x, g)
                    if y not in cur:
                        cur.add(y)
                        nxt.append(y)
            frontier = nxt
        return frozenset(cur)

    def subgroups(self):
        """All subgroups as frozensets of elements (closure BFS over generators)."""
        if self.order > SUBGROUP_ORDER_LIMIT:
            raise SizeLimitError(f"group order {self.order} exceeds {SUBGROUP_ORDER_LIMIT}")
        if self._subgroups is not None:
            return self._subgroups
        trivial = frozenset({self.zero})
        found = {trivial}
        frontier = [trivial]
        while frontier:
            nxt = []
            for H in frontier:
                for g in self.elements:
                    if g in H:
                        continue
                    K = self.generated(list(H) + [g])
                    if K not in found:
                        found.add(K)
                        nxt.append(K)
            frontier = nxt
        self._subgroups = sorted(found, key=lambda H: (len(H), sorted(H)))
        return self._subgroups

    def subgroup_group(self, elements):
        """Abstract type of a subgroup given by its element set."""
        h = len(elements)
        partitions = {}
        for p in _prime_factors(h):
            # |H[p^j]| = p^(sum_i min(lambda_i, j)) pins the partition lambda.
            lam = []
            prev = 0
            j = 1
            while True:
                cnt = sum(1 for e in elements if self.scale(p**j, e) == self.zero)
                expo = _prime_factors(cnt).get(p, 0)
                growth = expo - prev
                if growth == 0:
                    break
                lam.append(growth)
                prev = expo
                j += 1
            # lam[j-1] = #parts >= j; convert counts to the partition itself
            parts = []
            for j, cnt in enumerate(lam, start=1):
                parts += [j] * (cnt - (lam[j] if j < len(lam) else 0))
            if parts:
                partitions[p] = sorted(parts, reverse=True)
        return FiniteAbelianGroup._assemble(partitions)


def _aut_order_p_group(p, partition):
    """Order of the automorphism group of the p-group with the given partition."""
    e = sorted(partition)  # ascending exponents
    n = len(e)
    if n == 0:
        return 1
    d = [max(l for l in range(n) if e[l] == e[k]) + 1 for k in range(n)]
    c = [min(l for l in range(n) if e[l] == e[k]) + 1 for k in range(n)]
    total = 1
    for k in range(n):
        total *= p ** d[k] - p**k
    for j in range(n):
        total *= (p ** e[j]) ** (n - d[j])
    for i in range(n):
        total *= (p ** (e[i] - 1)) ** (n - c[i] + 1)
    return total


def aut_order(G):
    """|Aut(G)|, multiplicative over the primary decomposition."""
    total = 1
    for p, lam in G.primary_partitions().items():
        total *= _aut_order_p_group(p, lam)
    return total


@lru_cache(maxsize=64)
def automorphisms(G):
    """Aut(G) as permutations of element indices: p[i] indexes the image of G.elements[i].

    The image h_j of the j-th standard generator must satisfy d_j h_j = 0; the
    choice is kept when x -> sum_j x_j h_j stays injective on the span of the
    generators chosen so far.
    """
    if aut_order(G) > AUTOMORPHISM_LIMIT:
        raise SizeLimitError(f"|Aut({G.label()})| exceeds {AUTOMORPHISM_LIMIT}")
    els = G.elements

    def extend(j, images):  # images of the span of generators < j, in element order
        if j == G.rank:
            yield tuple(G.index(y) for y in images)
            return
        d = G.divisors[j]
        for h in els:
            if G.scale(d, h) != G.zero:
                continue
            new = [G.add(y, G.scale(c, h)) for y in images for c in range(d)]
            if len(set(new)) == len(new):
                yield from extend(j + 1, new)

    return tuple(extend(0, [G.zero]))


def hom_count_cokernel(divisors, free_rank, B):
    """#Hom(Z^f + sum Z/d_i, B) for a finitely generated source."""
    total = B.order**free_rank
    for a in divisors:
        for b in B.divisors:
            total *= math.gcd(a, b)
    return total


@lru_cache(maxsize=256)
def _moebius_table(G):
    """Moebius function mu(H, G) on the subgroup lattice, keyed by element set."""
    subs = G.subgroups()
    mu = {}
    for H in sorted(subs, key=len, reverse=True):
        if len(H) == G.order:
            mu[H] = 1
        else:
            mu[H] = -sum(mu[K] for K in subs if len(K) > len(H) and H < K)
    return mu


def sur_count_cokernel(divisors, free_rank, G):
    """Surjections from Z^f + sum Z/d_i onto G (Moebius over subgroups of G)."""
    mu = _moebius_table(G)
    total = 0
    for H, m in mu.items():
        if m:
            total += m * hom_count_cokernel(tuple(divisors), free_rank, G.subgroup_group(H))
    return total


def cl_probability(G, p):
    """Cohen-Lenstra weight of a finite abelian p-group: prod(1-p^-i) / |Aut G|."""
    parts = G.primary_partitions()
    if parts and set(parts) != {p}:
        raise InvalidInputError(f"{G.label()} is not a {p}-group")
    prod = 1.0
    for i in range(1, CL_TRUNCATION + 1):
        prod *= 1.0 - p ** (-i)
    return prod / aut_order(G)


def cl_corank_probability(r):
    """Limiting law of the F_2-corank under Cohen-Lenstra at p = 2."""
    if r < 0:
        raise InvalidInputError("corank must be >= 0")
    head = 2.0 ** (-(r * r))
    for i in range(1, r + 1):
        head /= (1.0 - 2.0 ** (-i)) ** 2
    return head * cl_probability(FiniteAbelianGroup(), 2)  # prod (1 - 2^-i) / |Aut 0|


def p_groups_up_to(p, max_order):
    """All abelian p-groups of order <= max_order (including the trivial one)."""
    if not is_prime(p):
        raise InvalidInputError(f"{p} is not prime")
    out = [FiniteAbelianGroup()]
    e_max = 0
    while p ** (e_max + 1) <= max_order:
        e_max += 1
    for size in range(1, e_max + 1):
        for lam in _partitions(size):
            out.append(FiniteAbelianGroup.from_partition(p, lam))
    return out


def _partitions(m, cap=None):
    if m == 0:
        yield ()
        return
    cap = m if cap is None else min(cap, m)
    for first in range(cap, 0, -1):
        for rest in _partitions(m - first, first):
            yield (first,) + rest
