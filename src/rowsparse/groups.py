"""Finite abelian groups: automorphisms, Hom/Sur counting, Cohen-Lenstra weights.

Groups are carried as invariant-factor chains d_1 | d_2 | ... (all >= 2).
Element-level work (subgroup lattices, automorphisms, Moebius inversion)
reads index tables of addition, negation and element order, built once per
group, which is fine because every group this package touches is tiny.
"""

import itertools
import math
from collections import Counter
from functools import lru_cache

from .errors import InvalidInputError, SizeLimitError

# the add table holds |G|^2 indices: about 8 MB at this order
TABLE_ORDER_LIMIT = 10**3
# the exact sweep's orbit walk (moments.type_orbits) applies automorphisms to a composition
# of n until one maps it to a larger one, and all of them to each orbit representative, so
# |Aut| bounds its per-composition cost; above the cap the identity alone acts
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

    __slots__ = ("divisors", "_elements", "_tables", "_subgroups")

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
        self._tables = None
        self._subgroups = None

    @classmethod
    def from_partition(cls, p, partition):
        """p-group with summands Z/p^lam for lam in the partition."""
        if not is_prime(p):
            raise InvalidInputError(f"{p} is not prime")
        return cls(sorted(p**lam for lam in partition))

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

    # -- element tables ---------------------------------------------------

    @property
    def elements(self):
        """Element tuples in product order; element index i names elements[i], 0 the identity."""
        if self._elements is None:
            self._elements = tuple(itertools.product(*[range(d) for d in self.divisors]))
        return self._elements

    def tables(self):
        """(add, neg, orders): index tables of addition, negation and element order,
        built on first use and kept on the instance."""
        if self._tables is None:
            if self.order > TABLE_ORDER_LIMIT:
                raise SizeLimitError(f"group order {self.order} exceeds {TABLE_ORDER_LIMIT}")
            els, divs = self.elements, self.divisors
            index = {e: i for i, e in enumerate(els)}
            add = tuple(
                tuple(index[tuple((x + y) % d for x, y, d in zip(a, b, divs))] for b in els)
                for a in els
            )
            neg = tuple(row.index(0) for row in add)
            orders = tuple(math.lcm(*(d // math.gcd(x, d) for x, d in zip(e, divs))) for e in els)
            self._tables = add, neg, orders
        return self._tables

    def generated(self, gens):
        """Subgroup generated by the given element indices, as a frozenset of indices."""
        add = self.tables()[0]
        cur = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = add[x][g]
                    if y not in cur:
                        cur.add(y)
                        nxt.append(y)
            frontier = nxt
        return frozenset(cur)

    def subgroups(self):
        """All subgroups as frozensets of element indices (closure BFS over generators)."""
        if self._subgroups is not None:
            return self._subgroups
        trivial = frozenset({0})
        found = {trivial}
        frontier = [trivial]
        while frontier:
            nxt = []
            for H in frontier:
                for g in range(self.order):
                    if g in H:
                        continue
                    K = self.generated(list(H) + [g])
                    if K not in found:
                        found.add(K)
                        nxt.append(K)
            frontier = nxt
        self._subgroups = sorted(found, key=lambda H: (len(H), sorted(H)))
        return self._subgroups


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
    add, _, orders = G.tables()

    def extend(j, images):  # images of the span of generators < j, in element order
        if j == G.rank:
            yield tuple(images)
            return
        d = G.divisors[j]
        for h in range(G.order):
            if d % orders[h]:  # d h != 0
                continue
            multiples = [0]  # c h for c = 0 .. d-1
            while len(multiples) < d:
                multiples.append(add[h][multiples[-1]])
            new = [add[y][m] for y in images for m in multiples]
            if len(set(new)) == len(new):
                yield from extend(j + 1, new)

    return tuple(extend(0, [0]))


def _hom_count(divisors, free_rank, size, hist):
    """#Hom(Z^f + sum Z/d_i, H) = |H|^f prod_i #{h in H : ord(h) | d_i}, from |H| and the
    histogram ((order, count), ...) of H's element orders."""
    total = size**free_rank
    for d in divisors:
        total *= sum(c for o, c in hist if d % o == 0)
    return total


@lru_cache(maxsize=256)
def _moebius_table(G):
    """(mu(H, G), |H|, order histogram of H) for each subgroup H of G with mu(H, G) != 0."""
    subs = G.subgroups()
    orders = G.tables()[2]
    mu = {}
    for H in sorted(subs, key=len, reverse=True):
        if len(H) == G.order:
            mu[H] = 1
        else:
            mu[H] = -sum(mu[K] for K in subs if len(K) > len(H) and H < K)
    return tuple(
        (m, len(H), tuple(sorted(Counter(orders[h] for h in H).items())))
        for H, m in mu.items() if m
    )


def sur_count_cokernel(divisors, free_rank, G):
    """Surjections from Z^f + sum Z/d_i onto G: the Moebius sum over subgroups H of
    G of #Hom(Z^f + sum Z/d_i, H)."""
    return sum(
        m * _hom_count(divisors, free_rank, size, hist) for m, size, hist in _moebius_table(G)
    )


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
    if max_order < 1:
        raise InvalidInputError(f"the Sylow order cap must be >= 1, got {max_order}")
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
