import itertools
import math
import random
from collections import Counter

import pytest

from rowsparse.errors import InvalidInputError, SizeLimitError
from rowsparse.groups import (
    AUTOMORPHISM_LIMIT,
    TABLE_ORDER_LIMIT,
    FiniteAbelianGroup,
    _hom_count,
    aut_order,
    automorphisms,
    cl_corank_probability,
    cl_probability,
    p_groups_up_to,
    sur_count_cokernel,
)
from rowsparse.moments import surjection_moment_exact, type_orbits


# tuple arithmetic of the brute-force references, kept apart from the index tables they check
def t_add(B, a, b):
    return tuple((x + y) % d for x, y, d in zip(a, b, B.divisors))


def t_scale(B, m, a):
    return tuple((m * x) % d for x, d in zip(a, B.divisors))


def t_zero(B):
    return (0,) * B.rank


def t_span(B, gens):
    span = frontier = {t_zero(B)}
    while frontier:
        frontier = {t_add(B, x, g) for x in frontier for g in gens} - span
        span = span | frontier
    return span


def all_homs(da, free_rank, B):
    """Brute force: every choice of generator images, Z/d_i's killed by d_i, Z's anywhere in B."""
    torsion = [[h for h in B.elements if t_scale(B, d, h) == t_zero(B)] for d in da]
    return itertools.product(*torsion, *[B.elements] * free_rank)


def brute_hom_count(A, B):
    return sum(1 for _ in all_homs(A.divisors, 0, B))


def brute_sur_count(da, free_rank, B):
    return sum(len(t_span(B, images)) == B.order for images in all_homs(da, free_rank, B))


def test_chain_validation():
    with pytest.raises(InvalidInputError):
        FiniteAbelianGroup((3, 2))
    with pytest.raises(InvalidInputError):
        FiniteAbelianGroup((1, 2))
    assert FiniteAbelianGroup(()).order == 1


def test_from_partition():
    assert FiniteAbelianGroup.from_partition(2, (2, 1)).divisors == (2, 4)
    assert FiniteAbelianGroup.from_partition(3, ()).divisors == ()


def test_aut_order_cyclic_prime():
    for p in (2, 3, 5, 7, 11):
        assert aut_order(FiniteAbelianGroup((p,))) == p - 1


def test_aut_order_examples():
    assert aut_order(FiniteAbelianGroup((2, 2))) == 6
    assert aut_order(FiniteAbelianGroup((2, 4))) == 8


@pytest.mark.parametrize(
    "divisors",
    [(2,), (4,), (2, 2), (2, 4), (8,), (2, 2, 2), (3, 3), (9,), (3, 9), (6,), (2, 6), (12,)],
)
def test_aut_order_against_bruteforce(divisors):
    G = FiniteAbelianGroup(divisors)
    assert aut_order(G) == brute_sur_count(G.divisors, 0, G)


def test_aut_order_multiplicative_over_primes():
    rng = random.Random(7)
    for _ in range(20):
        # random small chain
        d = rng.choice([2, 3, 4, 6])
        chain = [d]
        while rng.random() < 0.5 and len(chain) < 3:
            chain.append(chain[-1] * rng.choice([1, 2, 3]))
        G = FiniteAbelianGroup(tuple(c for c in chain if c >= 2))
        expected = 1
        for p, lam in G.primary_partitions().items():
            expected *= aut_order(FiniteAbelianGroup.from_partition(p, lam))
        assert aut_order(G) == expected


# every abelian group of order <= 16 whose |Aut| is within AUTOMORPHISM_LIMIT;
# (Z/2)^4, with |Aut| = 20160, is checked against the limit below
SMALL_GROUPS = [(d,) for d in range(1, 17)] + [
    (2, 2), (2, 4), (2, 2, 2), (3, 3), (2, 6), (4, 4), (2, 8), (2, 2, 4),
]


@pytest.mark.parametrize("divisors", SMALL_GROUPS)
def test_automorphisms_are_the_bijective_homomorphisms(divisors):
    G = FiniteAbelianGroup(tuple(d for d in divisors if d > 1))
    els = G.elements
    index = {e: i for i, e in enumerate(els)}
    add = tuple(tuple(index[t_add(G, a, b)] for b in els) for a in els)
    neg = tuple(index[t_scale(G, -1, a)] for a in els)
    orders = tuple(next(m for m in itertools.count(1) if not any(t_scale(G, m, a))) for a in els)
    assert els[0] == t_zero(G) and G.tables() == (add, neg, orders)
    auts = automorphisms(G)
    assert len(auts) == len(set(auts)) == aut_order(G)
    assert tuple(range(G.order)) in auts
    for p in auts:
        assert sorted(p) == list(range(G.order))
        for i in range(G.order):
            for j in range(G.order):
                assert p[add[i][j]] == add[p[i]][p[j]]


@pytest.mark.parametrize("divisors", SMALL_GROUPS)
def test_type_orbits_partition_the_compositions(divisors):
    G = FiniteAbelianGroup(tuple(d for d in divisors if d > 1))
    g = G.order
    auts = automorphisms(G)
    # (Z/2)^3, (Z/3)^2 and Z/2+Z/2+Z/4 (|Aut| = 168, 48 and 192) stop most compositions
    # at some image, so they are walked further
    top = 5 if divisors in ((2, 2, 2), (3, 3), (2, 2, 4)) else 3
    for n in range(1, top + 1):
        expected, seen = [], set()
        for multiset in itertools.combinations_with_replacement(range(g), n):
            counts = tuple(multiset.count(i) for i in range(g))
            if counts not in seen:  # every image of a new orbit, its largest the representative
                orbit = {tuple(counts[i] for i in p) for p in auts}
                seen |= orbit
                expected.append((max(orbit), len(orbit)))
        reps = list(type_orbits(G, n))
        assert reps == sorted(expected)  # representatives in lexicographic order
        assert sum(size for _, size in reps) == math.comb(n + g - 1, g - 1)


def test_automorphisms_guard():
    G = FiniteAbelianGroup((2, 2, 2, 2))
    assert aut_order(G) > AUTOMORPHISM_LIMIT
    with pytest.raises(SizeLimitError):
        automorphisms(G)
    # the orbit sweep then lets the identity alone act: every type is its own orbit
    reps = list(type_orbits(G, 2))
    assert len(reps) == math.comb(17, 15) and all(size == 1 for _, size in reps)


def hom_count(da, free_rank, B):
    """#Hom(Z^f + sum Z/d_i, B) from B's element orders, the term sur_count_cokernel sums."""
    orders = Counter(B.tables()[2])
    return _hom_count(da, free_rank, B.order, tuple(sorted(orders.items())))


def test_hom_count_examples():
    Z4, Z2 = FiniteAbelianGroup((4,)), FiniteAbelianGroup((2,))
    V4 = FiniteAbelianGroup((2, 2))
    triv = FiniteAbelianGroup(())
    assert hom_count(Z4.divisors, 0, Z2) == 2
    assert hom_count(V4.divisors, 0, Z2) == 4
    assert hom_count(triv.divisors, 0, Z4) == 1
    assert hom_count((), 2, Z4) == 16 and hom_count((2,), 1, V4) == 16


@pytest.mark.parametrize(
    "da,db",
    [((2,), (4,)), ((2, 4), (2, 2)), ((6,), (12,)), ((2, 2), (8,)), ((3, 9), (3, 3))],
)
def test_hom_count_against_bruteforce(da, db):
    A, B = FiniteAbelianGroup(da), FiniteAbelianGroup(db)
    assert hom_count(A.divisors, 0, B) == brute_hom_count(A, B)


def test_sur_count_examples():
    assert sur_count_cokernel((2, 4), 0, FiniteAbelianGroup((2,))) == 3
    assert sur_count_cokernel((2,), 0, FiniteAbelianGroup((4,))) == 0
    assert sur_count_cokernel((4,), 0, FiniteAbelianGroup(())) == 1


@pytest.mark.parametrize(
    "da,db",
    [
        ((2,), (2,)),
        ((2, 4), (2,)),
        ((2, 4), (2, 2)),
        ((4, 4), (2, 4)),
        ((8,), (2,)),
        ((3, 3), (3,)),
        ((9,), (3,)),
        ((6,), (6,)),
        ((2, 6), (2, 2)),
        ((12,), (4,)),
        ((), (2, 2)),
        ((2,), (4,)),
        ((4,), (2, 4)),
        ((), ()),
    ],
)
def test_sur_count_against_bruteforce(da, db):
    B = FiniteAbelianGroup(db)
    for free_rank in (0, 1, 2):
        assert sur_count_cokernel(da, free_rank, B) == brute_sur_count(da, free_rank, B)


def test_sur_count_cokernel_free_part():
    Z2 = FiniteAbelianGroup((2,))
    # Z has 1 surjection onto Z/2; Z^2 has 3
    assert sur_count_cokernel((), 1, Z2) == 1
    assert sur_count_cokernel((), 2, Z2) == 3
    # torsion-only matches the brute-force count
    assert sur_count_cokernel((2, 4), 0, Z2) == brute_sur_count((2, 4), 0, Z2)


def test_subgroup_lattice_z4z2():
    G = FiniteAbelianGroup((2, 4))
    subs = G.subgroups()
    assert len(subs) == 8
    orders = G.tables()[2]
    # Z/2+Z/2 and the two cyclic Z/4 subgroups
    assert sorted(max(orders[h] for h in H) for H in subs if len(H) == 4) == [2, 4, 4]


def test_subgroup_order_guard():
    big = FiniteAbelianGroup((101, 101))
    with pytest.raises(SizeLimitError):
        big.subgroups()


def test_element_tables_guard():
    # the add table holds |G|^2 indices; above the limit none is built, so every
    # count that reads the tables raises before it allocates
    G = FiniteAbelianGroup((TABLE_ORDER_LIMIT + 1,))
    for count in (G.tables, lambda: sur_count_cokernel((2,), 0, G),
                  lambda: surjection_moment_exact(G, 1, 3)):
        with pytest.raises(SizeLimitError):
            count()


def test_cl_probability_values():
    triv = FiniteAbelianGroup(())
    assert cl_probability(triv, 2) == pytest.approx(0.2887880951, abs=1e-6)
    assert cl_probability(FiniteAbelianGroup((2,)), 2) == pytest.approx(0.2887880951, abs=1e-6)
    # (1/|Aut Z/3|) prod (1 - 3^-i) = 0.560126.../2
    assert cl_probability(FiniteAbelianGroup((3,)), 3) == pytest.approx(0.2800630, abs=1e-5)


def test_cl_probability_guards():
    with pytest.raises(InvalidInputError):
        cl_probability(FiniteAbelianGroup((6,)), 2)


def test_cl_partial_sums_monotone_to_one():
    prev = 0.0
    for cap_exp in range(0, 7):
        total = sum(cl_probability(G, 3) for G in p_groups_up_to(3, 3**cap_exp))
        assert prev < total < 1.0
        prev = total
    assert prev > 0.995


def test_cl_corank_values():
    assert cl_corank_probability(0) == pytest.approx(0.2887880951, abs=1e-6)
    assert cl_corank_probability(1) == pytest.approx(0.5775761902, abs=1e-6)
    assert sum(cl_corank_probability(r) for r in range(11)) == pytest.approx(1.0, abs=1e-6)


def test_p_groups_up_to():
    labels = {G.label() for G in p_groups_up_to(2, 8)}
    assert labels == {"1", "Z/2", "Z/4", "Z/2+Z/2", "Z/8", "Z/2+Z/4", "Z/2+Z/2+Z/2"}
