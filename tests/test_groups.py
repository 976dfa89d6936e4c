import itertools
import math
import random

import pytest

from rowsparse.errors import InvalidInputError, SizeLimitError
from rowsparse.groups import (
    AUTOMORPHISM_LIMIT,
    FiniteAbelianGroup,
    aut_order,
    automorphisms,
    cl_corank_probability,
    cl_probability,
    hom_count_cokernel,
    p_groups_up_to,
    sur_count_cokernel,
)
from rowsparse.moments import type_orbits


def all_homs(A, B):
    """Brute force: every map on generators with compatible orders."""
    gens = [tuple(1 if j == i else 0 for j in range(A.rank)) for i in range(A.rank)]
    candidates = []
    for d in A.divisors:
        candidates.append([h for h in B.elements if B.scale(d, h) == B.zero])
    homs = []
    for images in itertools.product(*candidates):
        homs.append(images)
    return homs


def hom_image(A, B, images, a):
    out = B.zero
    for coeff, img in zip(a, images):
        out = B.add(out, B.scale(coeff, img))
    return out


def brute_hom_count(A, B):
    return len(all_homs(A, B))


def brute_sur_count(A, B):
    total = 0
    for images in all_homs(A, B):
        image = {hom_image(A, B, images, a) for a in A.elements}
        if len(image) == B.order:
            total += 1
    return total


def brute_aut_count(G):
    total = 0
    for images in all_homs(G, G):
        image = {hom_image(G, G, images, a) for a in G.elements}
        if len(image) == G.order:
            total += 1
    return total


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
    assert aut_order(G) == brute_aut_count(G)


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
    add = [[G.index(G.add(a, b)) for b in els] for a in els]
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
    for n in (1, 2, 3):
        expected = {}
        for multiset in itertools.combinations_with_replacement(range(g), n):
            counts = tuple(multiset.count(i) for i in range(g))
            orbit = {tuple(counts[i] for i in p) for p in auts}
            expected[max(orbit)] = len(orbit)
        reps = list(type_orbits(G, n))
        assert dict(reps) == expected and len(reps) == len(expected)
        assert sum(size for _, size in reps) == math.comb(n + g - 1, g - 1)


def test_automorphisms_guard():
    G = FiniteAbelianGroup((2, 2, 2, 2))
    assert aut_order(G) > AUTOMORPHISM_LIMIT
    with pytest.raises(SizeLimitError):
        automorphisms(G)
    # the orbit sweep then lets the identity alone act: every type is its own orbit
    reps = list(type_orbits(G, 2))
    assert len(reps) == math.comb(17, 15) and all(size == 1 for _, size in reps)


def test_hom_count_examples():
    Z4, Z2 = FiniteAbelianGroup((4,)), FiniteAbelianGroup((2,))
    V4 = FiniteAbelianGroup((2, 2))
    triv = FiniteAbelianGroup(())
    assert hom_count_cokernel(Z4.divisors, 0, Z2) == 2
    assert hom_count_cokernel(V4.divisors, 0, Z2) == 4
    assert hom_count_cokernel(triv.divisors, 0, Z4) == 1


@pytest.mark.parametrize(
    "da,db",
    [((2,), (4,)), ((2, 4), (2, 2)), ((6,), (12,)), ((2, 2), (8,)), ((3, 9), (3, 3))],
)
def test_hom_count_against_bruteforce(da, db):
    A, B = FiniteAbelianGroup(da), FiniteAbelianGroup(db)
    assert hom_count_cokernel(A.divisors, 0, B) == brute_hom_count(A, B)


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
    ],
)
def test_sur_count_against_bruteforce(da, db):
    A, B = FiniteAbelianGroup(da), FiniteAbelianGroup(db)
    assert sur_count_cokernel(A.divisors, 0, B) == brute_sur_count(A, B)


def test_sur_count_cokernel_free_part():
    Z2 = FiniteAbelianGroup((2,))
    # Z has 1 surjection onto Z/2; Z^2 has 3
    assert sur_count_cokernel((), 1, Z2) == 1
    assert sur_count_cokernel((), 2, Z2) == 3
    # torsion-only matches the brute-force count
    assert sur_count_cokernel((2, 4), 0, Z2) == brute_sur_count(FiniteAbelianGroup((2, 4)), Z2)


def test_subgroup_lattice_z4z2():
    G = FiniteAbelianGroup((2, 4))
    subs = G.subgroups()
    assert len(subs) == 8
    types = sorted(G.subgroup_group(H).label() for H in subs if len(H) == 4)
    assert types == ["Z/2+Z/2", "Z/4", "Z/4"]


def test_subgroup_order_guard():
    big = FiniteAbelianGroup((101, 101))
    with pytest.raises(SizeLimitError):
        big.subgroups()


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
