import itertools
import math
import random
from fractions import Fraction

import pytest

from rowsparse import moments
from rowsparse.errors import InvalidInputError, SizeLimitError
from rowsparse.groups import FiniteAbelianGroup
from rowsparse.intlinalg import int_det
from rowsparse.moments import (
    TypeVector,
    _conv_arrays,
    _scaled_factor,
    annihilation_probability,
    curvature_matrix,
    expected_annihilated_exact,
    kl_curvature_check,
    surjection_moment_bruteforce,
    surjection_moment_exact,
)
from rowsparse.structured import gram_determinant, row_vector

Z2 = FiniteAbelianGroup((2,))
Z3 = FiniteAbelianGroup((3,))
V4 = FiniteAbelianGroup((2, 2))


def random_type(rng, G, n, k):
    cuts = sorted(rng.randrange(n + 1) for _ in range(G.order - 1))
    counts = []
    prev = 0
    for c in cuts + [n]:
        counts.append(c - prev)
        prev = c
    return TypeVector(G, tuple(counts), k)


def zero_sum_slice(G, q, n, k):
    """Row tuples b whose entries of q sum to zero, in the test's own tuple arithmetic."""
    out = []
    for b in itertools.product(range(1, n + 1), repeat=k):
        sums = [sum(q[x - 1][j] for x in b) % d for j, d in enumerate(G.divisors)]
        if not any(sums):
            out.append(b)
    return out


def brute_prob(G, q, n, k):
    denom = gram_determinant(n, k)
    slice_ = zero_sum_slice(G, q, n, k)
    total = Fraction(0)
    for combo in itertools.combinations(slice_, n):
        d = int_det([row_vector(b, n) for b in combo])
        total += Fraction(d * d, denom)
    return total


def type_of(G, q):
    counts = [0] * G.order
    for x in q:
        counts[G.elements.index(x)] += 1
    return tuple(counts)


def conv(tv, ell):
    """n(ell)_a: weighted count of ell-tuples of entries summing to -a, keyed by element."""
    return dict(zip(tv.group.elements, _conv_arrays(tv, ell)[ell]))


def test_convolution_powers_example():
    tv = TypeVector(Z2, (2, 1), 3)
    table = conv(tv, 2)
    assert table[(0,)] == 5 and table[(1,)] == 4


def test_parity_closed_forms():
    # at G = Z/2 and type (n - ell, ell): n(k-1)_0 = (n^(k-1) + (n-2 ell)^(k-1)) / 2
    def parity(n, k, ell):
        table = conv(TypeVector(Z2, (n - ell, ell), k), k - 1)
        return table[(0,)], table[(1,)]

    assert parity(4, 3, 1) == (10, 6)
    n, k = 9, 5
    assert parity(n, k, 0) == (n ** (k - 1), 0)
    rng = random.Random(4)
    for _ in range(20):
        n = rng.randint(1, 30)
        ell = rng.randint(0, n)
        k = rng.choice([3, 5, 7])
        s, t = n ** (k - 1), (n - 2 * ell) ** (k - 1)
        even, odd = parity(n, k, ell)
        assert even + odd == n ** (k - 1)
        assert (even, odd) == ((s + t) // 2, (s - t) // 2)


def test_convolution_first_power_is_reflection():
    tv = TypeVector(Z3, (4, 2, 1), 4)
    table = conv(tv, 1)
    assert table[(0,)] == 4 and table[(1,)] == 1 and table[(2,)] == 2


def test_convolution_uniform_stays_uniform():
    tv = TypeVector(Z3, (2, 2, 2), 4)
    for ell in (1, 2, 3):
        assert all(v == 6**ell // 3 for v in conv(tv, ell).values())


def test_convolution_total_mass():
    rng = random.Random(3)
    for _ in range(25):
        G = random.choice([Z2, Z3, V4])
        tv = random_type(rng, G, rng.randrange(1, 12), 5)
        if tv.n == 0:
            continue
        for ell in range(1, 5):
            assert sum(conv(tv, ell).values()) == tv.n**ell


def factor(tv):
    """The integer matrix D C over the type's support, with its support indices."""
    sup = [i for i, c in enumerate(tv.counts) if c > 0]
    return _scaled_factor(tv, sup, _conv_arrays(tv, tv.k - 1)), sup


def test_m_matrix_single_class():
    dc, _ = factor(TypeVector(Z2, (5, 0), 3))
    assert dc == [[3 * 5**2]]
    assert int_det(dc) == 75


def test_m_matrix_uniform_determinant():
    # at the uniform type, det(D C) = k n^((k-1)|G|) / |G|^|G|
    for G, n, k in [(Z2, 6, 3), (Z2, 8, 5), (Z3, 6, 4), (V4, 8, 3)]:
        g = G.order
        counts = tuple(n // g for _ in range(g))
        dc, _ = factor(TypeVector(G, counts, k))
        assert int_det(dc) == Fraction(k * n ** ((k - 1) * g), g**g)


def test_m_matrix_diagonal_bound_and_psd():
    # C is PSD iff its leading principal minors are >= 0; those of D C are the
    # same minors times a positive product of n_a
    rng = random.Random(11)
    for _ in range(1000):
        G = random.choice([Z2, Z3, V4])
        k = random.choice([3, 4, 5])
        tv = random_type(rng, G, rng.randrange(1, 15), k)
        if tv.n == 0:
            continue
        dc, sup = factor(tv)
        nk1 = _conv_arrays(tv, k - 1)[k - 1]
        for i, a in enumerate(sup):
            assert dc[i][i] <= k * nk1[a]
        for size in range(1, len(sup) + 1):
            assert int_det([row[:size] for row in dc[:size]]) >= 0


def test_type_matrix_is_integer_and_factors_through_d():
    # D C is integral and C = D^-1 (D C) is symmetric: (D C)_ab n_b = (D C)_ba n_a
    rng = random.Random(5)
    for _ in range(200):
        G = random.choice([Z2, Z3, V4, FiniteAbelianGroup((5,))])
        k = random.choice([3, 4, 5])
        tv = random_type(rng, G, rng.randrange(1, 12), k)
        dc, sup = factor(tv)
        assert all(isinstance(x, int) for row in dc for x in row)
        for i, a in enumerate(sup):
            for j, b in enumerate(sup):
                assert dc[i][j] * tv.counts[b] == dc[j][i] * tv.counts[a]


def test_annihilation_zero_tuple_is_certain():
    for n in (1, 2, 7, 40):
        for k in (3, 5):
            tv = TypeVector(Z2, (n, 0), k)
            assert annihilation_probability(tv) == 1


def test_annihilation_zero_weight_support():
    # all entries in the order-2 class with odd weight: no zero-sum tuples at all
    tv = TypeVector(Z2, (0, 4), 3)
    assert annihilation_probability(tv) == 0


@pytest.mark.parametrize("q", list(itertools.product(range(2), repeat=2)))
def test_annihilation_formula_vs_bruteforce_z2(q):
    q = tuple((x,) for x in q)
    tv = TypeVector(Z2, type_of(Z2, q), 3)
    assert annihilation_probability(tv) == brute_prob(Z2, q, 2, 3)


def test_annihilation_formula_vs_bruteforce_z3_spot():
    for q in [((1,), (1,), (1,)), ((0,), (1,), (2,)), ((2,), (2,), (0,))]:
        tv = TypeVector(Z3, type_of(Z3, q), 3)
        assert annihilation_probability(tv) == brute_prob(Z3, q, 3, 3)


def type_weight(tv):
    """E(number of annihilated tuples of this type), from its integer numerator."""
    return Fraction(expected_annihilated_exact(tv), tv.denominator)


def test_expected_annihilated_multinomial():
    tv = TypeVector(Z2, (1, 1), 3)
    assert isinstance(expected_annihilated_exact(tv), int)
    assert tv.denominator == 3 * 2**4
    assert type_weight(tv) == 2 * annihilation_probability(tv)
    tv0 = TypeVector(Z2, (6, 0), 3)
    assert type_weight(tv0) == 1


def test_moment_trivial_group():
    assert surjection_moment_exact(FiniteAbelianGroup(()), 5, 3) == 1
    assert surjection_moment_bruteforce(FiniteAbelianGroup(()), 5, 3) == 1
    # every tuple of the trivial group is annihilated; its one-element tables read as tuples
    for n, k in ((5, 3), (4, 5)):
        assert annihilation_probability(TypeVector(FiniteAbelianGroup(()), (n,), k)) == 1


@pytest.mark.parametrize("G", [Z2, Z3, V4])
@pytest.mark.parametrize("n", [2, 4, 6])
def test_moment_cross_method(G, n):
    assert surjection_moment_exact(G, n, 3) == surjection_moment_bruteforce(G, n, 3)


def test_moment_equals_sum_over_generating_types():
    # direct recomposition of the exact sweep
    G, n, k = Z2, 6, 3
    total = Fraction(0)
    for a in range(n + 1):
        counts = (n - a, a)
        if a == 0:
            continue  # support {0} does not generate
        total += type_weight(TypeVector(G, counts, k))
    assert total == surjection_moment_exact(G, n, k)


def orbit_free_moment(G, n, k):
    """The exact moment summed over every generating type, with no orbit reduction."""
    g = G.order
    total = Fraction(0)
    for multiset in itertools.combinations_with_replacement(range(g), n):
        if len(G.generated(set(multiset))) == g:
            counts = tuple(multiset.count(i) for i in range(g))
            total += type_weight(TypeVector(G, counts, k))
    return total


@pytest.mark.parametrize("divisors", [(4,), (5,), (2, 4), (3, 3), (2, 2, 2)])
@pytest.mark.parametrize("k", [3, 4, 5])
def test_orbit_sweep_matches_orbit_free_sum(divisors, k):
    G = FiniteAbelianGroup(divisors)
    for n in range(1, 6):
        exact = surjection_moment_exact(G, n, k)
        assert exact == orbit_free_moment(G, n, k)
        if G.order**n <= 10**5:
            assert exact == surjection_moment_bruteforce(G, n, k)


def test_orbit_sweep_above_the_automorphism_limit():
    G = FiniteAbelianGroup((2, 2, 2, 2))  # |Aut| = 20160: the identity alone acts
    for n in (1, 2, 3):
        assert surjection_moment_exact(G, n, 3) == surjection_moment_bruteforce(G, n, 3)


def test_sweep_calls_the_type_weight_once_per_orbit(monkeypatch):
    # the weight is looked up as a module attribute, so a patched one is counted
    calls = []
    original = moments.expected_annihilated_exact

    def counted(tv):
        calls.append(tv.counts)
        return original(tv)

    monkeypatch.setattr(moments, "expected_annihilated_exact", counted)
    G = FiniteAbelianGroup((2, 2))
    value = surjection_moment_exact(G, 6, 3)
    reps = [c for c, _ in moments.type_orbits(G, 6)
            if len(G.generated([i for i, x in enumerate(c) if x])) == 4]
    assert calls == reps and len(reps) < math.comb(9, 3)
    assert value == surjection_moment_bruteforce(G, 6, 3)


# the moment-sweep benchmark's pins, far beyond brute force (|G|^n = 5^20 and 4^30)
PINNED_SWEEPS = {
    ((5,), 20): Fraction(
        17868941827967832417206301705861501888183,
        21474836480000000000000000000000000000000,
    ),
    ((2, 2), 30): Fraction(
        621848206868612203220779888580641630042563312290816850458654,
        32799459887553991095854311055290963849984109401702880859375,
    ),
}


@pytest.mark.parametrize("divisors, n", list(PINNED_SWEEPS))
def test_sweep_pinned_beyond_bruteforce(divisors, n):
    assert surjection_moment_exact(FiniteAbelianGroup(divisors), n, 3) == PINNED_SWEEPS[divisors, n]


# k = 3 sweeps over groups whose orbit walk stops most compositions early (|Aut| = 168 and
# 48), as the sweep that applied every automorphism to every composition gave them;
# |G|^n = 8^8 and 9^8 are beyond brute force
PINNED_ORBIT_SWEEPS = {
    ((2, 2, 2), 8): Fraction(6008046345, 268435456),
    ((3, 3), 8): Fraction(49401871201683, 2199023255552),
}


@pytest.mark.parametrize("divisors, n", list(PINNED_ORBIT_SWEEPS))
def test_sweep_pinned_on_groups_with_many_automorphisms(divisors, n):
    value = surjection_moment_exact(FiniteAbelianGroup(divisors), n, 3)
    assert value == PINNED_ORBIT_SWEEPS[divisors, n]


def test_sweep_builds_one_fraction(monkeypatch):
    # the orbit weights are integers over one denominator, so no per-orbit reduction
    made = []

    def counted(*args):
        made.append(args)
        return Fraction(*args)

    monkeypatch.setattr(moments, "Fraction", counted)
    value = surjection_moment_exact(FiniteAbelianGroup((5,)), 20, 3)
    assert len(made) == 1 and value == PINNED_SWEEPS[(5,), 20]


@pytest.mark.parametrize("moment", [surjection_moment_exact, surjection_moment_bruteforce])
@pytest.mark.parametrize(
    "G, n, k",
    [(Z2, 0, 3), (Z2, -1, 3), (Z2, 4, 2), (FiniteAbelianGroup(()), 5, 2),
     (FiniteAbelianGroup(()), 0, 3)],
)
def test_moment_rejects_invalid_input(moment, G, n, k):
    with pytest.raises(InvalidInputError):
        moment(G, n, k)


def test_denominator_bits_guard():
    # (k - 1) n bitlen(n) = 32 (k - 1): about 2^27 bits here, twice the cap, so a missing
    # guard would start forming 16 MB powers instead of refusing at once
    k = 2**22 + 1
    for moment in (surjection_moment_exact, surjection_moment_bruteforce):
        with pytest.raises(SizeLimitError, match="bits"):
            moment(Z2, 8, k)
    with pytest.raises(SizeLimitError, match="bits"):
        TypeVector(Z2, (4, 4), k)
    # the cap itself is admitted: a type vector forms no power when it is built
    assert 32 * 2**21 == moments.DENOMINATOR_BITS_LIMIT
    TypeVector(Z2, (4, 4), 2**21 + 1)


def test_curvature_matrix_determinant():
    for G in (Z2, Z3, V4, FiniteAbelianGroup((5,))):
        q = curvature_matrix(G)
        assert int_det(q) == G.order**G.order


def test_kl_curvature_check_z2():
    gnorm, hdev = kl_curvature_check(Z2, 3)
    assert gnorm <= 1e-6
    assert hdev <= 1e-3 * 2


def test_order2_floor_holds_at_finite_n():
    # 9/10 of the near-1 type's floor (k-1)^2 / (4^(k-1) k), which is 1/12 at k = 3
    value = type_weight(TypeVector(Z2, (999, 1), 3))
    assert value >= Fraction(3, 40)
