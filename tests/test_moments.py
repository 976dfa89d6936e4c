import itertools
import math
import random
from fractions import Fraction

import pytest

from rowsparse import moments
from rowsparse.errors import InvalidInputError, UndefinedFormError
from rowsparse.groups import FiniteAbelianGroup
from rowsparse.intlinalg import int_det
from rowsparse.moments import (
    TypeMatrix,
    TypeVector,
    annihilation_probability,
    ball_constants,
    classify_near_uniform,
    convolution_powers,
    curvature_matrix,
    expected_annihilated_exact,
    expected_annihilated_gaussian,
    expected_annihilated_via_kl,
    kl_curvature_check,
    kl_divergence,
    order2_moment_floor,
    parity_closed_forms,
    surjection_moment_bruteforce,
    surjection_moment_exact,
    type_measures,
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
    out = []
    for b in itertools.product(range(1, n + 1), repeat=k):
        acc = G.zero
        for x in b:
            acc = G.add(acc, q[x - 1])
        if acc == G.zero:
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
        counts[G.index(x)] += 1
    return tuple(counts)


def test_convolution_powers_example():
    tv = TypeVector(Z2, (2, 1), 3)
    conv = convolution_powers(tv, 2)
    assert conv[(0,)] == 5 and conv[(1,)] == 4


def test_convolution_first_power_is_reflection():
    tv = TypeVector(Z3, (4, 2, 1), 4)
    conv = convolution_powers(tv, 1)
    assert conv[(0,)] == 4 and conv[(1,)] == 1 and conv[(2,)] == 2


def test_convolution_uniform_stays_uniform():
    tv = TypeVector(Z3, (2, 2, 2), 4)
    for ell in (1, 2, 3):
        conv = convolution_powers(tv, ell)
        assert all(v == 6**ell // 3 for v in conv.values())


def test_convolution_total_mass():
    rng = random.Random(3)
    for _ in range(25):
        G = random.choice([Z2, Z3, V4])
        tv = random_type(rng, G, rng.randrange(1, 12), 5)
        if tv.n == 0:
            continue
        for ell in range(1, 5):
            assert sum(convolution_powers(tv, ell).values()) == tv.n**ell


def test_convolution_range_check():
    tv = TypeVector(Z2, (2, 1), 3)
    with pytest.raises(InvalidInputError):
        convolution_powers(tv, 3)
    with pytest.raises(InvalidInputError):
        convolution_powers(tv, 0)


def test_m_matrix_single_class():
    tv = TypeVector(Z2, (5, 0), 3)
    mm = TypeMatrix.build(tv)
    assert mm.diag == (3 * 5**2,)
    assert mm.det == 75


def test_m_matrix_uniform_determinant():
    # at the uniform type, det(M) = k n^((k-1)|G|) / |G|^|G|
    for G, n, k in [(Z2, 6, 3), (Z2, 8, 5), (Z3, 6, 4), (V4, 8, 3)]:
        g = G.order
        counts = tuple(n // g for _ in range(g))
        mm = TypeMatrix.build(TypeVector(G, counts, k))
        assert mm.det == Fraction(k * n ** ((k - 1) * g), g**g)


def test_m_matrix_diagonal_bound_and_psd():
    rng = random.Random(11)
    for _ in range(1000):
        G = random.choice([Z2, Z3, V4])
        k = random.choice([3, 4, 5])
        tv = random_type(rng, G, rng.randrange(1, 15), k)
        if tv.n == 0:
            continue
        mm = TypeMatrix.build(tv)
        conv = convolution_powers(tv, k - 1)
        for e, d in zip(mm.elements, mm.diag):
            assert d <= k * conv[e]
        assert all(minor >= 0 for minor in mm.leading_minors_of_factor())


def test_annihilation_zero_tuple_is_certain():
    for n in (1, 2, 7, 40):
        for k in (3, 5):
            tv = TypeVector(Z2, (n, 0), k)
            assert annihilation_probability(tv) == 1


def test_annihilation_zero_weight_support():
    # all entries in the order-2 class with odd weight: no zero-sum tuples at all
    tv = TypeVector(Z2, (0, 4), 3)
    assert annihilation_probability(tv) == 0
    with pytest.raises(UndefinedFormError):
        expected_annihilated_via_kl(tv)


@pytest.mark.parametrize("q", list(itertools.product(range(2), repeat=2)))
def test_annihilation_formula_vs_bruteforce_z2(q):
    q = tuple((x,) for x in q)
    tv = TypeVector(Z2, type_of(Z2, q), 3)
    assert annihilation_probability(tv) == brute_prob(Z2, q, 2, 3)


def test_annihilation_formula_vs_bruteforce_z3_spot():
    for q in [((1,), (1,), (1,)), ((0,), (1,), (2,)), ((2,), (2,), (0,))]:
        tv = TypeVector(Z3, type_of(Z3, q), 3)
        assert annihilation_probability(tv) == brute_prob(Z3, q, 3, 3)


def test_expected_annihilated_multinomial():
    tv = TypeVector(Z2, (1, 1), 3)
    assert expected_annihilated_exact(tv) == 2 * annihilation_probability(tv)
    tv0 = TypeVector(Z2, (6, 0), 3)
    assert expected_annihilated_exact(tv0) == 1


def test_moment_trivial_group():
    assert surjection_moment_exact(FiniteAbelianGroup(()), 5, 3) == 1
    assert surjection_moment_bruteforce(FiniteAbelianGroup(()), 5, 3) == 1


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
        total += expected_annihilated_exact(TypeVector(G, counts, k))
    assert total == surjection_moment_exact(G, n, k)


def orbit_free_moment(G, n, k):
    """The exact moment summed over every generating type, with no orbit reduction."""
    g = G.order
    total = Fraction(0)
    for multiset in itertools.combinations_with_replacement(range(g), n):
        if len(G.generated([G.elements[i] for i in set(multiset)])) == g:
            counts = tuple(multiset.count(i) for i in range(g))
            total += expected_annihilated_exact(TypeVector(G, counts, k))
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
            if len(G.generated([G.elements[i] for i, x in enumerate(c) if x])) == 4]
    assert calls == reps and len(reps) < math.comb(9, 3)
    assert value == surjection_moment_bruteforce(G, 6, 3)


@pytest.mark.parametrize("moment", [surjection_moment_exact, surjection_moment_bruteforce])
@pytest.mark.parametrize(
    "G, n, k",
    [(Z2, 0, 3), (Z2, -1, 3), (Z2, 4, 2), (FiniteAbelianGroup(()), 5, 2),
     (FiniteAbelianGroup(()), 0, 3)],
)
def test_moment_rejects_invalid_input(moment, G, n, k):
    with pytest.raises(InvalidInputError):
        moment(G, n, k)


def test_type_matrix_is_integer_and_factors_through_d():
    rng = random.Random(5)
    for _ in range(200):
        G = random.choice([Z2, Z3, V4, FiniteAbelianGroup((5,))])
        k = random.choice([3, 4, 5])
        tv = random_type(rng, G, rng.randrange(1, 12), k)
        mm = TypeMatrix.build(tv)
        assert isinstance(mm.det, int)
        assert mm.weights == tuple(c for c in tv.counts if c > 0)
        assert mm.leading_minors_of_factor()[-1] * math.prod(mm.weights) == mm.det
        for i, (row, w) in enumerate(zip(mm.C, mm.weights)):
            assert all((x * w).denominator == 1 for x in row)  # D C is integral
            assert mm.diag[i] == row[i] * w


def test_measures_example_and_normalization():
    tv = TypeVector(Z2, (2, 1), 3)
    nu, mu = type_measures(tv)
    assert nu[(0,)] == Fraction(2, 3) and nu[(1,)] == Fraction(1, 3)
    assert mu[(0,)] == Fraction(5, 9) and mu[(1,)] == Fraction(4, 9)
    assert sum(nu.values()) == 1 and sum(mu.values()) == 1


def test_measures_uniform_fixed_point():
    tv = TypeVector(Z3, (4, 4, 4), 3)
    nu, mu = type_measures(tv)
    assert nu == mu


def test_kl_divergence_conventions():
    nu = {0: Fraction(1, 2), 1: Fraction(1, 2)}
    assert kl_divergence(nu, nu) == 0.0
    assert kl_divergence({0: 1, 1: 0}, {0: 0, 1: 1}) == math.inf
    assert kl_divergence({0: 0, 1: 1}, {0: 1, 1: 0}) == math.inf
    with pytest.raises(InvalidInputError):
        kl_divergence({0: 1}, {1: 1})


def test_kl_pinsker_inequality():
    rng = random.Random(21)
    for _ in range(1000):
        m = rng.randint(2, 5)
        a = [rng.randint(0, 9) for _ in range(m)]
        b = [rng.randint(0, 9) for _ in range(m)]
        if sum(a) == 0 or sum(b) == 0:
            continue
        nu = {i: Fraction(x, sum(a)) for i, x in enumerate(a)}
        mu = {i: Fraction(x, sum(b)) for i, x in enumerate(b)}
        d = kl_divergence(nu, mu)
        l1 = sum(abs(nu[i] - mu[i]) for i in range(m))
        assert d >= float(l1) ** 2 / 2 - 1e-12


def test_via_kl_matches_exact():
    rng = random.Random(8)
    for G in (Z2, Z3):
        for _ in range(30):
            n = rng.randint(2, 50)
            tv = random_type(rng, G, n, 3)
            if tv.n < 1:
                continue
            try:
                approx = expected_annihilated_via_kl(tv)
            except UndefinedFormError:
                assert annihilation_probability(tv) == 0
                continue
            exact = expected_annihilated_exact(tv)
            if exact == 0:
                assert approx == pytest.approx(0.0, abs=1e-12)
            else:
                assert approx == pytest.approx(float(exact), rel=1e-9)


def test_via_kl_upper_bound():
    # E <= k^|G| n^((k-1)|G|) exp(-n KL) always
    rng = random.Random(9)
    for _ in range(50):
        tv = random_type(rng, Z2, rng.randint(2, 30), 3)
        if tv.n < 1:
            continue
        nu, mu = type_measures(tv)
        d = kl_divergence(nu, mu)
        bound = 3 ** 2 * tv.n ** (2 * 2) * math.exp(-tv.n * d) if d != math.inf else 0.0
        assert float(expected_annihilated_exact(tv)) <= bound * (1 + 1e-9) + 1e-300


def test_ball_constants_formula():
    c, t, r = ball_constants(Z2, 100, 3)
    assert c == 2 * 2**4 * 2**2 * 3**4
    assert t == pytest.approx(2 * c * math.sqrt(2 * 100 * math.log(100)))
    assert r == pytest.approx(4 * c * 2 * math.log(100))


def test_classify_uniform_is_group_ball():
    tv = TypeVector(V4, (25, 25, 25, 25), 3)
    label = classify_near_uniform(tv, frozenset(V4.elements))
    assert label.kind == "group"


def test_classify_torsion_coset_sublabel():
    n = 50
    tv = TypeVector(Z2, (n - 1, 1), 3)
    label = classify_near_uniform(tv, frozenset({(0,)}))
    assert label.kind == "subgroup" and label.torsion_coset is True


def test_classify_odd_index_never_torsion():
    # [G : H] = 3 odd: no coset can halve into H
    for counts in [(10, 1, 1), (12, 0, 3), (9, 3, 3)]:
        tv = TypeVector(Z3, counts, 4)
        label = classify_near_uniform(tv, frozenset({(0,)}))
        if label.kind == "subgroup":
            assert label.torsion_coset is False


def test_classify_outside_when_support_does_not_generate():
    tv = TypeVector(Z2, (9, 0), 3)
    assert classify_near_uniform(tv, frozenset({(0,)})).kind == "outside"
    # zero convolution weight on the support also falls outside
    tv = TypeVector(Z2, (0, 9), 3)
    assert classify_near_uniform(tv, frozenset(Z2.elements)).kind == "outside"


def test_classify_rejects_non_subgroup():
    tv = TypeVector(Z3, (2, 2, 2), 3)
    with pytest.raises(InvalidInputError):
        classify_near_uniform(tv, frozenset({(1,)}))


def test_ball_overlap_recording_sweep():
    """At desk-scale n the windows exceed n itself, so distinct subgroup balls
    still overlap; this records the measured fact rather than assuming the
    asymptotic disjointness."""
    rng = random.Random(2)
    subgroups = V4.subgroups()
    for n in (1000, 10_000):
        _, t, r = ball_constants(V4, n, 3)
        assert min(t, r) > n  # windows not yet separating
        overlaps = 0
        for _ in range(40):
            tv = random_type(rng, V4, n, 3)
            if tv.n < 1:
                continue
            labels = [
                H
                for H in subgroups
                if classify_near_uniform(tv, H).kind in ("group", "subgroup")
            ]
            overlaps = max(overlaps, len(labels))
        uniform = TypeVector(V4, (n // 4,) * 4, 3)
        in_all = [
            H
            for H in subgroups
            if classify_near_uniform(uniform, H).kind in ("group", "subgroup")
        ]
        assert len(in_all) == len(subgroups)
        assert overlaps >= 2


def test_curvature_matrix_determinant():
    for G in (Z2, Z3, V4, FiniteAbelianGroup((5,))):
        q = curvature_matrix(G)
        assert int_det(q) == G.order**G.order


def test_gaussian_at_uniform_point():
    tv = TypeVector(Z2, (500, 500), 3)
    expected = math.sqrt(2) ** 2 / math.sqrt(2 * math.pi * 1000)
    assert expected_annihilated_gaussian(tv) == pytest.approx(expected, rel=1e-12)


def test_gaussian_tracks_exact_near_uniform():
    tv = TypeVector(Z2, (5050, 4950), 3)
    ratio = expected_annihilated_gaussian(tv) / float(expected_annihilated_exact(tv))
    assert 0.9 <= ratio <= 1.1


def test_kl_curvature_check_z2():
    gnorm, hdev = kl_curvature_check(Z2, 3)
    assert gnorm <= 1e-6
    assert hdev <= 1e-3 * 2


def test_parity_closed_forms():
    assert parity_closed_forms(4, 3, 1) == (10, 6)
    n, k = 9, 5
    assert parity_closed_forms(n, k, 0) == (n ** (k - 1), 0)
    rng = random.Random(4)
    for _ in range(20):
        n = rng.randint(1, 30)
        ell = rng.randint(0, n)
        k = rng.choice([3, 5, 7])
        even, odd = parity_closed_forms(n, k, ell)
        assert even + odd == n ** (k - 1)
        conv = convolution_powers(TypeVector(Z2, (n - ell, ell), k), k - 1)
        assert (conv[(0,)], conv[(1,)]) == (even, odd)


def test_order2_moment_floor_values():
    assert order2_moment_floor(3) == Fraction(1, 12)
    assert order2_moment_floor(5) == Fraction(1, 80)
    with pytest.raises(InvalidInputError):
        order2_moment_floor(4)


def test_order2_floor_holds_at_finite_n():
    value = expected_annihilated_exact(TypeVector(Z2, (999, 1), 3))
    assert value >= Fraction(9, 10) * order2_moment_floor(3)
