import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from rowsparse import sampling
from rowsparse.defect import (
    bonferroni_lower,
    column_is_isolated_double,
    corank_tail_floor,
    isolated_double_probability,
    mc_corank_tail,
    subset_family_mass,
)
from rowsparse.errors import InvalidInputError
from rowsparse.sampling import BasisSumRows
from rowsparse.snf import rank_mod_p
from rowsparse.structured import gram_determinant, row_vector


def test_column_membership_examples():
    assert column_is_isolated_double(((1, 1, 2), (2, 2, 2)), 1)
    assert not column_is_isolated_double(((1, 1, 1), (2, 2, 2)), 1)  # triple, not double
    assert not column_is_isolated_double(((1, 1, 2), (1, 2, 2)), 1)  # two rows meet 1
    assert not column_is_isolated_double(((2, 2, 3), (3, 3, 2)), 1)  # no row meets 1


def test_isolated_double_probability_exact_n3():
    p1 = isolated_double_probability(3, 3, 1)
    assert p1 == Fraction(128, 729)
    brute = subset_family_mass(3, 3, lambda K: column_is_isolated_double(K, 1))
    assert brute == p1
    p2 = isolated_double_probability(3, 3, 2)
    brute2 = subset_family_mass(
        3, 3, lambda K: column_is_isolated_double(K, 1) and column_is_isolated_double(K, 2)
    )
    assert brute2 == p2


def test_isolated_double_index_invariance():
    # the exact mass is the same whichever columns are named
    singles = [
        subset_family_mass(3, 3, lambda K, i=i: column_is_isolated_double(K, i))
        for i in (1, 2, 3)
    ]
    assert len(set(singles)) == 1
    pairs = [
        subset_family_mass(
            3, 3, lambda K, a=a, b=b: column_is_isolated_double(K, a) and column_is_isolated_double(K, b)
        )
        for a, b in ((1, 2), (1, 3), (2, 3))
    ]
    assert len(set(pairs)) == 1


def _doubled_block_count(n, k, r):
    """r-row blocks realizing the isolated-double pattern on columns 1..r, by enumeration:
    row i meets column i twice and every other column it meets lies above r."""
    count = 1
    for i in range(1, r + 1):
        count *= sum(
            1
            for b in itertools.product(range(1, n + 1), repeat=k)
            if b.count(i) == 2 and all(x == i or x > r for x in b)
        )
    return count


def test_doubled_block_count():
    assert _doubled_block_count(3, 3, 1) == 6
    assert _doubled_block_count(5, 4, 0) == 1
    assert _doubled_block_count(4, 3, 2) == 36


def test_doubled_block_count_enumeration_oracle():
    # the closed form (C(k, 2) (n-r)^(k-2))^r, and the column-event probability built on it:
    # each block row's doubled column puts a factor 2^2 into det^2
    for n, k, r in ((3, 3, 1), (4, 3, 2), (5, 4, 2)):
        blocks = _doubled_block_count(n, k, r)
        assert blocks == (math.comb(k, 2) * (n - r) ** (k - 2)) ** r
        assert isolated_double_probability(n, k, r) == Fraction(
            4**r * blocks * gram_determinant(n - r, k), gram_determinant(n, k)
        )


def test_bonferroni_value_and_validity_n3():
    bound = bonferroni_lower(3, 3, 1)
    assert bound == 3 * Fraction(128, 729) - 3 * isolated_double_probability(3, 3, 2)
    assert bound == Fraction(112, 243)

    def corank_at_least_one(K):
        _, corank = rank_mod_p([row_vector(b, 3) for b in K], 2)
        return corank >= 1

    truth = subset_family_mass(3, 3, corank_at_least_one)
    assert bound <= truth <= 1


def test_bonferroni_is_at_most_one():
    for n, k, r in [(3, 3, 1), (10, 3, 1), (10, 3, 2), (50, 5, 1), (20, 3, 19)]:
        assert bonferroni_lower(n, k, r) <= 1


def test_bonferroni_floor_at_n100():
    assert bonferroni_lower(100, 3, 1) >= Fraction(13, 100)


def test_isolated_double_monotone_in_r():
    for n in (10, 50, 200):
        for k in (3, 5, 7):
            values = [isolated_double_probability(n, k, r) for r in range(1, 6)]
            assert all(a > b for a, b in zip(values, values[1:]))


def test_corank_tail_floor_values():
    assert corank_tail_floor(3, 1) == pytest.approx(math.exp(-2))
    assert corank_tail_floor(3, 2) == pytest.approx(2 / math.e**4)
    assert corank_tail_floor(5, 1) == pytest.approx(8 / (4 * math.e**4))
    with pytest.raises(InvalidInputError):
        corank_tail_floor(4, 1)
    with pytest.raises(InvalidInputError):
        corank_tail_floor(3, 0)


def test_mc_corank_trivial_cases():
    assert mc_corank_tail(10, 3, 0, 500) == (1.0, 0.0)
    with pytest.raises(InvalidInputError):
        mc_corank_tail(10, 3, 1, 50)


def test_mc_corank_admits_every_host_a_single_draw_admits(monkeypatch):
    # 1,000 trials at n = 120 are drawn as lists of at most walk_size() (66) draws on one
    # Generator, no 1.44e7-entry batch; each stub draw repeats one tuple, a corank-119 matrix
    sizes = []

    def draw(family, rngs, precision):
        sizes.append(len(rngs))
        assert precision == "float64" and all(g is rngs[0] for g in rngs)
        return [((1, 1, 2),) * 120] * len(rngs)

    monkeypatch.setattr(sampling, "sample_volume", draw)
    assert mc_corank_tail(120, 3, 1, 1000, rng=0) == (1.0, 0.0)
    walk = BasisSumRows(120, 3).walk_size()
    assert walk == 66 and sizes == [walk] * 15 + [1000 - 15 * walk]


@pytest.mark.parametrize(
    "args,seed,precision,est,se",
    [
        ((30, 3, 1, 1000), 707, "float64", 0.924, 0.00838),  # c07's draws
        ((12, 5, 2, 300), 3, "float64", 0.21, 0.02352),
        ((4, 3, 1, 200), 5, "exact", 0.71, 0.03209),
    ],
    ids=["30-3-c07", "12-5-r2", "4-3-exact"],
)
def test_mc_corank_estimates_are_pinned(args, seed, precision, est, se):
    # the successive draws on one Generator, as one call per draw took them
    got, got_se = mc_corank_tail(*args, rng=np.random.default_rng(seed), precision=precision)
    assert got == est and got_se == pytest.approx(se, abs=1e-5)


def test_mc_corank_even_weight_always_defective():
    # even row weight forces the all-ones kernel vector mod 2
    est, se = mc_corank_tail(8, 4, 1, 200, rng=np.random.default_rng(0))
    assert est == 1.0 and se == 0.0


def test_mc_corank_respects_exact_lower_bound():
    est, se = mc_corank_tail(20, 3, 1, 400, rng=np.random.default_rng(1))
    assert est >= float(bonferroni_lower(20, 3, 1)) - 3 * se
    assert est == 0.885  # pinned, as in test_mc_corank_estimates_are_pinned


def test_preconditions():
    with pytest.raises(InvalidInputError):
        isolated_double_probability(3, 3, 3)
    with pytest.raises(InvalidInputError):
        bonferroni_lower(3, 3, 3)


def test_subset_family_mass_enumerates_each_host_once(monkeypatch):
    from rowsparse import sampling

    sampling.cached_family.cache_clear()
    calls = []
    real = sampling.int_det
    monkeypatch.setattr(sampling, "int_det", lambda m: calls.append(1) or real(m))

    def event(Y):
        return column_is_isolated_double(Y, 1)

    first = subset_family_mass(3, 3, event)
    assert len(calls) == math.comb(27, 3)
    second = subset_family_mass(3, 3, event)
    assert len(calls) == math.comb(27, 3)
    assert first == second == isolated_double_probability(3, 3, 1) == Fraction(128, 729)
