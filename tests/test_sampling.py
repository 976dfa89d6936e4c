import itertools
import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rowsparse import sampling
from rowsparse.errors import DegenerateHostError, InvalidInputError, SizeLimitError
from rowsparse.intlinalg import frac_inverse, int_det
from rowsparse.sampling import (
    BATCH_WALK_MIN,
    DRAW_BATCH,
    BasisResidual,
    BasisResidualBatch,
    BasisSumRows,
    BoundaryRows,
    MatrixRows,
    RowFamily,
    RowResidual,
    RowResidualBatch,
    cached_family,
    enumerate_distribution,
    sample_hypertree,
    sample_matrix,
    sample_volume,
)
from rowsparse.structured import row_vector

DRAWS = 100_000
SEED = 20240901


@pytest.fixture(scope="module")
def b33_draws():
    """One shared batch of seeded draws from the (3, 3) family."""
    fam = cached_family(BasisSumRows, 3, 3)
    rng = np.random.default_rng(SEED)
    counts = Counter()
    for _ in range(DRAWS // DRAW_BATCH):
        counts.update(sample_volume(fam, [rng] * DRAW_BATCH))
    inclusions = Counter()
    for subset, c in counts.items():
        for b in subset:
            inclusions[b] += c
    return fam, counts, inclusions


def _subset_probability(fam, identifiers):
    """Exact P(Y) = det(host[Y])^2 / det(Gram) for the subset Y of the named items."""
    d = int_det([fam.dense_row(fam.item_index(ident)) for ident in identifiers])
    return Fraction(d * d, fam.gram_det())


def test_unknown_precision_is_rejected():
    with pytest.raises(InvalidInputError):
        sample_volume(BasisSumRows(3, 3), np.random.default_rng(0), precision="float32")


def test_enumeration_n2():
    fam = BasisSumRows(2, 3)
    dist = enumerate_distribution(fam)
    assert sum(p for _, p in dist) == 1
    probs = dict(dist)
    assert probs[((1, 1, 1), (2, 2, 2))] == Fraction(81, 432)
    # identical multiplicity maps have determinant zero: never listed
    assert ((1, 1, 2), (1, 2, 1)) not in probs
    assert all(p > 0 for p in probs.values())


def test_enumeration_n3_sums_to_one_exactly():
    dist = enumerate_distribution(cached_family(BasisSumRows, 3, 3))
    assert sum(p for _, p in dist) == 1
    assert len(dist) == 1918  # of the 2925 3-subsets, these have nonzero determinant


def test_enumeration_guards():
    with pytest.raises(SizeLimitError):
        enumerate_distribution(BasisSumRows(5, 5))  # C(5^5, 5) ~ 2.5e15 subsets


def test_marginal_leverage_values():
    # closed-form kernel diagonal, pinned by the enumeration marginal below
    fam = BasisSumRows(2, 3)
    assert fam.leverage_exact(fam.item_index((1, 1, 1))) == Fraction(1, 2)
    total = sum(fam.leverage_exact(fam.item_index(b)) for b in fam.items())
    assert total == 2


def test_marginal_leverage_equals_enumeration_marginal():
    fam = BasisSumRows(2, 3)
    dist = enumerate_distribution(fam)
    for i in range(fam.n_items):
        b = fam.item(i)
        marginal = sum(p for subset, p in dist if b in subset)
        assert marginal == fam.leverage_exact(i)


def test_marginal_leverage_trace_n3():
    fam = cached_family(BasisSumRows, 3, 3)
    assert sum(fam.leverage_exact(i) for i in range(fam.n_items)) == 3


def test_leverage_float_matches_exact():
    for fam in (BasisSumRows(3, 3), BoundaryRows(5, 2)):
        lev = fam.leverage_float()
        for i in range(0, fam.n_items, 5):
            assert lev[i] == pytest.approx(float(fam.leverage_exact(i)), abs=1e-12)


def test_empirical_tv_within_noise(b33_draws):
    fam, counts, _ = b33_draws
    dist = dict(enumerate_distribution(fam))
    assert all(subset in dist for subset in counts), "zero-probability subset emitted"
    tv = 0.5 * sum(abs(counts.get(ss, 0) / DRAWS - float(p)) for ss, p in dist.items())
    floor = sum(math.sqrt(p) for p in dist.values()) / math.sqrt(2 * math.pi * DRAWS)
    # a perfect sampler concentrates around `floor` (~0.048); gross bias would
    # push well past it
    assert tv <= 1.5 * floor


def test_empirical_marginals_within_noise(b33_draws):
    fam, _, inclusions = b33_draws
    zs = []
    for i in range(fam.n_items):
        p = float(fam.leverage_exact(i))
        se = math.sqrt(p * (1.0 - p) / DRAWS)
        zs.append(abs(inclusions[fam.item(i)] / DRAWS - p) / se)
    # simultaneous version of a per-row 3-sigma rule over 27 rows
    assert sum(z > 3.0 for z in zs) <= 1
    assert max(zs) <= 4.0
    assert sum(zs) / len(zs) <= 1.2


def test_emitted_subsets_have_positive_exact_probability(b33_draws):
    fam, counts, _ = b33_draws
    for subset in list(counts)[:50]:
        assert _subset_probability(fam, subset) > 0


def test_determinism_same_seed_same_sequence():
    fam = cached_family(BasisSumRows, 3, 3)
    a = [sample_volume(fam, np.random.default_rng(7)) for _ in range(5)]
    b = [sample_volume(fam, np.random.default_rng(7)) for _ in range(5)]
    assert a == b
    a = [sample_volume(fam, np.random.default_rng(7), "exact") for _ in range(3)]
    b = [sample_volume(fam, np.random.default_rng(7), "exact") for _ in range(3)]
    assert a == b
    # None means seed 0; an int seed (numpy or not) starts a fresh stream
    for precision in ("float64", "exact"):
        draws = {sample_volume(fam, rng, precision)
                 for rng in (None, 0, np.int64(0), np.random.default_rng(0))}
        assert len(draws) == 1
    # a passed Generator is used, not reseeded: its stream continues across draws
    rng, reference = np.random.default_rng(0), np.random.default_rng(0)
    assert [sample_volume(fam, rng) for _ in range(3)] == [
        fam.sample_float(reference) for _ in range(3)
    ]
    assert rng.bit_generator.state == reference.bit_generator.state


def test_exact_mode_matches_enumeration():
    fam = BasisSumRows(2, 3)
    dist = dict(enumerate_distribution(fam))
    rng = np.random.default_rng(31)
    draws = 3000
    counts = Counter(sample_volume(fam, rng, "exact") for _ in range(draws))
    assert all(ss in dist for ss in counts)
    tv = 0.5 * sum(abs(counts.get(ss, 0) / draws - float(p)) for ss, p in dist.items())
    floor = sum(math.sqrt(p) for p in dist.values()) / math.sqrt(2 * math.pi * draws)
    assert tv <= 1.5 * floor + 0.01


def test_exact_mode_item_guard():
    with pytest.raises(SizeLimitError):
        sample_volume(BasisSumRows(8, 7), np.random.default_rng(0), "exact")


def test_item_count_shortcut_matches_n_to_the_k():
    for n, k in itertools.product(range(1, 13), range(3, 26)):
        host = BasisSumRows(n, k)
        for limit in (10**5, 10**6, n**k, n**k - 1):
            assert host._more_items_than(limit) == (n**k > limit)


def test_guards_refuse_item_counts_too_long_to_print():
    # 30^3000 has 4,432 digits, past Python's int-to-str limit: a guard message that
    # formats it raises ValueError in place of SizeLimitError
    host = BasisSumRows(30, 3000)
    with pytest.raises(SizeLimitError):
        sample_volume(host, 0, "exact")
    with pytest.raises(SizeLimitError):
        enumerate_distribution(host)
    # at (30, 10^6) both refuse before anything builds n^k, a 4.9-million-bit integer
    host = BasisSumRows(30, 10**6)
    start = time.perf_counter()
    with pytest.raises(SizeLimitError):
        sample_volume(host, 0, "exact")
    with pytest.raises(SizeLimitError):
        enumerate_distribution(host)
    assert time.perf_counter() - start < 0.5


def test_float_size_guard():
    # (30, 6) is --k-schedule pow:0.5 at n = 30 and (100, 5) is loglog:3 at n = 100;
    # the basis-sum path allocates only its n x n residual operator, so both draw
    from rowsparse.snf import cokernel

    for n, k in ((30, 6), (100, 5)):
        fam = BasisSumRows(n, k)
        subset = sample_volume(fam, np.random.default_rng(0))
        assert len(set(subset)) == n
        mat = [fam.dense_row(fam.item_index(b)) for b in subset]
        assert cokernel(mat).is_finite
    # n^2 = 1.6e7 entries for the residual operator
    with pytest.raises(SizeLimitError):
        sample_volume(BasisSumRows(4000, 3), np.random.default_rng(0))
    # a draw takes n k = 1.05e7 uniforms, though the residual operator has 9e6 entries
    with pytest.raises(SizeLimitError):
        sample_volume(BasisSumRows(3000, 3500), np.random.default_rng(0))
    # (30, 10^7) is refused before anything builds n^k, a 49-million-bit integer
    start = time.perf_counter()
    with pytest.raises(SizeLimitError):
        sample_matrix(30, 10**7)
    assert time.perf_counter() - start < 1.0
    # the generic path still caps its dense Gram (columns^2 = 1.05e7 for both)
    for host in (MatrixRows([[1] * 3240]), BoundaryRows(82, 2)):
        with pytest.raises(SizeLimitError):
            sample_volume(host, np.random.default_rng(0))
    # the largest hosts the campaigns build stay within the guard
    for host in (BasisSumRows(12, 5), BoundaryRows(16, 2)):
        assert len(sample_volume(host, np.random.default_rng(0))) == host.ncols


@pytest.mark.parametrize("n,k", [(30, 300), (10, 1000)])
def test_basis_draw_where_beta_leaves_the_float_range(n, k):
    # beta = k n^(k-1) is no float here (from k = 209 at n = 30); the float state is beta Q
    with pytest.raises(OverflowError):
        float(k * n ** (k - 1))
    mat = sample_matrix(n, k, rng=0)
    assert len({tuple(row) for row in mat}) == n
    assert all(sum(row) == k for row in mat)


def _tuple_counts(b, n):
    x = np.zeros(n)
    for a in b:
        x[a] += 1
    return x


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 4),
    k=st.integers(3, 5),
    seed=st.integers(0, 2**32 - 1),
    picks=st.floats(0.0, 1.0, exclude_max=True),
)
def test_slot_conditionals_multiply_to_residual(n, k, seed, picks):
    # after t picks, the slot-by-slot conditionals of tuple b multiply to r_b / (n - t)
    res = BasisResidual(BasisSumRows(n, k))
    rng = np.random.default_rng(seed)
    t = int(picks * n)
    for _ in range(t):
        res.pick(rng.random(k).tolist())
    for b in itertools.product(range(n), repeat=k):
        slots = iter(b)
        prob = [1.0]

        def choose(weights):
            a = next(slots)
            total = sum(weights)
            prob[0] *= weights[a] / total if total else 0.0
            return a

        res.walk(choose)
        x = _tuple_counts(b, n)
        beta = k * n ** (k - 1)  # res.q holds beta Q
        assert prob[0] == pytest.approx(float(x @ res.q @ x) / beta / (n - t), abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 6), k=st.integers(3, 8), seed=st.integers(0, 2**32 - 1))
def test_walk_counts_the_tuple_norm(n, k, seed):
    # the x^T x that pick checks its leverage with is x . x of the tuple's count vector
    res = BasisResidual(BasisSumRows(n, k))
    b = np.random.default_rng(seed).integers(0, n, size=k).tolist()
    slots = iter(b)
    walked, _, _, sq = res.walk(lambda weights: next(slots))
    assert walked == b
    x = _tuple_counts(b, n)
    assert sq == x @ x


def _per_call_states(fam, uniforms):
    """Per pick of the per-call walk on one draw's uniforms: the tuple, Q', diag Q', Q' 1,
    tr Q' and 1^T Q' 1. None if the draw raises DegenerateHostError."""
    res = BasisResidual(fam)
    k = fam.k
    states = []
    try:
        for s in range(0, len(uniforms), k):
            b = res.pick(uniforms[s : s + k])
            states.append((b, res.q.copy(), res.diag, res.q1, res.trace, res.ones))
    except DegenerateHostError:
        return None
    return states


@pytest.mark.parametrize(
    "n,k,draws", [(3, 3, 200), (4, 3, 200), (3, 5, 200), (5, 4, 200), (12, 5, 20), (30, 3, 10)]
)
def test_batched_walk_state_equals_per_call_state(n, k, draws):
    # bit for bit, after every pick. A uniform of exactly 1.0 puts the target at the top of
    # the cumulative weights, where _choose_slot falls back to the last positive slot, and
    # leaves some draws on a tuple whose residual is float drift; 0.0 takes the first slot
    fam = BasisSumRows(n, k)
    rng = np.random.default_rng([SEED, n, k])
    uniforms = rng.random((draws, n * k))
    uniforms[rng.random(uniforms.shape) < 0.3] = 1.0
    uniforms[rng.random(uniforms.shape) < 0.1] = 0.0
    calls = [_per_call_states(fam, row) for row in uniforms.tolist()]
    good = [i for i, c in enumerate(calls) if c is not None]
    assert good
    batch = BasisResidualBatch(fam, len(good))
    for t in range(n):
        slots = batch.pick(uniforms[good, t * k : (t + 1) * k]) + 1
        for j, i in enumerate(good):
            b, q, diag, q1, trace, ones = calls[i][t]
            assert tuple(slots[j].tolist()) == b
            assert np.array_equal(batch.q[j], q)
            assert batch.diag[j].tolist() == diag and batch.q1[j].tolist() == q1
            assert batch.trace[j] == trace and batch.ones[j] == ones
    if len(good) < draws:  # a batch raises where any one of its draws would
        batch = BasisResidualBatch(fam, draws)
        with pytest.raises(DegenerateHostError):
            for t in range(n):
                batch.pick(uniforms[:, t * k : (t + 1) * k])


@pytest.mark.parametrize("n,k", [(30, 3), (12, 5), (100, 3)])
def test_basis_sampler_mass_stays_on_its_invariant(n, k):
    # sum_x r_x = alpha 1^T Q 1 + beta tr Q must read n - t after t picks; with the kept
    # Q' = beta Q and alpha / beta = (k-1)/n that is ((k-1)/n) 1^T Q' 1 + tr Q'
    fam = BasisSumRows(n, k)
    ratio = (k - 1) / n
    rng = np.random.default_rng([SEED, n, k])
    worst = 0.0
    for _ in range(200):
        res = BasisResidual(fam)
        for t in range(n + 1):
            for mass in (ratio * res.q.sum() + np.trace(res.q), ratio * res.ones + res.trace):
                worst = max(worst, abs(mass - (n - t)))
            # the slot loop's diag Q' and Q' 1 track Q' itself
            lag = np.abs(np.array(res.diag) - np.diag(res.q)).max()
            lag = max(lag, np.abs(np.array(res.q1) - res.q.sum(axis=1)).max())
            worst = max(worst, lag)
            if t < n:
                res.pick(rng.random(k).tolist())  # raises DegenerateHostError instead of restarting
    assert worst < 1e-9


def test_basis_sampler_rejects_a_spent_tuple():
    # once every row direction is picked, any further tuple has no residual left
    for n in (1, 2):
        res = BasisResidual(BasisSumRows(n, 3))
        rng = np.random.default_rng(0)
        for _ in range(n):
            res.pick(rng.random(3).tolist())
        with pytest.raises(DegenerateHostError):
            res.pick(rng.random(3).tolist())


@pytest.mark.parametrize("n,k,draws", [(2, 4, 50_000), (3, 4, 50_000)])
def test_basis_sampler_matches_oracle(n, k, draws):
    fam = cached_family(BasisSumRows, n, k)
    dist = dict(enumerate_distribution(fam))
    rng = np.random.default_rng([SEED, n, k])
    counts = Counter(sample_volume(fam, rng) for _ in range(draws))
    assert all(subset in dist for subset in counts), "zero-probability subset emitted"
    tv = 0.5 * sum(abs(counts.get(ss, 0) / draws - float(p)) for ss, p in dist.items())
    floor = sum(math.sqrt(p) for p in dist.values()) / math.sqrt(2 * math.pi * draws)
    assert tv <= 1.5 * floor
    inclusions = Counter()
    for subset, c in counts.items():
        for b in subset:
            inclusions[b] += c
    for i in range(fam.n_items):
        p = float(fam.leverage_exact(i))
        se = math.sqrt(p * (1.0 - p) / draws)
        assert abs(inclusions[fam.item(i)] / draws - p) <= 4.5 * se


def _full_rank_rows(seed, rows, cols):
    rng = np.random.default_rng(seed)
    while True:
        mat = rng.integers(-3, 4, size=(rows, cols))
        if np.linalg.matrix_rank(mat) == cols:
            return mat.tolist()


def _batch_and_calls(fam, seed, size, precision="float64"):
    """One call on one Generator repeated size times, and size single calls on its twin."""
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    batch = sample_volume(fam, [rng_a] * size, precision)
    calls = [sample_volume(fam, rng_b, precision) for _ in range(size)]
    return batch, calls, rng_a, rng_b


def _list_and_calls(fam, seeds, precision="float64"):
    """One call on a Generator list and one call per Generator, from twin Generators."""
    gens_a = [np.random.default_rng(s) for s in seeds]
    gens_b = [np.random.default_rng(s) for s in seeds]
    batch = sample_volume(fam, gens_a, precision)
    calls = [sample_volume(fam, g, precision) for g in gens_b]
    return batch, calls, gens_a, gens_b


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 5),
    k=st.integers(3, 6),
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 50),
)
def test_batched_basis_draws_equal_successive_calls(n, k, seed, size):
    fam = cached_family(BasisSumRows, n, k)
    batch, calls, rng_a, rng_b = _batch_and_calls(fam, seed, size)
    assert batch == calls
    assert sample_volume(fam, rng_a) == sample_volume(fam, rng_b)


@pytest.mark.parametrize(
    "n,k,size", [(3, 3, 2000), (12, 5, 200), (30, 3, 40), (10, 1000, BATCH_WALK_MIN)]
)
def test_batched_basis_draws_equal_successive_calls_at_campaign_hosts(n, k, size):
    fam = cached_family(BasisSumRows, n, k)
    batch, calls, rng_a, rng_b = _batch_and_calls(fam, [SEED, n, k], size)
    assert batch == calls
    assert all(type(b[0]) is int for subset in batch for b in subset)
    assert rng_a.bit_generator.state == rng_b.bit_generator.state
    # one Generator per draw, as a campaign seeds its trials
    batch, calls, gens_a, gens_b = _list_and_calls(fam, [[SEED, i] for i in range(size)])
    assert batch == calls
    assert [g.bit_generator.state for g in gens_a] == [g.bit_generator.state for g in gens_b]


@pytest.mark.parametrize(
    "host,precision",
    [
        (BoundaryRows(8, 2), "float64"),
        (MatrixRows(_full_rank_rows(5, 40, 8)), "float64"),
        (BasisSumRows(2, 3), "exact"),
    ],
    ids=["boundary-8-2", "matrix-40x8", "basis-2-3-exact"],
)
def test_size_equals_successive_calls_on_other_hosts_and_precisions(host, precision):
    # 6 draws loop the per-call walk; 10 Generators are walked together, except in exact mode
    batch, calls, rng_a, rng_b = _batch_and_calls(host, 11, 6, precision)
    assert batch == calls
    assert rng_a.bit_generator.state == rng_b.bit_generator.state
    batch, calls, gens_a, gens_b = _list_and_calls(host, range(10), precision)
    assert batch == calls
    assert [g.bit_generator.state for g in gens_a] == [g.bit_generator.state for g in gens_b]


def test_size_is_checked_and_guarded(monkeypatch):
    rng = np.random.default_rng(0)
    with pytest.raises(InvalidInputError):
        sample_volume(BasisSumRows(3, 3), [rng] * 2, "float32")
    # the float guard counts one draw: n^2 = 1.6e7 entries of Q' at (4000, 3) and n k = 2e7
    # uniforms at (10, 2e6) are refused for a single draw and for a list
    start = time.perf_counter()
    for host in (BasisSumRows(4000, 3), BasisSumRows(10, 2 * 10**6)):
        for rngs in (rng, [rng] * 2):
            with pytest.raises(SizeLimitError):
                sample_volume(host, rngs)
    assert time.perf_counter() - start < 0.5  # refused before anything is allocated
    # a list past FLOAT_ENTRY_LIMIT // entries per draw (12,000 draws at (30, 3)) used to be
    # refused; it is walked in slices of at most walk_size() draws. Scaled down to stay
    # cheap: 50 draws of 100 entries at (10, 3) against a 1,000-entry cap and 20-draw walks
    monkeypatch.setattr(sampling, "FLOAT_ENTRY_LIMIT", 1000)
    monkeypatch.setattr(BasisSumRows, "WALK_ENTRIES", 20 * 100)
    walks = []

    class Recorded(BasisResidualBatch):
        def __init__(self, family, draws):
            walks.append(draws)
            super().__init__(family, draws)

    monkeypatch.setattr(sampling, "BasisResidualBatch", Recorded)
    fam = BasisSumRows(10, 3)
    batch, calls, rng_a, rng_b = _batch_and_calls(fam, 4, 50)
    assert batch == calls
    assert rng_a.bit_generator.state == rng_b.bit_generator.state
    assert fam.walk_size() == 20 and walks == [16, 17, 17]  # even slices


class _ScaledStartRows(BasisSumRows):
    """A basis-sum host whose draws start from scale x (I - gamma J)."""

    def __init__(self, n, k, scale):
        super().__init__(n, k)
        q, diag, q1, trace, ones, shift = self._residual_start()
        self._start = (
            scale * q, [scale * d for d in diag], [scale * o for o in q1],
            scale * trace, scale * ones, shift,
        )


@pytest.mark.parametrize("scale", [0.0, 1e-12], ids=["no-mass", "no-residual"])
def test_batched_draw_raises_where_a_call_would(scale):
    # scale 0 leaves no slot any weight; scale 1e-12 leaves each picked tuple a residual
    # far below RESIDUAL_TOLERANCE of its leverage
    fam = _ScaledStartRows(3, 3, scale)
    with pytest.raises(DegenerateHostError):
        sample_volume(fam, 0)
    with pytest.raises(DegenerateHostError):
        sample_volume(fam, [np.random.default_rng(0)] * BATCH_WALK_MIN)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 5),
    k=st.integers(3, 6),
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=50),
)
def test_generator_list_draws_equal_one_call_per_generator(n, k, seeds):
    fam = cached_family(BasisSumRows, n, k)
    batch, calls, gens_a, gens_b = _list_and_calls(fam, seeds)
    assert batch == calls
    assert [g.bit_generator.state for g in gens_a] == [g.bit_generator.state for g in gens_b]


@pytest.mark.parametrize("size", [3, BATCH_WALK_MIN, 40])
def test_a_repeated_generator_equals_size(size):
    fam = cached_family(BasisSumRows, 4, 3)
    rng_a, rng_b = np.random.default_rng(8), np.random.default_rng(8)
    assert sample_volume(fam, [rng_a] * size) == [sample_volume(fam, rng_b) for _ in range(size)]
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


def test_generator_list_is_checked():
    fam = BasisSumRows(3, 3)
    assert sample_volume(fam, [7, 3]) == sample_volume(fam, np.random.default_rng([7, 3]))
    for bad in ([], (), [np.random.default_rng(1), 2], [None, np.random.default_rng(1)]):
        with pytest.raises(InvalidInputError):
            sample_volume(fam, bad)


def test_few_draws_loop_the_per_call_walk(monkeypatch):
    # below BATCH_WALK_MIN draws the per-call walk is the faster one
    fam = BasisSumRows(3, 3)
    want = sample_volume(fam, [np.random.default_rng(5)] * (BATCH_WALK_MIN - 1))
    monkeypatch.setattr(sampling, "BasisResidualBatch", None)
    assert sample_volume(fam, [np.random.default_rng(5)] * (BATCH_WALK_MIN - 1)) == want


@pytest.mark.parametrize(
    "host,draws",
    [
        (BoundaryRows(8, 2), 200),
        (BoundaryRows(16, 2), 40),
        (BoundaryRows(20, 2), 3),
        (MatrixRows(_full_rank_rows(5, 40, 8)), 200),
    ],
    ids=["boundary-8-2", "boundary-16-2", "boundary-20-2", "matrix-40x8"],
)
def test_generic_sampler_mass_stays_on_its_invariant(host, draws):
    # sum_x r_x, tracked by downdates and clipping, and sum_x x^T Q x = tr(Gram Q) read m - t
    m = host.ncols
    gram = np.array(host.gram(), dtype=np.float64)
    rng = np.random.default_rng([SEED, m])
    worst = 0.0
    for _ in range(draws):
        res = RowResidual(host)
        for t in range(m + 1):
            for mass in (res.r.sum(), (gram * res.q).sum()):
                worst = max(worst, abs(mass - (m - t)))
            if t < m:
                res.pick(rng.random())  # raises DegenerateHostError instead of restarting
        with pytest.raises(DegenerateHostError):
            res.pick(rng.random())  # every row is spent
    assert worst < 1e-9


def _row_walk_states(host, uniforms):
    """(row, r, G so far) after each pick of a RowResidual fed uniforms; None if it raises."""
    res = RowResidual(host)
    states = []
    try:
        for u in uniforms:
            j = res.pick(u)
            states.append((j, res.r.copy(), res.g[: res.t].copy()))
    except DegenerateHostError:
        return None
    return states


@pytest.mark.parametrize(
    "host,draws",
    [
        (BoundaryRows(5, 2), 60),
        (BoundaryRows(7, 3), 30),
        (BoundaryRows(9, 2), 20),
        (MatrixRows(_full_rank_rows(5, 40, 8)), 30),
        (MatrixRows(_full_rank_rows(6, 12, 12)), 20),
    ],
    ids=["boundary-5-2", "boundary-7-3", "boundary-9-2", "matrix-40x8", "matrix-12x12"],
)
def test_row_walk_state_equals_per_call_state(host, draws):
    # r and G bit for bit, after every pick. A uniform of exactly 1.0 caps the pick at the last row,
    # which may be spent, and 0.0 takes the first row with mass
    m = host.ncols
    rng = np.random.default_rng([SEED, m, draws])
    uniforms = rng.random((draws, m))
    uniforms[rng.random(uniforms.shape) < 0.05] = 1.0
    uniforms[rng.random(uniforms.shape) < 0.05] = 0.0
    calls = [_row_walk_states(host, row) for row in uniforms.tolist()]
    good = [i for i, c in enumerate(calls) if c is not None]
    assert good
    walk = RowResidualBatch(host, len(good))
    for t in range(m):
        rows = walk.pick(uniforms[good, t])
        for b, i in enumerate(good):
            j, r, g = calls[i][t]
            assert rows[b] == j
            assert np.array_equal(walk.r[b], r)
            assert np.array_equal(walk.g[b, : t + 1], g)  # so Q = W - G^T G is equal too
    if len(good) < draws:  # a walk raises where any one of its draws would
        walk = RowResidualBatch(host, draws)
        with pytest.raises(DegenerateHostError):
            for t in range(m):
                walk.pick(uniforms[:, t])


@pytest.mark.parametrize(
    "host,draws",
    [(BoundaryRows(8, 2), 50), (BoundaryRows(16, 2), 12), (MatrixRows(_full_rank_rows(5, 40, 8)), 50)],
    ids=["boundary-8-2", "boundary-16-2", "matrix-40x8"],
)
def test_row_walk_mass_stays_on_its_invariant(host, draws):
    m = host.ncols
    gram = np.array(host.gram(), dtype=np.float64)
    rng = np.random.default_rng([SEED, m])
    walk = RowResidualBatch(host, draws)
    worst = 0.0
    for t in range(m + 1):
        worst = max(worst, np.abs(walk.r.sum(axis=1) - (m - t)).max())
        for g in walk.g[:, :t]:
            worst = max(worst, abs((gram * (walk.w - g.T @ g)).sum() - (m - t)))
        if t < m:
            walk.pick(rng.random(draws))
    assert worst < 1e-9
    with pytest.raises(DegenerateHostError):
        walk.pick(rng.random(draws))  # every row is spent


@st.composite
def _generic_hosts(draw):
    """A boundary host at n = 4-9, or an explicit full-rank integer host."""
    if draw(st.booleans()):
        n = draw(st.integers(4, 9))
        return cached_family(BoundaryRows, n, draw(st.integers(1, min(3, n - 2))))
    m = draw(st.integers(1, 6))
    row = st.lists(st.integers(-3, 3), min_size=m, max_size=m)
    rows = draw(st.lists(row, min_size=m, max_size=m + 8))
    assume(int_det(MatrixRows(rows).gram()) != 0)
    return MatrixRows(rows)


@settings(max_examples=40, deadline=None)
@given(
    host=_generic_hosts(),
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=40),
    cap=st.integers(1, 30),
    repeat=st.booleans(),
)
def test_generic_list_draws_equal_one_call_per_generator(host, seeds, cap, repeat):
    # list sizes straddle BATCH_WALK_MIN and a slice cap of `cap` draws
    per_draw = max(host.n_items * host.row_width(), host.ncols**2)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RowFamily, "WALK_ENTRIES", cap * per_draw)
        assert host.walk_size() == cap
        if repeat:
            gens_a = [np.random.default_rng(seeds[0])] * len(seeds)
            gens_b = [np.random.default_rng(seeds[0])] * len(seeds)
        else:
            gens_a = [np.random.default_rng(s) for s in seeds]
            gens_b = [np.random.default_rng(s) for s in seeds]
        try:
            calls = [sample_volume(host, g) for g in gens_b]
        except DegenerateHostError:
            with pytest.raises(DegenerateHostError):
                sample_volume(host, gens_a)
            return
        assert sample_volume(host, gens_a) == calls
    assert [g.bit_generator.state for g in gens_a] == [g.bit_generator.state for g in gens_b]


class _ScaledBoundaryRows(BoundaryRows):
    """A boundary host whose draws start from scale x W, against leverages (r+1)/n."""

    def __init__(self, n, scale):
        super().__init__(n, 2)
        self._winv = scale * BoundaryRows._gram_inv_float(self)


@pytest.mark.parametrize("scale", [0.0, 1e-12], ids=["no-mass", "no-residual"])
def test_row_walk_raises_where_a_call_would(scale):
    fam = _ScaledBoundaryRows(6, scale)
    with pytest.raises(DegenerateHostError) as call:
        sample_volume(fam, 0)
    with pytest.raises(DegenerateHostError) as walk:
        sample_volume(fam, [np.random.default_rng(0)] * BATCH_WALK_MIN)
    assert str(walk.value) == str(call.value)


def test_a_long_list_admits_every_host_a_single_draw_admits(monkeypatch):
    # the float guard counts one draw, and a list walks in slices of at most WALK_ENTRIES
    # entries: 1,001 draws on 5,000 rows of width 2 would be a 1.0e7-entry batch
    walks = []

    class Recorded(RowResidualBatch):
        def __init__(self, family, draws):
            walks.append(draws)
            super().__init__(family, draws)

    monkeypatch.setattr(sampling, "RowResidualBatch", Recorded)
    rows = np.random.default_rng(3).integers(-3, 4, size=(5000, 2)).tolist()
    host = MatrixRows(rows)
    per_draw = 5000 * 2
    batch, calls, _, _ = _list_and_calls(host, range(1001))
    assert batch == calls
    assert sum(walks) == 1001 and max(walks) == host.walk_size()
    assert max(walks) * per_draw <= RowFamily.WALK_ENTRIES
    assert max(walks) - min(walks) <= 1  # even slices
    # a slice cap below BATCH_WALK_MIN draws loops: 3 draws on 40,000 rows
    walks.clear()
    host = MatrixRows(rows * 8)
    batch, calls, _, _ = _list_and_calls(host, range(12))
    assert batch == calls and walks == []


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 4).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(-3, 3), min_size=m, max_size=m), min_size=m, max_size=m + 3
        )
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_float_downdate_tracks_exact_residuals(rows, seed):
    # after picks S, row x keeps K(x,x) - K(x,S) K(S,S)^{-1} K(S,x), the exact conditional kernel
    host = MatrixRows(rows)
    m = host.ncols
    assume(int_det(host.gram()) != 0)
    w = frac_inverse(host.gram())
    kern = [
        [sum(x[a] * w[a][c] * y[c] for a in range(m) for c in range(m)) for y in rows]
        for x in rows
    ]
    res = RowResidual(host)
    rng = np.random.default_rng(seed)
    picked = []
    for t in range(m + 1):
        inv = frac_inverse([[kern[i][j] for j in picked] for i in picked]) if picked else []
        for i in range(len(rows)):
            exact = kern[i][i] - sum(
                kern[i][a] * inv[u][v] * kern[b][i]
                for u, a in enumerate(picked)
                for v, b in enumerate(picked)
            )
            assert res.r[i] == pytest.approx(float(exact), abs=1e-9)
        if t < m:
            picked.append(res.pick(rng.random()))


@pytest.mark.parametrize("n,r", [(5, 1), (6, 2), (7, 3)])
def test_boundary_closed_forms_are_exact(n, r):
    # W = ((n+1) I - Gram) / n and K(x, x) = (r+1)/n, against the generic inverse
    host = BoundaryRows(n, r)
    assert host._gram_inv_exact() == frac_inverse(host.gram())
    for i in range(host.n_items):
        assert RowFamily.leverage_exact(host, i) == host.leverage_exact(i) == Fraction(r + 1, n)


@pytest.mark.parametrize("n,r", [(16, 2), (10, 3), (9, 4)])
def test_boundary_closed_forms_in_float(n, r):
    host = BoundaryRows(n, r)
    gram = np.array(host.gram(), dtype=np.float64)
    w = host._gram_inv_float()
    assert np.abs(w @ gram - np.eye(host.ncols)).max() <= 1e-14
    assert np.abs(w - np.linalg.inv(gram)).max() <= 1e-14
    assert np.abs(RowFamily.leverage_float(host) - host.leverage_float()).max() <= 1e-14
    assert np.all(host.leverage_float() == (r + 1) / n)


def test_item_index_rejects_unknown_identifiers():
    host = MatrixRows([[1, 0], [0, 1], [1, 1]])
    for bad in (-1, 3, 1.0, "0"):
        with pytest.raises(InvalidInputError):
            host.item_index(bad)
    # row -1 used to alias row 2 and report P = 1/3
    with pytest.raises(InvalidInputError):
        _subset_probability(host, (-1, 0))
    assert _subset_probability(host, (2, 0)) == Fraction(1, 3)
    boundary = BoundaryRows(5, 2)
    for bad in ((1, 2, 6), (1, 2), (3, 2, 1), 7):
        with pytest.raises(InvalidInputError):
            boundary.item_index(bad)
    with pytest.raises(InvalidInputError):
        _subset_probability(boundary, ((1, 2, 3), (1, 2, 4), (1, 2, 9)))
    # tuple entry 1.5 used to alias (2, 1, 1) and report its marginal 1/6
    with pytest.raises(InvalidInputError):
        BasisSumRows(2, 3).item_index((1.5, 1, 1))
    assert BasisSumRows(2, 3).item_index((np.int64(2), 1, 1)) == 4


@pytest.mark.parametrize(
    "call",
    [BasisSumRows(2, 3).item_index, BasisSumRows(2, 3).item_row, lambda b: row_vector(b, 3)],
    ids=["item_index", "item_row", "row_vector"],
)
def test_a_non_tuple_identifier_is_refused(call):
    # an int ended in TypeError: object of type 'int' has no len()
    for bad in (-1, 7, None, 1.5):
        with pytest.raises(InvalidInputError):
            call(bad)


@pytest.mark.parametrize(
    "host", [BasisSumRows(3, 3), BasisSumRows(2, 5), BoundaryRows(6, 2), MatrixRows([[1, 0], [2, 3]])],
    ids=["basis-3-3", "basis-2-5", "boundary-6-2", "matrix-2x2"],
)
def test_item_row_is_the_sparse_row_of_the_item(host):
    for i in range(host.n_items):
        assert host.item_row(host.item(i)) == host.sparse_row(i)
    for bad in ((1, 1), (0, 1, 1), (1.5, 1, 1), (1, 1, 1, 1, 1, 1), (9, 9, 9)):
        with pytest.raises(InvalidInputError):
            host.item_row(bad)


def test_cached_family_shares_hosts():
    assert cached_family(BasisSumRows, 3, 3) is cached_family(BasisSumRows, 3, 3)
    assert cached_family(BoundaryRows, 5, 2) is not cached_family(BoundaryRows, 6, 2)


def test_generic_gram_matches_closed_form():
    from rowsparse.structured import gram_closed_form

    for n, k in ((2, 3), (3, 3), (3, 4)):
        assert RowFamily.gram(BasisSumRows(n, k)) == gram_closed_form(n, k)


def test_degenerate_host_raises():
    # the second Gram is singular, yet LU inverts it in float without raising
    for rows in ([[1, 0], [2, 0], [3, 0]], [[1, -2, 1], [-1, 1, 1], [3, 2, -13]]):
        host = MatrixRows(rows)
        with pytest.raises(DegenerateHostError):
            sample_volume(host, np.random.default_rng(0))
        with pytest.raises(DegenerateHostError):
            sample_volume(host, np.random.default_rng(0), "exact")


def test_sample_matrix_shape_and_row_sums():
    mat = sample_matrix(6, 3, rng=4)
    assert len(mat) == 6 and all(len(r) == 6 for r in mat)
    assert all(sum(r) == 3 for r in mat)
    assert sample_matrix(1, 5, rng=0) == [[5]]
    # the dense rows of the tuples sample_volume draws from the same seed
    for n in (6, 30):
        fam = cached_family(BasisSumRows, n, 3)
        subset = sample_volume(fam, 4)
        assert sample_matrix(n, 3, rng=4) == [fam.dense_row(fam.item_index(b)) for b in subset]


def test_hypertree_n4():
    faces, mat = sample_hypertree(4, np.random.default_rng(2))
    assert len(faces) == 3
    assert all(len(f) == 3 for f in faces)
    assert len(mat) == 3 and len(mat[0]) == 3
    assert all(x in (-1, 0, 1) for row in mat for x in row)
    with pytest.raises(InvalidInputError):
        sample_hypertree(3, np.random.default_rng(0))


def test_hypertree_n5_distribution():
    fam = cached_family(BoundaryRows, 5, 2)
    dist = dict(enumerate_distribution(fam))
    # 125 hypertrees on 5 vertices, all torsion free
    assert len(dist) == 125
    assert all(p == Fraction(1, 125) for p in dist.values())
    rng = np.random.default_rng(17)
    draws = 20_000
    counts = Counter()
    for _ in range(draws // DRAW_BATCH):  # the subsets of 20,000 sample_hypertree(5, rng) calls
        counts.update(sample_volume(fam, [rng] * DRAW_BATCH))
    assert all(ss in dist for ss in counts)
    tv = 0.5 * sum(abs(counts.get(ss, 0) / draws - float(p)) for ss, p in dist.items())
    floor = sum(math.sqrt(p) for p in dist.values()) / math.sqrt(2 * math.pi * draws)
    assert tv <= 1.5 * floor


def test_boundary_gram_det_matches_identity():
    # Cauchy-Binet: sum of squared determinants over all subsets
    assert BoundaryRows(4, 2).gram_det() == 4
    assert BoundaryRows(5, 2).gram_det() == 125


def test_hypertree_probability_is_squared_torsion_order():
    from rowsparse.snf import cokernel

    fam = cached_family(BoundaryRows, 6, 2)
    rng = np.random.default_rng(23)
    for _ in range(10):
        faces, mat = sample_hypertree(6, rng)
        cok = cokernel(mat)
        assert cok.free_rank == 0
        assert _subset_probability(fam, faces) == Fraction(math.prod(cok.divisors) ** 2, 6**6)


def test_exact_subset_probability_roundtrip():
    fam = BasisSumRows(2, 3)
    assert _subset_probability(fam, ((1, 1, 1), (2, 2, 2))) == Fraction(3, 16)
    with pytest.raises(InvalidInputError):  # one row of two columns: no square submatrix
        _subset_probability(fam, ((1, 1, 1),))


def _stacked_dense_rows(host, subset):
    return np.array([host.dense_row(host.item_index(b)) for b in subset], dtype=np.int64)


@pytest.mark.parametrize("host,draws", [
    (BasisSumRows(3, 3), 6), (BasisSumRows(12, 5), 4), (BasisSumRows(30, 3), 4),
    (BasisSumRows(10, 1000), 1), (BoundaryRows(8, 2), 4), (BoundaryRows(16, 2), 2),
    (MatrixRows(_full_rank_rows(5, 40, 8)), 4),
], ids=["basis-3-3", "basis-12-5", "basis-30-3", "basis-10-1000", "boundary-8", "boundary-16",
        "explicit-5x40"])
def test_subset_matrix_stacks_the_dense_rows(host, draws):
    for seed in range(draws):
        subset = sample_volume(host, np.random.default_rng(seed))
        mat = host.subset_matrix(subset)
        assert mat.dtype == np.int64 and mat.shape == (len(subset), host.ncols)
        assert np.array_equal(mat, _stacked_dense_rows(host, subset))
        # the rows follow the subset's order, not the host's
        assert np.array_equal(host.subset_matrix(subset[::-1]), mat[::-1])


@pytest.mark.parametrize("host,good,bad", [
    (BasisSumRows(3, 3), (1, 2, 3), (1, 2)),  # ragged
    (BasisSumRows(3, 3), (1, 2, 3), (1, 2, 3, 1)),  # weight != k, ragged
    (BasisSumRows(3, 4), (1, 2, 3, 1), (1, 2, 3)),  # weight != k, ragged
    (BasisSumRows(3, 3), (1, 2, 3), (0, 1, 1)),
    (BasisSumRows(3, 3), (1, 2, 3), (4, 1, 1)),  # entry n + 1
    (BasisSumRows(3, 3), (1, 2, 3), (1.0, 1, 1)),
    (BasisSumRows(3, 3), (1, 2, 3), (1.5, 1, 1)),
    (BasisSumRows(3, 3), (1, 2, 3), ("1", 1, 1)),
    (BasisSumRows(3, 3), (1, 2, 3), "abc"),
    (BasisSumRows(3, 3), (1, 2, 3), 7),
    (BoundaryRows(5, 2), (1, 2, 3), (1, 2, 6)),  # an unknown face
    (BoundaryRows(5, 2), (1, 2, 3), (3, 2, 1)),
    (MatrixRows([[1, 0], [0, 1], [1, 1]]), 0, 3),
])
def test_subset_matrix_refuses_what_item_row_refuses(host, good, bad):
    with pytest.raises(InvalidInputError) as expected:
        host.item_row(bad)
    for subset in ([bad], [good, bad], [bad, good]):
        with pytest.raises(InvalidInputError) as refused:
            host.subset_matrix(subset)
        assert str(refused.value) == str(expected.value)


def test_subset_matrix_takes_list_identifiers_and_empty_subsets():
    basis, boundary = BasisSumRows(3, 3), BoundaryRows(5, 2)
    assert np.array_equal(basis.subset_matrix([[1, 2, 2], (3, 3, 1)]),
                          [[1, 2, 0], [1, 0, 2]])
    assert np.array_equal(basis.subset_matrix(np.array([[3, 3, 3]], dtype=np.uint8)), [[0, 0, 3]])
    assert np.array_equal(boundary.subset_matrix([[1, 2, 3]]), boundary.subset_matrix([(1, 2, 3)]))
    for host in (basis, boundary, MatrixRows([[1, 0], [0, 1]])):
        empty = host.subset_matrix([])
        assert empty.dtype == np.int64 and empty.shape == (0, host.ncols)


def test_sample_hypertree_returns_lists_of_python_ints():
    faces, mat = sample_hypertree(8, np.random.default_rng(2))
    assert all(type(row) is list and all(type(x) is int for x in row) for row in mat)
    host = cached_family(BoundaryRows, 8, 2)
    assert mat == [host.dense_row(host.item_index(f)) for f in faces]


def test_subset_matrix_refuses_an_entry_float64_cannot_hold():
    # the explicit host's padded arrays are float64, exact only below 2^53
    assert MatrixRows([[2**53 - 1, 1], [0, 1]]).subset_matrix([0]).tolist() == [[2**53 - 1, 1]]
    with pytest.raises(SizeLimitError):
        MatrixRows([[2**53, 1], [0, 1]]).subset_matrix([0])
