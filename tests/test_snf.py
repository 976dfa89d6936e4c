import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rowsparse import snf
from rowsparse.errors import InvalidInputError, SizeLimitError
from rowsparse.intlinalg import int_det
from rowsparse.sampling import BasisSumRows, cached_family, sample_hypertree, sample_matrix, sample_volume
from rowsparse.snf import CokernelClass, cokernel, rank_mod_p, sylow


def random_matrix(rng, rows, cols, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def transpose(mat):
    return [list(col) for col in zip(*mat)]


def random_unimodular_transform(rng, mat):
    a = [row[:] for row in mat]
    rows, cols = len(a), len(a[0])
    for _ in range(30):
        op = rng.randrange(4)
        if op == 0:
            i, j = rng.randrange(rows), rng.randrange(rows)
            if i != j:
                c = rng.randint(-2, 2)
                a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        elif op == 1:
            i, j = rng.randrange(cols), rng.randrange(cols)
            if i != j:
                c = rng.randint(-2, 2)
                for row in a:
                    row[i] += c * row[j]
        elif op == 2:
            i, j = rng.randrange(rows), rng.randrange(rows)
            a[i], a[j] = a[j], a[i]
        else:
            i = rng.randrange(cols)
            for row in a:
                row[i] = -row[i]
    return a


def dense_cokernel(mat):
    """Reference: the dense core routine run on the whole matrix, with no sparse phase."""
    diag = snf._diagonalize(mat)
    return CokernelClass(free_rank=len(mat) - len(diag), divisors=tuple(d for d in diag if d > 1))


def rank_mod_p_reference(mat, p):
    """(rank, corank) by Gaussian elimination over F_p."""
    a = [[x % p for x in row] for row in mat]
    ncols = len(a[0]) if a else 0
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][col], -1, p)
        for i in range(rank + 1, len(a)):
            f = a[i][col] * inv % p
            if f:
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank, ncols - rank


UNIT_SPARSE = st.sampled_from([0, 0, 0, 1, -1, 2])
LARGE = st.integers(-10**6, 10**6)


@st.composite
def integer_matrices(draw):
    """Square or rectangular (zero columns allowed), often singular, in four entry regimes."""
    nrows, ncols = draw(st.integers(1, 7)), draw(st.integers(0, 7))
    entries = draw(st.sampled_from([st.integers(-3, 3), LARGE, UNIT_SPARSE, st.one_of(UNIT_SPARSE, LARGE)]))
    mat = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
    rank = draw(st.integers(0, min(nrows, ncols)))
    if rank < min(nrows, ncols):
        # rank-deficient: every row a small combination of the first `rank` rows
        mix = draw(st.lists(st.lists(st.integers(-2, 2), min_size=rank, max_size=rank),
                            min_size=nrows, max_size=nrows))
        mat = [[sum(c * mat[t][j] for t, c in enumerate(m)) for j in range(ncols)] for m in mix]
    return mat


@settings(max_examples=300, deadline=None)
@given(mat=integer_matrices())
def test_cokernel_and_rank_match_dense_references(mat):
    assert cokernel(mat) == dense_cokernel(mat)
    for p in (2, 3, 5, 7):
        assert rank_mod_p(mat, p) == rank_mod_p_reference(mat, p)


@pytest.mark.parametrize("model,n,draws", [("bn_matrix", 30, 10), ("hypertree", 16, 10), ("hypertree", 20, 4)],
                         ids=["bn_matrix", "hypertree", "hypertree-20"])
def test_cokernel_matches_dense_reference_on_samples(model, n, draws):
    # (30, 3) leaves a core of 2-4 rows, hypertree n = 16 one of 0-1 and n = 20 one of 0-2:
    # both phases run, and most hypertree pivots come off the singleton worklist
    for seed in range(draws):
        rng = np.random.default_rng(seed)
        mat = sample_matrix(n, 3, rng) if model == "bn_matrix" else sample_hypertree(n, rng)[1]
        assert cokernel(mat) == dense_cokernel(mat)


@pytest.mark.parametrize("k", [5, 7])
def test_cokernel_at_n100(k):
    # cores of 18 and 30 rows; the dense routine alone took about 66 s per (100, 7) matrix
    mat = sample_matrix(100, k, rng=k)
    cok = cokernel(mat)
    assert cok.is_finite and math.prod(cok.divisors) == abs(int_det(mat))
    assert rank_mod_p_reference(mat, 2)[1] == sum(1 for d in cok.divisors if d % 2 == 0)


def core_of(mat):
    """The dense core the sparse phase leaves of mat, as cokernel builds it."""
    rows, ncols = snf._sparse_rows(mat)
    snf._eliminate_unit_pivots(rows, ncols)
    cols = sorted({j for row in rows.values() for j in row})
    return [[row.get(j, 0) for j in cols] for row in rows.values() if row]


@pytest.mark.parametrize("k,seeds", [(5, range(3)), (7, (7,))])
def test_modular_core_equals_the_plain_loop_on_sampled_cores(k, seeds):
    # cores of 18-22 rows at (100, 5) and 30 at (100, 7), each reduced both ways
    for seed in seeds:
        core = core_of(sample_matrix(100, k, rng=seed))
        det = abs(int_det(core))
        assert det and len(core) > 10
        assert snf._diagonalize(core, det) == snf._diagonalize(core)


@pytest.mark.parametrize("n,k,draws", [(6, 4, 20), (8, 5, 20), (12, 6, 10)])
def test_micro_samples_take_the_modular_core(monkeypatch, n, k, draws):
    # every sampled core is square and nonsingular, so it is reduced mod its |det|
    sizes = []
    for seed in range(draws):
        mat = sample_matrix(n, k, rng=seed)
        calls = []
        with monkeypatch.context() as m:
            m.setattr(snf, "_diagonalize", lambda core, modulus=0, _plain=snf._diagonalize:
                      calls.append((core, modulus)) or _plain(core, modulus))
            cok = cokernel(mat)
        [(core, modulus)] = calls
        assert modulus == abs(int_det(core)) > 0
        sizes.append(len(core))
        assert cok == dense_cokernel(mat)
        assert math.prod(cok.divisors) == abs(int_det(mat))
    assert max(sizes) >= 3


@pytest.mark.parametrize("seed", [1000, 1001, 1002, 1003])
def test_growing_k_divisors_multiply_to_the_determinant(seed):
    # trial 0 of ExperimentConfig(n=100, k=10, seed=seed), drawn as run_trial draws it:
    # cores of 38-39 rows with 101-105-bit determinants
    mat = sample_matrix(100, 10, rng=np.random.default_rng([seed, 0]))
    cok = cokernel(mat)
    assert cok.is_finite and math.prod(cok.divisors) == abs(int_det(mat))
    for a, b in zip(cok.divisors, cok.divisors[1:]):
        assert b % a == 0


def test_growing_k_heavy_core_is_fast_and_keeps_the_plain_divisors():
    # seed 1001's core took the plain loop 45-64 s; these are the divisors it gave
    family = cached_family(BasisSumRows, 100, 10)
    subset = sample_volume(family, np.random.default_rng([1001, 0]))
    sparse = [family.sparse_row(family.item_index(b)) for b in subset]
    start = time.perf_counter()
    cok = cokernel(sparse, family.ncols)
    assert time.perf_counter() - start < 1.0
    assert cok == CokernelClass(0, (4, 1926941919376102256888864059160))


@pytest.mark.parametrize("shape", ["singular", "non-square"])
def test_a_core_without_modulus_over_the_limit_raises_before_reducing(monkeypatch, shape):
    # no +-1 entry, so the whole matrix is the core; the plain loop must not start on it
    rng = random.Random(3)
    size = snf.PLAIN_CORE_LIMIT + 1
    mat = random_matrix(rng, size, size + (shape == "non-square"), lo=2, hi=9)
    if shape == "singular":
        mat[-1] = [a + b for a, b in zip(mat[0], mat[1])]
    monkeypatch.setattr(snf, "_diagonalize", lambda *args: pytest.fail("the core was reduced"))
    start = time.perf_counter()
    with pytest.raises(SizeLimitError):
        cokernel(mat)
    assert time.perf_counter() - start < 0.5


def test_a_thin_core_without_modulus_is_reduced():
    # a thin non-square core stays under the limit however many rows it has
    tall = [[2 * i + 2] for i in range(3 * snf.PLAIN_CORE_LIMIT)]
    assert cokernel(tall) == CokernelClass(3 * snf.PLAIN_CORE_LIMIT - 1, (2,))


@pytest.mark.parametrize("model", ["bn_matrix", "hypertree"])
def test_sparse_rows_give_the_dense_cokernel(model):
    for seed in range(5):
        rng = np.random.default_rng(seed)
        mat = sample_matrix(30, 3, rng) if model == "bn_matrix" else sample_hypertree(16, rng)[1]
        sparse = [[(j, v) for j, v in enumerate(row) if v] for row in mat]
        assert cokernel(sparse, len(mat[0])) == cokernel(mat)
    # zero entries may be listed, and an empty row is a free generator
    assert cokernel([[(0, 2), (1, 0)], []], 3) == CokernelClass(1, (2,))


@pytest.mark.parametrize("rows,ncols", [
    ([[(0, 1), (0, 2)]], 2),  # repeated column
    ([[(2, 1)]], 2),  # column past ncols
    ([[(-1, 1)]], 2),  # negative column
    ([[(0, 1.5)]], 2),  # non-integer entry
    ([[(0.0, 1)]], 2),  # non-integer column
    ([[1, 2]], 2),  # a dense row
    ([[(0, 1, 2)]], 2),  # not a pair
    ([((j, 1) for j in range(2))], 2),  # a row with no length
    ([[(0, 1)]], -1),
    ([[(0, 1)]], 2.0),
])
def test_sparse_rows_are_checked(rows, ncols):
    with pytest.raises(InvalidInputError):
        cokernel(rows, ncols)


def pivot_sources(monkeypatch, mat):
    """Run cokernel(mat) and return the source of each unit pivot: 'w' worklist, 's' scan."""
    sources = []
    for name, tag in (("_free_pivot", "w"), ("_unit_pivot", "s")):
        def traced(*args, _find=getattr(snf, name), _tag=tag):
            pivot = _find(*args)
            if pivot is not None:
                sources.append(_tag)
            return pivot
        monkeypatch.setattr(snf, name, traced)
    cokernel(mat)
    monkeypatch.undo()
    return "".join(sources)


def assert_matches_references(mat):
    assert cokernel(mat) == dense_cokernel(mat)
    for p in (2, 3):
        assert rank_mod_p(mat, p) == rank_mod_p_reference(mat, p)


def test_scan_pivots_feed_the_worklist(monkeypatch):
    # hypertree n = 8, seed 1: the worklist runs dry, the scan takes pivots of positive cost,
    # and the singletons their Schur updates leave come off the worklist again
    mat = sample_hypertree(8, np.random.default_rng(1))[1]
    sources = pivot_sources(monkeypatch, mat)
    assert "ws" in sources and "sw" in sources
    assert_matches_references(mat)


@pytest.mark.parametrize("model", ["bn_matrix", "hypertree"])
def test_scan_never_finds_a_cost_free_pivot(monkeypatch, model):
    # every +-1 left alone in its row or column reaches the worklist, so the scan sees positive costs
    costs = []

    def traced(live, cols, _scan=snf._unit_pivot):
        pivot = _scan(live, cols)
        if pivot is not None:
            i, j = pivot
            costs.append((len(live[i]) - 1) * (len(cols[j]) - 1))
        return pivot

    monkeypatch.setattr(snf, "_unit_pivot", traced)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        mat = sample_matrix(30, 3, rng) if model == "bn_matrix" else sample_hypertree(16, rng)[1]
        cokernel(mat)
    assert costs and min(costs) > 0


def shortest_row_unit(live, cols):
    """Reference: by a full scan of every live +-1, the one of the shortest row holding one,
    in its shortest column, the first row and then the first entry on ties; or None."""
    units = [(len(row), r, len(cols[j]), c, (i, j))
             for r, (i, row) in enumerate(live.items())
             for c, (j, v) in enumerate(row.items()) if v in (1, -1)]
    return min(units)[-1] if units else None


@pytest.mark.parametrize("model,n,draws", [
    ("hypertree", 8, 10), ("hypertree", 16, 10), ("hypertree", 20, 4), ("bn_matrix", 30, 10),
], ids=["hypertree-8", "hypertree-16", "hypertree-20", "bn_matrix"])
def test_scan_takes_the_unit_of_the_shortest_row(monkeypatch, model, n, draws):
    # the one-pass scan takes the pivot a full scan of the live +-1 entries picks
    scans = []

    def traced(live, cols, _scan=snf._unit_pivot):
        pivot = _scan(live, cols)
        assert pivot == shortest_row_unit(live, cols)
        scans.append(pivot)
        return pivot

    monkeypatch.setattr(snf, "_unit_pivot", traced)
    for seed in range(draws):
        rng = np.random.default_rng(seed)
        mat = sample_matrix(n, 3, rng) if model == "bn_matrix" else sample_hypertree(n, rng)[1]
        assert cokernel(mat) == dense_cokernel(mat)
    assert any(pivot is not None for pivot in scans)


@pytest.mark.parametrize("model,n,k", [("bn_matrix", 30, 3), ("hypertree", 16, None), ("bn_matrix", 100, 10)],
                         ids=["bn_matrix", "hypertree", "bn_matrix-100-10"])
def test_cokernel_is_invariant_under_row_and_column_permutations(model, n, k):
    # the scan breaks ties by row order, so a permutation changes the pivots but not the cokernel
    rng = np.random.default_rng(1)
    mat = sample_matrix(n, k, rng) if model == "bn_matrix" else sample_hypertree(n, rng)[1]
    reference = cokernel(mat)
    shuffle = random.Random(n)
    size = len(mat)  # square: n rows at (n, k), C(n-1, 2) on a hypertree
    for _ in range(4):
        rows, cols = shuffle.sample(range(size), size), shuffle.sample(range(size), size)
        assert cokernel([[mat[i][j] for j in cols] for i in rows]) == reference


@pytest.mark.parametrize("seed", range(5))
def test_unit_triangular_pivots_all_come_off_the_worklist(monkeypatch, seed):
    # a row- and column-permuted unit-triangular +-1 matrix eliminates by singletons alone
    rng = random.Random(seed)
    n = 12
    tri = [[rng.choice((-1, 0, 1)) if j < i else rng.choice((-1, 1)) * (j == i) for j in range(n)]
           for i in range(n)]
    rows, cols = rng.sample(range(n), n), rng.sample(range(n), n)
    mat = [[tri[i][j] for j in cols] for i in rows]
    assert pivot_sources(monkeypatch, mat) == "w" * n
    assert cokernel(mat) == CokernelClass(0, ())
    assert_matches_references(mat)


def test_snf_examples():
    assert cokernel(transpose([[2, 0], [0, 3]])) == CokernelClass(0, (6,))
    assert cokernel(transpose([[2, 1], [1, 2]])) == CokernelClass(0, (3,))
    assert cokernel(transpose([[0, 0], [0, 0]])) == CokernelClass(2, ())


def test_snf_rectangular_free_count():
    # the cokernel of the transpose has free rank cols - rank
    assert cokernel(transpose([[1, 0, 0], [0, 1, 0]])) == CokernelClass(1, ())
    assert cokernel(transpose([[0, 0, 0], [0, 0, 0]])) == CokernelClass(3, ())


def test_cokernel_rejects_ragged_matrix():
    with pytest.raises(InvalidInputError):
        cokernel([[1], [2, 3]])
    with pytest.raises(InvalidInputError):
        cokernel([[1, 2], [3]])


def test_rank_mod_p_rejects_ragged_matrix():
    with pytest.raises(InvalidInputError):
        rank_mod_p([[1], [2, 3]], 2)
    with pytest.raises(InvalidInputError):
        rank_mod_p([[1, 2], [3]], 2)


@pytest.mark.parametrize("mat", [[[2.9]], [[1.5, 0], [0, 2]], [[3.0]], np.array([[2.0, 1.0], [1.0, 2.0]])])
def test_non_integer_entries_are_rejected(mat):
    # truncating 2.9 to 2 would report Z/2
    with pytest.raises(InvalidInputError):
        cokernel(mat)
    with pytest.raises(InvalidInputError):
        rank_mod_p(mat, 2)


def test_numpy_integer_entries_are_accepted():
    mat = np.array([[2, 1], [1, 2]], dtype=np.int64)
    assert cokernel(mat) == CokernelClass(0, (3,))
    assert rank_mod_p(mat, 3) == (1, 1)
    mixed = [[np.int64(3), np.int32(0)], [np.int8(0), 1]]
    assert cokernel(mixed) == CokernelClass(0, (3,))
    assert rank_mod_p(mixed, 3) == (1, 1)


def test_snf_divisor_chain_and_det():
    rng = random.Random(0)
    for _ in range(60):
        n = rng.randint(1, 6)
        mat = random_matrix(rng, n, n)
        cok = cokernel(transpose(mat))
        divisors, free = cok.divisors, cok.free_rank
        for a, b in zip(divisors, divisors[1:]):
            assert b % a == 0
        det = int_det(mat)
        if det != 0:
            prod = 1
            for d in divisors:
                prod *= d
            assert prod == abs(det)
            assert free == 0


@pytest.mark.parametrize("n", [5, 10, 20, 30])
def test_snf_product_equals_det_on_samples(n):
    mat = sample_matrix(n, 3, rng=n)
    det = int_det(mat)
    assert det != 0
    cok = cokernel(transpose(mat))
    divisors, free = cok.divisors, cok.free_rank
    prod = 1
    for d in divisors:
        prod *= d
    assert prod == abs(det) and free == 0


def test_snf_invariant_under_unimodular_transforms():
    rng = random.Random(12)
    base = random_matrix(rng, 4, 5)
    reference = cokernel(transpose(base))
    for _ in range(100):
        assert cokernel(transpose(random_unimodular_transform(rng, base))) == reference


def test_cokernel_examples():
    assert cokernel([[3, 0], [0, 3]]) == CokernelClass(free_rank=0, divisors=(3, 3))
    assert cokernel([[1, 1], [0, 1]]) == CokernelClass(free_rank=0, divisors=())
    # 2x3 surjective-over-Q matrix: finite cokernel, extra column is harmless
    assert cokernel([[1, 0, 0], [0, 2, 0]]).free_rank == 0
    # 3x2 rank-2: one free generator survives
    assert cokernel([[1, 0], [0, 2], [0, 0]]) == CokernelClass(free_rank=1, divisors=(2,))


def test_sylow_examples():
    c = CokernelClass(free_rank=0, divisors=(6,))
    assert sylow(c, 2).partition == (1,)
    c = CokernelClass(free_rank=0, divisors=(4, 12))
    assert sylow(c, 2).partition == (2, 2)
    assert sylow(c, 5).partition == ()
    inf = sylow(CokernelClass(free_rank=1, divisors=()), 2)
    assert inf.infinite and inf.partition == ()


def test_sylow_prime_check():
    with pytest.raises(InvalidInputError):
        sylow(CokernelClass(0, (6,)), 4)


def test_rank_mod_p_examples():
    assert rank_mod_p([[2, 0], [0, 2]], 2) == (0, 2)
    assert rank_mod_p([[1, 1], [1, 2]], 2) == (2, 0)  # det = 1, odd
    with pytest.raises(InvalidInputError):
        rank_mod_p([[1]], 6)


def test_corank_counts_sylow_parts():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 5)
        mat = random_matrix(rng, n, n)
        if int_det(mat) == 0:
            continue
        cok = cokernel(mat)
        for p in (2, 3, 5):
            _, corank = rank_mod_p(mat, p)
            assert corank == len(sylow(cok, p).partition)

