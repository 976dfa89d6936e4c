import random

import pytest

from rowsparse.errors import InvalidInputError
from rowsparse.intlinalg import int_det
from rowsparse.sampling import sample_matrix
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
    assert inf.infinite and inf.order() is None


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

