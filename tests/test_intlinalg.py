import itertools
import math
import random

import numpy as np
import pytest

from rowsparse.errors import InvalidInputError
from rowsparse.intlinalg import int_det


def leibniz(m):
    """The permutation-sum determinant over Python ints."""
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(n), 2))
        total += (-1) ** inversions * math.prod(int(m[i][perm[i]]) for i in range(n))
    return total


@pytest.mark.parametrize("size", range(7))
def test_int_det_equals_the_permutation_sum(size):
    rng = random.Random(size)
    for trial in range(40):
        # small entries give zero pivots, swaps and singular matrices; large ones bigints
        span = 2 if trial % 2 else 10**12
        m = [[rng.randint(-span, span) for _ in range(size)] for _ in range(size)]
        if size and trial % 5 == 0:
            m[rng.randrange(size)] = list(m[0])  # a repeated or zero-padded row: singular
        assert int_det(m) == leibniz(m)
    # numpy int64 entries near 2^40, whose products overflow int64
    big = np.array(
        [[2**40 + rng.randint(-9, 9) for _ in range(size)] for _ in range(size)], dtype=np.int64
    )
    assert int_det(big) == leibniz(big.tolist())
    assert int_det(list(big)) == leibniz(big.tolist())


@pytest.mark.parametrize(
    "mat", [[[1.5]], [[2.9, 0], [0, 1]], [["3"]]], ids=["float", "truncated-float", "string"]
)
def test_int_det_refuses_a_non_integer_entry(mat):
    with pytest.raises(InvalidInputError, match="row 0"):
        int_det(mat)


def test_int_det_names_the_row_and_refuses_a_ragged_matrix():
    with pytest.raises(InvalidInputError, match="row 1"):
        int_det([[1, 0], [0, 2.5]])
    with pytest.raises(InvalidInputError, match="square"):
        int_det([[1, 2], [3]])
