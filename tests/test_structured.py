import itertools

import pytest

from rowsparse.errors import InvalidInputError
from rowsparse.intlinalg import int_det
from rowsparse.sampling import BoundaryRows
from rowsparse.structured import (
    boundary_matrix,
    boundary_row_faces,
    boundary_col_faces,
    gram_closed_form,
    gram_determinant,
    gram_rowwise,
    hypertree_identity,
    row_vector,
)


def reference_gram(n, k):
    # straight double loop over all tuples; independent of the library paths
    g = [[0] * n for _ in range(n)]
    for b in itertools.product(range(1, n + 1), repeat=k):
        vec = [0] * n
        for x in b:
            vec[x - 1] += 1
        for i in range(n):
            if vec[i]:
                for j in range(n):
                    g[i][j] += vec[i] * vec[j]
    return g


def test_row_vector_counts():
    assert row_vector((1, 1, 2), 3) == [2, 1, 0]
    assert row_vector((2, 2, 2), 2) == [0, 3]
    assert row_vector((1, 2, 3, 4, 1), 4) == [2, 1, 1, 1]


def test_row_vector_rejects_bad_entries():
    with pytest.raises(InvalidInputError):
        row_vector((0, 1, 2), 3)
    with pytest.raises(InvalidInputError):
        row_vector((1, 2, 4), 3)
    with pytest.raises(InvalidInputError):
        row_vector((1, 2), 3)


def test_row_vector_sums_to_weight():
    for b in [(1, 1, 1), (1, 2, 3), (3, 3, 1, 2, 2)]:
        n = max(b)
        assert sum(row_vector(b, n)) == len(b)


def _tuple_rows(rows, n):
    # square matrix of distinct tuples in lex order, as sample_matrix builds it
    return [row_vector(b, n) for b in sorted(rows)]


def test_row_submatrix_examples():
    assert _tuple_rows([(1, 1, 1), (2, 2, 2)], 2) == [[3, 0], [0, 3]]
    assert _tuple_rows([(1, 2, 2), (1, 1, 2)], 2) == [[2, 1], [1, 2]]


def test_row_submatrix_constant_row_sums():
    mat = _tuple_rows([(1, 2, 3), (1, 1, 2), (3, 3, 3)], 3)
    assert all(sum(row) == 3 for row in mat)


def test_gram_closed_form_small_values():
    assert gram_closed_form(2, 3) == [[24, 12], [12, 24]]
    # 1x1 case: the single row (k) has Gram k^2
    assert gram_closed_form(1, 3) == [[9]]
    g3 = gram_closed_form(3, 3)
    assert g3[0][0] == 18 + 27 and g3[0][1] == 18


@pytest.mark.parametrize("n,k", [(1, 3), (2, 3), (3, 3), (2, 4), (3, 4)])
def test_gram_closed_form_matches_reference(n, k):
    assert gram_closed_form(n, k) == reference_gram(n, k)
    assert gram_rowwise(n, k) == reference_gram(n, k)


def test_gram_determinant_values():
    assert gram_determinant(2, 3) == 432
    assert int_det(gram_closed_form(2, 3)) == 432
    assert gram_determinant(1, 3) == 9
    assert gram_determinant(1, 7) == 49
    assert gram_determinant(3, 3) == 59049
    assert int_det(gram_closed_form(3, 3)) == 59049


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("k", [3, 4, 5])
def test_gram_determinant_closed_form_grid(n, k):
    assert int_det(gram_closed_form(n, k)) == gram_determinant(n, k)


def test_boundary_matrix_signs_n3():
    # rows (1,), (2,); columns (1,2), (1,3), (2,3); signs from the sorted-removal rule
    assert boundary_matrix(3, 1) == [[-1, -1, 0], [1, 0, -1]]


def test_boundary_matrix_shapes():
    mat = boundary_matrix(4, 2)
    assert len(mat) == 3 and len(mat[0]) == 4
    assert boundary_row_faces(4, 2) == [(1, 2), (1, 3), (2, 3)]
    assert len(boundary_col_faces(4, 2)) == 4


@pytest.mark.parametrize("n,r", [(4, 1), (5, 1), (5, 2), (6, 2)])
def test_boundary_columns_are_sparse_signed(n, r):
    mat = boundary_matrix(n, r)
    for col in zip(*mat):
        nz = [x for x in col if x]
        assert len(nz) <= r + 1
        assert all(x in (-1, 1) for x in nz)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_boundary_rows_are_the_columns_of_the_boundary_matrix(r):
    # the sampler's host reads boundary_column_sparse; the hypertree-identity check reads boundary_matrix
    family = BoundaryRows(6, r)
    rows = [family.dense_row(i) for i in range(family.n_items)]
    assert rows == [list(col) for col in zip(*boundary_matrix(6, r))]


def test_boundary_matrix_range_check():
    with pytest.raises(InvalidInputError):
        boundary_matrix(3, 2)
    with pytest.raises(InvalidInputError):
        boundary_matrix(4, 0)


def test_hypertree_identity_small():
    assert hypertree_identity(3, 1) == (3, 3)
    assert hypertree_identity(4, 1) == (16, 16)
    lhs, rhs = hypertree_identity(5, 2)
    assert rhs == 125
    assert lhs == rhs


@pytest.mark.parametrize("n,r", [(4, 1), (5, 1), (6, 1), (4, 2), (5, 2), (6, 2)])
def test_hypertree_identity_grid(n, r):
    lhs, rhs = hypertree_identity(n, r)
    assert lhs == rhs
