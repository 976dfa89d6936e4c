"""Structured integer row families.

Two families are built exactly here:

* the "basis-sum" family: for parameters (n, k) the rows are indexed by
  tuples b in [1,n]^k and the row for b is e_{b_1} + ... + e_{b_k}, so every
  row has coordinate sum k and at most k nonzero entries;
* the simplicial boundary matrices: the signed incidence matrix between
  r-subsets of [n-1] and (r+1)-subsets of [n], whose transposed square
  submatrices carry hypertree homology.

All arithmetic is over Python ints; nothing here can overflow.
"""

import itertools
import math

import numpy as np

from .errors import InvalidInputError
from .intlinalg import int_det

# Gram entries stay below 2^53 in this regime, so a float64 matmul is exact.
_FLOAT_EXACT_LIMIT = 2**52


def validate_row_tuple(b, n):
    """Check that b is a valid row index: a tuple over [1, n] of weight >= 3."""
    if not isinstance(b, (tuple, list)):
        raise InvalidInputError(f"a row index is a tuple of integers, got {b!r}")
    if len(b) < 3:
        raise InvalidInputError(f"row weight must be >= 3, got {len(b)}")
    for x in b:
        if not (isinstance(x, (int, np.integer)) and 1 <= x <= n):
            raise InvalidInputError(f"tuple entry {x!r} is not an integer in [1, {n}]")


def row_vector(b, n):
    """Dense integer row for the tuple b."""
    validate_row_tuple(b, n)
    vec = [0] * n
    for x in b:
        vec[x - 1] += 1
    return vec


def gram_closed_form(n, k):
    """Closed-form Gram matrix of the full (n, k) basis-sum family.

    Equals alpha*J + beta*I with alpha = k(k-1) n^(k-2), beta = k n^(k-1):
    two distinct coordinates co-occur in k(k-1) n^(k-2) tuples (with
    multiplicity), and the diagonal adds the k n^(k-1) single-slot terms.
    """
    if n < 1 or k < 3:
        raise InvalidInputError("need n >= 1 and k >= 3")
    alpha = k * (k - 1) * n ** (k - 2)
    beta = k * n ** (k - 1)
    return [[alpha + (beta if i == j else 0) for j in range(n)] for i in range(n)]


def gram_rowwise(n, k):
    """Gram matrix of the basis-sum family by explicit summation over all n^k rows.

    Independent of gram_closed_form; used to pin the closed form. Vectorized
    over the full tuple list, exact as long as entries stay below 2^53.
    """
    if n < 1 or k < 3:
        raise InvalidInputError("need n >= 1 and k >= 3")
    total = n**k
    if total * k * k >= _FLOAT_EXACT_LIMIT:
        raise InvalidInputError("family too large for the exact float64 path")
    digits = np.array(
        np.unravel_index(np.arange(total), (n,) * k), dtype=np.int8
    )  # shape (k, n^k)
    counts = np.empty((total, n), dtype=np.float64)
    for j in range(n):
        counts[:, j] = (digits == j).sum(axis=0)
    gram = counts.T @ counts
    return [[int(round(x)) for x in row] for row in gram]


def gram_determinant(n, k):
    """det of the basis-sum Gram in closed form: k^(n+1) * n^((k-1) n)."""
    if n < 1 or k < 3:
        raise InvalidInputError("need n >= 1 and k >= 3")
    return k ** (n + 1) * n ** ((k - 1) * n)


def boundary_row_faces(n, r):
    """Row labels of the incidence matrix: r-subsets of [n-1], lex order."""
    return [tuple(c) for c in itertools.combinations(range(1, n), r)]


def boundary_col_faces(n, r):
    """Column labels of the incidence matrix: (r+1)-subsets of [n], lex order."""
    return [tuple(c) for c in itertools.combinations(range(1, n + 1), r + 1)]


def boundary_matrix(n, r):
    """Signed incidence matrix between r-subsets of [n-1] and (r+1)-subsets of [n].

    Column S' holds the pairs of boundary_column_sparse(n, r, S'); every
    other entry is 0.
    """
    if not 1 <= r <= n - 2:
        raise InvalidInputError(f"need 1 <= r <= n-2, got r={r}, n={n}")
    row_index = {S: i for i, S in enumerate(boundary_row_faces(n, r))}
    cols = boundary_col_faces(n, r)
    mat = [[0] * len(cols) for _ in row_index]
    for col, face in enumerate(cols):
        for S, sign in boundary_column_sparse(n, r, face):
            mat[row_index[S]][col] = sign
    return mat


def boundary_column_sparse(n, r, face):
    """Nonzero (row-face, sign) pairs of one column of boundary_matrix.

    S is face, sorted ascending, less its j-th entry, with sign (-1)^j; it
    is kept when it is an r-subset of [n-1].
    """
    out = []
    for j in range(r + 1):
        S = face[:j] + face[j + 1 :]
        if S and S[-1] <= n - 1:
            out.append((S, -1 if j % 2 else 1))
    return out


def hypertree_identity(n, r):
    """Both sides of the squared-homology enumeration identity.

    lhs = det(I I^T) for the incidence matrix I (a Cauchy-Binet aggregate of
    squared torsion orders over hypertrees), rhs = n^binom(n-2, r). For r = 1
    this is Cayley's n^(n-2) count of labeled spanning trees.
    """
    mat = boundary_matrix(n, r)
    m = len(mat)
    gram = [[sum(a * b for a, b in zip(mat[i], mat[j])) for j in range(m)] for i in range(m)]
    lhs = int_det(gram)
    rhs = n ** math.comb(n - 2, r)
    return lhs, rhs
