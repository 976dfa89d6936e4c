"""Small exact linear algebra helpers over Python ints and Fractions.

Everything here is dense and meant for matrices of modest size; arbitrary
precision is the point, asymptotics are not.
"""

import operator
from fractions import Fraction

from .errors import InvalidInputError


def int_det(rows):
    """Exact determinant of a square integer matrix (numpy integers included).

    A ragged matrix, or an entry that is not an integer, raises InvalidInputError.
    """
    n = len(rows)
    a = []
    for i, r in enumerate(rows):
        if len(r) != n:
            raise InvalidInputError("matrix is not square")
        try:
            a.append(list(map(operator.index, r)))
        except TypeError:
            raise InvalidInputError(f"row {i} holds an entry that is not an integer") from None
    return _det(a)


def _det(a):
    """Determinant of a square list of rows of Python ints, which it overwrites.

    Cofactor expansion up to 3x3; above that fraction-free Bareiss elimination, updated
    in place by an index loop, which timed faster from 4x4 to 60x60 than a zip-based
    update that builds each row anew.
    """
    n = len(a)
    if n <= 3:
        if n == 3:
            (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = a
            return a0 * (b1 * c2 - b2 * c1) - a1 * (b0 * c2 - b2 * c0) + a2 * (b0 * c1 - b1 * c0)
        if n == 2:
            (a0, a1), (b0, b1) = a
            return a0 * b1 - a1 * b0
        return a[0][0] if n else 1
    sign = prev = 1
    for t in range(n - 1):
        if a[t][t] == 0:
            for i in range(t + 1, n):
                if a[i][t] != 0:
                    a[t], a[i] = a[i], a[t]
                    sign = -sign
                    break
            else:
                return 0
        row_t = a[t]
        piv = row_t[t]
        for i in range(t + 1, n):
            row_i = a[i]
            f = row_i[t]
            for j in range(t + 1, n):
                row_i[j] = (piv * row_i[j] - f * row_t[j]) // prev
        prev = piv
    return sign * a[n - 1][n - 1]


def frac_inverse(rows):
    """Exact inverse of a square matrix as Fractions; raises on singular input."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise InvalidInputError("matrix is not square")
    a = [[Fraction(x) for x in r] for r in rows]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] != 0), None)
        if piv is None:
            raise InvalidInputError("matrix is singular")
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            inv[c], inv[piv] = inv[piv], inv[c]
        f = Fraction(1) / a[c][c]
        a[c] = [x * f for x in a[c]]
        inv[c] = [x * f for x in inv[c]]
        for r in range(n):
            if r != c and a[r][c]:
                g = a[r][c]
                a[r] = [x - g * y for x, y in zip(a[r], a[c])]
                inv[r] = [x - g * y for x, y in zip(inv[r], inv[c])]
    return inv

