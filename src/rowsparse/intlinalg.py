"""Small exact linear algebra helpers over Python ints and Fractions.

Everything here is dense and meant for matrices of modest size; arbitrary
precision is the point, asymptotics are not.
"""

from fractions import Fraction

from .errors import InvalidInputError


def int_det(rows):
    """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise InvalidInputError("matrix is not square")
    if n == 0:
        return 1
    a = [list(map(int, r)) for r in rows]
    sign = 1
    prev = 1
    for t in range(n - 1):
        if a[t][t] == 0:
            for i in range(t + 1, n):
                if a[i][t] != 0:
                    a[t], a[i] = a[i], a[t]
                    sign = -sign
                    break
            else:
                return 0
        piv = a[t][t]
        for i in range(t + 1, n):
            row_i = a[i]
            row_t = a[t]
            f = row_i[t]
            for j in range(t + 1, n):
                row_i[j] = (piv * row_i[j] - f * row_t[j]) // prev
            row_i[t] = 0
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

