"""Exact Smith normal form, cokernels, Sylow projections, and mod-p rank.

The diagonalization uses minimum-absolute-value pivoting with full row and
column reduction over Python ints; entry growth is accepted in exchange for
unconditional correctness at desk scale.
"""

from dataclasses import dataclass

from .errors import InvalidInputError
from .groups import is_prime


@dataclass(frozen=True)
class CokernelClass:
    """Cokernel Z^rows / (column span): free rank plus elementary divisor chain."""

    free_rank: int
    divisors: tuple

    @property
    def is_finite(self):
        return self.free_rank == 0

    def order(self):
        if not self.is_finite:
            return None
        out = 1
        for d in self.divisors:
            out *= d
        return out


@dataclass(frozen=True)
class PGroupType:
    """Abelian p-group as the decreasing partition of its cyclic p-power orders.

    `infinite` flags a source with positive free rank; such a result is never
    silently truncated to its torsion part.
    """

    prime: int
    partition: tuple
    infinite: bool = False

    def order(self):
        return None if self.infinite else self.prime ** sum(self.partition)

    def label(self):
        if self.infinite:
            return "infinite"
        if not self.partition:
            return "1"
        return "+".join(f"Z/{self.prime**e}" for e in self.partition)


def _diagonalize(mat):
    """In-place integer diagonalization; returns the nonzero diagonal entries."""
    a = [list(map(int, row)) for row in mat]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    diag = []
    t = 0
    while t < min(nrows, ncols):
        # min-|value| pivot over the working submatrix
        best = None
        for i in range(t, nrows):
            row = a[i]
            for j in range(t, ncols):
                v = row[j]
                if v and (best is None or abs(v) < best[0]):
                    best = (abs(v), i, j)
                    if best[0] == 1:
                        break
            if best is not None and best[0] == 1:
                break
        if best is None:
            break
        _, pi, pj = best
        if pi != t:
            a[pi], a[t] = a[t], a[pi]
        if pj != t:
            for row in a:
                row[pj], row[t] = row[t], row[pj]
        while True:
            piv = a[t][t]
            dirty = False
            for i in range(t + 1, nrows):
                v = a[i][t]
                if v:
                    q = v // piv
                    if q:
                        ai, at = a[i], a[t]
                        for j in range(t, ncols):
                            ai[j] -= q * at[j]
                    if a[i][t]:
                        # remainder became the smaller pivot
                        a[i], a[t] = a[t], a[i]
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(t + 1, ncols):
                v = a[t][j]
                if v:
                    q = v // piv
                    if q:
                        for row in a:
                            row[j] -= q * row[t]
                    if a[t][j]:
                        for row in a:
                            row[j], row[t] = row[t], row[j]
                        dirty = True
                        break
            if dirty:
                continue
            # pivot must divide every remaining entry to keep the chain
            piv = a[t][t]
            fixed = True
            for i in range(t + 1, nrows):
                row = a[i]
                for j in range(t + 1, ncols):
                    if row[j] % piv:
                        at = a[t]
                        for jj in range(t, ncols):
                            at[jj] += row[jj]
                        fixed = False
                        break
                if not fixed:
                    break
            if fixed:
                break
        diag.append(abs(a[t][t]))
        t += 1
    return diag


def cokernel(mat):
    """Cokernel of the column action: Z^rows / A Z^cols."""
    nrows = len(mat)
    if nrows == 0:
        return CokernelClass(free_rank=0, divisors=())
    if any(len(r) != len(mat[0]) for r in mat):
        raise InvalidInputError("ragged matrix")
    diag = _diagonalize(mat)
    return CokernelClass(free_rank=nrows - len(diag), divisors=tuple(d for d in diag if d > 1))


def sylow(cok, p):
    """p-Sylow subgroup of a cokernel as a PGroupType partition."""
    if not is_prime(p):
        raise InvalidInputError(f"{p} is not prime")
    if cok.free_rank > 0:
        return PGroupType(prime=p, partition=(), infinite=True)
    parts = []
    for d in cok.divisors:
        v = 0
        while d % p == 0:
            d //= p
            v += 1
        if v:
            parts.append(v)
    return PGroupType(prime=p, partition=tuple(sorted(parts, reverse=True)))


def rank_mod_p(mat, p):
    """(rank, corank) of the matrix reduced mod p, by Gaussian elimination."""
    if not is_prime(p):
        raise InvalidInputError(f"{p} is not prime")
    a = [[x % p for x in row] for row in mat]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    rank = 0
    row = 0
    for col in range(ncols):
        piv = next((i for i in range(row, nrows) if a[i][col]), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = pow(a[row][col], -1, p)
        a[row] = [(x * inv) % p for x in a[row]]
        for i in range(nrows):
            if i != row and a[i][col]:
                f = a[i][col]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[row])]
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank, ncols - rank

