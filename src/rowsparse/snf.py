"""Exact Smith normal form, cokernels, Sylow projections, and mod-p rank.

`cokernel` runs one elimination in two phases over Python ints:

- Sparse phase. Rows are dicts {column: entry}. While some entry is +-1,
  one is the pivot, and its integer Schur complement replaces the matrix. A
  +-1 alone in its row or column makes no fill; such pivots come off a
  worklist of the rows and columns that start as or become singletons, at
  no search cost. Only when the worklist runs dry does one pass over the
  live rows pick the next pivot: the +-1 of the shortest row that holds
  one, in the shortest of its columns. The pass stops at the first row of
  two entries that holds one, since no row of one +-1 is left by then. The
  elementary divisors do not depend on the pivot order; the sampled
  matrices are row-sparse, so this phase removes nearly every row.
- Core phase. The rows and columns that still hold a nonzero entry form a
  dense core with no unit entry. `_diagonalize` reduces it by
  minimum-absolute-value pivoting with full row and column reduction. A
  square core with determinant D != 0 is reduced mod D (Domich, Kannan and
  Trotter 1987), so no entry outgrows D. The plain loop's entry growth has
  a heavy tail (one (100, 10) cokernel took 45 s with it, 0.07 s mod D), so
  a singular or non-square core past PLAIN_CORE_LIMIT raises SizeLimitError.

Rows come dense, as one 2-D integer ndarray, or, with `ncols`, as (column,
entry) pairs. An integer array is checked once, not entry by entry: its
nonzero entries are read off as Python ints. The integer rank is the number
of unit pivots plus the core's nonzero diagonal entries, and the mod-p rank
is read off the elementary divisors (`CokernelClass.dim_mod`).
"""

import math
import operator
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .errors import InvalidInputError, SizeLimitError
from .groups import is_prime
from .intlinalg import _det

# A core with no modulus (singular or non-square) runs the plain loop, whose entry growth
# has a heavy tail: on singular cores of sampled n = 100 matrices it took at most 0.4 s up
# to 30 rows and columns, but 15 s and 23 s on two cores of 31 and 36
PLAIN_CORE_LIMIT = 30


@dataclass(frozen=True)
class CokernelClass:
    """Cokernel Z^rows / (column span): free rank plus elementary divisor chain."""

    free_rank: int
    divisors: tuple

    @property
    def is_finite(self):
        return self.free_rank == 0

    def dim_mod(self, p):
        """Dimension over F_p of the cokernel mod p: the free rank plus the divisors p divides."""
        return self.free_rank + sum(1 for d in self.divisors if d % p == 0)


@dataclass(frozen=True)
class PGroupType:
    """Abelian p-group as the decreasing partition of its cyclic p-power orders.

    `infinite` flags a source with positive free rank; such a result is never
    silently truncated to its torsion part.
    """

    prime: int
    partition: tuple
    infinite: bool = False


def _diagonalize(mat, modulus=0):
    """Integer diagonalization by minimum pivots; returns the nonzero diagonal entries.

    With modulus D = |det mat| of a square nonsingular mat, D Z^rows lies in
    the column span, so the cokernel is unchanged by reducing entries mod D:
    they are kept in (-D/2, D/2], each diagonal entry d reads as gcd(d, D),
    and a pivot that vanishes mod D reads as D.
    """
    half = (modulus - 1) // 2
    a = [list(map(int, row)) for row in mat]
    if modulus:
        a = [[(v + half) % modulus - half for v in row] for row in a]
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
                        if modulus:
                            ai[t:] = [(x - q * y + half) % modulus - half
                                      for x, y in zip(ai[t:], at[t:])]
                        else:
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
                        if modulus:
                            at[t:] = [(x + half) % modulus - half for x in at[t:]]
                        fixed = False
                        break
                if not fixed:
                    break
            if fixed:
                break
        diag.append(math.gcd(a[t][t], modulus))
        t += 1
    return diag + [modulus] * (nrows - t) if modulus else diag


def _sparse_rows(mat, ncols=None):
    """Rows of an integer matrix as {row index: {column: entry}}, plus its column count.

    mat is dense, a 2-D integer ndarray, or, when ncols is given, a list of rows of
    (column, entry) pairs. An integer array needs no per-entry check: its nonzero
    entries are read as Python ints, so no later product can overflow.
    """
    rows = {}
    if isinstance(mat, np.ndarray) and ncols is None:
        if mat.ndim != 2:
            raise InvalidInputError(f"a matrix array must be 2-D, got {mat.ndim}-D")
        if mat.dtype.kind in "iu":
            nonzero = mat != 0
            r, c = np.nonzero(nonzero)
            dicts = [{} for _ in range(mat.shape[0])]
            for i, j, v in zip(r.tolist(), c.tolist(), mat[nonzero].tolist()):
                dicts[i][j] = v
            return dict(enumerate(dicts)), mat.shape[1]
    if ncols is None:
        ncols = len(mat[0]) if len(mat) else 0
        for i, row in enumerate(mat):
            if len(row) != ncols:
                raise InvalidInputError("ragged matrix")
            try:
                rows[i] = {j: operator.index(row[j]) for j in compress(range(ncols), row)}
            except TypeError:
                raise InvalidInputError(f"row {i} has a non-integer entry") from None
        return rows, ncols
    if not isinstance(ncols, int) or ncols < 0:
        raise InvalidInputError(f"ncols must be an int >= 0, got {ncols!r}")
    for i, row in enumerate(mat):
        try:
            pairs = {operator.index(j): operator.index(v) for j, v in row}
            size = len(row)
        except (TypeError, ValueError):
            raise InvalidInputError(f"row {i} is not a list of integer (column, entry) pairs") from None
        if len(pairs) != size or (pairs and not 0 <= min(pairs) <= max(pairs) < ncols):
            raise InvalidInputError(f"row {i} repeats a column or has one outside [0, {ncols})")
        rows[i] = {j: v for j, v in pairs.items() if v} if 0 in pairs.values() else pairs
    return rows, ncols


def _unit_pivot(live, cols):
    """The +-1 of the shortest live row holding one, as (row, column), or None.

    Within that row the +-1 of the shortest column is taken. Ties go to the
    first such row, then to the first such entry in it. The scan stops at the
    first row of two entries that holds a +-1: a live row of one +-1 is on the
    worklist, so `_free_pivot` takes it before any scan, and no shorter row can win.
    """
    best, shortest = None, math.inf
    for i, row in live.items():
        size = len(row)
        if size < shortest:
            values = row.values()
            if 1 in values or -1 in values:
                best, shortest = i, size
                if size == 2:
                    break
    if best is None:
        return None
    units = [j for j, v in live[best].items() if v == 1 or v == -1]
    return best, units[0] if len(units) == 1 else min(units, key=lambda j: len(cols[j]))


def _free_pivot(live, cols, todo):
    """A +-1 entry alone in its row or column as (row, column), or None.

    Pops candidate entries off the worklist and drops the ones that are gone
    or no longer a unit alone in their row or column.
    """
    while todo:
        i, j = todo.pop()
        row = live.get(i, {})
        if row.get(j) in (1, -1) and (len(row) == 1 or len(cols[j]) == 1):
            return i, j
    return None


def _eliminate_unit_pivots(live, ncols):
    """Sparse phase: take +-1 pivots until none is left.

    Pops each pivot row from `live`, leaves the Schur complement on the other
    rows in place, and returns the number of pivots. The rows and columns that
    start as or become singletons put their entry on a worklist, so a pivot
    alone in its row or column needs no scan.
    """
    cols = [set() for _ in range(ncols)]  # column -> live rows holding it
    for i, row in live.items():
        for j in row:
            cols[j].add(i)
    todo = [(i, *row) for i, row in live.items() if len(row) == 1]
    todo += [(*rows, j) for j, rows in enumerate(cols) if len(rows) == 1]
    pivots = 0
    while (pivot := _free_pivot(live, cols, todo) or _unit_pivot(live, cols)) is not None:
        pi, pj = pivot
        prow = live.pop(pi)
        unit = prow.pop(pj)
        for j in prow:
            cols[j].discard(pi)
            if len(cols[j]) == 1:
                todo.append((next(iter(cols[j])), j))
        cols[pj].discard(pi)
        for i in cols[pj]:
            row = live[i]
            f = row.pop(pj) * unit
            for j, v in prow.items():
                w = row.get(j, 0) - f * v
                if w:
                    if j not in row:
                        cols[j].add(i)
                    row[j] = w
                else:
                    del row[j]
                    cols[j].discard(i)
                    if len(cols[j]) == 1:
                        todo.append((next(iter(cols[j])), j))
            if len(row) == 1:
                todo.append((i, next(iter(row))))
        cols[pj] = set()
        pivots += 1
    return pivots


def cokernel(mat, ncols=None):
    """Cokernel of the column action: Z^rows / A Z^cols.

    mat is a dense integer matrix, a 2-D ndarray of integer dtype (signed or
    unsigned, read exactly as Python ints) or, with ncols given, a list of
    rows of (column, entry) pairs. Entries must be integers (numpy integers
    included); a ragged or non-integer matrix, an array that is not 2-D, or
    a sparse row that repeats a column or leaves [0, ncols), raises
    InvalidInputError. A square core with nonzero determinant D is reduced
    mod D; any other core with more than PLAIN_CORE_LIMIT rows and columns
    raises SizeLimitError.
    """
    rows, ncols = _sparse_rows(mat, ncols)
    pivots = _eliminate_unit_pivots(rows, ncols)
    core_cols = sorted({j for row in rows.values() for j in row})
    core = [[row.get(j, 0) for j in core_cols] for row in rows.values() if row]
    # the core's entries are the Python ints of the rows above, so its copy needs no check
    modulus = abs(_det([row[:] for row in core])) if len(core) == len(core_cols) else 0
    if not modulus and min(len(core), len(core_cols)) > PLAIN_CORE_LIMIT:
        raise SizeLimitError(
            f"a singular or non-square {len(core)} x {len(core_cols)} core is over "
            f"{PLAIN_CORE_LIMIT} rows, too large for the plain reduction"
        )
    diag = _diagonalize(core, modulus)
    return CokernelClass(free_rank=len(mat) - pivots - len(diag),
                         divisors=tuple(d for d in diag if d > 1))


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
    """(rank, corank) of the matrix reduced mod p; corank counts columns.

    Read off the cokernel: the F_p rank is the integer rank less the number
    of elementary divisors that p divides.
    """
    if not is_prime(p):
        raise InvalidInputError(f"{p} is not prime")
    cok = cokernel(mat)
    rank = len(mat) - cok.dim_mod(p)
    return rank, (len(mat[0]) if len(mat) else 0) - rank
