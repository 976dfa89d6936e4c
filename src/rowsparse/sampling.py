"""Volume sampling of row subsets: P(Y) = det(host[Y])^2 / det(host^T host).

One algorithm serves every host: the chain rule for projection determinantal
measures (Lyons 2003). With W = (host^T host)^{-1}, the kernel
K(x, y) = x^T W y is a rank-m projection (m = column count). A draw keeps the
m x m residual operator Q, starting at W, so row x carries the residual mass
r_x = x^T Q x, and sum_x r_x = m - t after t picks. Each step picks a row with
probability proportional to r_x and conditions on it: with
g = Q x / sqrt(x^T Q x) it sets Q -= g g^T, and each row's residual drops by
(x_i . g)^2. A float pick with x^T Q x <= RESIDUAL_TOLERANCE x K(x, x) raises
DegenerateHostError; no path restarts a draw.

Three host structures. Explicit rows (`MatrixRows`) take W as a dense
inverse and track every row's residual in padded sparse arrays
(`RowResidual`). That path keeps Q in factor form, Q = W - G^T G with row s
of G the direction g of pick s, so pick t reads Q x = W x - G^T (G x) and
writes one row of G: O(t m + N nnz) time per pick and O(m^3 + N m nnz) per
draw for N rows of at most nnz entries. Boundary rows (`BoundaryRows`) take
the same path on the closed forms W = ((n+1) I - Gram) / n and
K(x, x) = (r+1)/n. Basis-sum rows (`BasisSumRows`) take
W = (I - gamma J) / beta, beta = k n^(k-1) and gamma = (k-1)/(k n), never
build their n^k rows, and draw each tuple one slot at a time from exact
marginals of Q (`BasisResidual`): O(n^3 + k n^2) time per draw. Their float
state is Q' = beta Q, which starts at I - gamma J, so beta (past the float
range from k = 209 at n = 30) appears only in the exact methods. A call on a
list of B Generators (`sample_volume(family, [g_1, ..., g_B])`, where a
Generator may repeat) returns the B subsets that one call per entry returns;
a single Generator is a list of one. Every host takes the list in even
slices of at most `walk_size()` draws, its WALK_ENTRIES floats over its
entries per draw, and runs its walk once per slice, vectorized over the
slice's draws (`BasisResidualBatch`, `RowResidualBatch`). Campaigns and
`mc_corank_tail` group their draws by the same size. A slice of fewer than
BATCH_WALK_MIN draws loops the per-call walk, which is then the faster one;
that walk is also the reference the vectorized ones are tested against.

Two arithmetics: float64 (`sample_float`, one per host structure) and exact
rationals (`_sample_volume_exact`, generic over hosts, with the sqrt-free
downdate Q -= (Q x)(Q x)^T / x^T Q x). The enumeration oracle is exact.
"""

import itertools
import math
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache, partial

import numpy as np

from .errors import DegenerateHostError, InvalidInputError, SizeLimitError
from .intlinalg import frac_inverse, int_det
from .structured import (
    boundary_col_faces,
    boundary_column_sparse,
    boundary_row_faces,
    gram_closed_form,
    gram_determinant,
    row_vector,
    validate_row_tuple,
)

# the precisions sample_volume draws at: the float walk, or exact rational arithmetic
PRECISIONS = ("float64", "exact")
EXACT_ITEM_LIMIT = 10**5
# caps one float draw's arrays: the generic path's padded sparse rows
# (items x row width) and dense Gram (columns^2), and the basis-sum path's
# residual operator and uniforms (max(n^2, n k)); a walk holds at most the host's
# WALK_ENTRIES, or one draw where that one is larger
FLOAT_ENTRY_LIMIT = 10**7
ENUMERATION_LIMIT = 10**6
# a float pick must keep more than this share of its leverage as residual mass
RESIDUAL_TOLERANCE = 1e-9
# the draws per sample_volume call of the (3, 3) oracle checks: one call returns a
# list of about 0.14 MB and allocates at most about 0.6 MB on the way
DRAW_BATCH = 1000
# the fewest draws a host walks as one batch: per draw, the basis-sum walk beats a
# loop of calls from 4-6 draws at (12, 5), (30, 3) and (100, 3), from 8 at (3, 3) and
# from 10-12 at (3, 100) and (10, 1000); 8 boundary draws take 0.35-0.53x at n = 5-16
BATCH_WALK_MIN = 8
# float entries of the temporary a batched pick's downdate of Q' allocates at a time
DOWNDATE_ENTRIES = 2**16


def _check_float_entries(entries):
    if entries > FLOAT_ENTRY_LIMIT:
        raise SizeLimitError(
            f"float mode caps its arrays at {FLOAT_ENTRY_LIMIT} entries, this host needs {entries}"
        )


def _direction(qx, xqx, leverage):
    """The unit direction g = Q x / sqrt(x^T Q x) of a pick; conditioning sets Q -= g g^T.

    Raises DegenerateHostError unless x^T Q x > RESIDUAL_TOLERANCE x leverage:
    float drift has left mass on a row the exact measure gives none.
    """
    if not xqx > RESIDUAL_TOLERANCE * leverage:  # also rejects NaN
        raise DegenerateHostError(f"drawn row kept residual {xqx:.3e} of leverage {leverage:.3e}")
    return qx / math.sqrt(xqx)


def _as_rng(rng):
    """A Generator: rng itself, seeded from an int, or seeded from 0 when None."""
    try:
        return np.random.default_rng(0 if rng is None else rng)
    except ValueError:
        raise InvalidInputError(f"a seed must be a non-negative integer, got {rng!r}") from None


def _uniforms(rngs, count):
    """Row i: rngs[i].random(count), in list order; one Generator repeated gives one call."""
    if rngs.count(rngs[0]) == len(rngs):
        return rngs[0].random((len(rngs), count))
    uniforms = np.empty((len(rngs), count))
    for g, row in zip(rngs, uniforms):
        g.random(out=row)
    return uniforms


class RowFamily:
    """A finite family of integer rows in R^m supporting sparse projections.

    Subclasses fill in: n_items, ncols, item(i), sparse_row(i). The Gram
    and the generic float path (`RowResidual`, which reads the rows as
    padded sparse arrays) take every row from `sparse_rows`, built once; a
    subclass with more structure overrides `sample_float`, `_walk` (its
    vectorized walk), `_draw_entries` and WALK_ENTRIES. `walk_size()` is the
    one rule for how many draws walk together, read by `sample_float_batch`
    and by every caller that groups draws.
    """

    n_items = 0
    ncols = 0
    # float entries one walk of a Generator list holds on an explicit or boundary host,
    # max(rows x width, m^2) per draw (2 MB of G at most). Per draw, the walk took
    # 0.35-0.55x the loop's time at n = 5-16, 0.72x at n = 20 (8 draws), and 1.2-1.3x at
    # n = 24-30, where the walk's G outgrows the cache. So this walks 23 draws at n = 16
    # and 8 at n = 20, and from n = 21 (m^2 = 36,100) a list loops
    WALK_ENTRIES = 2**18

    def item(self, i):
        raise NotImplementedError

    def items(self):
        return [self.item(i) for i in range(self.n_items)]

    def _more_items_than(self, limit):
        return self.n_items > limit

    def sparse_row(self, i):
        raise NotImplementedError

    def item_row(self, ident):
        """The sparse row of the item named ident."""
        return self.sparse_row(self.item_index(ident))

    def subset_matrix(self, subset):
        """The len(subset) x ncols int64 matrix of the items named in subset, in order.

        Each identifier is checked by `item_index`; the rows' nonzero entries are
        then scattered from the padded sparse arrays in one step.
        """
        index = np.array([self.item_index(ident) for ident in subset], dtype=np.int64)
        coords, vals = self._sparse_arrays()[0][:, index], self._int_vals()[:, index]
        mat = np.zeros((len(index), self.ncols), dtype=np.int64)
        held = vals != 0  # padded slots hold (column 0, value 0)
        mat.put((coords + np.arange(len(index)) * self.ncols)[held], vals[held])
        return mat

    def sparse_rows(self):
        """Every row's sparse form, built once per host and kept."""
        if not hasattr(self, "_sparse_rows"):
            self._sparse_rows = [self.sparse_row(i) for i in range(self.n_items)]
        return self._sparse_rows

    def dense_row(self, i):
        vec = [0] * self.ncols
        for j, v in self.sparse_row(i):
            vec[j] += v
        return vec

    def gram(self):
        """Column Gram matrix host^T host, accumulated over the sparse rows."""
        if not hasattr(self, "_gram"):
            g = [[0] * self.ncols for _ in range(self.ncols)]
            for nz in self.sparse_rows():
                for a, va in nz:
                    ga = g[a]
                    for b, vb in nz:
                        ga[b] += va * vb
            self._gram = g
        return self._gram

    def gram_det(self):
        if not hasattr(self, "_gram_det"):
            self._gram_det = int_det(self.gram())
        return self._gram_det

    # -- float plumbing ---------------------------------------------------

    def row_width(self):
        """Largest row support: the width of the padded sparse arrays."""
        if not hasattr(self, "_width"):
            self._width = max(map(len, self.sparse_rows()))
        return self._width

    def _sparse_arrays(self):
        """Padded (width, rows) arrays: entry s of row i is vals[s, i] in column coords[s, i]."""
        if not hasattr(self, "_coords"):
            width = self.row_width()
            coords = np.zeros((width, self.n_items), dtype=np.int64)
            vals = np.zeros((width, self.n_items), dtype=np.float64)
            for i, row in enumerate(self.sparse_rows()):
                for s, (j, v) in enumerate(row):
                    coords[s, i] = j
                    vals[s, i] = v
            self._coords = coords
            self._vals = vals
        return self._coords, self._vals

    def _int_vals(self):
        """The entries of `_sparse_arrays()` as int64, built once per host."""
        if not hasattr(self, "_ivals"):
            vals = self._sparse_arrays()[1]
            if np.abs(vals).max(initial=0.0) >= 2.0**53:  # float64 holds every int below
                raise SizeLimitError("a host entry is too large to read back exactly from float64")
            self._ivals = vals.astype(np.int64)
        return self._ivals

    def _gram_inv_float(self):
        if not hasattr(self, "_winv"):
            gram = np.array(self.gram(), dtype=np.float64)
            # LU can invert a singular integer Gram without raising, from rounding
            if np.linalg.matrix_rank(gram) < self.ncols:
                raise DegenerateHostError("host Gram matrix is singular")
            self._winv = np.linalg.inv(gram)
        return self._winv

    def leverage_float(self):
        if not hasattr(self, "_lev"):
            coords, vals = self._sparse_arrays()
            w = self._gram_inv_float()
            # K(x,x) through the sparse support only
            lev = np.zeros(self.n_items)
            width = coords.shape[0]
            for a in range(width):
                for b in range(width):
                    lev += vals[a] * vals[b] * w[coords[a], coords[b]]
            self._lev = lev
        return self._lev

    def _draw_entries(self):
        """Float entries one draw holds: the padded sparse rows (rows x width) and G (m^2)."""
        return max(self.n_items * self.row_width(), self.ncols**2)

    def walk_size(self):
        """The most draws one walk holds: WALK_ENTRIES // entries per draw, at least 1."""
        return max(1, self.WALK_ENTRIES // self._draw_entries())

    def sample_float(self, rng):
        """Float64 chain-rule draw over the padded sparse rows of the whole host."""
        _check_float_entries(self._draw_entries())
        residual = RowResidual(self)
        uniforms = rng.random(self.ncols).tolist()  # the stream of ncols rng.random() calls
        return tuple(sorted(self.item(residual.pick(u)) for u in uniforms))

    def sample_float_batch(self, rngs):
        """`sample_float(g)` for each g in rngs, subset for subset: in even slices of at
        most `walk_size()` draws, each walked together (`_walk`), or looped where it holds
        fewer than BATCH_WALK_MIN."""
        _check_float_entries(self._draw_entries())
        size = len(rngs)
        count = -(-size // self.walk_size())  # the fewest slices that fit
        bounds = [i * size // count for i in range(count + 1)]
        out = []
        for lo, hi in zip(bounds, bounds[1:]):
            part = rngs[lo:hi]
            out += self._walk(part) if len(part) >= BATCH_WALK_MIN else map(self.sample_float, part)
        return out

    def _walk(self, rngs):
        """The draws of rngs as one vectorized walk (`RowResidualBatch`)."""
        residual = RowResidualBatch(self, len(rngs))
        picks = [residual.pick(u) for u in _uniforms(rngs, self.ncols).T]
        return [tuple(sorted(map(self.item, draw))) for draw in np.array(picks).T.tolist()]

    # -- exact plumbing ----------------------------------------------------

    def _gram_inv_exact(self):
        if not hasattr(self, "_winv_exact"):
            try:
                self._winv_exact = frac_inverse(self.gram())
            except InvalidInputError as exc:
                raise DegenerateHostError("host Gram matrix is singular") from exc
        return self._winv_exact

    def leverage_exact(self, i):
        """K(i, i) = row_i^T (host^T host)^{-1} row_i as an exact rational."""
        w = self._gram_inv_exact()
        sr = self.sparse_row(i)
        total = Fraction(0)
        for a, va in sr:
            for b, vb in sr:
                total += va * vb * w[a][b]
        return total


class RowResidual:
    """The state of a float chain-rule draw over a host's padded sparse rows.

    The residual operator is kept as a factor, Q = W - G^T G: row s of G is
    the direction g of pick s, so a pick writes one row instead of
    downdating an m x m matrix. r[i] = x_i^T Q x_i is the residual mass of
    row i, tracked by downdates, clipped at zero and zero on picked rows.
    """

    def __init__(self, family):
        self.coords, self.vals = family._sparse_arrays()
        self.leverage = family.leverage_float()
        self.w = family._gram_inv_float()
        self.g = np.empty_like(self.w)
        self.t = 0
        self.r = self.leverage.copy()

    @property
    def q(self):
        """The residual operator W - G^T G, materialized."""
        g = self.g[: self.t]
        return self.w - g.T @ g

    def pick(self, u):
        """Condition on the row at u * sum r of the cumulative residual mass; return its index."""
        r = self.r
        cum = np.cumsum(r)
        j = min(int(np.searchsorted(cum, u * cum[-1], side="right")), len(r) - 1)
        cj, vj = self.coords[:, j], self.vals[:, j]
        t = self.t
        qx = vj @ self.w[cj]
        if t:
            qx -= (self.g[:t, cj] @ vj) @ self.g[:t]  # Q x = W x - G^T (G x), O(t m)
        d = self.g[t] = _direction(qx, float(qx[cj] @ vj), self.leverage[j])
        self.t = t + 1
        proj = (d[self.coords] * self.vals).sum(axis=0)  # every row's dot product with d
        r -= proj * proj
        np.maximum(r, 0.0, out=r)
        r[j] = 0.0
        return j


class RowResidualBatch:
    """`RowResidual` vectorized over a leading draw axis: G (draws, m, m) and r (draws, rows).

    Each stacked matmul makes, draw by draw, the BLAS call of `RowResidual.pick`
    on operands of the same shapes and layouts, and the other steps run along the
    same axes. So each draw's r, G and picks equal a `RowResidual`'s, bit for bit.
    """

    def __init__(self, family, draws):
        self.coords, self.vals = family._sparse_arrays()
        self.leverage = family.leverage_float()
        self.w = family._gram_inv_float()
        self.g = np.empty((draws,) + self.w.shape)
        self.t = 0
        self.r = np.tile(self.leverage, (draws, 1))

    def pick(self, u):
        """Each draw i's `RowResidual.pick(u[i])`; raises where any one of them would."""
        r = self.r
        every = np.arange(len(r))
        cum = np.cumsum(r, axis=1)
        # searchsorted(side="right") on a nondecreasing cum: the count at or below the target
        j = np.minimum((cum <= (u * cum[:, -1])[:, None]).sum(axis=1), r.shape[1] - 1)
        cj = self.coords[:, j].T  # (draws, width)
        # each draw's row a strided column and G's picked columns in column-major order,
        # the layouts of vals[:, j] and g[:t, cj] in RowResidual.pick
        vj = np.take(self.vals, j, axis=1).T[:, :, None]
        t = self.t
        qx = (vj.transpose(0, 2, 1) @ self.w[cj])[:, 0]
        if t:
            g = self.g[:, :t]
            gx = g.transpose(0, 2, 1)[every[:, None], cj].transpose(0, 2, 1) @ vj
            qx -= (gx.transpose(0, 2, 1) @ g)[:, 0]  # Q x = W x - G^T (G x)
        xqx = (qx[every[:, None], cj][:, None, :] @ vj)[:, 0, 0]
        leverage = self.leverage[j]
        bad = np.flatnonzero(~(xqx > RESIDUAL_TOLERANCE * leverage))  # also NaN
        if len(bad):  # raise as the first such draw's own pick does
            _direction(qx[bad[0]], float(xqx[bad[0]]), leverage[bad[0]])
        d = self.g[:, t] = qx / np.sqrt(xqx)[:, None]
        self.t = t + 1
        proj = d[:, self.coords]
        proj *= self.vals  # in place: one (draws, width, rows) temporary, not two
        proj = proj.sum(axis=1)
        r -= proj * proj
        np.maximum(r, 0.0, out=r)
        r[every, j] = 0.0
        return j


class BasisSumRows(RowFamily):
    """All rows e_{b_1}+...+e_{b_k}, b in [1,n]^k, in lexicographic tuple order."""

    # float entries of Q' (or uniforms) in one walk, about 7.7 MB (plus a downdate slice of
    # DOWNDATE_ENTRIES): a walk holds at most WALK_ENTRIES // max(n^2, n k) draws. Per draw,
    # the walk stops getting cheaper at about 96 draws at (100, 3) and (100, 10), and from
    # 64-96 at (30, 3)
    WALK_ENTRIES = 96 * 100**2

    def __init__(self, n, k):
        if n < 1 or k < 3:
            raise InvalidInputError("need n >= 1 and k >= 3")
        self.n = n
        self.k = k
        self.ncols = n
        # Gram = alpha J + beta I with alpha = k (k-1) n^(k-2), beta = k n^(k-1), so
        # W = (I - gamma J) / beta with gamma = alpha / (beta + n alpha) = (k-1)/(k n)
        self._gamma = Fraction(k - 1, k * n)

    @property
    def n_items(self):
        # built on read, so a guard can refuse a large host before n^k exists
        return self.n**self.k

    def _more_items_than(self, limit):
        # n^k >= 2^k > limit once n > 1 and k >= limit.bit_length(); below that n^k is small
        return self.n > 1 and self.k >= limit.bit_length() or self.n_items > limit

    def item(self, i):
        digits = []
        for _ in range(self.k):
            i, d = divmod(i, self.n)
            digits.append(d + 1)
        return tuple(reversed(digits))

    def _checked(self, b):
        validate_row_tuple(b, self.n)
        if len(b) != self.k:
            raise InvalidInputError(f"tuple weight {len(b)} != {self.k}")
        return b

    def item_index(self, b):
        i = 0
        for x in self._checked(b):
            i = i * self.n + (x - 1)
        return i

    def item_row(self, b):
        counts = {}  # the slots of b counted directly, not through its index and back
        for x in self._checked(b):
            counts[x - 1] = counts.get(x - 1, 0) + 1
        return tuple(sorted(counts.items()))

    def subset_matrix(self, subset):
        """The len(subset) x n int64 count matrix of the tuples in subset, in order.

        A subset numpy reads as an (m, k) integer array over [1, n] is checked once
        and counted by one bincount; any other subset is checked tuple by tuple,
        and a malformed tuple raises the InvalidInputError of `item_row`.
        """
        n, k = self.n, self.k
        try:
            ids = np.asarray(subset)
        except (TypeError, ValueError):  # a ragged subset
            ids = None
        if not (ids is not None and ids.ndim == 2 and ids.shape[1] == k
                and ids.dtype.kind in "iu" and ids.min(initial=1) >= 1 and ids.max(initial=n) <= n):
            ids = np.array([self._checked(b) for b in subset], dtype=np.int64).reshape(-1, k)
        m = len(ids)
        flat = np.arange(m)[:, None] * n + (ids.astype(np.int64, copy=False) - 1)
        return np.bincount(flat.ravel(), minlength=m * n).reshape(m, n).astype(np.int64, copy=False)

    def sparse_row(self, i):
        return self.item_row(self.item(i))

    def gram(self):
        return gram_closed_form(self.n, self.k)

    def gram_det(self):
        return gram_determinant(self.n, self.k)

    def _gram_inv_exact(self):
        beta = self.k * self.n ** (self.k - 1)
        return [[((a == b) - self._gamma) / beta for b in range(self.n)] for a in range(self.n)]

    def leverage_exact(self, i):
        sq = sum(v * v for _, v in self.sparse_row(i))
        return (sq - self._gamma * self.k**2) / (self.k * self.n ** (self.k - 1))

    def _draw_entries(self):
        return max(self.n * self.n, self.n * self.k)  # Q' and the n k uniforms

    def sample_float(self, rng):
        """Chain-rule draw in the n-dimensional dual space; no host row is built."""
        _check_float_entries(self._draw_entries())
        residual = BasisResidual(self)
        k = self.k
        uniforms = rng.random(self.n * k).tolist()  # the stream of n rng.random(k) calls
        return tuple(sorted(residual.pick(uniforms[s : s + k]) for s in range(0, self.n * k, k)))

    def _walk(self, rngs):
        """The draws of rngs as one vectorized walk (`BasisResidualBatch`)."""
        n, k = self.n, self.k
        residual = BasisResidualBatch(self, len(rngs))
        uniforms = _uniforms(rngs, n * k)
        picks = [
            list(map(tuple, (residual.pick(uniforms[:, s : s + k]) + 1).tolist()))
            for s in range(0, n * k, k)
        ]
        return [tuple(sorted(draw)) for draw in zip(*picks)]

    def _residual_start(self):
        """A draw's start state: Q' = beta W = I - gamma J and its slot-loop aggregates."""
        if not hasattr(self, "_start"):
            n, gamma = self.n, float(self._gamma)
            self._start = (
                np.eye(n) - gamma,
                [1.0 - gamma] * n,  # diag Q'
                [1.0 - n * gamma] * n,  # Q' 1
                n * (1.0 - gamma),  # tr Q'
                n * (1.0 - n * gamma),  # 1^T Q' 1
                gamma * self.k**2,  # beta K(b, b) = sum_i x_i^2 - gamma k^2
            )
        return self._start


def _choose_slot(uniforms, weights):
    """Index a with probability weights[a] / sum(weights), located by the next uniform."""
    cum = list(itertools.accumulate(weights))
    total = cum[-1]
    if total <= 0.0:
        raise DegenerateHostError("residual mass vanished before a full subset was chosen")
    a = bisect_right(cum, next(uniforms) * total)
    if a == len(cum):  # rounding left the target at the top: take the last positive slot
        a = max(i for i, w in enumerate(weights) if w > 0.0)
    return a


class BasisResidual:
    """The residual operator of a basis-sum chain-rule draw, kept as q = Q' = beta Q.

    Tuple b carries the residual mass r_b = x_b^T Q x_b, x_b its count vector;
    in these units a pick's Q -= g g^T reads Q' -= g' g'^T, g' = Q' x / sqrt(x^T Q' x).
    Beside Q' (n x n, numpy) the slot loop reads diag Q' and Q' 1 as Python
    lists and tr Q' and 1^T Q' 1 as floats, so that a slot costs O(n) Python
    float work without numpy per-call overhead. A new residual copies the
    host's start state.
    """

    def __init__(self, family):
        self.n, self.k = family.n, family.k
        q, diag, q1, self.trace, self.ones, self.leverage_shift = family._residual_start()
        self.q, self.diag, self.q1 = q.copy(), list(diag), list(q1)

    def walk(self, choose):
        """Build one tuple slot by slot; choose(weights) names the next slot's index.

        With prefix count vector p and u slots left after candidate a, the
        remaining slots are uniform, so E y = (u/n) 1 and
        E y y^T = (u/n) I + (u(u-1)/n^2) J. Candidate a then carries the mean
        residual of its completions,

            (p+e_a)^T Q (p+e_a) + (2u/n) 1^T Q (p+e_a)
                + (u/n) tr Q + (u(u-1)/n^2) 1^T Q 1,

        clipped at zero. The a-free terms are kept: they set how much weight
        the completions carry against the prefix. Returns the zero-based
        slot indices, Q x as a list, x^T Q x and x^T x for the finished
        tuple x.
        """
        n, k = self.n, self.k
        diag, q1, q = self.diag, self.q1, self.q
        qx = [0.0] * n
        xqx = oqx = 0.0  # x^T Q x and 1^T Q x of the prefix
        slots = []
        counts = {}
        sq = 0  # x^T x: a slot on an index already counted c times adds 2 c + 1
        for s in range(k):
            u = k - 1 - s
            f = 2.0 * u / n
            c = xqx + f * oqx + (u / n) * self.trace + (u * (u - 1) / (n * n)) * self.ones
            weights = [c + 2.0 * a + d + f * o for a, d, o in zip(qx, diag, q1)]
            a = choose([w if w > 0.0 else 0.0 for w in weights])
            xqx += 2.0 * qx[a] + diag[a]
            oqx += q1[a]
            qx = [x + y for x, y in zip(qx, q[a].tolist())]
            slots.append(a)
            seen = counts.get(a, 0)
            sq += 2 * seen + 1
            counts[a] = seen + 1
        return slots, qx, xqx, sq

    def pick(self, uniforms):
        """Draw one tuple, uniforms[s] choosing slot s, and condition Q on it."""
        slots, qx, xqx, sq = self.walk(partial(_choose_slot, iter(uniforms)))
        g = _direction(np.array(qx), xqx, sq - self.leverage_shift)  # beta K(x, x)
        self.q -= np.outer(g, g)
        g = g.tolist()
        # the slot loop's aggregates follow Q -= g g^T; both sums run left to right, as
        # np.cumsum does in BasisResidualBatch (sum() of floats is compensated from Python 3.12)
        sg = gg = 0.0
        for x in g:
            sg += x
            gg += x * x
        self.diag = [d - x * x for d, x in zip(self.diag, g)]
        self.q1 = [o - x * sg for o, x in zip(self.q1, g)]
        self.trace -= gg
        self.ones -= sg * sg
        return tuple(a + 1 for a in slots)


class BasisResidualBatch:
    """The residual operators of `draws` basis-sum draws, advanced together.

    `BasisResidual` vectorized over a leading draw axis: each draw keeps Q'
    (draws, n, n), diag Q' and Q' 1 (draws, n), and tr Q' and 1^T Q' 1
    (draws,). Every float operation is the one the per-call walk makes, in
    its order: the weights associate as ((c + 2 qx) + diag) + f q1, and the
    cumulative weights and the sums over g run left to right (np.cumsum,
    not the pairwise np.sum). So each draw's state, and each tuple it picks,
    equals that of a `BasisResidual` fed the same uniforms, bit for bit.
    """

    def __init__(self, family, draws):
        self.n, self.k = family.n, family.k
        q, diag, q1, trace, ones, self.leverage_shift = family._residual_start()
        self.q = np.repeat(q[None], draws, axis=0)
        self.diag = np.tile(diag, (draws, 1))
        self.q1 = np.tile(q1, (draws, 1))
        self.trace = np.full(draws, trace)
        self.ones = np.full(draws, ones)

    def pick(self, uniforms):
        """Draw one tuple per draw, uniforms[:, s] choosing slot s, and condition each Q' on it.

        Returns the zero-based slots, shape (draws, k). Raises
        DegenerateHostError where any one draw's `BasisResidual.pick` would.
        """
        n, k = self.n, self.k
        diag, q1, q = self.diag, self.q1, self.q
        draws = len(q)
        rows = np.arange(draws) * n  # flat offsets: draw i's entry a is [i n + a] of (draws, n)
        qrows = q.reshape(draws * n, n)  # Q' as draws n rows; row i n + a is row a of draw i
        qx = np.zeros((draws, n))
        xqx = np.zeros(draws)
        oqx = np.zeros(draws)
        weights = np.empty((draws, n))
        scaled = np.empty((draws, n))
        cum = np.empty((draws, n))
        slots = np.empty((draws, k), dtype=np.int64)
        for s in range(k):
            u = k - 1 - s
            f = 2.0 * u / n
            c = xqx + f * oqx + (u / n) * self.trace + (u * (u - 1) / (n * n)) * self.ones
            # ((c + 2 qx) + diag) + f q1, as the per-call walk associates it
            np.multiply(qx, 2.0, out=weights)
            np.add(c[:, None], weights, out=weights)
            weights += diag
            weights += np.multiply(q1, f, out=scaled)
            np.fmax(weights, 0.0, out=weights)  # a NaN weight reads 0, as a negative one does
            np.cumsum(weights, axis=1, out=cum)
            total = cum[:, -1]
            if total.min() <= 0.0:
                raise DegenerateHostError("residual mass vanished before a full subset was chosen")
            # bisect_right: the count of cumulative weights at or below the target
            a = (cum <= (uniforms[:, s] * total)[:, None]).sum(axis=1)
            if a.max() == n:  # as _choose_slot: the last positive slot
                top = a == n
                a[top] = n - 1 - np.argmax(weights[top, ::-1] > 0.0, axis=1)
            at = rows + a
            xqx = xqx + (2.0 * qx.take(at) + diag.take(at))
            oqx = oqx + q1.take(at)
            qx = qx + qrows.take(at, axis=0)
            slots[:, s] = a
        # x^T x = sum of squared slot counts, counted once from the slots
        counts = np.bincount((rows[:, None] + slots).ravel(), minlength=draws * n)
        sq = (counts * counts).reshape(draws, n).sum(axis=1)
        leverage = sq - self.leverage_shift  # beta K(x, x)
        bad = np.flatnonzero(~(xqx > RESIDUAL_TOLERANCE * leverage))  # also NaN
        if len(bad):  # raise as the first such draw's own pick does
            _direction(qx[bad[0]], xqx[bad[0]], leverage[bad[0]])
        g = qx / np.sqrt(xqx)[:, None]
        step = max(1, DOWNDATE_ENTRIES // (n * n))
        for lo in range(0, draws, step):  # the outer products' temporary holds one slice
            gs = g[lo:lo + step]
            q[lo:lo + step] -= gs[:, :, None] * gs[:, None, :]
        sg = np.cumsum(g, axis=1)[:, -1]
        self.diag = diag - g * g
        self.q1 = q1 - g * sg[:, None]
        self.trace = self.trace - np.cumsum(g * g, axis=1)[:, -1]
        self.ones = self.ones - sg * sg
        return slots


class BoundaryRows(RowFamily):
    """Rows of the transposed boundary matrix: one row per (r+1)-subset of [n]."""

    def __init__(self, n, r=2):
        if not 1 <= r <= n - 2:
            raise InvalidInputError(f"need 1 <= r <= n-2, got r={r}, n={n}")
        self.n = n
        self.r = r
        self._row_faces = boundary_col_faces(n, r)  # items
        self._col_faces = boundary_row_faces(n, r)  # ambient coordinates
        self._col_index = {S: j for j, S in enumerate(self._col_faces)}
        self.n_items = len(self._row_faces)
        self.ncols = len(self._col_faces)
        self._face_index = {f: i for i, f in enumerate(self._row_faces)}
        # every row's (column, sign) pairs, read off the faces once: sparse_rows() returns them
        self._sparse_rows = [
            tuple((self._col_index[S], sign) for S, sign in boundary_column_sparse(n, r, face))
            for face in self._row_faces
        ]

    def item(self, i):
        return self._row_faces[i]

    def item_index(self, face):
        try:
            return self._face_index[tuple(face)]
        except (KeyError, TypeError):
            raise InvalidInputError(f"{face!r} is not a row face of this host") from None

    def sparse_row(self, i):
        return self._sparse_rows[i]

    # The boundary Gram has exactly the eigenvalues 1 and n: K projects onto
    # the S_n-invariant coboundary space (Lyons 2003; Kalai 1983). So
    # W = ((n+1) I - Gram) / n and every row has leverage (r+1)/n.

    def _gram_inv_float(self):
        if not hasattr(self, "_winv"):
            gram = np.array(self.gram(), dtype=np.float64)
            self._winv = ((self.n + 1) * np.eye(self.ncols) - gram) / self.n
        return self._winv

    def _gram_inv_exact(self):
        n = self.n
        return [
            [Fraction((n + 1) * (a == b) - x, n) for b, x in enumerate(row)]
            for a, row in enumerate(self.gram())
        ]

    def leverage_float(self):
        return np.full(self.n_items, (self.r + 1) / self.n)

    def leverage_exact(self, i):
        return Fraction(self.r + 1, self.n)


class MatrixRows(RowFamily):
    """Generic host: the rows of an explicit integer matrix."""

    def __init__(self, rows):
        rows = [list(map(int, r)) for r in rows]
        if not rows:
            raise InvalidInputError("empty host")
        self.ncols = len(rows[0])
        if any(len(r) != self.ncols for r in rows):
            raise InvalidInputError("ragged host matrix")
        self._rows = rows
        self.n_items = len(rows)

    def item(self, i):
        return i

    def item_index(self, i):
        if not (isinstance(i, (int, np.integer)) and 0 <= i < self.n_items):
            raise InvalidInputError(f"row index {i!r} outside [0, {self.n_items})")
        return int(i)

    def sparse_row(self, i):
        return tuple((j, v) for j, v in enumerate(self._rows[i]) if v)

    def dense_row(self, i):
        return list(self._rows[i])


def _exact_categorical(weights, total, rng):
    """Draw an index with probability weights[i]/total, exactly.

    Refines a uniform dyadic rational u in [0, total) one random bit at a
    time until its interval sits inside a single item's cumulative slot.
    """
    prefix = list(itertools.accumulate(weights))
    j = 0
    scale = 1
    i_lo = 0
    for _ in range(4096):
        lo = Fraction(j, scale) * total
        hi = Fraction(j + 1, scale) * total
        i_lo = bisect_right(prefix, lo)
        # owner is constant on [lo, hi) once the slot of lo reaches past hi
        if i_lo == len(prefix) - 1 or prefix[i_lo] >= hi:
            return i_lo
        j = 2 * j + int(rng.integers(0, 2))
        scale *= 2
    return i_lo  # pragma: no cover - dyadic boundary pathologically unresolved


def _sample_volume_exact(family, rng):
    if family._more_items_than(EXACT_ITEM_LIMIT):  # the count itself may be too long to print
        raise SizeLimitError(f"exact mode caps the item count at {EXACT_ITEM_LIMIT}")
    q = [list(row) for row in family._gram_inv_exact()]
    r = [family.leverage_exact(i) for i in range(family.n_items)]
    sparse_rows = family.sparse_rows()
    chosen = []
    for _ in range(family.ncols):
        # exact residuals vanish on spent rows, so every pick keeps x^T Q x > 0
        j = _exact_categorical(r, sum(r), rng)
        chosen.append(j)
        qx = [sum(v * qa[c] for c, v in sparse_rows[j]) for qa in q]
        xqx = sum(v * qx[c] for c, v in sparse_rows[j])
        for qa, s in zip(q, qx):  # Q -= (Q x)(Q x)^T / x^T Q x
            s /= xqx
            for b, y in enumerate(qx):
                qa[b] -= s * y
        for i, sr in enumerate(sparse_rows):
            if r[i]:
                proj = sum(v * qx[c] for c, v in sr)
                r[i] -= proj * proj / xqx
    return tuple(sorted(family.item(j) for j in chosen))


def _generator_list(rng):
    """rng as a list when it is a list or tuple of Generators, else None (a seed or a Generator)."""
    if not isinstance(rng, (list, tuple)):
        return None
    if not rng:
        raise InvalidInputError("need at least one Generator or seed entry")
    # one check per distinct type, so [g] * B costs one type() pass
    is_gen = [issubclass(t, np.random.Generator) for t in set(map(type, rng))]
    if not any(is_gen):
        return None  # a list of ints is one seed, as for default_rng
    if not all(is_gen):
        raise InvalidInputError("a Generator list must hold only Generators")
    return list(rng)


def sample_volume(family, rng=None, precision="float64"):
    """Draw a row subset Y with P(Y) = det(family[Y])^2 / det(Gram).

    rng: a Generator (its stream continues), an int seed (or a list of ints,
    one seed), None for seed 0, or a list of Generators. A list of
    Generators returns what one call per entry returns, in order, and leaves
    each Generator where those calls leave it. A Generator may repeat, so
    [rng] * B gives the B subsets that B successive calls on rng return, and a
    Generator or seed alone is a list of one. A float64 host takes the list
    in even slices of at most `family.walk_size()` draws and walks a slice of
    B >= BATCH_WALK_MIN draws as one walk vectorized over them, whose numpy
    call overhead per pick the B draws share; smaller slices and exact
    precision loop.
    """
    rngs = _generator_list(rng)
    if family.ncols < 1:
        raise InvalidInputError("host needs at least one column")
    if precision not in PRECISIONS:
        raise InvalidInputError(f"unknown precision {precision!r}")
    one = rngs is None
    if one:
        rngs = [_as_rng(rng)]
    if precision == "float64":
        subsets = family.sample_float_batch(rngs)
    else:
        subsets = [_sample_volume_exact(family, g) for g in rngs]
    return subsets[0] if one else subsets


def enumerate_distribution(family):
    """Exact measure of every full-size subset with nonzero determinant.

    Returns [(identifiers, probability)] with rational probabilities that sum
    to exactly 1 by Cauchy-Binet. The list is built once per host and kept on
    it; each call returns a fresh copy.
    """
    m = family.ncols
    # C(rows, m) >= rows for 0 < m < rows, so a host of more rows than the guard is refused
    limit = ENUMERATION_LIMIT
    if family._more_items_than(limit) or math.comb(family.n_items, m) > limit:
        raise SizeLimitError(f"the {m}-row subsets exceed the enumeration guard {limit}")
    if not hasattr(family, "_distribution"):
        denom = family.gram_det()
        if denom == 0:
            raise DegenerateHostError("host Gram determinant is zero")
        rows = [family.dense_row(i) for i in range(family.n_items)]
        items = family.items()
        out = []
        for combo in itertools.combinations(range(family.n_items), m):
            d = int_det([rows[i] for i in combo])
            if d:
                out.append((tuple(items[i] for i in combo), Fraction(d * d, denom)))
        family._distribution = out
    return list(family._distribution)


@lru_cache(maxsize=8)
def cached_family(cls, *args):
    """The shared host cls(*args), so its Gram and leverage data are built once."""
    return cls(*args)


def sample_matrix(n, k, rng=None, precision="float64"):
    """One n x n integer matrix drawn from the (n, k) squared-determinant measure.

    Rows are canonicalized in lexicographic tuple order.
    """
    family = cached_family(BasisSumRows, n, k)
    return [row_vector(b, n) for b in sample_volume(family, rng, precision)]


def sample_hypertree(n, rng=None, precision="float64"):
    """A 2-dimensional hypertree on n vertices, by volume sampling boundary rows.

    Returns (faces, matrix): the chosen 3-subsets of [n] and the square
    submatrix of the transposed boundary operator whose cokernel is the
    first homology group of the complex.
    """
    if n < 4:
        raise InvalidInputError("need n >= 4 for 2-dimensional hypertrees")
    family = cached_family(BoundaryRows, n, 2)
    subset = sample_volume(family, rng, precision)
    return subset, family.subset_matrix(subset).tolist()
