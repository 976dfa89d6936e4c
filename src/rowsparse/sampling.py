"""Volume sampling of row subsets: P(Y) = det(host[Y])^2 / det(host^T host).

The sampler is the sequential conditional scheme for projection determinantal
kernels. With W = (host^T host)^{-1} and K(x, y) = row_x^T W row_y, the
kernel K is a rank-m projection (m = column count), so drawing one item per
step with probability proportional to its residual kernel mass

    r_x = K(x, x) - sum_j <row_x, c_j>^2,   c_j = W v_j,

where the v_j are the W-orthonormalized directions of the already chosen
rows, realizes the squared-determinant measure exactly. Residual totals
telescope: sum_x r_x = m - t after t picks.

Each host structure has one float64 sampler (`sample_float`):

* the generic path (`BoundaryRows`, `MatrixRows`) keeps every row's residual
  in padded sparse arrays and downdates each row through its support, so a
  draw costs O(N * m * nnz) time and O(N * nnz + m^2) memory for N rows;
* the basis-sum host (`BasisSumRows`) never builds its n^k rows. It keeps
  the n x n residual operator Q of the dual space, r_b = x_b^T Q x_b, and
  draws each tuple one slot at a time from exact marginals (`BasisResidual`),
  so a draw costs O(n^3 + k n^2) time and O(n^2) memory.

An exact-rational path, generic over hosts, covers micro instances, and the
enumeration oracle is exact always.
"""

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DegenerateHostError, InvalidInputError, SizeLimitError
from .intlinalg import frac_inverse, int_det
from .structured import (
    boundary_col_faces,
    boundary_column_sparse,
    boundary_row_faces,
    gram_closed_form,
    gram_determinant,
    validate_row_tuple,
)

EXACT_ITEM_LIMIT = 10**5
# caps the float paths' arrays: the generic path's padded sparse rows
# (items x row width) and dense Gram (columns^2), and the basis-sum path's
# residual operator (n^2)
FLOAT_ENTRY_LIMIT = 10**7
ENUMERATION_LIMIT = 10**6


@dataclass(frozen=True)
class SamplerConfig:
    seed: int = 0
    precision_mode: str = "float64"
    reorthogonalization_tolerance: float = 1e-9

    def __post_init__(self):
        if self.precision_mode not in ("float64", "exact"):
            raise InvalidInputError(f"unknown precision mode {self.precision_mode!r}")
        if not 0.0 < self.reorthogonalization_tolerance <= 1e-6:
            raise InvalidInputError("tolerance must lie in (0, 1e-6]")


DEFAULT_CONFIG = SamplerConfig()


def _check_float_entries(entries):
    if entries > FLOAT_ENTRY_LIMIT:
        raise SizeLimitError(
            f"float mode caps its arrays at {FLOAT_ENTRY_LIMIT} entries, this host needs {entries}"
        )


def _as_rng(rng, config):
    if rng is None:
        return np.random.default_rng(config.seed)
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    return rng


class RowFamily:
    """A finite family of integer rows in R^m supporting sparse projections.

    Subclasses fill in: n_items, ncols, item(i), sparse_row(i).
    `coords`/`vals` give the padded sparse layout used by the generic
    vectorized float path; a subclass with more structure overrides
    `sample_float`.
    """

    n_items = 0
    ncols = 0

    def item(self, i):
        raise NotImplementedError

    def items(self):
        return [self.item(i) for i in range(self.n_items)]

    def sparse_row(self, i):
        raise NotImplementedError

    def dense_row(self, i):
        vec = [0] * self.ncols
        for j, v in self.sparse_row(i):
            vec[j] += v
        return vec

    def gram(self):
        """Column Gram matrix host^T host, accumulated over the sparse rows."""
        if not hasattr(self, "_gram"):
            g = [[0] * self.ncols for _ in range(self.ncols)]
            for i in range(self.n_items):
                nz = self.sparse_row(i)
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
            self._width = max(len(self.sparse_row(i)) for i in range(self.n_items))
        return self._width

    def _sparse_arrays(self):
        if not hasattr(self, "_coords"):
            width = self.row_width()
            coords = np.zeros((self.n_items, width), dtype=np.int64)
            vals = np.zeros((self.n_items, width), dtype=np.float64)
            for i in range(self.n_items):
                for s, (j, v) in enumerate(self.sparse_row(i)):
                    coords[i, s] = j
                    vals[i, s] = v
            self._coords = coords
            self._vals = vals
        return self._coords, self._vals

    def _gram_inv_float(self):
        if not hasattr(self, "_winv"):
            g = np.array(self.gram(), dtype=np.float64)
            try:
                self._winv = np.linalg.inv(g)
            except np.linalg.LinAlgError:
                self._winv = np.linalg.pinv(g)
        return self._winv

    def leverage_float(self):
        if not hasattr(self, "_lev"):
            coords, vals = self._sparse_arrays()
            w = self._gram_inv_float()
            # K(x,x) through the sparse support only
            lev = np.zeros(self.n_items)
            width = coords.shape[1]
            for a in range(width):
                for b in range(width):
                    lev += vals[:, a] * vals[:, b] * w[coords[:, a], coords[:, b]]
            self._lev = lev
        return self._lev

    def sample_float(self, rng, config):
        """Float64 chain-rule draw over the padded sparse rows of the whole host."""
        m = self.ncols
        n_items = self.n_items
        _check_float_entries(max(n_items * self.row_width(), m * m))
        tol = config.reorthogonalization_tolerance
        base = self.leverage_float()
        coords, vals = self._sparse_arrays()
        winv = self._gram_inv_float()
        for attempt in range(3):
            r = base.copy()
            chosen = []
            dirs_v = []
            dirs_c = []
            ok = True
            for _ in range(m):
                np.clip(r, 0.0, None, out=r)
                if chosen:
                    r[np.array(chosen)] = 0.0
                total = r.sum()
                if total <= tol:
                    ok = False
                    break
                cum = np.cumsum(r)
                u = rng.random() * cum[-1]
                j = int(np.searchsorted(cum, u, side="right"))
                j = min(j, n_items - 1)
                chosen.append(j)
                v = np.array(self.dense_row(j), dtype=np.float64)
                passes = 2 if attempt > 0 else 1
                for _ in range(passes):
                    for vv, cc in zip(dirs_v, dirs_c):
                        v -= (v @ cc) * vv
                c = winv @ v
                norm2 = float(v @ c)
                if norm2 <= tol:
                    ok = False
                    break
                scale = math.sqrt(norm2)
                v /= scale
                c = c / scale
                dirs_v.append(v)
                dirs_c.append(c)
                proj = (c[coords] * vals).sum(axis=1)  # every row's dot product with c
                r -= proj * proj
            if ok:
                return tuple(sorted(self.item(j) for j in chosen))
        raise DegenerateHostError("residual mass vanished before a full subset was chosen")

    # -- exact plumbing ----------------------------------------------------

    def _gram_inv_exact(self):
        if not hasattr(self, "_winv_exact"):
            try:
                self._winv_exact = frac_inverse(self.gram())
            except InvalidInputError as exc:
                raise DegenerateHostError("host Gram matrix is singular") from exc
        return self._winv_exact

    def gram_inv_apply_exact(self, vec):
        w = self._gram_inv_exact()
        return [sum(wr[j] * vec[j] for j in range(self.ncols)) for wr in w]

    def leverage_exact(self, i):
        """K(i, i) = row_i^T (host^T host)^{-1} row_i as an exact rational."""
        w = self._gram_inv_exact()
        sr = self.sparse_row(i)
        total = Fraction(0)
        for a, va in sr:
            for b, vb in sr:
                total += va * vb * w[a][b]
        return total


class BasisSumRows(RowFamily):
    """All rows e_{b_1}+...+e_{b_k}, b in [1,n]^k, in lexicographic tuple order."""

    def __init__(self, n, k):
        if n < 1 or k < 3:
            raise InvalidInputError("need n >= 1 and k >= 3")
        self.n = n
        self.k = k
        self.ncols = n
        self.n_items = n**k
        self._alpha = k * (k - 1) * n ** (k - 2)
        self._beta = k * n ** (k - 1)
        # (alpha J + beta I)^{-1} = (I - gamma J) / beta
        self._gamma = Fraction(self._alpha, self._beta + n * self._alpha)

    def item(self, i):
        digits = []
        for _ in range(self.k):
            i, d = divmod(i, self.n)
            digits.append(d + 1)
        return tuple(reversed(digits))

    def item_index(self, b):
        validate_row_tuple(b, self.n)
        if len(b) != self.k:
            raise InvalidInputError(f"tuple weight {len(b)} != {self.k}")
        i = 0
        for x in b:
            i = i * self.n + (x - 1)
        return i

    def sparse_row(self, i):
        counts = {}
        for x in self.item(i):
            counts[x - 1] = counts.get(x - 1, 0) + 1
        return tuple(sorted(counts.items()))

    def gram(self):
        return gram_closed_form(self.n, self.k)

    def gram_det(self):
        return gram_determinant(self.n, self.k)

    def gram_inv_apply_exact(self, vec):
        s = sum(vec)
        return [Fraction(v - self._gamma * s, self._beta) for v in vec]

    def leverage_exact(self, i):
        sq = sum(v * v for _, v in self.sparse_row(i))
        return Fraction(sq - self._gamma * self.k**2, self._beta)

    def sample_float(self, rng, config):
        """Chain-rule draw in the n-dimensional dual space; no host row is built."""
        _check_float_entries(self.n * self.n)
        residual = BasisResidual(self)
        tol = config.reorthogonalization_tolerance
        return tuple(sorted(residual.draw(rng, tol) for _ in range(self.n)))


class BasisResidual:
    """The residual operator Q of a basis-sum chain-rule draw.

    After t picks the residual kernel mass of tuple b is r_b = x_b^T Q x_b,
    where x_b is b's count vector. Q starts at W = (I - gamma J) / beta and
    each pick x downdates it by g g^T with g = Q x / sqrt(x^T Q x). Beside Q
    (n x n, numpy) the slot loop reads diag Q and Q 1 as Python lists and
    tr Q and 1^T Q 1 as floats, so that a slot costs O(n) Python float work
    without numpy per-call overhead.
    """

    def __init__(self, family):
        n = self.n = family.n
        self.k = family.k
        gamma = float(family._gamma)
        self.beta = family._beta
        self.q = (np.eye(n) - gamma) / self.beta
        self.diag = [(1.0 - gamma) / self.beta] * n
        self.q1 = [(1.0 - n * gamma) / self.beta] * n
        self.trace = n * (1.0 - gamma) / self.beta
        self.ones = n * (1.0 - n * gamma) / self.beta
        self.leverage_shift = gamma * self.k**2  # beta K(b, b) = sum_i x_i^2 - gamma k^2

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
        slot indices, Q x as a list and x^T Q x for the finished tuple x.
        """
        n, k = self.n, self.k
        diag, q1, q = self.diag, self.q1, self.q
        qx = [0.0] * n
        xqx = oqx = 0.0  # x^T Q x and 1^T Q x of the prefix
        slots = []
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
        return slots, qx, xqx

    def draw(self, rng, tol):
        """Draw one tuple from the residual measure and condition Q on it.

        Raises DegenerateHostError when the drawn tuple's residual is at most
        tol times its own closed-form leverage, i.e. when float drift has
        left mass on a tuple the exact measure gives none.
        """
        uniforms = iter(rng.random(self.k).tolist())

        def choose(weights):
            total = sum(weights)
            if total <= 0.0:
                raise DegenerateHostError("residual mass vanished before a full subset was chosen")
            target = next(uniforms) * total
            acc = 0.0
            for a, w in enumerate(weights):
                if w > 0.0:
                    acc += w
                    last = a
                    if target < acc:
                        return a
            return last  # rounding left target at the top of the last positive slot

        slots, qx, xqx = self.walk(choose)
        leverage = (sum(map(slots.count, slots)) - self.leverage_shift) / self.beta
        if xqx <= tol * leverage:
            raise DegenerateHostError(
                f"drawn tuple kept residual {xqx:.3e} against leverage {leverage:.3e}"
            )
        # Q -= g g^T with g = Q x / sqrt(x^T Q x), and the slot loop's aggregates with it
        g = np.array(qx) / math.sqrt(xqx)
        self.q -= np.outer(g, g)
        g = g.tolist()
        sg = sum(g)
        self.diag = [d - x * x for d, x in zip(self.diag, g)]
        self.q1 = [o - x * sg for o, x in zip(self.q1, g)]
        self.trace -= sum(x * x for x in g)
        self.ones -= sg * sg
        return tuple(a + 1 for a in slots)


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

    def item(self, i):
        return self._row_faces[i]

    def item_index(self, face):
        return self._face_index[tuple(face)]

    def sparse_row(self, i):
        face = self._row_faces[i]
        return tuple(
            (self._col_index[S], sign) for S, sign in boundary_column_sparse(self.n, self.r, face)
        )


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
    if family.n_items > EXACT_ITEM_LIMIT:
        raise SizeLimitError(
            f"exact mode caps the item count at {EXACT_ITEM_LIMIT}, got {family.n_items}"
        )
    m = family.ncols
    r = [family.leverage_exact(i) for i in range(family.n_items)]
    sparse_rows = [family.sparse_row(i) for i in range(family.n_items)]
    chosen = []
    dirs = []  # (residual direction v, c = W v, norm2 = v^T W v), unnormalized
    for _ in range(m):
        total = sum(r)
        if total == 0:
            raise DegenerateHostError("exact residuals vanished: host is rank deficient")
        j = _exact_categorical(r, total, rng)
        chosen.append(j)
        v = [Fraction(x) for x in family.dense_row(j)]
        for vv, cc, nn in dirs:
            coef = sum(a * b for a, b in zip(v, cc)) / nn
            v = [a - coef * b for a, b in zip(v, vv)]
        c = family.gram_inv_apply_exact(v)
        norm2 = sum(a * b for a, b in zip(v, c))
        if norm2 == 0:
            raise DegenerateHostError("chosen row had zero exact residual")
        dirs.append((v, c, norm2))
        for i, sr in enumerate(sparse_rows):
            if r[i] == 0:
                continue
            proj = sum(val * c[col] for col, val in sr)
            r[i] -= proj * proj / norm2
        r[j] = Fraction(0)
    return tuple(sorted(family.item(j) for j in chosen))


def sample_volume(family, rng=None, config=DEFAULT_CONFIG):
    """Draw a row subset Y with P(Y) = det(family[Y])^2 / det(Gram)."""
    rng = _as_rng(rng, config)
    if family.ncols < 1:
        raise InvalidInputError("host needs at least one column")
    if config.precision_mode == "exact":
        return _sample_volume_exact(family, rng)
    return family.sample_float(rng, config)


def enumerate_distribution(family, m=None):
    """Exact measure of every full-size subset with nonzero determinant.

    Returns [(identifiers, probability)] with rational probabilities that sum
    to exactly 1 by Cauchy-Binet. The list is built once per host and kept on
    it; each call returns a fresh copy.
    """
    if m is None:
        m = family.ncols
    if m != family.ncols:
        raise InvalidInputError("subset size must equal the host column count")
    if math.comb(family.n_items, m) > ENUMERATION_LIMIT:
        raise SizeLimitError(
            f"C({family.n_items},{m}) subsets exceed the enumeration guard {ENUMERATION_LIMIT}"
        )
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


def exact_subset_probability(family, identifiers):
    """Exact P(Y) for one subset given by item identifiers."""
    idx = [family.item_index(ident) for ident in identifiers]
    if len(idx) != family.ncols:
        raise InvalidInputError("subset size must equal the host column count")
    d = int_det([family.dense_row(i) for i in idx])
    return Fraction(d * d, family.gram_det())


@lru_cache(maxsize=8)
def cached_family(cls, *args):
    """The shared host cls(*args), so its Gram and leverage data are built once."""
    return cls(*args)


def marginal_leverage(b, n, k):
    """Inclusion probability P(b in Y) for the (n, k) basis-sum family, exact."""
    family = cached_family(BasisSumRows, n, k)
    return family.leverage_exact(family.item_index(tuple(b)))


def sample_matrix(n, k, rng=None, config=DEFAULT_CONFIG):
    """One n x n integer matrix drawn from the (n, k) squared-determinant measure.

    Rows are canonicalized in lexicographic tuple order.
    """
    family = cached_family(BasisSumRows, n, k)
    subset = sample_volume(family, rng, config)
    return [family.dense_row(family.item_index(b)) for b in subset]


def sample_hypertree(n, rng=None, config=DEFAULT_CONFIG):
    """A 2-dimensional hypertree on n vertices, by volume sampling boundary rows.

    Returns (faces, matrix): the chosen 3-subsets of [n] and the square
    submatrix of the transposed boundary operator whose cokernel is the
    first homology group of the complex.
    """
    if n < 4:
        raise InvalidInputError("need n >= 4 for 2-dimensional hypertrees")
    family = cached_family(BoundaryRows, n, 2)
    subset = sample_volume(family, rng, config)
    return subset, [family.dense_row(family.item_index(f)) for f in subset]
