"""Volume sampling of row subsets: P(Y) = det(host[Y])^2 / det(host^T host).

The sampler is the sequential conditional scheme for projection determinantal
kernels. With W = (host^T host)^{-1} and K(x, y) = row_x^T W row_y, the
kernel K is a rank-m projection (m = column count), so drawing one item per
step with probability proportional to its residual kernel mass

    r_x = K(x, x) - sum_j <row_x, c_j>^2,   c_j = W v_j,

where the v_j are the W-orthonormalized directions of the already chosen
rows, realizes the squared-determinant measure exactly. Residual totals
telescope: sum_x r_x = m - t after t picks. Each downdate touches a row only
through its sparse support, so a full draw costs O(N * m * nnz).

Float64 is the working precision; an exact-rational path covers micro
instances and the enumeration oracle is exact always.
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
# caps both the padded sparse arrays (items x row width) and the dense Gram
# (columns^2) that the float path allocates
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


def _as_rng(rng, config):
    if rng is None:
        return np.random.default_rng(config.seed)
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    return rng


class RowFamily:
    """A finite family of integer rows in R^m supporting sparse projections.

    Subclasses fill in: n_items, ncols, item(i), sparse_row(i).
    `coords`/`vals` give the padded sparse layout used by the vectorized
    float path.
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

    def gram_inv_apply_float(self, vec):
        return self._gram_inv_float() @ vec

    def project_all_float(self, c):
        """Dot product of every row with the dense vector c."""
        coords, vals = self._sparse_arrays()
        return (c[coords] * vals).sum(axis=1)

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

    def row_width(self):
        return self.k

    def _sparse_arrays(self):
        if not hasattr(self, "_coords"):
            digits = np.array(
                np.unravel_index(np.arange(self.n_items), (self.n,) * self.k)
            ).T  # (N, k), zero based
            self._coords = np.ascontiguousarray(digits, dtype=np.int64)
            self._vals = np.ones_like(self._coords, dtype=np.float64)
        return self._coords, self._vals

    def gram_inv_apply_float(self, vec):
        g = float(self._gamma)
        return (vec - g * vec.sum()) / self._beta

    def gram_inv_apply_exact(self, vec):
        s = sum(vec)
        return [Fraction(v - self._gamma * s, self._beta) for v in vec]

    def leverage_float(self):
        if not hasattr(self, "_lev"):
            coords, _ = self._sparse_arrays()
            sq = np.zeros(self.n_items)
            for a in range(self.k):
                for b in range(self.k):
                    sq += coords[:, a] == coords[:, b]
            self._lev = (sq - float(self._gamma) * self.k**2) / self._beta
        return self._lev

    def leverage_exact(self, i):
        sq = sum(v * v for _, v in self.sparse_row(i))
        return Fraction(sq - self._gamma * self.k**2, self._beta)


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


def _sample_volume_float(family, rng, config):
    m = family.ncols
    n_items = family.n_items
    entries = max(n_items * family.row_width(), m * m)
    if entries > FLOAT_ENTRY_LIMIT:
        raise SizeLimitError(
            f"float mode caps its arrays at {FLOAT_ENTRY_LIMIT} entries, this host needs {entries}"
        )
    tol = config.reorthogonalization_tolerance
    base = family.leverage_float()
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
            v = np.array(family.dense_row(j), dtype=np.float64)
            passes = 2 if attempt > 0 else 1
            for _ in range(passes):
                for vv, cc in zip(dirs_v, dirs_c):
                    v -= (v @ cc) * vv
            c = family.gram_inv_apply_float(v)
            norm2 = float(v @ c)
            if norm2 <= tol:
                ok = False
                break
            scale = math.sqrt(norm2)
            v /= scale
            c = c / scale
            dirs_v.append(v)
            dirs_c.append(c)
            proj = family.project_all_float(c)
            r -= proj * proj
        if ok:
            return tuple(sorted(family.item(j) for j in chosen))
    raise DegenerateHostError("residual mass vanished before a full subset was chosen")


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
    return _sample_volume_float(family, rng, config)


def enumerate_distribution(family, m=None):
    """Exact measure of every full-size subset with nonzero determinant.

    Returns [(identifiers, probability)] with rational probabilities that sum
    to exactly 1 by Cauchy-Binet.
    """
    if m is None:
        m = family.ncols
    if m != family.ncols:
        raise InvalidInputError("subset size must equal the host column count")
    if math.comb(family.n_items, m) > ENUMERATION_LIMIT:
        raise SizeLimitError(
            f"C({family.n_items},{m}) subsets exceed the enumeration guard {ENUMERATION_LIMIT}"
        )
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
    return out


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
