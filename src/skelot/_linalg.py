"""Small exact linear-algebra helpers over Fraction and the integers.

Used for lattice bases, face frames, lattice anchors, wall detection and
independence testing.  Everything here is dense and meant for the tiny
matrices that show up in polyhedral/tropical bookkeeping.  `over_lcm` is
the one integer encoding of the exact solve path (rationals over one common
denominator), and `_int_dtype` picks the integer dtype of its kernels from
a bound on all of their intermediates: int32, int64 or Python ints.

Every cost's one exact builder (`CostFunction.exact_rows`) gives its n x m
integer matrix as a row source, and the solvers, the exact transform and
the cost-bound check read it through that: `StoredRows`, a matrix held
whole, or `ProductRows`, the pairing's K = X P^T from its factors, whose
rows are computed when read.  Both give a shape, a dtype, a bound on |K|,
rows, row blocks, entries and restrictions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

import numpy as np

Row = list[Fraction]

# bounds below which every intermediate of a kernel fits int32 and int64
# with room to spare
_INT32_SAFE = 2 ** 30
_INT64_SAFE = 2 ** 62


def _int_dtype(bound: int):
    """The narrowest integer dtype in which a kernel whose intermediates all
    lie within `bound` cannot overflow: int32 below 2^30, int64 below 2^62,
    else Python ints (object)."""
    if bound < _INT32_SAFE:
        return np.int32
    return np.int64 if bound < _INT64_SAFE else object


def _int_array(nums: Sequence[int]) -> np.ndarray:
    """Integers as one array, in `_int_dtype` of their largest magnitude."""
    return np.array(nums, dtype=_int_dtype(max(map(abs, nums), default=0)))


class StoredRows:
    """The rows of an n x m matrix K held whole, K itself if it is an array
    (integer or object).

    `bound` is max |K|, one sweep on first use unless given.  Rows and
    blocks are views; a restriction copies its cells.
    """

    def __init__(self, K: np.ndarray, bound: Optional[int] = None):
        self.K = K
        self.shape = K.shape
        self.dtype = K.dtype
        self._bound = bound

    @property
    def bound(self) -> int:
        if self._bound is None:
            self._bound = max(int(self.K.max()), -int(self.K.min()))
        return self._bound

    def row(self, i: int) -> np.ndarray:
        return self.K[i]

    def block(self, start: int = 0, stop: Optional[int] = None) -> np.ndarray:
        return self.K[start:stop]

    def entries(self, rows, cols):
        """K[rows, cols], index arrays or ints."""
        return self.K[rows, cols]

    def restrict(self, rows, cols) -> "StoredRows":
        return StoredRows(self.K[np.ix_(rows, cols)], self._bound)

    @property
    def T(self) -> "StoredRows":
        return StoredRows(self.K.T, self._bound)


class ProductRows:
    """The rows of K = X P^T, from integer factors X (n x d) and P (m x d)
    in a dtype that holds `bound` >= d max|X| max|P|, so no sum overflows.

    K is never formed: row i is d multiply-adds of length m, computed when
    read, and a restriction slices the factors.  A block of rows is the
    same sum, so rows, blocks and entries are K's entries in K's dtype.
    """

    def __init__(self, X: np.ndarray, P: np.ndarray, bound: int):
        if X.shape[1] == 0:  # no coordinates, or no points: K = 0
            X, P = np.zeros((len(X), 1), X.dtype), np.zeros((len(P), 1), P.dtype)
        self.X = X
        self._PT = np.ascontiguousarray(P.T)
        self._cols = tuple(self._PT)  # the columns of P, one view each
        self.bound = bound
        self.shape = (len(X), len(P))
        self.dtype = X.dtype

    def row(self, i: int) -> np.ndarray:
        x, cols = self.X[i], self._cols
        out = x[0] * cols[0]
        for k in range(1, len(cols)):
            out += x[k] * cols[k]
        return out

    def block(self, start: int = 0, stop: Optional[int] = None) -> np.ndarray:
        x, cols = self.X[start:stop], self._cols
        out = x[:, :1] * cols[0]
        for k in range(1, len(cols)):
            out += x[:, k:k + 1] * cols[k]
        return out

    def entries(self, rows, cols):
        """K[rows, cols], index arrays or ints."""
        X, PT = self.X, self._PT
        out = X[rows, 0] * PT[0, cols]
        for k in range(1, len(PT)):
            out += X[rows, k] * PT[k, cols]
        return out

    def restrict(self, rows, cols) -> "ProductRows":
        return ProductRows(self.X[rows], self._PT.T[cols], self.bound)

    @property
    def T(self) -> "ProductRows":
        return ProductRows(self._PT.T, self.X, self.bound)


def as_rows(K):
    """K itself if it is a row source, else its rows held whole."""
    return K if isinstance(K, (StoredRows, ProductRows)) else StoredRows(K)


def over_lcm(values: Sequence, den: int = 1) -> tuple[list[int], int]:
    """Rationals (Fractions or ints) as integer numerators over L, the lcm
    of den and their denominators."""
    L = lcm(den, *(v.denominator for v in values))
    return [v.numerator * (L // v.denominator) for v in values], L


def _frac_rows(mat: Sequence[Sequence]) -> list[Row]:
    return [[Fraction(x) for x in row] for row in mat]


def rref(mat: Sequence[Sequence]) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows = _frac_rows(mat)
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c]
        rows[r] = [v / inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def inverse(mat: Sequence[Sequence]) -> Optional[list[Row]]:
    """Exact inverse of a square matrix, or None if it is singular."""
    n = len(mat)
    rows, pivots = rref([list(row) + [int(i == j) for j in range(n)]
                         for i, row in enumerate(mat)])
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in rows]


def nullspace(mat: Sequence[Sequence]) -> list[Row]:
    """Rational basis of the right kernel of mat."""
    rows = _frac_rows(mat)
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -red[i][fc]
        basis.append(vec)
    return basis


# -- integer lattice routines ------------------------------------------------

def _col_hnf(mat: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[list[int]], list[tuple[int, int]]]:
    """Column echelon form over Z with unimodular transform.

    Returns (H, U, pivots) with mat @ U = H, U unimodular, and pivots a list
    of (row, col) positions of the nonzero staircase of H.
    """
    H = [list(map(int, row)) for row in mat]
    nrows = len(H)
    ncols = len(H[0]) if nrows else 0
    U = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def colop_swap(a: int, b: int) -> None:
        for row in H:
            row[a], row[b] = row[b], row[a]
        for row in U:
            row[a], row[b] = row[b], row[a]

    def colop_addmul(dst: int, src: int, f: int) -> None:
        for row in H:
            row[dst] += f * row[src]
        for row in U:
            row[dst] += f * row[src]

    pivots: list[tuple[int, int]] = []
    col = 0
    for r in range(nrows):
        if col >= ncols:
            break
        # euclidean reduction across columns col..ncols-1 on row r
        while True:
            nz = [j for j in range(col, ncols) if H[r][j] != 0]
            if not nz:
                break
            j0 = min(nz, key=lambda j: abs(H[r][j]))
            if j0 != col:
                colop_swap(col, j0)
            done = True
            for j in range(col + 1, ncols):
                if H[r][j] != 0:
                    colop_addmul(j, col, -(H[r][j] // H[r][col]))
                    if H[r][j] != 0:
                        done = False
            if done:
                break
        if H[r][col] != 0:
            if H[r][col] < 0:
                colop_addmul(col, col, -2)
            pivots.append((r, col))
            col += 1
    return H, U, pivots


def integer_kernel(mat: Sequence[Sequence[int]]) -> list[list[int]]:
    """Z-basis of {x in Z^n : mat @ x = 0}."""
    if not mat:
        return []
    H, U, pivots = _col_hnf(mat)
    ncols = len(mat[0])
    used = len(pivots)
    return [[U[i][j] for i in range(ncols)] for j in range(used, ncols)]


def solve_integer(mat: Sequence[Sequence[int]], rhs: Sequence) -> Optional[list[int]]:
    """One x in Z^n with mat @ x = rhs (rhs may be rational), else None."""
    H, U, pivots = _col_hnf(mat)
    ncols = len(mat[0]) if mat else 0
    b = [Fraction(v) for v in rhs]
    y = [Fraction(0)] * ncols
    for r, c in pivots:
        resid = b[r] - sum(Fraction(H[r][j]) * y[j] for j in range(c))
        q = resid / H[r][c]
        if q.denominator != 1:
            return None
        y[c] = q
    # full consistency check
    for r in range(len(H)):
        if sum(Fraction(H[r][j]) * y[j] for j in range(ncols)) != b[r]:
            return None
    x = [sum(U[i][j] * int(y[j]) for j in range(ncols)) for i in range(ncols)]
    return x


def primitive(vec: Sequence[int]) -> list[int]:
    g = 0
    for v in vec:
        g = gcd(g, abs(int(v)))
    if g == 0:
        return [0 for _ in vec]
    return [int(v) // g for v in vec]


def clear_denominators(vec: Sequence[Fraction]) -> list[int]:
    """Scale a rational vector to a primitive integer vector."""
    return primitive(over_lcm([Fraction(v) for v in vec])[0])


def saturated_lattice_basis(directions: Sequence[Sequence[Fraction]]) -> list[list[int]]:
    """Z-basis of span_Q(directions) ∩ Z^d.

    Computed as the integer kernel of an integer basis of the orthogonal
    complement, which is saturated by construction.
    """
    dirs = [[Fraction(x) for x in d] for d in directions]
    if not dirs:
        return []
    # vectors orthogonal to every direction
    comp = nullspace(dirs)
    if not comp:
        d = len(dirs[0])
        return [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    comp_int = [clear_denominators(w) for w in comp]
    return integer_kernel(comp_int)
