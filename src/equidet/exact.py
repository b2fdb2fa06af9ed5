"""Exact dense linear algebra over the rationals.

Entries are Python ints or :class:`fractions.Fraction` (both expose exact
``.numerator``/``.denominator``).  Determinants are computed fraction-free:
denominators are cleared column-wise to an integer matrix, a Bareiss-style
elimination runs over big ints (intermediate entries stay minors of the
input, bounding growth), and the clearing factors are divided back out.
Kernels and ranks use the same fraction-free forward pass.  Kernel vectors
then come from an integer back-substitution: the free coordinate is set to
the last Bareiss pivot, so by Cramer's rule every division is exact.
``kernel_basis`` returns every kernel vector; ``kernel_vector`` stops the
forward pass at the first free column and returns only the first one.  Every
zero test is exact; there is no floating-point path.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm


class Matrix:
    """Dense exact matrix; ``data`` is a list of row lists."""

    def __init__(self, data):
        data = [list(row) for row in data]
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise ValueError("rows must all have the same length")
        self.data = data
        self.rows = len(data)
        self.cols = len(data[0]) if data else 0

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls([[0] * cols for _ in range(rows)])

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and all(a == b for ra, rb in zip(self.data, other.data) for a, b in zip(ra, rb))
        )

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} times {other.rows}x{other.cols}")
        cols = list(zip(*other.data)) if other.data else []
        return Matrix([[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.data])

    def mul_vec(self, vec):
        """Matrix-vector product as a list of exact scalars."""
        if len(vec) != self.cols:
            raise ValueError(f"vector length {len(vec)} does not match {self.cols} columns")
        return [sum(a * x for a, x in zip(row, vec)) for row in self.data]

    def is_zero(self) -> bool:
        return all(e == 0 for row in self.data for e in row)


def _bareiss_det(a) -> int:
    """Determinant of an integer matrix by fraction-free elimination, in place.

    Pivots on the first nonzero entry of each column; row swaps flip the
    tracked sign.  All divisions are exact by the Sylvester identity.
    """
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        rk = a[k]
        pk = rk[k]
        for i in range(k + 1, n):
            ri = a[i]
            f = ri[k]
            if f:
                for j in range(k + 1, n):
                    ri[j] = (ri[j] * pk - f * rk[j]) // prev
                ri[k] = 0
            elif pk != prev:
                for j in range(k + 1, n):
                    ri[j] = ri[j] * pk // prev
        prev = pk
    return sign * a[n - 1][n - 1]


def det_exact(m: Matrix) -> Fraction:
    """Exact determinant of a square matrix."""
    if m.rows != m.cols:
        raise ValueError(f"determinant requires a square matrix, got {m.rows}x{m.cols}")
    n = m.rows
    if n == 0:
        return Fraction(1)
    a = [list(row) for row in m.data]
    clearing = 1
    for j in range(n):
        mult = 1
        for i in range(n):
            mult = lcm(mult, a[i][j].denominator)
        if mult != 1:
            clearing *= mult
        for i in range(n):
            a[i][j] = int(a[i][j] * mult)
    return Fraction(_bareiss_det(a), clearing)


def _cleared_rows(m: Matrix):
    # row scaling preserves the null space, so clear denominators row-wise
    out = []
    for row in m.data:
        mult = 1
        for e in row:
            mult = lcm(mult, e.denominator)
        out.append([int(e * mult) for e in row])
    return out


def _row_echelon(rows, ncols, stop_at_free=False):
    """Fraction-free forward elimination; returns (echelon rows, pivot columns).

    With ``stop_at_free`` the pass stops at the first column without a pivot.
    The rows found by then are final, and they alone fix the kernel vector of
    that column.
    """
    nrows = len(rows)
    pivots = []
    r = 0
    prev = 1
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            if stop_at_free:
                break
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        rk = rows[r]
        pk = rk[c]
        for i in range(r + 1, nrows):
            ri = rows[i]
            f = ri[c]
            if f:
                for j in range(c + 1, ncols):
                    ri[j] = (ri[j] * pk - f * rk[j]) // prev
                ri[c] = 0
            elif pk != prev:
                for j in range(c + 1, ncols):
                    ri[j] = ri[j] * pk // prev
        prev = pk
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows[:r], pivots


def _free_vector(ech, pivots, free, ncols):
    """Primitive integer kernel vector of the free column ``free``.

    Only the k pivot rows left of ``free`` constrain it.  Setting x[free] to
    the k-th Bareiss pivot, the determinant of their pivot block, makes every
    pivot coordinate an integer minor (Cramer's rule), so each step divides
    exactly.  The result is scaled to be primitive with x[free] > 0.
    """
    k = bisect_left(pivots, free)
    x = [0] * ncols
    x[free] = ech[k - 1][pivots[k - 1]] if k else 1
    support = [free]
    for i in reversed(range(k)):
        row = ech[i]
        c = pivots[i]
        x[c], rem = divmod(-sum(row[j] * x[j] for j in support), row[c])
        if rem:
            raise ArithmeticError("inexact division in integer back-substitution")
        support.append(c)
    g = gcd(*x)
    if x[free] < 0:
        g = -g
    return [v // g for v in x]


def kernel_basis(m: Matrix):
    """Basis of the right null space, as primitive integer vectors.

    Empty list iff the columns are independent; every returned vector v
    satisfies m . v = 0 exactly.  One basis vector per free column of the
    echelon form, with that free coordinate positive.
    """
    ech, pivots = _row_echelon(_cleared_rows(m), m.cols)
    pivot_set = set(pivots)
    return [
        _free_vector(ech, pivots, free, m.cols)
        for free in range(m.cols)
        if free not in pivot_set
    ]


def kernel_vector(m: Matrix):
    """``kernel_basis(m)[0]``, or None when the kernel is trivial.

    Eliminates only up to the first free column, which is where that vector's
    back-substitution starts.
    """
    ech, pivots = _row_echelon(_cleared_rows(m), m.cols, stop_at_free=True)
    # every column before the first free one has a pivot, so pivots == [0, ..., k-1]
    free = len(pivots)
    if free == m.cols:
        return None
    return _free_vector(ech, pivots, free, m.cols)


def rank_exact(m: Matrix) -> int:
    """Exact rank; always equals cols minus the kernel dimension."""
    return len(_row_echelon(_cleared_rows(m), m.cols)[1])
