"""Exact linear algebra over the rationals, eliminated on sparse rows.

A :class:`Matrix` stores each row as a dict ``{col: value}`` of its nonzero
ints or :class:`fractions.Fraction` values; ``data`` is a dense copy made when
it is read.  Any other nonzero entry (a float, a bool, ...) is rejected with
``ValueError`` where it enters elimination.  There a row with fractions is
scaled by the lcm of its denominators to ``{col: int}``: row scaling keeps the
null space and scales the determinant by a known factor.

One fraction-free (Bareiss) forward pass serves every query; entries stay
minors of the input, which bounds their growth.  ``_eliminate`` yields one
step per column, its pivot row or None when the column is free, and each
query stops reading where its answer is: ``det_exact`` returns 0 and
``kernel_vector`` its vector at the first free column, while ``rank_exact``
and ``kernel_basis`` read every step.  The pass is lazy: a row with no entry
in the pivot column is not touched.  The dense pass would multiply such a row
by p_k / p_(k-1) at every step k; those factors telescope, so a row last
updated while pivot t was current holds its dense value times t / prev.
Eliminating it with the new pivot p_k and multiplier f is therefore
(x*p_k - f*y) // t, and a pivot row is brought up to date once as
x*prev // t.  The Sylvester identity makes both divisions exact, and every
row equals what the dense pass computes.  So a pass can open on levels of
diagonal pivot blocks (``det_exact``'s ``pivots``), each of ``(column, row)``
pairs with entries a' where no pivot row holds another pair of its level's
column, as the levels before it left the rows.  Taken as one step, a level
turns a row meeting its pivot rows P with entries f into L * row - sum
f (L/a') P, L the product of the a' it met; the row's stamp is multiplied by
L, and prev becomes prev * prod a' // prod stamp[p] over the level's pivot
rows p, the pivot the dense pass reaches after the level's columns (Sylvester
again, so the division is exact).  With one level and every stamp 1 these are
L and prod a'.  The pass goes on from there to the same last pivot, which is
the last level's prev when the levels take every column.

Callers differ only in the order columns are taken.  Kernels go left to
right, so the free columns, and with them the kernel basis, are those of the
ordinary echelon form.  Neither a determinant nor a rank depends on the
order, so ``det_exact`` and ``rank_exact`` take the remaining column with the
fewest active rows (Markowitz), which keeps fill-in low on the sparse
systems; ``det_exact`` multiplies in the signs of the row and column orders.
Either way the pivot row is the candidate with the fewest nonzeros, lowest
index first.

A kernel vector is an integer back-substitution over the pivot rows
eliminated before its free column, whose coordinate is set to the last
Bareiss pivot, so by Cramer's rule every division is exact.  Every zero test
is exact; there is no floating-point path.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, compress, count
from math import gcd, lcm, prod

from .combinat import permutation_sign


class Matrix:
    """Exact matrix; ``sparse[i]`` is row i as a dict of its nonzeros by column."""

    def __init__(self, data):
        data = [list(row) for row in data]
        self.rows = len(data)
        self.cols = len(data[0]) if data else 0
        if any(len(row) != self.cols for row in data):
            raise ValueError("rows must all have the same length")
        self.sparse = [dict(zip(compress(count(), row), filter(None, row))) for row in data]

    @classmethod
    def _from_sparse(cls, rows, cols: int) -> "Matrix":
        """Matrix over ``rows``, dicts of nonzeros, taken without a copy."""
        m = cls.__new__(cls)
        m.sparse, m.rows, m.cols = rows, len(rows), cols
        return m

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls([[0] * cols for _ in range(rows)])

    @property
    def data(self):
        """Dense copy as a list of row lists, zeros filled in."""
        return [[row.get(j, 0) for j in range(self.cols)] for row in self.sparse]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols, self.sparse) == (other.rows, other.cols, other.sparse)

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} times {other.rows}x{other.cols}")
        out = []
        for row in self.sparse:
            acc = {}
            for k, a in row.items():
                for j, b in other.sparse[k].items():
                    acc[j] = acc.get(j, 0) + a * b
            out.append({j: x for j, x in acc.items() if x})
        return Matrix._from_sparse(out, other.cols)

    def mul_vec(self, vec):
        """Matrix-vector product as a list of exact scalars."""
        if len(vec) != self.cols:
            raise ValueError(f"vector length {len(vec)} does not match {self.cols} columns")
        return [sum([a * vec[j] for j, a in row.items() if vec[j]]) for row in self.sparse]


def _check_exact(*values):
    """Raise ValueError unless every value is an int (not a bool) or a Fraction."""
    for x in values:
        if type(x) is not int and (isinstance(x, bool) or not isinstance(x, (int, Fraction))):
            raise ValueError(f"{x!r} is not an exact scalar (int or Fraction)")


def _sparse_rows(m: Matrix):
    """Rows of ``m`` as ``{col: int}`` dicts of nonzeros, and the product of
    the per-row factors that cleared their denominators.  Integer rows are
    the matrix's own dicts, which elimination reads but never mutates.

    This is where every matrix enters elimination, so it is also where
    entries that are not exact scalars are rejected.  One scan of the entry
    types passes an all-int matrix (the common case) as it is; any other
    matrix is checked and cleared row by row.
    """
    if set(map(type, chain.from_iterable(map(dict.values, m.sparse)))) <= {int}:
        return list(m.sparse), 1
    rows = []
    clearing = 1
    for entries in m.sparse:
        if any(type(x) is not int for x in entries.values()):
            _check_exact(*entries.values())
            den = lcm(*(x.denominator for x in entries.values()))
            entries = {j: x.numerator * (den // x.denominator) for j, x in entries.items()}
            clearing *= den
        rows.append(entries)
    return rows, clearing


def _eliminate(rows, ncols, fewest_rows_first=False, pivots=()):
    """Lazy fraction-free forward elimination over sparse rows, never mutating a row dict.

    Yields one step per column, in elimination order: ``(column, i, pivot)``
    when ``rows[i]`` is that column's pivot row, up to date from the moment it
    is yielded, or ``(column, None, pivot)`` when the column has no active
    entry and is free; ``pivot`` is the Bareiss pivot current after the step.
    Columns are taken left to right, or with ``fewest_rows_first`` the
    remaining column with the fewest active rows first (lowest index on ties).
    A caller stops the pass by leaving its loop.  ``pivots``, ``det_exact``'s
    levels of diagonal pivot blocks, are checked and taken first, one step per
    level, and each level's pairs are then yielded, their rows as it saw them.
    """
    # row i holds its dense value times stamp[i] / prev: stamp[i] is the pivot
    # current when the pass last updated it, or the product of the levels' L
    stamp = [1] * len(rows)
    prev = 1
    remaining = list(range(ncols))
    taken, done = set(), set()  # the levels' pivot rows and columns
    for level in pivots:
        heads = dict(level)
        level_rows = set(heads.values())
        if not len(heads) == len(level_rows) == len(level) or done & heads.keys() or taken & level_rows:
            raise ValueError("pivots must have distinct columns and distinct rows")
        for c, p in level:
            if not (type(c) is type(p) is int and 0 <= p < len(rows) and rows[p].get(c)):
                raise ValueError(f"pivot row {p!r} has no entry in column {c!r}")
            if len(rows[p].keys() & heads.keys()) > 1:
                raise ValueError(f"pivot row {p} holds another pivot's column")
            prev = prev * rows[p][c] // stamp[p]  # a minor after every pair, so exact
        taken |= level_rows
        done |= heads.keys()
        for i, row in enumerate(rows):
            met = [c for c in row if c in heads]
            if met and i not in taken:
                scale = prod(rows[heads[c]][c] for c in met)
                new = {j: scale * x for j, x in row.items()}
                for c in met:
                    pc = rows[heads[c]]
                    f = row[c] * (scale // pc[c])
                    for j, y in pc.items():
                        new[j] = new.get(j, 0) - f * y
                rows[i] = {j: x for j, x in new.items() if x}
                stamp[i] *= scale
        remaining = [c for c in remaining if c not in heads]
        for c, p in level:
            yield c, p, prev
    # active[c]: rows not yet used as pivots that have a nonzero in column c
    active = [set() for _ in range(ncols)]
    for i, row in enumerate(rows):
        if i not in taken:
            for j in row:
                active[j].add(i)
    while remaining:
        c = min(remaining, key=list(map(len, active)).__getitem__) if fewest_rows_first else remaining[0]
        remaining.remove(c)
        cand = active[c]
        if not cand:
            yield c, None, prev
            continue
        p = min(cand, key=lambda i: (len(rows[i]), i))
        rk = rows[p]
        if stamp[p] != prev:
            rk = rows[p] = {j: x * prev // stamp[p] for j, x in rk.items()}
        for j in rk:
            active[j].discard(p)
        pk = rk[c]
        rest = [(j, y) for j, y in rk.items() if j != c]
        for i in cand:
            ri = rows[i]
            f = ri[c]
            t = stamp[i]
            new = {j: x * pk // t for j, x in ri.items() if j not in rk}
            for j, y in rest:
                x = ri.get(j)
                if x is None:
                    new[j] = -f * y // t
                    active[j].add(i)
                else:
                    v = x * pk - f * y
                    if v:
                        new[j] = v // t
                    else:
                        active[j].discard(i)
            rows[i] = new
            stamp[i] = pk
        prev = pk
        yield c, p, prev


def det_exact(m: Matrix, *, pivots=()) -> Fraction:
    """Exact determinant of a square matrix.  ``pivots`` is a sequence of
    levels, each a sequence of ``(column, row)`` pairs in which no row holds
    another pair's column as the levels before it left the rows; they are
    taken first, one diagonal block per level (module docstring).  ValueError
    on a column or row repeated across the levels, a pair whose row has no
    entry there, or a row holding another pair of its level's column."""
    if m.rows != m.cols:
        raise ValueError(f"determinant requires a square matrix, got {m.rows}x{m.cols}")
    rows, clearing = _sparse_rows(m)
    # sign(row order) * sign(column order) is the sign of the row order
    # composed with the inverse column order
    perm = [0] * m.rows
    pivot = 1
    for c, p, pivot in _eliminate(rows, m.cols, True, pivots):
        if p is None:
            return Fraction(0)
        perm[c] = p
    return Fraction(permutation_sign(perm) * pivot, clearing)


def _free_vector(pivots, free, ncols):
    """Primitive integer kernel vector of the free column ``free``.

    ``pivots`` holds the ``(column, row)`` pivots eliminated before ``free``,
    in elimination order; no other row has an entry left in ``free`` or in a
    pivot column.  Setting x[free] to the last Bareiss pivot, the determinant
    of their pivot block, makes every pivot coordinate an integer minor
    (Cramer's rule), so each step divides exactly.  The result is scaled to
    be primitive with x[free] > 0.
    """
    x = [0] * ncols
    x[free] = pivots[-1][1][pivots[-1][0]] if pivots else 1
    for c, row in reversed(pivots):
        # x[c] is still 0, as is x outside ``free`` and the pivot columns solved
        # so far, so the whole row can be summed
        x[c], rem = divmod(-sum(v * x[j] for j, v in row.items()), row[c])
        if rem:
            raise ArithmeticError("inexact division in integer back-substitution")
    g = gcd(*x)
    if x[free] < 0:
        g = -g
    return [v // g for v in x]


def _kernel_vectors(m: Matrix):
    """Kernel vectors of ``m``, one per free column left to right, each made
    as soon as elimination reaches its column."""
    rows = _sparse_rows(m)[0]
    pivots = []
    for c, p, _ in _eliminate(rows, m.cols):
        if p is None:
            yield _free_vector(pivots, c, m.cols)
        else:
            pivots.append((c, rows[p]))


def kernel_basis(m: Matrix):
    """Basis of the right null space, as primitive integer vectors.

    Empty list iff the columns are independent; every returned vector v
    satisfies m . v = 0 exactly.  One basis vector per free column of the
    echelon form, with that free coordinate positive.
    """
    return list(_kernel_vectors(m))


def kernel_vector(m: Matrix):
    """``kernel_basis(m)[0]``, or None when the kernel is trivial; the
    elimination stops at the first free column."""
    return next(_kernel_vectors(m), None)


def rank_exact(m: Matrix) -> int:
    """Exact rank; always equals cols minus the kernel dimension."""
    return sum(p is not None for _, p, _ in _eliminate(_sparse_rows(m)[0], m.cols, fewest_rows_first=True))
