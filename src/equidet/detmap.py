"""The equation system of a force system or a configuration, and its determinant.

A system on q particles has one d-row vector equation per (r-1)-subset M of
{1..q}.  The unknown of T = sorted(M + {i}) enters with the value stored at T
times :func:`_order_sign`, the sign of the permutation sorting the written
order M + (i,): a force system's equilibrium equation, and the package's one
sign convention.  Equations whose tuple contains q are redundant (see
:func:`check_dependence_relations`) and colex order lists the others first,
so for q = r*d the square system is the leading d * C(q-1, r-1) = C(q, r)
rows times D, which negates block M when sum(M) is even: D * Force(x) on a
force system's stored values x, D * Force(x) * Tau on a configuration's,
where Tau negates column T when sum(T) + r - 1 is odd (``tensors._tau``).
As Force(Tau * x) = Force(x) * Tau, a force system's square is that of its
``to_configuration()``.  Its determinant, :func:`det_sr`, is linear in every
slot, and vanishes when all r-subsets of some r+1 particles share one vector.

:func:`det_sr` takes det(Force(x)) times det(D), and det(Tau) for a
configuration: ``tensors._values``, the one kind rule, tells which.  Column
M + {q} is u = x[M + {q}] in block M alone, unsigned since q sorts last;
pivoting it on u's first nonzero a = u[k0] leaves the Schur complement S
over the C(q-1, r) columns avoiding q, rows a * row(M, k) - u[k] * row(M, k0),
and det = (-1)^e det(S) prod a^(2-d), e = sum (d-1-k0) + the cached parity
of (d-1) N(N-1)/2, det(D) and, for a configuration, det(Tau), N = C(q-1, r-1).

The same holds one particle further down at each level l = 2 ... d.  A
block M is level-l when it avoids q-l+1 ... q-1; colex lists the C(q-l, r-1)
of them first, and M + {q-l+1}, its level-l column, is its slot -l.  The
levels before l have updated M's rows only with M's own pivot rows, so they
hold no other level-l block's column, and a block holding q-l+1 meets only
columns holding it: each level is a diagonal pivot block on the rows the
levels before it leave, and ``det_exact`` takes one per level (``pivots``).
Level 2 pairs M + {q-1} with its block's first row with an entry there; a
deeper level finds the row by fraction-free elimination on the block's rows
at its level columns.  A level column with no entry in its block's rows
ends that block's levels and is left to the pass, which otherwise gets only
the C(q-d, r) columns avoiding the last d particles (20 of S's 56 at 84²,
126 of 330 at 495²).

Where each nonzero goes, and its sign, depend only on the shape (r, d, q).
That layout of the full system, with its labels, each block's slots M + {i}
in order of i (head last, so :func:`det_sr` builds S one block at a time)
and the two parities, is cached per shape; every build scatters the stored
values through it entry by entry.  The ±1 relation rows have a cache of their
own, which only the two redundancy checks read.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from math import comb, prod
from typing import NamedTuple

from .combinat import subsets_colex
from .exact import Matrix, det_exact
from .tensors import CoefficientSystem, _check_coefficients, _tau, _tau_negates, _values


class SystemMatrix(NamedTuple):
    """Labeled system, square or full: rows ((r-1)-tuple, coordinate), columns (r-tuples)."""

    matrix: Matrix
    row_labels: tuple
    col_labels: tuple


def _order_sign(equation_tuple, i: int) -> int:
    """Sign of the permutation sorting the written order M + (i,): (-1) ** (|M| + 1 - p),
    p the 1-based slot of i in sorted(M + {i}), one transposition per member of M above i."""
    return -1 if (len(equation_tuple) - bisect_right(equation_tuple, i)) & 1 else 1


@lru_cache(maxsize=None)
def _incidence_pattern(r: int, d: int, q: int):
    """Value-independent layout of the full system: d rows per (r-1)-subset M
    of {1..q} in colex order, over the r-tuples of {1..q} in colex order.

    Returns the map from every sorted r-tuple T to ``(column of T, ((first
    row of block M, negate), ...))``, one pair per equation M = T - {i} with
    ``negate`` = ``_order_sign(M, i) < 0``; for each of the C(q-1, r-1)
    blocks M avoiding q, its slots ``((column, T, negate), ...)`` in order of
    i, head M + {q} last; det_sr's parities for a force system and for a
    configuration; the row labels ((M, coordinate), ...); and the column
    labels.  Shared: read it, never write it.
    """
    equations = subsets_colex(q, r - 1)
    col_labels = subsets_colex(q, r)
    # one (first row, negate) pair object per block and sign, shared by its slots
    pairs = {m: ((b * d, False), (b * d, True)) for b, m in enumerate(equations)}
    # colex order lists the blocks avoiding q first, and within a block the
    # columns M + {i} by increasing i
    blocks = [[] for _ in range(comb(q - 1, r - 1))]
    pattern = {}
    for j, t in enumerate(col_labels):
        slots = []
        for p, i in enumerate(t):
            m = t[:p] + t[p + 1 :]
            base, negate = slot = pairs[m][_order_sign(m, i) < 0]
            slots.append(slot)
            if q not in m:
                blocks[base // d].append((j, t, negate))
        pattern[t] = (j, tuple(slots))
    # det(D): d rows per block of even sum among the N avoiding q; S's rows: (d-1) C(N, 2) swaps
    parity = d * sum(not sum(m) & 1 for m in equations[: len(blocks)]) + (d - 1) * comb(len(blocks), 2)
    tau = sum(_tau_negates(t, r) for t in col_labels)
    row_labels = tuple((m, coord) for m in equations for coord in range(1, d + 1))
    return pattern, tuple(map(tuple, blocks)), (parity & 1, (parity + tau) & 1), row_labels, col_labels


@lru_cache(maxsize=None)
def _relation_rows(r: int, d: int, q: int) -> Matrix:
    """The ±1 relation rows over the full system's rows: for every
    (r-2)-subset N of {1..q} in colex order, the d rows sum over i of
    _order_sign(N, i) * rows(sorted(N + {i})).  Each N + {i, j} is reached
    through i and through j and the two terms cancel, so the relation rows
    times the full system are zero.  Shared: read it, never write it."""
    equations = subsets_colex(q, r - 1)
    block_row = {m: b * d for b, m in enumerate(equations)}
    relations = []
    for anchor in subsets_colex(q, r - 2):
        terms = [
            (block_row[tuple(sorted(anchor + (i,)))], _order_sign(anchor, i))
            for i in range(1, q + 1)
            if i not in anchor
        ]
        relations.extend({base + coord: s for base, s in terms} for coord in range(d))
    return Matrix._from_sparse(relations, d * len(equations))


def _incidence_rows(values, r: int, d: int, q: int) -> SystemMatrix:
    """Labeled full system of d sparse rows per equation M, an (r-1)-subset of
    {1..q} in colex order, over the r-tuples of {1..q} in colex order; column
    sorted(M + {i}) holds _order_sign(M, i) * values[sorted(M + {i})], where
    ``values`` maps sorted r-tuples to d-vectors.  Only the stored slots are
    visited; rows, columns, signs and labels come from :func:`_incidence_pattern`."""
    pattern, _, _, row_labels, col_labels = _incidence_pattern(r, d, q)
    rows = [{} for _ in row_labels]
    for key, vec in values.items():
        j, slots = pattern[key]
        for base, negate in slots:
            for row, x in enumerate(vec, base):
                if x:
                    rows[row][j] = -x if negate else x
    return SystemMatrix(Matrix._from_sparse(rows, len(col_labels)), row_labels, col_labels)


def _reduced_rows(system: SystemMatrix, r: int, d: int, q: int) -> SystemMatrix:
    """The leading d * C(q-1, r-1) rows of a full system: the equations that
    avoid particle q, which colex order lists first."""
    n = d * comb(q - 1, r - 1)
    matrix = Matrix._from_sparse(system.matrix.sparse[:n], system.matrix.cols)
    return SystemMatrix(matrix, system.row_labels[:n], system.col_labels)


def _square_shape(v) -> tuple:
    """(r, d, q), then ``tensors._values``, of a system with q = r*d, the square system's precondition."""
    values = _values(v)
    if v.q != v.r * v.d:
        raise ValueError(f"square system needs q = r*d, got q={v.q} with r={v.r}, d={v.d}")
    return v.r, v.d, v.q, *values


def build_system_matrix(v) -> SystemMatrix:
    """Assemble the square system of a configuration or a force system with q = r*d
    (module docstring): Tau applied to a configuration's values, D to the rows."""
    r, d, q, values, configuration = _square_shape(v)
    values = _tau(values, r) if configuration else values
    square = _reduced_rows(_incidence_rows(values, r, d, q), r, d, q)
    rows = [row if sum(m) & 1 else {j: -x for j, x in row.items()}
            for row, (m, _) in zip(square.matrix.sparse, square.row_labels)]
    return square._replace(matrix=Matrix._from_sparse(rows, square.matrix.cols))


def det_sr(v) -> Fraction:
    """Exact determinant of the square system of ``v``, either kind: det(Force(x))
    through the Schur complement S and its levels 2 ... d (module docstring),
    times the sign of its shape and kind.

    S is built one block M at a time from the block's slots in the layout:
    the head u = v[M + {q}] gives the pivot a = u[k0], and each k != k0 one
    row of S, a * w[k] - u[k] * w[k0] (negated where the slot's sign is) over
    the block's stored vectors w.  A missing or zero head returns 0 before
    any row is built, a column of S with no entry before any elimination."""
    r, d, q, values, configuration = _square_shape(v)
    _, blocks, parities, *_ = _incidence_pattern(r, d, q)
    get = values.get
    e = parities[configuration]
    heads = []
    rows = []
    for slots in blocks:
        u = get(slots[-1][1], ())  # the head M + {q}
        for k0, a in enumerate(u):
            if a:
                break
        else:  # no head, or a zero one: a zero column
            return Fraction(0)
        e += d - 1 - k0
        heads.append(a)
        # the head's own entry is a * u[k] - u[k] * a = 0, so it drops out
        for k, c in enumerate(u):
            if k != k0:
                rows.append({
                    j: -x if negate else x
                    for j, t, negate in slots
                    if (w := get(t)) and (x := a * w[k] - c * w[k0])
                })
    ncols = comb(q - 1, r)
    if len(set().union(*rows)) < ncols:  # a column of S with no entry
        return Fraction(0)
    # level 2: colex lists the n2 blocks avoiding q-1 first; M + {q-1} is slot -2
    n2 = comb(q - 2, r - 1) if d > 1 else 0  # d = 1: S is empty (and q - 2 may be -1)
    level = []
    for b, slots in enumerate(blocks[:n2]):
        c = slots[-2][0]  # with no entry in its block's rows, c is left to the pass
        for i in range(b * (d - 1), (b + 1) * (d - 1)):
            if c in rows[i]:
                level.append((c, i))
                break
    pivots = [level, *_deeper_levels(rows, blocks, r, d, q)] if d > 2 else [level]
    det = det_exact(Matrix._from_sparse(rows, ncols), pivots=pivots)
    value = -det if e & 1 else det
    return value if d == 2 else value * Fraction(prod(heads)) ** (2 - d)


def _deeper_levels(rows, blocks, r: int, d: int, q: int):
    """Levels 3 ... d of S's pivots, ``(column, row)`` pairs, one list per level.

    Block b avoids q-l+1 ... q-1 while b < C(q-l, r-1) (colex lists those
    blocks first), and its level-l column M + {q-l+1} is slot -l.  The levels
    before have updated its rows only with its own pivot rows, so fraction-free
    elimination on its rows' entries at its level columns, in level order,
    finds the row det_exact sees an entry in; a level column with none there
    ends the block's levels, and it and the block's later level columns are
    left to the pass."""
    deeper = [[] for _ in range(d - 2)]
    bounds = [comb(q - l, r - 1) for l in range(2, d + 1)]
    for b, slots in enumerate(blocks[: bounds[1]]):
        cols = [slots[-l][0] for l, n in enumerate(bounds, 2) if b < n]
        base = b * (d - 1)
        local = [[row.get(c, 0) for c in cols] for row in rows[base : base + d - 1]]
        live = list(range(d - 1))
        for k, c in enumerate(cols):
            p = next((i for i in live if local[i][k]), None)
            if p is None:
                break
            if k:
                deeper[k - 1].append((c, base + p))
            live.remove(p)
            y = local[p]
            for i in live:
                x = local[i]
                if x[k]:
                    local[i] = [y[k] * xj - x[k] * yj for xj, yj in zip(x, y)]
    return deeper


def check_dependence_relations(v, lam: CoefficientSystem) -> bool:
    """True iff every redundancy identity among the equations evaluates to the
    exact zero vector at (v, lam).

    Accepts a :class:`VectorConfiguration` or a :class:`ForceSystem`, both
    read through the one layout: D and Tau only rescale a configuration's
    rows and coefficients by ±1.  The identities hold for every input; a
    False return means the sign convention was broken.
    """
    values, _ = _values(v)
    _check_coefficients(lam, v.r, v.q)
    system = _incidence_rows(values, v.r, v.d, v.q)
    at_lam = system.matrix.mul_vec([lam.canonical.get(t, 0) for t in system.col_labels])
    return not any(_relation_rows(v.r, v.d, v.q).mul_vec(at_lam))
