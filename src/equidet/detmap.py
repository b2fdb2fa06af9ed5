"""The square interaction system and its exact determinant.

A configuration on q particles yields one d-row vector equation per
(r-1)-subset M of {1..q}: the unknown attached to tuple M + {i} enters
with sign (-1) ** (i + p), where p is the 1-based slot i takes inside the
sorted tuple.  Equations whose tuple contains q are redundant (see
:func:`check_dependence_relations`); colex order lists the others first, so
for q = r*d the square system is the full system's leading
d * C(q-1, r-1) = C(q, r) rows.  The determinant of that matrix is the
configuration invariant computed by :func:`det_sr`; it is linear in every
slot and vanishes whenever all r-subsets of some (r+1) particles share one
vector.  :func:`det_sr` pivots each column M + {q}, which is s * u in block M
alone (s = term_sign(M, q) for every one of the N = C(q-1, r-1) blocks), on
u's first nonzero a = u[k0]; ``det_exact`` then sees only the Schur complement
S over the C(q-1, r) columns avoiding q, rows a * row(M, k) - u[k] * row(M, k0),
and det = (-1)^e s^N det(S) prod a^(2-d), e = sum (d-1-k0) + (d-1) N(N-1)/2.
S is built one block at a time: the layout lists each block M's slots
M + {i} in order of i, head last, so a block reads its head, takes the pivot
and writes each of its d-1 rows of S as one dict.

Configurations and force systems share one equation builder and one relation
combination; each convention uses one sign function at both levels
(:func:`term_sign` for configurations, :func:`_order_sign` for forces).
Where each nonzero goes, and its sign, depend only on the shape (r, d, q) and
the sign function, never on the values.  That layout of the full system, with
its labels and its ±1 relation rows, is computed once per shape and sign
function and cached; every build scatters the stored values through it
entry by entry, and the square system, :func:`det_sr` (through the per-block
view of the same layout) and the relation checks all read it.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from math import comb, prod
from typing import NamedTuple

from .combinat import subsets_colex
from .exact import Matrix, det_exact
from .tensors import CoefficientSystem, ForceSystem, VectorConfiguration, _check_coefficients


class SystemMatrix(NamedTuple):
    """Labeled system, square or full: rows ((r-1)-tuple, coordinate), columns (r-tuples)."""

    matrix: Matrix
    row_labels: tuple
    col_labels: tuple


def term_sign(equation_tuple, i: int) -> int:
    """Sign of the tuple-(M + {i}) term inside equation M: (-1) ** (i + p),
    p = bisect_right(M, i) + 1 the 1-based slot of i in sorted(M + {i})."""
    return 1 if (i + bisect_right(equation_tuple, i)) & 1 else -1


def _order_sign(equation_tuple, i: int) -> int:
    """Sign a force system gives the written order M + (i,): (-1) ** (|M| + 1 - p),
    one transposition per member of M above i."""
    return -1 if (len(equation_tuple) - bisect_right(equation_tuple, i)) & 1 else 1


@lru_cache(maxsize=None)
def _incidence_pattern(r: int, d: int, q: int, sign):
    """Value-independent layout of the full system: d rows per (r-1)-subset M
    of {1..q} in colex order, over the r-tuples of {1..q} in colex order.

    Maps every sorted r-tuple T to ``(column of T, ((first row of block M,
    negate), ...))``, one pair per equation M = T - {i}, where ``negate`` is
    ``sign(M, i) < 0``.  Also returns, for each of the C(q-1, r-1) blocks M
    that avoid particle q, its slots ``((column, T, negate), ...)`` ordered by
    i, so the last one is the head M + {q}; they share the column numbers and
    the r-tuples of the column labels.  Then the row labels ((M, coordinate),
    ...), the column labels (the r-tuples) and the relation rows: for every
    (r-2)-subset N, the d rows sum over i of sign(N, i) * rows(sorted(N + {i})).
    Each tuple N + {i, j} is reached once through i and once through j, and
    the two terms cancel when the rows were built with the same sign function,
    so the relation rows times the full system are zero.  The key includes
    the sign function, so a replaced one gets its own layout.  Shared by
    every caller: read it, never write it.
    """
    equations = subsets_colex(q, r - 1)
    col_labels = subsets_colex(q, r)
    block_row = {m: b * d for b, m in enumerate(equations)}
    # one (first row, negate) pair object per block and sign, shared by its slots
    pairs = {m: ((base, False), (base, True)) for m, base in block_row.items()}
    # colex order lists the blocks avoiding q first, and within a block the
    # columns M + {i} by increasing i
    blocks = [[] for _ in range(comb(q - 1, r - 1))]
    pattern = {}
    for j, t in enumerate(col_labels):
        slots = []
        for p, i in enumerate(t):
            m = t[:p] + t[p + 1 :]
            base, negate = slot = pairs[m][sign(m, i) < 0]
            slots.append(slot)
            if q not in m:
                blocks[base // d].append((j, t, negate))
        pattern[t] = (j, tuple(slots))
    row_labels = tuple((m, coord) for m in equations for coord in range(1, d + 1))
    relations = []
    for anchor in subsets_colex(q, r - 2):
        terms = [
            (block_row[tuple(sorted(anchor + (i,)))], sign(anchor, i))
            for i in range(1, q + 1)
            if i not in anchor
        ]
        relations.extend({base + coord: s for base, s in terms} for coord in range(d))
    blocks = tuple(map(tuple, blocks))
    return pattern, blocks, row_labels, col_labels, Matrix._from_sparse(relations, len(row_labels))


def _incidence_rows(values, r: int, d: int, q: int, sign) -> SystemMatrix:
    """Labeled full system of d sparse rows per equation M, an (r-1)-subset of
    {1..q} in colex order, over the r-tuples of {1..q} in colex order; column
    sorted(M + {i}) holds sign(M, i) * values[sorted(M + {i})], where ``values``
    maps sorted r-tuples to d-vectors.  Only the stored slots are visited;
    rows, columns, signs and labels come from :func:`_incidence_pattern`."""
    pattern, _, row_labels, col_labels, _ = _incidence_pattern(r, d, q, sign)
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
    """(r, d, q) of a configuration with q = r*d, the square system's precondition."""
    if not isinstance(v, VectorConfiguration):
        raise TypeError(f"square system needs a VectorConfiguration, got {type(v).__name__}")
    if v.q != v.r * v.d:
        raise ValueError(f"square system needs q = r*d, got q={v.q} with r={v.r}, d={v.d}")
    return v.r, v.d, v.q


def build_system_matrix(v: VectorConfiguration) -> SystemMatrix:
    """Assemble the square system for a configuration with q = r*d."""
    r, d, q = _square_shape(v)
    return _reduced_rows(_incidence_rows(v.entries, r, d, q, term_sign), r, d, q)


def det_sr(v: VectorConfiguration) -> Fraction:
    """Exact determinant of the square system built from ``v``, via the Schur complement S above.

    S is built one block M at a time, from the block's slots in the cached
    layout: the head u = v[M + {q}] gives the pivot a = u[k0], and each
    k != k0 gives one row of S as one dict, a * w[k] - u[k] * w[k0] (negated
    where the slot's sign is) over the block's stored vectors w.  A missing
    or zero head returns 0 before any row is built."""
    r, d, q = _square_shape(v)
    blocks = _incidence_pattern(r, d, q, term_sign)[1]
    get = v.entries.get
    e = (d - 1) * len(blocks) * (len(blocks) - 1) // 2
    pivots = []
    rows = []
    for slots in blocks:
        _, head, negate_head = slots[-1]
        u = get(head, ())
        for k0, a in enumerate(u):
            if a:
                break
        else:  # no head, or a zero one: a zero column
            return Fraction(0)
        e += d - 1 - k0 + negate_head
        pivots.append(a)
        # the head's own entry is a * u[k] - u[k] * a = 0, so it drops out
        for k, c in enumerate(u):
            if k != k0:
                rows.append({
                    j: -x if negate else x
                    for j, t, negate in slots
                    if (w := get(t)) and (x := a * w[k] - c * w[k0])
                })
    value = det_exact(Matrix._from_sparse(rows, comb(q - 1, r)))
    if e & 1:
        value = -value
    return value if d == 2 else value * Fraction(prod(pivots)) ** (2 - d)


def check_dependence_relations(v, lam: CoefficientSystem) -> bool:
    """True iff every redundancy identity among the equations evaluates to the
    exact zero vector at (v, lam).

    Accepts a :class:`VectorConfiguration` (signed-tuple equations) or a
    :class:`ForceSystem` (raw antisymmetric equations).  The identities hold
    for every input; a False return means the sign conventions were broken.
    """
    if not isinstance(v, (VectorConfiguration, ForceSystem)):
        raise TypeError(
            f"dependence relations need a VectorConfiguration or a ForceSystem, got {type(v).__name__}"
        )
    _check_coefficients(lam, v.r, v.q)
    if isinstance(v, ForceSystem):
        values, sign = v.canonical, _order_sign
    else:
        values, sign = v.entries, term_sign
    system = _incidence_rows(values, v.r, v.d, v.q, sign)
    at_lam = system.matrix.mul_vec([lam.canonical.get(t, 0) for t in system.col_labels])
    relations = _incidence_pattern(v.r, v.d, v.q, sign)[-1]
    return not any(relations.mul_vec(at_lam))
