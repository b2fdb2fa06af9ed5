"""The square interaction system and its exact determinant.

A configuration on q = r*d particles yields one d-row vector equation per
(r-1)-subset M of {1..q-1}: the unknown attached to tuple M + {i} enters
with sign (-1) ** (i + p), where p is the 1-based slot i takes inside the
sorted tuple.  Equations whose tuple contains q are redundant (see
:func:`check_dependence_relations`) and are dropped, which makes the matrix
square: d * C(q-1, r-1) = C(q, r).  The determinant of that matrix is the
configuration invariant computed by :func:`det_sr`; it is linear in every
slot and vanishes whenever all r-subsets of some (r+1) particles share one
vector.

Configurations and force systems share one equation builder and one relation
combination; each convention uses one sign function at both levels
(:func:`term_sign` for configurations, :func:`_order_sign` for forces).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .combinat import insert_position, subsets_colex
from .exact import Matrix, det_exact
from .tensors import CoefficientSystem, ForceSystem, VectorConfiguration


@dataclass(frozen=True)
class SystemMatrix:
    """Square system with labeled rows ((r-1)-tuple, coordinate) and columns (r-tuples)."""

    matrix: Matrix
    row_labels: tuple
    col_labels: tuple


def term_sign(equation_tuple, i: int) -> int:
    """Sign of the tuple-(M + {i}) term inside equation M."""
    return -1 if (i + insert_position(equation_tuple, i)) & 1 else 1


def _order_sign(equation_tuple, i: int) -> int:
    """Sign a force system gives the written order M + (i,): (-1) ** (|M| + 1 - p),
    one transposition per member of M above i."""
    return -1 if (len(equation_tuple) - bisect_right(equation_tuple, i)) & 1 else 1


def _incidence_rows(values, d: int, q: int, eq_tuples, col_index, sign):
    """d rows per equation tuple M; column sorted(M + {i}) holds sign(M, i) *
    values[sorted(M + {i})], where ``values`` maps sorted r-tuples to d-vectors."""
    data = []
    for m in eq_tuples:
        block = [[0] * len(col_index) for _ in range(d)]
        for i in range(1, q + 1):
            if i in m:
                continue
            key = tuple(sorted(m + (i,)))
            vec = values.get(key)
            if vec is None:
                continue
            j = col_index[key]
            if sign(m, i) < 0:
                vec = [-x for x in vec]
            for coord in range(d):
                block[coord][j] = vec[coord]
        data.extend(block)
    return data


def _relation_rows(rows, r: int, d: int, q: int, sign):
    """For every (r-2)-subset N, the d rows sum over i of sign(N, i) *
    rows(sorted(N + {i})); ``rows`` holds d rows per (r-1)-subset of {1..q} in
    colex order.  Each tuple N + {i, j} is reached once through i and once
    through j, and the two terms cancel when the rows were built with the same
    sign function, so every relation row of a full system is zero.
    """
    block_index = {m: b for b, m in enumerate(subsets_colex(q, r - 1))}
    out = []
    for anchor in subsets_colex(q, r - 2):
        acc = [[0] * len(rows[0]) for _ in range(d)]
        for i in range(1, q + 1):
            if i in anchor:
                continue
            s = sign(anchor, i)
            base = block_index[tuple(sorted(anchor + (i,)))] * d
            for coord in range(d):
                for j, x in enumerate(rows[base + coord]):
                    if x:
                        acc[coord][j] += x if s > 0 else -x
        out.extend(acc)
    return out


def build_system_matrix(v: VectorConfiguration) -> SystemMatrix:
    """Assemble the square system for a configuration with q = r*d."""
    r, d, q = v.r, v.d, v.q
    if q != r * d:
        raise ValueError(f"square system needs q = r*d, got q={q} with r={r}, d={d}")
    col_labels = subsets_colex(q, r)
    col_index = {t: j for j, t in enumerate(col_labels)}
    eq_tuples = subsets_colex(q - 1, r - 1)
    row_labels = tuple((m, coord) for m in eq_tuples for coord in range(1, d + 1))
    data = _incidence_rows(v.entries, d, q, eq_tuples, col_index, term_sign)
    return SystemMatrix(Matrix(data), row_labels, col_labels)


def det_sr(v: VectorConfiguration) -> Fraction:
    """Exact determinant of the square system built from ``v``."""
    return det_exact(build_system_matrix(v).matrix)


def check_dependence_relations(v, lam: CoefficientSystem) -> bool:
    """True iff every redundancy identity among the equations evaluates to the
    exact zero vector at (v, lam).

    Accepts a :class:`VectorConfiguration` (signed-tuple equations) or a
    :class:`ForceSystem` (raw antisymmetric equations).  The identities hold
    for every input; a False return means the sign conventions were broken.
    """
    if lam.r != v.r or lam.q != v.q:
        raise ValueError(
            f"arity mismatch: coefficients are (r={lam.r}, q={lam.q}), input is (r={v.r}, q={v.q})"
        )
    if isinstance(v, ForceSystem):
        values, sign = v.canonical, _order_sign
    else:
        values, sign = v.entries, term_sign
    col_labels = subsets_colex(v.q, v.r)
    col_index = {t: j for j, t in enumerate(col_labels)}
    rows = _incidence_rows(values, v.d, v.q, subsets_colex(v.q, v.r - 1), col_index, sign)
    at_lam = Matrix(rows).mul_vec([lam.canonical.get(t, 0) for t in col_labels])
    relations = _relation_rows([[x] for x in at_lam], v.r, v.d, v.q, sign)
    return not any(row[0] for row in relations)
