"""Building and deciding the q-particle rescaling problem.

For a force system on q particles there is one d-row vector equation per
(r-1)-subset M of {1..q}: the unknown attached to M + {i} multiplies the
force value read at the written order M + (i,).  That written order is the
package's one sign convention: the rows come from ``detmap``'s one cached
layout per shape, which a configuration of the same shape reads too (its
square system is these rows up to one sign per block and per column), and
the same sign combines them in :func:`row_dependence_holds`.

The solver follows one rule for every q.  With k = min(q, r*d + 1), the
C(k, r) unknowns of the first k particles come first in colex order and meet
only the first d * C(k, r-1) rows, the equations of the first k particles.
On those columns the row dependence anchored at N = M - {1} makes each block
M that contains particle 1 a ±1 combination of the blocks N + {i}, i > 1,
which avoid it (those with i > k have no entry there), so the
n = d * C(k-1, r-1) rows of the blocks avoiding particle 1 span the row
space of all of them: the same first kernel vector.  For q <= r*d that is
the whole system (k = q).  For q > r*d they hold at most n pivots, so the
first free column is among the first n + 1 columns, and
C(k, r) - n = C(r*d, r-1) / r >= 1 keeps those inside the first k
particles.  So the solver scatters only the stored vectors of the first
m = min(n + 1, C(k, r)) colex r-tuples, eliminates the n rows avoiding
particle 1 over those m columns, and certifies the vector, padded with
zeros, on every equation of the first k particles: all of the full system's
equations that are nonzero on its columns.  Particle 1 is the one to drop
because colex order lists its columns first at every level: each early
column that holds particle 1 meets a single kept block, so the
left-to-right pass pivots it there almost without fill, where the blocks
avoiding particle k would meet it r at a time.  "No solution" only ever
comes from eliminating all C(q, r) columns, and it is sound without the row
dependence, since the n rows are rows of the full system.  The reduced
system (equations avoiding particle q) is the full one's leading rows; its
agreement with it is checked by rank, and the full rows are eliminated only
when the reduced ones fall short of full column rank.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import NamedTuple

from . import detmap
from .combinat import subsets_colex
from .exact import Matrix, kernel_vector, rank_exact
from .tensors import CoefficientSystem, ForceSystem, _check_coefficients


class EquilibriumSystem(NamedTuple):
    r: int
    d: int
    q: int
    full_matrix: Matrix
    reduced_matrix: Matrix
    row_labels: tuple  # ((r-1)-tuple, coordinate) for the full matrix
    col_labels: tuple  # r-tuples


def _check_forces(f) -> None:
    if not isinstance(f, ForceSystem):
        raise TypeError(f"equilibrium system needs a ForceSystem, got {type(f).__name__}")


def build_equilibrium_system(f: ForceSystem) -> EquilibriumSystem:
    """All per-tuple force-balance equations for ``f``, full and reduced."""
    _check_forces(f)
    r, d, q = f.r, f.d, f.q
    full = detmap._incidence_rows(f.canonical, r, d, q)
    return EquilibriumSystem(
        r=r,
        d=d,
        q=q,
        full_matrix=full.matrix,
        reduced_matrix=detmap._reduced_rows(full, r, d, q).matrix,
        row_labels=full.row_labels,
        col_labels=full.col_labels,
    )


def solve_nontrivial(f: ForceSystem):
    """A nonzero symmetric coefficient family solving every equation exactly,
    or None when only the trivial rescaling works.

    With k = min(q, r*d + 1), n = d * C(k-1, r-1) and m = min(n + 1, C(k, r)),
    it builds the system of the first k particles from the stored vectors of
    the first m colex r-tuples only, the columns its vector can touch, and
    eliminates its n rows avoiding particle 1, which pivot particle 1's
    columns inside single blocks with little fill (the module docstring says
    why).  The vector, padded with zeros, is the full system's first, and
    every equation of the k-system certifies it.
    ``ArithmeticError`` if any equation is nonzero, or if a cut to fewer than
    all C(q, r) columns has no kernel vector."""
    _check_forces(f)
    r, d, q = f.r, f.d, f.q
    k = min(q, r * d + 1)
    columns = subsets_colex(k, r)
    n = d * comb(k - 1, r - 1)
    m = min(n + 1, len(columns))
    get = f.canonical.get
    system = detmap._incidence_rows({t: x for t in columns[:m] if (x := get(t))}, r, d, k)
    kept = [row for row, (block, _) in zip(system.matrix.sparse, system.row_labels) if 1 not in block]
    vec = kernel_vector(Matrix._from_sparse(kept, m))
    if vec is None:
        if m < comb(q, r):
            raise ArithmeticError(f"the cut system of the first {k} particles has no kernel vector")
        return None
    vec += [0] * (len(columns) - m)
    if any(system.matrix.mul_vec(vec)):
        raise ArithmeticError("kernel vector does not solve the equilibrium system")
    canonical = {t: x for t, x in zip(system.col_labels, vec) if x}
    return CoefficientSystem._from_checked(r, q, canonical)


def residual(f: ForceSystem, lam: CoefficientSystem) -> Fraction:
    """Largest absolute coordinate over all equations evaluated at ``lam``;
    exactly zero iff ``lam`` solves the system."""
    _check_forces(f)
    _check_coefficients(lam, f.r, f.q)
    system = build_equilibrium_system(f)
    values = system.full_matrix.mul_vec([lam.canonical.get(t, 0) for t in system.col_labels])
    return Fraction(max(map(abs, values), default=0))


def row_dependence_holds(f: ForceSystem) -> bool:
    """Structural redundancy of the equation rows themselves.

    For every (r-2)-subset N, the combination of row blocks
    sum over i of (-1) ** (r - 1 - p) * rows(sorted(N + {i}))  (p the slot of
    i in the sorted tuple) is the zero row, for any force system.  This is
    what justifies dropping the equations that mention particle q from the
    square and reduced systems, and those that mention particle 1 from the
    solver's.
    """
    relations = detmap._relation_rows(f.r, f.d, f.q)
    return not any((relations * build_equilibrium_system(f).full_matrix).sparse)


class ConsistencyReport(NamedTuple):
    """``kernel_dim`` is the full system's column count minus its rank."""

    det_value: Fraction
    kernel_dim: int
    consistent: bool
    reduced_matches_full: bool


def theorem_consistency(f: ForceSystem) -> ConsistencyReport:
    """Cross-check the determinant criterion against the full system's rank.

    q = r*d is checked first, by :func:`detmap.det_sr` (``ValueError``).
    ``consistent``: (det == 0) == (rank < columns).  ``reduced_matches_full``:
    the reduced rows lead the full matrix and have its rank, hence its kernel.
    Being rows of the full matrix, they bound its rank from below, so the full
    matrix is eliminated only when their rank is short of the column count.
    """
    _check_forces(f)
    det_value = detmap.det_sr(f)  # also the q = r*d check
    system = build_equilibrium_system(f)
    cols = system.full_matrix.cols
    reduced_rank = rank_exact(system.reduced_matrix)
    rank = cols if reduced_rank == cols else rank_exact(system.full_matrix)
    kernel_dim = cols - rank
    return ConsistencyReport(
        det_value=det_value,
        kernel_dim=kernel_dim,
        consistent=(det_value == 0) == (kernel_dim > 0),
        reduced_matches_full=reduced_rank == rank,
    )
