"""The solver's cut elimination against the full-system kernel vector.

For q > r*d, with k = r*d + 1, the solver eliminates only the
n = d * C(k-1, r-1) equations avoiding particle k, cut to their first n + 1
columns.  On the first k particles' columns the row dependences make every
equation block containing k a combination of those rows, so they keep the
kernel, and n rows hold at most n pivots, so the first free column is among
the first n + 1.  Its family must still be exactly the first kernel vector of
the full system, on every small shape and on integer, fractional, sparse and
all-zero forces.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from equidet import ForceSystem, build_equilibrium_system, kernel_vector, solve_nontrivial

SHAPES = [
    (r, d, q)
    for r in range(1, 5)
    for d in range(1, 4)
    for q in range(r, r * d + 4)
    if comb(q, r) <= 400
]


def forces(r, d, q, kind, rng):
    """Integers in [-5, 5], fractions p/s with |p| <= 5 and 1 <= s <= 4, the
    same fractions on about 15% of the tuples, or no forces at all."""
    if kind == "zero":
        return ForceSystem(r, d, q)
    if kind == "int":
        scalar = lambda: rng.randint(-5, 5)  # noqa: E731
    else:
        scalar = lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 4))  # noqa: E731
    density = 0.15 if kind == "sparse" else 1.0
    return ForceSystem(r, d, q, {
        t: tuple(scalar() for _ in range(d))
        for t in combinations(range(1, q + 1), r)
        if rng.random() < density
    })


@pytest.mark.parametrize("kind", ["int", "fraction", "sparse", "zero"])
@pytest.mark.parametrize("r, d, q", SHAPES, ids=[f"r{r}-d{d}-q{q}" for r, d, q in SHAPES])
def test_solver_matches_the_full_system_kernel_vector(r, d, q, kind):
    f = forces(r, d, q, kind, random.Random(1000 * r + 100 * d + q))
    system = build_equilibrium_system(f)
    vec = kernel_vector(system.full_matrix)
    lam = solve_nontrivial(f)
    if q > r * d:
        assert lam is not None and not lam.is_trivial()
    if vec is None:
        assert lam is None
    else:
        assert lam.canonical == {t: x for t, x in zip(system.col_labels, vec) if x}
