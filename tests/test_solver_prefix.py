"""The solver's one elimination against the full-system kernel vector.

With k = min(q, r*d + 1), the solver eliminates only the n = d * C(k-1, r-1)
equations of the first k particles that avoid particle 1, cut to their first
m = min(n + 1, C(k, r)) columns.  The row dependences make every equation
block containing particle 1 a combination of those rows on the first k
particles' columns, so they keep the kernel.  For q <= r*d that is the whole
system (k = q and m = C(q, r)); for q > r*d, n rows hold at most n pivots, so
the first free column is among the first n + 1, all on the first k
particles.  Its family must still be exactly the first kernel vector of the
full system, on every small shape and on integer, fractional, sparse and
all-zero forces, and on simplex forces (cross products, pair differences and
wedges on either side of q = r*d and at it), whose first free column comes
early.  The solver builds only the first k particles' system over those m
columns, and its vector solves every equation of the full system.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

import equidet.detmap as detmap
import equidet.equilibrium as equilibrium
from equidet import (
    ForceSystem,
    build_equilibrium_system,
    cross_product_forces,
    dump_tensor,
    kernel_vector,
    simplex_forces,
    solve_nontrivial,
    subsets_colex,
    wedge_forces,
)
from equidet.cli import main

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


def simplex_inputs():
    """Cross products (r = d = 3), pair differences (r = 2 in 3-space, d = 3)
    and wedges (r = 3 in 4-space, d = 6) of seeded integer points, at
    q < r*d, q = r*d and q > r*d."""
    families = [("cross", 3, 3, (7, 9, 11)), ("differences", 2, 3, (5, 6, 8)), ("wedge", 3, 4, (17, 18, 19))]
    for name, r, s, qs in families:
        for q in qs:
            rng = random.Random(6000 * r + 100 * s + q)
            points = [tuple(rng.randint(-4, 4) for _ in range(s)) for _ in range(q)]
            if name == "cross":
                f = cross_product_forces(points)
            elif name == "wedge" and q == 18:
                f = wedge_forces(s, points)
            else:
                f = simplex_forces(r, points)
            yield pytest.param(f, id=f"{name}-q{q}")


@pytest.mark.parametrize("f", simplex_inputs())
def test_solver_matches_the_full_system_kernel_vector_on_simplex_forces(f):
    system = build_equilibrium_system(f)
    vec = kernel_vector(system.full_matrix)
    assert vec is not None
    lam = solve_nontrivial(f)
    assert lam.canonical == {t: x for t, x in zip(system.col_labels, vec) if x}


OVERDET = [(r, d, q) for r, d, q in SHAPES if q > r * d]
OVERDET_IDS = [f"r{r}-d{d}-q{q}" for r, d, q in OVERDET]


@pytest.mark.parametrize("r, d, q", OVERDET, ids=OVERDET_IDS)
def test_solver_scatters_only_the_cut_columns(monkeypatch, r, d, q):
    # one build, from the stored vectors of the first n + 1 colex r-tuples,
    # and never the full system
    n = d * comb(r * d, r - 1)
    cut = set(subsets_colex(r * d + 1, r)[: n + 1])
    seen = []
    build = detmap._incidence_rows

    def recorded(values, *shape):
        seen.append(dict(values))
        return build(values, *shape)

    monkeypatch.setattr(detmap, "_incidence_rows", recorded)
    monkeypatch.setattr(equilibrium, "build_equilibrium_system", None)  # any call fails
    f = forces(r, d, q, "int", random.Random(2000 * r + 100 * d + q))
    assert solve_nontrivial(f) is not None
    (values,) = seen
    assert len(values) <= n + 1
    assert set(values) <= cut
    assert values == {t: x for t, x in f.canonical.items() if t in cut}


@pytest.mark.parametrize("kind", ["int", "fraction", "sparse"])
@pytest.mark.parametrize("r, d, q", OVERDET, ids=OVERDET_IDS)
def test_solver_vector_solves_every_equation_of_the_full_system(r, d, q, kind):
    f = forces(r, d, q, kind, random.Random(3000 * r + 100 * d + q))
    lam = solve_nontrivial(f)
    system = build_equilibrium_system(f)
    padded = [lam.canonical.get(t, 0) for t in system.col_labels]
    n = d * comb(r * d, r - 1)
    assert any(padded) and not any(padded[n + 1:])
    assert not any(system.full_matrix.mul_vec(padded))


@pytest.mark.parametrize(
    "r, d, q",
    [(r, d, q) for r, d, q in OVERDET if q > r * d + 1] + [(3, 2, 30)],
    ids=[f"r{r}-d{d}-q{q}" for r, d, q in OVERDET if q > r * d + 1] + ["r3-d2-q30"],
)
def test_solver_never_builds_the_layout_of_all_q_particles(assert_cached_layouts, r, d, q):
    f = forces(r, d, q, "int", random.Random(5000 * r + 100 * d + q))
    detmap._incidence_pattern.cache_clear()
    assert solve_nontrivial(f) is not None
    assert_cached_layouts({(r, d, r * d + 1)})


def assert_corruption_fails(f, tmp_path, capsys):
    with pytest.raises(ArithmeticError, match="does not solve"):
        solve_nontrivial(f)
    path = tmp_path / "f.json"
    dump_tensor(f, path)
    assert main(["solve", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert "internal error" in captured.err
    assert "SOLVABLE" not in captured.out


@pytest.mark.parametrize("r, d, q", [(2, 2, 6), (3, 2, 8), (2, 3, 8), (1, 3, 5)])
def test_a_corrupted_cut_vector_fails_on_fraction_forces(tmp_path, corrupt_prefix_vectors, capsys, r, d, q):
    f = forces(r, d, q, "fraction", random.Random(4000 * r + 100 * d + q))
    corrupt_prefix_vectors(r, d, q)
    assert_corruption_fails(f, tmp_path, capsys)


# cross-product points: those of the CI's q < r*d solve file, and 9 more
CROSS_POINTS = [
    [(i, i * i % 7, (3 * i * i + i) % 5) for i in range(1, 8)],
    [(i * i % 11, (2 * i**3 + i) % 7 - 3, i - 5) for i in range(1, 10)],
]


@pytest.mark.parametrize("points", CROSS_POINTS, ids=["cross-q7", "cross-q9"])
def test_a_corrupted_vector_fails_where_q_is_at_most_r_d(tmp_path, corrupt_prefix_vectors, capsys, points):
    # cross-product forces (r = d = 3) have a kernel at q <= r*d, and the
    # solver eliminates only the rows avoiding particle 1: the vector is still
    # checked on every row
    f = cross_product_forces(points)
    assert solve_nontrivial(f) is not None
    corrupt_prefix_vectors(3, 3, f.q)
    assert_corruption_fails(f, tmp_path, capsys)
