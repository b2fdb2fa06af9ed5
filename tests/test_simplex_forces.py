"""simplex_forces, the one formula behind the worked examples: held to the
hand-written generators it replaced, and to two closed-form kernel counts of
the equilibrium system."""

import random
from fractions import Fraction
from math import comb

import pytest

from equidet import (
    ForceSystem,
    VectorConfiguration,
    build_equilibrium_system,
    cross_product_forces,
    difference_configuration,
    random_force_system,
    rank_exact,
    simplex_forces,
    subsets_colex,
    wedge_forces,
)


# ---------------------------------------------------------------------------
# reference: the generators as written before simplex_forces, one formula each


def reference_cross_product_forces(points):
    canonical = {}
    for i, j, k in subsets_colex(len(points), 3):
        u = [a - b for a, b in zip(points[j - 1], points[i - 1])]
        w = [a - b for a, b in zip(points[k - 1], points[i - 1])]
        canonical[(i, j, k)] = (
            u[1] * w[2] - u[2] * w[1],
            u[2] * w[0] - u[0] * w[2],
            u[0] * w[1] - u[1] * w[0],
        )
    return ForceSystem(3, 3, len(points), canonical)


def reference_wedge_forces(s, vectors):
    pairs = subsets_colex(s, 2)

    def wedge(u, w):
        return [u[a - 1] * w[b - 1] - u[b - 1] * w[a - 1] for a, b in pairs]

    canonical = {}
    for i, j, k in subsets_colex(len(vectors), 3):
        vi, vj, vk = vectors[i - 1], vectors[j - 1], vectors[k - 1]
        parts = (wedge(vi, vj), wedge(vj, vk), wedge(vk, vi))
        canonical[(i, j, k)] = tuple(sum(col) for col in zip(*parts))
    return ForceSystem(3, comb(s, 2), len(vectors), canonical)


def reference_difference_configuration(points):
    entries = {
        (i, j): tuple(a - b for a, b in zip(points[j - 1], points[i - 1]))
        for i, j in subsets_colex(len(points), 2)
    }
    return VectorConfiguration(2, len(points[0]), len(points), entries)


def draw(rng, count, dim, scalar):
    return [tuple(scalar(rng) for _ in range(dim)) for _ in range(count)]


def small_int(rng):
    return rng.randint(-5, 5)


def fraction(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 7))


def degenerate(points):
    """The points with a repeat and a collinear triple planted: p2 = p1 and
    p4 = 2 p3 - p1."""
    points = list(points)
    points[1] = points[0]
    points[3] = tuple(2 * b - a for a, b in zip(points[0], points[2]))
    return points


@pytest.mark.parametrize("scalar", [small_int, fraction])
@pytest.mark.parametrize("plant", [False, True])
def test_wrappers_match_the_hand_written_generators(scalar, plant):
    rng = random.Random(60)
    for _ in range(3):
        points = draw(rng, 9, 3, scalar)
        points = degenerate(points) if plant else points
        assert cross_product_forces(points) == reference_cross_product_forces(points)
        for d in (1, 2, 3, 4):
            points = draw(rng, 2 * d, d, scalar)
            points = degenerate(points) if plant and d > 1 else points
            assert difference_configuration(points) == reference_difference_configuration(points)


@pytest.mark.parametrize(
    "s, scalar",
    [(3, small_int), (3, fraction), (4, small_int), (4, fraction), (5, small_int)],
)
def test_wedge_forces_match_the_hand_written_wedge_sums(s, scalar):
    rng = random.Random(61 + s)
    vectors = degenerate(draw(rng, 3 * comb(s, 2), s, scalar))
    assert wedge_forces(s, vectors) == reference_wedge_forces(s, vectors)


def test_simplex_forces_hand_cases():
    # r = 2: differences; r = 4 in 3-space: the volume form, d = 1
    f = simplex_forces(2, [(1, 2), (4, 0), (1, 2)])
    assert f.canonical == {(1, 2): (3, -2), (2, 3): (-3, 2)}
    f = simplex_forces(4, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert (f.d, f.canonical) == (1, {(1, 2, 3, 4): (1,)})
    f = simplex_forces(4, [(0, 0, 0), (0, 1, 0), (1, 0, 0), (0, 0, 1), (2, 0, 0)])
    assert f.get((1, 2, 3, 4)) == (-1,) and f.get((1, 3, 4, 5)) == (0,)


@pytest.mark.parametrize(
    "r, points",
    [
        (1, [(1, 2), (3, 4)]),  # r below 2
        (3, [(1, 2), (3, 4)]),  # fewer than r points
        (2, [(1, 2), (3, 4, 5)]),  # mixed dimensions
        (2, [(0.5, 1), (2, 3)]),  # a float is not an exact scalar
        (3, [(1,), (2,), (3,)]),  # C(1, 2) = 0 coordinates
    ],
)
def test_simplex_forces_rejects_bad_input(r, points):
    with pytest.raises(ValueError):
        simplex_forces(r, points)


# ---------------------------------------------------------------------------
# closed-form kernel counts, measured on the full equilibrium system


def kernel_dimension(f):
    return comb(f.q, f.r) - rank_exact(build_equilibrium_system(f).full_matrix)


def simplex_law(r, s, q):
    n = q - s + r - 2
    return comb(n, r) if n >= 0 else 0


SIMPLEX_SHAPES = ((2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 3))


def particle_counts(r, most_columns):
    q = r
    while comb(q, r) <= most_columns:
        yield q
        q += 1


@pytest.mark.parametrize("r, s", SIMPLEX_SHAPES)
def test_simplex_kernel_dimension_law(r, s):
    # generic points: the kernel has dimension C(q - s + r - 2, r); at r = 2
    # this is the count of self-stresses of the complete framework
    rng = random.Random(70 + 10 * r + s)
    for q in particle_counts(r, 84):
        f = simplex_forces(r, draw(rng, q, s, lambda rng: rng.randint(-10**6, 10**6)))
        assert kernel_dimension(f) == simplex_law(r, s, q), (r, s, q)


@pytest.mark.parametrize("r, s", SIMPLEX_SHAPES)
def test_simplex_kernel_dimension_law_bounds_small_draws(r, s):
    # small coordinates may fall on special positions, which only add to the kernel
    rng = random.Random(80 + 10 * r + s)
    for q in particle_counts(r, 84):
        for _ in range(3):
            f = simplex_forces(r, draw(rng, q, s, small_int))
            assert kernel_dimension(f) >= simplex_law(r, s, q), (r, s, q)


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_generic_kernel_dimension_law(r, d):
    # random entries: the measured rank is d * C(q - 1, r - 1), the row count
    # of the reduced system (the (r-1)-tuples avoiding particle q), or full
    rng = random.Random(90 + 10 * r + d)
    for q in particle_counts(r, 120):
        f = random_force_system(r, d, q, 10**6, rng)
        assert kernel_dimension(f) == max(0, comb(q, r) - d * comb(q - 1, r - 1)), (r, d, q)
