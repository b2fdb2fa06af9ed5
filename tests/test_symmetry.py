"""Symmetries of the system determinant.

Relabelling the particles permutes the equations and the unknowns of the
square system up to sign, so it keeps |det_sr|.  A linear map g applied to
every vector multiplies each of the C(q-1, r-1) row blocks of d rows by g, so
det_sr(g.v) = det(g) ** C(q-1, r-1) * det_sr(v).  Both hold for
configurations and, through ``to_configuration``, for force systems, whose
relabelling also carries the sign of the reordered index tuple.
"""

import random
from math import comb

import pytest

from equidet import (
    ForceSystem,
    Matrix,
    VectorConfiguration,
    det_exact,
    det_sr,
    random_configuration,
    sl_transform,
)
from equidet.combinat import permutation_sign
from equidet.witnesses import random_force_system

SHAPES = [(2, 2), (2, 3), (3, 2)]  # (r, d), q = r*d: 6x6, 15x15 and 20x20 systems
TRIALS = 12  # per shape and input kind
BOUND = 5


def relabel_configuration(v, perm):
    """Configuration whose slot sorted(perm(T)) holds v's vector at T."""
    entries = {tuple(sorted(perm[i - 1] for i in t)): vec for t, vec in v.entries.items()}
    return VectorConfiguration(v.r, v.d, v.q, entries)


def relabel_forces(f, perm):
    """Force system F' with F'(perm(i_1), ..., perm(i_r)) = F(i_1, ..., i_r)."""
    canonical = {}
    for t, vec in f.canonical.items():
        image = [perm[i - 1] for i in t]
        sign = permutation_sign(image)
        canonical[tuple(sorted(image))] = tuple(sign * x for x in vec)
    return ForceSystem(f.r, f.d, f.q, canonical)


def transform_forces(f, g):
    return ForceSystem(f.r, f.d, f.q, {t: tuple(g.mul_vec(list(vec))) for t, vec in f.canonical.items()})


def random_inputs(kind, r, d, rng):
    """``TRIALS`` pairs (input, its configuration) of the given kind."""
    for _ in range(TRIALS):
        if kind == "configuration":
            v = random_configuration(r, d, BOUND, rng)
            yield v, v
        else:
            f = random_force_system(r, d, r * d, BOUND, rng)
            yield f, f.to_configuration()


@pytest.mark.parametrize("kind", ["configuration", "forces"])
@pytest.mark.parametrize("r, d", SHAPES)
def test_relabelling_particles_keeps_the_absolute_determinant(kind, r, d):
    rng = random.Random(f"relabel/{kind}/{r}/{d}")
    relabel = relabel_configuration if kind == "configuration" else relabel_forces
    nonzero = 0
    for x, v in random_inputs(kind, r, d, rng):
        perm = list(range(1, r * d + 1))
        rng.shuffle(perm)
        y = relabel(x, perm)
        w = y if kind == "configuration" else y.to_configuration()
        before = det_sr(v)
        assert abs(det_sr(w)) == abs(before)
        nonzero += before != 0
    assert nonzero  # the property was tested on nonzero determinants too


@pytest.mark.parametrize("kind", ["configuration", "forces"])
@pytest.mark.parametrize("r, d", SHAPES)
def test_linear_substitution_scales_by_a_power_of_its_determinant(kind, r, d):
    rng = random.Random(f"covariance/{kind}/{r}/{d}")
    transform = sl_transform if kind == "configuration" else transform_forces
    power = comb(r * d - 1, r - 1)
    nonzero = 0
    for x, v in random_inputs(kind, r, d, rng):
        g = Matrix([[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)])
        y = transform(x, g)
        w = y if kind == "configuration" else y.to_configuration()
        det_g = det_exact(g)
        assert det_sr(w) == det_g**power * det_sr(v)
        nonzero += det_g != 0 and det_sr(w) != 0
    assert nonzero
