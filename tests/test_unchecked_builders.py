"""Differential tests of every tensor the package builds without re-validation.

The random generators, ``ForceSystem.to_configuration`` and the solver's
coefficient family store entries they made themselves through the private
``_from_checked`` constructors.  Each result must equal, attribute for
attribute and down to the type of every stored scalar, what the validating
public constructor builds from the same entries.  The file loader, which
builds through the public constructor, is held to the same comparison.
"""

import pickle
import random
from fractions import Fraction

import pytest

from equidet import (
    CoefficientSystem,
    ForceSystem,
    VectorConfiguration,
    cross_product_forces,
    random_coefficients,
    random_configuration,
    random_force_system,
    solve_nontrivial,
    subsets_colex,
    tensor_from_json,
)
from equidet.equilibrium import build_equilibrium_system
from equidet.exact import kernel_vector
from equidet.tensorfile import parse_scalar

BOUNDS = [0, 1, 5]
SEEDS = range(4)


def stored(obj):
    """Every attribute, with the type of each stored scalar next to its value."""
    state = dict(vars(obj))
    name = "entries" if isinstance(obj, VectorConfiguration) else "canonical"
    values = state.pop(name)
    state[name] = {
        key: [(type(x), x) for x in (value if isinstance(value, tuple) else (value,))]
        for key, value in values.items()
    }
    return type(obj), state


def assert_same(built, reference):
    assert built == reference
    assert stored(built) == stored(reference)


def drawn_vectors(keys, d, bound, rng):
    """The generators' draws, zero vectors included: one vector per key in order."""
    return {key: tuple(rng.randint(-bound, bound) for _ in range(d)) for key in keys}


@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("r, d", [(1, 1), (2, 2), (3, 2)])
def test_random_configuration(r, d, bound):
    q = r * d
    for seed in SEEDS:
        rng, ref_rng = random.Random(seed), random.Random(seed)
        built = random_configuration(r, d, bound, rng)
        assert_same(built, VectorConfiguration(r, d, q, drawn_vectors(subsets_colex(q, r), d, bound, ref_rng)))
        assert rng.getstate() == ref_rng.getstate()  # same draws in the same order
        if bound == 0:
            assert built.entries == {}


@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("r, d, q", [(1, 2, 3), (2, 2, 5), (3, 2, 7)])
def test_random_force_system(r, d, q, bound):
    for seed in SEEDS:
        rng, ref_rng = random.Random(seed), random.Random(seed)
        built = random_force_system(r, d, q, bound, rng)
        assert_same(built, ForceSystem(r, d, q, drawn_vectors(subsets_colex(q, r), d, bound, ref_rng)))
        assert rng.getstate() == ref_rng.getstate()
        if bound == 0:
            assert built.canonical == {}


@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("r, q", [(1, 3), (2, 5), (3, 6)])
def test_random_coefficients(r, q, bound):
    for seed in SEEDS:
        rng, ref_rng = random.Random(seed), random.Random(seed)
        built = random_coefficients(r, q, bound, rng)
        values = {key: ref_rng.randint(-bound, bound) for key in subsets_colex(q, r)}
        assert_same(built, CoefficientSystem(r, q, values))
        assert rng.getstate() == ref_rng.getstate()
        if bound == 0:
            assert built.is_trivial()


@pytest.mark.parametrize(
    "call",
    [
        lambda: random_configuration(0, 2, 5, random.Random(0)),
        lambda: random_configuration(2, 0, 5, random.Random(0)),
        lambda: random_force_system(0, 2, 4, 5, random.Random(0)),
        lambda: random_force_system(2, 0, 4, 5, random.Random(0)),
        lambda: random_force_system(3, 2, 2, 5, random.Random(0)),
        lambda: random_coefficients(0, 4, 5, random.Random(0)),
        lambda: random_coefficients(3, 2, 5, random.Random(0)),
    ],
)
def test_generators_keep_their_argument_checks(call):
    with pytest.raises(ValueError, match="need r >= 1"):
        call()


@pytest.mark.parametrize("r, d, q", [(2, 2, 4), (3, 2, 6), (2, 3, 5)])
def test_to_configuration(r, d, q):
    rng = random.Random(f"to_configuration/{r}/{d}/{q}")
    for bound in BOUNDS:
        generated = random_force_system(r, d, q, bound, rng)
        # the same with one Fraction-valued slot among the integer ones
        with_fraction = ForceSystem(r, d, q, {**generated.canonical, tuple(range(1, r + 1)): (Fraction(1, 3),) * d})
        for f in (generated, with_fraction):
            signed = {
                key: tuple(-x if (sum(key) + r - 1) & 1 else x for x in vec) for key, vec in f.canonical.items()
            }
            assert_same(f.to_configuration(), VectorConfiguration(r, d, q, signed))


DOCUMENT_VECTORS = [
    [["3", "-1"], ["0", "7"], ["-2", "5"]],  # integers
    [["1/2", "-3/4"], ["6/3", "0"], ["-10/4", "1"]],  # p/q, one of them whole
    [["0", "0"], ["0/5", "-0"], ["0", "0/1"]],  # every vector zero
    [["0", "0"], ["2", "2"], ["2/1", "0"]],  # zero and repeated strings
]


@pytest.mark.parametrize("kind, cls", [("forces", ForceSystem), ("configuration", VectorConfiguration)])
@pytest.mark.parametrize("vectors", DOCUMENT_VECTORS)
def test_tensor_from_json(kind, cls, vectors):
    keys = [[1, 2], [1, 3], [2, 4]]
    doc = {
        "r": 2,
        "d": 2,
        "q": 4,
        "kind": kind,
        "entries": [{"idx": key, "vec": vec} for key, vec in zip(keys, vectors)],
    }
    reference = cls(2, 2, 4, {tuple(key): tuple(parse_scalar(x) for x in vec) for key, vec in zip(keys, vectors)})
    assert_same(tensor_from_json(doc), reference)


def test_solver_coefficient_family():
    rng = random.Random("solve_nontrivial")
    inputs = [cross_product_forces([tuple(rng.randint(-5, 5) for _ in range(3)) for _ in range(9)]) for _ in range(2)]
    inputs += [random_force_system(3, 2, 9, 5, rng) for _ in range(2)]
    inputs += [random_force_system(2, 2, 5, 1, rng) for _ in range(4)]
    solved = 0
    for f in inputs:
        lam = solve_nontrivial(f)
        system = build_equilibrium_system(f)
        vec = kernel_vector(system.full_matrix)
        if vec is None:
            assert lam is None
            continue
        assert_same(lam, CoefficientSystem(f.r, f.q, dict(zip(system.col_labels, vec))))
        solved += 1
    assert solved >= 2


KINDS = {
    VectorConfiguration: lambda: VectorConfiguration(2, 1, 3, {(1, 2): (4,)}),
    ForceSystem: lambda: ForceSystem(2, 1, 3, {(1, 2): (4,)}),
    CoefficientSystem: lambda: CoefficientSystem(2, 3, {(1, 2): 4}),
}


@pytest.mark.parametrize("cls", KINDS, ids=lambda cls: cls.__name__)
def test_one_storage_for_every_kind(cls):
    # the public constructor and _from_checked store the fields _FIELDS names,
    # in that order, so both pickle to the same bytes
    built = KINDS[cls]()
    assert tuple(vars(built)) == cls._FIELDS
    fields = [getattr(built, name) for name in cls._FIELDS]
    unchecked = cls._from_checked(*fields)
    assert tuple(vars(unchecked)) == cls._FIELDS
    assert_same(unchecked, built)
    assert pickle.dumps(unchecked) == pickle.dumps(built)
    assert pickle.loads(pickle.dumps(built)) == built
    for wrong in (fields[:-1], fields + [None]):
        with pytest.raises(TypeError, match=f"takes {len(cls._FIELDS)} fields"):
            cls._from_checked(*wrong)


def test_equality_needs_the_same_kind():
    forces = ForceSystem._from_checked(2, 1, 3, {(1, 2): (4,)})
    configuration = VectorConfiguration._from_checked(2, 1, 3, {(1, 2): (4,)})
    assert forces != configuration and configuration != forces
    assert forces == ForceSystem(2, 1, 3, {(1, 2): (4,)}) != ForceSystem(2, 1, 3)
    for tensor in (forces, configuration, CoefficientSystem(2, 3)):
        with pytest.raises(TypeError, match="unhashable"):
            hash(tensor)
