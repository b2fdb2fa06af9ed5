import random
from collections.abc import Mapping
from decimal import Decimal
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from equidet import (
    CoefficientSystem,
    ForceSystem,
    VectorConfiguration,
    permutation_sign,
    random_coefficients,
    random_configuration,
    random_force_system,
    subsets_colex,
)
from equidet.tensorfile import dump_tensor, load_tensor
from equidet.tensors import _tau


def test_force_pair_swap():
    f = ForceSystem(2, 2, 4, {(1, 2): (3, -1)})
    assert f.get((1, 2)) == (3, -1)
    assert f.get((2, 1)) == (-3, 1)


def test_force_repeated_index_reads_zero():
    f = ForceSystem(2, 2, 4, {(1, 2): (3, -1)})
    assert f.get((1, 1)) == (0, 0)
    g = ForceSystem(3, 2, 5, {(1, 2, 3): (1, 1)})
    assert g.get((2, 2, 4)) == (0, 0)


def test_force_triple_symmetries():
    u = (5, -2, 7)
    f = ForceSystem(3, 3, 3, {(1, 2, 3): u})
    # cyclic rotations keep the value, single swaps flip it
    assert f.get((2, 3, 1)) == u
    assert f.get((3, 1, 2)) == u
    assert f.get((2, 1, 3)) == tuple(-x for x in u)
    assert f.get((1, 3, 2)) == tuple(-x for x in u)
    assert f.get((3, 2, 1)) == tuple(-x for x in u)


def test_force_index_range_checked():
    f = ForceSystem(2, 1, 3, {(1, 2): (1,)})
    with pytest.raises(ValueError):
        f.get((0, 1))
    with pytest.raises(ValueError):
        f.get((1, 4))
    with pytest.raises(ValueError):
        f.get((1, 2, 3))



@pytest.mark.parametrize(
    "build, field",
    [
        (lambda n: ForceSystem(n, 1, n), "r"),
        (lambda n: VectorConfiguration(1, n, n), "d"),
        (lambda n: CoefficientSystem(n, n), "r"),
    ],
)
def test_arities_and_dimensions_past_the_largest_size_are_rejected_by_field(build, field):
    import sys

    n = sys.maxsize + 1
    with pytest.raises(ValueError, match=f"field '{field}' has {len(str(n))} digits") as info:
        build(n)
    assert str(n) not in str(info.value)
    build(3)  # the same shape at a small size is accepted


SHAPE_BUILDERS = {
    "forces": lambda r, d, q: ForceSystem(r, d, q),
    "configuration": lambda r, d, q: VectorConfiguration(r, d, q),
    "coefficients": lambda r, d, q: CoefficientSystem(r, q),
    "random-configuration": lambda r, d, q: random_configuration(r, d, 3, random.Random(1)),
    "random-forces": lambda r, d, q: random_force_system(r, d, q, 3, random.Random(1)),
    "random-coefficients": lambda r, d, q: random_coefficients(r, q, 3, random.Random(1)),
}


@pytest.mark.parametrize("bad", [2.0, True, "2"], ids=["float", "bool", "str"])
@pytest.mark.parametrize(
    "kind, field",
    [(kind, field) for kind in SHAPE_BUILDERS for field in "rdq"
     if not (field == "d" and "coefficients" in kind) and not (field == "q" and kind == "random-configuration")],
)
def test_non_int_shapes_are_rejected_where_they_enter(kind, field, bad):
    # the shape rule's int check: r, d and q of any other type, bool included,
    # are a ValueError naming the field, not a TypeError from deep inside
    shape = {"r": 2, "d": 2, "q": 4}
    SHAPE_BUILDERS[kind](**shape)  # the int shape is accepted
    shape[field] = bad
    with pytest.raises(ValueError, match=f"field '{field}' must be an integer, got {bad!r}"):
        SHAPE_BUILDERS[kind](**shape)


def test_random_configuration_checks_its_shape_before_its_particle_count():
    # q = r * d: a str r times a d past the largest size is an OverflowError,
    # not the field's ValueError, unless r is checked first
    with pytest.raises(ValueError, match="field 'r' must be an integer"):
        random_configuration("x", 10**20, 3, random.Random(1))


def test_particle_counts_past_the_largest_size_are_stored():
    # a sparse tensor over any number of particles fits; enumerating them does not
    import sys

    n = sys.maxsize + 1
    assert ForceSystem(2, 1, n, {(1, n): (1,)}).get((n, 1)) == (-1,)
    assert CoefficientSystem(2, n).q == n

def test_force_antisymmetry_exhaustive():
    rng = random.Random(10)
    for r, q in ((2, 5), (3, 6), (4, 6)):
        f = random_force_system(r, 2, q, 9, rng)
        for key in subsets_colex(q, r):
            base = f.get(key)
            for perm in permutations(key):
                sign = permutation_sign(perm)
                expected = base if sign > 0 else tuple(-x for x in base)
                assert f.get(perm) == expected


def test_constructor_rejects_bad_keys():
    with pytest.raises(ValueError):
        ForceSystem(2, 2, 4, {(2, 1): (1, 0)})
    with pytest.raises(ValueError):
        ForceSystem(2, 2, 4, {(1, 5): (1, 0)})
    with pytest.raises(ValueError):
        ForceSystem(2, 2, 4, {(1, 2, 3): (1, 0)})
    with pytest.raises(ValueError):
        ForceSystem(2, 2, 4, {(1, 2): (1, 0, 0)})
    with pytest.raises(ValueError):
        ForceSystem(2, 2, 1)  # q < r
    with pytest.raises(ValueError):
        VectorConfiguration(0, 1, 1)  # r < 1
    with pytest.raises(ValueError):
        VectorConfiguration(3, 1, 2)  # q < r


def test_to_configuration_signs():
    f = ForceSystem(2, 2, 4, {(1, 2): (1, 0), (1, 3): (0, 1)})
    v = f.to_configuration()
    assert v.get((1, 2)) == (1, 0)  # (-1)**(1+2+1) = +1
    assert v.get((1, 3)) == (0, -1)  # (-1)**(1+3+1) = -1

    u = (4, -1)
    g = ForceSystem(3, 2, 6, {(1, 2, 3): u})
    assert g.to_configuration().get((1, 2, 3)) == u  # (-1)**(1+2+3+2) = +1


@pytest.mark.parametrize("scalar", [int, lambda x: Fraction(x, 7)], ids=["int", "fraction"])
@pytest.mark.parametrize("r, d, q", [(2, 2, 4), (2, 3, 7), (3, 2, 6), (3, 3, 9)])
def test_tau_is_its_own_inverse_and_is_to_configuration(r, d, q, scalar):
    seeded = random_force_system(r, d, q, 9, random.Random(f"tau/{r}/{d}/{q}"))
    f = ForceSystem(r, d, q, {key: tuple(map(scalar, vec)) for key, vec in seeded.canonical.items()})
    assert _tau(_tau(f.canonical, r), r) == f.canonical
    assert f.to_configuration().entries == _tau(f.canonical, f.r)
    # against the formula: tuple T scaled by (-1) ** (sum(T) + r - 1)
    for key, vec in f.canonical.items():
        assert _tau(f.canonical, r)[key] == tuple((-1) ** (sum(key) + r - 1) * x for x in vec)


def test_to_configuration_is_slotwise_linear():
    rng = random.Random(11)
    a = random_force_system(2, 2, 4, 5, rng)
    b = random_force_system(2, 2, 4, 5, rng)
    summed = ForceSystem(
        2, 2, 4,
        {k: tuple(x + y for x, y in zip(a.get(k), b.get(k))) for k in subsets_colex(4, 2)},
    )
    va, vb, vs = a.to_configuration(), b.to_configuration(), summed.to_configuration()
    for k in subsets_colex(4, 2):
        assert vs.get(k) == tuple(x + y for x, y in zip(va.get(k), vb.get(k)))


def test_coefficient_symmetry():
    c = CoefficientSystem(2, 4, {(1, 2): 5})
    assert c.get((2, 1)) == 5
    assert c.get((1, 3)) == 0
    assert c == CoefficientSystem(2, 4, {(1, 2): 5})
    assert c != CoefficientSystem(2, 5, {(1, 2): 5})
    assert c != "not a tensor"

    c3 = CoefficientSystem(3, 5, {(1, 2, 3): -2})
    for perm in permutations((1, 2, 3)):
        assert c3.get(perm) == -2


def test_coefficient_exhaustive_permutation_invariance():
    rng = random.Random(12)
    q = 6
    canonical = {k: rng.randint(-9, 9) for k in subsets_colex(q, 3)}
    c = CoefficientSystem(3, q, canonical)
    for key in subsets_colex(q, 3):
        for perm in permutations(key):
            assert c.get(perm) == c.get(key)


def test_coefficient_rejects_repeats_and_bad_range():
    c = CoefficientSystem(2, 4, {(1, 2): 5})
    with pytest.raises(ValueError):
        c.get((1, 1))
    with pytest.raises(ValueError):
        c.get((1, 9))
    with pytest.raises(ValueError):
        CoefficientSystem(2, 1)  # q < r
    with pytest.raises(ValueError):
        CoefficientSystem(2, 3, {(1, 2, 3): 1})  # wrong arity


def test_coefficient_is_trivial():
    assert CoefficientSystem(2, 4).is_trivial()
    assert CoefficientSystem(2, 4, {(1, 2): 0}).is_trivial()
    assert not CoefficientSystem(2, 4, {(1, 2): Fraction(1, 3)}).is_trivial()


def test_configuration_zero_default_and_validation():
    v = VectorConfiguration(2, 2, 4, {(1, 2): (1, 2)})
    assert v.get((3, 4)) == (0, 0)
    assert v.get((1, 2)) == (1, 2)
    with pytest.raises(ValueError):
        v.get((2, 1))
    with pytest.raises(ValueError):
        v.get((1, 2, 3))
    with pytest.raises(ValueError):
        VectorConfiguration(2, 2, 4, {(1, 2): (1,)})
    # the two kinds use different sign conventions: equal numbers are not equal tensors
    e = {(1, 2): (1, 2)}
    assert (VectorConfiguration(2, 2, 4, e) == ForceSystem(2, 2, 4, e)) is False
    assert (ForceSystem(2, 2, 4, e) == VectorConfiguration(2, 2, 4, e)) is False
    assert ForceSystem(2, 2, 4, e) != VectorConfiguration(2, 2, 4, e)
    assert ForceSystem(2, 2, 4, e) == ForceSystem(2, 2, 4, dict(e))
    assert VectorConfiguration(2, 2, 4, e) != VectorConfiguration(2, 2, 5, e)
    assert repr(v) == "VectorConfiguration(r=2, d=2, q=4, 1 nonzero slots)"
    assert repr(ForceSystem(2, 2, 4, e)) == "ForceSystem(r=2, d=2, q=4, 1 nonzero tuples)"
    assert repr(CoefficientSystem(2, 4, {(1, 2): 3})) == "CoefficientSystem(r=2, q=4, 1 nonzero tuples)"


@pytest.mark.parametrize("bad", [1.5, True, Decimal(1), "1"], ids=["float", "bool", "decimal", "str"])
def test_constructors_reject_non_exact_scalars(bad):
    with pytest.raises(ValueError):
        ForceSystem(2, 2, 3, {(1, 2): (1, bad)})
    with pytest.raises(ValueError):
        VectorConfiguration(2, 2, 4, {(1, 2): (bad, 0)})
    with pytest.raises(ValueError):
        CoefficientSystem(2, 3, {(1, 3): bad})


def test_configuration_with_slot_is_a_copy():
    v = VectorConfiguration(2, 2, 4, {(1, 2): (1, 2)})
    w = v.with_slot((1, 2), (9, 9))
    assert v.get((1, 2)) == (1, 2)
    assert w.get((1, 2)) == (9, 9)


def test_with_slot_matches_full_reconstruction():
    rng = random.Random(91)
    for _ in range(200):
        r = rng.randint(1, 3)
        d = rng.randint(1, 3)
        q = rng.randint(r, r + 3)
        slots = subsets_colex(q, r)
        v = VectorConfiguration(r, d, q, {
            t: tuple(rng.randint(-2, 2) for _ in range(d)) for t in slots if rng.random() < 0.6
        })
        key = rng.choice(slots)
        vec = rng.choice((
            (0,) * d,
            tuple(rng.randint(-3, 3) for _ in range(d)),
            tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d)),
        ))
        before = dict(v.entries)
        w = v.with_slot(key, vec)
        expected = VectorConfiguration(r, d, q, {**v.entries, key: vec})
        assert w == expected
        assert list(w.entries) == list(expected.entries)  # same slot order
        assert v.entries == before
        if not any(vec):
            assert key not in w.entries


@pytest.mark.parametrize(
    "key,vec",
    [
        ((2, 1), (1, 1)),  # unsorted
        ((1, 5), (1, 1)),  # out of range
        ((0, 1), (1, 1)),
        ((1, 2, 3), (1, 1)),  # arity
        ((1, 2), (1, 1, 1)),  # length
        ((1, 2), (1.5, 1)),  # not exact
    ],
)
def test_with_slot_rejects_what_construction_rejects(key, vec):
    v = VectorConfiguration(2, 2, 4, {(1, 3): (1, 0)})
    with pytest.raises(ValueError):
        VectorConfiguration(2, 2, 4, {**v.entries, key: vec})
    with pytest.raises(ValueError):
        v.with_slot(key, vec)


class PairMapping(Mapping):
    """A mapping kept as a list of pairs, so its keys need not be hashable."""

    def __init__(self, pairs):
        self.pairs = list(pairs)

    def __getitem__(self, key):
        for k, value in self.pairs:
            if k == key:
                return value
        raise KeyError(key)

    def __iter__(self):
        return (k for k, _ in self.pairs)

    def __len__(self):
        return len(self.pairs)


@pytest.mark.parametrize("second", [(1, 2), [1, 2]], ids=["tuple", "list"])
def test_every_kind_rejects_a_repeated_key(second):
    # one entry rule: a key given twice, also once as a tuple and once as a
    # list, is refused by all three kinds rather than overwritten
    calls = [
        lambda: ForceSystem(2, 1, 3, PairMapping([((1, 2), (1,)), (second, (2,))])),
        lambda: VectorConfiguration(2, 1, 3, PairMapping([((1, 2), (1,)), (second, (2,))])),
        lambda: CoefficientSystem(2, 3, PairMapping([((1, 2), 1), (second, 2)])),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"repeated key \(1, 2\)"):
            call()


NON_INT_INDICES = [(True, 2), (1.0, 2), ("1", 2), ([1], 2)]


@pytest.mark.parametrize("key", NON_INT_INDICES, ids=["bool", "float", "str", "list"])
def test_every_entry_point_rejects_non_int_indices(key):
    # one index rule: r values of type int in 1..q, for constructors, with_slot and get alike
    calls = [
        lambda: ForceSystem(2, 1, 3, PairMapping([(key, (1,))])),
        lambda: VectorConfiguration(2, 1, 3, PairMapping([(key, (1,))])),
        lambda: CoefficientSystem(2, 3, PairMapping([(key, 1)])),
        lambda: VectorConfiguration(2, 1, 3, {(1, 3): (1,)}).with_slot(key, (1,)),
        lambda: ForceSystem(2, 1, 3, {(1, 2): (1,)}).get(key),
        lambda: VectorConfiguration(2, 1, 3, {(1, 2): (1,)}).get(key),
        lambda: CoefficientSystem(2, 3, {(1, 2): 1}).get(key),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()


exact_scalars = st.one_of(st.integers(-3, 3), st.fractions(max_denominator=5))


@st.composite
def constructor_calls(draw):
    """Arguments for a tensor constructor: in-shape about half the time, else
    with keys and scalars that may be of the wrong type, arity or range."""
    r, d = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    q = draw(st.integers(r, 5))
    keys = st.sampled_from(list(combinations(range(1, q + 1), r)))
    vectors = st.lists(exact_scalars, min_size=d, max_size=d).map(tuple)
    if draw(st.booleans()):
        indices = st.one_of(st.integers(-1, q + 1), st.booleans(), st.sampled_from([1.0, 2.0, "1", None]))
        keys = st.one_of(keys, st.lists(indices, min_size=r - 1, max_size=r + 1).map(tuple))
        odd_scalars = st.one_of(exact_scalars, st.sampled_from([0.5, True, "1"]))
        vectors = st.one_of(vectors, st.lists(odd_scalars, min_size=d - 1, max_size=d + 1).map(tuple))
    cls = draw(st.sampled_from([ForceSystem, VectorConfiguration]))
    return cls, r, d, q, draw(st.dictionaries(keys, vectors, max_size=5))


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(constructor_calls())
def test_every_constructed_tensor_survives_its_file(tmp_path, call):
    cls, r, d, q, entries = call
    try:
        tensor = cls(r, d, q, entries)
    except ValueError:
        return
    path = tmp_path / "tensor.json"
    dump_tensor(tensor, path)
    assert load_tensor(path) == tensor


def test_zero_vectors_are_not_stored():
    v = VectorConfiguration(2, 2, 4, {(1, 2): (0, 0), (1, 3): (1, 0)})
    assert set(v.entries) == {(1, 3)}
    f = ForceSystem(2, 2, 4, {(1, 2): (0, 0)})
    assert f.canonical == {}


def test_clique_cover_pattern():
    # all pair-slots inside {1,2,3} read the same vector after assignment
    v = VectorConfiguration(2, 2, 4)
    shared = (1, 1)
    for sub in combinations((1, 2, 3), 2):
        v = v.with_slot(sub, shared)
    assert all(v.get(sub) == shared for sub in combinations((1, 2, 3), 2))
