import concurrent.futures
import os
import random
import re
from fractions import Fraction

import pytest

from equidet import (
    CoefficientSystem,
    Matrix,
    affine_dependence_lambda,
    cross_product_forces,
    det_exact,
    det_sr,
    difference_configuration,
    random_configuration,
    random_unimodular,
    residual,
    simplex_forces,
    sl_transform,
    solve_nontrivial,
    subsets_colex,
    wedge_forces,
    witness_search,
)
from equidet import witnesses
from equidet.cli import main
from equidet.invariants import run_property


def test_cross_product_unit_points():
    f = cross_product_forces([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert f.get((1, 2, 3)) == (1, 1, 1)


def test_cross_product_collinear_points_vanish():
    f = cross_product_forces([(0, 0, 0), (1, 2, 3), (2, 4, 6)])
    assert f.get((1, 2, 3)) == (0, 0, 0)


def test_cross_product_rejects_bad_dimension():
    with pytest.raises(ValueError):
        cross_product_forces([(1, 0), (0, 1), (1, 1)])
    with pytest.raises(ValueError):
        cross_product_forces([(1, 0, 0), (0, 1, 0)])


def test_cross_product_configuration_always_degenerate():
    rng = random.Random(50)
    for _ in range(3):
        points = [tuple(rng.randint(-5, 5) for _ in range(3)) for _ in range(9)]
        f = cross_product_forces(points)
        assert det_sr(f.to_configuration()) == 0
        lam = solve_nontrivial(f)
        assert lam is not None and residual(f, lam) == 0


def test_product_coefficients_balance_cross_product_forces():
    rng = random.Random(51)
    points = [tuple(rng.randint(-5, 5) for _ in range(3)) for _ in range(9)]
    weights = affine_dependence_lambda(points)
    assert sum(weights) == 0
    assert all(sum(w * p[c] for w, p in zip(weights, points)) == 0 for c in range(3))
    assert sum(1 for w in weights if w != 0) >= 3
    lam = CoefficientSystem(
        3, 9,
        {(i, j, k): weights[i - 1] * weights[j - 1] * weights[k - 1]
         for (i, j, k) in subsets_colex(9, 3)},
    )
    assert not lam.is_trivial()
    assert residual(cross_product_forces(points), lam) == 0


def test_affine_dependence_hand_case():
    weights = affine_dependence_lambda([(1,), (2,), (3,)])
    # unique up to scale: proportional to (1, -2, 1)
    scale = weights[0]
    assert scale != 0
    assert [w / scale for w in weights] == [1, -2, 1]


def test_affine_dependence_fails_when_underdetermined():
    with pytest.raises(ValueError):
        affine_dependence_lambda([(1, 0), (0, 1)])
    with pytest.raises(ValueError):
        affine_dependence_lambda([])
    with pytest.raises(ValueError):
        affine_dependence_lambda([(1, 2), (3,)])


def test_wedge_is_alternating():
    # u ^ u = 0: the simplex force on the points 0, u, u stores no entry
    rng = random.Random(52)
    for _ in range(5):
        u = tuple(rng.randint(-9, 9) for _ in range(4))
        assert simplex_forces(3, [(0, 0, 0, 0), u, u]).canonical == {}


def test_wedge_reduces_to_cross_product_for_three_dimensions():
    # colex pair coordinates (1,2),(1,3),(2,3) map to cross coordinates
    # (third, -second, first)
    rng = random.Random(53)
    vecs = [tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(9)]
    wf = wedge_forces(3, vecs)
    cf = cross_product_forces(vecs)
    for key in subsets_colex(9, 3):
        a12, a13, a23 = wf.get(key)
        assert (a23, -a13, a12) == cf.get(key)


def test_wedge_configuration_vanishes():
    rng = random.Random(54)
    vecs = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(9)]
    assert det_sr(wedge_forces(3, vecs).to_configuration()) == 0


def test_wedge_higher_dimension_balances_without_determinant():
    # s=4 gives an 18-particle system; check the product-weight solution
    # directly, the square system being far too large to eliminate
    rng = random.Random(55)
    vecs = [tuple(rng.randint(-3, 3) for _ in range(4)) for _ in range(18)]
    f = wedge_forces(4, vecs)
    weights = affine_dependence_lambda(vecs)
    lam = CoefficientSystem(
        3, 18,
        {(i, j, k): weights[i - 1] * weights[j - 1] * weights[k - 1]
         for (i, j, k) in subsets_colex(18, 3)},
    )
    assert residual(f, lam) == 0


def test_wedge_validates_arguments():
    with pytest.raises(ValueError):
        wedge_forces(2, [(1, 1)] * 3)
    with pytest.raises(ValueError):
        wedge_forces(3, [(1, 1, 1)] * 8)  # needs 9 vectors
    with pytest.raises(ValueError):
        wedge_forces(3, [(1, 1)] * 9)  # wrong vector length


def test_difference_configuration_vanishes():
    rng = random.Random(56)
    for d in (2, 3):
        for _ in range(3):
            points = [tuple(rng.randint(-9, 9) for _ in range(d)) for _ in range(2 * d)]
            assert det_sr(difference_configuration(points)) == 0


def test_difference_configuration_of_equal_points_is_zero():
    cfg = difference_configuration([(1, 2)] * 4)
    assert cfg.entries == {}
    assert det_sr(cfg) == 0


def test_difference_configuration_counts_points():
    with pytest.raises(ValueError):
        difference_configuration([(0, 0), (1, 1), (2, 2)])
    with pytest.raises(ValueError):
        difference_configuration([(0, 0), (1, 1), (2, 2, 2), (3, 3)])  # mixed dimensions


def test_random_unimodular_determinant_one():
    for d in (1, 2, 3, 4):
        for seed in (0, 1, 7):
            assert det_exact(random_unimodular(d, seed)) == 1
    with pytest.raises(ValueError):
        random_unimodular(0, 1)


def test_random_unimodular_reproducible_and_seed_sensitive():
    assert random_unimodular(3, 9) == random_unimodular(3, 9)
    assert random_unimodular(3, 9) != random_unimodular(3, 10)
    assert random_unimodular(1, 0) == Matrix([[1]])


def test_sl_transform_identity_and_shapes():
    rng = random.Random(57)
    cfg = random_configuration(2, 2, 5, rng)
    assert sl_transform(cfg, Matrix.identity(2)) == cfg
    with pytest.raises(ValueError):
        sl_transform(cfg, Matrix.identity(3))


def test_unimodular_transform_preserves_determinant():
    rng = random.Random(58)
    for r, d in ((2, 2), (2, 3), (3, 2)):
        cfg = random_configuration(r, d, 5, rng)
        base = det_sr(cfg)
        for seed in (1, 2, 3):
            g = random_unimodular(d, seed)
            assert det_sr(sl_transform(cfg, g)) == base


def test_scalar_transform_scales_by_slot_count():
    rng = random.Random(59)
    cfg = random_configuration(2, 2, 3, rng)
    c = Fraction(3, 2)
    g = Matrix([[c, 0], [0, c]])
    assert det_sr(sl_transform(cfg, g)) == c ** len(subsets_colex(4, 2)) * det_sr(cfg)


def test_witness_search_finds_nonzero_quickly():
    report = witness_search(2, 2, 10, 3, seed=7)
    assert report.nonzero_count >= 1
    assert report.first_witness is not None
    assert det_sr(report.first_witness) != 0

    report = witness_search(3, 2, 10, 3, seed=7)
    assert report.nonzero_count >= 1
    assert det_sr(report.first_witness) != 0


def test_witness_search_reproducible():
    a = witness_search(2, 2, 6, 4, seed=123)
    b = witness_search(2, 2, 6, 4, seed=123)
    assert a == b
    c = witness_search(2, 2, 6, 4, seed=124)
    assert a.first_witness != c.first_witness


def test_witness_search_parallel_matches_sequential():
    seq = witness_search(2, 2, 6, 4, seed=5, parallel=False)
    par = witness_search(2, 2, 6, 4, seed=5, parallel=True)
    assert seq == par


def test_witness_search_validates_arguments():
    with pytest.raises(ValueError):
        witness_search(2, 2, 0, 3, seed=1)
    with pytest.raises(ValueError):
        witness_search(2, 2, 3, 0, seed=1)


def test_generated_forces_pass_antisymmetry_spot_checks():
    rng = random.Random(60)
    points = [tuple(rng.randint(-5, 5) for _ in range(3)) for _ in range(6)]
    f = cross_product_forces(points)
    for i, j, k in ((1, 2, 3), (2, 4, 6), (1, 5, 6)):
        base = f.get((i, j, k))
        assert f.get((j, i, k)) == tuple(-x for x in base)
        assert f.get((j, k, i)) == base
        assert f.get((k, i, j)) == base


@pytest.mark.parametrize("trials, cpus, workers", [(1, os.cpu_count(), 1), (3, 2, 2), (2, None, 1)])
def test_parallel_search_starts_at_most_one_worker_per_trial_and_cpu(monkeypatch, capsys, trials, cpus, workers):
    started = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(witnesses.os, "cpu_count", lambda: cpus)
    argv = ["witness-search", "--r", "2", "--d", "2", "--trials", str(trials), "--seed", "3"]
    assert main(argv + ["--parallel"]) == 0
    parallel_out = capsys.readouterr().out
    assert started == [workers]
    assert main(argv) == 0
    assert capsys.readouterr().out == parallel_out


@pytest.mark.parametrize("bound", [1, 5, 100, 2**20, 2**33])
def test_batched_draws_match_randint(bound):
    # same values and same generator state as one randint per entry; 2**33
    # is wider than one 32-bit output and goes through randint itself
    for seed in range(200):
        n = seed % 47
        want_rng, got_rng = random.Random(seed), random.Random(seed)
        want = [want_rng.randint(-bound, bound) for _ in range(n)]
        assert witnesses._uniform_ints(n, bound, got_rng) == want
        assert got_rng.getstate() == want_rng.getstate()


def test_generators_draw_what_randint_draws():
    def vectors(r, d, q, bound, rng):
        entries = {}
        for key in subsets_colex(q, r):
            vec = tuple(rng.randint(-bound, bound) for _ in range(d))
            if any(vec):
                entries[key] = vec
        return entries

    for seed in range(40):
        r, d = 2 + seed % 2, 1 + seed % 3
        q, bound = r * d + seed % 2, 1 + seed % 6
        want_rng, got_rng = random.Random(seed), random.Random(seed)
        want_forces = vectors(r, d, q, bound, want_rng)
        want_config = vectors(r, d, r * d, bound, want_rng)
        want_lam = {
            key: value
            for key in subsets_colex(q, r)
            if (value := want_rng.randint(-bound, bound))
        }
        assert witnesses.random_force_system(r, d, q, bound, got_rng).canonical == want_forces
        assert witnesses.random_configuration(r, d, bound, got_rng).entries == want_config
        assert witnesses.random_coefficients(r, q, bound, got_rng).canonical == want_lam
        assert got_rng.getstate() == want_rng.getstate()
    # a negative bound is refused where it enters, not drawn from forever
    with pytest.raises(ValueError):
        witnesses.random_force_system(2, 1, 2, -1, random.Random(0))


@pytest.mark.parametrize(
    "bad, message",
    [(5.5, "bound must be an integer, got 5.5"), (True, "bound must be an integer, got True"), (-1, "need bound >= 0, got -1")],
    ids=["float", "bool", "below-floor"],
)
@pytest.mark.parametrize(
    "generate",
    [
        lambda bound: witnesses.random_configuration(2, 2, bound, random.Random(0)),
        lambda bound: witnesses.random_force_system(2, 2, 4, bound, random.Random(0)),
        lambda bound: witnesses.random_coefficients(2, 4, bound, random.Random(0)),
    ],
    ids=["configuration", "forces", "coefficients"],
)
def test_generators_check_their_bound_where_it_enters(generate, bad, message):
    # not an AttributeError from the batched draw, a draw from True as from 1,
    # or randrange's empty-range message
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        generate(bad)


LONG_NEGATIVE = -(10**70)

COUNT_CALLS = {
    "witness-search trials": ("trials", 1, lambda v: witness_search(2, 2, v, 5, 0)),
    "witness-search bound": ("bound", 1, lambda v: witness_search(2, 2, 3, v, 0)),
    "random_unimodular d": ("d", 1, lambda v: random_unimodular(v, 1)),
    "simplex_forces r": ("r", 2, lambda v: simplex_forces(v, [(0, 0), (1, 0), (0, 1)])),
    "wedge_forces s": ("source dimension", 3, lambda v: wedge_forces(v, [])),
    "run_property r": ("r", 1, lambda v: run_property(lambda rng, r, d: True, v, 2, 0, 1)),
    "run_property d": ("d", 1, lambda v: run_property(lambda rng, r, d: True, 2, v, 0, 1)),
    "run_property trials": ("trials", 1, lambda v: run_property(lambda rng, r, d: True, 2, 2, 0, v)),
}


@pytest.mark.parametrize("case", ["float", "bool", "below-floor"])
@pytest.mark.parametrize("call", COUNT_CALLS)
def test_public_counts_take_the_int_rule_with_a_floor(call, case):
    # one rule and one wording for every public count; the echoed value is
    # cut as every other message cuts it
    name, least, run = COUNT_CALLS[call]
    bad, message = {
        "float": (least + 0.5, f"{name} must be an integer, got {least + 0.5}"),
        "bool": (True, f"{name} must be an integer, got True"),
        "below-floor": (LONG_NEGATIVE, f"need {name} >= {least}, got {repr(LONG_NEGATIVE)[:60]}... (72 characters)"),
    }[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run(bad)
