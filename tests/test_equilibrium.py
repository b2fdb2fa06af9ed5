import random
from pathlib import Path
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from equidet import (
    CoefficientSystem,
    ForceSystem,
    Matrix,
    build_equilibrium_system,
    build_system_matrix,
    check_dependence_relations,
    cross_product_forces,
    det_sr,
    kernel_basis,
    load_tensor,
    rank_exact,
    random_configuration,
    random_force_system,
    residual,
    row_dependence_holds,
    sl_transform,
    solve_nontrivial,
    subsets_colex,
    theorem_consistency,
)

FIXTURE = str(Path(__file__).parent / "fixtures" / "forces_r2_d2_nonzero.json")


def test_system_shapes():
    rng = random.Random(30)
    # 4 particles in the plane: 4 vector equations, 6 unknowns
    system = build_equilibrium_system(random_force_system(2, 2, 4, 5, rng))
    assert system.full_matrix.rows == 8 and system.full_matrix.cols == 6
    assert len({m for m, _ in system.row_labels}) == 4
    # 5 particles: 5 vector equations (10 scalar rows), 10 unknowns
    system = build_equilibrium_system(random_force_system(2, 2, 5, 5, rng))
    assert system.full_matrix.rows == 10 and system.full_matrix.cols == 10
    # triples on 6 particles: 15 vector equations, 20 unknowns
    system = build_equilibrium_system(random_force_system(3, 2, 6, 5, rng))
    assert system.full_matrix.rows == 30 and system.full_matrix.cols == 20
    assert system.reduced_matrix.rows == 2 * comb(5, 2)


def random_forces(r, d, q, kind, rng):
    """Dense ints from the package generator, or Fraction entries that are
    dense or sparse (about a third of the canonical tuples present)."""
    if kind == "int":
        return random_force_system(r, d, q, 5, rng)
    density = 1.0 if kind == "fraction" else 0.3
    return ForceSystem(r, d, q, {
        t: tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(d))
        for t in combinations(range(1, q + 1), r)
        if rng.random() < density
    })


@pytest.mark.parametrize("kind", ["int", "fraction", "sparse"])
@pytest.mark.parametrize("r", [2, 3, 4])
def test_columns_hold_accessor_values(r, kind):
    # every cell of the full matrix, against the accessor at the written order
    rng = random.Random(29 + r)  # r = 2 is the original seed-31 case
    d, q = 2, r + 2
    f = random_forces(r, d, q, kind, rng)
    system = build_equilibrium_system(f)
    col = {t: j for j, t in enumerate(system.col_labels)}
    expected = []
    for m in subsets_colex(q, r - 1):
        block = [[0] * len(col) for _ in range(d)]
        for i in range(1, q + 1):
            if i in m:
                continue
            vec = f.get(m + (i,))
            for coord in range(d):
                block[coord][col[tuple(sorted(m + (i,)))]] = vec[coord]
        expected.extend(block)
    assert system.full_matrix.data == expected


def test_reduced_rows_are_the_particle_q_free_prefix():
    rng = random.Random(32)
    f = random_force_system(2, 2, 5, 5, rng)
    system = build_equilibrium_system(f)
    kept = [
        system.full_matrix.data[block * 2 + coord]
        for block, m in enumerate(subsets_colex(5, 1))
        if 5 not in m
        for coord in range(2)
    ]
    assert system.reduced_matrix.data == kept


def test_overdetermined_systems_always_solvable():
    rng = random.Random(33)
    for r, d, q in ((2, 2, 5), (2, 2, 6), (3, 2, 7)):
        for _ in range(10):
            f = random_force_system(r, d, q, 5, rng)
            lam = solve_nontrivial(f)
            assert lam is not None and not lam.is_trivial()
            assert residual(f, lam) == 0


def test_solver_returns_the_first_kernel_vector():
    rng = random.Random(41)
    solvable = unsolvable = 0
    # q > r*d always has a nontrivial kernel; q <= r*d usually does not
    for r, d, q in ((2, 2, 5), (2, 2, 6), (3, 2, 7), (2, 1, 3), (2, 2, 3), (2, 2, 4), (3, 1, 3)):
        for _ in range(6):
            f = random_force_system(r, d, q, 5, rng)
            system = build_equilibrium_system(f)
            basis = kernel_basis(system.full_matrix)
            lam = solve_nontrivial(f)
            if not basis:
                assert lam is None
                unsolvable += 1
                continue
            expected = {t: x for t, x in zip(system.col_labels, basis[0]) if x}
            assert lam.canonical == expected
            assert residual(f, lam) == 0
            solvable += 1
    assert solvable and unsolvable


def test_solver_rejects_a_kernel_vector_that_does_not_solve_the_system(monkeypatch):
    import equidet.equilibrium as equilibrium
    from equidet import kernel_vector

    f = random_force_system(2, 2, 5, 5, random.Random(70))
    system = build_equilibrium_system(f)
    matrix = system.full_matrix
    # q = 5 > r*d: the solver eliminates the n = 8 equations avoiding
    # particle 5, cut to n + 1 = 9 columns, so the patched vector has that length
    n = 8
    bad = kernel_vector(matrix)
    assert not any(bad[n + 1:])
    del bad[n + 1:]
    # shifting a coordinate whose column is nonzero moves A.v off zero
    bad[next(j for j in range(n + 1) if any(row[j] for row in matrix.data))] += 1
    lam = CoefficientSystem(2, 5, {t: x for t, x in zip(system.col_labels, bad) if x})
    assert residual(f, lam) != 0
    monkeypatch.setattr(equilibrium, "kernel_vector", lambda m: list(bad))
    with pytest.raises(ArithmeticError):
        solve_nontrivial(f)


@pytest.mark.parametrize("r, d, q", [(2, 2, 6), (3, 2, 8)])
def test_solver_certifies_the_prefix_vector_on_the_full_system(corrupt_prefix_vectors, r, d, q):
    f = random_force_system(r, d, q, 5, random.Random(71))
    corrupt_prefix_vectors(r, d, q)
    with pytest.raises(ArithmeticError, match="does not solve"):
        solve_nontrivial(f)


@pytest.mark.parametrize("r, d, q", [(2, 2, 6), (3, 2, 8)])
def test_solver_never_reports_unsolvable_from_the_prefix(monkeypatch, r, d, q):
    import equidet.equilibrium as equilibrium

    f = random_force_system(r, d, q, 5, random.Random(72))
    monkeypatch.setattr(equilibrium, "kernel_vector", lambda m: None)
    with pytest.raises(ArithmeticError, match="no kernel vector"):
        solve_nontrivial(f)


# the shapes of test_solver_prefix.py
PREFIX_SHAPES = [
    (r, d, q)
    for r in range(1, 5)
    for d in range(1, 4)
    for q in range(r, r * d + 4)
    if comb(q, r) <= 400
]


def test_solver_eliminates_the_rows_avoiding_particle_1_over_m_columns(monkeypatch):
    """Every shape, one rule: with k = min(q, r*d + 1), the n = d * C(k-1, r-1)
    rows of the first k particles' equation blocks that avoid particle 1, in
    colex order, over the first m = min(n + 1, C(k, r)) columns.  Colex order
    lists the first k particles' blocks first, so they are the full system's
    rows of those blocks too, cut to its first m columns."""
    import equidet.equilibrium as equilibrium
    from equidet import kernel_vector

    seen = []
    monkeypatch.setattr(equilibrium, "kernel_vector", lambda m: seen.append(m) or kernel_vector(m))
    rng = random.Random(74)
    for r, d, q in PREFIX_SHAPES:
        f = random_force_system(r, d, q, 5, rng)
        system = build_equilibrium_system(f)
        seen.clear()
        solve_nontrivial(f)
        (m,) = seen
        k = min(q, r * d + 1)
        n = d * comb(k - 1, r - 1)
        cols = min(n + 1, comb(k, r))
        k_rows = d * comb(k, r - 1)
        assert all(max(block, default=0) <= k for block, _ in system.row_labels[:k_rows])
        kept = [
            row
            for row, (block, _) in zip(system.full_matrix.sparse[:k_rows], system.row_labels)
            if 1 not in block
        ]
        assert len(kept) == n
        assert (m.rows, m.cols) == (n, cols)
        assert m.sparse == [{j: x for j, x in row.items() if j < cols} for row in kept]


def test_nonzero_determinant_blocks_solutions():
    f = load_tensor(FIXTURE)
    assert det_sr(f.to_configuration()) != 0
    assert solve_nontrivial(f) is None


def test_zero_forces_are_trivially_balanced():
    f = ForceSystem(2, 2, 4)
    lam = solve_nontrivial(f)
    assert lam is not None and not lam.is_trivial()
    assert residual(f, lam) == 0


def test_residual_hand_value():
    f = ForceSystem(2, 2, 4, {(1, 2): (1, 0)})
    lam = CoefficientSystem(2, 4, {(1, 2): 1})
    assert residual(f, lam) == 1


def test_residual_of_zero_coefficients_is_zero():
    rng = random.Random(34)
    f = random_force_system(2, 2, 5, 5, rng)
    assert residual(f, CoefficientSystem(2, 5)) == 0


def residual_reference(f, lam):
    # independent of the system builder: each equation summed through the accessors
    worst = Fraction(0)
    for m in combinations(range(1, f.q + 1), f.r - 1):
        for coord in range(f.d):
            total = sum(
                lam.get(m + (i,)) * f.get(m + (i,))[coord]
                for i in range(1, f.q + 1)
                if i not in m
            )
            worst = max(worst, abs(total))
    return worst


@pytest.mark.parametrize("r,d,q", [(2, 2, 4), (2, 3, 6), (3, 2, 6), (3, 2, 7), (4, 1, 6)])
def test_residual_matches_accessor_reference(r, d, q):
    rng = random.Random(100 * r + 10 * d + q)
    nonzero = 0
    for kind in ("fraction", "sparse"):
        for _ in range(5):
            f = random_forces(r, d, q, kind, rng)
            lam = CoefficientSystem(r, q, {
                t: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                for t in combinations(range(1, q + 1), r)
                if rng.random() < 0.5
            })
            expected = residual_reference(f, lam)
            assert residual(f, lam) == expected
            nonzero += expected != 0
    assert nonzero >= 5


def test_residual_arity_mismatch():
    f = ForceSystem(2, 2, 4)
    with pytest.raises(ValueError):
        residual(f, CoefficientSystem(3, 4))


def test_theorem_consistency_random_trials():
    rng = random.Random(35)
    for r, d in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2)):
        for _ in range(100):
            report = theorem_consistency(random_force_system(r, d, r * d, 5, rng))
            assert report.consistent
            assert report.reduced_matches_full
            assert report.kernel_dim >= 0


def test_theorem_consistency_on_vanishing_example():
    rng = random.Random(36)
    points = [tuple(rng.randint(-5, 5) for _ in range(3)) for _ in range(9)]
    report = theorem_consistency(cross_product_forces(points))
    assert report.det_value == 0
    assert report.kernel_dim >= 1
    assert report.consistent


def test_theorem_consistency_requires_square_count():
    rng = random.Random(37)
    with pytest.raises(ValueError):
        theorem_consistency(random_force_system(2, 2, 5, 5, rng))


def test_full_and_reduced_kernels_agree():
    rng = random.Random(38)
    for r, d in ((2, 2), (3, 2)):
        for _ in range(10):
            f = random_force_system(r, d, r * d, 5, rng)
            system = build_equilibrium_system(f)
            assert rank_exact(system.full_matrix) == rank_exact(system.reduced_matrix)
            for vec in kernel_basis(system.reduced_matrix):
                assert all(x == 0 for x in system.full_matrix.mul_vec(vec))


def test_row_dependence_for_every_anchor():
    rng = random.Random(39)
    for r, d, q in ((2, 2, 4), (2, 2, 6), (3, 2, 6), (4, 2, 8)):
        f = random_force_system(r, d, q, 5, rng)
        assert row_dependence_holds(f)


def test_solution_coefficients_are_symmetric():
    rng = random.Random(40)
    f = random_force_system(2, 2, 5, 5, rng)
    lam = solve_nontrivial(f)
    for i, j in subsets_colex(5, 2):
        assert lam.get((i, j)) == lam.get((j, i))


@pytest.mark.parametrize(
    "call, given",
    [
        # both take a configuration or a force system; every other kind is refused
        (lambda cfg: det_sr(CoefficientSystem(2, 4)), "CoefficientSystem"),
        (lambda cfg: build_system_matrix(CoefficientSystem(2, 4)), "CoefficientSystem"),
        (build_equilibrium_system, "VectorConfiguration"),
        (solve_nontrivial, "VectorConfiguration"),
        (lambda cfg: residual(cfg, CoefficientSystem(2, 4)), "VectorConfiguration"),
        (lambda f: residual(f, f), "ForceSystem"),
        (row_dependence_holds, "VectorConfiguration"),
        (theorem_consistency, "VectorConfiguration"),
        (lambda cfg: check_dependence_relations(cfg, {"r": 2}), "dict"),
        (lambda f: check_dependence_relations(f, f), "ForceSystem"),
        (lambda cfg: check_dependence_relations(CoefficientSystem(2, 4), CoefficientSystem(2, 4)), "CoefficientSystem"),
        (lambda f: sl_transform(f, Matrix.identity(2)), "ForceSystem"),
        (lambda cfg: sl_transform(cfg, [[1, 0], [0, 1]]), "list"),
    ],
    ids=[
        "det_sr",
        "build_system_matrix",
        "build_equilibrium_system",
        "solve_nontrivial",
        "residual",
        "residual_lam",
        "row_dependence_holds",
        "theorem_consistency",
        "check_dependence_relations_lam_dict",
        "check_dependence_relations_lam_forces",
        "check_dependence_relations_v",
        "sl_transform",
        "sl_transform_g",
    ],
)
def test_wrong_tensor_kind_raises_type_error(call, given):
    rng = random.Random(41)
    if given == "ForceSystem":
        wrong = random_force_system(2, 2, 4, 5, rng)
    else:
        wrong = random_configuration(2, 2, 5, rng)
    with pytest.raises(TypeError, match=f"got {given}$"):
        call(wrong)
