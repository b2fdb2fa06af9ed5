"""theorem_consistency decides from two ranks; these tests hold it to the
kernel-basis computation it replaced, and reach its failure branches."""

import random
from itertools import combinations

import pytest

import equidet.equilibrium as equilibrium
from equidet import (
    ConsistencyReport,
    ForceSystem,
    Matrix,
    cross_product_forces,
    det_sr,
    kernel_basis,
    random_force_system,
    rank_exact,
    theorem_consistency,
)
from equidet.cli import main

SHAPES = ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (2, 4))


def consistency_reference(f):
    # both kernel bases, and every reduced-kernel vector checked on the full
    # system; built through the module so a patched builder reaches it too
    system = equilibrium.build_equilibrium_system(f)
    det_value = det_sr(f.to_configuration())
    kernel = kernel_basis(system.full_matrix)
    consistent = (det_value == 0) == (len(kernel) > 0)
    reduced_kernel = kernel_basis(system.reduced_matrix)
    reduced_ok = len(kernel) == len(reduced_kernel) and all(
        not any(system.full_matrix.mul_vec(vec)) for vec in reduced_kernel
    )
    return ConsistencyReport(
        det_value=det_value,
        kernel_dim=len(kernel),
        consistent=consistent,
        reduced_matches_full=reduced_ok,
    )


def sparse_forces(r, d, rng):
    q = r * d
    return ForceSystem(r, d, q, {
        t: tuple(rng.randint(-1, 1) for _ in range(d))
        for t in combinations(range(1, q + 1), r)
        if rng.random() < 0.4
    })


def seeded_inputs():
    rng = random.Random(140)
    for r, d in SHAPES:
        for _ in range(12):
            yield random_force_system(r, d, r * d, 5, rng)
        for _ in range(12):
            yield sparse_forces(r, d, rng)
    for _ in range(8):
        yield cross_product_forces([tuple(rng.randint(-5, 5) for _ in range(3)) for _ in range(9)])


def test_report_matches_the_kernel_basis_reference():
    nontrivial = 0
    for f in seeded_inputs():
        report = theorem_consistency(f)
        assert report == consistency_reference(f)
        assert report.consistent and report.reduced_matches_full
        nontrivial += report.kernel_dim > 0
    assert nontrivial >= 50


@pytest.fixture
def halved_reduced_rows(monkeypatch):
    """Every equilibrium system keeps only the first half of its reduced rows."""
    build = equilibrium.build_equilibrium_system

    def patched(f):
        system = build(f)
        reduced = system.reduced_matrix
        kept = Matrix._from_sparse(reduced.sparse[: reduced.rows // 2], reduced.cols)
        return system._replace(reduced_matrix=kept)

    monkeypatch.setattr(equilibrium, "build_equilibrium_system", patched)


@pytest.mark.parametrize("r, d", [(2, 2), (3, 2)])
def test_lost_reduced_rank_is_reported(halved_reduced_rows, r, d):
    f = random_force_system(r, d, r * d, 5, random.Random(141))
    system = equilibrium.build_equilibrium_system(f)
    assert rank_exact(system.reduced_matrix) < rank_exact(system.full_matrix)
    report = theorem_consistency(f)
    assert not report.reduced_matches_full
    assert report == consistency_reference(f)


def test_selfcheck_fails_on_lost_reduced_rank(halved_reduced_rows, capsys):
    assert main(["selfcheck", "--trials", "1"]) == 1
    out = capsys.readouterr().out
    assert "FAIL theorem consistency (r=2, d=2)" in out
    assert "FAIL theorem consistency (r=3, d=2)" in out


@pytest.mark.parametrize("d, q", [(2, 5), (1, 1000)])
def test_square_count_is_checked_before_the_full_build(monkeypatch, d, q):
    def unreachable(f):
        raise AssertionError("the full system was built before the q = r*d check")

    monkeypatch.setattr(equilibrium, "build_equilibrium_system", unreachable)
    with pytest.raises(ValueError, match=r"q = r\*d"):
        theorem_consistency(ForceSystem(2, d, q))


@pytest.fixture
def rank_calls(monkeypatch):
    """The matrices ``theorem_consistency`` passes to ``rank_exact``, in order."""
    seen = []
    rank = equilibrium.rank_exact

    def counted(m):
        seen.append(m)
        return rank(m)

    monkeypatch.setattr(equilibrium, "rank_exact", counted)
    return seen


def test_full_rank_reduced_rows_skip_the_full_elimination(rank_calls):
    f = random_force_system(3, 2, 6, 5, random.Random(142))
    report = theorem_consistency(f)
    assert report.det_value != 0 and report.kernel_dim == 0
    system = equilibrium.build_equilibrium_system(f)
    assert rank_calls == [system.reduced_matrix]


def test_singular_system_eliminates_both_matrices(rank_calls):
    rng = random.Random(143)
    f = cross_product_forces([tuple(rng.randint(-5, 5) for _ in range(3)) for _ in range(9)])
    report = theorem_consistency(f)
    assert report.det_value == 0 and report.kernel_dim > 0
    system = equilibrium.build_equilibrium_system(f)
    assert rank_calls == [system.reduced_matrix, system.full_matrix]


@pytest.mark.parametrize("r, d", [(2, 2), (3, 2)])
def test_lost_reduced_rank_eliminates_both_matrices(halved_reduced_rows, rank_calls, r, d):
    f = random_force_system(r, d, r * d, 5, random.Random(141))
    assert not theorem_consistency(f).reduced_matches_full
    system = equilibrium.build_equilibrium_system(f)
    assert rank_calls == [system.reduced_matrix, system.full_matrix]
