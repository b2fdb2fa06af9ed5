"""Worked examples, all of them simplex forces (point differences, cross
products, wedge sums), special-linear transforms, and seeded random search
for configurations with nonzero system determinant.

Everything random is driven by explicit 64-bit seeds through
``random.Random``; identical arguments always reproduce identical output,
and parallel trial evaluation returns exactly the sequential result.
"""

from __future__ import annotations

import os
import random
import sys
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, prod
from operator import getitem
from typing import NamedTuple

from .combinat import _check_integer, permutation_sign, subsets_colex
from .detmap import det_sr
from .exact import Matrix, kernel_basis
from .tensors import CoefficientSystem, ForceSystem, VectorConfiguration, _check_shape


def simplex_forces(r: int, points) -> ForceSystem:
    """r-particle forces from positions in s-space: F at (i_1, ..., i_r) is
    (p_i2 - p_i1) ^ ... ^ (p_ir - p_i1) in the colex basis of (r-1)-sets of
    coordinates, so d = C(s, r-1) and each coordinate is an (r-1)-minor."""
    points = [tuple(p) for p in points]
    _check_integer("r", r, 2)
    if len(points) < r:
        raise ValueError(f"need at least r = {r} points, got {len(points)}")
    s = len(points[0])
    if any(len(p) != s for p in points):
        raise ValueError("points must all have the same dimension")
    # Leibniz terms of each minor: a sign and the column read from each difference row
    minors = [[(permutation_sign(perm), [cols[k] - 1 for k in perm])
               for perm in permutations(range(r - 1))] for cols in subsets_colex(s, r - 1)]
    canonical = {}
    for key in subsets_colex(len(points), r):
        base = points[key[0] - 1]
        rows = [[a - b for a, b in zip(points[i - 1], base)] for i in key[1:]]
        canonical[key] = [sum(sign * prod(map(getitem, rows, cols)) for sign, cols in terms)
                          for terms in minors]
    return ForceSystem(r, comb(s, r - 1), len(points), canonical)


def cross_product_forces(points) -> ForceSystem:
    """Triple forces (p_j - p_i) x (p_k - p_i) in 3-space: the simplex forces
    with coordinates (w12, w13, w23) reordered to (w23, -w13, w12)."""
    points = [tuple(p) for p in points]
    if any(len(p) != 3 for p in points):
        raise ValueError("cross-product forces need points in 3-space")
    f = simplex_forces(3, points)
    canonical = {key: (w23, -w13, w12) for key, (w12, w13, w23) in f.canonical.items()}
    return ForceSystem._from_checked(3, 3, f.q, canonical)


def wedge_forces(s: int, vectors) -> ForceSystem:
    """Triple forces vi^vj + vj^vk + vk^vi = (vj - vi)^(vk - vi) in the
    C(s,2)-dimensional space of wedge products, from 3*C(s,2) vectors."""
    _check_integer("source dimension", s, 3)
    q = 3 * comb(s, 2)
    vectors = [tuple(v) for v in vectors]
    if len(vectors) != q or any(len(v) != s for v in vectors):
        raise ValueError(f"need exactly 3*C({s},2) = {q} vectors of length {s}")
    return simplex_forces(3, vectors)


def difference_configuration(points) -> VectorConfiguration:
    """Pair configuration v at (i, j) = p_j - p_i, the simplex forces of 2d points in d-space."""
    f = simplex_forces(2, points)
    if f.q != 2 * f.d:
        raise ValueError(f"need exactly 2d = {2 * f.d} points, got {f.q}")
    return VectorConfiguration._from_checked(2, f.d, f.q, f.canonical)


def affine_dependence_lambda(vectors):
    """Exact weights, not all zero and with at least three nonzero, summing to
    zero and combining the vectors to zero.

    Solves the homogeneous (s+1) x q system by exact kernel computation, then
    retries small deterministic combinations of kernel basis vectors until at
    least three coordinates are nonzero.
    """
    vectors = [tuple(v) for v in vectors]
    if not vectors:
        raise ValueError("no vectors given")
    s = len(vectors[0])
    q = len(vectors)
    if any(len(v) != s for v in vectors):
        raise ValueError("vectors must all have the same dimension")
    rows = [[vectors[i][c] for i in range(q)] for c in range(s)]
    rows.append([1] * q)
    basis = kernel_basis(Matrix(rows))
    # basis vectors use distinct free coordinates, so any sum of three of them
    # already has three nonzeros; smaller kernels fall back to pair sums
    for size in (1, 2, 3):
        for combo in combinations(range(len(basis)), size):
            cand = [sum(basis[b][i] for b in combo) for i in range(q)]
            if sum(1 for x in cand if x != 0) >= 3:
                return [Fraction(x) for x in cand]
    raise ValueError("no weight vector with three nonzero coordinates exists for these vectors")


def random_unimodular(d: int, seed: int) -> Matrix:
    """Deterministic integer matrix with determinant exactly 1: a product of
    a bounded number of random elementary shears."""
    _check_integer("d", d, 1)
    if d == 1:
        return Matrix([[1]])
    rng = random.Random(seed)
    g = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    for _ in range(2 * d + 2):
        i, j = rng.sample(range(d), 2)
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        g[i] = [a + c * b for a, b in zip(g[i], g[j])]
    return Matrix(g)


def sl_transform(v: VectorConfiguration, g: Matrix) -> VectorConfiguration:
    """Apply a d x d matrix to every stored vector of a configuration."""
    for value, kind in ((v, VectorConfiguration), (g, Matrix)):
        if not isinstance(value, kind):
            raise TypeError(f"sl_transform needs a {kind.__name__}, got {type(value).__name__}")
    if g.rows != v.d or g.cols != v.d:
        raise ValueError(f"transform must be {v.d}x{v.d}, got {g.rows}x{g.cols}")
    entries = {key: tuple(g.mul_vec(list(vec))) for key, vec in v.entries.items()}
    return VectorConfiguration(v.r, v.d, v.q, entries)


def _uniform_ints(n: int, bound: int, rng):
    """``[rng.randint(-bound, bound) for _ in range(n)]``: the same values,
    leaving ``rng`` in the same state, drawn in a few ``getrandbits`` calls.

    ``randint`` takes the top k = (2*bound + 1).bit_length() bits of one
    32-bit Mersenne Twister output and draws again while they are out of
    range.  ``getrandbits(32 * m)`` packs the next m outputs, first output
    least significant, so reading them back as native words and drawing as
    many again as were rejected reproduces that sequence.  Widths above 32
    bits go through ``randint`` itself.  ``bound`` is an int >= 0, checked by
    the callers.
    """
    width = 2 * bound + 1
    k = width.bit_length()
    if k > 32:
        return [rng.randint(-bound, bound) for _ in range(n)]
    shift = 32 - k
    limit = width << shift
    values = []
    while len(values) < n:
        m = n - len(values)
        words = memoryview(rng.getrandbits(32 * m).to_bytes(4 * m, sys.byteorder)).cast("I")
        values += [(w >> shift) - bound for w in words if w < limit]
    return values


def _random_vectors(r: int, d: int, q: int, bound: int, rng):
    """A d-vector uniform in [-bound, bound]^d drawn for every sorted r-tuple
    in colex order; the nonzero ones, by tuple."""
    _check_integer("bound", bound, 0)
    keys = subsets_colex(q, r)
    vectors = zip(*[iter(_uniform_ints(d * len(keys), bound, rng))] * d)
    return {key: vec for key, vec in zip(keys, vectors) if any(vec)}


def random_configuration(r: int, d: int, bound: int, rng) -> VectorConfiguration:
    """Configuration on r*d particles, every slot an integer vector uniform in [-bound, bound]."""
    _check_shape(r, d, r)  # r and d checked before r * d: a str r times a large d is a large str
    q = r * d
    return VectorConfiguration._from_checked(r, d, q, _random_vectors(r, d, q, bound, rng))


def random_force_system(r: int, d: int, q: int, bound: int, rng) -> ForceSystem:
    """Force system with random integer canonical entries in [-bound, bound]."""
    _check_shape(r, d, q)
    return ForceSystem._from_checked(r, d, q, _random_vectors(r, d, q, bound, rng))


def random_coefficients(r: int, q: int, bound: int, rng) -> CoefficientSystem:
    """Coefficient family with random integer canonical values in [-bound, bound]."""
    _check_shape(r, 1, q)
    _check_integer("bound", bound, 0)
    keys = subsets_colex(q, r)
    values = _uniform_ints(len(keys), bound, rng)
    canonical = {key: value for key, value in zip(keys, values) if value}
    return CoefficientSystem._from_checked(r, q, canonical)


class WitnessReport(NamedTuple):
    r: int
    d: int
    trials: int
    nonzero_count: int
    first_witness: VectorConfiguration | None
    seed: int


def _map_trials(fn, jobs, parallel):
    """``[fn(*job) for job in jobs]``; with ``parallel`` the same list comes
    from a process pool, so ``fn`` and every job must pickle."""
    if parallel:
        from concurrent.futures import ProcessPoolExecutor  # only a parallel run pays for loading the pool

        with ProcessPoolExecutor(max_workers=min(len(jobs), os.cpu_count() or 1)) as pool:
            return list(pool.map(fn, *zip(*jobs)))
    return [fn(*job) for job in jobs]


def _trial_configuration(r, d, bound, child_seed):
    return random_configuration(r, d, bound, random.Random(child_seed))


def _witness_trial(r, d, bound, child_seed):
    # only the verdict crosses the process boundary; witness_search rebuilds
    # the first witness from its job
    return det_sr(_trial_configuration(r, d, bound, child_seed)) != 0


def witness_search(r: int, d: int, trials: int, bound: int, seed: int, parallel: bool = False) -> WitnessReport:
    """Evaluate the system determinant on ``trials`` random integer
    configurations and report how many were nonzero.

    Each trial draws from its own child seed derived from ``seed``, so the
    report is identical whether trials run sequentially or in parallel, and
    the first witness is always the lowest-index nonzero trial.
    """
    _check_integer("trials", trials, 1)
    _check_integer("bound", bound, 1)
    rng = random.Random(seed)
    jobs = [(r, d, bound, rng.getrandbits(64)) for _ in range(trials)]
    hits = _map_trials(_witness_trial, jobs, parallel)
    first_witness = next((_trial_configuration(*job) for job, hit in zip(jobs, hits) if hit), None)
    return WitnessReport(
        r=r,
        d=d,
        trials=trials,
        nonzero_count=sum(hits),
        first_witness=first_witness,
        seed=seed,
    )
