import random
from decimal import Decimal
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import pytest

from equidet import (
    ForceSystem,
    Matrix,
    build_equilibrium_system,
    det_exact,
    kernel_basis,
    kernel_vector,
    permutation_sign,
    random_force_system,
    rank_exact,
)
from equidet import exact
from equidet.exact import _free_vector


def det_cofactor(rows):
    """Naive cofactor expansion; the independent determinant oracle."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * det_cofactor(minor)
    return total


def test_matrix_shape_validation():
    with pytest.raises(ValueError):
        Matrix([[1, 2], [3]])


def test_matrix_product_and_vec():
    a = Matrix([[1, 2], [3, 4]])
    b = Matrix([[0, 1], [1, 0]])
    assert a * b == Matrix([[2, 1], [4, 3]])
    assert a.mul_vec([1, 1]) == [3, 7]
    with pytest.raises(ValueError):
        a.mul_vec([1, 2, 3])
    with pytest.raises(ValueError):
        Matrix([[1]]) * a
    # only another Matrix compares equal or multiplies
    assert (Matrix([[1]]) == [[1]]) is False
    with pytest.raises(TypeError):
        Matrix([[1]]) * 3
    assert repr(Matrix([[1, 2]])) == "Matrix(1x2)"


def test_det_trivial_cases():
    assert det_exact(Matrix.identity(3)) == 1
    assert det_exact(Matrix([[1, 2], [3, 4]])) == -2
    assert det_exact(Matrix([[1, 2], [1, 2]])) == 0
    assert det_exact(Matrix([[5]])) == 5
    assert det_exact(Matrix([])) == Fraction(1)  # empty product


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        det_exact(Matrix([[1, 2, 3], [4, 5, 6]]))


def test_det_equal_rows_is_zero():
    rng = random.Random(1)
    for _ in range(20):
        n = rng.randint(2, 5)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        i, j = sorted(rng.sample(range(n), 2))
        rows[j] = rows[i][:]
        assert det_exact(Matrix(rows)) == 0


def test_det_matches_cofactor_oracle_on_integers():
    rng = random.Random(2)
    for _ in range(200):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert det_exact(Matrix(rows)) == det_cofactor(rows)


def test_det_matches_cofactor_oracle_on_rationals():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(1, 4)
        rows = [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
            for _ in range(n)
        ]
        assert det_exact(Matrix(rows)) == det_cofactor(rows)


def test_det_row_permutation_sign():
    rng = random.Random(4)
    for _ in range(40):
        n = rng.randint(2, 6)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        perm = list(range(n))
        rng.shuffle(perm)
        permuted = [rows[i] for i in perm]
        assert det_exact(Matrix(permuted)) == permutation_sign(perm) * det_exact(Matrix(rows))
        col_perm = list(range(n))
        rng.shuffle(col_perm)
        both = [[row[j] for j in col_perm] for row in permuted]
        expected = permutation_sign(perm) * permutation_sign(col_perm) * det_exact(Matrix(rows))
        assert det_exact(Matrix(both)) == expected


def det_fraction(rows):
    """Reference determinant: plain Fraction Gaussian elimination, pivoting
    on the first nonzero entry of each column."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if a[i][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


def _sparse_entries(rng, rows_n, cols_n, fractions=False):
    """A rows_n x cols_n matrix of density 0.1-0.5 with int or Fraction entries."""
    density = rng.uniform(0.1, 0.5)

    def entry():
        if rng.random() >= density:
            return 0
        num = rng.choice([-9, -5, -3, -2, -1, 1, 2, 3, 4, 7])
        return Fraction(num, rng.randint(1, 6)) if fractions else num

    return [[entry() for _ in range(cols_n)] for _ in range(rows_n)]


def _plant_zero_row(rng, rows):
    rows[rng.randrange(len(rows))] = [0] * len(rows)


def _plant_zero_column(rng, rows):
    j = rng.randrange(len(rows))
    for row in rows:
        row[j] = 0


def _plant_duplicate_row(rng, rows):
    i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
    if i != j:
        rows[j] = rows[i][:]


def _plant_rank_deficiency(rng, rows):
    # one row becomes a combination of two others
    if len(rows) >= 3:
        i, j, k = rng.sample(range(len(rows)), 3)
        a, b = rng.choice([-2, -1, 1, 3]), Fraction(rng.choice([-1, 1]), rng.randint(1, 3))
        rows[k] = [a * x + b * y for x, y in zip(rows[i], rows[j])]


def _plant_nothing(rng, rows):
    pass


def _plant_transversal(rng, rows):
    # a nonzero in every row and column, along a random permutation, so most
    # of these determinants are nonzero and their sign is checked
    cols = list(range(len(rows)))
    rng.shuffle(cols)
    for row, j in zip(rows, cols):
        row[j] = rng.choice([-3, -1, 1, 2, 5])


@pytest.mark.parametrize(
    "plant",
    [
        _plant_nothing,
        _plant_transversal,
        _plant_zero_row,
        _plant_zero_column,
        _plant_duplicate_row,
        _plant_rank_deficiency,
    ],
    ids=lambda plant: plant.__name__[len("_plant_"):],
)
def test_det_matches_fraction_elimination_on_sparse_matrices(plant):
    rng = random.Random(plant.__name__)
    for _ in range(120):
        n = rng.randint(1, 12)
        rows = _sparse_entries(rng, n, n, fractions=rng.random() < 0.5)
        plant(rng, rows)
        assert det_exact(Matrix(rows)) == det_fraction(rows)


def test_kernel_trivial_cases():
    basis = kernel_basis(Matrix([[1, 1]]))
    assert len(basis) == 1
    v = basis[0]
    assert v[0] == -v[1] and v[0] != 0

    assert kernel_basis(Matrix.identity(5)) == []

    basis = kernel_basis(Matrix([[1, 2], [2, 4]]))
    assert len(basis) == 1
    v = basis[0]
    assert v[0] * (-1) == 2 * v[1] and any(v)


def test_back_substitution_rejects_inexact_division():
    # echelon rows that no Bareiss pass produces: x[2] = 3 gives x[1] = -1,
    # then 2 * x[0] = 1 has no integer solution
    with pytest.raises(ArithmeticError, match="inexact division"):
        _free_vector([(0, {0: 2, 1: 1}), (1, {1: 3, 2: 1})], 2, 3)


def _kernel_inputs():
    rng = random.Random(5)
    for _ in range(60):
        rows_n = rng.randint(1, 6)
        cols_n = rng.randint(1, 6)
        yield Matrix([[rng.randint(-4, 4) for _ in range(cols_n)] for _ in range(rows_n)])
    # sparse rectangular rows with Fraction entries
    for _ in range(40):
        yield Matrix(_sparse_entries(rng, rng.randint(1, 14), rng.randint(1, 14), fractions=True))
    # 30x20 equilibrium systems at (r, d) = (3, 2), whose rows are dependent,
    # of full column rank or not; sparse forces of bound 1 leave larger kernels
    for _ in range(3):
        yield build_equilibrium_system(random_force_system(3, 2, 6, 5, rng)).full_matrix
    for density in (1.0, 0.6, 0.4, 0.3):
        for _ in range(3):
            forces = ForceSystem(3, 2, 6, {
                t: (rng.randint(-1, 1), rng.randint(-1, 1))
                for t in combinations(range(1, 7), 3)
                if rng.random() < density
            })
            yield build_equilibrium_system(forces).full_matrix


def test_kernel_vectors_satisfy_system_exactly():
    # rank_exact takes the fewest-rows column order, kernel_basis goes left
    # to right; the two orders must agree on the rank
    for m in _kernel_inputs():
        basis = kernel_basis(m)
        assert rank_exact(m) + len(basis) == m.cols
        assert kernel_vector(m) == (basis[0] if basis else None)
        for v in basis:
            assert any(v)
            assert all(x == 0 for x in m.mul_vec(v))


def test_kernel_with_rational_entries():
    m = Matrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1, 1)]])
    for v in kernel_basis(m):
        assert all(x == 0 for x in m.mul_vec(v))
    assert rank_exact(m) + len(kernel_basis(m)) == 2


def test_det_zero_iff_kernel_nonempty():
    rng = random.Random(6)
    for _ in range(80):
        n = rng.randint(1, 8)
        m = Matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        assert (det_exact(m) != 0) == (kernel_basis(m) == [])


def test_rank_examples():
    assert rank_exact(Matrix.zeros(3, 4)) == 0
    assert rank_exact(Matrix.identity(6)) == 6
    assert rank_exact(Matrix([[1, 0, 1], [0, 1, 1]])) == 2


def test_kernel_of_zero_matrix_is_full():
    basis = kernel_basis(Matrix.zeros(2, 3))
    assert len(basis) == 3
    seen = {tuple(v) for v in basis}
    assert seen == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def kernel_basis_fraction(m):
    """Reference kernel basis by plain Fraction Gauss-Jordan reduction.

    One vector per free column: that coordinate 1, the other free ones 0, the
    pivot coordinates read off the reduced rows, then scaled to a primitive
    integer vector (the free coordinate stays positive).
    """
    rows = [[Fraction(x) for x in row] for row in m.data]
    pivots = []
    for c in range(m.cols):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    basis = []
    for free in range(m.cols):
        if free in pivots:
            continue
        x = [Fraction(0)] * m.cols
        x[free] = Fraction(1)
        for i, c in enumerate(pivots):
            x[c] = -rows[i][free]
        mult = lcm(*(xj.denominator for xj in x))
        ints = [int(xj * mult) for xj in x]
        g = gcd(*ints)
        basis.append([v // g for v in ints])
    return basis


def _int_rows(rng, rows_n, cols_n):
    return [[rng.randint(-6, 6) for _ in range(cols_n)] for _ in range(rows_n)]


def _fraction_entries(rng):
    rows_n, cols_n = rng.randint(1, 7), rng.randint(1, 7)
    return [
        [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(cols_n)]
        for _ in range(rows_n)
    ]


def _tall(rng):
    cols_n = rng.randint(1, 6)
    return _int_rows(rng, cols_n + rng.randint(1, 6), cols_n)


def _wide(rng):
    rows_n = rng.randint(1, 6)
    return _int_rows(rng, rows_n, rows_n + rng.randint(1, 8))


def _rank_deficient(rng):
    rank = rng.randint(1, 4)
    left = _int_rows(rng, rng.randint(rank + 1, 8), rank)
    right = _int_rows(rng, rank, rng.randint(rank + 1, 8))
    return (Matrix(left) * Matrix(right)).data


def _leading_zero_column(rng):
    rows_n, cols_n = rng.randint(1, 6), rng.randint(2, 7)
    return [[0] + row[1:] for row in _int_rows(rng, rows_n, cols_n)]


def _zero(rng):
    return Matrix.zeros(rng.randint(1, 6), rng.randint(1, 6)).data


def _sparse(rng):
    return _sparse_entries(rng, rng.randint(1, 10), rng.randint(1, 10))


@pytest.mark.parametrize(
    "make",
    [_fraction_entries, _tall, _wide, _rank_deficient, _leading_zero_column, _zero, _sparse],
    ids=lambda make: make.__name__.lstrip("_"),
)
def test_integer_kernel_matches_fraction_reference(make):
    rng = random.Random(make.__name__)
    for _ in range(80):
        m = Matrix(make(rng))
        basis = kernel_basis(m)
        assert basis == kernel_basis_fraction(m)
        assert kernel_vector(m) == (basis[0] if basis else None)


@pytest.mark.parametrize("bad", [1.5, True, Decimal(1), "1"], ids=["float", "bool", "decimal", "str"])
def test_elimination_rejects_non_exact_scalars(bad):
    m = Matrix([[1, 0], [2, bad]])
    for fn in (det_exact, kernel_basis, kernel_vector, rank_exact):
        with pytest.raises(ValueError):
            fn(m)


@pytest.fixture
def eliminate_steps(monkeypatch):
    """Steps read from each ``_eliminate`` stream as ``(column, row)`` pairs, one list per call."""
    original = exact._eliminate
    calls = []

    def counted(*args, **kwargs):
        steps = []
        calls.append(steps)
        for step in original(*args, **kwargs):
            steps.append(step[:2])
            yield step

    monkeypatch.setattr(exact, "_eliminate", counted)
    return calls


def test_kernel_vector_reads_up_to_the_first_free_column(eliminate_steps):
    for m in _kernel_inputs():
        ref = kernel_basis_fraction(m)
        # the reference's first vector is zero right of its free column
        first_free = max(j for j, x in enumerate(ref[0]) if x) if ref else None
        eliminate_steps.clear()
        kernel_vector(m)
        [steps] = eliminate_steps
        if first_free is None:
            assert len(steps) == m.cols and all(p is not None for _, p in steps)
        else:
            assert len(steps) == first_free + 1
            assert steps[-1] == (first_free, None)


def test_singular_det_stops_at_its_first_free_step(eliminate_steps):
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(2, 8)
        rows = _int_rows(rng, n, n)
        i, j = rng.sample(range(n), 2)
        k = rng.randint(-2, 2)
        rows[i] = [k * x for x in rows[j]]
        m = Matrix(rows)
        eliminate_steps.clear()
        assert det_exact(m) == 0
        [steps] = eliminate_steps
        assert steps[-1][1] is None
        assert all(p is not None for _, p in steps[:-1])
    # a zero column has no active row, so the fewest-rows order takes it first
    eliminate_steps.clear()
    assert det_exact(Matrix([[1, 0, 2], [3, 0, 4], [5, 0, 6]])) == 0
    assert eliminate_steps == [[(1, None)]]


def test_rank_reads_every_column(eliminate_steps):
    for m in _kernel_inputs():
        eliminate_steps.clear()
        rank = rank_exact(m)
        [steps] = eliminate_steps
        assert sorted(c for c, _ in steps) == list(range(m.cols))
        assert rank == sum(p is not None for _, p in steps)


def planted_block(rng, n, k, fractions=False):
    """Random n x n rows with k ``(column, row)`` pivots planted: a nonzero at
    each pair, and no pivot row holding another pair's column."""
    entries = (0, 0, 0, -3, -1, 1, 2, 5)
    rows = [[rng.choice(entries) for _ in range(n)] for _ in range(n)]
    if fractions:
        rows = [[Fraction(x, rng.randint(1, 6)) for x in row] for row in rows]
    pivots = list(zip(rng.sample(range(n), k), rng.sample(range(n), k)))
    for c, p in pivots:
        for j, _ in pivots:
            rows[p][j] = 0
        rows[p][c] = rng.choice((-4, -2, 3, 7, Fraction(5, 3)) if fractions else (-4, -2, 3, 7))
    return rows, pivots


def test_a_pivot_block_ends_on_the_whole_determinant():
    # a block of k pivots taken first as one level: an empty one (k = 0), one that
    # takes every column (k = n) and any size between, on integer and p/q rows
    rng = random.Random("pivot-block")
    for _ in range(300):
        n = rng.randint(0, 7)
        k = rng.choice((0, n, rng.randint(0, n)))
        rows, pivots = planted_block(rng, n, k, rng.random() < 0.3)
        m = Matrix(rows)
        assert det_exact(m, pivots=[pivots]) == det_exact(m) == det_cofactor(rows), (rows, pivots)


def planted_levels(rng, n, k, fractions=False):
    """Random n x n rows with k ``(column, row)`` pairs planted in blocks of one
    to three: a block's rows are zero in every other block's columns, and the
    leading minors of its rows at its columns are nonzero, so its i-th pair is
    one of level i as the levels before it leave the rows.  Returns the rows
    and the levels."""
    value = (lambda x: Fraction(x, rng.randint(1, 6))) if fractions else (lambda x: x)
    rows = [[value(rng.choice((0, 0, 0, -3, -1, 1, 2, 5))) for _ in range(n)] for _ in range(n)]
    cols, pivot_rows = rng.sample(range(n), k), rng.sample(range(n), k)
    levels = []
    start = 0
    while start < k:
        size = min(rng.randint(1, 3), k - start)
        block = list(zip(cols[start : start + size], pivot_rows[start : start + size]))
        start += size
        while True:
            local = [[value(rng.choice((0, -2, -1, 1, 3))) for _ in block] for _ in block]
            if all(det_cofactor([row[:i] for row in local[:i]]) for i in range(1, size + 1)):
                break
        for (_, p), entries in zip(block, local):
            for c in cols:
                rows[p][c] = 0
            for (c, _), x in zip(block, entries):
                rows[p][c] = x
        levels.extend([] for _ in range(size - len(levels)))
        for level, pair in zip(levels, block):
            level.append(pair)
    return rows, levels


def test_pivot_levels_end_on_the_whole_determinant():
    # up to three levels, each row of a later one updated by the levels before
    # it, so the stamps multiply; k = n takes every column and ends on the last
    # level's prev
    rng = random.Random("pivot-levels")
    for _ in range(300):
        n = rng.randint(0, 7)
        k = rng.choice((0, n, n, rng.randint(0, n)))
        rows, levels = planted_levels(rng, n, k, rng.random() < 0.3)
        m = Matrix(rows)
        assert det_exact(m, pivots=levels) == det_exact(m) == det_cofactor(rows), (rows, levels)
    assert max(len(levels) for levels in [planted_levels(random.Random(s), 7, 7)[1] for s in range(20)]) == 3


@pytest.mark.parametrize(
    "pivots, message",
    [
        ([(0, 0), (0, 1)], "distinct"),
        ([(0, 0), (1, 0)], "distinct"),
        ([(1, 2)], "no entry"),
        ([(0, 3)], "no entry"),
        ([(3, 0)], "no entry"),
        ([(0.0, 0)], "no entry"),
        ([(0, 0), (1, 1)], "another"),
    ],
    ids=["repeated-column", "repeated-row", "missing-entry", "row-out-of-range",
         "column-out-of-range", "float-column", "row-holds-another-column"],
)
def test_det_exact_refuses_a_bad_pivot_block(pivots, message):
    # row 0 holds columns 0 and 1; row 2 has no entry in column 1
    m = Matrix([[2, 1, 0], [0, 3, 1], [1, 0, 4]])
    with pytest.raises(ValueError, match=message):
        det_exact(m, pivots=[pivots])


@pytest.mark.parametrize(
    "pivots, message",
    [
        ([[(0, 0)], [(2, 1)]], "no entry"),
        ([[(0, 0)], [(1, 1), (2, 2)]], "another"),
        ([[(0, 0)], [(0, 1)]], "distinct"),
        ([[(0, 0)], [(1, 0)]], "distinct"),
    ],
    ids=["no-entry-after-level-1", "row-still-holds-another-column", "column-across-levels", "row-across-levels"],
)
def test_det_exact_refuses_a_bad_second_level(pivots, message):
    # level 1 pivots column 0 on row 0 and turns row 1 into 1 * row 1 - 2 * row 0
    # = [0, 1, 0, 0], which has lost its entry in column 2; row 2 still holds
    # columns 1 and 2, row 3 column 2 alone
    m = Matrix([[1, 0, 2, 0], [2, 1, 4, 0], [0, 3, 1, 1], [0, 0, 1, 5]])
    with pytest.raises(ValueError, match=message):
        det_exact(m, pivots=pivots)
    # row 1 held column 2 before level 1, so this second level is diagonal only after it
    assert det_exact(m, pivots=[[(0, 0)], [(1, 1), (2, 3)]]) == det_cofactor(m.data) != 0
