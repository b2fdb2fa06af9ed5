import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from equidet import Matrix, det_exact, kernel_basis, kernel_vector, permutation_sign, rank_exact
from equidet.exact import _cleared_rows, _row_echelon


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


def test_det_trivial_cases():
    assert det_exact(Matrix.identity(3)) == 1
    assert det_exact(Matrix([[1, 2], [3, 4]])) == -2
    assert det_exact(Matrix([[1, 2], [1, 2]])) == 0
    assert det_exact(Matrix([[5]])) == 5


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


def test_kernel_vectors_satisfy_system_exactly():
    rng = random.Random(5)
    for _ in range(60):
        rows_n = rng.randint(1, 6)
        cols_n = rng.randint(1, 6)
        m = Matrix([[rng.randint(-4, 4) for _ in range(cols_n)] for _ in range(rows_n)])
        basis = kernel_basis(m)
        assert rank_exact(m) + len(basis) == cols_n
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
    """Reference kernel basis: the same forward pass, then a rational
    back-substitution with the free coordinate set to 1."""
    ech, pivots = _row_echelon(_cleared_rows(m), m.cols)
    basis = []
    for free in range(m.cols):
        if free in pivots:
            continue
        x = [Fraction(0)] * m.cols
        x[free] = Fraction(1)
        for i in reversed(range(len(pivots))):
            c = pivots[i]
            if c > free:
                continue
            row = ech[i]
            s = sum(row[j] * x[j] for j in range(c + 1, free + 1) if x[j])
            x[c] = -Fraction(s, 1) / row[c]
        mult = 1
        for xj in x:
            mult = lcm(mult, xj.denominator)
        ints = [int(xj * mult) for xj in x]
        g = 0
        for v in ints:
            g = gcd(g, v)
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


@pytest.mark.parametrize(
    "make",
    [_fraction_entries, _tall, _wide, _rank_deficient, _leading_zero_column, _zero],
    ids=lambda make: make.__name__.lstrip("_"),
)
def test_integer_kernel_matches_fraction_reference(make):
    rng = random.Random(make.__name__)
    for _ in range(80):
        m = Matrix(make(rng))
        basis = kernel_basis(m)
        assert basis == kernel_basis_fraction(m)
        assert kernel_vector(m) == (basis[0] if basis else None)
