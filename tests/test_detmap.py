import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from equidet import (
    CoefficientSystem,
    ForceSystem,
    Matrix,
    VectorConfiguration,
    build_equilibrium_system,
    build_system_matrix,
    check_dependence_relations,
    cross_product_forces,
    det_exact,
    det_sr,
    insert_position,
    kernel_basis,
    permutation_sign,
    random_coefficients,
    random_configuration,
    random_force_system,
    row_dependence_holds,
    solve_nontrivial,
    subsets_colex,
)
from equidet.detmap import _incidence_pattern, _incidence_rows, _order_sign, _reduced_rows, _relation_rows

# Independent cofactor oracle computed before the builder existed: the
# basis-pattern configuration below has determinant -1.
FROZEN_6X6_VALUE = Fraction(-1)
E1, E2 = (1, 0), (0, 1)
BASIS_PATTERN = {(1, 2): E1, (1, 3): E2, (1, 4): E1, (2, 3): E1, (2, 4): E2, (3, 4): E2}


def det_cofactor(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * det_cofactor(minor)
    return total


def written_order_sign(m, i):
    """Oracle for a force system's terms: the sign of the permutation sorting M + (i,)."""
    return permutation_sign(m + (i,))


def configuration_sign(m, i):
    """Oracle for a configuration's terms: (-1) ** (i + p), p the 1-based slot
    of i in sorted(M + {i})."""
    return (-1) ** (i + insert_position(m, i))


def reference_rows(get, r, d, q, eq_q, sign):
    """Dense system, uncached: d rows per (r-1)-subset M of {1..eq_q}; the cell
    of row (M, coord) in column sorted(M + {i}) is sign(M, i) * get(sorted(M + {i}))[coord]."""
    col = {t: j for j, t in enumerate(subsets_colex(q, r))}
    expected = []
    for m in subsets_colex(eq_q, r - 1):
        block = [[0] * len(col) for _ in range(d)]
        for i in range(1, q + 1):
            if i in m:
                continue
            key = tuple(sorted(m + (i,)))
            for coord in range(d):
                block[coord][col[key]] = sign(m, i) * get(key)[coord]
        expected.extend(block)
    return expected


def test_one_by_one_system():
    v = VectorConfiguration(2, 1, 2, {(1, 2): (7,)})
    system = build_system_matrix(v)
    assert system.matrix.data == [[7]]
    assert system.col_labels == ((1, 2),)
    assert system.row_labels == (((1,), 1),)
    assert det_sr(v) == 7


def test_frozen_regression_value():
    v = VectorConfiguration(2, 2, 4, BASIS_PATTERN)
    assert det_sr(v) == FROZEN_6X6_VALUE


def test_builder_agrees_with_cofactor_oracle():
    rng = random.Random(20)
    for _ in range(10):
        v = random_configuration(2, 2, 5, rng)
        m = build_system_matrix(v).matrix
        assert det_exact(m) == det_cofactor(m.data)


def test_labels_and_shape():
    rng = random.Random(21)
    for r, d in ((2, 2), (2, 3), (3, 2), (4, 2)):
        q = r * d
        system = build_system_matrix(random_configuration(r, d, 3, rng))
        assert system.col_labels == subsets_colex(q, r)
        assert len(system.col_labels) == comb(q, r)
        assert system.matrix.rows == system.matrix.cols == comb(q, r)
        assert system.matrix.rows == d * comb(q - 1, r - 1)
        expected_rows = tuple(
            (m, coord) for m in subsets_colex(q - 1, r - 1) for coord in range(1, d + 1)
        )
        assert system.row_labels == expected_rows


@pytest.mark.parametrize("kind", ["int", "sparse_fraction"])
@pytest.mark.parametrize("r,d", [(2, 2), (3, 2), (4, 2)])
def test_system_matrix_holds_accessor_values(r, d, kind):
    # every cell of the square system, against the configuration oracle and the accessor
    rng = random.Random(50 + r)
    q = r * d
    if kind == "int":
        v = random_configuration(r, d, 5, rng)
    else:
        v = VectorConfiguration(r, d, q, {
            t: tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(d))
            for t in combinations(range(1, q + 1), r)
            if rng.random() < 0.3
        })
    assert build_system_matrix(v).matrix.data == reference_rows(v.get, r, d, q, q - 1, configuration_sign)


def test_pair_row_block_sign_pattern():
    # block for equation (1) carries tuples (1,t) with alternating signs +,-,+
    v = VectorConfiguration(2, 2, 4, {t: (1, 1) for t in subsets_colex(4, 2)})
    system = build_system_matrix(v)
    col = {t: j for j, t in enumerate(system.col_labels)}
    first_row = system.matrix.data[0]
    assert first_row[col[(1, 2)]] == 1
    assert first_row[col[(1, 3)]] == -1
    assert first_row[col[(1, 4)]] == 1
    assert first_row[col[(2, 3)]] == 0


def test_triple_row_block_sign_pattern():
    # block for equation (1,2) carries tuples (1,2,t), t=3..6, signs (-1)**(t+1)
    v = VectorConfiguration(3, 2, 6, {t: (1, 1) for t in subsets_colex(6, 3)})
    system = build_system_matrix(v)
    col = {t: j for j, t in enumerate(system.col_labels)}
    block = {m: b for b, (m, coord) in enumerate(system.row_labels) if coord == 1}
    row = system.matrix.data[block[(1, 2)]]
    for t in range(3, 7):
        assert row[col[(1, 2, t)]] == (-1) ** (t + 1)
    assert row[col[(1, 3, 4)]] == 0


def test_requires_square_particle_count():
    v = VectorConfiguration(2, 2, 5, {(1, 2): (1, 1)})
    with pytest.raises(ValueError):
        build_system_matrix(v)
    with pytest.raises(ValueError):
        det_sr(v)


def test_single_index_systems_match_ordinary_determinant():
    rng = random.Random(22)
    v = VectorConfiguration(1, 2, 2, {(1,): (1, 0), (2,): (0, 1)})
    assert abs(det_sr(v)) == 1
    for _ in range(100):
        d = rng.randint(1, 4)
        cols = [[rng.randint(-5, 5) for _ in range(d)] for _ in range(d)]
        v = VectorConfiguration(1, d, d, {(i + 1,): tuple(cols[i]) for i in range(d)})
        ordinary = det_exact(Matrix([[cols[j][c] for j in range(d)] for c in range(d)]))
        assert abs(det_sr(v)) == abs(ordinary)


def test_vanishing_when_a_clique_shares_one_vector():
    rng = random.Random(23)
    for r, d in ((2, 2), (2, 3), (3, 2)):
        q = r * d
        for clique in combinations(range(1, q + 1), r + 1):
            cfg = random_configuration(r, d, 5, rng)
            shared = tuple(rng.randint(-5, 5) for _ in range(d))
            for sub in combinations(clique, r):
                cfg = cfg.with_slot(sub, shared)
            assert det_sr(cfg) == 0, (r, d, clique)


def test_shared_constant_configuration_vanishes():
    cfg = VectorConfiguration(2, 2, 4)
    for sub in ((1, 2), (1, 3), (2, 3)):
        cfg = cfg.with_slot(sub, (1, 1))
    # remaining slots arbitrary
    cfg = cfg.with_slot((1, 4), (2, 3)).with_slot((2, 4), (-1, 5)).with_slot((3, 4), (0, 2))
    assert det_sr(cfg) == 0


def test_multilinearity_in_single_slots():
    rng = random.Random(24)
    slots = subsets_colex(4, 2)
    for _ in range(25):
        cfg = random_configuration(2, 2, 5, rng)
        slot = rng.choice(slots)
        u = tuple(rng.randint(-5, 5) for _ in range(2))
        w = tuple(rng.randint(-5, 5) for _ in range(2))
        alpha, beta = rng.randint(-4, 4), rng.randint(-4, 4)
        mixed = tuple(alpha * a + beta * b for a, b in zip(u, w))
        lhs = det_sr(cfg.with_slot(slot, mixed))
        rhs = alpha * det_sr(cfg.with_slot(slot, u)) + beta * det_sr(cfg.with_slot(slot, w))
        assert lhs == rhs


def test_slot_scaling_scales_determinant():
    rng = random.Random(25)
    slots = subsets_colex(6, 3)
    for _ in range(10):
        cfg = random_configuration(3, 2, 5, rng)
        slot = rng.choice(slots)
        c = Fraction(rng.choice((-7, -2, 2, 3, 5)), rng.choice((1, 2, 3)))
        scaled = cfg.with_slot(slot, tuple(c * x for x in cfg.get(slot)))
        assert det_sr(scaled) == c * det_sr(cfg)


@pytest.mark.parametrize("r,d", [(2, 2), (3, 2), (4, 2)])
def test_dependence_relations_hold_identically(r, d):
    rng = random.Random(26 + r)
    q = r * d
    for _ in range(20):
        cfg = random_configuration(r, d, 5, rng)
        lam = random_coefficients(r, q, 5, rng)
        assert check_dependence_relations(cfg, lam)


def test_dependence_relations_on_zero_configuration():
    lam = CoefficientSystem(2, 4, {(1, 2): 3, (3, 4): -1})
    assert check_dependence_relations(VectorConfiguration(2, 2, 4), lam)


def test_dependence_relations_force_form():
    rng = random.Random(27)
    for r, d in ((2, 2), (3, 2), (4, 2)):
        q = r * d
        f = random_force_system(r, d, q, 5, rng)
        lam = random_coefficients(r, q, 5, rng)
        assert check_dependence_relations(f, lam)


@pytest.mark.parametrize("form", ["configuration", "forces"])
def test_dependence_relations_detect_corrupted_sign_table(patch_order_sign, form):
    # designed sensitivity: corrupting the per-term sign must break cancellation
    import equidet.detmap as detmap

    rng = random.Random(28)
    if form == "configuration":
        x = random_configuration(2, 2, 5, rng)
        lam = random_coefficients(2, 4, 5, rng)
    else:
        # r = 3, where the relation rows' own signs vary too (at r = 2 their
        # anchor is empty and every relation sign is +1)
        x = random_force_system(3, 2, 6, 5, rng)
        lam = random_coefficients(3, 6, 5, rng)
        assert row_dependence_holds(x)
    assert check_dependence_relations(x, lam)
    patch_order_sign(lambda equation_tuple, i: 1)
    assert not detmap.check_dependence_relations(x, lam)
    if form == "forces":
        assert not row_dependence_holds(x)


def test_relation_mismatched_arity_rejected():
    cfg = VectorConfiguration(2, 2, 4)
    lam = CoefficientSystem(3, 6)
    with pytest.raises(ValueError):
        check_dependence_relations(cfg, lam)


def test_order_sign_is_the_sorting_permutation_sign():
    # and a configuration's term is it times D (block M of even sum negated)
    # and Tau (column T negated when sum(T) + r - 1 is odd)
    for q in range(1, 8):
        for size in range(q):
            for m in combinations(range(1, q + 1), size):
                for i in range(1, q + 1):
                    if i not in m:
                        assert _order_sign(m, i) == permutation_sign(m + (i,))
                        block = -1 if sum(m) % 2 == 0 else 1
                        column = -1 if (sum(m) + i + size) % 2 else 1
                        assert configuration_sign(m, i) == _order_sign(m, i) * block * column


def _round_trip_entries(kind, values, rng):
    """Integer entries, the same over random denominators, or a sparse subset
    with one coordinate zeroed in each kept vector."""
    if kind == "int":
        return values
    if kind == "fraction":
        return {k: tuple(Fraction(x, rng.randint(1, 4)) for x in v) for k, v in values.items()}
    kept = rng.sample(sorted(values), len(values) // 3)
    return {k: tuple(0 if c == k[0] % 2 else x for c, x in enumerate(values[k])) for k in kept}


@pytest.mark.parametrize("entries", ["int", "fraction", "sparse"])
@pytest.mark.parametrize("form", ["configuration", "forces"])
def test_built_systems_survive_the_dense_round_trip(form, entries):
    rng = random.Random(f"{form}-{entries}")
    if form == "configuration":
        cfg = random_configuration(3, 2, 5, rng)
        cfg = VectorConfiguration(3, 2, 6, _round_trip_entries(entries, cfg.entries, rng))
        matrices = [build_system_matrix(cfg).matrix]
    else:
        f = random_force_system(3, 2, 6, 5, rng)
        f = ForceSystem(3, 2, 6, _round_trip_entries(entries, f.canonical, rng))
        system = build_equilibrium_system(f)
        matrices = [system.full_matrix, system.reduced_matrix]
    for m in matrices:
        dense = Matrix(m.data)
        assert dense == m
        assert all(all(row.values()) for row in m.sparse)  # nonzeros only
        vec = [rng.randint(-5, 5) for _ in range(m.cols)]
        assert dense.mul_vec(vec) == m.mul_vec(vec)
        assert kernel_basis(dense) == kernel_basis(m)
        if m.rows == m.cols:
            assert det_exact(dense) == det_exact(m)
        assert dense == m  # elimination reads the rows without changing them


def test_r4_d4_system_stores_exactly_the_accessor_nonzeros():
    v = random_configuration(4, 4, 5, random.Random(62))
    m = build_system_matrix(v).matrix
    assert (m.rows, m.cols) == (1820, 1820)
    expected = sum(
        1
        for eq in subsets_colex(15, 3)
        for i in range(1, 17)
        if i not in eq
        for x in v.get(tuple(sorted(eq + (i,))))
        if x
    )
    assert sum(map(len, m.sparse)) == expected


@pytest.mark.parametrize("entries", ["int", "fraction", "sparse"])
@pytest.mark.parametrize("form", ["configuration", "forces"])
def test_cached_builder_matches_uncached_reference_on_every_small_shape(form, entries):
    rng = random.Random(f"shapes-{form}-{entries}")
    for r in range(1, 5):
        for d in range(1, 4):
            for q in range(r, min(r * d + 2, 8) + 1):
                ints = {t: tuple(rng.randint(-5, 5) for _ in range(d)) for t in subsets_colex(q, r)}
                values = _round_trip_entries(entries, ints, rng)
                if form == "configuration":
                    x = VectorConfiguration(r, d, q, values)
                    stored = x.entries
                else:
                    x = ForceSystem(r, d, q, values)
                    stored = x.canonical
                full = _incidence_rows(stored, r, d, q)
                # the full rows, then their leading rows: the equations avoiding q
                for eq_q, system in ((q, full), (q - 1, _reduced_rows(full, r, d, q))):
                    m = system.matrix
                    assert (m.rows, m.cols) == (d * comb(eq_q, r - 1), comb(q, r))
                    assert all(all(row.values()) for row in m.sparse)  # nonzeros only
                    expected = reference_rows(x.get, r, d, q, eq_q, written_order_sign)
                    assert m.data == expected, (r, d, q, eq_q)
                if form == "configuration" and q == r * d:
                    # the square system: the leading rows with D and Tau applied
                    m = build_system_matrix(x).matrix
                    assert all(all(row.values()) for row in m.sparse)
                    assert m.data == reference_rows(x.get, r, d, q, q - 1, configuration_sign), (r, d)


@pytest.mark.parametrize("form", ["configuration", "forces"])
def test_cached_layout_is_never_shared_or_stale(patch_order_sign, form):
    rng = random.Random(f"isolation-{form}")
    r, d, q = 3, 2, 6
    if form == "configuration":
        x = random_configuration(r, d, 5, rng)
        values = x.entries
    else:
        x = random_force_system(r, d, q, 5, rng)
        values = x.canonical

    def build_rows(eq_q):
        system = _incidence_rows(values, r, d, q)
        return (system if eq_q == q else _reduced_rows(system, r, d, q)).matrix

    # leading (q - 1) and full (q) equation ranges: fresh rows on every build
    for eq_q in (q - 1, q):
        expected = reference_rows(x.get, r, d, q, eq_q, written_order_sign)
        first = build_rows(eq_q)
        second = build_rows(eq_q)
        assert {id(row) for row in first.sparse}.isdisjoint(id(row) for row in second.sparse)
        first.sparse[0][0] = 99
        first.sparse[-1].clear()
        assert second.data == expected
        assert build_rows(eq_q).data == expected

    # the cached relation rows are shared, read and never written
    relations = _relation_rows(r, d, q)
    snapshot = [dict(row) for row in relations.sparse]
    assert check_dependence_relations(x, random_coefficients(r, q, 5, rng))
    if form == "forces":
        assert row_dependence_holds(x)
    assert _relation_rows(r, d, q) is relations
    assert relations.sparse == snapshot

    # a patched sign reaches a cleared layout, and unpatching restores the original
    def build(obj):
        if form == "configuration":
            return build_system_matrix(obj).matrix.data
        return build_equilibrium_system(obj).full_matrix.data

    flat = lambda equation_tuple, i: 1  # noqa: E731
    if form == "configuration":
        # a configuration's terms carry D * Tau, its sign over the written-order one
        eq_q, sign = q - 1, configuration_sign
        patched = lambda m, i: flat(m, i) * configuration_sign(m, i) * written_order_sign(m, i)  # noqa: E731
    else:
        eq_q, sign, patched = q, written_order_sign, flat
    original = reference_rows(x.get, r, d, q, eq_q, sign)
    undo = patch_order_sign(flat)
    assert build(x) == reference_rows(x.get, r, d, q, eq_q, patched) != original
    undo()
    assert build(x) == original


@pytest.mark.parametrize("r, d", [(1, 3), (2, 2), (3, 2), (4, 1), (4, 2)])
def test_one_cached_layout_per_configuration_shape(r, d):
    # the square system, its determinant and the relation check all read the
    # full system's layout: one cache entry, not one per equation range
    rng = random.Random(f"one-layout-{r}-{d}")
    v = random_configuration(r, d, 5, rng)
    _incidence_pattern.cache_clear()
    det_sr(v)
    build_system_matrix(v)
    assert check_dependence_relations(v, random_coefficients(r, v.q, 5, rng))
    assert _incidence_pattern.cache_info().currsize == 1


@pytest.mark.parametrize("r, d, q", [(1, 3, 3), (2, 2, 4), (2, 2, 6), (3, 2, 6), (3, 2, 8), (2, 3, 7)])
def test_one_cached_layout_per_shape_for_both_conventions(assert_cached_layouts, r, d, q):
    # a configuration and a force system of one shape read the same layout:
    # one cache entry, not one per sign convention; solve adds only the layout
    # of its first min(q, r*d + 1) particles, the same one unless q > r*d + 1
    rng = random.Random(f"one-layout-both-{r}-{d}-{q}")
    v = VectorConfiguration(r, d, q, random_force_system(r, d, q, 5, rng).canonical)
    f = random_force_system(r, d, q, 5, rng)
    _incidence_pattern.cache_clear()
    if q == r * d:
        det_sr(v)
        build_system_matrix(v)
    assert check_dependence_relations(v, random_coefficients(r, q, 5, rng))
    build_equilibrium_system(f)
    solve_nontrivial(f)
    assert row_dependence_holds(f)
    assert check_dependence_relations(f, random_coefficients(r, q, 5, rng))
    assert_cached_layouts({(r, d, q), (r, d, min(q, r * d + 1))})


@pytest.mark.parametrize("r, d", [(2, 2), (3, 2), (2, 3)])
def test_relation_rows_are_built_only_for_the_redundancy_checks(r, d):
    # det_sr, the square system and both solver builds never read the relation
    # rows, so a fresh shape gets them only from the two checks that do
    rng = random.Random(f"relation-rows-{r}-{d}")
    q = r * d
    _incidence_pattern.cache_clear()
    _relation_rows.cache_clear()
    det_sr(random_configuration(r, d, 5, rng))
    build_system_matrix(random_configuration(r, d, 5, rng))
    for f in (random_force_system(r, d, q, 5, rng), random_force_system(r, d, q + 1, 5, rng)):
        solve_nontrivial(f)
        build_equilibrium_system(f)
    assert _incidence_pattern.cache_info().currsize == 2
    assert _relation_rows.cache_info().currsize == 0
    f = random_force_system(r, d, q, 5, rng)
    assert check_dependence_relations(f, random_coefficients(r, q, 5, rng))
    assert row_dependence_holds(f)
    assert _relation_rows.cache_info().currsize == 1


# the shapes here whose det(D) is -1 are (1, 1), (1, 3), (1, 5) and (5, 1), and
# those whose det(Tau) is -1 are (1, 1), (1, 2), (1, 5) and (5, 1)
SQUARE_SHAPES = [
    (1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (2, 1), (2, 2), (2, 3), (2, 4),
    (3, 1), (3, 2), (3, 3), (4, 2), (5, 1),
]


def heads(r, d):
    """Tuples holding q = r*d: the columns det_sr eliminates inside their blocks."""
    return [t for t in subsets_colex(r * d, r) if t[-1] == r * d]


def whole_system_det(v):
    return det_exact(build_system_matrix(v).matrix)


@pytest.mark.parametrize("bound", [1, 2, 5])
@pytest.mark.parametrize("r,d", SQUARE_SHAPES)
def test_det_sr_matches_the_whole_system_determinant(r, d, bound):
    # bound 1 leaves heads missing or with leading zeros; larger bounds give
    # pivots a with a^(2-d) != 1.  Zeroing every head's first coordinate moves
    # each pivot one row down, which flips the sign term of odd blocks.
    rng = random.Random(f"schur-{r}-{d}-{bound}")
    for _ in range(2 if r * d > 6 else 10):
        v = random_configuration(r, d, bound, rng)
        assert det_sr(v) == whole_system_det(v), (r, d, bound)
        if d > 1:
            for t in heads(r, d):
                v = v.with_slot(t, (0, *(rng.choice((-2, -1, 1, 3)) for _ in range(d - 1))))
            assert det_sr(v) == whole_system_det(v), (r, d, bound)


def force_cases(r, d, bound, rng):
    """A seeded force system at q = r*d, the same with p/q entries, and with
    its first head (the colex r-tuple holding q) missing, given as zero and,
    for d > 1, led by a zero, which moves its pivot one row down."""
    q = r * d
    f = random_force_system(r, d, q, bound, rng)
    fractions = {t: tuple(Fraction(x, rng.randint(1, 6)) for x in vec) for t, vec in f.canonical.items()}
    head = heads(r, d)[0]
    missing = {t: vec for t, vec in f.canonical.items() if t != head}
    return [
        f,
        ForceSystem(r, d, q, fractions),
        ForceSystem(r, d, q, missing),
        ForceSystem(r, d, q, {**missing, head: (0,) * d}),
        *([ForceSystem(r, d, q, {**missing, head: (0, *range(1, d))})] if d > 1 else []),
    ]


@pytest.mark.parametrize("bound", [1, 2, 5])
@pytest.mark.parametrize("r,d", SQUARE_SHAPES)
def test_a_force_system_enters_the_square_as_stored(r, d, bound):
    # Force(Tau x) = Force(x) Tau: a force system's square, D * Force on its
    # canonical values, is that of its configuration, where Tau is applied
    # twice; so are its determinant and its whole square's
    rng = random.Random(f"forces-as-stored-{r}-{d}-{bound}")
    for _ in range(2 if r * d > 6 else 5):
        for f in force_cases(r, d, bound, rng):
            cfg = f.to_configuration()
            assert build_system_matrix(f) == build_system_matrix(cfg), (r, d, bound)
            assert det_sr(f) == det_sr(cfg) == whole_system_det(f), (r, d, bound)


@pytest.mark.parametrize("r,d", [(1, 3), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_det_sr_matches_on_fraction_entries(r, d):
    rng = random.Random(f"schur-fractions-{r}-{d}")
    q = r * d
    for _ in range(1 if q > 6 else 5):
        entries = {
            t: tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(d))
            for t in subsets_colex(q, r)
        }
        v = VectorConfiguration(r, d, q, entries)
        assert det_sr(v) == whole_system_det(v), (r, d)


def test_det_sr_matches_on_planted_zeros_at_84_columns():
    rng = random.Random("schur-zeros")
    for trial in range(4):
        cfg = random_configuration(3, 3, 5, rng)
        # every other clique holds particle 9, so three of its slots are heads
        clique = sorted(rng.sample(range(1, 9), 3) + [9] if trial % 2 else rng.sample(range(1, 10), 4))
        shared = tuple(rng.randint(-5, 5) for _ in range(3))
        for sub in combinations(clique, 3):
            cfg = cfg.with_slot(sub, shared)
        assert det_sr(cfg) == whole_system_det(cfg) == 0, clique
    for _ in range(2):
        points = [tuple(rng.randint(-5, 5) for _ in range(3)) for _ in range(9)]
        cfg = cross_product_forces(points).to_configuration()
        assert det_sr(cfg) == whole_system_det(cfg) == 0


def level_columns(r, d, level=2):
    """Tuples M + {q-l+1} with M avoiding q-l+1 ... q, l = ``level``: the columns
    det_sr pivots inside S's blocks at level l, one per block M, in colex order of M."""
    top = r * d - level + 1
    return [t for t in subsets_colex(top, r) if t[-1] == top]


def unpivoted(v, r, d, level=2):
    """Number of blocks M avoiding q-l+1 ... q, l = ``level``, that det_sr does not
    pivot at level l: the head M + {q} and the slots M + {q-1}, ..., M + {q-l+1}
    are dependent, so the block's rows of S have rank below l-1 in its level
    columns (at level 2, the slot M + {q-1} is parallel to the head)."""
    q = r * d
    count = 0
    for t in level_columns(r, d, level):
        vectors = [v.get(t[:-1] + (i,)) for i in range(q, q - level, -1)]
        count += not any(
            det_cofactor([[vec[k] for k in ks] for vec in vectors]) for ks in combinations(range(d), level)
        )
    return count


def levels_taken(v, r, d):
    """Pairs det_sr hands det_exact at each level l = 2 ... d (one level, empty,
    at d = 1): C(q-l, r-1) blocks, minus the unpivoted ones."""
    q = r * d
    return tuple(comb(q - l, r - 1) - unpivoted(v, r, d, l) for l in range(2, d + 1)) or (0,)


def left_to_the_pass(v, r, d):
    """What det_exact gets: S, C(q-1, r) rows and columns, and the pairs of each
    level, so the pass is left with C(q-d, r) columns plus the unpivoted ones."""
    n = comb(r * d - 1, r)
    return (n, n, levels_taken(v, r, d))


@pytest.fixture
def passes(monkeypatch):
    """The (rows, columns, pairs per level) of every det_exact call det_sr makes."""
    import equidet.detmap as detmap

    seen = []

    def recorder(m, *, pivots=()):
        seen.append((m.rows, m.cols, tuple(map(len, pivots))))
        return det_exact(m, pivots=pivots)

    monkeypatch.setattr(detmap, "det_exact", recorder)
    return seen


def test_det_sr_eliminates_only_what_both_levels_leave(passes):
    rng = random.Random("schur-recorder")
    for r, d in SQUARE_SHAPES:
        q = r * d
        v = random_configuration(r, d, 5, rng)
        for t in heads(r, d):
            if t not in v.entries:
                v = v.with_slot(t, (1,) * d)
        passes.clear()
        expected = det_sr(v)
        if expected:
            assert passes == [left_to_the_pass(v, r, d)], (r, d)
            [(_, cols, levels)] = passes
            missed = sum(unpivoted(v, r, d, l) for l in range(2, d + 1))
            assert cols - sum(levels) == comb(q - d, r) + missed, (r, d)
        else:  # a column of S with no entry: no elimination runs
            assert passes == []
        assert expected == whole_system_det(v)
        # a missing head, or an all-zero one, is a zero column: no elimination runs
        zero_head = VectorConfiguration._from_checked(r, d, q, {**v.entries, heads(r, d)[-1]: (0,) * d})
        passes.clear()
        assert det_sr(v.with_slot(heads(r, d)[-1], (0,) * d)) == det_sr(zero_head) == 0
        assert passes == []


@pytest.mark.parametrize("r, d", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_det_sr_on_an_empty_block_and_a_zero_middle_head(passes, r, d):
    rng = random.Random(f"schur-empty-{r}-{d}")
    q = r * d
    v = random_configuration(r, d, 5, rng)
    # no two heads parallel, so a slot parallel to one head meets every other block
    for n, t in enumerate(heads(r, d)):
        v = v.with_slot(t, tuple(rng.choice((-1, 1)) * (n + 2) ** k for k in range(d)))
    # a block avoiding q from the middle of the colex order, neither first nor last
    blocks = subsets_colex(q - 1, r - 1)
    m = blocks[len(blocks) // 2]
    assert 0 < blocks.index(m) < len(blocks) - 1
    head = v.get(m + (q,))
    assert head != (0,) * d
    # every slot of block M but its head a multiple of it: the block's d-1 rows
    # of S are empty while each of its columns meets other blocks
    empty = v
    for s, i in enumerate(i for i in range(1, q) if i not in m):
        empty = empty.with_slot(tuple(sorted(m + (i,))), tuple((s % 3 + 1) * (-1) ** s * x for x in head))
    passes.clear()
    assert det_sr(empty) == whole_system_det(empty) == 0
    assert passes == [left_to_the_pass(empty, r, d)]
    # zeroed instead, those slots leave columns of S with no entry: no elimination runs
    zeroed = v
    for i in range(1, q):
        if i not in m:
            zeroed = zeroed.with_slot(tuple(sorted(m + (i,))), (0,) * d)
    passes.clear()
    assert det_sr(zeroed) == whole_system_det(zeroed) == 0
    assert passes == []
    # block M's head stored as a zero vector: a zero column, and no elimination runs
    zero_head = VectorConfiguration._from_checked(r, d, q, {**v.entries, m + (q,): (0,) * d})
    passes.clear()
    assert det_sr(zero_head) == 0
    assert passes == []
    assert whole_system_det(zero_head) == 0


def nonzero_slots(r, d, q, rng, bound=5):
    """Force system with a nonzero integer vector in [-bound, bound] on every
    slot; bound 30 keeps a head and a slot of its block from being parallel by
    chance in the tests below."""
    vectors = {}
    for t in subsets_colex(q, r):
        while not any(vec := tuple(rng.randint(-bound, bound) for _ in range(d))):
            pass
        vectors[t] = vec
    return ForceSystem(r, d, q, vectors)


@pytest.mark.parametrize("r, d", [(2, 2), (3, 2), (2, 3), (3, 3), (4, 2)])
def test_det_sr_renumbers_the_column_of_a_block_left_unpivoted(passes, r, d):
    # slot M + {q-1} parallel to the head M + {q}: block M's rows of S have no
    # entry in column M + {q-1}, which det_exact gets as a column of S, not a level-2 pivot
    rng = random.Random(f"level-two-unpivoted-{r}-{d}")
    q = r * d
    columns = level_columns(r, d)
    for picked in ([columns[0]], [columns[len(columns) // 2]], columns[::2]):
        f = nonzero_slots(r, d, q, rng, 30)
        vectors = dict(f.canonical)
        for s, t in enumerate(picked):
            vectors[t] = tuple((-2, 3)[s % 2] * x for x in vectors[t[:-1] + (q,)])
        f = ForceSystem(r, d, q, vectors)
        passes.clear()
        value = det_sr(f)
        assert value == whole_system_det(f) != 0, (r, d, picked)
        assert unpivoted(f, r, d) == len(picked)
        assert passes == [left_to_the_pass(f, r, d)]


@pytest.mark.parametrize("r, d", [(1, 3), (2, 3), (3, 3), (2, 4), (1, 5)])
def test_det_sr_takes_a_level_two_pivot_below_a_blocks_first_row(r, d):
    # head u = (1, u1, u2, ...) and slot M + {q-1} w = (w0, u1 * w0, u2 * w0 + z, ...),
    # z != 0: the first row of S, w[1] - u1 * w[0], is zero there, the second row the pivot
    rng = random.Random(f"level-two-second-row-{r}-{d}")
    q = r * d
    nonzero = [x for x in range(-30, 31) if x]
    for every in (False, True):
        f = nonzero_slots(r, d, q, rng, 30)
        vectors = dict(f.canonical)
        for n, t in enumerate(level_columns(r, d)):
            if every or n % 2:
                u = vectors[t[:-1] + (q,)] = (1, *(rng.choice(nonzero) for _ in range(d - 1)))
                w0 = rng.choice(nonzero)
                vectors[t] = (w0, u[1] * w0, *(u[k] * w0 + rng.choice(nonzero) for k in range(2, d)))
        f = ForceSystem(r, d, q, vectors)
        assert det_sr(f) == whole_system_det(f) != 0, (r, d, every)


@pytest.mark.parametrize("r, d", [(1, 2), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_det_sr_clears_p_q_entries_before_level_two(r, d):
    # p/q values only on the level-2 slots M + {q-1}, then on every slot
    rng = random.Random(f"level-two-fractions-{r}-{d}")
    q = r * d
    for _ in range(3):
        f = nonzero_slots(r, d, q, rng)
        some = {**f.canonical, **{t: tuple(Fraction(x, rng.randint(2, 7)) for x in f.canonical[t])
                                 for t in level_columns(r, d)}}
        every = {t: tuple(Fraction(x, rng.randint(1, 7)) for x in vec) for t, vec in f.canonical.items()}
        for vectors in (some, every):
            f = ForceSystem(r, d, q, vectors)
            assert det_sr(f) == whole_system_det(f) == det_sr(f.to_configuration()), (r, d)


@pytest.mark.parametrize("r, d", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_det_sr_on_cliques_holding_q_minus_1_and_an_empty_column(passes, r, d):
    rng = random.Random(f"level-two-cliques-{r}-{d}")
    q = r * d
    for clique in (
        sorted(rng.sample(range(1, q - 1), r - 1)) + [q - 1, q],  # holds q-1 and q: column clique - {q} is empty
        sorted(rng.sample(range(1, q - 1), r)) + [q - 1],  # holds q-1, not q: every level runs
    ):
        f = nonzero_slots(r, d, q, rng)
        shared = f.canonical[tuple(clique[:r])]
        f = ForceSystem(r, d, q, {**f.canonical, **{t: shared for t in combinations(clique, r)}})
        passes.clear()
        assert det_sr(f) == whole_system_det(f) == 0, clique
        assert passes == ([] if q in clique else [left_to_the_pass(f, r, d)]), clique
    # a zero slot avoiding q is a column of S with no entry: 0 before level 2
    f = nonzero_slots(r, d, q, rng)
    t = rng.choice([t for t in subsets_colex(q, r) if q not in t])
    f = ForceSystem(r, d, q, {k: vec for k, vec in f.canonical.items() if k != t})
    passes.clear()
    assert det_sr(f) == whole_system_det(f) == 0
    assert passes == []


@pytest.mark.parametrize("r, d", [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 1), (3, 1), (4, 1), (5, 1)])
def test_det_sr_at_r_1_and_d_1(passes, r, d):
    # r = 1: one block, the empty set, and no block holding q-1; d = 1: S is empty
    rng = random.Random(f"level-two-edges-{r}-{d}")
    q = r * d
    for bound in (1, 2, 5):
        for _ in range(4):
            f = random_force_system(r, d, q, bound, rng)
            passes.clear()
            value = det_sr(f)
            if value:
                assert passes == [left_to_the_pass(f, r, d)]
            assert value == whole_system_det(f) == det_sr(f.to_configuration()), (r, d, bound)
    if r == 1:
        # the slot (q-1,) parallel to the head (q,): with no block holding q-1, an empty column
        f = nonzero_slots(r, d, q, rng)
        f = ForceSystem(r, d, q, {**f.canonical, (q - 1,): tuple(-x for x in f.canonical[(q,)])})
        passes.clear()
        assert det_sr(f) == whole_system_det(f) == 0
        assert passes == []


@pytest.mark.parametrize("r, d", [(3, 4), (5, 2)])
def test_det_sr_matches_the_whole_system_at_220_and_252_columns(r, d):
    # two square sizes of the north star that no benchmark workload runs
    rng = random.Random(f"north-star-{r}-{d}")
    q = r * d
    f = nonzero_slots(r, d, q, rng)
    assert det_sr(f) == whole_system_det(f) != 0
    if r == 3:
        # planted zero: every 3-subset of four particles away from q shares one vector
        clique = rng.sample(range(1, q), 4)
        shared = f.canonical[tuple(sorted(clique[:3]))]
        f = ForceSystem(r, d, q, {**f.canonical, **{tuple(sorted(t)): shared for t in combinations(clique, 3)}})
        assert det_sr(f) == whole_system_det(f) == 0


def planted_deep_cases(r, d, rng):
    """Force systems by name: ``plain``, a nonzero vector on every slot; the
    same with p/q entries; and for d > 2 ``spanned``, where the first block M
    avoiding q-2 has its slot M + {q-2} in the span of its head M + {q} and its
    slot M + {q-1}, so its level-3 minor vanishes and its columns M + {q-2},
    M + {q-3}, ... go to the pass, and ``clique``, where every r-subset of a
    clique holding q-2 shares one vector, so det is 0."""
    q = r * d
    vectors = dict(nonzero_slots(r, d, q, rng, 30).canonical)
    cases = {
        "plain": vectors,
        "fractions": {t: tuple(Fraction(x, rng.randint(1, 6)) for x in vec) for t, vec in vectors.items()},
    }
    if d > 2:
        m = tuple(range(1, r))
        u, w = vectors[m + (q,)], vectors[m + (q - 1,)]
        cases["spanned"] = {**vectors, m + (q - 2,): tuple(2 * a - 3 * b for a, b in zip(u, w))}
        clique = sorted(rng.sample([i for i in range(1, q + 1) if i != q - 2], r) + [q - 2])
        shared = vectors[tuple(clique[:r])]
        cases["clique"] = {**vectors, **{t: shared for t in combinations(clique, r)}}
    return {name: ForceSystem(r, d, q, x) for name, x in cases.items()}


@pytest.mark.parametrize("r, d", [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4), (2, 5), (3, 3)])
def test_det_sr_levels_match_the_whole_square(passes, r, d):
    # every level 2 ... d, both kinds, against det_exact on the whole square
    # and, up to 6 x 6, the cofactor expansion
    rng = random.Random(f"deep-levels-{r}-{d}")
    for name, f in planted_deep_cases(r, d, rng).items():
        square = build_system_matrix(f).matrix
        passes.clear()
        value = det_sr(f)
        # no elimination runs only when a column of S has no entry
        assert passes == [left_to_the_pass(f, r, d)] or not value and passes == [], (r, d, name)
        assert value == det_sr(f.to_configuration()) == det_exact(square), (r, d, name)
        if square.rows <= 6:
            assert value == det_cofactor(square.data), (r, d, name)
        if name == "spanned":  # the planted block stops at level 3
            assert unpivoted(f, r, d, 3) > unpivoted(f, r, d, 2)
        if name == "clique":
            assert value == 0
        cfg = random_configuration(r, d, 5, rng)
        assert det_sr(cfg) == whole_system_det(cfg), (r, d)


def test_det_sr_levels_match_the_whole_square_at_220_columns(passes):
    # r = 3, d = 4: levels 2, 3 and 4, a level-3 minor planted to vanish
    f = planted_deep_cases(3, 4, random.Random("deep-levels-3-4"))["spanned"]
    assert det_sr(f) == whole_system_det(f) != 0
    assert passes[0] == left_to_the_pass(f, 3, 4)
    assert unpivoted(f, 3, 4, 3) == unpivoted(f, 3, 4, 4) == 1
