from math import comb

import pytest


@pytest.fixture
def corrupt_prefix_vectors(monkeypatch):
    """Call with (r, d, q) to make the solver's elimination return its kernel
    vector with one coordinate shifted off the kernel; it asserts that only
    the cut system reaches it: with k = min(q, r*d + 1), the
    n = d * C(k-1, r-1) equations avoiding particle 1, which span the row
    space of all the k particles' equations (the row dependences), cut to
    their first m = min(n + 1, C(k, r)) columns, which hold a free column when
    m = n + 1 since n rows hold at most n pivots."""
    import equidet.equilibrium as equilibrium
    from equidet import kernel_vector

    def patch(r, d, q):
        k = min(q, r * d + 1)
        n = d * comb(k - 1, r - 1)

        def corrupted(m):
            assert m.rows == n
            assert m.cols == min(n + 1, comb(k, r))
            vec = kernel_vector(m)
            vec[next(j for j in range(m.cols) if any(row.get(j) for row in m.sparse))] += 1
            return vec

        monkeypatch.setattr(equilibrium, "kernel_vector", corrupted)

    return patch


@pytest.fixture
def assert_cached_layouts():
    """Call with a set of shapes (r, d, q) to assert that the layout cache
    holds exactly those: as many entries, and a lookup of each is a hit."""
    from equidet.detmap import _incidence_pattern

    def check(shapes):
        assert _incidence_pattern.cache_info().currsize == len(shapes)
        misses = _incidence_pattern.cache_info().misses
        for shape in shapes:
            _incidence_pattern(*shape)
        assert _incidence_pattern.cache_info().misses == misses

    return check


@pytest.fixture
def patch_order_sign(monkeypatch):
    """Call with a sign function to put it in place of ``detmap._order_sign``;
    the call returns an undo.  The cached layout and relation rows hold the
    signs, so both are cleared at the patch and again at the undo, which
    teardown also runs, so no corrupted layout outlives the test."""
    import equidet.detmap as detmap

    def clear():
        detmap._incidence_pattern.cache_clear()
        detmap._relation_rows.cache_clear()

    def undo():
        monkeypatch.undo()
        clear()

    def patch(sign):
        clear()
        monkeypatch.setattr(detmap, "_order_sign", sign)
        return undo

    yield patch
    undo()
