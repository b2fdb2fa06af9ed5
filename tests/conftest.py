from math import comb

import pytest


@pytest.fixture
def corrupt_prefix_vectors(monkeypatch):
    """Call with (r, d) to make the solver's elimination return its kernel
    vector with one coordinate shifted off the kernel; it asserts that only
    the cut system reaches it: the n = d * C(r*d, r-1) equations avoiding
    particle r*d + 1, which on the first r*d + 1 particles' columns span the
    row space of all their equations (the row dependences), cut to their
    first n + 1 columns, which hold a free column since n rows hold at most
    n pivots."""
    import equidet.equilibrium as equilibrium
    from equidet import kernel_vector

    def patch(r, d):
        n = d * comb(r * d, r - 1)

        def corrupted(m):
            assert m.rows == n
            assert m.cols == n + 1
            vec = kernel_vector(m)
            vec[next(j for j in range(m.cols) if any(row.get(j) for row in m.sparse))] += 1
            return vec

        monkeypatch.setattr(equilibrium, "kernel_vector", corrupted)

    return patch


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
