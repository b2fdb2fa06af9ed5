from math import comb

import pytest


@pytest.fixture
def corrupt_prefix_vectors(monkeypatch):
    """Call with (r, d) to make the solver's elimination return its kernel
    vector with one coordinate shifted off the kernel; it asserts that only
    the system of the first r*d + 1 particles reaches it."""
    import equidet.equilibrium as equilibrium
    from equidet import kernel_vector

    def patch(r, d):
        def corrupted(m):
            assert m.cols == comb(r * d + 1, r)
            vec = kernel_vector(m)
            vec[next(j for j in range(m.cols) if any(row.get(j) for row in m.sparse))] += 1
            return vec

        monkeypatch.setattr(equilibrium, "kernel_vector", corrupted)

    return patch


@pytest.fixture
def patch_order_sign(monkeypatch):
    """Call with a sign function to put it in place of ``detmap._order_sign``;
    the call returns an undo.  The cached layout holds the signs, so it is
    cleared at the patch and again at the undo, which teardown also runs, so
    no corrupted layout outlives the test."""
    import equidet.detmap as detmap

    def undo():
        monkeypatch.undo()
        detmap._incidence_pattern.cache_clear()

    def patch(sign):
        detmap._incidence_pattern.cache_clear()
        monkeypatch.setattr(detmap, "_order_sign", sign)
        return undo

    yield patch
    undo()
