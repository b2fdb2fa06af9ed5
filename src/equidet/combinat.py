"""Sorted-tuple combinatorics: colexicographic subset ranking, permutation
signs, and insertion positions.

Particle indices are 1-based throughout.  A subset is represented as a
strictly increasing tuple of ints.  Every row and column ordering in the
package derives from the colexicographic order fixed here (compare largest
elements first), so ranks are stable as the ground set grows.

This lowest layer is also the one home of the boundary rules the package
shares: ``_check_integer`` (a value of type ``int``, no bool, at least a
floor if one is given),
``_check_size`` (a count at most ``sys.maxsize``), ``_check_indices`` (the
index rule: ints in 1..q, r of them) and ``_check_key`` (the key rule: the
index rule plus strict increase).  Error messages show at most 60 characters
of any value they name (``_brief``).
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from functools import lru_cache
from itertools import combinations
from math import comb
from operator import lt


def _brief(value):
    """``repr(value)`` cut to 60 characters, for an error message."""
    text = repr(value)
    return text if len(text) <= 60 else f"{text[:60]}... ({len(text)} characters)"


def _check_integer(name, value, least=None):
    """The int rule: ``value`` is of type ``int``, so not a bool, float or str,
    and at least ``least`` if that is given."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {_brief(value)}")
    if least is not None and value < least:
        raise ValueError(f"need {name} >= {least}, got {_brief(value)}")


def _check_size(what, value):
    """The size rule: a count that is listed or allocated is a C size, so at
    most ``sys.maxsize``.  The message gives its digit count, not its value."""
    if value > sys.maxsize:
        raise ValueError(
            f"{what} has {len(str(value))} digits, too large to enumerate (at most {sys.maxsize})"
        )


def _check_indices(idx, r=None, q=None):
    """The index rule: ``idx`` as a tuple of values of type ``int`` (no bool),
    each in 1..q (each >= 1 without q), and r of them if r is given."""
    idx = tuple(idx)
    if r is not None and len(idx) != r:
        raise ValueError(f"expected {r} indices, got {len(idx)}: {_brief(idx)}")
    for i in idx:
        if type(i) is not int or i < 1 or q is not None and i > q:
            bounds = ">= 1" if q is None else f"in 1..{_brief(q)}"
            raise ValueError(f"index {_brief(i)} is not an int {bounds}")
    return idx


def _check_key(key, r=None, q=None):
    """The key rule: ``key`` as a strictly increasing tuple that passes the index rule."""
    key = _check_indices(key, r, q)
    if not all(map(lt, key, key[1:])):
        raise ValueError(f"indices must be strictly increasing: {_brief(key)}")
    return key


def subset_rank(t, n: int) -> int:
    """0-based colex rank of subset ``t`` among all |t|-subsets of {1..n}."""
    _check_integer("n", n, 0)
    t = _check_key(t, q=n)
    return sum(comb(c - 1, j + 1) for j, c in enumerate(t))


def subset_unrank(rank: int, k: int, n: int):
    """Inverse of :func:`subset_rank`: the k-subset of {1..n} with colex rank ``rank``."""
    for name, value in (("rank", rank), ("k", k), ("n", n)):
        _check_integer(name, value)
    if k < 0 or n < 0 or not 0 <= rank < comb(n, k):
        raise ValueError(f"rank {_brief(rank)} out of range for {_brief(k)}-subsets of {{1..{_brief(n)}}}")
    out = [0] * k
    r = rank
    c = n
    for j in range(k, 0, -1):
        # largest c with comb(c - 1, j) <= r gives the element at position j
        while comb(c - 1, j) > r:
            c -= 1
        r -= comb(c - 1, j)
        out[j - 1] = c
    return tuple(out)


@lru_cache(maxsize=None, typed=True)  # typed: 4.0 and True are not served 4's and 1's result
def subsets_colex(n: int, k: int):
    """All k-subsets of {1..n} as sorted tuples, in colexicographic order.

    ``ValueError`` for an n or k not of type ``int``, a negative n, and an n
    above ``sys.maxsize``, which no range can enumerate."""
    _check_integer("n", n, 0)
    _check_integer("k", k)
    _check_size(f"cannot enumerate the {k}-subsets of {{1..n}}: the particle count n", n)
    if k < 0:
        return ()
    return tuple(sorted(combinations(range(1, n + 1), k), key=lambda t: t[::-1]))


def permutation_sign(perm) -> int:
    """+1 for an even permutation, -1 for an odd one.

    ``perm`` is any sequence of distinct comparable entries; the sign is
    (-1) to the number of inversions, which has the parity of the number of
    swaps that sort it.
    """
    p = list(perm)
    if len(set(p)) != len(p):
        raise ValueError(f"not a permutation (repeated entries): {_brief(p)}")
    order = sorted(range(len(p)), key=p.__getitem__)
    swaps = 0
    for i in range(len(order)):
        while order[i] != i:  # each swap puts one entry at its sorted slot
            k = order[i]
            order[i], order[k] = order[k], k
            swaps += 1
    return -1 if swaps & 1 else 1


def insert_position(t, x: int) -> int:
    """1-based slot ``x`` would occupy in sorted(t + (x,)); x must not be in t."""
    t = _check_key(t)
    _check_indices((x,))
    if x in t:
        raise ValueError(f"{_brief(x)} already present in {_brief(t)}")
    return bisect_right(t, x) + 1
