"""Sorted-tuple combinatorics: colexicographic subset ranking, permutation
signs, and insertion positions.

Particle indices are 1-based throughout.  A subset is represented as a
strictly increasing tuple of ints.  Every row and column ordering in the
package derives from the colexicographic order fixed here (compare largest
elements first), so ranks are stable as the ground set grows.
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


def _check_int(i):
    if type(i) is not int:
        raise ValueError(f"index {_brief(i)} is not an int")


def check_sorted_tuple(t, n=None):
    """Validate a strictly increasing tuple of ints (no bool) >= 1 (and <= n if given).

    Returns the input as a plain tuple.
    """
    t = tuple(t)
    for i in t:
        _check_int(i)
    if t and t[0] < 1:
        raise ValueError(f"indices must be >= 1: {_brief(t)}")
    if not all(map(lt, t, t[1:])):
        raise ValueError(f"indices must be strictly increasing: {_brief(t)}")
    if n is not None and t and t[-1] > n:
        raise ValueError(f"index {_brief(t[-1])} exceeds ground-set size {_brief(n)}")
    return t


def subset_rank(t, n: int) -> int:
    """0-based colex rank of subset ``t`` among all |t|-subsets of {1..n}."""
    t = check_sorted_tuple(t, n)
    return sum(comb(c - 1, j + 1) for j, c in enumerate(t))


def subset_unrank(rank: int, k: int, n: int):
    """Inverse of :func:`subset_rank`: the k-subset of {1..n} with colex rank ``rank``."""
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


@lru_cache(maxsize=None)
def subsets_colex(n: int, k: int):
    """All k-subsets of {1..n} as sorted tuples, in colexicographic order.

    ``ValueError`` for an n above ``sys.maxsize``, which no range can enumerate."""
    if n > sys.maxsize:
        raise ValueError(
            f"cannot enumerate the {k}-subsets of {{1..n}}: the particle count n has"
            f" {len(str(n))} digits (at most {sys.maxsize})"
        )
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
    t = check_sorted_tuple(t)
    _check_int(x)
    if x in t:
        raise ValueError(f"{_brief(x)} already present in {_brief(t)}")
    return bisect_right(t, x) + 1
