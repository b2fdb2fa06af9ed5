import re
import sys
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, strategies as st

from equidet import (
    VectorConfiguration,
    insert_position,
    permutation_sign,
    subset_rank,
    subset_unrank,
    subsets_colex,
)
from equidet.tensorfile import tensor_from_json


def colex_enumeration(n, k):
    # independent oracle: brute-force sort by reversed tuple
    return sorted(combinations(range(1, n + 1), k), key=lambda t: t[::-1])


def test_rank_examples():
    assert subset_rank((1, 2), 4) == 0
    assert subset_rank((1, 3), 4) == 1
    assert subset_rank((3, 4), 4) == 5


def test_unrank_examples():
    assert subset_unrank(0, 2, 4) == (1, 2)
    assert subset_unrank(5, 2, 4) == (3, 4)
    assert subset_unrank(1, 2, 4) == (1, 3)


def test_rank_matches_exhaustive_enumeration():
    for n in range(1, 9):
        for k in range(0, n + 1):
            for expected_rank, t in enumerate(colex_enumeration(n, k)):
                assert subset_rank(t, n) == expected_rank
                assert subset_unrank(expected_rank, k, n) == t


def test_roundtrip_exhaustive_up_to_12():
    for n in range(1, 13):
        for k in range(0, n + 1):
            for t in combinations(range(1, n + 1), k):
                assert subset_unrank(subset_rank(t, n), k, n) == t


def test_rank_strictly_monotone_in_colex():
    for n in (5, 8):
        for k in range(n + 1):
            ranks = [subset_rank(t, n) for t in colex_enumeration(n, k)]
            assert ranks == sorted(set(ranks)) == list(range(comb(n, k)))


def test_subsets_colex_agrees_with_oracle():
    for n in range(0, 9):
        for k in range(0, n + 1):
            assert list(subsets_colex(n, k)) == colex_enumeration(n, k)
    assert subsets_colex(5, -1) == ()


def test_subsets_colex_rejects_a_particle_count_past_the_largest_size():
    n = sys.maxsize + 1
    with pytest.raises(ValueError, match=f"particle count n has {len(str(n))} digits") as info:
        subsets_colex(n, 2)
    assert str(n) not in str(info.value)


def test_rank_rejects_out_of_range_element():
    with pytest.raises(ValueError):
        subset_rank((2, 5), 4)


def test_rank_rejects_unsorted():
    with pytest.raises(ValueError):
        subset_rank((3, 2), 4)
    with pytest.raises(ValueError):
        subset_rank((2, 2), 4)
    with pytest.raises(ValueError):
        subset_rank((0, 1), 4)


def test_unrank_rejects_out_of_range_rank():
    with pytest.raises(ValueError):
        subset_unrank(6, 2, 4)
    with pytest.raises(ValueError):
        subset_unrank(-1, 2, 4)
    # a rank, k or n not of type int (bool included) is refused by the int
    # rule, not read as an int or passed on to math.comb
    for args in [(0.5, 1, 3), (2.5, 2, 4), (True, 1, 3), (0, 1.0, 3), (0, True, 3), (0, 1, 3.0), (0, 1, "3")]:
        with pytest.raises(ValueError, match="must be an integer"):
            subset_unrank(*args)


@pytest.mark.parametrize("t, n", [((1, 2), 5.0), ((1,), True), ((1, 2), "5")], ids=["float", "bool", "str"])
def test_subset_rank_applies_the_int_rule_to_n(t, n):
    # as its inverse does: a float or bool n was ranked as the int it equals,
    # and a str one failed in a comparison with a TypeError
    message = f"^n must be an integer, got {re.escape(repr(n))}$"
    with pytest.raises(ValueError, match=message):
        subset_rank(t, n)
    with pytest.raises(ValueError, match=message):
        subset_unrank(0, len(t), n)


def test_sign_examples():
    assert permutation_sign((1, 2, 3)) == 1
    assert permutation_sign((2, 1)) == -1
    assert permutation_sign((2, 3, 1)) == 1


def test_sign_rejects_repeats():
    with pytest.raises(ValueError):
        permutation_sign((1, 1, 2))


@given(st.integers(2, 8).flatmap(lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))))
def test_sign_multiplicative(pair):
    p, q = pair
    composed = [p[q[i]] for i in range(len(p))]
    assert permutation_sign(composed) == permutation_sign(p) * permutation_sign(q)


def inversion_sign(seq):
    # independent oracle: (-1) to the number of out-of-order pairs
    inversions = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j])
    return -1 if inversions % 2 else 1


@given(st.lists(st.integers(-60, 60), unique=True, max_size=14))
def test_sign_matches_inversion_count(entries):
    # non-contiguous entries, as when signing an ordering of particle indices
    assert permutation_sign(entries) == inversion_sign(entries)


def test_insert_position_examples():
    assert insert_position((2, 5), 1) == 1
    assert insert_position((2, 5), 3) == 2
    assert insert_position((2, 5), 7) == 3
    assert insert_position((), 4) == 1


def test_insert_position_matches_sorted_index():
    t = (2, 4, 7, 9)
    for x in (1, 3, 5, 6, 8, 10):
        merged = tuple(sorted(t + (x,)))
        assert merged[insert_position(t, x) - 1] == x


def test_insert_position_rejects_member():
    with pytest.raises(ValueError):
        insert_position((2, 5), 5)


@pytest.mark.parametrize(
    "call",
    [
        lambda: subset_rank((True, 2), 2),
        lambda: subset_rank((1.0, 2), 2),
        lambda: subset_rank(("1", 2), 2),
        lambda: insert_position((1, 3), 2.5),
        lambda: insert_position((1, 3), True),
        lambda: insert_position((1.0, 3), 2),
        lambda: subset_rank(([1], 2), 2),
        lambda: subset_rank((0, 2), 2),
        lambda: subset_rank((1, 3), 2),
        lambda: insert_position((0, 3), 2),
        lambda: insert_position((1, 3), 0),
        lambda: insert_position((1, [3]), 2),
    ],
    ids=[
        "rank-bool", "rank-float", "rank-str", "insert-float", "insert-bool", "insert-float-tuple",
        "rank-list", "rank-zero", "rank-past-n", "insert-zero-tuple", "insert-zero", "insert-list-tuple",
    ],
)
def test_sorted_tuple_rule_refuses_non_int_indices(call):
    # the index rule: an entry or an inserted value that is not of type int
    # (bool included) or not in 1..n is a ValueError, not a silent rank or a
    # TypeError from math.comb; insert_position has no n, and its message
    # names no bound
    with pytest.raises(ValueError, match="is not an int") as caught:
        call()
    assert str(sys.maxsize) not in str(caught.value)


@pytest.mark.parametrize("bad", [True, 2.0, [2], 0, 6], ids=["bool", "float", "list", "zero", "past-q"])
def test_one_index_rule_gives_one_message(bad):
    # the same bad index gives the same text through the ranking, an accessor
    # and the file loader
    doc = {"r": 2, "d": 1, "q": 5, "kind": "configuration", "entries": [{"idx": [1, bad], "vec": ["1"]}]}
    messages = set()
    for call in (
        lambda: subset_rank((1, bad), 5),
        lambda: VectorConfiguration(2, 1, 5).get((1, bad)),
        lambda: tensor_from_json(doc),
    ):
        with pytest.raises(ValueError) as caught:
            call()
        messages.add(str(caught.value))
    assert messages == {f"index {bad!r} is not an int in 1..5"}


@pytest.mark.parametrize(
    "call",
    [
        lambda: subset_rank(tuple(range(20000, 0, -1)), 10**6),
        lambda: subset_rank(tuple(range(20000)), 10**6),
        lambda: permutation_sign(list(range(19999)) + [0]),
        lambda: insert_position(tuple(range(1, 20001)), 5),
        lambda: subset_unrank(10**4000, 2, 5),
        lambda: subset_rank(("x" * 20000, 2), 3),
    ],
    ids=["decreasing", "below-one", "repeated", "present", "rank", "non-int"],
)
def test_errors_echo_a_bounded_part_of_a_long_input(call):
    # a 20,000-entry input, or a 4,001-digit rank, is cut, not echoed whole
    with pytest.raises(ValueError) as caught:
        call()
    assert len(str(caught.value)) < 200


@pytest.mark.parametrize("primed", [False, True], ids=["cleared-cache", "after-a-valid-call"])
@pytest.mark.parametrize(
    "n, k, message",
    [
        (4.0, 2, "n must be an integer, got 4.0"),
        (True, 1, "n must be an integer, got True"),
        (4, 2.0, "k must be an integer, got 2.0"),
        (4, True, "k must be an integer, got True"),
        (-1, 0, "need n >= 0, got -1"),
    ],
    ids=["float-n", "bool-n", "float-k", "bool-k", "below-floor-n"],
)
def test_subsets_colex_applies_the_int_rule_before_its_cache(n, k, message, primed):
    # 4.0 == 4 and True == 1 hash alike, so an untyped cache would hand them
    # the result of the int call, and a cleared one would fail inside range();
    # {1..-1} has no 0-subset, as subset_unrank and math.comb say
    subsets_colex.cache_clear()
    if primed:
        assert len(subsets_colex(abs(int(n)), int(k))) == comb(abs(int(n)), int(k))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        subsets_colex(n, k)
    assert subsets_colex.cache_info().currsize == int(primed)
