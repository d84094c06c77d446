import functools
import itertools
import math
import time

import pytest
from hypothesis import given, strategies as st

import hopfcomb.limits
from hopfcomb.limits import LimitExceeded, Limits
from hopfcomb.words import (
    FAMILIES,
    canonical_set_partition,
    composition_from_text,
    composition_to_text,
    connected_factorization,
    cut_points,
    cycle_supports,
    cycle_type,
    cycles,
    descent_composition,
    enumerate_family,
    family_size,
    from_cycles,
    initial_words,
    inverse,
    inversions,
    involutions,
    is_connected,
    is_initial,
    is_involution,
    is_parking,
    multiset_splits,
    nondecreasing_parking_functions,
    ordered_cycle_type,
    parking_functions,
    partition_of_word,
    partitions,
    permutations,
    permutations_of_type,
    set_partition_from_text,
    set_partition_to_text,
    set_partitions,
    shifted_concat,
    shifted_shuffle,
    shuffle,
    standardize,
    word_from_text,
    word_to_text,
)

words_st = st.lists(st.integers(min_value=1, max_value=6), min_size=0, max_size=7).map(tuple)


def test_standardize_worked_example():
    assert standardize((1, 1, 2, 1, 2, 1, 3, 1, 3, 2)) == (1, 2, 6, 3, 7, 4, 9, 5, 10, 8)


def test_standardize_fixed_points():
    assert standardize((1, 2, 3)) == (1, 2, 3)
    assert standardize((3, 2, 1)) == (3, 2, 1)
    assert standardize(()) == ()


@given(words_st)
def test_standardize_idempotent_on_permutations(w):
    sigma = standardize(w)
    assert standardize(sigma) == sigma


def test_shifted_concat_examples():
    assert shifted_concat((1, 2), (2, 1)) == (1, 2, 4, 3)
    assert shifted_concat((4, 2, 3, 2, 2), (2, 2)) == (4, 2, 3, 2, 2, 7, 7)
    assert shifted_concat((1,), (3, 3, 1)) == (1, 4, 4, 2)


@given(words_st, words_st, words_st)
def test_shifted_concat_associative(u, v, w):
    assert shifted_concat(shifted_concat(u, v), w) == shifted_concat(u, shifted_concat(v, w))


def test_connected_factorization_examples():
    assert connected_factorization((4, 2, 3, 2, 2, 7, 7)) == [(4, 2, 3, 2, 2), (2, 2)]
    assert connected_factorization((6, 2, 6, 1, 2, 4)) == [(6, 2, 6, 1, 2, 4)]
    assert connected_factorization((1, 2, 4, 3)) == [(1,), (1,), (2, 1)]


def test_factorization_of_concat_is_concat_of_factorizations():
    for n in range(1, 4):
        for m in range(1, 4):
            for f in enumerate_family("endofunctions", n):
                for g in enumerate_family("endofunctions", m):
                    assert (
                        connected_factorization(shifted_concat(f, g))
                        == connected_factorization(f) + connected_factorization(g)
                    )


def test_connected_counts_brute_force():
    expected = {1: 1, 2: 3, 3: 20, 4: 197}
    for n, count in expected.items():
        assert sum(1 for f in enumerate_family("endofunctions", n) if is_connected(f)) == count


def test_cycles_examples():
    assert cycles((3, 1, 5, 4, 2)) == ((1, 3, 5, 2), (4,))
    assert cycles((1, 2, 3)) == ((1,), (2,), (3,))
    assert cycles((2, 4, 3, 1)) == ((1, 2, 4), (3,))


def test_cycles_round_trip_to_degree_7():
    for n in range(8):
        for sigma in permutations(n):
            assert from_cycles(cycles(sigma), n) == sigma


def test_permutations_of_type_partition_each_symmetric_group():
    for n in range(8):
        seen = []
        for lam in partitions(n):
            of_type = list(permutations_of_type(lam, n))
            assert all(cycle_type(sigma) == lam for sigma in of_type), lam
            seen += of_type
        assert len(seen) == len(set(seen)) == math.factorial(n), n
        assert set(seen) == set(permutations(n)), n


def test_permutations_of_type_refuses_what_is_not_a_partition_of_n():
    for lam, n in [((2, 1), 4), ((3, 1), 3), ((2, 0, 1), 3)]:
        with pytest.raises(ValueError):
            permutations_of_type(lam, n)


def test_cycle_supports_and_types():
    assert cycle_supports((5, 2, 3, 4, 1)) == ((1, 5), (2,), (3,), (4,))
    assert ordered_cycle_type((5, 2, 3, 4, 1)) == (2, 1, 1, 1)
    assert cycle_type((5, 2, 3, 4, 1)) == (2, 1, 1, 1)
    assert ordered_cycle_type((1, 2, 3, 4)) == (1, 1, 1, 1)
    assert cycle_supports((3, 1, 5, 4, 2)) == ((1, 2, 3, 5), (4,))
    assert ordered_cycle_type((3, 1, 5, 4, 2)) == (4, 1)


def test_shuffle_examples():
    assert sorted(shuffle((1,), (2,))) == [(1, 2), (2, 1)]
    assert sorted(shifted_shuffle((2, 1), (1,))) == [(2, 1, 3), (2, 3, 1), (3, 2, 1)]
    assert len(shuffle((1, 2), (3, 4))) == 6


@given(
    st.lists(st.integers(1, 4), max_size=4).map(tuple),
    st.lists(st.integers(1, 4), max_size=4).map(tuple),
)
def test_shuffle_count_with_multiplicity(u, v):
    assert len(shifted_shuffle(u, v)) == math.comb(len(u) + len(v), len(u))


def test_enumeration_counts():
    assert sorted(enumerate_family("endofunctions", 2)) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert len(list(enumerate_family("parking", 3))) == 16
    assert len(list(enumerate_family("nondecreasing_parking", 3))) == 5
    counts = {
        "endofunctions": lambda n: n**n,
        "permutations": math.factorial,
        "parking": lambda n: (n + 1) ** (n - 1),
        "nondecreasing_parking": lambda n: math.comb(2 * n, n) // (n + 1),
        "set_partitions": lambda n: [1, 1, 2, 5, 15, 52][n],
        "initial_words": lambda n: [1, 1, 3, 13, 75, 541][n],
        "involutions": lambda n: [1, 1, 2, 4, 10, 26][n],
        "compositions": lambda n: 2 ** (n - 1),
        "partitions": lambda n: [1, 1, 2, 3, 5, 7][n],
    }
    assert set(counts) == set(FAMILIES)
    for family, formula in counts.items():
        for n in range(1, 6):
            items = list(enumerate_family(family, n))
            assert len(items) == formula(n), (family, n)
            assert len(set(items)) == len(items)


def test_enumeration_guard(monkeypatch):
    with pytest.raises(LimitExceeded):
        list(enumerate_family("endofunctions", 9))
    # refused when called, before the first item is drawn
    for family, n in (("parking", 9), ("initial_words", 9), ("involutions", 11),
                      ("compositions", 11), ("partitions", 15)):
        with pytest.raises(LimitExceeded):
            enumerate_family(family, n)
    monkeypatch.setattr(hopfcomb.limits, "LIMITS", Limits(endofunctions=2))
    with pytest.raises(LimitExceeded):
        list(enumerate_family("endofunctions", 3))
    with pytest.raises(ValueError):
        enumerate_family("no-such-family", 2)


# the largest size of each family that enumerates in about 0.2 s
ENUMERATED_UP_TO = {
    "endofunctions": 7, "permutations": 9, "parking": 7, "nondecreasing_parking": 12,
    "set_partitions": 10, "initial_words": 7, "involutions": 10, "compositions": 10,
    "partitions": 14,
}


@pytest.mark.parametrize("name", list(FAMILIES))
def test_family_size_counts_the_enumeration(name):
    assert set(ENUMERATED_UP_TO) == set(FAMILIES)
    for n in range(ENUMERATED_UP_TO[name] + 1):
        assert family_size(name, n) == sum(1 for _ in enumerate_family(name, n)), n


@pytest.mark.parametrize("name", list(FAMILIES))
def test_family_size_is_the_int_one_at_size_zero(name):
    # (n + 1) ** (n - 1) and 2 ** (n - 1) are floats at n = 0
    assert type(family_size(name, 0)) is int and family_size(name, 0) == 1


@pytest.mark.parametrize("kind, n, limits", [
    ("no-such-family", 2, None), ("parking", -1, None), ("involutions", -3, None),
    ("parking", 9, None), ("endofunctions", 9, None), ("partitions", 15, None),
    ("endofunctions", 3, Limits(endofunctions=2)),
])
def test_family_size_refuses_what_the_enumeration_refuses(kind, n, limits, monkeypatch):
    if limits is not None:
        monkeypatch.setattr(hopfcomb.limits, "LIMITS", limits)
    with pytest.raises(ValueError) as enumerated:
        enumerate_family(kind, n)
    with pytest.raises(ValueError) as counted:
        family_size(kind, n)
    assert type(counted.value) is type(enumerated.value)
    assert str(counted.value) == str(enumerated.value)


@pytest.mark.parametrize("name", list(FAMILIES))
def test_family_labels_print_parse_back_and_have_their_size(name):
    family = FAMILIES[name]
    assert family.name == name
    for n in range(5):
        for label in enumerate_family(name, n):
            assert family.degree(label) == n
            assert family.parse(family.text(label)) == label


# The filters the generators replaced, kept as oracles: each generator must
# stream the same list in the same order, since sweep counterexamples are
# reported in label order.

def _filtered_words(n, keep):
    return [w for w in itertools.product(range(1, n + 1), repeat=n) if keep(w)]


def _recursive_set_partitions(n):
    def rec(i, blocks):
        if i > n:
            yield canonical_set_partition(blocks)
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1, blocks)
            b.pop()
        blocks.append([i])
        yield from rec(i + 1, blocks)
        blocks.pop()

    return list(rec(1, []))


def _recursive_nondecreasing_parking(n):
    def rec(prefix):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for a in range(prefix[-1] if prefix else 1, len(prefix) + 2):
            prefix.append(a)
            yield from rec(prefix)
            prefix.pop()

    return list(rec([]))


@pytest.mark.parametrize("n", range(7))
def test_parking_functions_match_the_filter_in_order(n):
    assert list(parking_functions(n)) == _filtered_words(n, is_parking)


@pytest.mark.parametrize("n", range(7))
def test_initial_words_match_the_filter_in_order(n):
    assert list(initial_words(n)) == _filtered_words(n, is_initial)


@pytest.mark.parametrize("n", range(9))
def test_involutions_match_the_filter_in_order(n):
    expected = [w for w in itertools.permutations(range(1, n + 1)) if is_involution(w)]
    assert list(involutions(n)) == expected


@pytest.mark.parametrize("n", range(9))
def test_set_partitions_match_the_canonicalizing_recursion_in_order(n):
    assert list(set_partitions(n)) == _recursive_set_partitions(n)


@pytest.mark.parametrize("n", range(9))
def test_nondecreasing_parking_functions_match_the_recursion_in_order(n):
    assert list(nondecreasing_parking_functions(n)) == _recursive_nondecreasing_parking(n)


def test_parking_predicate():
    assert is_parking((3, 1, 1))
    assert not is_parking((2, 2, 3))
    assert is_parking(())


def test_involutions():
    assert is_involution((2, 1, 3))
    assert not is_involution((2, 3, 1))


def test_descents_and_inversions():
    assert descent_composition((2, 1)) == (1, 1)
    assert descent_composition((1, 3, 2)) == (2, 1)
    assert inversions((3, 2, 1)) == 3
    assert inverse((3, 1, 2)) == (2, 3, 1)


@given(words_st)
def test_word_text_round_trip(w):
    assert word_from_text(word_to_text(w)) == w


def test_cycle_notation_round_trip():
    assert word_from_text("(1352)(4)") == (3, 1, 5, 4, 2)
    assert word_from_text("(12)()") == (2, 1)
    assert word_from_text("(1,10)(2)(3)(4)(5)(6)(7)(8)(9)") == (10, 2, 3, 4, 5, 6, 7, 8, 9, 1)
    assert word_from_text("2,6,7,9,10,1,3,5,4,8") == (2, 6, 7, 9, 10, 1, 3, 5, 4, 8)


def test_set_partition_text_round_trip():
    pi = canonical_set_partition([(1, 5), (2,), (3, 4)])
    assert set_partition_to_text(pi) == "{1,5|2|3,4}"
    assert set_partition_from_text("{1,5|2|3,4}") == pi
    assert set_partition_from_text("{}") == ()


def test_set_partition_labels_are_canonical():
    # the set-partition rules of sgqsym read this: increasing blocks, ordered
    # by their least letter
    for n in range(8):
        for pi in set_partitions(n):
            assert pi == canonical_set_partition(pi), pi
    assert set_partition_from_text("{3|2,1}") == ((1, 2), (3,))


def test_composition_text_round_trip():
    assert composition_to_text((2, 1, 1)) == "(2,1,1)"
    assert composition_from_text("(2,1,1)") == (2, 1, 1)
    assert composition_from_text("()") == ()


def test_partition_of_word():
    assert partition_of_word((1, 2, 1, 3, 3, 1)) == ((1, 3, 6), (2,), (4, 5))


def test_cut_points():
    assert cut_points((4, 2, 3, 2, 2, 7, 7)) == [0, 5, 7]
    assert cut_points(()) == [0]


def test_cut_points_take_linear_time_where_every_prefix_allows_a_cut():
    # the prefix maximum of 1 2 ... n-1 1 allows a cut at every k and its
    # last letter forbids each; taking min(h[k:]) at each k took 0.7 s here
    n = 10_000
    h = tuple(range(1, n)) + (1,)
    start = time.perf_counter()
    assert cut_points(h) == [0, n]
    assert time.perf_counter() - start < 0.1


def _cut_points_quadratic(h):
    """The definition read literally: every k with h[:k] <= k < h[k:] letterwise."""
    n = len(h)
    inner = [k for k in range(1, n)
             if all(h[i] <= k for i in range(k)) and all(h[i] > k for i in range(k, n))]
    return [0] + inner + ([n] if n else [])


@given(st.lists(st.integers(min_value=1, max_value=20), max_size=9).map(tuple))
def test_cut_points_matches_quadratic_definition_on_large_letters(h):
    assert cut_points(h) == _cut_points_quadratic(h)


def _cut_points_by_definition(h):
    """Every k in 0..n with max(h[:k]) <= k < min(h[k:]), where the max of
    nothing is 0 and the min of nothing is infinite."""
    return [k for k in range(len(h) + 1)
            if max(h[:k], default=0) <= k < min(h[k:], default=math.inf)]


def test_cut_points_match_their_definition_on_small_endofunctions_and_s7():
    small = (h for n in range(7) for h in enumerate_family("endofunctions", n))
    for h in itertools.chain(small, enumerate_family("permutations", 7)):
        assert cut_points(h) == _cut_points_by_definition(h), h


def _endofunctions_st(max_size):
    return st.integers(0, max_size).flatmap(
        lambda n: st.lists(st.integers(1, max(n, 1)), min_size=n, max_size=n).map(tuple))


# shifted concatenations of small endofunctions, so that most words have cuts
_glued_st = st.lists(_endofunctions_st(4), max_size=4).map(
    lambda parts: functools.reduce(shifted_concat, parts, ()))


@given(st.one_of(_endofunctions_st(12), _glued_st))
def test_cut_points_match_their_definition_on_random_endofunctions(h):
    assert cut_points(h) == _cut_points_by_definition(h)


@given(st.lists(st.integers(min_value=1, max_value=4), max_size=7))
def test_multiset_splits_are_the_distinct_sub_multiset_splits(items):
    brute = set()
    for chosen in itertools.product((False, True), repeat=len(items)):
        left = sorted(a for a, c in zip(items, chosen) if c)
        right = sorted(a for a, c in zip(items, chosen) if not c)
        brute.add((tuple(left), tuple(right)))
    splits = list(multiset_splits(items))
    assert len(splits) == len(set(splits))
    assert set(splits) == brute
