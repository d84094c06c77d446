import itertools
from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

from hopfcomb import stalactic, symfunc
from hopfcomb.lincomb import LinComb
from hopfcomb.words import is_parking


def letters(s: str) -> tuple[int, ...]:
    return tuple(ord(ch) - 96 for ch in s)


def test_canonical_form_of_insertion_example():
    # the nine-letter insertion example groups letters at first occurrence
    assert stalactic.canonical_form(letters("cabccdbdd")) == letters("cccabbddd")


def test_canonical_form_constant_word():
    assert stalactic.canonical_form((4, 4, 4)) == (4, 4, 4)
    assert stalactic.canonical_form(()) == ()


@given(st.integers(1, 3), st.lists(st.integers(1, 3), max_size=4).map(tuple))
def test_generating_relation(a, w):
    # a w a == a a w
    assert stalactic.congruent((a,) + w + (a,), (a, a) + w)


def test_plactic_style_presentation():
    # a u ba == a u ab
    for u in [(), (2,), (3, 1), (2, 2)]:
        assert stalactic.congruent((1,) + u + (2, 1), (1,) + u + (1, 2))


def test_rewriting_closure_matches_canonical_fibers():
    for length in range(1, 7):
        fibers: dict = {}
        for x in itertools.product((1, 2, 3), repeat=length):
            fibers.setdefault(stalactic.canonical_form(x), set()).add(x)
        for w in itertools.product((1, 2, 3), repeat=length):
            cls = stalactic.congruence_class(w)
            assert cls == fibers[stalactic.canonical_form(w)], w


def test_insertion_example():
    tableau, q_symbol = stalactic.insert(letters("cabccdbdd"))
    assert tableau.columns == ((3, 3), (1, 1), (2, 2), (4, 3))
    assert tableau.word() == letters("cccabbddd")
    assert q_symbol == ((1, 4, 5), (2,), (3, 7), (6, 8, 9))


def test_insertion_single_letter():
    tableau, q_symbol = stalactic.insert((1,))
    assert tableau.columns == ((1, 1),)
    assert q_symbol == ((1,),)


def test_p_symbol_is_congruence_invariant():
    for length in range(1, 6):
        for w in itertools.product((1, 2, 3), repeat=length):
            form = stalactic.canonical_form(w)
            for v in stalactic.congruence_class(w):
                assert stalactic.insert(v)[0].word() == form


def test_p_and_canonical_form_carry_same_data():
    for length in range(1, 5):
        for w in itertools.product((1, 2, 3, 4), repeat=length):
            tableau, _ = stalactic.insert(w)
            assert tableau.word() == stalactic.canonical_form(w)


def test_q_symbol_fibers_are_orbits():
    from hopfcomb.words import partition_of_word, set_partitions

    for n in range(1, 5):
        for pi in set_partitions(n):
            fiber = {
                w
                for w in itertools.product(range(1, n + 1), repeat=n)
                if stalactic.insert(w)[1] == pi
            }
            orbit = {
                w
                for w in itertools.product(range(1, n + 1), repeat=n)
                if partition_of_word(w) == pi
            }
            assert fiber == orbit


def test_class_count_sequences():
    assert [stalactic.class_count("parking", n) for n in range(1, 7)] == [
        1, 3, 13, 73, 501, 4051,
    ]
    assert [stalactic.class_count("endofunctions", n) for n in range(1, 7)] == [
        1, 4, 21, 136, 1045, 9276,
    ]
    assert [stalactic.class_count("initial_words", n) for n in range(1, 7)] == [
        1, 3, 11, 49, 261, 1631,
    ]


def test_class_counts_match_brute_force():
    for family in ("parking", "endofunctions", "initial_words"):
        for n in range(0, 7):
            assert stalactic.class_count(family, n) == stalactic.class_count_brute(
                family, n
            ), (family, n)


def test_triangle_rows():
    assert stalactic.triangle("narayana", 6) == [1, 15, 50, 50, 15, 1]
    assert stalactic.triangle("lah", 4) == [1, 12, 36, 24]
    assert stalactic.triangle("tw", 5) == [5, 40, 60, 20, 1]
    assert stalactic.triangle("endt", 4) == [4, 36, 72, 24]
    assert stalactic.triangle("pascal", 5) == [1, 4, 6, 4, 1]
    assert stalactic.triangle("arr", 5) == [1, 8, 36, 96, 120]


@pytest.mark.parametrize("call", [
    lambda: stalactic.class_count("parking", -1),
    lambda: stalactic.class_count("initial_words", -3),
    lambda: stalactic.triangle("lah", -2),
    lambda: stalactic.triangle("narayana", -1),
], ids=["class_count-parking", "class_count-initial_words", "triangle-lah", "triangle-narayana"])
def test_negative_sizes_are_refused(call):
    with pytest.raises(ValueError, match="^n must be nonnegative$"):
        call()


def test_size_zero_is_one_class_and_an_empty_row():
    for family in stalactic.TRIANGLE_FAMILIES.values():
        assert stalactic.class_count(family, 0) == 1
    assert stalactic.triangle("lah", 0) == []


def test_triangle_column_scaling():
    import math

    for n in range(1, 7):
        for scaled, base in [("lah", "narayana"), ("endt", "tw"), ("arr", "pascal")]:
            assert stalactic.triangle(scaled, n) == [
                v * math.factorial(k)
                for k, v in enumerate(stalactic.triangle(base, n), start=1)
            ]


def test_triangle_rows_match_brute_force():
    for name in ("narayana", "lah", "endt", "arr"):
        for n in range(1, 6):
            assert stalactic.triangle_brute(name, n) == stalactic.triangle(name, n)


def _closed_form_class_count(family, n):
    """Closed forms for the class counts, written apart from the triangles:
    parking classes from a sum over the integer partitions of n, the other
    two as binomial sums over the number k of distinct letters."""
    if family == "parking":
        total = sum(
            symfunc.m_eval_at_n(mu, n + 1) * factorial(len(mu))
            for mu in symfunc.partitions(n)
        )
        assert total % (n + 1) == 0
        return total // (n + 1)
    if family == "endofunctions":
        return sum(comb(n - 1, k - 1) * comb(n, k) * factorial(k) for k in range(1, n + 1))
    return sum(comb(n - 1, k - 1) * factorial(k) for k in range(1, n + 1))


def test_triangle_row_sums_are_class_counts():
    for family in ("parking", "endofunctions", "initial_words"):
        for n in range(1, 31):
            assert stalactic.class_count(family, n) == _closed_form_class_count(family, n)


def test_parkize():
    assert stalactic.parkize((2, 3)) == (1, 2)
    assert stalactic.parkize((3, 3, 1)) == (2, 2, 1)
    assert stalactic.parkize((3, 1, 1)) == (3, 1, 1)
    for n in range(1, 5):
        for w in itertools.product(range(1, n + 2), repeat=n):
            parked = stalactic.parkize(w)
            assert is_parking(parked)
            if is_parking(w):
                assert parked == w


def test_pack():
    assert stalactic.pack((5, 3, 5)) == (2, 1, 2)
    assert stalactic.pack((1, 2)) == (1, 2)


def test_class_product_examples():
    r = stalactic.class_product("endofunctions", (1,), (1, 1))
    assert r == LinComb.basis("stalactic:endofunctions", (1, 2, 2))
    r = stalactic.class_product("parking", (1,), (1, 1))
    assert r.terms == {(1, 1, 1): 1, (1, 2, 2): 1, (2, 1, 1): 1, (3, 1, 1): 1}
    r = stalactic.class_product("parking", (), (1, 1))
    assert r.terms == {(1, 1): 1}
    with pytest.raises(ValueError):
        stalactic.class_product("nope", (1,), (1,))


@pytest.mark.parametrize("family, u, v, words", [
    ("parking", (2,), (1,), "parking functions"),
    ("endofunctions", (5,), (1,), "endofunctions"),
    ("initial_words", (2,), (1,), "initial words"),
    ("initial_words", (1,), (1, 3), "initial words"),
], ids=["parking", "endofunctions", "initial_words", "initial_words-gap"])
def test_class_product_refuses_representatives_outside_the_family(family, u, v, words):
    with pytest.raises(ValueError, match=f"^class representatives must be {words}$"):
        stalactic.class_product(family, u, v)


def test_class_products_well_defined():
    for family in ("parking", "endofunctions", "initial_words"):
        for n, m in [(1, 2), (2, 2), (2, 3), (3, 3)]:
            res = stalactic.class_product_well_defined(family, n, m)
            assert res.passed, (family, n, m, res.counterexample)


def test_generic_character_coefficients():
    assert stalactic.c_coefficients(1) == [1]
    assert stalactic.c_coefficients(6) == [1, 1, 3, 11, 53, 309]


def test_generic_character_matches_derangement_route():
    for n in range(1, 7):
        assert stalactic.generic_character(n) == stalactic.derangement_route(n), n


def test_generating_series_of_parking_classes():
    # exponential generating function exp(z/(1-z)): a_n = n! [z^n]
    from fractions import Fraction
    from math import factorial

    bound = 8
    inner = [Fraction(0)] + [Fraction(1)] * bound  # z/(1-z)
    series = [Fraction(0)] * (bound + 1)
    series[0] = Fraction(1)
    term = [Fraction(0)] * (bound + 1)
    term[0] = Fraction(1)
    for j in range(1, bound + 1):
        nxt = [Fraction(0)] * (bound + 1)
        for a in range(bound + 1):
            if term[a]:
                for b in range(1, bound + 1 - a):
                    nxt[a + b] += term[a] * inner[b] / j
        term = nxt
        for d in range(bound + 1):
            series[d] += term[d]
    for n in range(1, 7):
        assert series[n] * factorial(n) == stalactic.class_count("parking", n)
