import math
import random

import pytest

from conftest import filtered_stable_splits, lc, tensor_terms
from hopfcomb import cli, eqsym
from hopfcomb.axioms import duality_check, hopf_check
from hopfcomb.limits import LimitExceeded
from hopfcomb.lincomb import LinComb, pairing, tensor
from hopfcomb.realize import ROW_KIND, realize_endofunction, row_monomial, row_mul
from hopfcomb.words import cut_points, endofunctions, multisets, unshift, word_from_text as W

M = "eqsym:M"
S = "eqsym:S"


def test_product_golden_examples():
    assert eqsym.product_M(W("1"), W("22")) == lc(M, ("133", 1), ("323", 1), ("223", 1))
    assert eqsym.product_M(W("1"), W("331")) == lc(
        M, ("1442", 1), ("4241", 1), ("4431", 1), ("3314", 1)
    )
    assert eqsym.product_M(W("12"), W("21")) == lc(
        M, ("1243", 1), ("1432", 1), ("4231", 1), ("1324", 1), ("3214", 1), ("2134", 1)
    )
    assert eqsym.product_M(W("12"), W("22")) == lc(
        M, ("1244", 1), ("1434", 1), ("4234", 1), ("1334", 1), ("3234", 1), ("2234", 1)
    )
    assert eqsym.product_M(W("12"), W("133")) == lc(
        M,
        ("12355", 3), ("12445", 2), ("12545", 2),
        ("13345", 1), ("14345", 1), ("15345", 1),
    )


def test_coproduct_golden_examples():
    assert eqsym.coproduct_M(W("626124")) == tensor_terms(
        M, ("626124", "()", 1), ("()", "626124", 1)
    )
    assert eqsym.coproduct_M(W("4232277")) == tensor_terms(
        M, ("4232277", "()", 1), ("42322", "22", 1), ("()", "4232277", 1)
    )
    assert eqsym.coproduct_M(()) == tensor_terms(M, ("()", "()", 1))


def test_coproduct_matches_cut_point_oracle_up_to_degree_6():
    # the cuts of words.cut_points, each unshifted, in the same term order
    for n in range(7):
        for h in endofunctions(n):
            oracle = {(h[:k], unshift(h, k)): 1 for k in cut_points(h)}
            out = eqsym.coproduct_M(h)
            assert out.kind == eqsym.M_TENSOR_KIND
            assert list(out.terms.items()) == list(oracle.items()), h


def test_dual_product_is_shifted_concatenation():
    assert eqsym.product_S(W("12"), W("21")) == lc(S, ("1243", 1))
    assert eqsym.product_S((), W("22")) == lc(S, ("22", 1))


def test_dual_coproduct_transposes_the_product():
    # <Delta S^h, M_f (x) M_g> = coefficient of M_h in M_f M_g, degree <= 4
    for total in range(2, 5):
        for i in range(1, total):
            for f in endofunctions(i):
                for g in endofunctions(total - i):
                    prod = eqsym.product_M(f, g)
                    left = tensor(LinComb.basis(M, f), LinComb.basis(M, g))
                    for h in endofunctions(total):
                        cop = LinComb(f"{M}(x){M}", eqsym.coproduct_S(h).terms)
                        assert prod[h] == pairing(left, cop), (f, g, h)


def test_dual_coproduct_example():
    assert eqsym.coproduct_S(W("133"))[(W("1"), W("22"))] == 1


def test_commutativity_small():
    for f, g in [(W("12"), W("22")), (W("1"), W("331")), (W("21"), W("11"))]:
        assert eqsym.product_M(f, g) == eqsym.product_M(g, f)


def test_total_mass_binomial():
    for i in range(1, 6):
        for j in range(1, 7 - i):
            for f in list(endofunctions(i))[:8]:
                for g in list(endofunctions(j))[:8]:
                    total = sum(eqsym.product_M(f, g).terms.values())
                    assert total == math.comb(i + j, i)


def test_connected_series():
    assert [eqsym.connected_count(n) for n in range(1, 7)] == [1, 3, 20, 197, 2511, 38924]
    assert eqsym.connected_count(8) == 14769175


def test_free_lie_dimensions():
    assert [eqsym.lie_dims(n) for n in range(1, 7)] == [1, 3, 23, 223, 2800, 42576]
    assert eqsym.lie_dims(8) == 15734388


def test_free_lie_dimensions_satisfy_pbw():
    # the Euler transform of the Lie dimensions is the enveloping algebra's n^n
    for n in range(8):
        assert multisets([eqsym.lie_dims(k) for k in range(1, n + 1)]) == [
            k**k if k else 1 for k in range(n + 1)]


def test_connected_series_matches_brute_force():
    for n in range(1, 6):
        assert eqsym.brute_connected_count(n) == eqsym.connected_count(n)


def test_brute_connected_count_keeps_the_family_guard():
    with pytest.raises(LimitExceeded, match=r"\(Limits\.endofunctions\)$"):
        eqsym.brute_connected_count(9)


def test_freeness_dimension_identity():
    res = eqsym.free_generation_check(6)
    assert res.passed, res.counterexample


def test_oracle_examples():
    assert eqsym.oracle_check(W("1"), W("22"), 5)
    assert eqsym.oracle_check(W("12"), W("21"), 6)
    assert eqsym.oracle_check((), W("22"), 4)
    with pytest.raises(ValueError):
        eqsym.oracle_check(W("12"), W("21"), 3)


def test_oracle_all_pairs_total_degree_4():
    for i in range(1, 4):
        for j in range(1, 5 - i):
            for f in endofunctions(i):
                for g in endofunctions(j):
                    assert eqsym.oracle_check(f, g)


def _row_mul_by_sort_and_filter(x, y):
    """The pairwise route: sort every concatenated pair, drop repeated rows."""
    out = {}
    for ma, ca in x.terms.items():
        for mb, cb in y.terms.items():
            m = row_monomial(ma + mb)
            if m is not None:
                out[m] = out.get(m, 0) + ca * cb
    return LinComb(ROW_KIND, out)


def test_row_mul_matches_sort_and_filter_on_realized_pairs():
    for top in range(6):
        for n_trunc in (top, top + 1):
            realized = {
                n: [realize_endofunction(f, n_trunc) for f in endofunctions(n)]
                for n in range(top + 1)
            }
            for n in range(top + 1):
                for x in realized[n]:
                    for y in realized[top - n]:
                        expected = _row_mul_by_sort_and_filter(x, y)
                        assert row_mul(x, y) == expected, (x, y, n_trunc)


def test_hopf_axioms_degree_4():
    report = hopf_check(eqsym.algebra(), 4)
    assert report.passed
    assert report.commutative and not report.cocommutative
    dual = hopf_check(cli._REGISTRY["eqsym:S"], 4)
    assert dual.passed
    assert dual.cocommutative and not dual.commutative


def test_duality_degree_3():
    res = duality_check(
        eqsym.algebra(),
        eqsym.coproduct_S,
        3,
        dual_product=eqsym.product_S,
        primal_coproduct=eqsym.coproduct_M,
    )
    assert res.passed, res


def _random_endofunction(rng, n):
    return tuple(rng.randint(1, n) for _ in range(n))


def _seeded_pairs(seed, total, count):
    """Endofunction pairs (f, g) with len(f) + len(g) == total, cycling the split."""
    rng = random.Random(seed)
    return [
        (_random_endofunction(rng, n), _random_endofunction(rng, total - n))
        for n in (1 + k % (total - 1) for k in range(count))
    ]


def test_set_split_product_matches_conjugation_up_to_degree_5():
    # n = 0 or n = total puts an empty factor on one side, total = 0 on both;
    # those products skip the set-split table and must be M_f or M_g
    for total in range(6):
        for n in range(total + 1):
            for f in endofunctions(n):
                for g in endofunctions(total - n):
                    out = eqsym.product_M(f, g)
                    assert out == eqsym.product_M_conjugation(f, g), (f, g)
                    if not f or not g:
                        assert out == LinComb.basis(M, f + g), (f, g)


def test_stable_splits_match_the_subset_filter_up_to_degree_5():
    for n in range(6):
        for h in endofunctions(n):
            assert list(eqsym.stable_splits(h)) == list(filtered_stable_splits(h)), h
    # two components: 1 -> 1 and 2 -> 4 -> 3 -> 3
    assert [s for s, _ in eqsym.stable_splits(W("1433"))] == [
        (), (1,), (2, 3, 4), (1, 2, 3, 4)]


@pytest.mark.parametrize("total", [7, 8])
def test_set_split_product_matches_conjugation_seeded(total):
    for f, g in _seeded_pairs(total, total, 28):
        assert eqsym.product_M(f, g) == eqsym.product_M_conjugation(f, g), (f, g)


def test_set_split_product_matches_matrix_oracle_degree_7():
    for f, g in _seeded_pairs(77, 7, 24):
        assert eqsym.oracle_check(f, g), (f, g)
