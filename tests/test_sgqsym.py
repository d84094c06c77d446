import itertools
import math
import random

import pytest

from conftest import LOOPING_ROUTES, SORTING_ROUTES, lc
from hopfcomb import eqsym, sgqsym, symfunc
from hopfcomb.axioms import duality_check, hopf_check
from hopfcomb.lincomb import LinComb, bilinear, pairing, tensor, tensor_kind
from hopfcomb.words import (
    compositions,
    cycle_type,
    cycles,
    is_involution,
    is_permutation,
    partitions,
    permutations,
    set_partition_from_text as SP,
    set_partitions,
    standardized_cycles,
    word_from_text as W,
)

M = "sgqsym:M"


def test_product_golden_examples():
    assert sgqsym.product_M(W("1"), W("21")) == lc(M, ("132", 1), ("213", 1), ("321", 1))
    assert sgqsym.product_M(W("12"), W("21")) == lc(
        M, ("1243", 1), ("1324", 1), ("1432", 1), ("2134", 1), ("3214", 1), ("4231", 1)
    )
    assert sgqsym.product_M(W("12"), W("321")) == lc(
        M,
        ("12543", 1), ("14325", 1), ("15342", 2),
        ("32145", 1), ("42315", 2), ("52341", 3),
    )
    assert sgqsym.product_M(W("123"), W("12")) == lc(M, ("12345", math.comb(5, 3)))
    assert sgqsym.product_M(W("21"), W("123")) == lc(
        M,
        ("12354", 1), ("12435", 1), ("12543", 1), ("13245", 1), ("14325", 1),
        ("15342", 1), ("21345", 1), ("32145", 1), ("42315", 1), ("52341", 1),
    )
    assert sgqsym.product_M(W("21"), W("231")) == lc(
        M,
        ("21453", 1), ("23154", 1), ("24513", 1), ("25431", 1), ("34152", 1),
        ("34521", 1), ("35412", 1), ("43251", 1), ("43512", 1), ("53421", 1),
    )


def test_three_product_implementations_agree():
    for i in range(1, 4):
        for j in range(1, 5 - i):
            for a in permutations(i):
                for b in permutations(j):
                    p1 = sgqsym.product_M(a, b)
                    assert p1 == sgqsym.product_M_splitting(a, b), (a, b)
                    assert p1 == sgqsym.product_M_dual_count(a, b), (a, b)


def _seeded_degree_7_pairs():
    rng = random.Random(7)
    for n in range(1, 7):
        a = tuple(rng.sample(range(1, n + 1), n))
        b = tuple(rng.sample(range(1, 8 - n), 7 - n))
        yield a, b


def test_product_routes_agree_on_seeded_degree_7_pairs():
    for a, b in _seeded_degree_7_pairs():
        p1 = sgqsym.product_M(a, b)
        assert p1 == sgqsym.product_M_splitting(a, b), (a, b)
        assert p1 == sgqsym.product_M_dual_count(a, b), (a, b)
        assert p1.terms == eqsym.product_M_conjugation(a, b).terms, (a, b)


def _dual_counts_by_scan(total):
    """The unrestricted cycle-subset scan for every pair of total degree
    ``total`` at once: each gamma of S_total, each subset of its cycles."""
    table = {}
    for gamma in permutations(total):
        cyc = cycles(gamma)
        for size in range(len(cyc) + 1):
            for chosen in itertools.combinations(range(len(cyc)), size):
                rest = tuple(i for i in range(len(cyc)) if i not in chosen)
                key = (standardized_cycles(cyc, chosen), standardized_cycles(cyc, rest))
                counts = table.setdefault(key, {})
                counts[gamma] = counts.get(gamma, 0) + 1
    return table


def test_dual_count_matches_the_unrestricted_scan():
    by_total = {
        total: [
            (a, b)
            for n in range(total + 1)
            for a in permutations(n)
            for b in permutations(total - n)
        ]
        for total in range(6)
    }
    by_total[7] = list(_seeded_degree_7_pairs())
    for total, pairs in by_total.items():
        table = _dual_counts_by_scan(total)
        for a, b in pairs:
            expected = table.get((a, b), {})
            assert sgqsym.product_M_dual_count(a, b).terms == expected, (a, b)


def test_coproduct_from_connected_factorization():
    cop = sgqsym.coproduct_M(W("1243"))
    assert cop.terms == {
        (W("1243"), ()): 1,
        (W("1"), W("132")): 1,
        (W("12"), W("21")): 1,
        ((), W("1243")): 1,
    }
    # connected permutations are primitive
    cop = sgqsym.coproduct_M(W("312"))
    assert cop.terms == {(W("312"), ()): 1, ((), W("312")): 1}


def test_cstd_worked_example():
    words = [(3, 2, 1), (1, 2, 1), (1, 3), (2, 1)]
    assert sgqsym.cstd(words) == (2, 6, 7, 9, 10, 1, 3, 5, 4, 8)
    assert sgqsym.cstd([(1,)]) == (1,)
    assert sgqsym.cstd([(1, 2), (3, 4)]) == (2, 1, 4, 3)


def test_upi_product_golden():
    r = sgqsym.product_upi(SP("{1,2,4|3}"), SP("{1}"))
    expected = LinComb(
        "piqsym:upi",
        {
            SP("{1,2,4|3|5}"): 1,
            SP("{1,2,5|3|4}"): 2,
            SP("{1,3,5|4|2}"): 1,
            SP("{2,3,5|4|1}"): 1,
        },
    )
    assert r == expected


def test_upi_squared_degree_one():
    r = sgqsym.product_upi(SP("{1}"), SP("{1}"))
    assert r.terms == {SP("{1|2}"): 2}


def test_upi_expansion_commutes_with_products():
    for i in range(1, 5):
        for j in range(1, 6 - i):
            for p1 in set_partitions(i):
                for p2 in set_partitions(j):
                    lhs = bilinear(
                        sgqsym.upi_expand(p1), sgqsym.upi_expand(p2), sgqsym.product_M
                    )
                    rhs = LinComb(M)
                    for pi, c in sgqsym.product_upi(p1, p2).terms.items():
                        rhs = rhs + sgqsym.upi_expand(pi).scale(c)
                    assert lhs == rhs, (p1, p2)


def test_upi_expansion_is_a_coalgebra_map():
    # Delta_M(upi_expand(pi)) = (upi_expand (x) upi_expand)(coproduct_upi(pi))
    tensor_m = tensor_kind(M)
    for n in range(6):
        for pi in set_partitions(n):
            lifted = sgqsym.upi_expand(pi).apply(sgqsym.coproduct_M, kind=tensor_m)
            expanded = LinComb(tensor_m)
            for (left, right), c in sgqsym.coproduct_upi(pi).terms.items():
                image = tensor(sgqsym.upi_expand(left), sgqsym.upi_expand(right))
                expanded = expanded + image.scale(c)
            assert lifted == expanded, pi


def _set_partitions_upto(n):
    return [pi for k in range(n + 1) for pi in set_partitions(k)]


@pytest.mark.parametrize("rule", ["product_upi", "product_Mw"])
def test_set_partition_products_match_the_sorting_routes(rule):
    # coefficients and insertion order, on every pair of total degree <= 6
    # (unit included); the sweeps' first counterexamples follow that order
    labels = _set_partitions_upto(6)
    pairs = [(a, b) for a in labels for b in labels
             if sum(map(len, a)) + sum(map(len, b)) <= 6]
    assert len(pairs) == 815
    for a, b in pairs:
        out, oracle = getattr(sgqsym, rule)(a, b), SORTING_ROUTES[rule](a, b)
        assert out.kind == oracle.kind
        assert list(out.terms.items()) == list(oracle.terms.items()), (a, b)


@pytest.mark.parametrize("rule", ["coproduct_upi", "coproduct_Mw"])
def test_set_partition_coproducts_match_the_sorting_routes(rule):
    labels = _set_partitions_upto(7)
    assert len(labels) == 1156 and labels[0] == ()
    for pi in labels:
        out, oracle = getattr(sgqsym, rule)(pi), SORTING_ROUTES[rule](pi)
        assert out.kind == oracle.kind
        assert list(out.terms.items()) == list(oracle.terms.items()), pi


def test_uq_product_golden():
    r = sgqsym.product_uq((1, 3, 1), (1, 2))
    assert r.terms == {
        (1, 1, 2, 3, 1): 2,
        (1, 1, 3, 1, 2): 2,
        (1, 1, 3, 2, 1): 2,
        (1, 2, 1, 3, 1): 1,
        (1, 3, 1, 1, 2): 2,
        (1, 3, 1, 2, 1): 1,
    }


def test_uq_one_part_compositions():
    r = sgqsym.product_uq((2,), (3,))
    assert r.terms == {(2, 3): 1, (3, 2): 1}


def test_uq_expansion_consistency():
    for i in range(1, 3):
        for j in range(1, 4 - i):
            for c1 in compositions(i):
                for c2 in compositions(j):
                    lhs = bilinear(
                        sgqsym.uq_expand(c1), sgqsym.uq_expand(c2), sgqsym.product_M
                    )
                    rhs = LinComb(M)
                    for comp, c in sgqsym.product_uq(c1, c2).terms.items():
                        rhs = rhs + sgqsym.uq_expand(comp).scale(c)
                    assert lhs == rhs, (c1, c2)


def test_ul_product_golden():
    assert sgqsym.product_ul((3, 3, 2, 1), (3, 1, 1)).terms == {(3, 3, 3, 2, 1, 1, 1): 9}
    assert sgqsym.product_ul((1,), (1,)).terms == {(1, 1): 2}


def test_ul_expansion_consistency():
    for i in range(1, 3):
        for j in range(1, 4 - i):
            for l1 in symfunc.partitions(i):
                for l2 in symfunc.partitions(j):
                    lhs = bilinear(
                        sgqsym.ul_expand(l1), sgqsym.ul_expand(l2), sgqsym.product_M
                    )
                    rhs = LinComb(M)
                    for lam, c in sgqsym.product_ul(l1, l2).terms.items():
                        rhs = rhs + sgqsym.ul_expand(lam).scale(c)
                    assert lhs == rhs, (l1, l2)


def test_image_coproducts_match_lifted_expansions():
    # expanding the image coproducts into M (x) M agrees with lifting
    from hopfcomb.lincomb import tensor_kind

    tensor_m = tensor_kind(M)
    for n in range(1, 5):
        for lam in symfunc.partitions(n):
            lifted = sgqsym.ul_expand(lam).apply(sgqsym.coproduct_M, kind=tensor_m)
            expanded = LinComb(tensor_m)
            for (mu, nu), c in sgqsym.coproduct_ul(lam).terms.items():
                left = sgqsym.ul_expand(mu)
                right = sgqsym.ul_expand(nu)
                for a, ca in left.terms.items():
                    for b, cb in right.terms.items():
                        expanded = expanded + LinComb.basis(tensor_m, (a, b), c * ca * cb)
            assert lifted == expanded, lam
        for comp in compositions(n):
            lifted = sgqsym.uq_expand(comp).apply(sgqsym.coproduct_M, kind=tensor_m)
            expanded = LinComb(tensor_m)
            for (h, k), c in sgqsym.coproduct_uq(comp).terms.items():
                left = sgqsym.uq_expand(h)
                right = sgqsym.uq_expand(k)
                for a, ca in left.terms.items():
                    for b, cb in right.terms.items():
                        expanded = expanded + LinComb.basis(tensor_m, (a, b), c * ca * cb)
            assert lifted == expanded, comp


def test_wsym_realization_contains_orbit_word():
    assert (1, 2, 1, 3, 3, 1) in sgqsym.mw_words(SP("{1,3,6|2|4,5}"), 3)


def test_wsym_word_realization_product():
    for i in range(1, 4):
        for j in range(1, 5 - i):
            for p1 in set_partitions(i):
                for p2 in set_partitions(j):
                    assert sgqsym.mw_word_product_check(p1, p2), (p1, p2)


def test_wsym_piqsym_duality():
    # <upi_a upi_b, Mw_pi> = <upi_a (x) upi_b, Delta Mw_pi>, degree <= 5
    for i in range(1, 5):
        for j in range(1, 6 - i):
            for a in set_partitions(i):
                for b in set_partitions(j):
                    prod = sgqsym.product_upi(a, b)
                    left = tensor(
                        LinComb.basis("piqsym:upi", a), LinComb.basis("piqsym:upi", b)
                    )
                    for pi in set_partitions(i + j):
                        cop = LinComb(
                            "piqsym:upi(x)piqsym:upi", sgqsym.coproduct_Mw(pi).terms
                        )
                        assert prod[pi] == pairing(left, cop), (a, b, pi)


def test_trace_minor_permanent_identities():
    for n in (1, 2, 3, 4, 5):
        assert sgqsym.j_power_sum_check(n, n + 1)
        assert sgqsym.j_elementary_check(n)
        assert sgqsym.j_complete_check(n)


@pytest.mark.parametrize("broken", ["zero", "doubled"])
def test_embedding_checks_fail_on_a_broken_product(monkeypatch, broken):
    product_M = sgqsym.product_M
    if broken == "zero":
        monkeypatch.setattr(sgqsym, "product_M", lambda a, b: LinComb(M))
    else:
        monkeypatch.setattr(sgqsym, "product_M", lambda a, b: product_M(a, b).scale(2))
    assert not sgqsym.j_elementary_check(3)
    assert not sgqsym.j_complete_check(3)
    assert not sgqsym.j_schur_check((2, 1))


def test_immanant_identities_hook_and_two_row():
    shapes = [(1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1),
              (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    for lam in shapes:
        assert sgqsym.j_schur_check(lam), lam


def test_j_image_of_every_schur_function_is_its_character_sum():
    # beyond the shapes j_schur_check accepts: every partition of n <= 5
    for n in range(1, 6):
        for lam in partitions(n):
            weighted = LinComb(M, {s: sgqsym.character(lam, cycle_type(s))
                                   for s in permutations(n)})
            assert sgqsym.j_image(symfunc.sym("s", lam)) == weighted, lam


def test_immanant_out_of_scope_shapes_rejected():
    import pytest

    with pytest.raises(ValueError):
        sgqsym.j_schur_check((2, 2, 1))
    with pytest.raises(ValueError):
        sgqsym.j_schur_check((3, 2))


def test_involutions_span_a_subalgebra():
    res = sgqsym.subalgebra_closure_check(is_involution, 4)
    assert res.passed, res.counterexample


def test_order_three_closure_recorded():
    def order_divides_3(sigma):
        return all(part in (1, 3) for part in cycle_type(sigma))

    res = sgqsym.subalgebra_closure_check(order_divides_3, 4)
    assert res.passed, res.counterexample


def test_derangement_closure_recorded():
    def derangement(sigma):
        return all(sigma[i] != i + 1 for i in range(len(sigma)))

    res = sgqsym.subalgebra_closure_check(derangement, 4)
    assert res.passed, res.counterexample


def test_all_permutations_closed():
    res = sgqsym.subalgebra_closure_check(is_permutation, 4)
    assert res.passed, res.counterexample


def test_quotient_well_defined():
    res = sgqsym.quotient_well_defined(4)
    assert res.passed, res.counterexample


def test_word_quotient_rules_match_the_looping_routes():
    # product_V in coefficients and insertion order on every pair of
    # compositions of total degree <= 6, the unit included
    labels = [c for n in range(7) for c in compositions(n)]
    pairs = [(a, b) for a in labels for b in labels if sum(a) + sum(b) <= 6]
    for a, b in pairs:
        out, oracle = sgqsym.product_V(a, b), LOOPING_ROUTES["product_V"](a, b)
        assert out.kind == oracle.kind
        assert list(out.terms.items()) == list(oracle.terms.items()), (a, b)
    for n in range(1, 7):
        bell = sgqsym.bell_polynomial(n)
        assert list(bell.items()) == list(LOOPING_ROUTES["bell_polynomial"](n).items()), n


def test_bell_polynomials():
    assert sgqsym.bell_polynomial(1) == {(1,): 1}
    assert sgqsym.bell_polynomial(2) == {(1, 1): 1, (2,): 1}
    assert sgqsym.bell_polynomial(3) == {(1, 1, 1): 1, (2, 1): 3, (3,): 1}
    for n in range(1, 6):
        assert sgqsym.bell_check(n)


def test_bell_polynomial_at_zero_is_the_unit_and_negative_powers_are_refused():
    # the zeroth power of the one-block class is the empty partition
    assert sgqsym.bell_polynomial(0) == {(): 1}
    assert sgqsym.bell_check(0)
    for n in (-1, -2):
        with pytest.raises(ValueError, match="^n must be nonnegative$"):
            sgqsym.bell_polynomial(n)


def test_commutative_image_multiplier():
    assert sgqsym.commutative_image_coeff((2, 1)) == 1
    assert sgqsym.commutative_image_coeff((1, 1)) == 2


def test_full_cycle_duals_primitive():
    for n in range(1, 6):
        res = sgqsym.full_cycle_S_primitive(n)
        assert res.passed, (n, res.counterexample)


def test_hopf_axioms_all_adapters_degree_4():
    for adapter in (
        sgqsym.algebra(),
        sgqsym.piqsym_algebra(),
        sgqsym.qsym_algebra(),
        sgqsym.sym_algebra(),
    ):
        report = hopf_check(adapter, 4)
        assert report.passed, (adapter.kind, report.lines())
        assert report.commutative, adapter.kind
    wsym = hopf_check(sgqsym.wsym_algebra(), 4)
    assert wsym.passed and wsym.cocommutative


def test_duality_degree_3():
    res = duality_check(
        sgqsym.algebra(),
        sgqsym.coproduct_S,
        3,
        dual_product=sgqsym.product_S,
        primal_coproduct=sgqsym.coproduct_M,
    )
    assert res.passed, res
