import itertools
from functools import lru_cache

import pytest

from conftest import LOOPING_ROUTES, lc, phi_route_coproduct, phi_route_product, tensor_terms
from hopfcomb import cli, phisym, sgqsym
from hopfcomb.axioms import hopf_check
from hopfcomb.lincomb import LinComb, tensor_swap
from hopfcomb.realize import (
    BIWORD_KIND,
    biword_mul,
    classify_biword,
    collect_biwords,
    phi_factors,
    realize_phi,
)
from hopfcomb.words import (
    canonical_cycle,
    cycle_type,
    cycle_words,
    partition_of_word,
    partitions,
    permutations,
    shifted_concat,
    shuffle,
    word_from_text as W,
)

PHI = "phisym:phi"


def test_cyclic_shuffle_worked_example():
    out = phisym.cyclic_shuffle((1, 3, 2), (4, 5))
    expected = {
        (1, 3, 2, 4, 5), (1, 3, 4, 2, 5), (1, 3, 4, 5, 2), (1, 4, 3, 2, 5),
        (1, 4, 3, 5, 2), (1, 4, 5, 3, 2), (1, 3, 2, 5, 4), (1, 3, 5, 2, 4),
        (1, 3, 5, 4, 2), (1, 5, 3, 2, 4), (1, 5, 3, 4, 2), (1, 5, 4, 3, 2),
    }
    assert out == frozenset(expected)


def test_cyclic_shuffle_singletons():
    assert phisym.cyclic_shuffle((1,), (2,)) == frozenset({(1, 2)})


def test_cyclic_shuffle_rejects_overlap():
    with pytest.raises(ValueError):
        phisym.cyclic_shuffle((1, 2), (2, 3))


def _cycles_on(support):
    first, *rest = support
    return [(first, *order) for order in itertools.permutations(rest)]


def test_cyclic_shuffle_against_rotation_closure_oracle():
    # independent route: shuffle every pair of rotations, then read each word
    # as a cycle; over every cycle pair of total length up to 6
    pairs = 0
    for total in range(2, 7):
        ground = range(1, total + 1)
        for size in range(1, total):
            for s1 in itertools.combinations(ground, size):
                s2 = tuple(i for i in ground if i not in s1)
                for c1 in _cycles_on(s1):
                    for c2 in _cycles_on(s2):
                        words = set()
                        for w1 in cycle_words(c1):
                            for w2 in cycle_words(c2):
                                words.update(shuffle(w1, w2))
                        closed = {canonical_cycle(w) for w in words}
                        assert phisym.cyclic_shuffle(c1, c2) == frozenset(closed), (c1, c2)
                        pairs += 1
    assert pairs == 678  # sum over n, k of C(n, k) (k - 1)! (n - k - 1)!


def test_matching_product_worked_example():
    out = phisym.matching_product(((1,), (2,)), ((3,), (4,)))
    expected = {
        ((1,), (2,), (3,), (4,)), ((1,), (2, 3), (4,)), ((1,), (2, 4), (3,)),
        ((1, 3), (2,), (4,)), ((1, 3), (2, 4)), ((1, 4), (2,), (3,)),
        ((1, 4), (2, 3)),
    }
    assert out == expected
    assert len(out) == 7


def test_matching_product_empty_side():
    assert phisym.matching_product((), ((1, 2),)) == {((1, 2),)}


def test_phi_product_golden_examples():
    assert phisym.product_phi(W("12"), W("12")) == lc(
        PHI, ("1234", 1), ("1324", 1), ("1432", 1), ("3214", 1),
        ("3412", 1), ("4231", 1), ("4321", 1),
    )
    assert phisym.product_phi(W("12"), W("21")) == lc(
        PHI, ("1243", 1), ("1342", 1), ("1423", 1), ("3241", 1), ("4213", 1)
    )
    assert phisym.product_phi(W("1"), W("4312")) == lc(
        PHI, ("15423", 1), ("25413", 1), ("35421", 1), ("45123", 1), ("51423", 1)
    )
    assert phisym.product_phi(W("312"), W("21")) == lc(
        PHI,
        ("31254", 1), ("31452", 1), ("31524", 1), ("34251", 1), ("34512", 1),
        ("35214", 1), ("35421", 1), ("41253", 1), ("41532", 1), ("45231", 1),
        ("51234", 1), ("51423", 1), ("54213", 1),
    )


def test_phi_coefficients_are_zero_or_one():
    for i in range(1, 4):
        for j in range(1, 5 - i):
            for a in permutations(i):
                for b in permutations(j):
                    assert all(
                        c == 1 for c in phisym.product_phi(a, b).terms.values()
                    ), (a, b)


def test_phi_coproduct_golden_examples():
    assert phisym.coproduct_phi(W("12")) == tensor_terms(
        PHI, ("12", "()", 1), ("1", "1", 2), ("()", "12", 1)
    )
    assert phisym.coproduct_phi(W("312")) == tensor_terms(
        PHI, ("312", "()", 1), ("()", "312", 1)
    )
    assert phisym.coproduct_phi(W("4231")) == tensor_terms(
        PHI,
        ("4231", "()", 1), ("321", "1", 2), ("21", "12", 1),
        ("12", "21", 1), ("1", "321", 2), ("()", "4231", 1),
    )


def test_phi_coproduct_cocommutative():
    for n in range(1, 5):
        for sigma in permutations(n):
            cop = phisym.coproduct_phi(sigma)
            assert tensor_swap(cop) == cop


def test_ssecond_expansion_2431():
    # matching-product expansion of the cycles (124)(3); the third term is the
    # permutation whose cycle is (1243)
    assert phisym.ssecond_expand(W("2431")) == lc(
        PHI, ("2431", 1), ("2413", 1), ("2341", 1), ("3421", 1)
    )


def test_sprime_of_connected_is_phi():
    for sigma in [W("312"), W("4231"), W("21")]:
        assert phisym.sprime_expand(sigma) == lc(PHI, (sigma, 1))


def test_basis_round_trips_degree_5():
    for n in range(1, 6):
        for sigma in permutations(n):
            x = LinComb.basis(PHI, sigma)
            sp = phisym.phi_to_sprime(x)
            assert phisym.sprime_to_phi(LinComb(PHI, sp.terms)) == x
            ss = phisym.phi_to_ssecond(x)
            assert phisym.ssecond_to_phi(LinComb(PHI, ss.terms)) == x


def _labels_upto(n):
    return [sigma for k in range(n + 1) for sigma in permutations(k)]


def test_sprime_ssecond_products_match_the_dual_basis():
    # the phi route is the oracle of both rules, on every pair of total
    # degree <= 5 (unit included), and is the dual basis's shifted concatenation
    pairs = 0
    for total in range(6):
        for i in range(total + 1):
            for a in permutations(i):
                for b in permutations(total - i):
                    target = {shifted_concat(a, b): 1}
                    for basis, rule in (("Sp", phisym.product_sprime),
                                        ("Ss", phisym.product_ssecond)):
                        oracle = phi_route_product(basis, a, b)
                        assert rule(a, b) == oracle, (basis, a, b)
                        assert oracle.terms == target, (basis, a, b)
                    pairs += 1
    assert pairs == 400


def test_phi_coproduct_constants_equal_dual_basis_constants():
    # the natural basis is a coalgebra isomorph of the dual basis: identical
    # coefficient arrays on both sides, degree <= 4
    for n in range(1, 5):
        for sigma in permutations(n):
            assert (
                phisym.coproduct_phi(sigma).terms
                == sgqsym.coproduct_S(sigma).terms
            ), sigma


def test_ssecond_coproduct_constants_match_dual_basis():
    # the phi route is the oracle of the rule and agrees with the dual basis
    for sigma in _labels_upto(5):
        oracle = phi_route_coproduct("Ss", sigma)
        assert phisym.coproduct_ssecond(sigma) == oracle, sigma
        assert oracle.terms == sgqsym.coproduct_S(sigma).terms, sigma


def test_sprime_coproduct_matches_the_phi_route():
    for sigma in _labels_upto(5):
        assert phisym.coproduct_sprime(sigma) == phi_route_coproduct("Sp", sigma), sigma


@pytest.mark.parametrize("kind", [phisym.SPRIME_KIND, phisym.SSECOND_KIND])
def test_multiplicative_bases_sweep_like_phi_at_degree_6(kind):
    report = hopf_check(cli._REGISTRY[kind], 6)
    assert report.lines() == hopf_check(phisym.algebra(), 6).lines()
    assert report.passed and report.cocommutative and not report.commutative


def test_sprime_coproduct_exception_at_4231():
    # the first multiplicative basis is an algebra isomorph only: its
    # coproduct develops one extra correction term in degree 4
    mismatches = []
    for sigma in permutations(4):
        if phisym.coproduct_sprime(sigma).terms != sgqsym.coproduct_S(sigma).terms:
            mismatches.append(sigma)
    assert mismatches == [W("4231")]
    diff = phisym.coproduct_sprime(W("4231")) - LinComb(
        "phisym:Sp(x)phisym:Sp", sgqsym.coproduct_S(W("4231")).terms
    )
    assert diff.terms == {(W("21"), W("21")): -2}


def test_y_products_golden():
    assert phisym.product_Y((1, 1), (2,)).terms == {(2, 1, 1): 1, (3, 1): 4}
    assert phisym.product_Y((1, 1), (1, 1)).terms == {
        (1, 1, 1, 1): 1, (2, 2): 2, (2, 1, 1): 4
    }
    assert phisym.product_Y((1,), (4,)).terms == {(4, 1): 1, (5,): 4}
    assert phisym.product_Y((3,), (2,)).terms == {(3, 2): 1, (5,): 12}


def test_y_representative_independence():
    res = phisym.y_representative_independent(5)
    assert res.passed, res.counterexample


def test_y_basis_is_a_commutative_cocommutative_hopf_algebra():
    report = hopf_check(cli._REGISTRY[phisym.Y_KIND], 6)
    assert report.passed, report.lines()
    assert report.commutative and report.cocommutative


def test_y_coproduct_is_the_cycle_type_image_of_the_phi_coproduct():
    for n in range(7):
        for sigma in permutations(n):
            image = {}
            for (a, b), c in phisym.coproduct_phi(sigma).terms.items():
                key = (cycle_type(a), cycle_type(b))
                image[key] = image.get(key, 0) + c
            assert phisym.coproduct_Y(cycle_type(sigma)).terms == image, sigma


def test_y_to_sym_is_algebra_morphism():
    res = phisym.y_iso_check(5)
    assert res.passed, res.counterexample


def test_biword_oracle_small():
    for i in range(1, 3):
        for j in range(1, 4 - i):
            for a in permutations(i):
                for b in permutations(j):
                    assert phisym.biword_product_check(a, b), (a, b)


def _product_phi_variants(rule):
    """The rule itself and three wrong rules: the least term dropped, the
    greatest term's coefficient raised by 1, and the least permutation of the
    right degree that is not a term added (None where every one is a term)."""
    def dropped(a, b):
        terms = dict(rule(a, b).terms)
        del terms[min(terms)]
        return LinComb(PHI, terms)

    def raised(a, b):
        terms = dict(rule(a, b).terms)
        terms[max(terms)] += 1
        return LinComb(PHI, terms)

    def spurious(a, b):
        terms = dict(rule(a, b).terms)
        missing = [g for g in permutations(len(a) + len(b)) if g not in terms]
        if not missing:
            return None
        terms[missing[0]] = 1
        return LinComb(PHI, terms)

    return {"rule": rule, "dropped": dropped, "raised": raised, "spurious": spurious}


def test_factored_biword_check_agrees_with_the_expanded_product(monkeypatch):
    # the expanded route multiplies the realizations out with biword_mul and
    # realizes the rule's terms one by one
    realized = lru_cache(maxsize=None)(realize_phi)
    variants = _product_phi_variants(phisym.product_phi)
    spurious = 0
    for total in range(2, 5):
        for i in range(1, total):
            for a in permutations(i):
                for b in permutations(total - i):
                    for n_trunc in (total, total + 1):
                        lhs = biword_mul(realized(a, n_trunc), realized(b, n_trunc))
                        for name, variant in variants.items():
                            value = variant(a, b)
                            if value is None:
                                continue
                            rhs = value.apply(lambda g: realized(g, n_trunc), kind=BIWORD_KIND)
                            monkeypatch.setattr(phisym, "product_phi", lambda x, y: value)
                            factored = phisym.biword_product_check(a, b, n_trunc)
                            assert factored == (lhs == rhs) == (name == "rule"), (
                                name, a, b, n_trunc)
                            spurious += name == "spurious"
    # only (1) times (1) has every permutation of its degree as a term
    assert spurious == 2 * 21 - 2  # 21 pairs, two truncations each


def test_biword_oracle_rejects_a_truncation_below_the_degree():
    # at N = 1 the product's two-cycle permutation (12) has no biword
    with pytest.raises(ValueError):
        phisym.biword_product_check(W("1"), W("1"), 1)
    assert phisym.biword_product_check(W("1"), W("1"), 2)


def _biword_classes_by_filter(n, n_trunc):
    """The filter route for all of S_n at once: each of the N^n x N^n biwords
    goes to the class classify_biword gives it.

    classify_biword reads the top word only through its partition, so every
    bottom is classified once per partition, against its first top word.
    """
    words = list(itertools.product(range(1, n_trunc + 1), repeat=n))
    tops_by_partition = {}
    for top in words:
        tops_by_partition.setdefault(partition_of_word(top), []).append(top)
    classes = {}
    for tops in tops_by_partition.values():
        bottoms_by_class = {}
        for bottom in words:
            sigma = classify_biword(tops[0], bottom)
            bottoms_by_class.setdefault(sigma, []).append(bottom)
        for sigma, bottoms in bottoms_by_class.items():
            classes[sigma] = dict.fromkeys(itertools.product(tops, bottoms), 1)
    return classes


def test_realize_phi_matches_the_biword_filter():
    for n in range(5):
        for n_trunc in range(1, 6):
            classes = _biword_classes_by_filter(n, n_trunc)
            for sigma in permutations(n):
                assert realize_phi(sigma, n_trunc).terms == classes.get(sigma, {}), (
                    sigma, n_trunc)


def test_realize_phi_is_the_cartesian_expansion_of_its_factors():
    for n in range(5):
        for n_trunc in range(1, 6):
            for sigma in permutations(n):
                tops, bottoms = phi_factors(sigma, n_trunc)
                assert len(set(tops)) == len(tops) and len(set(bottoms)) == len(bottoms)
                expansion = {(top, bottom): 1 for top in tops for bottom in bottoms}
                assert realize_phi(sigma, n_trunc).terms == expansion, (sigma, n_trunc)


def test_cached_biword_realizations_are_not_mutated_by_the_checks():
    labels = [s for n in range(5) for s in permutations(n)]
    cached = {s: phisym._realized(s, 4) for s in labels}
    # tuples of word tuples: nothing a check does can change them in place
    for tops, bottoms in cached.values():
        assert type(tops) is tuple and type(bottoms) is tuple
    for i in range(1, 4):
        for j in range(1, 5 - i):
            for a in permutations(i):
                for b in permutations(j):
                    assert phisym.biword_product_check(a, b, 4)
    for s, factors in cached.items():
        assert phisym._realized(s, 4) is factors
        assert factors == phi_factors(s, 4), s


def test_collect_biwords_sums_each_realization_into_its_class():
    # every biword over N letters is classified: N^(2n) of them, so size 4
    # stops at N = 4 (65,536 biwords; N = 5 would classify 390,625)
    for n in range(5):
        for sigma in permutations(n):
            for n_trunc in (n, n + 1) if n < 4 else (n,):
                biwords = realize_phi(sigma, n_trunc)
                assert collect_biwords(biwords).terms == {sigma: len(biwords.terms)}, (
                    sigma, n_trunc)


def _same_terms(out, oracle, case):
    assert out.kind == oracle.kind
    assert list(out.terms.items()) == list(oracle.terms.items()), case


def test_cycle_type_rules_match_the_looping_routes():
    # coefficients and insertion order, unit included: every pair of total
    # degree <= 6 for the product, every partition of size <= 7 for the coproduct
    labels = [lam for n in range(8) for lam in partitions(n)]
    pairs = [(a, b) for a in labels for b in labels if sum(a) + sum(b) <= 6]
    assert len(pairs) == 139
    for a, b in pairs:
        _same_terms(phisym.product_Y(a, b), LOOPING_ROUTES["product_Y"](a, b), (a, b))
    for lam in labels:
        _same_terms(phisym.coproduct_Y(lam), LOOPING_ROUTES["coproduct_Y"](lam), lam)


def test_collect_biwords_matches_the_looping_route():
    # biword products, where several classes meet, and a signed difference
    # whose coefficients cancel on the classes the two sides share
    n_trunc = 3
    for a, b in itertools.product([s for n in range(3) for s in permutations(n)], repeat=2):
        if len(a) + len(b) > n_trunc:
            continue
        x = biword_mul(realize_phi(a, n_trunc), realize_phi(b, n_trunc))
        for y in (x, x - biword_mul(realize_phi(b, n_trunc), realize_phi(a, n_trunc))):
            _same_terms(collect_biwords(y), LOOPING_ROUTES["collect_biwords"](y), (a, b))


def test_biword_classification_is_total_and_consistent():
    n_trunc = 3
    for sigma in permutations(3):
        for (top, bottom) in realize_phi(sigma, n_trunc).terms:
            assert classify_biword(top, bottom) == sigma
    total = 0
    for top in itertools.product((1, 2, 3), repeat=2):
        for bottom in itertools.product((1, 2, 3), repeat=2):
            sigma = classify_biword(top, bottom)
            assert len(sigma) == 2
            total += 1
    assert total == 81


def test_hopf_axioms_degree_4():
    report = hopf_check(phisym.algebra(), 4)
    assert report.passed
    assert report.cocommutative and not report.commutative
