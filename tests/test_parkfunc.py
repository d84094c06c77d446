import itertools

import pytest

from conftest import LOOPING_ROUTES, lc, tensor_terms
from hopfcomb import eqsym, parkfunc
from hopfcomb.axioms import duality_check, hopf_check
from hopfcomb.limits import LimitExceeded
from hopfcomb.lincomb import LinComb
from hopfcomb.words import (
    endofunctions,
    nondecreasing_parking_functions,
    parking_functions,
    word_from_text as W,
)

MPA = "cpqsym:Mpa"


def test_product_golden_examples():
    assert parkfunc.product_Mpa(W("1"), W("11")) == lc(
        MPA, ("122", 1), ("121", 1), ("113", 1)
    )
    assert parkfunc.product_Mpa(W("1"), W("221")) == lc(
        MPA, ("1332", 1), ("3231", 1), ("2231", 1), ("2214", 1)
    )
    assert parkfunc.product_Mpa(W("12"), W("21")) == lc(
        MPA, ("1243", 1), ("1432", 1), ("4231", 1), ("1324", 1), ("3214", 1), ("2134", 1)
    )


def test_coproduct_golden_examples():
    assert parkfunc.coproduct_Mpa(W("525124")) == tensor_terms(
        MPA, ("525124", "()", 1), ("()", "525124", 1)
    )
    assert parkfunc.coproduct_Mpa(W("4131166")) == tensor_terms(
        MPA, ("4131166", "()", 1), ("41311", "11", 1), ("()", "4131166", 1)
    )


def test_parking_functions_closed_under_product():
    res = parkfunc.parking_closure_check(5)
    assert res.passed, res.counterexample


def test_unlabelled_counts():
    assert [parkfunc.unlabelled_count(n) for n in range(7)] == [1, 1, 3, 7, 19, 47, 130]
    assert (parkfunc.unlabelled_count(7), parkfunc.unlabelled_count(8)) == (343, 951)
    assert type(parkfunc.unlabelled_count(0)) is int


def test_polya_series_counts_the_certificates():
    assert [parkfunc.unlabelled_count(n) for n in range(7)] == [
        len(parkfunc.unlabelled_certificates(n)) for n in range(7)]


def test_unlabelled_count_keeps_the_parking_guard():
    with pytest.raises(LimitExceeded, match=r"\(Limits\.parking\)$"):
        parkfunc.unlabelled_count(9)
    with pytest.raises(ValueError, match="n must be nonnegative"):
        parkfunc.unlabelled_count(-1)


@pytest.mark.parametrize("census", [
    parkfunc.unlabelled_certificates, parkfunc.endofunction_certificates,
], ids=["unlabelled_certificates", "endofunction_certificates"])
def test_cached_censuses_are_read_only(census):
    view = census(3)
    with pytest.raises(TypeError):
        view[()] = 1
    with pytest.raises(AttributeError):
        view.clear()
    # the cached census is untouched: functional graphs on 3 nodes
    assert len(census(3)) == 7


def test_connected_nondecreasing_count_keeps_the_family_guard():
    with pytest.raises(LimitExceeded, match=r"\(Limits\.nondecreasing_parking\)$"):
        parkfunc.connected_nondecreasing_count(15)


def test_parking_and_endofunction_certificates_coincide():
    for n in range(1, 6):
        assert set(parkfunc.unlabelled_certificates(n)) == set(
            parkfunc.endofunction_certificates(n)
        )


def test_certificates_decide_graph_isomorphism():
    def isomorphic(p, q):
        n = len(p)
        return any(
            all(phi[p[i - 1] - 1] == q[phi[i - 1] - 1] for i in range(1, n + 1))
            for phi in itertools.permutations(range(1, n + 1))
        )

    for n in (2, 3, 4):
        pfs = list(parking_functions(n))
        for p in pfs:
            for q in pfs:
                same = parkfunc.graph_certificate(p) == parkfunc.graph_certificate(q)
                assert same == isomorphic(p, q), (p, q)


def _cyclic_nodes(p):
    """Nodes on cycles: where n steps from every start land."""
    n = len(p)
    landing = set()
    for start in range(1, n + 1):
        cur = start
        for _ in range(n):
            cur = p[cur - 1]
        landing.add(cur)
    return landing


def _tree_canons(p, cyclic):
    n = len(p)
    children = {v: [] for v in range(1, n + 1)}
    for u in range(1, n + 1):
        if u not in cyclic:
            children[p[u - 1]].append(u)
    canon = {}

    def visit(v):
        if v not in canon:
            canon[v] = tuple(sorted(visit(u) for u in children[v]))
        return canon[v]

    for v in range(1, n + 1):
        visit(v)
    return canon


def _graph_certificate_by_iteration(p):
    """The certificate with the cycles found by iterating p n times from
    every start: the independent route for the one-pass certificate."""
    cyclic = _cyclic_nodes(p)
    canon = _tree_canons(p, cyclic)
    seen = set()
    components = []
    for v in sorted(cyclic):
        if v in seen:
            continue
        orbit = [v]
        seen.add(v)
        cur = p[v - 1]
        while cur != v:
            orbit.append(cur)
            seen.add(cur)
            cur = p[cur - 1]
        seq = tuple(canon[u] for u in orbit)
        components.append(min(seq[k:] + seq[:k] for k in range(len(seq))))
    return tuple(sorted(components))


def test_certificate_matches_the_iteration_route():
    labels = itertools.chain(
        *(endofunctions(n) for n in range(6)), parking_functions(6)
    )
    for p in labels:
        assert parkfunc.graph_certificate(p) == _graph_certificate_by_iteration(p), p


def test_unlabelled_product_matches_brute_expansion():
    certs = [cert for n in range(1, 5) for cert in parkfunc.endofunction_certificates(n)]
    pairs = [(a, b) for a in certs for b in certs
             if parkfunc.cert_size(a) + parkfunc.cert_size(b) <= 5]
    assert len(pairs) == 110
    for a, b in pairs:
        assert parkfunc.unlabelled_product(a, b) == parkfunc.unlabelled_product_brute(a, b)


def test_unlabelled_coproduct_matches_brute_expansion():
    def brute(cert):
        n = parkfunc.cert_size(cert)
        by_pair: dict = {}
        for h in endofunctions(n):
            if parkfunc.graph_certificate(h) != cert:
                continue
            for (a, b), c in eqsym.coproduct_M(h).terms.items():
                key = (parkfunc.graph_certificate(a), parkfunc.graph_certificate(b))
                by_pair[key] = by_pair.get(key, 0) + c
        out = {}
        for (ca, cb), total in by_pair.items():
            size = parkfunc.endofunction_certificates(parkfunc.cert_size(ca)).get(ca, 1)
            size *= parkfunc.endofunction_certificates(parkfunc.cert_size(cb)).get(cb, 1)
            assert total % size == 0
            out[(ca, cb)] = total // size
        return out

    for n in (2, 3, 4):
        for cert in parkfunc.endofunction_certificates(n):
            assert dict(parkfunc.unlabelled_coproduct(cert).terms) == brute(cert), cert


def test_unlabelled_graphs_form_polynomial_algebra():
    res = parkfunc.free_polynomial_check(6)
    assert res.passed, res.counterexample


def test_ccqsym_product_kills_the_ideal():
    r = parkfunc.cc_product(W("1"), W("11"))
    assert r.terms == {W("122"): 1, W("113"): 1}
    with pytest.raises(ValueError):
        parkfunc.cc_product(W("21"), W("1"))


def test_cc_product_matches_the_looping_route():
    # coefficients and insertion order on every pair of nondecreasing
    # parking functions of total degree <= 6, the unit included
    labels = [p for n in range(7) for p in nondecreasing_parking_functions(n)]
    pairs = [(p, q) for p in labels for q in labels if len(p) + len(q) <= 6]
    assert len(pairs) == 625
    for p, q in pairs:
        out, oracle = parkfunc.cc_product(p, q), LOOPING_ROUTES["cc_product"](p, q)
        assert out.kind == oracle.kind
        assert list(out.terms.items()) == list(oracle.terms.items()), (p, q)
    for rule in (parkfunc.cc_product, LOOPING_ROUTES["cc_product"]):
        with pytest.raises(ValueError):
            rule(W("1"), W("21"))


def test_ideal_is_stable():
    res = parkfunc.cc_ideal_check(4)
    assert res.passed, res.counterexample


def test_catalan_dimensions():
    assert [
        sum(1 for _ in nondecreasing_parking_functions(n)) for n in range(1, 5)
    ] == [1, 2, 5, 14]


def test_ccqsym_dual_freeness():
    res = parkfunc.cc_freeness_check(7)
    assert res.passed, res.counterexample
    assert [parkfunc.connected_nondecreasing_count(n) for n in range(1, 5)] == [1, 1, 2, 5]


def test_ccqsym_duality():
    res = duality_check(
        parkfunc.cc_algebra(),
        parkfunc.cc_dual_coproduct,
        4,
        dual_product=parkfunc.cc_dual_product,
        primal_coproduct=parkfunc.cc_coproduct,
    )
    assert res.passed, res


def test_reordering_sums_do_not_close():
    res = parkfunc.reordering_not_subalgebra_example(3)
    assert (res.passed, res.counterexample) == (False, ((1,), (1,)))


def test_forest_product_single_node_squared():
    f1 = parkfunc.forest_certificate(W("1"))
    r = parkfunc.forest_product(f1, f1)
    two_roots = parkfunc.forest_certificate(W("12"))
    assert r == LinComb.basis("forest:M", two_roots, 2)


def test_forest_unit():
    f1 = parkfunc.forest_certificate(W("1"))
    assert parkfunc.forest_product((), f1) == LinComb.basis("forest:M", f1, 1)


def _forest_classes(bound):
    """Forest certificate -> its nondecreasing parking functions, sizes 0..bound."""
    classes: dict[tuple, list] = {}
    for n in range(bound + 1):
        for p in nondecreasing_parking_functions(n):
            classes.setdefault(parkfunc.forest_certificate(p), []).append(p)
    return classes


def _regrouped(total, classes):
    """Regroup a sum over tuples of words by their tuples of forest classes,
    asserting that all members of a tuple of classes carry one coefficient."""
    out = {}
    for key in {tuple(map(parkfunc.forest_certificate, words)) for words in total}:
        members = itertools.product(*(classes[forest] for forest in key))
        values = {total.get(words, 0) for words in members}
        assert len(values) == 1, key
        out[key] = values.pop()
    return out


def test_forest_product_matches_the_class_sums_up_to_degree_6():
    """The class sums of ``cc_product`` close on forests, and their product
    is ``forest_product``: every term of the expansion carries its class's
    coefficient."""
    classes = _forest_classes(6)
    pairs = [(f1, f2) for f1 in classes for f2 in classes
             if parkfunc.forest_size(f1) + parkfunc.forest_size(f2) <= 6]
    assert len(pairs) == 312
    for f1, f2 in pairs:
        total: dict = {}
        for p in classes[f1]:
            for q in classes[f2]:
                for h, c in parkfunc.cc_product(p, q).terms.items():
                    total[(h,)] = total.get((h,), 0) + c
        expected = {forest: c for (forest,), c in _regrouped(total, classes).items()}
        assert dict(parkfunc.forest_product(f1, f2).terms) == expected, (f1, f2)


def test_forest_coproduct_matches_the_class_sums_up_to_size_7():
    """Regrouping ``cc_coproduct`` over a forest's class gives each class
    pair once per member pair: that coefficient is ``forest_coproduct``'s."""
    classes = _forest_classes(7)
    assert len(classes) == 200
    for forest, members in classes.items():
        total: dict = {}
        for p in members:
            for pair, c in parkfunc.cc_coproduct(p).terms.items():
                total[pair] = total.get(pair, 0) + c
        assert dict(parkfunc.forest_coproduct(forest).terms) == _regrouped(total, classes), forest


def test_forest_certificate_requires_nondecreasing():
    with pytest.raises(ValueError):
        parkfunc.forest_certificate(W("21"))


def test_hopf_axioms_degree_4():
    report = hopf_check(parkfunc.algebra(), 4)
    assert report.passed and report.commutative
    report = hopf_check(parkfunc.cc_algebra(), 4)
    assert report.passed and report.commutative


def test_certificate_texts_are_faithful():
    certs = set(parkfunc.endofunction_certificates(4))
    assert len({parkfunc.certificate_text(c) for c in certs}) == len(certs)
    forests = {
        parkfunc.forest_certificate(p) for p in nondecreasing_parking_functions(4)
    }
    assert len(forests) == 9  # rooted forests on four nodes
    forests = set(_forest_classes(5))
    assert len(forests) == 1 + 1 + 2 + 4 + 9 + 20
    assert len({parkfunc.forest_text(f) for f in forests}) == len(forests)
