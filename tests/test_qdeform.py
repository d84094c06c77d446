import itertools
import math

import pytest

from hopfcomb import cli, qdeform
from hopfcomb.axioms import hopf_check
from hopfcomb.coeffs import QPoly
from hopfcomb.limits import LimitExceeded
from hopfcomb.lincomb import LinComb, tensor_kind, twisted_tensor_mul
from hopfcomb.realize import QMONO_KIND, qvar_mul, realize_fundamental
from hopfcomb.words import (
    descent_composition,
    inversions,
    permutations,
    word_from_text as W,
)

q = QPoly.gen()
one = QPoly.const(1)


def test_coproduct_golden_2431():
    cop = qdeform.coproduct_q_F(W("2431"))
    assert cop.terms == {
        (W("2431"), ()): one,
        ((), W("2431")): one,
        (W("132"), W("1")): q**3,
        (W("12"), W("21")): q**3,
        (W("1"), W("321")): q,
    }


def test_coproduct_golden_3421():
    cop = qdeform.coproduct_q_F(W("3421"))
    assert cop.terms == {
        (W("3421"), ()): one,
        ((), W("3421")): one,
        (W("231"), W("1")): q**3,
        (W("12"), W("21")): q**4,
        (W("1"), W("321")): q**2,
    }


def test_coproduct_golden_small():
    assert qdeform.coproduct_q_F(W("21")).terms == {
        (W("21"), ()): one, ((), W("21")): one, (W("1"), W("1")): q,
    }
    assert qdeform.coproduct_q_F(W("213")).terms == {
        (W("213"), ()): one, ((), W("213")): one,
        (W("21"), W("1")): one, (W("1"), W("12")): q,
    }
    assert qdeform.coproduct_q_F(W("231")).terms == {
        (W("231"), ()): one, ((), W("231")): one,
        (W("12"), W("1")): q**2, (W("1"), W("21")): q,
    }
    assert qdeform.coproduct_q_F(W("321")).terms == {
        (W("321"), ()): one, ((), W("321")): one,
        (W("21"), W("1")): q**2, (W("1"), W("21")): q**2,
    }


def test_twisted_product_identity_golden():
    lhs = twisted_tensor_mul(
        qdeform.coproduct_q_F(W("21")),
        qdeform.coproduct_q_F(W("1")),
        qdeform.product_F,
        qdeform.chi_len,
    )
    rhs = qdeform.product_F(W("21"), W("1")).apply(
        qdeform.coproduct_q_F, kind=tensor_kind("fqsym-q:F")
    )
    assert lhs == rhs
    assert qdeform.product_F(W("21"), W("1")).terms == {
        W("213"): one, W("231"): one, W("321"): one,
    }


def _check_twisted_record(kind):
    """hopf_check of the registered twisted record at degree 4: its
    compatibility case at (a, b) is the twisted morphism law there."""
    report = hopf_check(cli._REGISTRY[kind], 4)
    assert report.passed, report.lines()


def test_fqsym_twisted_morphism_degree_4():
    _check_twisted_record(qdeform.F_KIND)


def test_ncsf_coproduct_generator():
    assert qdeform.coproduct_q_S((2,)).terms == {
        ((2,), ()): one, ((), (2,)): one, ((1,), (1,)): q,
    }


def test_ncsf_twisted_morphism_degree_4():
    _check_twisted_record(qdeform.NS_KIND)


def test_qsym_M_deconcatenation():
    cop = qdeform.coproduct_q_M((2, 1))
    assert cop.terms == {
        ((2, 1), ()): one, ((2,), (1,)): one, ((), (2, 1)): one,
    }


def test_grading_by_independent_inversion_recount():
    # q exponent of every cut term equals total inversions minus the
    # inversions internal to the two halves
    for n in range(1, 6):
        for sigma in permutations(n):
            for k in range(n + 1):
                expected = (
                    inversions(sigma)
                    - inversions(sigma[:k])
                    - inversions(sigma[k:])
                )
                assert qdeform.crossing_inversions(sigma, k) == expected


def test_phi_map_values():
    assert qdeform.phi_map(W("21")).terms == {(1, 1): q}
    assert qdeform.phi_map(W("12")).terms == {(2,): one}
    assert qdeform.phi_map(W("2431")).terms == {(2, 1, 1): q**4}


def test_phi_is_twisted_morphism_degree_4():
    for i in range(1, 4):
        for j in range(1, 5 - i):
            for a in permutations(i):
                for b in permutations(j):
                    assert qdeform.phi_morphism_check(a, b), (a, b)


def _qpoly_terms(x):
    """A q-commuting polynomial as one QPoly per exponent vector: the form
    the QPoly oracles below compute in."""
    out = {}
    for (vec, e), c in x.terms.items():
        out[vec] = out.get(vec, 0) + c * QPoly.monomial(e)
    return out


def test_phi_realized_matches_the_apply_form_on_products():
    # the fundamentals scaled by QPoly and summed through LinComb.apply
    for i in range(6):
        for a in permutations(i):
            for j in range(6 - i):
                for b in permutations(j):
                    image = qdeform.phi_lincomb(qdeform.product_F(a, b))
                    for n_trunc in (i + j, i + j + 1):
                        expected = image.apply(
                            lambda comp: LinComb(QMONO_KIND, _qpoly_terms(
                                realize_fundamental(comp, n_trunc))), kind=QMONO_KIND)
                        got = qdeform.phi_realized(image, n_trunc)
                        assert _qpoly_terms(got) == expected.terms, (a, b)


def test_phi_morphism_check_rejects_a_truncation_below_the_degree():
    # at N = 1 the fundamental of (1, 1), the image of 21, vanishes
    with pytest.raises(ValueError):
        qdeform.phi_morphism_check(W("1"), W("1"), 1)
    assert qdeform.phi_morphism_check(W("1"), W("1"), 2)


def _qvar_mul_by_qpoly_loop(x, y):
    """The QPoly-by-QPoly product of two :func:`_qpoly_terms` dicts: each
    pair of monomials times q^swaps."""
    out = {}
    for va, ca in x.items():
        for vb, cb in y.items():
            swaps = 0
            for i in range(len(vb)):
                if vb[i]:
                    swaps += vb[i] * sum(va[i + 1 :])
            vec = tuple(a + b for a, b in zip(va, vb))
            coeff = QPoly.coerce(ca) * QPoly.coerce(cb) * QPoly.monomial(swaps)
            prev = out.get(vec)
            out[vec] = coeff if prev is None else prev + coeff
    return {vec: c for vec, c in out.items() if c}


def test_qvar_mul_matches_the_qpoly_loop_on_phi_realizations():
    # the image of one F_sigma per descent composition (a q-monomial times a
    # fundamental) and of the sum of all F_sigma of one degree (coefficients
    # with several q powers)
    images = []
    for n in range(5):
        perms = list(permutations(n))
        for sigma in {descent_composition(s): s for s in perms}.values():
            images.append((n, qdeform.phi_realized(qdeform.phi_map(sigma), 6)))
        total = LinComb(qdeform.F_KIND, {sigma: one for sigma in perms})
        images.append((n, qdeform.phi_realized(qdeform.phi_lincomb(total), 6)))
    for n, x in images:
        for m, y in images:
            if n + m <= 5:
                expected = _qvar_mul_by_qpoly_loop(_qpoly_terms(x), _qpoly_terms(y))
                assert _qpoly_terms(qvar_mul(x, y)) == expected, (x, y)


def test_qvar_mul_refuses_factors_at_different_truncations_or_kinds():
    # map(add, va, vb) would stop at the shorter vector and lose x_3
    with pytest.raises(ValueError):
        qvar_mul(realize_fundamental((1,), 3), realize_fundamental((1,), 2))
    with pytest.raises(ValueError):
        qvar_mul(realize_fundamental((1,), 3), LinComb.basis("other", ((1, 0, 0), 0)))
    product = qvar_mul(realize_fundamental((1,), 3), realize_fundamental((1,), 3))
    assert {len(vec) for vec, _ in product.terms} == {3}


def _drop_last_term(value):
    if len(value.terms) < 2:
        return value
    terms = dict(value.terms)
    del terms[list(terms)[-1]]
    return LinComb(value.kind, terms)


def _double_last_coefficient(value):
    terms = dict(value.terms)
    label = list(terms)[-1]
    terms[label] = 2 * terms[label]
    return LinComb(value.kind, terms)


@pytest.mark.parametrize("mutation", ["drop", "double"])
def test_the_q_commuting_oracle_catches_a_broken_product(monkeypatch, mutation):
    # the crosscheck workload's pairs, in its order: total degree <= 5
    pairs = [(a, b) for i in range(1, 5) for j in range(1, 6 - i)
             for a in permutations(i) for b in permutations(j)]
    product_F = qdeform.product_F

    def broken(alpha, beta):
        value = product_F(alpha, beta)
        if mutation == "drop":
            return _drop_last_term(value)
        return _double_last_coefficient(value) if alpha and beta else value

    monkeypatch.setattr(qdeform, "product_F", broken)
    caught = next(((a, b) for a, b in pairs if not qdeform.phi_morphism_check(a, b, 6)), None)
    assert caught == pairs[0] == ((1,), (1,))


def test_cached_fundamentals_are_not_mutated_by_the_checks():
    comps = {descent_composition(s) for n in range(6) for s in permutations(n)}
    cached = {c: qdeform._fundamental(c, 6) for c in comps}
    before = {c: dict(r.terms) for c, r in cached.items()}
    for i in range(1, 4):
        for j in range(1, 5 - i):
            for a in permutations(i):
                for b in permutations(j):
                    assert qdeform.phi_morphism_check(a, b, 6)
    for c, r in cached.items():
        assert qdeform._fundamental(c, 6) is r
        assert r.terms == before[c] == realize_fundamental(c, 6).terms, c


def test_q1_specialization_is_ordinary_coproduct():
    for n in range(1, 6):
        for sigma in permutations(n):
            assert qdeform.coproduct_q1_F(sigma) == qdeform.ordinary_coproduct_F(sigma)


def test_rewrite_examples():
    # a < b <= c instance with empty middle: bca -> q bac
    assert qdeform.q_rewrite((2, 3, 1), "qH") == ((2, 1, 3), 1)
    assert qdeform.q_rewrite((1, 1, 1), "qH") == ((1, 1, 1), 0)
    with pytest.raises(ValueError):
        qdeform.q_rewrite((1, 2), "zz")


def test_rewrite_exponent_is_inversion_drop():
    for w in itertools.product((1, 2, 3), repeat=5):
        for system in ("qH", "qS"):
            nf, e = qdeform.q_rewrite(w, system)
            assert e == inversions(w) - inversions(nf)
            assert e >= 0


def test_confluence_small():
    for system in ("qH", "qS"):
        for length in range(1, 6):
            res = qdeform.confluence_check(system, length, 3)
            assert res.passed, (system, res.counterexample)


def test_class_censuses():
    assert [qdeform.class_census("qS", n) for n in range(1, 10)] == [
        math.comb(2 * n, n) // (n + 1) for n in range(1, 10)]
    assert [qdeform.class_census("qH", n) for n in range(1, 10)] == [
        2 ** (n - 1) for n in range(1, 10)]


def _irreducible_by_scan(system, n):
    """The census's oracle: one applicability scan per permutation of S_n."""
    return {sigma for sigma in permutations(n) if not qdeform.rewrite_steps(sigma, system)}


@pytest.mark.parametrize("system", ["qH", "qS"])
def test_generated_irreducible_permutations_match_the_scan(system):
    for n in range(9):
        generated = list(qdeform.irreducible_permutations(system, n))
        assert len(set(generated)) == len(generated), n
        assert all(sorted(sigma) == list(range(1, n + 1)) for sigma in generated), n
        assert set(generated) == _irreducible_by_scan(system, n), n


def _grown_with_dead_ends(system, n):
    """The generator before it skipped dead ends: every extension whose
    letter may follow is grown, whether or not the rest can follow it."""
    follower = {
        "qH": lambda c, unused: c - 1,
        "qS": lambda c, unused: max((b for b in unused if b < c), default=0),
    }[system]

    def grow(prefix, c, unused):
        if not unused:
            yield prefix
        below = follower(c, unused)
        for k, b in enumerate(unused):
            if b > c or b == below:
                yield from grow(prefix + (b,), b, unused[:k] + unused[k + 1 :])

    return grow((), 0, tuple(range(1, n + 1)))


@pytest.mark.parametrize("system", ["qH", "qS"])
def test_skipping_dead_ends_keeps_the_irreducible_permutations_in_order(system):
    for n in range(10):
        assert (list(qdeform.irreducible_permutations(system, n))
                == list(_grown_with_dead_ends(system, n))), n


def _rewrite_by_listed_steps(w, system):
    exponent = 0
    while steps := qdeform.rewrite_steps(w, system):
        w = steps[0]
        exponent += 1
    return w, exponent


@pytest.mark.parametrize("system", ["qH", "qS"])
def test_q_rewrite_takes_the_first_listed_step(system):
    for length in range(7):
        for w in itertools.product((1, 2, 3, 4), repeat=length):
            assert qdeform.q_rewrite(w, system) == _rewrite_by_listed_steps(w, system), w


@pytest.mark.parametrize("system", ["qH", "qS"])
def test_class_census_matches_rewriting(system):
    for n in range(8):
        normal_forms = {qdeform.q_rewrite(sigma, system)[0] for sigma in permutations(n)}
        assert qdeform.class_census(system, n) == len(normal_forms), n


@pytest.mark.parametrize("system", ["qH", "qS"])
def test_normal_forms_are_the_irreducible_permutations(system):
    for n in range(7):
        normal_forms = {qdeform.q_rewrite(sigma, system)[0] for sigma in permutations(n)}
        assert normal_forms == _irreducible_by_scan(system, n), n


def test_class_census_edge_cases():
    for system in ("qH", "qS"):
        assert qdeform.class_census(system, 0) == 1
        assert qdeform.class_census(system, 1) == 1
        with pytest.raises(ValueError):
            qdeform.class_census(system, -1)
        with pytest.raises(LimitExceeded):
            qdeform.class_census(system, 10)
    with pytest.raises(ValueError):
        qdeform.class_census("zz", 3)


def test_qh_classes_are_recoil_classes():
    # hypoplactic classes of permutation words collapse onto the descent
    # compositions of the inverse words, one class per composition
    from hopfcomb.words import descent_composition, inverse

    for n in range(1, 6):
        by_nf: dict = {}
        for sigma in permutations(n):
            nf, _ = qdeform.q_rewrite(sigma, "qH")
            by_nf.setdefault(nf, set()).add(descent_composition(inverse(sigma)))
        for nf, comps in by_nf.items():
            assert len(comps) == 1, (nf, comps)
        assert len(by_nf) == 2 ** (n - 1)


def test_q0_coproduct():
    cop = qdeform.q0_coproduct(W("21"))
    assert cop.terms == {(W("21"), ()): 1, ((), W("21")): 1}
    cop = qdeform.q0_coproduct(W("1"))
    assert cop.terms == {(W("1"), ()): 1, ((), W("1")): 1}
    res = qdeform.cocommutativity_check(4)
    assert res.passed, res.counterexample


def test_q0_matches_q_zero_substitution_on_connected():
    from hopfcomb.words import is_connected

    for n in range(1, 5):
        for sigma in permutations(n):
            if not is_connected(sigma):
                continue
            substituted = qdeform.coproduct_q_F(sigma).map_coeffs(
                lambda c: QPoly.coerce(c).subs(0)
            )
            assert substituted == qdeform.q0_coproduct(sigma), sigma
