"""First counterexamples of the axiom and duality checkers on broken rules.

Each case wraps a correct algebra with a deliberately broken rule and pins
the exact report: the verdict of every axiom and, where it fails, the first
counterexample in the checker's visiting order.  The expected tuples were
recorded from the straightforward nested-loop checker, so they also pin that
the sweep order of the table-driven checker is unchanged.
"""
from collections import Counter
from dataclasses import replace
from functools import lru_cache

import pytest

from hopfcomb import axioms, cli, eqsym, parkfunc, phisym, qdeform, sgqsym
from hopfcomb.axioms import (
    CheckResult,
    HopfReport,
    _Sweep,
    check_each,
    duality_check,
    first_failure,
    graded_pairs,
    hopf_check,
    sweep_guard,
)
from hopfcomb.limits import LimitExceeded
from hopfcomb.lincomb import LinComb, tensor_apply, tensor_kind, tensor_mul, tensor_swap
from hopfcomb.words import is_involution, set_partition_from_text, word_from_text

W = word_from_text


def corrupt(rule, label, edit):
    """``rule`` with its value at ``label`` replaced by ``edit(terms)``."""

    def broken(*args):
        out = rule(*args)
        if args != label:
            return out
        return LinComb(out.kind, edit(dict(out.terms)))

    return broken


def drop_last(terms):
    terms.pop(max(terms, key=repr))
    return terms


def drop(key):
    def edit(terms):
        del terms[key]
        return terms

    return edit


def bump(key, by=1):
    def edit(terms):
        terms[key] = terms.get(key, 0) + by
        return terms

    return edit


def report_of(alg, bound):
    report = hopf_check(alg, bound)
    return {name: result.counterexample for name, result in report.checks.items()}


OK = None

HOPF_CASES = {
    # the correct algebra: only cocommutativity fails, at its first label
    "eqsym": (eqsym.algebra(), {}),
    # M_1 M_11 loses one term
    "product drops a term": (
        eqsym.algebra(),
        {"product": ((W("1"), W("11")), drop_last)},
    ),
    # M_12 M_() loses its only term, so the unit law fails first at 12
    "unit product": (
        eqsym.algebra(),
        {"product": ((W("12"), ()), drop_last)},
    ),
    # M_12 M_12 loses one term: a top-degree product at bound 4
    "top-degree product": (
        eqsym.algebra(),
        {"product": ((W("12"), W("12")), drop_last)},
    ),
    # Delta(M_113) loses its middle term
    "coproduct corrupted": (
        eqsym.algebra(),
        {"coproduct": ((W("113"),), drop((W("11"), W("1"))))},
    ),
    # Delta(M_1) gains a second M_1 (x) 1: not cocommutative at degree 1
    "non-cocommutative coproduct": (
        eqsym.algebra(),
        {"coproduct": ((W("1"),), bump((W("1"), ())))},
    ),
    # the cocommutative dual: Delta(S_12) gains a second 1 (x) S_12
    "dual made non-cocommutative": (
        eqsym.dual_algebra(),
        {"coproduct": ((W("12"),), bump(((), W("12"))))},
    ),
    # M_12 M_11 loses a term; M_11 precedes M_12 in degree 2, so the equal-degree
    # pair is first met, and its commutativity first fails, at (11, 12)
    "equal-degree pair broken": (
        eqsym.algebra(),
        {"product": ((W("12"), W("11")), drop_last)},
    ),
    # M_11 M_1 loses a term; commutativity first fails at the reversed pair (1, 11)
    "descending-degree pair broken": (
        eqsym.algebra(),
        {"product": ((W("11"), W("1")), drop_last)},
    ),
}

HOPF_EXPECTED = {
    "eqsym": {
        "associativity": OK, "unit": OK, "coassociativity": OK, "counit": OK,
        "compatibility": OK, "commutativity": OK,
        "cocommutativity": (W("113"),),
    },
    "product drops a term": {
        "associativity": (W("1"), W("1"), W("11")), "unit": OK,
        "coassociativity": OK, "counit": OK,
        "compatibility": (W("1"), W("11")),
        "commutativity": (W("1"), W("11")),
        "cocommutativity": (W("113"),),
    },
    "unit product": {
        "associativity": OK, "unit": (W("12"),), "coassociativity": OK,
        "counit": OK, "compatibility": (W("12"), W("1")), "commutativity": OK,
        "cocommutativity": (W("113"),),
    },
    "top-degree product": {
        "associativity": (W("1"), W("1"), W("12")), "unit": OK, "coassociativity": OK,
        "counit": OK, "compatibility": (W("12"), W("12")), "commutativity": OK,
        "cocommutativity": (W("113"),),
    },
    "coproduct corrupted": {
        "associativity": OK, "unit": OK, "coassociativity": (W("1134"),),
        "counit": OK, "compatibility": (W("1"), W("11")), "commutativity": OK,
        "cocommutativity": (W("122"),),
    },
    "non-cocommutative coproduct": {
        "associativity": OK, "unit": OK, "coassociativity": (W("1"),),
        "counit": (W("1"),), "compatibility": (W("1"), W("1")),
        "commutativity": OK, "cocommutativity": (W("1"),),
    },
    "dual made non-cocommutative": {
        "associativity": OK, "unit": OK, "coassociativity": (W("12"),),
        "counit": (W("12"),), "compatibility": (W("1"), W("1")),
        "commutativity": (W("1"), W("11")), "cocommutativity": (W("12"),),
    },
    "equal-degree pair broken": {
        "associativity": (W("1"), W("1"), W("11")), "unit": OK,
        "coassociativity": OK, "counit": OK,
        "compatibility": (W("12"), W("11")),
        "commutativity": (W("11"), W("12")),
        "cocommutativity": (W("113"),),
    },
    "descending-degree pair broken": {
        "associativity": (W("1"), W("11"), W("1")), "unit": OK,
        "coassociativity": OK, "counit": OK,
        "compatibility": (W("11"), W("1")),
        "commutativity": (W("1"), W("11")),
        "cocommutativity": (W("113"),),
    },
}


def broken_algebra(name):
    alg, breaks = HOPF_CASES[name]
    return replace(alg, **{rule: corrupt(getattr(alg, rule), label, edit)
                           for rule, (label, edit) in breaks.items()})


@pytest.mark.parametrize("name", list(HOPF_CASES))
def test_first_counterexample_of_every_axiom(name):
    assert report_of(broken_algebra(name), 4) == HOPF_EXPECTED[name]


def drop_first(terms):
    terms.pop(min(terms, key=repr))
    return terms


def lossy_algebra(name, edit):
    alg = {"cpqsym": parkfunc.algebra, "wsym": sgqsym.wsym_algebra}[name]()
    return replace(alg, product=lossy(alg.product, edit))


def lossy(product, edit):
    """``product`` with ``edit`` applied to every product of two nonempty labels."""

    def broken(a, b):
        out = product(a, b)
        return LinComb(out.kind, edit(dict(out.terms))) if a and b else out

    return broken


P = set_partition_from_text

# Recorded with the filtering enumerators (every endofunction tested for the
# parking property), so a generator that visits labels in another order moves
# a pin: wsym's degree-2 labels come as {12} then {1|2}, cpqsym's degree-3
# labels start 111, 112, 113.
LOSSY_EXPECTED = {
    ("cpqsym", "drop_first"): {
        "associativity": (W("1"), W("1"), W("11")), "unit": OK,
        "coassociativity": OK, "counit": OK, "compatibility": (W("1"), W("1")),
        "commutativity": OK, "cocommutativity": (W("113"),),
    },
    ("cpqsym", "drop_last"): {
        "associativity": (W("1"), W("1"), W("11")), "unit": OK,
        "coassociativity": OK, "counit": OK, "compatibility": (W("1"), W("1")),
        "commutativity": OK, "cocommutativity": (W("113"),),
    },
    ("wsym", "drop_first"): {
        "associativity": (P("{1}"), P("{1}"), P("{1}")), "unit": OK,
        "coassociativity": OK, "counit": OK,
        "compatibility": (P("{1}"), P("{1|2}")),
        "commutativity": (P("{1}"), P("{1,2}")), "cocommutativity": OK,
    },
    ("wsym", "drop_last"): {
        "associativity": (P("{1}"), P("{1}"), P("{1}")), "unit": OK,
        "coassociativity": OK, "counit": OK, "compatibility": (P("{1}"), P("{1}")),
        "commutativity": (P("{1}"), P("{1,2}")), "cocommutativity": OK,
    },
}


@pytest.mark.parametrize("name, edit", [
    (name, edit) for name in ("cpqsym", "wsym") for edit in (drop_first, drop_last)
], ids=lambda v: getattr(v, "__name__", v))
def test_lossy_product_counterexamples_follow_label_order(name, edit):
    assert report_of(lossy_algebra(name, edit), 5) == LOSSY_EXPECTED[name, edit.__name__]


def test_report_keeps_its_key_order():
    report = hopf_check(eqsym.algebra(), 2)
    assert list(report.checks) == [
        "associativity", "unit", "coassociativity", "counit",
        "compatibility", "commutativity", "cocommutativity",
    ]


def test_degree_bounds_below_one_check_nothing(monkeypatch):
    sizes = []
    monkeypatch.setattr(axioms, "family_size", lambda *args: sizes.append(args))
    for bound in (0, -1):
        report = hopf_check(eqsym.algebra(), bound)
        assert all(r.passed for r in report.checks.values())
    assert sizes == []


def test_graded_pairs_keep_the_nested_loop_order():
    def labels(n):
        return [f"{n}{c}" for c in "ab"[:n]]

    assert list(graded_pairs(labels, 3)) == [
        ("1a", "1a"), ("1a", "2a"), ("1a", "2b"), ("2a", "1a"), ("2b", "1a"),
    ]
    nested = [(x, y)
              for i in range(1, 5) for j in range(1, 5 - i + 1)
              for x in labels(i) for y in labels(j)]
    assert list(graded_pairs(labels, 5)) == nested
    assert list(graded_pairs(labels, 1)) == []
    assert list(graded_pairs(labels, 2)) == [("1a", "1a")]
    assert list(graded_pairs(labels, 0)) == []


def _duality(bound, dual_coproduct=eqsym.coproduct_S, dual_product=eqsym.product_S,
             primal_coproduct=eqsym.coproduct_M):
    return duality_check(eqsym.algebra(), dual_coproduct, bound,
                         dual_product=dual_product, primal_coproduct=primal_coproduct)


def test_duality_first_counterexamples():
    assert _duality(4).counterexample is None
    # <M_1 M_1, S_12> = 2, but the dual coproduct now says 1
    res = _duality(4, dual_coproduct=corrupt(
        eqsym.coproduct_S, (W("12"),), bump((W("1"), W("1")), -1)))
    assert (res.passed, res.counterexample) == (False, (W("1"), W("1"), W("12")))
    # a degree-3 target: the failure is found at the first (a, b) that meets it
    res = _duality(4, dual_coproduct=corrupt(
        eqsym.coproduct_S, (W("123"),), bump((W("12"), W("1")))))
    assert (res.passed, res.counterexample) == (False, (W("12"), W("1"), W("123")))
    # the transposed law: a broken dual product ...
    res = _duality(4, dual_product=corrupt(eqsym.product_S, (W("1"), W("11")), drop_last))
    assert (res.passed, res.counterexample) == (False, (W("1"), W("11"), W("122")))
    # ... and a broken primal coproduct
    res = _duality(4, primal_coproduct=corrupt(
        eqsym.coproduct_M, (W("1123"),), bump((W("112"), W("1")))))
    assert (res.passed, res.counterexample) == (False, (W("112"), W("1"), W("1123")))


def _no_rule_call(*args):
    raise AssertionError(f"rule called with {args}")


def test_checks_refuse_bounds_beyond_the_family_bound_before_any_rule_call():
    alg = replace(sgqsym.qsym_algebra(), product=_no_rule_call, coproduct=_no_rule_call)
    with pytest.raises(LimitExceeded, match=r"\(Limits\.compositions\)$"):
        hopf_check(alg, 11)
    with pytest.raises(LimitExceeded, match=r"\(Limits\.compositions\)$"):
        duality_check(alg, _no_rule_call, 11,
                      dual_product=_no_rule_call, primal_coproduct=_no_rule_call)


# ---------------------------------------------------------------------------
# the held and the streamed top degree

def counted(alg, calls: Counter):
    """``alg`` with both rules counting their calls, by argument tuple, in
    ``calls``: a product's arguments are a pair, a coproduct's a 1-tuple."""

    def counting(rule):
        def rule_counted(*args):
            calls[args] += 1
            return rule(*args)

        return rule_counted

    return replace(alg, product=counting(alg.product), coproduct=counting(alg.coproduct))


def hold_top_degrees(monkeypatch, held: bool) -> None:
    """Hold every sweep's top degree, or stream every one."""
    monkeypatch.setattr(axioms, "HELD_TOP_LABELS", 10**9 if held else 0)


SWEEP_PATH_CASES = {
    **{name: (broken_algebra(name), (4,)) for name in HOPF_CASES},
    **{name: (cli._lookup(name, None), range(1, 6)) for name in cli.VERIFIABLE},
}


@pytest.mark.parametrize("name", list(SWEEP_PATH_CASES))
def test_held_and_streamed_top_degrees_report_alike(name, monkeypatch):
    alg, bounds = SWEEP_PATH_CASES[name]
    for bound in bounds:
        reports = []
        for held in (True, False):
            hold_top_degrees(monkeypatch, held)
            assert _Sweep(alg, bound).held_upto == (bound if held else bound - 1)
            reports.append(report_of(alg, bound))
        assert reports[0] == reports[1], bound


def test_a_held_sweep_computes_each_rule_value_once():
    alg = phisym.algebra()
    assert _Sweep(alg, 5).held_upto == 5
    calls: Counter = Counter()
    assert hopf_check(counted(alg, calls), 5).passed
    top = [args for args in calls if sum(map(alg.family.degree, args)) == 5]
    assert len(top) > 120  # the coproducts of size 5 and the products of total 5
    assert set(calls.values()) == {1}


@pytest.mark.parametrize("held", [True, False], ids=["held", "streamed"])
@pytest.mark.parametrize("algebra", ["eqsym", "sgqsym", "ccqsym"])
def test_verify_duality_reads_the_sweep_tables(algebra, held, monkeypatch):
    """The primal rules reach no argument in ``verify`` that ``hopf_check``
    alone does not, and none more often."""
    bound = 4 if algebra == "eqsym" else 5
    hold_top_degrees(monkeypatch, held)
    if not held:
        # duality below the streamed top degree reads only tabled values
        monkeypatch.setattr(cli, "DUALITY_DEGREE", bound - 1)
    primal = cli._lookup(algebra, None)
    alone: Counter = Counter()
    hopf_check(counted(primal, alone), bound)
    in_verify: Counter = Counter()
    monkeypatch.setitem(cli._REGISTRY, primal.kind, counted(primal, in_verify))
    code, lines = cli._verify(algebra, bound)
    assert (code, lines[-1]) == (0, "duality-consistency: ok")
    assert in_verify == alone


# ---------------------------------------------------------------------------
# rules that hand out shared LinComb objects from a cache

def _cached(rule, handed_out):
    @lru_cache(maxsize=None)
    def cached(*args):
        out = rule(*args)
        handed_out.append((out, dict(out.terms)))
        return out

    return cached


@pytest.mark.parametrize("alg", [
    sgqsym.algebra(), phisym.algebra(), parkfunc.algebra(),
], ids=["sgqsym", "phisym", "parkfunc"])
def test_hopf_check_never_mutates_cached_rule_values(alg):
    handed_out: list = []
    shared = replace(alg, product=_cached(alg.product, handed_out),
                     coproduct=_cached(alg.coproduct, handed_out))
    assert hopf_check(shared, 4).passed
    assert handed_out
    for value, snapshot in handed_out:
        assert value.terms == snapshot


@pytest.mark.parametrize("algebra", ["eqsym", "sgqsym", "ccqsym"])
def test_verify_never_mutates_cached_rule_values(algebra, monkeypatch):
    """The values the sweep tables and duality then reads, from the primal
    and the dual rules, come out of ``verify`` as they went in."""
    handed_out: list = []
    for basis in (None, cli._VERIFY[algebra]):
        record = cli._lookup(algebra, basis)
        monkeypatch.setitem(cli._REGISTRY, record.kind, replace(
            record, product=_cached(record.product, handed_out),
            coproduct=_cached(record.coproduct, handed_out)))
    code, lines = cli._verify(algebra, 4)
    assert (code, lines[-1]) == (0, "duality-consistency: ok")
    assert handed_out
    for value, snapshot in handed_out:
        assert value.terms == snapshot


# ---------------------------------------------------------------------------
# the signed-sum checks against a reference that builds both sides

def _reference_hopf_check(alg, degree_bound):
    """:func:`hopf_check` as two-``LinComb`` comparisons: every identity builds
    lhs and rhs in full and compares them with ``==``, over the same sweep."""
    sweep = _Sweep(alg, degree_bound)

    def associativity_cases():
        bound, product = sweep.bound, sweep.product
        for i in range(1, bound - 1):
            for j in range(1, bound - i):
                for k in range(1, bound - i - j + 1):
                    outer = sweep.product_rule(i + j + k)
                    for a in sweep.labels(i):
                        for b in sweep.labels(j):
                            ab = product(a, b)
                            for c in sweep.labels(k):
                                yield (a, b, c), {"associativity": lambda: (
                                    ab.apply(lambda l: outer(l, c))
                                    == product(b, c).apply(lambda l: outer(a, l)))}

    def label_cases():
        unit = ()
        for n in range(1, sweep.bound + 1):
            for a in sweep.labels(n):
                e = LinComb.basis(alg.kind, a)
                cop = sweep.coproduct_rule(n)(a)

                def coproduct(l):
                    return cop if l == a else sweep.coproduct(l)

                def counit_sides():
                    left: dict = {}
                    right: dict = {}
                    for (u, v), c in cop.terms.items():
                        if u == unit:
                            left[v] = left.get(v, 0) + c
                        if v == unit:
                            right[u] = right.get(u, 0) + c
                    return LinComb(alg.kind, left), LinComb(alg.kind, right)

                yield (a,), {
                    "unit": lambda: alg.product(unit, a) == e and alg.product(a, unit) == e,
                    "coassociativity": lambda: (
                        tensor_apply(cop, 0, coproduct) == tensor_apply(cop, 1, coproduct)),
                    "counit": lambda: counit_sides() == (e, e),
                    "cocommutativity": lambda: tensor_swap(cop) == cop,
                }

    def pair_cases():
        kind = tensor_kind(alg.kind)
        for i in range(1, sweep.bound):
            for j in range(1, sweep.bound - i + 1):
                product = sweep.product_rule(i + j)
                coproduct = sweep.coproduct_rule(i + j)
                for ia, a in enumerate(sweep.labels(i)):
                    da = sweep.coproduct(a)
                    for ib, b in enumerate(sweep.labels(j)):
                        ab = product(a, b)

                        def factor_product(x, y):
                            return ab if x == a and y == b else sweep.product(x, y)

                        checks = {"compatibility": lambda: (
                            ab.apply(coproduct, kind=kind)
                            == tensor_mul(da, sweep.coproduct(b), factor_product))}
                        if i < j or (i == j and ia < ib):
                            checks["commutativity"] = lambda: ab == product(b, a)
                        yield (a, b), checks

    results = first_failure(associativity_cases(), ("associativity",))
    results.update(first_failure(
        label_cases(), ("unit", "coassociativity", "counit", "cocommutativity")))
    results.update(first_failure(pair_cases(), ("compatibility", "commutativity")))
    order = ("associativity", "unit", "coassociativity", "counit",
             "compatibility", "commutativity", "cocommutativity")
    return HopfReport(alg.kind, degree_bound, {name: results[name] for name in order})


def with_kind(rule, label, kind):
    """``rule`` with its value at ``label`` moved, terms unchanged, to ``kind``."""

    def broken(*args):
        out = rule(*args)
        return LinComb(kind, out.terms) if args == label else out

    return broken


EQ = eqsym.algebra()
EQ_TENSOR_X = tensor_kind("eqsym:X")

# one label's value in the wrong kind; every rule below keeps its terms
WRONG_KIND_CASES = {
    # Delta(M_12) as X (x) X: coassociativity at 12 sees sides of two kinds,
    # and compatibility at (1, 1), whose product is 2 M_12, does too
    "coproduct of 12": replace(EQ, coproduct=with_kind(EQ.coproduct, (W("12"),), EQ_TENSOR_X)),
    # M_12 M_() as an X: only the unit law compares that value's kind
    "unit product": replace(EQ, product=with_kind(EQ.product, (W("12"), ()), "eqsym:X")),
    # M_1 M_11 as an X: commutativity compares it with M_11 M_1
    "product of (1, 11)": replace(
        EQ, product=with_kind(EQ.product, (W("1"), W("11")), "eqsym:X")),
}

WRONG_KIND_EXPECTED = {
    "coproduct of 12": {
        "associativity": OK, "unit": OK, "coassociativity": (W("12"),), "counit": OK,
        "compatibility": (W("1"), W("1")), "commutativity": OK,
        "cocommutativity": (W("113"),),
    },
    "unit product": {
        "associativity": OK, "unit": (W("12"),), "coassociativity": OK, "counit": OK,
        "compatibility": OK, "commutativity": OK, "cocommutativity": (W("113"),),
    },
    "product of (1, 11)": {
        "associativity": OK, "unit": OK, "coassociativity": OK, "counit": OK,
        "compatibility": OK, "commutativity": (W("1"), W("11")),
        "cocommutativity": (W("113"),),
    },
}


EDITS = {edit.__name__: edit for edit in (drop_first, drop_last)}

REFERENCE_CASES = {
    **{name: (broken_algebra(name), 4) for name in HOPF_CASES},
    **{f"{name} {edit}": (lossy_algebra(name, EDITS[edit]), 5) for name, edit in LOSSY_EXPECTED},
    **{f"wrong kind: {name}": (alg, 4) for name, alg in WRONG_KIND_CASES.items()},
    "eqsym at 5": (eqsym.algebra(), 5),
    "cpqsym at 5": (parkfunc.algebra(), 5),
    "phisym at 5": (phisym.algebra(), 5),
    "wsym at 5": (sgqsym.wsym_algebra(), 5),
}


@pytest.mark.parametrize("name", list(REFERENCE_CASES))
def test_signed_sums_report_what_the_two_sided_reference_reports(name):
    alg, bound = REFERENCE_CASES[name]
    report = hopf_check(alg, bound)
    reference = _reference_hopf_check(alg, bound)
    assert report == reference
    assert list(report.checks) == list(reference.checks)


@pytest.mark.parametrize("name", list(WRONG_KIND_CASES))
def test_a_value_of_the_wrong_kind_fails_where_the_kinds_meet(name):
    assert report_of(WRONG_KIND_CASES[name], 4) == WRONG_KIND_EXPECTED[name]


def test_a_side_that_mixes_kinds_raises():
    # M_1 M_11 has the term M_122, whose coproduct is now of another kind, so
    # Delta(M_1 M_11) sums pieces of two kinds
    alg = replace(EQ, coproduct=with_kind(EQ.coproduct, (W("122"),), EQ_TENSOR_X))
    for check in (hopf_check, _reference_hopf_check):
        with pytest.raises(ValueError, match="mixing label kinds"):
            check(alg, 4)


# ---------------------------------------------------------------------------
# the paper's claims: one CheckResult each, through first_failure

def test_a_check_result_has_no_truth_value():
    for result in (CheckResult(True), CheckResult(False, ((1,),))):
        with pytest.raises(TypeError, match="read .passed"):
            bool(result)
        with pytest.raises(TypeError):
            assert result


def test_check_each_reports_the_first_failing_case():
    cases = [(n,) for n in range(10)]
    assert check_each(cases, lambda n: n * n < 20) == CheckResult(False, (5,))
    assert check_each(cases, lambda n: n >= 0) == CheckResult(True, None)
    assert check_each([], lambda: False) == CheckResult(True, None)


def test_check_result_lines():
    assert CheckResult(True).line("associativity") == "associativity: ok"
    assert CheckResult(False, ((1,),)).line("unit") == "unit: FAIL at ((1,),)"
    assert CheckResult(True).line("q0-cocommutativity") == "q0-cocommutativity: yes"
    assert CheckResult(False, ((1,),)).line("commutativity") == "commutativity: no"


def _sorted_terms(rule, kind):
    """``rule`` with each term's word sorted: a term moves into the
    nondecreasing labels."""
    return lambda p, q: LinComb(kind, {tuple(sorted(h)): c for h, c in rule(p, q).terms.items()})


def _rotated_terms(rule, kind):
    """``rule`` with each term's word rotated one place to the left."""
    return lambda a, b: LinComb(kind, {h[1:] + h[:1]: c for h, c in rule(a, b).terms.items()})


# (module, rule name, broken rule, claim, its first counterexample)
BROKEN_CLAIMS = {
    # (1), (1, 1), (1, 2) are nondecreasing: 21 is the first label of the ideal
    "ideal": (parkfunc, "product_Mpa", _sorted_terms(parkfunc.product_Mpa, parkfunc.MPA_KIND),
              lambda: parkfunc.cc_ideal_check(4), ((2, 1), (1,))),
    # M_1 M_1 = 2 M_12 rotates to the involution 21; M_1 M_12 holds M_123 -> 231
    "involutions": (sgqsym, "product_M", _rotated_terms(sgqsym.product_M, sgqsym.M_KIND),
                    lambda: sgqsym.subalgebra_closure_check(is_involution, 4),
                    ((1,), (1, 2))),
    # deconcatenation is symmetric on every permutation of size 1 and 2, and on
    # 123; 132 cuts into (1, 21) with no (21, 1)
    "q0-cocommutativity": (qdeform, "q0_coproduct", qdeform.ordinary_coproduct_F,
                           lambda: qdeform.cocommutativity_check(4), ((1, 3, 2),)),
}


@pytest.mark.parametrize("name", list(BROKEN_CLAIMS))
def test_a_broken_rule_fails_its_claim_at_the_first_counterexample(name, monkeypatch):
    module, rule, broken, claim, counterexample = BROKEN_CLAIMS[name]
    assert claim().passed
    monkeypatch.setattr(module, rule, broken)
    assert claim() == CheckResult(False, counterexample)


@pytest.mark.parametrize("kind, family", [("forest:M", "forests"),
                                          ("parkgraph:N", "parking_graphs")])
def test_a_family_with_no_enumerator_is_refused_before_any_rule(kind, family):
    def untouched(*labels):
        raise AssertionError("a rule was called")

    record = replace(cli._REGISTRY[kind], product=untouched, coproduct=untouched)
    message = f"^{family} cannot be enumerated: there is no Limits.{family} bound$"
    with pytest.raises(ValueError, match=message) as refused:
        hopf_check(record, 3)
    assert not isinstance(refused.value, LimitExceeded)
    with pytest.raises(ValueError, match=message):
        duality_check(record, untouched, 3, untouched, untouched)
    with pytest.raises(ValueError, match=message):
        sweep_guard(family, 3)
