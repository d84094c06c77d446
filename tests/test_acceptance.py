"""Acceptance suite: the full battery of exact checks, one criterion per test.

Every test prints a single PASS line on success (visible with ``pytest -s``
or in the verbose report); failures carry the offending data.
"""
import functools
import itertools
import math

from conftest import lc, stable_split_coproduct, tensor_terms
from hopfcomb import cli, eqsym, parkfunc, phisym, qdeform, sgqsym, stalactic
from hopfcomb.axioms import duality_check, hopf_check, morphism_check
from hopfcomb.coeffs import QPoly
from hopfcomb.lincomb import LinComb, tensor_kind, twisted_tensor_mul
from hopfcomb.words import (
    catalan,
    endofunctions,
    permutations,
    set_partition_from_text as SP,
    set_partitions,
    shifted_concat,
    word_from_text as W,
)

q = QPoly.gen()
one = QPoly.const(1)


def _ok(name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: PASS{suffix}")


def test_criterion_1_golden_identities():
    M, S_, PHI, MPA, F = "eqsym:M", "sgqsym:M", "phisym:phi", "cpqsym:Mpa", "fqsym-q:F"

    # endofunction products (5)
    assert eqsym.product_M(W("1"), W("22")) == lc(M, ("133", 1), ("323", 1), ("223", 1))
    assert eqsym.product_M(W("1"), W("331")) == lc(
        M, ("1442", 1), ("4241", 1), ("4431", 1), ("3314", 1))
    assert eqsym.product_M(W("12"), W("21")) == lc(
        M, ("1243", 1), ("1432", 1), ("4231", 1), ("1324", 1), ("3214", 1), ("2134", 1))
    assert eqsym.product_M(W("12"), W("22")) == lc(
        M, ("1244", 1), ("1434", 1), ("4234", 1), ("1334", 1), ("3234", 1), ("2234", 1))
    assert eqsym.product_M(W("12"), W("133")) == lc(
        M, ("12355", 3), ("12445", 2), ("12545", 2),
        ("13345", 1), ("14345", 1), ("15345", 1))

    # endofunction coproducts (2)
    assert eqsym.coproduct_M(W("626124")) == tensor_terms(
        M, ("626124", "()", 1), ("()", "626124", 1))
    assert eqsym.coproduct_M(W("4232277")) == tensor_terms(
        M, ("4232277", "()", 1), ("42322", "22", 1), ("()", "4232277", 1))

    # permutation products (6)
    assert sgqsym.product_M(W("1"), W("21")) == lc(
        S_, ("132", 1), ("213", 1), ("321", 1))
    assert sgqsym.product_M(W("12"), W("21")) == lc(
        S_, ("1243", 1), ("1324", 1), ("1432", 1), ("2134", 1), ("3214", 1), ("4231", 1))
    assert sgqsym.product_M(W("12"), W("321")) == lc(
        S_, ("12543", 1), ("14325", 1), ("15342", 2),
        ("32145", 1), ("42315", 2), ("52341", 3))
    assert sgqsym.product_M(W("123"), W("12")) == lc(S_, ("12345", math.comb(5, 3)))
    assert sgqsym.product_M(W("21"), W("123")) == lc(
        S_, ("12354", 1), ("12435", 1), ("12543", 1), ("13245", 1), ("14325", 1),
        ("15342", 1), ("21345", 1), ("32145", 1), ("42315", 1), ("52341", 1))
    assert sgqsym.product_M(W("21"), W("231")) == lc(
        S_, ("21453", 1), ("23154", 1), ("24513", 1), ("25431", 1), ("34152", 1),
        ("34521", 1), ("35412", 1), ("43251", 1), ("43512", 1), ("53421", 1))

    # set-partition orbit product
    assert sgqsym.product_upi(SP("{1,2,4|3}"), SP("{1}")) == LinComb(
        "piqsym:upi",
        {SP("{1,2,4|3|5}"): 1, SP("{1,2,5|3|4}"): 2,
         SP("{1,3,5|4|2}"): 1, SP("{2,3,5|4|1}"): 1})

    # composition shuffle product
    assert sgqsym.product_uq((1, 3, 1), (1, 2)).terms == {
        (1, 1, 2, 3, 1): 2, (1, 1, 3, 1, 2): 2, (1, 1, 3, 2, 1): 2,
        (1, 2, 1, 3, 1): 1, (1, 3, 1, 1, 2): 2, (1, 3, 1, 2, 1): 1}

    # partition product coefficient 9
    assert sgqsym.product_ul((3, 3, 2, 1), (3, 1, 1)).terms == {(3, 3, 3, 2, 1, 1, 1): 9}

    # cycle-basis products (4)
    assert phisym.product_phi(W("12"), W("21")) == lc(
        PHI, ("1243", 1), ("1342", 1), ("1423", 1), ("3241", 1), ("4213", 1))
    assert phisym.product_phi(W("12"), W("12")) == lc(
        PHI, ("1234", 1), ("1324", 1), ("1432", 1), ("3214", 1),
        ("3412", 1), ("4231", 1), ("4321", 1))
    assert phisym.product_phi(W("312"), W("21")) == lc(
        PHI, ("31254", 1), ("31452", 1), ("31524", 1), ("34251", 1), ("34512", 1),
        ("35214", 1), ("35421", 1), ("41253", 1), ("41532", 1), ("45231", 1),
        ("51234", 1), ("51423", 1), ("54213", 1))
    assert phisym.product_phi(W("1"), W("4312")) == lc(
        PHI, ("15423", 1), ("25413", 1), ("35421", 1), ("45123", 1), ("51423", 1))

    # cycle-basis coproducts (3)
    assert phisym.coproduct_phi(W("12")) == tensor_terms(
        PHI, ("12", "()", 1), ("1", "1", 2), ("()", "12", 1))
    assert phisym.coproduct_phi(W("312")) == tensor_terms(
        PHI, ("312", "()", 1), ("()", "312", 1))
    assert phisym.coproduct_phi(W("4231")) == tensor_terms(
        PHI, ("4231", "()", 1), ("321", "1", 2), ("21", "12", 1),
        ("12", "21", 1), ("1", "321", 2), ("()", "4231", 1))

    # second multiplicative basis expansion of 2431 = cycles (124)(3);
    # third term corrected to the matching-product value (see decisions ledger)
    assert phisym.ssecond_expand(W("2431")) == lc(
        PHI, ("2431", 1), ("2413", 1), ("2341", 1), ("3421", 1))

    # cycle-type quotient products (4)
    assert phisym.product_Y((1, 1), (2,)).terms == {(2, 1, 1): 1, (3, 1): 4}
    assert phisym.product_Y((1, 1), (1, 1)).terms == {
        (1, 1, 1, 1): 1, (2, 2): 2, (2, 1, 1): 4}
    assert phisym.product_Y((1,), (4,)).terms == {(4, 1): 1, (5,): 4}
    assert phisym.product_Y((3,), (2,)).terms == {(3, 2): 1, (5,): 12}

    # parking products (3) and coproducts (2)
    assert parkfunc.product_Mpa(W("1"), W("11")) == lc(
        MPA, ("122", 1), ("121", 1), ("113", 1))
    assert parkfunc.product_Mpa(W("1"), W("221")) == lc(
        MPA, ("1332", 1), ("3231", 1), ("2231", 1), ("2214", 1))
    assert parkfunc.product_Mpa(W("12"), W("21")) == lc(
        MPA, ("1243", 1), ("1432", 1), ("4231", 1), ("1324", 1), ("3214", 1), ("2134", 1))
    assert parkfunc.coproduct_Mpa(W("525124")) == tensor_terms(
        MPA, ("525124", "()", 1), ("()", "525124", 1))
    assert parkfunc.coproduct_Mpa(W("4131166")) == tensor_terms(
        MPA, ("4131166", "()", 1), ("41311", "11", 1), ("()", "4131166", 1))

    # twisted coproducts (7, including the twisted product identity)
    assert qdeform.coproduct_q_F(W("2431")).terms == {
        (W("2431"), ()): one, ((), W("2431")): one, (W("132"), W("1")): q**3,
        (W("12"), W("21")): q**3, (W("1"), W("321")): q}
    assert qdeform.coproduct_q_F(W("3421")).terms == {
        (W("3421"), ()): one, ((), W("3421")): one, (W("231"), W("1")): q**3,
        (W("12"), W("21")): q**4, (W("1"), W("321")): q**2}
    assert qdeform.coproduct_q_F(W("21")).terms == {
        (W("21"), ()): one, ((), W("21")): one, (W("1"), W("1")): q}
    assert qdeform.coproduct_q_F(W("213")).terms == {
        (W("213"), ()): one, ((), W("213")): one,
        (W("21"), W("1")): one, (W("1"), W("12")): q}
    assert qdeform.coproduct_q_F(W("231")).terms == {
        (W("231"), ()): one, ((), W("231")): one,
        (W("12"), W("1")): q**2, (W("1"), W("21")): q}
    assert qdeform.coproduct_q_F(W("321")).terms == {
        (W("321"), ()): one, ((), W("321")): one,
        (W("21"), W("1")): q**2, (W("1"), W("21")): q**2}
    lhs = twisted_tensor_mul(
        qdeform.coproduct_q_F(W("21")), qdeform.coproduct_q_F(W("1")),
        qdeform.product_F, qdeform.chi_len)
    rhs = qdeform.product_F(W("21"), W("1")).apply(
        qdeform.coproduct_q_F, kind=tensor_kind("fqsym-q:F"))
    assert lhs == rhs

    _ok("1 golden identities", "40 printed expansions reproduced exactly")


def test_criterion_2_sequence_regressions():
    assert [eqsym.connected_count(n) for n in range(1, 7)] == [1, 3, 20, 197, 2511, 38924]
    assert [eqsym.lie_dims(n) for n in range(1, 7)] == [1, 3, 23, 223, 2800, 42576]
    assert [stalactic.class_count("parking", n) for n in range(1, 7)] == [
        1, 3, 13, 73, 501, 4051]
    assert [stalactic.class_count("endofunctions", n) for n in range(1, 7)] == [
        1, 4, 21, 136, 1045, 9276]
    assert [stalactic.class_count("initial_words", n) for n in range(1, 7)] == [
        1, 3, 11, 49, 261, 1631]
    assert [parkfunc.unlabelled_count(n) for n in range(7)] == [1, 1, 3, 7, 19, 47, 130]
    # the same sequence from the certificate scan, not only from the series
    assert [len(parkfunc.unlabelled_certificates(n)) for n in range(7)] == [
        1, 1, 3, 7, 19, 47, 130]
    assert stalactic.c_coefficients(6) == [1, 1, 3, 11, 53, 309]

    figures = {
        "narayana": [[1], [1, 1], [1, 3, 1], [1, 6, 6, 1],
                     [1, 10, 20, 10, 1], [1, 15, 50, 50, 15, 1]],
        "lah": [[1], [1, 2], [1, 6, 6], [1, 12, 36, 24],
                [1, 20, 120, 240, 120], [1, 30, 300, 1200, 1800, 720]],
        "tw": [[1], [2, 1], [3, 6, 1], [4, 18, 12, 1],
               [5, 40, 60, 20, 1], [6, 75, 200, 150, 30, 1]],
        # row 5 column 4 corrected from the printed figure: the row must sum
        # to the class count 1045 and equal 24 times the tw entry
        "endt": [[1], [2, 2], [3, 12, 6], [4, 36, 72, 24],
                 [5, 80, 360, 480, 120], [6, 150, 1200, 3600, 3600, 720]],
        "pascal": [[1], [1, 1], [1, 2, 1], [1, 3, 3, 1],
                   [1, 4, 6, 4, 1], [1, 5, 10, 10, 5, 1]],
        "arr": [[1], [1, 2], [1, 4, 6], [1, 6, 18, 24],
                [1, 8, 36, 96, 120], [1, 10, 60, 240, 600, 720]],
    }
    for name, rows in figures.items():
        for n, row in enumerate(rows, start=1):
            assert stalactic.triangle(name, n) == row, (name, n)

    _ok("2 sequence regressions", "7 sequences and 6 triangles row-exact through row 6")


@functools.lru_cache(maxsize=None)
def _phi_morphism_verdicts() -> tuple[tuple[tuple, bool], ...]:
    """``phi_morphism_check(a, b, 6)`` on the 93 permutation pairs of total
    degree <= 5, computed once for criteria 3 and 9."""
    return tuple(
        ((a, b), qdeform.phi_morphism_check(a, b, 6))
        for i in range(1, 5)
        for j in range(1, 6 - i)
        for a in permutations(i)
        for b in permutations(j)
    )


def test_criterion_3_oracle_equivalence():
    checked = 0
    for i in range(1, 5):
        for j in range(1, 6 - i):
            for f in endofunctions(i):
                for g in endofunctions(j):
                    assert eqsym.oracle_check(f, g), (f, g)
                    checked += 1
    eq_pairs = checked

    checked = 0
    for i in range(1, 5):
        for j in range(1, 6 - i):
            for a in permutations(i):
                for b in permutations(j):
                    assert eqsym.oracle_check(a, b), (a, b)
                    checked += 1
    sg_pairs = checked

    phi_pairs = 0
    for i in range(1, 5):
        for j in range(1, 6 - i):
            for a in permutations(i):
                for b in permutations(j):
                    assert phisym.biword_product_check(a, b), (a, b)
                    phi_pairs += 1
    assert phi_pairs == 93

    w_pairs = 0
    for i in range(1, 4):
        for j in range(1, 5 - i):
            for p1 in set_partitions(i):
                for p2 in set_partitions(j):
                    assert sgqsym.mw_word_product_check(p1, p2), (p1, p2)
                    w_pairs += 1

    q_pairs = 0
    for pair, holds in _phi_morphism_verdicts():
        assert holds, pair
        q_pairs += 1
    assert q_pairs == 93

    _ok(
        "3 oracle equivalence",
        f"endofunctions {eq_pairs}, permutations {sg_pairs}, biwords {phi_pairs}, "
        f"orbit words {w_pairs}, q-commuting {q_pairs} pairs",
    )


def test_criterion_4_hopf_axiom_suites():
    # every algebra `verify` sweeps with `hopf_check`, on its default basis
    reports = {}
    for name in cli.VERIFIABLE:
        if name not in cli._VERIFY:
            reports[name] = hopf_check(cli._lookup(name, None), 5)
            assert reports[name].passed, (name, reports[name].lines())
    assert len(reports) == 10
    for name in ("eqsym", "sgqsym", "piqsym", "cpqsym", "ccqsym", "qsym-embed", "sym-embed"):
        assert reports[name].commutative, name
    assert not reports["eqsym"].cocommutative
    assert not reports["ncsf-q"].commutative and not reports["ncsf-q"].cocommutative
    assert reports["phisym"].cocommutative
    assert reports["wsym"].cocommutative
    res = qdeform.cocommutativity_check(4)
    assert res.passed, res.counterexample

    _ok("4 hopf axiom suites", "10 bases at degree 5; Q-side commutative; "
        "cycle basis, orbit words and q=0 coproduct cocommutative")


def test_criterion_5_duality():
    # the dual pairs the registry's records name
    pairs = {kind: record.dual for kind, record in cli._REGISTRY.items() if record.dual}
    assert pairs == {"eqsym:M": "eqsym:S", "sgqsym:M": "sgqsym:S", "ccqsym:Mpa": "ccqsym:S"}
    for kind, dual_kind in pairs.items():
        primal, dual = cli._REGISTRY[kind], cli._REGISTRY[dual_kind]
        res = duality_check(primal, dual.coproduct, 5,
                            dual_product=dual.product, primal_coproduct=primal.coproduct)
        assert res.passed, (kind, res)
    _ok("5 duality", "three dual pairs, all triples of total degree <= 5")


def test_criterion_6_cross_basis_consistency():
    for n in range(1, 6):
        for sigma in permutations(n):
            x = LinComb.basis("phisym:phi", sigma)
            sp = phisym.phi_to_sprime(x)
            assert phisym.sprime_to_phi(LinComb("phisym:phi", sp.terms)) == x
            ss = phisym.phi_to_ssecond(x)
            assert phisym.ssecond_to_phi(LinComb("phisym:phi", ss.terms)) == x

    # the multiplicative bases multiply, and Ss comultiplies, as the dual
    # basis does; the Sp -> phi and Ss -> phi morphisms tie them to phi
    for i in range(1, 4):
        for j in range(1, 5 - i):
            for a in permutations(i):
                for b in permutations(j):
                    for rule in (phisym.product_sprime, phisym.product_ssecond,
                                 sgqsym.product_S):
                        assert rule(a, b).terms == {shifted_concat(a, b): 1}
    for n in range(1, 5):
        for sigma in permutations(n):
            want = stable_split_coproduct(sigma)
            assert phisym.coproduct_ssecond(sigma).terms == want, sigma
            assert sgqsym.coproduct_S(sigma).terms == want, sigma
    for name, (source, target, f) in cli.MORPHISMS.items():
        res = morphism_check(cli._REGISTRY[source], cli._REGISTRY[target], f, 5)
        assert res.passed, (name, res)

    res = phisym.y_iso_check(6)
    assert res.passed, res.counterexample
    _ok("6 cross-basis consistency",
        "round trips at degree 5; multiplicative bases match the dual basis at "
        "degree 4; the eight MORPHISMS hold at degree 5; cycle-type quotient maps "
        "to Sym multiplicatively to degree 6")


def test_criterion_7_stalactic_well_definedness():
    for length in range(1, 6):
        for w in itertools.product((1, 2, 3), repeat=length):
            form = stalactic.canonical_form(w)
            for v in stalactic.congruence_class(w):
                assert stalactic.insert(v)[0].word() == form, (w, v)
    for family in ("parking", "endofunctions", "initial_words"):
        for n, m in [(1, 2), (2, 2), (1, 3), (3, 2), (3, 3)]:
            res = stalactic.class_product_well_defined(family, n, m)
            assert res.passed, (family, n, m, res.counterexample)
    _ok("7 stalactic well-definedness",
        "insertion constant on classes (length 5, alphabet 3); class products "
        "representative-independent through degree 3+3")


def test_criterion_8_bell_polynomials():
    for n in range(1, 7):
        assert sgqsym.bell_check(n), n
    _ok("8 bell polynomials", "quotient powers match the exponential series to n=6")


def test_criterion_9_q_structure():
    # the twisted morphism laws are the compatibility law of the twisted records
    for kind in (qdeform.F_KIND, qdeform.NS_KIND):
        report = hopf_check(cli._REGISTRY[kind], 4)
        assert report.passed, (kind, report.lines())

    verdicts = _phi_morphism_verdicts()
    assert len(verdicts) == 93
    for pair, holds in verdicts:
        assert holds, pair

    assert [qdeform.class_census("qS", n) for n in range(1, 7)] == [
        catalan(n) for n in range(1, 7)]

    for n in range(1, 6):
        for sigma in permutations(n):
            assert qdeform.coproduct_q1_F(sigma) == qdeform.ordinary_coproduct_F(sigma)
    res = qdeform.cocommutativity_check(4)
    assert res.passed, res.counterexample
    from hopfcomb.words import is_connected

    for n in range(1, 5):
        for sigma in permutations(n):
            if is_connected(sigma):
                substituted = qdeform.coproduct_q_F(sigma).map_coeffs(
                    lambda c: QPoly.coerce(c).subs(0))
                assert substituted == qdeform.q0_coproduct(sigma)

    _ok("9 q-structure",
        "twisted morphisms at degree 4, the quasi-symmetric morphism at degree 5, "
        "Catalan census to n=6, q=1 and q=0 specializations")
