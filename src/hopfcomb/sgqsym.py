"""The commutative Hopf algebra of permutations and its sub/quotient structures.

Permutations carry the restriction of the endofunction structure; on top of
that live the orbit algebra on set partitions (dual to word symmetric
functions), the quasi-symmetric and symmetric embeddings, the involution
subalgebra, and the quotient of word symmetric functions with its Bell
polynomial combinatorics.
"""
from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Callable, Iterable, Sequence

from . import eqsym, symfunc
from .axioms import CheckResult, GradedBasis, check_each, graded_labels, graded_pairs
from .lincomb import LinComb, bilinear, relabelled, tensor_kind
from .realize import realize_lincomb, trace_power
from .words import (
    FAMILIES,
    Composition,
    IntegerPartition,
    SetPartition,
    Word,
    block_composition,
    consecutive_blocks,
    cycle_supports,
    cycle_type,
    cycles,
    from_cycles,
    multiset_splits,
    ordered_cycle_type,
    partition_of_word,
    permutations,
    permutations_of_type,
    set_partitions,
    shuffle,
    sort_composition,
    standardize,
    standardized_cycles,
)

M_KIND = "sgqsym:M"
S_KIND = "sgqsym:S"
UPI_KIND = "piqsym:upi"
MW_KIND = "wsym:Mw"
UQ_KIND = "qsym-embed:uq"
UL_KIND = "sym-embed:ul"
V_KIND = "ncsf:V"


# ---------------------------------------------------------------------------
# the M basis on permutations: three routes to the same product

# First route: the set-split product, restricted from endofunctions;
# `eqsym.product_M_conjugation` is the oracle for all three routes.
product_M = relabelled(M_KIND, eqsym.product_M)


def product_M_splitting(alpha: Word, beta: Word) -> LinComb:
    """Second route: push the cycles into a set split of [n+m]."""
    n, m = len(alpha), len(beta)
    terms: dict[Word, int] = {}
    ground = range(1, n + m + 1)
    for chosen in itertools.combinations(ground, n):
        complement = tuple(i for i in ground if i not in chosen)
        relabeled = [tuple(chosen[a - 1] for a in c) for c in cycles(alpha)]
        relabeled += [tuple(complement[a - 1] for a in c) for c in cycles(beta)]
        gamma = from_cycles(relabeled, n + m)
        terms[gamma] = terms.get(gamma, 0) + 1
    return LinComb(M_KIND, terms)


def product_M_dual_count(alpha: Word, beta: Word) -> LinComb:
    """Third route: count complementary cycle subsets standardizing to the pair.

    A split can only succeed when gamma's cycle lengths are alpha's and
    beta's together and the chosen cycles have alpha's lengths, so only the
    gammas of that cycle type are generated, and only those subsets tried.
    """
    n, m = len(alpha), len(beta)
    alpha_type = cycle_type(alpha)
    gamma_type = sort_composition(alpha_type + cycle_type(beta))
    terms: dict[Word, int] = {}
    for gamma in permutations_of_type(gamma_type, n + m):
        cyc = cycles(gamma)
        count = 0
        for chosen in itertools.combinations(range(len(cyc)), len(alpha_type)):
            if sort_composition([len(cyc[i]) for i in chosen]) != alpha_type:
                continue
            rest = tuple(i for i in range(len(cyc)) if i not in chosen)
            if (
                standardized_cycles(cyc, chosen) == alpha
                and standardized_cycles(cyc, rest) == beta
            ):
                count += 1
        if count:
            terms[gamma] = count
    return LinComb(M_KIND, terms)


coproduct_M = relabelled(tensor_kind(M_KIND), eqsym.coproduct_M)
product_S = relabelled(S_KIND, eqsym.product_S)
coproduct_S = relabelled(tensor_kind(S_KIND), eqsym.coproduct_S)


# ---------------------------------------------------------------------------
# circular standardization

def min_rotation(word: Sequence) -> tuple:
    word = tuple(word)
    return min(word[k:] + word[:k] for k in range(len(word)))


def cstd(circular_words: Iterable[Sequence]) -> Word:
    """Standardize a product of circular words and read the factors as cycles.

    Words are first rotated to their lexicographic minimal representatives and
    sorted; the concatenation is standardized and re-cut into factors, each
    factor read as a cycle word of the resulting permutation.
    """
    reps = sorted(min_rotation(w) for w in circular_words)
    flat = tuple(a for w in reps for a in w)
    std = standardize(flat)
    out_cycles = []
    pos = 0
    for w in reps:
        out_cycles.append(std[pos : pos + len(w)])
        pos += len(w)
    return from_cycles(out_cycles, len(flat))


# ---------------------------------------------------------------------------
# PiQSym: orbit sums indexed by set partitions (dual word symmetric functions)

def upi_expand(pi: SetPartition) -> LinComb:
    """uπ as a sum of M over permutations with the given cycle supports."""
    n = sum(len(b) for b in pi)
    terms = {
        sigma: 1 for sigma in permutations(n) if cycle_supports(sigma) == pi
    }
    return LinComb(M_KIND, terms)


def product_upi(pi1: SetPartition, pi2: SetPartition) -> LinComb:
    """Push pi1 onto each n-subset of [n+m] and pi2 onto its complement.

    Takes canonical labels: an increasing relabelling keeps every block
    sorted, so only the list of blocks is sorted again.
    """
    n = sum(len(b) for b in pi1)
    m = sum(len(b) for b in pi2)
    terms: dict[SetPartition, int] = {}
    ground = range(1, n + m + 1)
    for chosen in itertools.combinations(ground, n):
        inside = set(chosen)
        complement = [i for i in ground if i not in inside]
        blocks = [tuple([chosen[a - 1] for a in b]) for b in pi1]
        blocks += [tuple([complement[a - 1] for a in b]) for b in pi2]
        blocks.sort()
        merged = tuple(blocks)
        terms[merged] = terms.get(merged, 0) + 1
    return LinComb(UPI_KIND, terms)


def coproduct_upi(pi: SetPartition) -> LinComb:
    """Cuts of the ground set into an initial and final interval of blocks.

    Takes a canonical label: the blocks below a cut at k are a prefix of pi,
    which covers exactly [k] when its largest letter is k.
    """
    terms: dict[tuple[SetPartition, SetPartition], int] = {((), pi): 1}
    k = top = 0
    for j, b in enumerate(pi, start=1):
        k += len(b)
        top = max(top, b[-1])
        if top == k:
            terms[pi[:j], tuple(tuple([a - k for a in c]) for c in pi[j:])] = 1
    return LinComb(tensor_kind(UPI_KIND), terms)


# ---------------------------------------------------------------------------
# WSym: word symmetric functions by orbit sums

def product_Mw(pi1: SetPartition, pi2: SetPartition) -> LinComb:
    """Merge blocks across the two factors by partial matchings.

    Takes canonical labels: every result lists pi1's blocks, merged or not,
    in pi1's order, then pi2's unmerged shifted blocks in pi2's order, so it
    is canonical as built.
    """
    n = sum(len(b) for b in pi1)
    shifted = [tuple([a + n for a in b]) for b in pi2]
    terms: dict[SetPartition, int] = {}
    for k in range(min(len(pi1), len(shifted)) + 1):
        for left in itertools.combinations(range(len(pi1)), k):
            for right in itertools.permutations(range(len(shifted)), k):
                blocks = list(pi1)
                for i, j in zip(left, right):
                    blocks[i] += shifted[j]
                blocks += [b for j, b in enumerate(shifted) if j not in right]
                pi = tuple(blocks)
                terms[pi] = terms.get(pi, 0) + 1
    return LinComb(MW_KIND, terms)


def coproduct_Mw(pi: SetPartition) -> LinComb:
    """Ordered alphabet-sum coproduct: blocks split into two standardized groups.

    Takes a canonical label: each subset of its blocks is standardized
    once, by the rank of its letters, and keeps its order, so it is canonical.
    """
    full = (1 << len(pi)) - 1
    std: list[SetPartition] = []
    for mask in range(full + 1):
        group = [b for i, b in enumerate(pi) if mask >> i & 1]
        letters = sorted([a for b in group for a in b])
        rank = dict(zip(letters, range(1, len(letters) + 1)))
        std.append(tuple([tuple([rank[a] for a in b]) for b in group]))
    terms: dict[tuple[SetPartition, SetPartition], int] = {}
    for size in range(len(pi) + 1):
        for chosen in itertools.combinations(range(len(pi)), size):
            mask = sum(1 << i for i in chosen)
            key = (std[mask], std[full ^ mask])
            terms[key] = terms.get(key, 0) + 1
    return LinComb(tensor_kind(MW_KIND), terms)


def mw_words(pi: SetPartition, n_letters: int) -> list[Word]:
    """The orbit of words whose equal-letter positions realize the partition."""
    n = sum(len(b) for b in pi)
    return [
        w
        for w in itertools.product(range(1, n_letters + 1), repeat=n)
        if partition_of_word(w) == pi
    ]


def mw_word_product_check(pi1: SetPartition, pi2: SetPartition) -> bool:
    """Compare the matching rule with the concatenation of realized orbits."""
    n = sum(len(b) for b in pi1)
    m = sum(len(b) for b in pi2)
    n_letters = n + m
    expected: dict[Word, int] = {}
    for u in mw_words(pi1, n_letters):
        for v in mw_words(pi2, n_letters):
            w = u + v
            expected[w] = expected.get(w, 0) + 1
    combined: dict[Word, int] = {}
    for pi, c in product_Mw(pi1, pi2).terms.items():
        for w in mw_words(pi, n_letters):
            combined[w] = combined.get(w, 0) + c
    return combined == expected


# ---------------------------------------------------------------------------
# QSym embedding on compositions

def uq_expand(comp: Composition) -> LinComb:
    n = sum(comp)
    terms = {
        sigma: 1 for sigma in permutations(n) if ordered_cycle_type(sigma) == comp
    }
    return LinComb(M_KIND, terms)


def product_uq(comp1: Composition, comp2: Composition) -> LinComb:
    terms: dict[Composition, int] = {}
    for comp in shuffle(tuple(comp1), tuple(comp2)):
        terms[comp] = terms.get(comp, 0) + 1
    return LinComb(UQ_KIND, terms)


def coproduct_uq(comp: Composition) -> LinComb:
    terms: dict[tuple[Composition, Composition], int] = {}
    for k in range(len(comp) + 1):
        key = (comp[:k], comp[k:])
        terms[key] = terms.get(key, 0) + 1
    return LinComb(tensor_kind(UQ_KIND), terms)


# ---------------------------------------------------------------------------
# Sym embedding on integer partitions

def ul_expand(lam: IntegerPartition) -> LinComb:
    return LinComb(M_KIND, dict.fromkeys(permutations_of_type(lam, sum(lam)), 1))


def multiset_rules(kind: str, canonical: Callable[[Iterable], tuple]) -> tuple[Callable, Callable]:
    """Product and coproduct of the polynomial algebra on connected pieces,
    in the basis N_A = prod over pieces c of x_c^(m_c) / m_c!, where m_c is
    how often c occurs in the multiset A.

    Labels are multisets of pieces held as tuples that ``canonical`` sorts:
    cycle types of permutations here, connected functional graphs and rooted
    trees in :mod:`parkfunc`.  The product is the multiset union A + B,
    N_A N_B = prod over c of C(m_c(A) + m_c(B), m_c(A)) N_(A + B), and the
    coproduct takes every distinct split of the multiset once: on the class
    sums, a pair of labels arises from exactly one (labelled object, cut)
    pair per labelled pair.
    """
    def product(a: tuple, b: tuple) -> LinComb:
        mb = Counter(b)
        coeff = 1
        for piece, mult in Counter(a).items():
            coeff *= comb(mult + mb[piece], mult)
        return LinComb.basis(kind, canonical(a + b), coeff)

    def coproduct(a: tuple) -> LinComb:
        terms = {(canonical(left), canonical(right)): 1 for left, right in multiset_splits(a)}
        return LinComb(tensor_kind(kind), terms)

    return product, coproduct


product_ul, coproduct_ul = multiset_rules(UL_KIND, sort_composition)


# ---------------------------------------------------------------------------
# the embedding j of ordinary symmetric functions, checked in the oracle ring

def sign_of(sigma: Word) -> int:
    return -1 if (len(sigma) - len(cycles(sigma))) % 2 else 1


@lru_cache(maxsize=None)
def character(lam: IntegerPartition, mu: IntegerPartition) -> int:
    """Irreducible character value: coefficient of the Schur function indexed
    by lam in the power-sum product of mu."""
    value = symfunc.convert(symfunc.basis_in_m("p", mu), "s")[lam]
    frac = Fraction(value)
    if frac.denominator != 1:
        raise AssertionError("character value is not integral")
    return int(frac)


def j_power_sum_check(n: int, n_trunc: int) -> bool:
    """tr(X^n) equals n times the realization of the full-cycle class sum."""
    lhs = trace_power(n, n_trunc)
    rhs = realize_lincomb(ul_expand((n,)), n_trunc).scale(n)
    return lhs == rhs


def j_image(x: LinComb) -> LinComb:
    """The embedding j of symmetric functions into the M basis.

    j is multiplicative and sends p_n to n times the class sum of the
    n-cycles, as :func:`j_power_sum_check` realizes, so x is expanded in
    power sums and each p_lam multiplied out through ``product_M``.  The
    coefficients are Fractions, integral when x is.
    """
    def j_power(lam: IntegerPartition) -> LinComb:
        out = LinComb.basis(M_KIND, ())
        for part in lam:
            out = bilinear(out, ul_expand((part,)).scale(part), product_M)
        return out

    return symfunc.convert(x, "p").apply(j_power, kind=M_KIND)


def j_elementary_check(n: int) -> bool:
    """j(e_n) is the signed class sum, whose realization is the sum of the
    principal n-minors."""
    signed = LinComb(M_KIND, {sigma: sign_of(sigma) for sigma in permutations(n)})
    return j_image(symfunc.sym("e", (n,))) == signed


def j_complete_check(n: int) -> bool:
    """j(h_n) is the plain class sum, realized as the principal n-permanents."""
    full = LinComb(M_KIND, dict.fromkeys(permutations(n), 1))
    return j_image(symfunc.sym("h", (n,))) == full


def j_schur_check(lam: IntegerPartition) -> bool:
    """j(s_lam) of a hook or two-row shape is the character-weighted class
    sum, realized as the principal immanants."""
    lam = tuple(sorted(lam, reverse=True))
    n = sum(lam)
    is_hook = len(lam) <= 1 or all(p == 1 for p in lam[1:])
    if not (is_hook or len(lam) <= 2) or n > 4:
        raise ValueError("immanant check is limited to hook/two-row shapes of weight <= 4")
    weighted = LinComb(
        M_KIND, {s: character(lam, cycle_type(s)) for s in permutations(n)}
    )
    return j_image(symfunc.sym("s", lam)) == weighted


# ---------------------------------------------------------------------------
# subalgebra closure

def subalgebra_closure_check(predicate: Callable, degree_bound: int) -> CheckResult:
    """Whether products and coproducts of predicate-satisfying permutations
    expand only over predicate-satisfying labels, up to the degree bound.

    The cases are every label ``(sigma,)``, read through its coproduct's
    nonempty factors, then every pair ``(alpha, beta)``, read through its
    product's terms.
    """
    def closed(*labels: Word) -> bool:
        if len(labels) == 1:
            images = (x for pair in coproduct_M(*labels).terms for x in pair if x)
        else:
            images = product_M(*labels).terms
        return not all(map(predicate, labels)) or all(map(predicate, images))

    cases = itertools.chain(graded_labels(permutations, degree_bound),
                            graded_pairs(permutations, degree_bound))
    return check_each(cases, closed)


# ---------------------------------------------------------------------------
# the quotient of WSym and Bell polynomials

def product_V(comp1: Composition, comp2: Composition) -> LinComb:
    product = product_Mw(consecutive_blocks(comp1), consecutive_blocks(comp2))
    return product.map_labels(block_composition, V_KIND)


def quotient_well_defined(degree_bound: int) -> CheckResult:
    """Class products are independent of the representative set partitions."""
    return check_each(
        graded_pairs(set_partitions, degree_bound),
        lambda pi1, pi2: product_Mw(pi1, pi2).map_labels(block_composition, V_KIND)
        == product_V(block_composition(pi1), block_composition(pi2)))


def bell_polynomial(n: int) -> dict[IntegerPartition, int]:
    """Coefficients c_lam of the n-th power of the one-block class."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    power = LinComb.basis(MW_KIND, ())
    for _ in range(n):
        power = power.apply(lambda pi: product_Mw(pi, ((1,),)), kind=MW_KIND)
    return power.map_labels(lambda pi: sort_composition(block_composition(pi)), "bell").terms


def bell_series_oracle(n: int) -> dict[IntegerPartition, int]:
    """Coefficient of t^n/n! in exp(sum_k x_k t^k / k!), by series expansion."""
    # polynomials: partition label -> Fraction, graded by sum of parts
    exp_series: dict[IntegerPartition, Fraction] = {(): Fraction(1)}
    term: dict[IntegerPartition, Fraction] = {(): Fraction(1)}
    gens = {(k,): Fraction(1, factorial(k)) for k in range(1, n + 1)}
    for j in range(1, n + 1):
        nxt: dict[IntegerPartition, Fraction] = {}
        for lam, c in term.items():
            if sum(lam) >= n + 1:
                continue
            for (k,), ck in gens.items():
                if sum(lam) + k > n:
                    continue
                merged = sort_composition(lam + (k,))
                nxt[merged] = nxt.get(merged, Fraction(0)) + c * ck / j
        term = nxt
        for lam, c in term.items():
            exp_series[lam] = exp_series.get(lam, Fraction(0)) + c
    out: dict[IntegerPartition, int] = {}
    for lam, c in exp_series.items():
        if sum(lam) == n:
            value = c * factorial(n)
            if value.denominator != 1:
                raise AssertionError("Bell series coefficient is not integral")
            if value:
                out[lam] = int(value)
    return out


def bell_check(n: int) -> bool:
    return bell_polynomial(n) == bell_series_oracle(n)


def commutative_image_coeff(lam: IntegerPartition) -> int:
    """Multiplier making the commutative image of an orbit sum a monomial."""
    out = 1
    for mult in Counter(lam).values():
        out *= factorial(mult)
    return out


def full_cycle_S_primitive(n: int) -> CheckResult:
    """Dual-side primitivity of the classes of full cycles: one case per
    permutation of size n."""
    return check_each(
        ((sigma,) for sigma in permutations(n)),
        lambda sigma: len(cycles(sigma)) != 1
        or coproduct_S(sigma).terms == {(sigma, ()): 1, ((), sigma): 1})


# ---------------------------------------------------------------------------
# algebra adapters

def algebra() -> GradedBasis:
    return GradedBasis(M_KIND, FAMILIES["permutations"], product_M, coproduct_M)


def dual_algebra() -> GradedBasis:
    return GradedBasis(S_KIND, FAMILIES["permutations"], product_S, coproduct_S)


def piqsym_algebra() -> GradedBasis:
    return GradedBasis(UPI_KIND, FAMILIES["set_partitions"], product_upi, coproduct_upi)


def wsym_algebra() -> GradedBasis:
    return GradedBasis(MW_KIND, FAMILIES["set_partitions"], product_Mw, coproduct_Mw)


def qsym_algebra() -> GradedBasis:
    return GradedBasis(UQ_KIND, FAMILIES["compositions"], product_uq, coproduct_uq)


def sym_algebra() -> GradedBasis:
    return GradedBasis(UL_KIND, FAMILIES["partitions"], product_ul, coproduct_ul)
