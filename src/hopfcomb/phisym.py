"""The cocommutative Hopf algebra of permutations built on cycle structure.

Products merge cycles through the matching (Wick-style) product of cyclic
shuffles; the coproduct unshuffles cycles.  The unions of cycles are the
subsets stable with a stable complement, so that coproduct is the
stable-split coproduct of the endofunction dual, and is bound to it.  Two
multiplicative bases are provided, both triangular over the natural one by
cycle count, and both multiply by shifted concatenation: ``Ss`` is the S
basis of sgqsym, and ``Sp`` comultiplies factor by factor, as phi on each
connected factor.  The quotient by cycle type is isomorphic to ordinary
symmetric functions.
"""
from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import cache, lru_cache
from math import factorial, prod

from . import eqsym, sgqsym, symfunc
from .axioms import CheckResult, check_each, graded_pairs
from .lincomb import LinComb, bilinear, relabelled, tensor, tensor_kind, tensor_mul
from .realize import phi_factors
from .words import (
    Cycle,
    CycleSet,
    IntegerPartition,
    Word,
    canonical_cycle,
    connected_factorization,
    consecutive_blocks,
    cycle_type,
    cycle_words,
    cycles,
    from_cycles,
    shuffle,
)

PHI_KIND = "phisym:phi"
SPRIME_KIND = "phisym:Sp"
SSECOND_KIND = "phisym:Ss"
Y_KIND = "phisym:Y"


def cyclic_shuffle(c1: Cycle, c2: Cycle) -> frozenset[Cycle]:
    """All cycles whose cycle words shuffle the cycle words of the arguments.

    >>> sorted(cyclic_shuffle((1,), (2,)))
    [(1, 2)]
    """
    if set(c1) & set(c2):
        raise ValueError("cyclic shuffle requires disjoint supports")
    # Rotating a merged cycle word to start at c1's first letter leaves c1
    # unrotated and c2 in one rotation, so each merged cycle is built once.
    head, rest = c1[:1], c1[1:]
    return frozenset(
        canonical_cycle(head + u) for w2 in cycle_words(c2) for u in shuffle(rest, w2)
    )


def canonical_cycle_set(cycle_set) -> CycleSet:
    return tuple(sorted((tuple(c) for c in cycle_set), key=lambda c: c[0]))


def matching_product(c_set1, c_set2) -> set[CycleSet]:
    """Union over partial pairings of the two cycle sets of all cyclic merges."""
    c1 = list(c_set1)
    c2 = list(c_set2)
    out: set[CycleSet] = set()
    for k in range(min(len(c1), len(c2)) + 1):
        for left in itertools.combinations(range(len(c1)), k):
            rest1 = [c1[i] for i in range(len(c1)) if i not in left]
            for right in itertools.permutations(range(len(c2)), k):
                rest2 = [c2[j] for j in range(len(c2)) if j not in right]
                merge_options = [
                    sorted(cyclic_shuffle(c1[i], c2[j])) for i, j in zip(left, right)
                ]
                for merged in itertools.product(*merge_options):
                    out.add(canonical_cycle_set(list(merged) + rest1 + rest2))
    return out


def product_phi(sigma: Word, tau: Word) -> LinComb:
    """All permutations whose cycle decomposition lies in the matching product
    of the two (shifted-apart) cycle sets; every coefficient is 0 or 1."""
    n = len(sigma)
    shifted = tuple(tuple(a + n for a in c) for c in cycles(tau))
    terms = {
        from_cycles(cs, n + len(tau)): 1
        for cs in matching_product(cycles(sigma), shifted)
    }
    return LinComb(PHI_KIND, terms)


# Unshuffle the cycles, renumbering both parts: the stable splits of sigma.
coproduct_phi = relabelled(tensor_kind(PHI_KIND), eqsym.coproduct_S)


# ---------------------------------------------------------------------------
# the multiplicative bases

def phi_elem(sigma: Word) -> LinComb:
    return LinComb.basis(PHI_KIND, sigma)


def sprime_expand(sigma: Word) -> LinComb:
    """Expansion of the first multiplicative basis: the product of the natural
    basis elements of the connected factors."""
    out = phi_elem(())
    for factor in connected_factorization(sigma):
        out = bilinear(out, phi_elem(factor), product_phi)
    return out


def ssecond_expand(sigma: Word) -> LinComb:
    """Expansion of the second multiplicative basis: the iterated matching
    product of the individual cycles."""
    cyc = cycles(sigma)
    if not cyc:
        return phi_elem(())
    state: set[CycleSet] = {canonical_cycle_set([cyc[0]])}
    for c in cyc[1:]:
        state = {
            result
            for cs in state
            for result in matching_product(cs, [c])
        }
    n = len(sigma)
    return LinComb(PHI_KIND, {from_cycles(cs, n): 1 for cs in state})


def _triangular_convert(x: LinComb, expand, target_kind: str) -> LinComb:
    """Invert a unitriangular (by cycle count) basis expansion exactly.  The
    pending phi terms are kept in one dict per cycle count; each step solves
    for the largest label of the largest count and subtracts its expansion
    in place."""
    pending: dict[int, dict[Word, object]] = {}
    for sigma, c in x.terms.items():
        pending.setdefault(len(cycles(sigma)), {})[sigma] = c
    out: dict[Word, object] = {}
    while pending:
        top = pending[max(pending)]
        sigma = max(top)
        c = top[sigma]
        out[sigma] = out.get(sigma, 0) + c
        for tau, d in expand(sigma).terms.items():
            k = len(cycles(tau))
            bucket = pending.setdefault(k, {})
            bucket[tau] = bucket.get(tau, 0) - d * c
            if not bucket[tau]:
                del bucket[tau]
                if not bucket:
                    del pending[k]
    return LinComb(target_kind, out)


def phi_to_sprime(x: LinComb) -> LinComb:
    return _triangular_convert(x, sprime_expand, SPRIME_KIND)


def phi_to_ssecond(x: LinComb) -> LinComb:
    """Invert ``ssecond_expand`` in one pass over its terms: they are the tau
    whose cycles C each merge k_C of sigma's cycles, all with coefficient 1, so
    [sigma, tau] is a product of partition lattices, whose Moebius function
    (Rota, 1964) gives phi_sigma = sum_tau prod_C (-1)^(k_C-1) (k_C-1)! Ss_tau."""
    def inverse(sigma: Word) -> LinComb:
        firsts = [c[0] for c in cycles(sigma)]
        terms = {}
        for tau in ssecond_expand(sigma).terms:
            cycle_of = {a: c[0] for c in cycles(tau) for a in c}
            k = Counter(cycle_of[a] for a in firsts).values()
            terms[tau] = prod((-1) ** (j - 1) * factorial(j - 1) for j in k)
        return LinComb(SSECOND_KIND, terms)
    return x.apply(inverse, kind=SSECOND_KIND)


def sprime_to_phi(x: LinComb) -> LinComb:
    return x.apply(sprime_expand, kind=PHI_KIND)


def ssecond_to_phi(x: LinComb) -> LinComb:
    return x.apply(ssecond_expand, kind=PHI_KIND)


# Both bases multiply by shifted concatenation, so the product of two
# connected factorizations is their concatenation.  Ss_sigma -> S_sigma is an
# isomorphism of Hopf algebras onto the S basis of sgqsym.
product_sprime = relabelled(SPRIME_KIND, eqsym.product_S)
product_ssecond = relabelled(SSECOND_KIND, eqsym.product_S)
coproduct_ssecond = relabelled(tensor_kind(SSECOND_KIND), eqsym.coproduct_S)


def coproduct_sprime(sigma: Word) -> LinComb:
    """The product of the coproducts of the connected factors: on a
    connected f, S'_f = phi_f, so each is phi's coproduct, converted."""
    out = LinComb.basis(tensor_kind(SPRIME_KIND), ((), ()))
    # One solve converts each label once, but the solves of a call's labels
    # meet the same lower labels: they share one memo of the expansions.
    expand = cache(sprime_expand)

    @cache
    def convert(tau: Word) -> LinComb:
        return _triangular_convert(phi_elem(tau), expand, SPRIME_KIND)

    for factor in connected_factorization(sigma):
        cop = _convert_tensor(coproduct_phi(factor), convert, SPRIME_KIND)
        out = tensor_mul(out, cop, product_sprime)
    return out


def _convert_tensor(t: LinComb, convert, target_kind: str) -> LinComb:
    """``t`` with each factor label replaced by ``convert`` of it."""
    return t.apply(lambda ab: tensor(convert(ab[0]), convert(ab[1])),
                   kind=tensor_kind(target_kind))


# ---------------------------------------------------------------------------
# quotient by cycle type

def type_representative(lam: IntegerPartition) -> Word:
    """Consecutive-cycle permutation of the given cycle type."""
    return from_cycles(consecutive_blocks(lam), sum(lam))


def product_Y(lam1: IntegerPartition, lam2: IntegerPartition) -> LinComb:
    product = product_phi(type_representative(lam1), type_representative(lam2))
    return product.map_labels(cycle_type, Y_KIND)


def coproduct_Y(lam: IntegerPartition) -> LinComb:
    return coproduct_phi(type_representative(lam)).map_labels(
        lambda ab: (cycle_type(ab[0]), cycle_type(ab[1])), tensor_kind(Y_KIND))


def y_to_sym(lam: IntegerPartition) -> LinComb:
    """Image of a cycle-type class in monomial symmetric functions."""
    denominator = prod(factorial(part - 1) for part in lam)
    return symfunc.sym("m", lam, Fraction(sgqsym.commutative_image_coeff(lam), denominator))


def y_iso_check(degree_bound: int) -> CheckResult:
    """The cycle-type quotient maps to Sym as an algebra morphism."""
    return check_each(
        graded_pairs("partitions", degree_bound),
        lambda l1, l2: product_Y(l1, l2).apply(y_to_sym, kind=symfunc.kind("m"))
        == symfunc.m_mul(y_to_sym(l1), y_to_sym(l2)))


# ---------------------------------------------------------------------------
# biword oracle

@lru_cache(maxsize=None)
def _realized(sigma: Word, n_trunc: int) -> tuple[tuple[Word, ...], tuple[Word, ...]]:
    return phi_factors(sigma, n_trunc)


def biword_product_check(sigma: Word, tau: Word, n_trunc: int | None = None) -> bool:
    """The concatenated biword realization equals the matching-product rule.

    Each realization is a product T x B of top and bottom words
    (:func:`realize.phi_factors`), so no product is expanded.  The left side
    is (T_sigma T_tau) x (B_sigma B_tau), every coefficient 1, since
    concatenating words of fixed lengths is injective.  The right side is
    the sum of c_gamma T_gamma x B_gamma over the rule's terms: its bottoms
    at a top word are the sum of c_gamma B_gamma over the gammas whose tops
    contain it, summed once per distinct group of (gamma, c_gamma).  That
    sum must be B_sigma B_tau on every left top and vanish on every other,
    and every left top must be covered.

    The truncation must be at least the total degree: below it, the
    permutations with more cycles than letters have no biwords, so a
    dropped term can go unseen.
    """
    if n_trunc is None:
        n_trunc = len(sigma) + len(tau)
    if n_trunc < len(sigma) + len(tau):
        raise ValueError("truncation too small to separate degree-(n+m) labels")
    tops_s, bottoms_s = _realized(sigma, n_trunc)
    tops_t, bottoms_t = _realized(tau, n_trunc)
    lhs_tops = {a + b for a in tops_s for b in tops_t}
    lhs_bottoms = dict.fromkeys((a + b for a in bottoms_s for b in bottoms_t), 1)
    groups: dict[Word, list] = {}
    for gamma, c in product_phi(sigma, tau).terms.items():
        for top in _realized(gamma, n_trunc)[0]:
            groups.setdefault(top, []).append((gamma, c))
    tops_by_group: dict[tuple, list[Word]] = {}
    for top, group in groups.items():
        tops_by_group.setdefault(tuple(group), []).append(top)
    for group, tops in tops_by_group.items():
        acc: dict[Word, int] = {}
        for gamma, c in group:
            for bottom in _realized(gamma, n_trunc)[1]:
                acc[bottom] = acc.get(bottom, 0) + c
        total = {bottom: c for bottom, c in acc.items() if c}
        inside = {top in lhs_tops for top in tops}
        if (True in inside and total != lhs_bottoms) or (False in inside and total):
            return False
    return lhs_tops <= groups.keys()
