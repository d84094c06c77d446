"""One-parameter deformations: twisted coproducts, q-congruences, q=0 limit.

The deformation never touches the products; coproducts acquire powers of q
counted by crossing inversions, and comultiplicativity holds for the tensor
product twisted by q^(deg x deg).  QSym_q's M basis deconcatenates with
coefficient 1, as the uq basis of sgqsym's quasi-symmetric embedding does,
and takes that rule.  Two q-rewriting systems give quotients with class
censuses by descent compositions and by binary trees, counted as the
irreducible permutations that a local rule on adjacent letters generates.
"""
from __future__ import annotations

import itertools
from bisect import bisect
from functools import lru_cache, partial
from typing import Iterator

from . import sgqsym
from .axioms import CheckResult, check_each, graded_labels
from .coeffs import QPoly
from .lincomb import LinComb, relabelled, tensor_kind, tensor_mul, tensor_swap, twisted_tensor_mul
from .limits import guard
from .realize import QMONO_KIND, qvar_mul, realize_fundamental
from .words import (
    Composition,
    Word,
    connected_factorization,
    descent_composition,
    inversions,
    shifted_shuffle,
    standardize,
)

F_KIND = "fqsym-q:F"
QM_KIND = "qsym-q:M"
QF_KIND = "qsym-q:F"
NS_KIND = "ncsf-q:S"


def chi(deg_left: int, deg_right: int) -> QPoly:
    return QPoly.monomial(deg_left * deg_right)


def chi_len(b: Word, a: Word) -> QPoly:
    return chi(len(b), len(a))


def chi_sum(b: Composition, a: Composition) -> QPoly:
    return chi(sum(b), sum(a))


# ---------------------------------------------------------------------------
# QSym_q and NCSF_q on compositions

coproduct_q_M = relabelled(tensor_kind(QM_KIND), sgqsym.coproduct_uq)


def product_S_ncsf(comp1: Composition, comp2: Composition) -> LinComb:
    return LinComb.basis(NS_KIND, comp1 + comp2, QPoly.const(1))


def coproduct_q_S_generator(n: int) -> LinComb:
    terms = {
        ((i,) if i else (), (n - i,) if n - i else ()): QPoly.monomial(i * (n - i))
        for i in range(n + 1)
    }
    return LinComb(tensor_kind(NS_KIND), terms)


def coproduct_q_S(comp: Composition) -> LinComb:
    """Twisted-multiplicative extension over the parts of the composition."""
    out = LinComb.basis(tensor_kind(NS_KIND), ((), ()), QPoly.const(1))
    for part in comp:
        out = twisted_tensor_mul(
            out, coproduct_q_S_generator(part), product_S_ncsf, chi_sum
        )
    return out


# ---------------------------------------------------------------------------
# FQSym_q

def product_F(alpha: Word, beta: Word) -> LinComb:
    terms = {sigma: QPoly.const(1) for sigma in shifted_shuffle(alpha, beta)}
    return LinComb(F_KIND, terms)


def crossing_inversions(sigma: Word, k: int) -> int:
    return sum(
        1
        for i in range(k)
        for j in range(k, len(sigma))
        if sigma[i] > sigma[j]
    )


def coproduct_q_F(sigma: Word) -> LinComb:
    terms: dict[tuple[Word, Word], QPoly] = {}
    for k in range(len(sigma) + 1):
        key = (standardize(sigma[:k]), standardize(sigma[k:]))
        power = QPoly.monomial(crossing_inversions(sigma, k))
        prev = terms.get(key)
        terms[key] = power if prev is None else prev + power
    return LinComb(tensor_kind(F_KIND), terms)


def coproduct_q1_F(sigma: Word) -> LinComb:
    """Specialization q = 1: the ordinary unshifted coproduct."""
    return coproduct_q_F(sigma).map_coeffs(lambda c: QPoly.coerce(c).subs(1))


def ordinary_coproduct_F(sigma: Word) -> LinComb:
    terms: dict[tuple[Word, Word], int] = {}
    for k in range(len(sigma) + 1):
        key = (standardize(sigma[:k]), standardize(sigma[k:]))
        terms[key] = terms.get(key, 0) + 1
    return LinComb(tensor_kind(F_KIND), terms)


# ---------------------------------------------------------------------------
# the morphism to quantum quasi-symmetric functions

def phi_map(sigma: Word) -> LinComb:
    """Image q^(inversions) times the fundamental of the descent composition."""
    return LinComb.basis(
        QF_KIND, descent_composition(sigma), QPoly.monomial(inversions(sigma))
    )


def phi_lincomb(x: LinComb) -> LinComb:
    return x.apply(phi_map, kind=QF_KIND)


@lru_cache(maxsize=None)
def _fundamental(comp: Composition, n_trunc: int) -> LinComb:
    return realize_fundamental(comp, n_trunc)


def phi_realized(x: LinComb, n_trunc: int) -> LinComb:
    """Evaluate an image of phi in the ring of q-commuting variables.

    Each cached fundamental's terms are shifted to each power of q in its
    composition's coefficient.
    """
    out: dict[tuple, int] = {}
    for comp, c in x.terms.items():
        powers = [(e, a) for e, a in enumerate(QPoly.coerce(c).coeffs) if a]
        for (vec, ef), f in _fundamental(comp, n_trunc).terms.items():
            for e, a in powers:
                key = (vec, ef + e)
                out[key] = out.get(key, 0) + a * f
    return LinComb(QMONO_KIND, out)


def phi_morphism_check(alpha: Word, beta: Word, n_trunc: int | None = None) -> bool:
    """phi(F_alpha F_beta) = phi(F_alpha) phi(F_beta) at a faithful truncation.

    The truncation must be at least the total degree: below it, the
    fundamentals with more parts than letters vanish, so a dropped term
    can go unseen.
    """
    if n_trunc is None:
        n_trunc = len(alpha) + len(beta) + 1
    if n_trunc < len(alpha) + len(beta):
        raise ValueError("truncation too small to separate degree-(n+m) labels")
    lhs = phi_realized(phi_lincomb(product_F(alpha, beta)), n_trunc)
    rhs = qvar_mul(
        phi_realized(phi_map(alpha), n_trunc),
        phi_realized(phi_map(beta), n_trunc),
    )
    return lhs == rhs


# ---------------------------------------------------------------------------
# q-congruences: rewriting to canonical forms

def _qs_applicable(w: Word, i: int) -> bool:
    c, a = w[i], w[i + 1]
    return a < c and any(a <= w[t] < c for t in range(i + 2, len(w)))


def _qh_applicable(w: Word, i: int) -> bool:
    """A descent c a with a witness on its left, a < w[s] <= c, or a qS step."""
    c, a = w[i], w[i + 1]
    return a < c and (any(a < w[s] <= c for s in range(i)) or _qs_applicable(w, i))


# Each system's step predicate and its follower rule: the only letter below c
# that may follow c in an irreducible permutation, given the unused letters in
# increasing order (a value that is no unused letter below c lets none follow).
_SYSTEMS = {
    "qH": (_qh_applicable, lambda c, unused: c - 1),
    "qS": (_qs_applicable, lambda c, unused: ((0,) + unused)[bisect(unused, c)]),
}


def _system(system: str):
    if system not in _SYSTEMS:
        raise ValueError(f"unknown rewriting system {system!r}")
    return _SYSTEMS[system]


def _positions(w: Word, applicable) -> Iterator[int]:
    """Positions of w where a rewrite step applies, in increasing order."""
    return filter(partial(applicable, w), range(len(w) - 1))


def _swap(w: Word, i: int) -> Word:
    return w[:i] + (w[i + 1], w[i]) + w[i + 2 :]


def rewrite_steps(w: Word, system: str) -> list[Word]:
    return [_swap(w, i) for i in _positions(w, _system(system)[0])]


def q_rewrite(w: Word, system: str) -> tuple[Word, int]:
    """Normal form with the accumulated q exponent (one per swap).

    Each step is the first one ``rewrite_steps`` lists: the swap at the
    least applicable position.
    """
    applicable, _ = _system(system)
    guard("rewrite_length", len(w))
    exponent = 0
    current = tuple(w)
    while (i := next(_positions(current, applicable), None)) is not None:
        current = _swap(current, i)
        exponent += 1
    return current, exponent


def confluence_check(system: str, length: int, n_letters: int) -> CheckResult:
    """All rewriting orders reach one normal form, on all words of the size;
    one case ``(w,)`` per word."""
    def confluent(w: Word) -> bool:
        seen = {w}
        frontier = [w]
        normal_forms = set()
        while frontier:
            current = frontier.pop()
            steps = rewrite_steps(current, system)
            if not steps:
                normal_forms.add(current)
            for nxt in steps:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return len(normal_forms) == 1

    guard("rewrite_length", length)
    words = itertools.product(range(1, n_letters + 1), repeat=length)
    return check_each(((w,) for w in words), confluent)


def irreducible_permutations(system: str, n: int) -> Iterator[Word]:
    """The permutations of size n where no rewrite step applies.

    They grow letter by letter, never from a prefix that holds a step: its
    witness stays in every extension.  In a permutation a descent ``c a`` is
    a step exactly when a value strictly between a and c lies to its right
    (qS) or anywhere (qH).  So after the last letter c any unused larger
    letter may follow, since every earlier descent's gap is filled, and of
    the smaller ones only the largest unused one (qS) or c - 1 (qH).  An
    extension b that leaves letters unused, none of which may follow b, is a
    dead end and is skipped: they all lie below b, so only the largest could.
    """
    _, follower = _system(system)
    if n < 0:
        raise ValueError("n must be nonnegative")
    guard("permutations", n)

    def grow(prefix: Word, c: int, unused: Word) -> Iterator[Word]:
        if not unused:
            yield prefix
        below = follower(c, unused)
        for k, b in enumerate(unused):
            if b > c or b == below:
                rest = unused[:k] + unused[k + 1 :]
                if not rest or rest[-1] > b or follower(b, rest) == rest[-1]:
                    yield from grow(prefix + (b,), b, rest)

    return grow((), 0, tuple(range(1, n + 1)))


def class_census(system: str, n: int) -> int:
    """Number of rewriting classes of permutations, forgetting q powers: a step
    swaps two adjacent letters, so the normal forms of S_n are exactly its
    irreducible permutations, and these are generated and counted."""
    return sum(1 for _ in irreducible_permutations(system, n))


# ---------------------------------------------------------------------------
# the q=0 cocommutative specialization

def _primitive(sigma: Word) -> LinComb:
    terms = {
        (sigma, ()): 1,
        ((), sigma): 1,
    }
    return LinComb(tensor_kind(F_KIND), terms)


def product_F_plain(alpha: Word, beta: Word) -> LinComb:
    return LinComb(F_KIND, {s: 1 for s in shifted_shuffle(alpha, beta)})


def q0_coproduct(sigma: Word) -> LinComb:
    """Primitive on connected factors, extended as an algebra morphism."""
    out = LinComb.basis(tensor_kind(F_KIND), ((), ()), 1)
    for factor in connected_factorization(sigma):
        out = tensor_mul(out, _primitive(factor), product_F_plain)
    return out


def cocommutativity_check(degree_bound: int) -> CheckResult:
    """The q = 0 coproduct is cocommutative on every permutation up to the bound."""
    def symmetric(sigma: Word) -> bool:
        cop = q0_coproduct(sigma)
        return tensor_swap(cop) == cop

    return check_each(graded_labels("permutations", degree_bound), symmetric)
