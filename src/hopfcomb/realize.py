"""Truncated polynomial realizations used as independent product oracles.

Three rings, all exact and finite at truncation N:

- a commutative ring in doubly indexed variables where any two variables
  sharing a row index multiply to zero (squarefree row-distinct monomials);
- a noncommutative biword ring whose monomials are concatenated two-row
  arrays;
- a ring of q-commuting variables where out-of-order products reorder at
  the cost of one power of q per swap.

Each realization generates its terms from its own definition rather than
filtering a larger set: ``phi_factors`` builds a permutation's biword class
cycle by cycle as a product T x B of top and bottom words, which
``phisym.biword_product_check`` compares without expanding and
``realize_phi`` expands; ``row_mul`` groups the right factor's monomials by
row bitmask and skips a group whose rows meet with one ``&``, so it sorts
only the products that survive; ``qvar_mul`` and ``qdeform.phi_realized``
add plain ints at labels that carry the power of q (see ``QMONO_KIND``).
The brute-force filters and the ``QPoly``-by-term sums survive only in the
tests, as their oracles.  The expanded biword route, ``biword_mul`` with
``realize_phi`` and ``collect_biwords``, is called only by the tests, as
the oracle of the factored check, and stays here because the benchmark's
layer tracer wraps those three by name.

A product check is faithful only when the truncation N is at least the
total degree n + m: below it, labels of the product have no realization
and a dropped term goes unseen.  ``oracle_product_check`` here,
``phisym.biword_product_check`` and ``qdeform.phi_morphism_check`` raise
``ValueError`` for such an N; the last two default to n + m and n + m + 1.
"""
from __future__ import annotations

import itertools
from functools import lru_cache
from operator import add, mul
from typing import Iterable, Sequence

from .lincomb import LinComb
from .words import (
    Cycle,
    Word,
    canonical_cycle,
    cycles,
    from_cycles,
    inverse,
    partition_of_word,
    standardize,
)

# ---------------------------------------------------------------------------
# commutative matrix-entry ring with row-nilpotence

RowMonomial = tuple[tuple[int, int], ...]  # ((row, col), ...) sorted by row

ROW_KIND = "xring"


def row_monomial(pairs: Iterable[tuple[int, int]]) -> RowMonomial | None:
    """Canonical squarefree monomial, or None if a row index repeats."""
    pairs = sorted(pairs)
    rows = [r for r, _ in pairs]
    if len(set(rows)) != len(rows):
        return None
    return tuple(pairs)


def _row_mask(mono: RowMonomial) -> int:
    mask = 0
    for r, _ in mono:
        mask |= 1 << r
    return mask


def row_mul(x: LinComb, y: LinComb) -> LinComb:
    """Product of two polynomials in row-distinct monomials.

    Two monomials multiply to zero exactly when their row sets meet, so the
    right factor's terms are grouped by row bitmask and a whole group is
    skipped with one ``&``; only the surviving pairs are merged and sorted.
    """
    groups: dict[int, list[tuple[RowMonomial, int]]] = {}
    for mb, cb in y.terms.items():
        groups.setdefault(_row_mask(mb), []).append((mb, cb))
    out: dict[RowMonomial, int] = {}
    for ma, ca in x.terms.items():
        mask = _row_mask(ma)
        for mask_b, group in groups.items():
            if mask & mask_b:
                continue
            for mb, cb in group:
                m = tuple(sorted(ma + mb))
                out[m] = out.get(m, 0) + ca * cb
    return LinComb(ROW_KIND, out)


def realize_endofunction(f: Word, n_trunc: int) -> LinComb:
    """Sum over increasing index choices of the matrix-entry monomial of f."""
    n = len(f)
    terms: dict[RowMonomial, int] = {}
    for support in itertools.combinations(range(1, n_trunc + 1), n):
        mono = tuple(sorted((support[k], support[f[k] - 1]) for k in range(n)))
        terms[mono] = terms.get(mono, 0) + 1
    return LinComb(ROW_KIND, terms)


def realize_lincomb(x: LinComb, n_trunc: int) -> LinComb:
    return x.apply(lambda f: realize_endofunction(f, n_trunc), kind=ROW_KIND)


def oracle_product_check(f: Word, g: Word, n_trunc: int, combinatorial: LinComb) -> bool:
    """Whether the expanded polynomial product equals the combinatorial rule."""
    if n_trunc < len(f) + len(g):
        raise ValueError("truncation too small to separate degree-(n+m) labels")
    lhs = row_mul(realize_endofunction(f, n_trunc), realize_endofunction(g, n_trunc))
    return lhs == realize_lincomb(combinatorial, n_trunc)


def trace_power(n: int, n_trunc: int) -> LinComb:
    """tr(X^n) in the truncated ring (row-repeating terms vanish)."""
    terms: dict[RowMonomial, int] = {}
    for seq in itertools.product(range(1, n_trunc + 1), repeat=n):
        mono = row_monomial((seq[k], seq[(k + 1) % n]) for k in range(n))
        if mono is not None:
            terms[mono] = terms.get(mono, 0) + 1
    return LinComb(ROW_KIND, terms)


# ---------------------------------------------------------------------------
# noncommutative biword ring

BIWORD_KIND = "biword"
Biword = tuple[Word, Word]


def biword_mul(x: LinComb, y: LinComb) -> LinComb:
    right = list(y.terms.items())
    out: dict[Biword, int] = {}
    for (xa, aa), ca in x.terms.items():
        for (xb, ab), cb in right:
            key = (xa + xb, aa + ab)
            out[key] = out.get(key, 0) + ca * cb
    return LinComb(BIWORD_KIND, out)


def cycle_of_subword(a_sub: Sequence[int]) -> Cycle:
    """The cycle read off a bottom-row subword: its standardized word inverted,
    interpreted as a cycle word."""
    return canonical_cycle(inverse(standardize(a_sub)))


def classify_biword(top: Word, bottom: Word) -> Word:
    """The unique permutation whose realization contains the given biword."""
    blocks = partition_of_word(top)
    assembled = []
    for block in blocks:
        sub = tuple(bottom[p - 1] for p in block)
        std_cycle = cycle_of_subword(sub)
        support = sorted(block)
        assembled.append(tuple(support[v - 1] for v in std_cycle))
    return from_cycles(assembled, len(top))


@lru_cache(maxsize=None)
def _cycle_subwords(std_cycle: Cycle, n_trunc: int) -> tuple[Word, ...]:
    """Words over 1..N whose :func:`cycle_of_subword` is the given cycle on 1..k."""
    return tuple(
        w
        for w in itertools.product(range(1, n_trunc + 1), repeat=len(std_cycle))
        if cycle_of_subword(w) == std_cycle
    )


def phi_factors(sigma: Word, n_trunc: int) -> tuple[tuple[Word, ...], tuple[Word, ...]]:
    """The truncated biwords classifying to sigma as a Cartesian product
    T x B: the top words T and the bottom words B, each without repeats.

    :func:`classify_biword` reads a biword block by block, so sigma's class
    is a product over its cycles: the top word gives each cycle's support
    its own letter (one top per injective choice of letters), and the
    bottom subword on each support is any word whose cycle is that cycle
    renumbered onto 1..k.
    """
    cyc = cycles(sigma)
    supports = [sorted(c) for c in cyc]
    subword_lists = []
    for c, support in zip(cyc, supports):
        rank = {a: i for i, a in enumerate(support, start=1)}
        subword_lists.append(_cycle_subwords(tuple(rank[a] for a in c), n_trunc))
    # a word is written cycle by cycle, each support in increasing order;
    # slot[p] is where position p + 1 falls in that writing
    written = [p for support in supports for p in support]
    slot = [0] * len(sigma)
    for k, p in enumerate(written):
        slot[p - 1] = k

    def word(per_cycle: Iterable[Sequence[int]]) -> Word:
        flat = [a for part in per_cycle for a in part]
        return tuple([flat[k] for k in slot])

    tops = tuple(
        word([letter] * len(c) for letter, c in zip(letters, cyc))
        for letters in itertools.permutations(range(1, n_trunc + 1), len(cyc))
    )
    bottoms = tuple(word(subwords) for subwords in itertools.product(*subword_lists))
    return tops, bottoms


def realize_phi(sigma: Word, n_trunc: int) -> LinComb:
    """All truncated biwords classifying to sigma, each with coefficient 1:
    the expansion of :func:`phi_factors`."""
    return LinComb(BIWORD_KIND, dict.fromkeys(itertools.product(*phi_factors(sigma, n_trunc)), 1))


def collect_biwords(x: LinComb) -> LinComb:
    """Group a biword polynomial into permutation classes."""
    return x.map_labels(lambda biword: classify_biword(*biword), "phisym:phi")


# ---------------------------------------------------------------------------
# q-commuting variables

# A q-commuting polynomial is a LinComb of this kind with plain int
# coefficients, labelled (vec, e): the normal-ordered monomial
# x_1^vec[0] ... x_N^vec[N-1] of the truncation N = len(vec), times q^e.
QMONO_KIND = "qring"


def qvar_mul(x: LinComb, y: LinComb) -> LinComb:
    """Product with x_j x_i = q x_i x_j for j > i, results normal ordered.

    Moving x_i^b past x_j^a for j > i costs q^(a*b), so a pair of monomials
    picks up q^swaps with swaps = sum_i vb[i] * sum(va[i+1:]).  Both factors
    must be of :data:`QMONO_KIND` at one truncation, else ``ValueError``.
    """
    if x.kind != QMONO_KIND or y.kind != QMONO_KIND:
        raise ValueError(f"qvar_mul of kinds {x.kind!r} and {y.kind!r}")
    if len({len(vec) for vec, _ in itertools.chain(x.terms, y.terms)}) > 1:
        raise ValueError("qvar_mul of factors at different truncations")
    right = [(vb, eb, cb) for (vb, eb), cb in y.terms.items()]
    out: dict[tuple, int] = {}
    for (va, ea), ca in x.terms.items():
        suffix = list(itertools.accumulate(reversed(va[1:]), initial=0))[::-1]
        for vb, eb, cb in right:
            key = (tuple(map(add, va, vb)), ea + eb + sum(map(mul, vb, suffix)))
            out[key] = out.get(key, 0) + ca * cb
    return LinComb(QMONO_KIND, out)


def realize_fundamental(comp: Sequence[int], n_trunc: int) -> LinComb:
    """Quasi-symmetric fundamental function of a composition at truncation N:
    nondecreasing index words, strictly increasing across part boundaries."""
    n = sum(comp)
    descents = set()
    acc = 0
    for part in comp[:-1]:
        acc += part
        descents.add(acc)

    terms: dict[tuple, int] = {}

    def rec(position: int, lowest: int, vec: list[int]) -> None:
        if position == n:
            key = (tuple(vec), 0)
            terms[key] = terms.get(key, 0) + 1
            return
        for letter in range(lowest, n_trunc + 1):
            vec[letter - 1] += 1
            rec(position + 1, letter + 1 if position + 1 in descents else letter, vec)
            vec[letter - 1] -= 1

    rec(0, 1, [0] * n_trunc)
    return LinComb(QMONO_KIND, terms)
