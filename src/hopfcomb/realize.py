"""Truncated polynomial realizations used as independent product oracles.

Three rings, all exact and finite at truncation N:

- a commutative ring in doubly indexed variables where any two variables
  sharing a row index multiply to zero (squarefree row-distinct monomials);
- a noncommutative biword ring whose monomials are concatenated two-row
  arrays;
- a ring of q-commuting variables where out-of-order products reorder at
  the cost of one power of q per swap.
"""
from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from .coeffs import QPoly
from .lincomb import LinComb
from .words import (
    Cycle,
    Word,
    cycle_from_word,
    cycle_supports,
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


def row_mul(x: LinComb, y: LinComb) -> LinComb:
    out: dict[RowMonomial, int] = {}
    for ma, ca in x.terms.items():
        for mb, cb in y.terms.items():
            m = row_monomial(ma + mb)
            if m is not None:
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


def diagonal_weighted_sum(n: int, n_trunc: int, weight) -> LinComb:
    """Sum over order-n diagonal index sets of sum_sigma weight(sigma) prod x.

    weight maps a permutation word to an integer; weight=sign gives minors,
    weight=1 the permanent, a character gives immanants.
    """
    terms: dict[RowMonomial, int] = {}
    for support in itertools.combinations(range(1, n_trunc + 1), n):
        for sigma in itertools.permutations(range(1, n + 1)):
            w = weight(sigma)
            if not w:
                continue
            mono = tuple(sorted((support[k], support[sigma[k] - 1]) for k in range(n)))
            terms[mono] = terms.get(mono, 0) + w
    return LinComb(ROW_KIND, terms)


# ---------------------------------------------------------------------------
# noncommutative biword ring

BIWORD_KIND = "biword"
Biword = tuple[Word, Word]


def biword_mul(x: LinComb, y: LinComb) -> LinComb:
    out: dict[Biword, int] = {}
    for (xa, aa), ca in x.terms.items():
        for (xb, ab), cb in y.terms.items():
            key = (xa + xb, aa + ab)
            out[key] = out.get(key, 0) + ca * cb
    return LinComb(BIWORD_KIND, out)


def cycle_of_subword(a_sub: Sequence[int]) -> Cycle:
    """The cycle read off a bottom-row subword: its standardized word inverted,
    interpreted as a cycle word."""
    return cycle_from_word(inverse(standardize(a_sub)))


def classify_biword(top: Word, bottom: Word) -> Word:
    """The unique permutation whose realization contains the given biword."""
    blocks = partition_of_word(top)
    assembled = []
    for block in blocks:
        sub = tuple(bottom[p - 1] for p in block)
        std_cycle = cycle_of_subword(sub)
        support = sorted(block)
        assembled.append(tuple(support[v - 1] for v in std_cycle))
    from .words import from_cycles

    return from_cycles(assembled, len(top))


def realize_phi(sigma: Word, n_trunc: int) -> LinComb:
    """All truncated biwords classifying to sigma: top letters and bottom
    letters bounded by the truncation."""
    n = len(sigma)
    support_partition = cycle_supports(sigma)
    terms: dict[Biword, int] = {}
    for top in itertools.product(range(1, n_trunc + 1), repeat=n):
        if partition_of_word(top) != support_partition:
            continue
        for bottom in itertools.product(range(1, n_trunc + 1), repeat=n):
            if classify_biword(top, bottom) == sigma:
                terms[(top, bottom)] = 1
    return LinComb(BIWORD_KIND, terms)


def collect_biwords(x: LinComb) -> LinComb:
    """Group a biword polynomial into permutation classes."""
    out: dict[Word, int] = {}
    for (top, bottom), c in x.terms.items():
        sigma = classify_biword(top, bottom)
        out[sigma] = out.get(sigma, 0) + c
    return LinComb("phisym:phi", out)


# ---------------------------------------------------------------------------
# q-commuting variables

QMONO_KIND = "qring"
ExponentVector = tuple[int, ...]


def qvar_mul(x: LinComb, y: LinComb) -> LinComb:
    """Product with x_j x_i = q x_i x_j for j > i, results normal ordered."""
    out: dict[ExponentVector, QPoly] = {}
    for va, ca in x.terms.items():
        for vb, cb in y.terms.items():
            swaps = 0
            for i in range(len(vb)):
                if vb[i]:
                    swaps += vb[i] * sum(va[i + 1 :])
            vec = tuple(a + b for a, b in zip(va, vb))
            coeff = QPoly.coerce(ca) * QPoly.coerce(cb) * QPoly.monomial(swaps)
            prev = out.get(vec)
            out[vec] = coeff if prev is None else prev + coeff
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

    terms: dict[ExponentVector, QPoly] = {}

    def rec(position: int, lowest: int, vec: list[int]) -> None:
        if position == n:
            key = tuple(vec)
            prev = terms.get(key)
            one = QPoly.const(1)
            terms[key] = one if prev is None else prev + one
            return
        for letter in range(lowest, n_trunc + 1):
            vec[letter - 1] += 1
            rec(position + 1, letter + 1 if position + 1 in descents else letter, vec)
            vec[letter - 1] -= 1

    if n == 0:
        return LinComb(QMONO_KIND, {(0,) * n_trunc: QPoly.const(1)})
    rec(0, 1, [0] * n_trunc)
    return LinComb(QMONO_KIND, terms)
