"""The commutative Hopf algebra of endofunctions and its free graded dual.

The M basis is indexed by endofunction words.  The product of M_f and M_g
sums over the ways to split [n+m] into an n-set A and its complement B,
relabelling f on A and g on B through the increasing bijections;
coproducts cut at shifted concatenation boundaries.  The older route,
conjugating the shifted concatenation by shuffle permutations, is kept as
the oracle :func:`product_M_conjugation`.  The dual S basis multiplies by
shifted concatenation, with coproduct given by splitting the ground set
into two complementary stable subsets.
"""
from __future__ import annotations

import itertools
from functools import lru_cache
from operator import itemgetter
from typing import Callable

from .axioms import CheckResult, GradedBasis, check_each
from .limits import guard
from .lincomb import LinComb, tensor_kind
from .realize import oracle_product_check
from .words import (FAMILIES, Word, cut_points, enumerate_family, exact_quotient, inverse,
                    is_connected, shifted_concat, shuffle)

M_KIND = "eqsym:M"
S_KIND = "eqsym:S"
M_TENSOR_KIND = tensor_kind(M_KIND)


@lru_cache(maxsize=64)
def _set_splits(n: int, m: int) -> tuple[tuple[Word, Callable], ...]:
    """One entry ``(ab, place)`` per set split (A, B) of [n+m], |A| = n.

    ``ab = (0,) + A + B`` sends each letter of the shifted concatenation of
    an n-word and an m-word to its place in A or B (the 0 makes lookups
    1-indexed), and ``place`` reorders values listed along A then B into
    positions 1..n+m.  Splits are ordered lexicographically by A, the order
    in which :func:`shuffle` places the letters of its first argument.
    Needs n, m >= 1, so n + m >= 2: an ``itemgetter`` of one index returns
    a bare item.
    The 64 cached entries hold every (n, m) with n + m <= 9; the entries are
    immutable, so callers share them.
    """
    ground = range(1, n + m + 1)
    splits = []
    for chosen in itertools.combinations(ground, n):
        inside = set(chosen)
        ab = chosen + tuple(i for i in ground if i not in inside)
        slot = [0] * (n + m)
        for i, p in enumerate(ab):
            slot[p - 1] = i
        splits.append(((0,) + ab, itemgetter(*slot)))
    return tuple(splits)


def product_M(f: Word, g: Word) -> LinComb:
    """M_f M_g: sum of M_h over set splits (A, B), h = f relabelled on A, g on B.

    When either factor is empty there is one split and no relabelling:
    M_() M_g = M_g and M_f M_() = M_f, returned without reading the split
    table.  The unit law of a sweep asks for these at every label.

    >>> product_M((1,), (1,)).terms
    {(1, 2): 2}
    >>> product_M((), (2, 2)).terms
    {(2, 2): 1}
    """
    n = len(f)
    if not n or not g:
        return LinComb(M_KIND, {f + g: 1})
    values = itemgetter(*f, *(n + x for x in g))
    terms: dict[Word, int] = {}
    for ab, place in _set_splits(n, len(g)):
        h = place(values(ab))
        terms[h] = terms.get(h, 0) + 1
    return LinComb(M_KIND, terms)


def compose(u: Word, v: Word) -> Word:
    """(u o v)(i) = u(v(i))."""
    return tuple(u[v[i] - 1] for i in range(len(v)))


def conjugates(f: Word, g: Word):
    """Stream tau^{-1} o (f.g) o tau over shuffles tau of the index intervals."""
    n, m = len(f), len(g)
    fg = shifted_concat(f, g)
    for tau in shuffle(tuple(range(1, n + 1)), tuple(range(n + 1, n + m + 1))):
        yield compose(inverse(tau), compose(fg, tau))


def product_M_conjugation(f: Word, g: Word) -> LinComb:
    """Oracle for :func:`product_M`: shuffle-conjugation multiplicities."""
    terms: dict[Word, int] = {}
    for h in conjugates(f, g):
        terms[h] = terms.get(h, 0) + 1
    return LinComb(M_KIND, terms)


def coproduct_M(h: Word) -> LinComb:
    """Sum of M_u (x) M_v over the cuts of h = u . v; every cut is distinct.

    The cuts are those of :func:`~hopfcomb.words.cut_points`; the trivial
    cuts 0 and len(h) reuse h, so only a disconnected h walks its cuts.
    """
    terms = {((), h): 1}
    cuts = cut_points(h)
    if len(cuts) > 2:
        for k in cuts[1:-1]:
            terms[(h[:k], tuple(a - k for a in h[k:]))] = 1
    if h:
        terms[(h, ())] = 1
    return LinComb(M_TENSOR_KIND, terms)


def product_S(f: Word, g: Word) -> LinComb:
    return LinComb.basis(S_KIND, shifted_concat(f, g))


def stable_splits(h: Word):
    """Complementary pairs of h-stable subsets, by size and then lexicographically.

    A subset and its complement are both stable exactly when the subset is a
    union of connected components of the graph i -> h(i), so only those
    unions are formed: 2^k splits for k components, where filtering every
    subset of [n] tests 2^n.
    """
    n = len(h)
    root = list(range(n + 1))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for i in range(1, n + 1):
        root[find(i)] = find(h[i - 1])
    parts: dict[int, list[int]] = {}
    for i in range(1, n + 1):
        parts.setdefault(find(i), []).append(i)
    components = list(parts.values())
    splits = []
    for mask in range(1 << len(components)):
        subset: list[int] = []
        complement: list[int] = []
        for k, part in enumerate(components):
            (subset if mask >> k & 1 else complement).extend(part)
        splits.append((tuple(sorted(subset)), tuple(sorted(complement))))
    splits.sort(key=lambda split: (len(split[0]), split[0]))
    return splits


def restrict_std(h: Word, subset: tuple[int, ...]) -> Word:
    """Relabel h restricted to a stable subset through the increasing bijection."""
    rank = {p: i for i, p in enumerate(subset, start=1)}
    return tuple(rank[h[p - 1]] for p in subset)


def coproduct_S(h: Word) -> LinComb:
    terms: dict[tuple[Word, Word], int] = {}
    for subset, complement in stable_splits(h):
        key = (restrict_std(h, subset), restrict_std(h, complement))
        terms[key] = terms.get(key, 0) + 1
    return LinComb(tensor_kind(S_KIND), terms)


# ---------------------------------------------------------------------------
# generating series

def connected_count(n: int) -> int:
    """Number of connected endofunctions of degree n, from C(t) = 1 - 1/E(t):
    1/E is the free algebra on -k^k generators of each degree k."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return -free_dimensions(lambda k: -k**k, n)[n]


def lie_dims(n: int) -> int:
    """Dimension in degree n of the free Lie algebra whose enveloping algebra
    is EQSym.  By PBW, sum of m^m t^m = prod over k of (1 - t^k)^(-L_k); its
    logarithmic derivative gives, with c_m = sum over d | m of d L_d,
    c_m = m m^m - sum over k < m of c_k (m - k)^(m - k), and then
    L_m = (c_m - sum over d | m, d < m, of d L_d) / m, an exact division.

    >>> [lie_dims(n) for n in range(1, 7)]
    [1, 3, 23, 223, 2800, 42576]
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    c = [0] * (n + 1)
    lie = [0] * (n + 1)
    for m in range(1, n + 1):
        c[m] = m * m**m - sum(c[k] * (m - k) ** (m - k) for k in range(1, m))
        lower = sum(d * lie[d] for d in range(1, m) if m % d == 0)
        lie[m] = exact_quotient(c[m] - lower, m, "free-Lie")
    return lie[n]


def free_dimensions(generators: Callable[[int], int], bound: int) -> list[int]:
    """Degree-0..bound dimensions of the free algebra on ``generators(k)``
    generators of each degree k: dims[n] = sum over k of generators(k) dims[n - k]."""
    dims = [1]
    gens = [generators(k) for k in range(1, bound + 1)]
    for n in range(1, bound + 1):
        dims.append(sum(gens[k - 1] * dims[n - k] for k in range(1, n + 1)))
    return dims


def free_generation_check(bound: int) -> CheckResult:
    """The free algebra on the enumerated connected endofunctions has
    dimension n^n in each degree n <= bound; one case per degree."""
    guard("endofunctions", bound)
    dims = free_dimensions(brute_connected_count, bound)
    return check_each(((n,) for n in range(bound + 1)), lambda n: dims[n] == n**n)


def brute_connected_count(n: int) -> int:
    return sum(map(is_connected, enumerate_family("endofunctions", n)))


# ---------------------------------------------------------------------------
# oracle plumbing

def oracle_check(f: Word, g: Word, n_trunc: int | None = None) -> bool:
    if n_trunc is None:
        n_trunc = len(f) + len(g)
    return oracle_product_check(f, g, n_trunc, product_M(f, g))


def algebra() -> GradedBasis:
    return GradedBasis(M_KIND, FAMILIES["endofunctions"], product_M, coproduct_M, dual=S_KIND)
