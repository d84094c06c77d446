"""The stalactic monoid: canonical forms, insertion, class counts, quotients.

The congruence is generated by ``a w a = a a w``; every class has a unique
representative grouping each letter at its first occurrence.  Insertion
scans left to right, stacking identical letters in columns, and records the
column position sets in a set partition.
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial

from . import symfunc
from .axioms import CheckResult, check_each
from .lincomb import LinComb
from .words import (
    SetPartition,
    Word,
    canonical_set_partition,
    enumerate_family,
    is_endofunction,
    is_initial,
    is_parking,
    shifted_concat,
)

PARK_CLASS_KIND = "stalactic:parking"
ENDO_CLASS_KIND = "stalactic:endofunctions"
INITIAL_CLASS_KIND = "stalactic:initial_words"


def canonical_form(w: Word) -> Word:
    """Letters grouped by multiplicity in order of first occurrence.

    >>> canonical_form((3, 1, 2, 3, 3, 4, 2, 4, 4))
    (3, 3, 3, 1, 2, 2, 4, 4, 4)
    """
    return tuple(Counter(w).elements())


def congruent(u: Word, v: Word) -> bool:
    return canonical_form(u) == canonical_form(v)


def rewrite_neighbors(w: Word) -> set[Word]:
    """Single applications of a w a <-> a a w in any context."""
    out = set()
    for i in range(len(w)):
        for j in range(i + 2, len(w)):
            if w[i] == w[j]:
                # a s a -> a a s
                out.add(w[: i + 1] + (w[i],) + w[i + 1 : j] + w[j + 1 :])
        if i + 1 < len(w) and w[i] == w[i + 1]:
            # a a s -> a s a, for every split of the tail
            for j in range(i + 2, len(w) + 1):
                out.add(w[: i + 1] + w[i + 2 : j] + (w[i],) + w[j:])
    return out


def congruence_class(w: Word) -> set[Word]:
    """Closure of a word under the generating rewrites, in both directions."""
    seen = {w}
    frontier = [w]
    while frontier:
        current = frontier.pop()
        for nxt in rewrite_neighbors(current):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


@dataclass(frozen=True)
class StalacticTableau:
    columns: tuple[tuple[int, int], ...]  # (letter, multiplicity), distinct letters

    def word(self) -> Word:
        return tuple(a for a, mult in self.columns for _ in range(mult))

    def rows(self) -> list[tuple[int | None, ...]]:
        height = max((mult for _, mult in self.columns), default=0)
        return [
            tuple(letter if mult > r else None for letter, mult in self.columns)
            for r in range(height)
        ]


def insert(w: Word) -> tuple[StalacticTableau, SetPartition]:
    """Left-to-right column insertion with its position-recording symbol.

    >>> insert((3, 1, 2, 3, 3, 4, 2, 4, 4))[1]
    ((1, 4, 5), (2,), (3, 7), (6, 8, 9))
    """
    positions: dict[int, list[int]] = {}
    for pos, a in enumerate(w, start=1):
        positions.setdefault(a, []).append(pos)
    tableau = StalacticTableau(tuple((a, len(p)) for a, p in positions.items()))
    q_symbol = canonical_set_partition(positions.values())
    return tableau, q_symbol


# ---------------------------------------------------------------------------
# class counting

def class_count_brute(family: str, n: int) -> int:
    return len({canonical_form(w) for w in enumerate_family(family, n)})


def class_census_by_letters(family: str, n: int) -> Counter[int]:
    """Class counts refined by the number of distinct letters."""
    forms = {canonical_form(w) for w in enumerate_family(family, n)}
    return Counter(len(set(form)) for form in forms)


def triangle(name: str, n: int) -> list[int]:
    """Row n (1-indexed, entries k = 1..n) of the named triangle."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if name == "narayana":
        return [comb(n, k) * comb(n, k - 1) // n for k in range(1, n + 1)]
    if name == "lah":
        return [v * factorial(k) for k, v in enumerate(triangle("narayana", n), start=1)]
    if name == "tw":
        return [comb(n, k) * comb(n - 1, k - 1) for k in range(1, n + 1)]
    if name == "endt":
        return [v * factorial(k) for k, v in enumerate(triangle("tw", n), start=1)]
    if name == "pascal":
        return [comb(n - 1, k - 1) for k in range(1, n + 1)]
    if name == "arr":
        return [v * factorial(k) for k, v in enumerate(triangle("pascal", n), start=1)]
    raise ValueError(f"unknown triangle {name!r}")


TRIANGLE_FAMILIES = {"lah": "parking", "endt": "endofunctions", "arr": "initial_words"}


def class_count(family: str, n: int) -> int:
    """Number of stalactic classes in the family at size n: the row sum of
    its triangle, which counts the classes by distinct letters.  The empty
    word is the one class at n = 0."""
    for name, triangle_family in TRIANGLE_FAMILIES.items():
        if triangle_family == family:
            return sum(triangle(name, n)) if n else 1
    raise ValueError(f"unknown family {family!r}")


def triangle_brute(name: str, n: int) -> list[int]:
    """Brute-force triangle rows, counting classes by distinct letters."""
    if name == "narayana":
        census = Counter(len(set(w)) for w in enumerate_family("nondecreasing_parking", n))
    elif name in TRIANGLE_FAMILIES:
        census = class_census_by_letters(TRIANGLE_FAMILIES[name], n)
    else:
        raise ValueError(f"no brute-force census for triangle {name!r}")
    return [census[k] for k in range(1, n + 1)]


# ---------------------------------------------------------------------------
# parkization and packing (for lifting class products)

def parkize(w: Word) -> Word:
    """Lower the letters of a word minimally until it parks."""
    letters = list(w)
    while True:
        counts = sorted(letters)
        gap = next(
            (i + 1 for i in range(len(counts)) if counts[i] > i + 1),
            None,
        )
        if gap is None:
            return tuple(letters)
        # counts[gap-1] > gap means fewer than gap letters are <= gap
        threshold = gap
        letters = [a - 1 if a > threshold else a for a in letters]


def pack(w: Word) -> Word:
    """Relabel the letters order-preservingly onto an initial segment."""
    rank = {a: i for i, a in enumerate(sorted(set(w)), start=1)}
    return tuple(rank[a] for a in w)


# ---------------------------------------------------------------------------
# induced products on stalactic classes

_PROJECTIONS = {"parking": parkize, "initial_words": pack}
# family -> (class kind, membership test, the family's words in the plural)
_CLASS_FAMILIES = {
    "parking": (PARK_CLASS_KIND, is_parking, "parking functions"),
    "endofunctions": (ENDO_CLASS_KIND, is_endofunction, "endofunctions"),
    "initial_words": (INITIAL_CLASS_KIND, is_initial, "initial words"),
}


@lru_cache(maxsize=None)
def _product_fibers(family: str, n: int, m: int) -> dict:
    """For every split word of the family: (prefix image, suffix image) ->
    canonical-form counter.  One enumeration pass serves all basis pairs."""
    project = _PROJECTIONS[family]
    fibers: dict[tuple[Word, Word], dict[Word, int]] = {}
    for r in enumerate_family(family, n + m):
        key = (project(r[:n]), project(r[n:]))
        bucket = fibers.setdefault(key, {})
        form = canonical_form(r)
        bucket[form] = bucket.get(form, 0) + 1
    return fibers


def class_product(family: str, u: Word, v: Word) -> LinComb:
    """Product induced on stalactic classes by the ambient algebra.

    Classes are given by canonical representatives.  For endofunctions the
    ambient product concatenates with a shift, giving a single class; for
    parking functions and initial words the ambient bases are fibers of
    parkization and packing, and the product collects all words of the family
    whose prefix and suffix project onto the two factors.
    """
    if family not in _CLASS_FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    kind, member, words = _CLASS_FAMILIES[family]
    if not (member(u) and member(v)):
        raise ValueError(f"class representatives must be {words}")
    if family == "endofunctions":
        return LinComb.basis(kind, canonical_form(shifted_concat(u, v)))
    terms = _product_fibers(family, len(u), len(v)).get((u, v), {})
    return LinComb(kind, dict(terms))


def class_product_well_defined(family: str, n: int, m: int) -> CheckResult:
    """Whether lifted products agree for congruent representative pairs: at
    each pair (u, v) of the family's words of sizes n and m, the product
    equals the one at the canonical forms, which are words of the family."""
    return check_each(
        itertools.product(enumerate_family(family, n), enumerate_family(family, m)),
        lambda u, v: class_product(family, u, v)
        == class_product(family, canonical_form(u), canonical_form(v)))


# ---------------------------------------------------------------------------
# the generic character of the stalactic quotient

@lru_cache(maxsize=None)
def generic_character(n: int) -> LinComb:
    """Schur expansion of sum over partitions of l(mu)! m_mu at weight n."""
    f_n = LinComb(
        symfunc.kind("m"),
        {mu: factorial(len(mu)) for mu in symfunc.partitions(n)},
    )
    return symfunc.convert(f_n, "s")


def c_coefficients(n: int) -> list[int]:
    """Coefficients on the hook Schur functions in the generic character."""
    schur = generic_character(n)
    out = []
    for k in range(n):
        shape = (n - k,) + (1,) * k
        out.append(int(schur[shape]))
    hooks = {(n - k,) + (1,) * k for k in range(n)}
    if any(lam not in hooks for lam in schur.terms):
        raise AssertionError("generic character has support off the hooks")
    return out


def derangement_route(n: int) -> LinComb:
    """Independent route: sum_k d_k e_k h_{n-k}, expanded into Schur functions."""
    total = LinComb(symfunc.kind("m"))
    for k in range(n + 1):
        piece = symfunc.m_mul(symfunc.e_in_m(k), symfunc.h_in_m(n - k))
        total = total + piece.scale(symfunc.derangements(k))
    return symfunc.convert(total, "s")
