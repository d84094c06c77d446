"""Words, endofunctions, permutations, cycles, and the partition-like labels.

Conventions used throughout the package:

- Words are tuples of positive integers (1-indexed values).  An endofunction
  ``f`` of ``[n]`` is stored as the word ``(f(1), ..., f(n))``; permutations
  are the bijective endofunctions.  The empty tuple is the degree-0 object.
- A cycle is stored as a tuple beginning with its minimal element, reading
  successive images: ``(1, 3, 5, 2)`` sends 1 to 3, 3 to 5, 5 to 2, 2 to 1.
- A set partition is a tuple of blocks, each block a sorted tuple, with the
  blocks sorted lexicographically by their increasing word (equivalently, by
  their minima).
"""
from __future__ import annotations

import itertools
import re
from collections import Counter
from dataclasses import dataclass
from math import comb, factorial
from typing import Callable, Iterable, Iterator, Sequence

from .limits import guard

Word = tuple[int, ...]
Cycle = tuple[int, ...]
CycleSet = tuple[Cycle, ...]
SetPartition = tuple[tuple[int, ...], ...]
Composition = tuple[int, ...]
IntegerPartition = tuple[int, ...]


# ---------------------------------------------------------------------------
# predicates

def is_endofunction(w: Sequence[int]) -> bool:
    n = len(w)
    return all(1 <= a <= n for a in w)


def is_permutation(w: Sequence[int]) -> bool:
    return is_endofunction(w) and len(set(w)) == len(w)


def is_parking(w: Sequence[int]) -> bool:
    """Whether the nondecreasing reordering u satisfies u_i <= i.

    >>> is_parking((3, 1, 1)), is_parking((2, 3, 3))
    (True, False)
    """
    return all(a <= i for i, a in enumerate(sorted(w), start=1)) and all(a >= 1 for a in w)


def is_nondecreasing(w: Sequence[int]) -> bool:
    return all(a <= b for a, b in zip(w, w[1:]))


def is_initial(w: Sequence[int]) -> bool:
    """Whether every letter below the maximum also appears."""
    return set(w) == set(range(1, max(w) + 1)) if w else True


def is_involution(w: Sequence[int]) -> bool:
    return is_permutation(w) and all(w[w[i] - 1] == i + 1 for i in range(len(w)))


# ---------------------------------------------------------------------------
# basic operations

def standardize(w: Sequence[int]) -> Word:
    """The unique permutation with the same relative order, ties left to right.

    >>> standardize((1, 1, 2, 1, 2, 1, 3, 1, 3, 2))
    (1, 2, 6, 3, 7, 4, 9, 5, 10, 8)
    >>> standardize(())
    ()
    """
    order = sorted(range(len(w)), key=lambda i: (w[i], i))
    std = [0] * len(w)
    for rank, i in enumerate(order, start=1):
        std[i] = rank
    return tuple(std)


def inverse(sigma: Sequence[int]) -> Word:
    inv = [0] * len(sigma)
    for i, v in enumerate(sigma, start=1):
        inv[v - 1] = i
    return tuple(inv)


def inversions(w: Sequence[int]) -> int:
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])


def descent_composition(sigma: Sequence[int]) -> Composition:
    """Composition recording the descent positions of a word.

    >>> descent_composition((2, 1))
    (1, 1)
    >>> descent_composition((1, 2, 3))
    (3,)
    """
    if not sigma:
        return ()
    parts = []
    run = 1
    for a, b in zip(sigma, sigma[1:]):
        if a > b:
            parts.append(run)
            run = 1
        else:
            run += 1
    parts.append(run)
    return tuple(parts)


def shifted_concat(f: Sequence[int], g: Sequence[int]) -> Word:
    """Place g after f with all letters of g shifted by len(f).

    >>> shifted_concat((4, 2, 3, 2, 2), (2, 2))
    (4, 2, 3, 2, 2, 7, 7)
    """
    n = len(f)
    return tuple(f) + tuple(a + n for a in g)


def cut_points(h: Sequence[int]) -> list[int]:
    """Positions k where h splits as a shifted concatenation of length-k and rest.

    Includes the trivial cuts 0 and len(h).  An interior k is a cut exactly
    when max(h[:k]) <= k < min(h[k:]), read off a running prefix maximum and
    a precomputed suffix minimum, so the scan is linear.

    >>> cut_points((1, 3, 2, 4))
    [0, 1, 3, 4]
    >>> cut_points(())
    [0]
    """
    n = len(h)
    tail_min = list(itertools.accumulate(reversed(h), min))  # [j] = min(h[n-1-j:])
    cuts = [0]
    head_max = 0
    for k in range(1, n):
        if h[k - 1] > head_max:
            head_max = h[k - 1]
        if head_max <= k < tail_min[n - 1 - k]:
            cuts.append(k)
    if n > 0:
        cuts.append(n)
    return cuts


def unshift(h: Sequence[int], k: int) -> Word:
    """The suffix of h starting after position k, shifted back to an endofunction."""
    return tuple(a - k for a in h[k:])


def connected_factorization(h: Sequence[int]) -> list[Word]:
    """The unique maximal factorization into connected endofunctions.

    >>> connected_factorization((4, 2, 3, 2, 2, 7, 7))
    [(4, 2, 3, 2, 2), (2, 2)]
    >>> connected_factorization((1, 2, 4, 3))
    [(1,), (1,), (2, 1)]
    """
    cuts = cut_points(h)
    return [unshift(h[: cuts[i + 1]], cuts[i]) for i in range(len(cuts) - 1)]


def is_connected(h: Sequence[int]) -> bool:
    return len(h) > 0 and cut_points(h) == [0, len(h)]


# ---------------------------------------------------------------------------
# cycles

def canonical_cycle(w: Iterable[int]) -> Cycle:
    """The cycle of a word of distinct letters, each sent to the next,
    cyclically: the word rotated so its minimal letter comes first.

    >>> canonical_cycle((3, 1, 2))
    (1, 2, 3)
    """
    word = tuple(w)
    k = word.index(min(word))
    return word[k:] + word[:k]


def cycles(sigma: Sequence[int]) -> CycleSet:
    """Disjoint cycle decomposition, each cycle minimal-element-first.

    >>> cycles((3, 1, 5, 4, 2))
    ((1, 3, 5, 2), (4,))
    """
    seen = [False] * len(sigma)
    out = []
    for start in range(1, len(sigma) + 1):
        if seen[start - 1]:
            continue
        orbit = [start]
        seen[start - 1] = True
        nxt = sigma[start - 1]
        while nxt != start:
            orbit.append(nxt)
            seen[nxt - 1] = True
            nxt = sigma[nxt - 1]
        out.append(tuple(orbit))
    return tuple(out)


def from_cycles(cycle_set: Iterable[Cycle], n: int | None = None) -> Word:
    """Recompose a permutation from disjoint cycles; inverse of :func:`cycles`."""
    cycle_list = [tuple(c) for c in cycle_set]
    support = [a for c in cycle_list for a in c]
    if n is None:
        n = max(support, default=0)
    if len(set(support)) != len(support):
        raise ValueError("cycles are not disjoint")
    word = [0] * n
    for c in cycle_list:
        for i, a in enumerate(c):
            word[a - 1] = c[(i + 1) % len(c)]
    if 0 in word:
        raise ValueError("cycles do not cover 1..n")
    return tuple(word)


def standardized_cycles(cycle_list: Sequence[Cycle], chosen: Sequence[int]) -> Word:
    """The permutation formed by the chosen cycles, renumbered onto 1..k.

    The cycles of one permutation are disjoint, so the renumbered word is
    written directly, each letter sent to the rank of its successor.

    >>> standardized_cycles(((1, 3), (2,), (4, 5)), (0, 2))
    (2, 1, 4, 3)
    """
    support = sorted(a for i in chosen for a in cycle_list[i])
    rank = {a: i for i, a in enumerate(support)}
    word = [0] * len(support)
    for i in chosen:
        c = cycle_list[i]
        prev = rank[c[-1]]
        for a in c:
            r = rank[a]
            word[prev] = r + 1
            prev = r
    return tuple(word)


def cycle_words(c: Cycle) -> list[Cycle]:
    """All rotations of a cycle word."""
    return [c[k:] + c[:k] for k in range(len(c))]


def cycle_supports(sigma: Sequence[int]) -> SetPartition:
    """Set partition whose blocks are the supports of the cycles."""
    return canonical_set_partition(cycles(sigma))


def ordered_cycle_type(sigma: Sequence[int]) -> Composition:
    """Block sizes of the cycle supports in canonical (lexicographic) block order."""
    return tuple(len(b) for b in cycle_supports(sigma))


def cycle_type(sigma: Sequence[int]) -> IntegerPartition:
    return tuple(sorted((len(c) for c in cycles(sigma)), reverse=True))


# ---------------------------------------------------------------------------
# set partitions, compositions

def canonical_set_partition(blocks: Iterable[Iterable[int]]) -> SetPartition:
    """Sort each block and order blocks lexicographically by increasing word."""
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


def partition_of_word(w: Sequence[int]) -> SetPartition:
    """Positions grouped by equal letters.

    >>> partition_of_word((1, 2, 1, 3, 3, 1))
    ((1, 3, 6), (2,), (4, 5))
    """
    blocks: dict[int, list[int]] = {}
    for i, a in enumerate(w, start=1):
        blocks.setdefault(a, []).append(i)
    return canonical_set_partition(blocks.values())


def consecutive_blocks(parts: Sequence[int]) -> SetPartition:
    """The blocks of consecutive integers with the given sizes, in order.

    >>> consecutive_blocks((2, 1, 3))
    ((1, 2), (3,), (4, 5, 6))
    """
    ends = list(itertools.accumulate(parts, initial=0))
    return tuple(tuple(range(a + 1, b + 1)) for a, b in zip(ends, ends[1:]))


def block_composition(pi: SetPartition) -> Composition:
    """Sizes of the blocks in canonical block order."""
    return tuple(len(b) for b in pi)


def sort_composition(parts: Sequence[int]) -> IntegerPartition:
    return tuple(sorted(parts, reverse=True))


def multiset_splits(items: Sequence) -> Iterator[tuple[tuple, tuple]]:
    """Every distinct split of a multiset into (left, right), each once, both sorted.

    >>> list(multiset_splits((2, 1)))
    [((), (1, 2)), ((2,), (1,)), ((1,), (2,)), ((1, 2), ())]
    """
    mult = Counter(items)
    distinct = sorted(mult)
    for counts in itertools.product(*(range(mult[a] + 1) for a in distinct)):
        left = tuple(a for a, k in zip(distinct, counts) for _ in range(k))
        right = tuple(a for a, k in zip(distinct, counts) for _ in range(mult[a] - k))
        yield left, right


# ---------------------------------------------------------------------------
# shuffles

def shuffle(u: Sequence[int], v: Sequence[int]) -> list[Word]:
    """All interleavings preserving the relative order of each argument.

    Returned as a list: multiplicities matter when u and v share letters.

    >>> shuffle((1,), (2,))
    [(1, 2), (2, 1)]
    """
    out = []
    for positions in itertools.combinations(range(len(u) + len(v)), len(u)):
        word = [0] * (len(u) + len(v))
        pos = set(positions)
        iu = iter(u)
        iv = iter(v)
        for i in range(len(word)):
            word[i] = next(iu) if i in pos else next(iv)
        out.append(tuple(word))
    return out


def shifted_shuffle(u: Sequence[int], v: Sequence[int]) -> list[Word]:
    """Shuffle of u with v shifted by len(u)."""
    return shuffle(tuple(u), tuple(a + len(u) for a in v))


# ---------------------------------------------------------------------------
# enumeration

def endofunctions(n: int) -> Iterator[Word]:
    return itertools.product(range(1, n + 1), repeat=n) if n else iter([()])


def permutations(n: int) -> Iterator[Word]:
    return itertools.permutations(range(1, n + 1))


def permutations_of_type(lam: Sequence[int], n: int) -> Iterator[Word]:
    """The permutations of 1..n whose cycle lengths are the parts of lam, each once.

    The cycle through the least unused letter takes each distinct remaining
    length in turn, and its other letters run over the arrangements of that
    many unused letters; a permutation's cycle through that letter fixes
    both choices, so no permutation is reached twice.

    >>> list(permutations_of_type((2, 1), 3))
    [(1, 3, 2), (2, 1, 3), (3, 2, 1)]
    """
    if sum(lam) != n or not all(part > 0 for part in lam):
        raise ValueError(f"not a partition of {n}: {tuple(lam)!r}")
    left = Counter(lam)
    word = [0] * n

    def rec(unused: Word) -> Iterator[Word]:
        if not unused:
            yield tuple(word)
            return
        first, rest = unused[0], unused[1:]
        for length in sorted(left):
            if not left[length]:
                continue
            left[length] -= 1
            for others in itertools.permutations(rest, length - 1):
                cycle = (first, *others)
                for a, b in zip(cycle, others + (first,)):
                    word[a - 1] = b
                yield from rec(tuple(a for a in rest if a not in others))
            left[length] += 1

    return rec(tuple(range(1, n + 1)))


def _completions(prefixes: Iterable[tuple[Word, Iterable[Word]]]) -> Iterator[Word]:
    """Each prefix followed by each of its tails, in order.

    The generators below recurse down to the last letter or two and hand
    each prefix over with its tails, so no word costs a Python frame.
    """
    return itertools.chain.from_iterable(map(p.__add__, tails) for p, tails in prefixes)


def parking_functions(n: int) -> Iterator[Word]:
    """Parking functions of length n, in lexicographic order.

    ``slack[i - 1]`` is (letters <= i so far) + (slots left after the next
    letter) - i.  A prefix extends exactly by the letters 1..m, where m is the
    first i of negative slack, because a smaller letter never hurts; letter a
    lowers the slack of each i < a by one.  Two letters before the end,
    letter a leaves the bound z, the first i of zero slack, when a > z and m
    otherwise, so the last two letters depend only on (z, m).
    """
    if n < 2:
        return iter([(1,) * n])
    last_two: dict[tuple[int, int], list[Word]] = {}

    def rec(prefix: Word, slack: list[int]) -> Iterator[tuple[Word, list[Word]]]:
        m = next(i for i, s in enumerate(slack, 1) if s < 0)
        if len(prefix) < n - 2:
            for a in range(1, m + 1):
                yield from rec(prefix + (a,), [s - 1 for s in slack[:a - 1]] + slack[a - 1:])
            return
        z = next((i for i, s in enumerate(slack[:m - 1], 1) if not s), m)
        tails = last_two.get((z, m))
        if tails is None:
            tails = last_two[z, m] = [
                (a, b) for a in range(1, m + 1) for b in range(1, (z if a > z else m) + 1)
            ]
        yield prefix, tails

    return _completions(rec((), list(range(n - 2, -2, -1))))


def nondecreasing_parking_functions(n: int) -> Iterator[Word]:
    """Nondecreasing parking functions of length n, in lexicographic order.

    Letter k ranges from the one before it to k; the last two letters
    depend only on the letter before them.
    """
    if n < 2:
        return iter([(1,) * n])
    last_two: dict[int, list[Word]] = {}

    def rec(prefix: Word) -> Iterator[tuple[Word, list[Word]]]:
        lo = prefix[-1] if prefix else 1
        if len(prefix) < n - 2:
            for a in range(lo, len(prefix) + 2):
                yield from rec(prefix + (a,))
            return
        tails = last_two.get(lo)
        if tails is None:
            tails = last_two[lo] = [(a, b) for a in range(lo, n) for b in range(a, n + 1)]
        yield prefix, tails

    return _completions(rec(()))


def set_partitions(n: int) -> Iterator[SetPartition]:
    """All set partitions of [n], each in canonical form.

    Blocks are opened in order of their minima and grow increasingly, so a
    finished partition is already canonical.
    """

    def rec(i: int, blocks: list[list[int]]) -> Iterator[SetPartition]:
        if i > n:
            # from a list: tuple() of a lengthless iterator over-allocates and
            # shrinks each result, which raised peak RSS by 0.9 MB at n = 10
            # on CPython 3.11
            yield tuple([tuple(b) for b in blocks])
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1, blocks)
            b.pop()
        blocks.append([i])
        yield from rec(i + 1, blocks)
        blocks.pop()

    return rec(1, [])


def initial_words(n: int) -> Iterator[Word]:
    """Words on [n] in which every letter below the maximum occurs, in
    lexicographic order.

    A letter is skipped when it would leave more values below the maximum
    missing than there are slots left to fill them.
    """
    if n == 0:
        return iter([()])
    seen = [0] * (n + 1)    # occurrences of each letter in the prefix

    def rec(prefix: Word, top: int, missing: int) -> Iterator[tuple[Word, Iterable[Word]]]:
        left = n - len(prefix) - 1      # slots after the next letter
        if not left:
            yield prefix, ((seen.index(0, 1),),) if missing else zip(range(1, top + 2))
            return
        for a in range(1, top + left - missing + 2):
            after = (missing - (not seen[a])) if a <= top else missing + a - top - 1
            if after <= left:
                seen[a] += 1
                yield from rec(prefix + (a,), max(a, top), after)
                seen[a] -= 1

    return _completions(rec((), 0, 0))


def involutions(n: int) -> Iterator[Word]:
    """Involutions of [n], in lexicographic order.

    The first free position p is tried as a fixed point first, its smallest
    value, then paired with each free j > p in increasing order.
    """
    word = [0] * n      # 0 marks a free position

    def rec(p: int) -> Iterator[Word]:
        while p < n and word[p]:
            p += 1
        if p == n:
            yield tuple(word)
            return
        word[p] = p + 1
        yield from rec(p + 1)
        for j in range(p + 1, n):
            if not word[j]:
                word[p], word[j] = j + 1, p + 1
                yield from rec(p + 1)
                word[j] = 0
        word[p] = 0

    return rec(0)


def compositions(n: int) -> Iterator[Composition]:
    """Compositions of n, in lexicographic order."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def partitions(n: int, max_part: int | None = None) -> Iterator[IntegerPartition]:
    """Partitions of n with parts bounded by max_part, in reverse lex order."""
    if n == 0:
        yield ()
        return
    if max_part is None or max_part > n:
        max_part = n
    for first in range(max_part, 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# family sizes: what the enumerators above stream, counted without them

def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def _bell(n: int) -> int:
    """Set partitions of [n], read off the Bell triangle: each row starts
    with the last entry of the row before, and each entry adds the one
    above it to the one on its left."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for above in row:
            nxt.append(nxt[-1] + above)
        row = nxt
    return row[0]


def _fubini(n: int) -> int:
    """Ordered set partitions of [n], which are the initial words of length n:
    a(n) = sum over k >= 1 of C(n, k) a(n - k), k the positions of letter 1."""
    a = [1]
    for m in range(1, n + 1):
        a.append(sum(comb(m, k) * a[m - k] for k in range(1, m + 1)))
    return a[n]


def _involution_count(n: int) -> int:
    """a(n) = a(n - 1) + (n - 1) a(n - 2): n is fixed, or swapped with one
    of the n - 1 others."""
    before, current = 1, 1
    for m in range(2, n + 1):
        before, current = current, current + (m - 1) * before
    return current


def exact_quotient(total: int, divisor: int, series: str) -> int:
    """``total / divisor``, which must be exact: a count series that divides
    unevenly is wrong, and is refused rather than rounded."""
    quotient, remainder = divmod(total, divisor)
    if remainder:
        raise AssertionError(f"{series} series is not integral")
    return quotient


def multisets(counts: Sequence[int]) -> list[int]:
    """Euler transform: entry d counts the multisets of total degree d drawn
    from ``counts[k - 1]`` kinds of degree k, for d up to ``len(counts)``.

    >>> multisets([1, 1, 1, 1])    # integer partitions
    [1, 1, 2, 3, 5]
    """
    bound = len(counts)
    dims = [1] + [0] * bound
    for k, count in enumerate(counts, start=1):
        # multiply by 1/(1 - t^k)^count
        for _ in range(count):
            for d in range(k, bound + 1):
                dims[d] += dims[d - k]
    return dims


def _guarded(kind: str, n: int) -> "Family":
    """The family ``kind``, once ``n`` is a size it may be asked for."""
    if kind not in FAMILIES:
        raise ValueError(f"unknown family {kind!r}")
    if n < 0:
        raise ValueError("n must be nonnegative")
    guard(kind, n)
    return FAMILIES[kind]


def enumerate_family(kind: str, n: int) -> Iterator:
    """Stream every object of the family exactly once, guarded by size limits."""
    return _guarded(kind, n).labels(n)


def family_size(kind: str, n: int) -> int:
    """How many objects ``enumerate_family(kind, n)`` streams, by closed form
    or recurrence; refused with the same error wherever the enumeration is.

    >>> [family_size("parking", n) for n in range(5)]
    [1, 1, 3, 16, 125]
    """
    return _guarded(kind, n).size(n)


# ---------------------------------------------------------------------------
# text encodings (parsers and printers round-trip)

_CYCLE_CHUNK = re.compile(r"\(([1-9]*|[1-9][0-9]*(,[1-9][0-9]*)+)\)")


def word_to_text(w: Sequence[int]) -> str:
    if not w:
        return "()"
    if max(w) <= 9:
        return "".join(str(a) for a in w)
    return ",".join(str(a) for a in w)


def word_from_text(text: str) -> Word:
    text = text.strip()
    if text in ("()", ""):
        return ()
    if text.startswith("("):
        return from_cycles(_cycles_from_text(text))
    return _numbers(text.split(",") if "," in text else text, text, "a word")


def _numbers(pieces: Iterable[str], text: str, noun: str) -> tuple[int, ...]:
    """The pieces read as integers; a piece that is not one refuses the whole
    text as ``not <noun>: '<text>'``."""
    try:
        return tuple(map(int, pieces))
    except ValueError:
        raise ValueError(f"not {noun}: {text!r}") from None


def _cycles_from_text(text: str) -> list[Cycle]:
    """Cycles written ``(1352)(4)`` or ``(1,10)(2)``.  Each chunk is "(", a
    word of nonzero digits or comma-separated positive numbers, ")"; an empty
    chunk ``()`` adds no cycle.  Any other chunk is refused with a one-line
    ``ValueError``."""
    out = []
    for chunk in text.replace(")(", ")|(").split("|"):
        if not _CYCLE_CHUNK.fullmatch(chunk):
            raise ValueError(f"not cycle notation: {text!r}")
        inner = chunk[1:-1]
        if inner:
            out.append(tuple(map(int, inner.split(",") if "," in inner else inner)))
    return out


def set_partition_to_text(pi: SetPartition) -> str:
    return "{" + "|".join(",".join(str(a) for a in b) for b in pi) + "}"


def set_partition_from_text(text: str) -> SetPartition:
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError(f"not a set partition: {text!r}")
    inner = text[1:-1]
    if not inner:
        return ()
    blocks = [_numbers(chunk.split(","), text, "a set partition") for chunk in inner.split("|")]
    return canonical_set_partition(blocks)


def composition_to_text(parts: Sequence[int]) -> str:
    return "(" + ",".join(str(a) for a in parts) + ")"


def composition_from_text(text: str) -> Composition:
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"not a composition: {text!r}")
    inner = text[1:-1]
    if not inner:
        return ()
    return _numbers(inner.split(","), text, "a composition")


# ---------------------------------------------------------------------------
# label families

@dataclass(frozen=True)
class Family:
    """One kind of basis label: ``labels(n)`` streams those of size n and
    ``size(n)`` counts them, and ``parse`` reads one from text, refusing a
    label outside the family with a one-line ``ValueError``; ``text`` prints
    it and ``degree`` is its size.  In :data:`FAMILIES` the key is ``name``,
    which is also the name of the family's :class:`~hopfcomb.limits.Limits`
    bound."""
    name: str
    labels: Callable[[int], Iterator] | None
    size: Callable[[int], int] | None
    parse: Callable[[str], object]
    text: Callable[[object], str]
    degree: Callable[[object], int]


def _checked(from_text: Callable, valid: Callable, noun: str) -> Callable[[str], object]:
    """A parser that refuses labels failing ``valid``: ``not <noun>: '<text>'``."""
    def parse(text: str):
        label = from_text(text)
        if not valid(label):
            raise ValueError(f"not {noun}: {text!r}")
        return label
    return parse


def _positive(parts) -> bool:
    return all(p > 0 for p in parts)


def _blocks_degree(pi: SetPartition) -> int:
    return sum(len(b) for b in pi)


def _word_family(name: str, labels: Callable, size: Callable, valid: Callable,
                 noun: str) -> Family:
    return Family(name, labels, size, _checked(word_from_text, valid, noun), word_to_text, len)


FAMILIES: dict[str, Family] = {family.name: family for family in (
    _word_family("endofunctions", endofunctions, lambda n: n**n, is_endofunction,
                 "an endofunction"),
    _word_family("permutations", permutations, factorial, is_permutation, "a permutation"),
    # (n + 1) ** (n - 1) is the float 1.0 at n = 0
    _word_family("parking", parking_functions, lambda n: (n + 1) ** (n - 1) if n else 1,
                 is_parking, "a parking function"),
    _word_family("nondecreasing_parking", nondecreasing_parking_functions, catalan,
                 lambda w: is_nondecreasing(w) and is_parking(w),
                 "a nondecreasing parking function"),
    Family("set_partitions", set_partitions, _bell,
           _checked(set_partition_from_text,
                   lambda pi: sorted(a for b in pi for a in b)
                   == list(range(1, _blocks_degree(pi) + 1)),
                   "a set partition of 1..n"),
           set_partition_to_text, _blocks_degree),
    _word_family("initial_words", initial_words, _fubini, is_initial, "an initial word"),
    _word_family("involutions", involutions, _involution_count, is_involution,
                 "an involution"),
    Family("compositions", compositions, lambda n: 2 ** (n - 1) if n else 1,
           _checked(composition_from_text, _positive, "a composition"),
           composition_to_text, sum),
    Family("partitions", partitions, lambda n: multisets([1] * n)[n],
           _checked(lambda text: sort_composition(composition_from_text(text)), _positive,
                   "a partition"),
           composition_to_text, sum),
)}
