"""Classical symmetric functions at bounded degree: m, e, h, p, s bases.

Everything is exact.  Products are computed in the monomial basis by brute
force on ``degree`` many variables (faithful at that degree); change of
basis goes through the monomial basis, inverting the expansion matrices with
Fraction arithmetic.  Schur functions expand via Kostka numbers counted
directly on semistandard tableaux.
"""
from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Iterator

from .limits import guard
from .lincomb import LinComb, bilinear
from .words import IntegerPartition, partitions

BASES = ("m", "e", "h", "p", "s")


def kind(basis: str) -> str:
    if basis not in BASES:
        raise ValueError(f"unsupported basis name {basis!r}")
    return f"sym:{basis}"


def sym(basis: str, lam: IntegerPartition, coeff=1) -> LinComb:
    lam = tuple(sorted(lam, reverse=True))
    return LinComb.basis(kind(basis), lam, coeff)


# ---------------------------------------------------------------------------
# monomial-basis arithmetic on exponent vectors

def _placements(parts: IntegerPartition, length: int):
    """All exponent vectors of the multiset `parts` over `length` positions."""
    values = sorted(set(parts), reverse=True)
    counts = [parts.count(v) for v in values]

    def rec(idx: int, free: tuple[int, ...], vec: list[int]):
        if idx == len(values):
            yield tuple(vec)
            return
        for chosen in itertools.combinations(free, counts[idx]):
            for p in chosen:
                vec[p] = values[idx]
            remaining = tuple(p for p in free if p not in chosen)
            yield from rec(idx + 1, remaining, vec)
            for p in chosen:
                vec[p] = 0

    yield from rec(0, tuple(range(length)), [0] * length)


@lru_cache(maxsize=None)
def m_mul_basis(lam: IntegerPartition, mu: IntegerPartition) -> LinComb:
    """Product m_lam * m_mu expanded back into the monomial basis.

    The coefficient on a target shape counts the placements of the second
    factor whose complement rearranges the first.
    """
    degree = sum(lam) + sum(mu)
    guard("symfunc_degree", degree)
    if len(lam) < len(mu):
        lam, mu = mu, lam
    out: dict[IntegerPartition, int] = {}
    for nu in partitions(degree):
        length = len(nu)
        if length > len(lam) + len(mu) or length < len(lam):
            continue
        count = 0
        for vb in _placements(mu, length):
            diff = [nu[i] - vb[i] for i in range(length)]
            if all(d >= 0 for d in diff) and tuple(
                sorted((d for d in diff if d), reverse=True)
            ) == lam:
                count += 1
        if count:
            out[nu] = count
    return LinComb(kind("m"), out)


def m_mul(x: LinComb, y: LinComb) -> LinComb:
    return bilinear(x, y, m_mul_basis, kind("m"))


def m_eval_at_n(mu: IntegerPartition, n: int) -> int:
    """The number m_mu(1^n): distinct monomials of shape mu in n variables."""
    length = len(mu)
    if length > n:
        return 0
    count = 1
    for i in range(length):
        count *= n - i
    for mult in Counter(mu).values():
        count //= factorial(mult)
    return count


# ---------------------------------------------------------------------------
# generators expanded in the monomial basis

@lru_cache(maxsize=None)
def e_in_m(k: int) -> LinComb:
    return sym("m", (1,) * k)


@lru_cache(maxsize=None)
def h_in_m(k: int) -> LinComb:
    return LinComb(kind("m"), {lam: 1 for lam in partitions(k)})


@lru_cache(maxsize=None)
def p_in_m(k: int) -> LinComb:
    return sym("m", (k,)) if k else sym("m", ())


@lru_cache(maxsize=None)
def kostka(lam: IntegerPartition, mu: IntegerPartition) -> int:
    """Number of semistandard tableaux of shape lam and content mu."""
    if sum(lam) != sum(mu):
        return 0
    if not mu:
        return 1

    def strips(shape: IntegerPartition, size: int) -> Iterator[IntegerPartition]:
        # inner shapes nu with shape/nu a horizontal strip of the given size
        rows = len(shape)
        choices = []
        for i in range(rows):
            upper = shape[i]
            lower = shape[i + 1] if i + 1 < rows else 0
            choices.append(range(lower, upper + 1))
        for nu in itertools.product(*choices):
            if sum(shape) - sum(nu) == size and all(
                nu[i] >= shape[i + 1] for i in range(rows - 1)
            ):
                yield tuple(p for p in nu if p)

    return sum(kostka(nu, mu[:-1]) for nu in strips(lam, mu[-1]))


@lru_cache(maxsize=None)
def s_in_m(lam: IntegerPartition) -> LinComb:
    return LinComb(kind("m"), {mu: kostka(lam, tuple(mu)) for mu in partitions(sum(lam))})


def _multiplicative_in_m(gen, lam: IntegerPartition) -> LinComb:
    out = sym("m", ())
    for part in lam:
        out = m_mul(out, gen(part))
    return out


def basis_in_m(basis: str, lam: IntegerPartition) -> LinComb:
    lam = tuple(sorted(lam, reverse=True))
    if basis == "m":
        return sym("m", lam)
    if basis == "e":
        return _multiplicative_in_m(e_in_m, lam)
    if basis == "h":
        return _multiplicative_in_m(h_in_m, lam)
    if basis == "p":
        return _multiplicative_in_m(p_in_m, lam)
    if basis == "s":
        return s_in_m(lam)
    raise ValueError(f"unsupported basis name {basis!r}")


def expand_to_monomial(x: LinComb) -> LinComb:
    """Exact change of basis into the monomial basis."""
    basis = x.kind.split(":", 1)[1]
    return x.apply(lambda lam: basis_in_m(basis, lam), kind=kind("m"))


@lru_cache(maxsize=None)
def _m_to_basis_matrix(basis: str, degree: int) -> dict[IntegerPartition, LinComb]:
    """Expansion of each m_mu (mu of the degree) over the target basis.

    Guarded per degree; a refused degree raises and so is never cached.
    """
    guard("symfunc_degree", degree)
    lams = list(partitions(degree))
    index = {lam: i for i, lam in enumerate(lams)}
    size = len(lams)
    # column j of `matrix` is basis_lam expressed in m coordinates
    matrix = [[Fraction(0)] * size for _ in range(size)]
    for j, lam in enumerate(lams):
        for mu, c in basis_in_m(basis, lam).terms.items():
            matrix[index[mu]][j] = Fraction(c)
    # invert by Gaussian elimination
    inv = [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]
    work = [row[:] for row in matrix]
    for col in range(size):
        pivot = next(r for r in range(col, size) if work[r][col])
        work[col], work[pivot] = work[pivot], work[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        scale = work[col][col]
        work[col] = [v / scale for v in work[col]]
        inv[col] = [v / scale for v in inv[col]]
        for r in range(size):
            if r != col and work[r][col]:
                factor = work[r][col]
                work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
                inv[r] = [a - factor * b for a, b in zip(inv[r], inv[col])]
    return {
        mu: LinComb(kind(basis), {lams[i]: inv[i][index[mu]] for i in range(size)})
        for mu in lams
    }


def convert(x: LinComb, target: str) -> LinComb:
    """Exact change of basis via the monomial basis."""
    if target not in BASES:
        raise ValueError(f"unsupported basis name {target!r}")
    in_m = x if x.kind == kind("m") else expand_to_monomial(x)
    if target == "m":
        return in_m
    return in_m.apply(lambda mu: _m_to_basis_matrix(target, sum(mu))[mu], kind=kind(target))


# ---------------------------------------------------------------------------
# derangements

@lru_cache(maxsize=None)
def derangements(k: int) -> int:
    """Fixed-point-free permutations of [k].

    >>> [derangements(k) for k in range(6)]
    [1, 0, 1, 2, 9, 44]
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return 1
    if k == 1:
        return 0
    return (k - 1) * (derangements(k - 1) + derangements(k - 2))


def hook_schur_sum(k: int, n: int) -> LinComb:
    """The two-term Schur expansion of e_k h_{n-k}, invalid shapes dropped."""
    if n == 0:
        return sym("s", ())
    out = LinComb(kind("s"))
    if n - k >= 1:
        out = out + sym("s", (n - k,) + (1,) * k)
    if k >= 1:
        out = out + sym("s", (n - k + 1,) + (1,) * (k - 1))
    return out
