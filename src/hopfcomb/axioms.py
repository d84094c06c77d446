"""Exhaustive Hopf-axiom verification for graded bases at desk-scale degrees.

An algebra is described by a :class:`GradedBasis`: its label family plus
basis-level product and coproduct rules.  Before it enumerates a label, the
checker refuses a degree bound beyond the family's ``Limits`` bound, and a
sweep whose case count, read off the family sizes, is beyond
``Limits.sweep_cases``.  It verifies each axiom on all basis elements up to
the bound and reports the first counterexample found.

An identity lhs = rhs is checked as one signed sum: lhs is accumulated with
sign +1 and rhs with sign -1 into one dict, by the accumulate-into forms of
the ``lincomb`` loops, and the case passes when every coefficient is zero.
The unit and counit laws compare plain term dicts with ``{a: 1}``.  The
visiting order, and so every first counterexample, is that of comparing two
built ``LinComb`` values, and so are the kind rules: a side whose pieces mix
kinds raises ``ValueError``, and sides of different kinds fail the case.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from functools import cache, partial
from typing import Callable, Iterable, Iterator

from . import limits
from .limits import LimitExceeded, guard
from .lincomb import (
    LinComb,
    _sum_scaled_into,
    _tensor_apply_into,
    _twisted_tensor_mul_into,
    bilinear,
    tensor,
    tensor_kind,
    tensor_swap,
)
from .words import Family, enumerate_family, family_size


@dataclass(frozen=True)
class GradedBasis:
    """One basis of an algebra: ``kind`` is "algebra:basis", the labels are
    those of ``family``, and the unit is the empty label ``()``.  Either rule
    may be None where only the other is defined.  ``twist`` is the
    bicharacter chi(b, a') of the tensor square in which Delta(ab) =
    Delta(a) Delta(b) holds, (a (x) b)(a' (x) b') = chi(b, a') aa' (x) bb';
    None is the plain componentwise product.  ``dual`` is the kind of the
    basis that :func:`duality_check` pairs this one with, if any."""
    kind: str
    family: Family
    product: Callable | None        # (label, label) -> LinComb
    coproduct: Callable | None      # label -> LinComb over pairs
    twist: Callable | None = None   # (label, label) -> coefficient
    dual: str | None = None

    def labels_upto(self, bound: int) -> dict[int, list]:
        return {n: list(enumerate_family(self.family.name, n)) for n in range(1, bound + 1)}


@dataclass
class CheckResult:
    """Whether a check passed, and else its first counterexample.  It has no
    truth value: ``assert result`` would pass on a failed check, so ask for
    ``result.passed``."""
    passed: bool
    counterexample: tuple | None = None

    def __bool__(self):
        raise TypeError("a CheckResult has no truth value; read .passed")

    def line(self, name: str) -> str:
        """The report line: a property named "...commutativity" is recorded
        as yes/no, an axiom or claim as ok or its counterexample."""
        if name.endswith("commutativity"):
            return f"{name}: {'yes' if self.passed else 'no'}"
        return f"{name}: {'ok' if self.passed else f'FAIL at {self.counterexample}'}"


@dataclass
class HopfReport:
    algebra: str
    degree_bound: int
    checks: dict[str, CheckResult] = field(default_factory=dict)
    # the swept basis with rules that read the sweep's tables first, and so
    # keep them alive: `verify` hands it to `duality_check` as the primal
    tabled: GradedBasis | None = field(default=None, compare=False, repr=False)

    @property
    def passed(self) -> bool:
        required = ("associativity", "coassociativity", "unit", "counit", "compatibility")
        return all(self.checks[name].passed for name in required if name in self.checks)

    @property
    def commutative(self) -> bool:
        return self.checks["commutativity"].passed

    @property
    def cocommutative(self) -> bool:
        return self.checks["cocommutativity"].passed

    def lines(self) -> list[str]:
        return [result.line(name) for name, result in self.checks.items()]


# ---------------------------------------------------------------------------
# the sweep: tables for every held degree, cases in a fixed order

Cases = Iterable[tuple[tuple, dict[str, Callable[[], bool]]]]


def first_failure(cases: Cases, names: tuple[str, ...]) -> dict[str, CheckResult]:
    """Each named axiom's first counterexample, in the order of ``cases``.

    A case is ``(labels, {axiom: check})``.  Checks are called lazily: an axiom
    that has failed is not checked again, and the sweep stops once every
    named axiom has failed.  A case's checks all run before the next case is
    drawn, so they may close over the generator's loop variables.
    """
    found: dict[str, tuple] = {}
    for case, checks in cases:
        for name, holds in checks.items():
            if name not in found and not holds():
                found[name] = case
        if len(found) == len(names):
            break
    return {name: CheckResult(name not in found, found.get(name)) for name in names}


def check_each(cases: Iterable[tuple], holds: Callable[..., bool]) -> CheckResult:
    """Whether ``holds(*case)`` is true for every case, through
    :func:`first_failure`: the counterexample is the first case where it is not."""
    checks = ((case, {"holds": partial(holds, *case)}) for case in cases)
    return first_failure(checks, ("holds",))["holds"]


def graded_labels(family: str, bound: int) -> Iterator[tuple]:
    """One case ``(x,)`` per label of ``family`` of degrees 1..bound, degree
    by degree.  A bound past the family's ``Limits`` field is refused here,
    before any case is drawn, and so before a claim calls a rule."""
    guard(family, bound)
    return ((x,) for n in range(1, bound + 1) for x in enumerate_family(family, n))


def graded_pairs(family: str, bound: int) -> Iterator[tuple]:
    """Label pairs (x, y) of ``family`` of degrees i, j >= 1 with i + j <=
    bound, in the order of the nested loops over (i, j, x, y); refused as
    :func:`graded_labels` is."""
    guard(family, bound)
    return ((x, y) for i in range(1, bound) for j in range(1, bound - i + 1)
            for x in enumerate_family(family, i) for y in enumerate_family(family, j))


# A sweep holds its top degree, labels and rule values, only when the family
# has at most this many labels there.  A held top degree's values are most of
# the sweep's memory, though the tables hold no unit products and their
# values share the sweep's label objects: holding the 46,656 endofunctions of
# size 6 takes the peak RSS of `verify --algebra eqsym` from 20.5 MB to
# 54 MB, and the 16,807 parking functions take cpqsym's from 19 MB to 29 MB,
# so those top degrees stream.  At this bound the largest held sweep the
# guards allow, wsym at degree 7 (877 labels), peaks at 19 MB; at 5,040,
# piqsym at degree 8 peaks at 25 MB (fresh processes, CPython 3.11).
HELD_TOP_LABELS = 1_000


class _Sweep:
    """Labels and rule values for one sweep of the Hopf axioms to ``bound``.

    The degrees up to ``held_upto`` are held: their labels are listed, and
    products of total degree up to ``held_upto`` and coproducts of labels up
    to it are computed once and kept in plain dicts that die with the sweep.
    ``held_upto`` is the bound when the family has at most ``HELD_TOP_LABELS``
    labels there, and else the degree below: a large top degree's labels are
    streamed from the family and its values are not kept.  Cached values are
    shared between the axioms, and the report hands them on as its
    ``tabled`` basis; that is safe because no ``LinComb`` operation mutates
    its operands.

    A held value's labels, and the factors of a held coproduct's pairs, are
    the sweep's own label objects (``own``), so a label is stored once
    however many values hold it.  Products by the unit are not in
    ``products``: once the unit law has passed (``unit_passed``), x M_()
    and M_() x are the basis element x at every listed label x; the rule's
    value is asked, and kept in ``unit_products``, only for M_() M_() and
    where the unit law did not vouch for x.
    """

    def __init__(self, alg: GradedBasis, bound: int):
        self.alg = alg
        self.bound = bound
        self.degree = alg.family.degree
        hold_top = bound >= 1 and family_size(alg.family.name, bound) <= HELD_TOP_LABELS
        self.held_upto = bound if hold_top else bound - 1
        self.held_labels = alg.labels_upto(self.held_upto)
        self.own = {x: x for xs in self.held_labels.values() for x in xs}
        self.unit_passed = False
        self.products: dict = {}
        self.unit_products: dict = {}
        self.coproducts: dict = {}

    def labels(self, n: int) -> Iterable:
        if n > self.held_upto:
            return enumerate_family(self.alg.family.name, n)
        return self.held_labels[n]

    def product(self, a, b) -> LinComb:
        table = self.products
        if not a or not b:
            x = self.own.get(a or b) if self.unit_passed else None
            if x is not None:
                return LinComb(self.alg.kind, {x: 1})
            table = self.unit_products
        value = table.get((a, b))
        if value is None:
            value = self.alg.product(a, b)
            if self.degree(a) + self.degree(b) <= self.held_upto:
                own = self.own
                value = LinComb(value.kind, {own.get(l, l): c for l, c in value.terms.items()})
                table[(a, b)] = value
        return value

    def coproduct(self, a) -> LinComb:
        value = self.coproducts.get(a)
        if value is None:
            value = self.alg.coproduct(a)
            if self.degree(a) <= self.held_upto:
                own = self.own
                value = LinComb(value.kind, {(own.get(u, u), own.get(v, v)): c
                                             for (u, v), c in value.terms.items()})
                self.coproducts[a] = value
        return value

    def product_rule(self, total: int) -> Callable:
        """The product for arguments of this total degree: cached where held."""
        return self.product if total <= self.held_upto else self.alg.product

    def coproduct_rule(self, degree: int) -> Callable:
        return self.coproduct if degree <= self.held_upto else self.alg.coproduct


def _cancels(terms: dict, lhs_kind: str, rhs_kind: str) -> bool:
    """Whether lhs - rhs, accumulated in ``terms``, is zero: both sides have
    one kind, as ``LinComb`` equality asks, and every coefficient cancelled."""
    return lhs_kind == rhs_kind and not any(terms.values())


def _associativity_cases(sweep: _Sweep) -> Cases:
    """(ab)c = a(bc) for all label triples of total degree up to the bound."""
    bound = sweep.bound
    product = sweep.product
    for i in range(1, bound - 1):
        for j in range(1, bound - i):
            for k in range(1, bound - i - j + 1):
                outer = sweep.product_rule(i + j + k)
                for a in sweep.labels(i):
                    for b in sweep.labels(j):
                        ab = product(a, b)
                        for c in sweep.labels(k):

                            def associates() -> bool:
                                terms: dict = {}
                                lhs = _sum_scaled_into(
                                    terms, ((outer(l, c), x) for l, x in ab.terms.items()),
                                    ab.kind)
                                bc = product(b, c)
                                rhs = _sum_scaled_into(
                                    terms, ((outer(a, l), -x) for l, x in bc.terms.items()),
                                    bc.kind)
                                return _cancels(terms, lhs, rhs)

                            yield (a, b, c), {"associativity": associates}


def _label_cases(sweep: _Sweep) -> Cases:
    """One coproduct per label serves coassociativity, counit and
    cocommutativity.  The unit law asks the rule itself at every label, and
    its values are not kept: once it has passed, the sweep answers the
    products by the unit that compatibility's tensor products read."""
    alg = sweep.alg
    kind = alg.kind
    product = alg.product
    unit = ()
    for n in range(1, sweep.bound + 1):
        for a in sweep.labels(n):
            cop = sweep.coproduct_rule(n)(a)

            def coproduct(l):
                return cop if l == a else sweep.coproduct(l)

            def coassociates() -> bool:
                terms: dict = {}
                lhs = _tensor_apply_into(terms, cop, 0, coproduct)
                rhs = _tensor_apply_into(terms, cop, 1, coproduct, -1)
                return _cancels(terms, lhs, rhs)

            yield (a,), {
                "unit": lambda: (_is_basis_element(product(unit, a), kind, a)
                                 and _is_basis_element(product(a, unit), kind, a)),
                "coassociativity": coassociates,
                "counit": lambda: _counit_sides(unit, cop) == ({a: 1}, {a: 1}),
                "cocommutativity": lambda: tensor_swap(cop) == cop,
            }


def _is_basis_element(x: LinComb, kind: str, label) -> bool:
    return x.kind == kind and x.terms == {label: 1}


def _counit_sides(unit, cop: LinComb) -> tuple[dict, dict]:
    """The terms of (epsilon (x) id) cop and (id (x) epsilon) cop.  Each is a
    plain copy: the pairs of ``cop`` are distinct and its coefficients nonzero."""
    left: dict = {}
    right: dict = {}
    for (u, v), c in cop.terms.items():
        if u == unit:
            left[v] = c
        if v == unit:
            right[u] = c
    return left, right


def _pair_cases(sweep: _Sweep) -> Cases:
    """Delta(ab) = Delta(a) Delta(b), and whether ab = ba, on one product per pair.

    Commutativity is checked only at whichever of (a, b) and (b, a) is
    visited first: i < j, or i == j with a listed before b.  That is where
    checking both would first fail, so the counterexample is the same.
    """
    bound = sweep.bound
    kind = tensor_kind(sweep.alg.kind)
    twist = sweep.alg.twist
    for i in range(1, bound):
        for j in range(1, bound - i + 1):
            product = sweep.product_rule(i + j)
            coproduct = sweep.coproduct_rule(i + j)
            for ia, a in enumerate(sweep.labels(i)):
                da = sweep.coproduct(a)
                for ib, b in enumerate(sweep.labels(j)):
                    ab = product(a, b)

                    def factor_product(x, y):
                        return ab if x == a and y == b else sweep.product(x, y)

                    def compatible() -> bool:
                        terms: dict = {}
                        lhs = _sum_scaled_into(
                            terms, ((coproduct(l), x) for l, x in ab.terms.items()), kind)
                        rhs = _twisted_tensor_mul_into(
                            terms, da, sweep.coproduct(b), factor_product, twist, -1)
                        return _cancels(terms, lhs, rhs)

                    checks = {"compatibility": compatible}
                    if i < j or (i == j and ia < ib):
                        checks["commutativity"] = lambda: ab == product(b, a)
                    yield (a, b), checks


def sweep_guard(family: str, bound: int) -> None:
    """Refuse a sweep to ``bound`` beyond the family's bound, then one whose
    cases exceed ``Limits.sweep_cases``.  The cases, counted by
    ``family_size`` before any label is enumerated, are the labels, pairs
    and triples of degrees >= 1 and total degree at most ``bound``."""
    guard(family, bound)
    sizes = [0] + [family_size(family, n) for n in range(1, bound + 1)]

    def times_sizes(counts: list[int]) -> list[int]:
        return [sum(counts[i] * sizes[t - i] for i in range(t + 1)) for t in range(bound + 1)]

    pairs = times_sizes(sizes)
    cases = sum(sizes) + sum(pairs) + sum(times_sizes(pairs))
    budget = limits.LIMITS.sweep_cases
    if cases > budget:
        raise LimitExceeded(
            f"{family} sweep to degree {bound} has {cases} cases, exceeds configured "
            f"budget {budget} (Limits.sweep_cases)")


def hopf_check(alg: GradedBasis, degree_bound: int) -> HopfReport:
    """Verify associativity, coassociativity, unit/counit, compatibility,
    and record (co)commutativity, exhaustively up to the degree bound.  The
    report's ``tabled`` basis reads its rule values from the sweep's tables."""
    sweep_guard(alg.family.name, degree_bound)
    sweep = _Sweep(alg, degree_bound)
    results = first_failure(_associativity_cases(sweep), ("associativity",))
    results.update(first_failure(
        _label_cases(sweep), ("unit", "coassociativity", "counit", "cocommutativity")))
    sweep.unit_passed = results["unit"].passed
    results.update(first_failure(_pair_cases(sweep), ("compatibility", "commutativity")))
    order = ("associativity", "unit", "coassociativity", "counit",
             "compatibility", "commutativity", "cocommutativity")
    tabled = replace(alg, product=sweep.product, coproduct=sweep.coproduct)
    return HopfReport(alg.kind, degree_bound, {name: results[name] for name in order}, tabled)


def compatibility_check(alg: GradedBasis, degree_bound: int) -> CheckResult:
    """Only the compatibility law of :func:`hopf_check`, on its guard, pairs
    and order, and so with its first counterexample."""
    sweep_guard(alg.family.name, degree_bound)
    pairs = _pair_cases(_Sweep(alg, degree_bound))
    # the pair cases also yield commutativity: the early stop counts it
    return first_failure(pairs, ("compatibility", "commutativity"))["compatibility"]


def morphism_check(source: GradedBasis, target: GradedBasis, f: Callable,
                   bound: int) -> CheckResult:
    """Whether ``f``, a map from ``source`` labels to ``target`` values, is a
    morphism up to the degree bound.  The cases, in order: f(()) is the
    target's unit, at ``((),)``; f(xy) = f(x) f(y) at each of
    :func:`graded_pairs`; and, where both records have a coproduct,
    (f (x) f) Delta x = Delta f(x) at each of :func:`graded_labels`.  Each
    identity is one signed sum, as in :func:`hopf_check`; ``f`` is called
    once per label."""
    image = cache(f)
    kind, pair_kind = target.kind, tensor_kind(target.kind)

    def multiplies(x, y) -> bool:
        terms: dict = {}
        xy = source.product(x, y).terms.items()
        lhs = _sum_scaled_into(terms, ((image(l), c) for l, c in xy), kind)
        rhs = _sum_scaled_into(terms, [(bilinear(image(x), image(y), target.product), -1)], kind)
        return _cancels(terms, lhs, rhs)

    def comultiplies(x) -> bool:
        terms: dict = {}
        cop = source.coproduct(x).terms.items()
        lhs = _sum_scaled_into(terms, ((tensor(image(u), image(v)), c) for (u, v), c in cop),
                               pair_kind)
        rhs = _sum_scaled_into(terms, ((target.coproduct(l), -c)
                                       for l, c in image(x).terms.items()), pair_kind)
        return _cancels(terms, lhs, rhs)

    # both families are guarded here, before any rule is called
    pairs = graded_pairs(source.family.name, bound)
    labels = (graded_labels(source.family.name, bound)
              if source.coproduct is not None and target.coproduct is not None else ())
    for cases, law in (([((),)], lambda e: _is_basis_element(image(e), kind, e)),
                       (pairs, multiplies), (labels, comultiplies)):
        result = check_each(cases, law)
        if not result.passed:
            break
    return result


def duality_check(
    primal: GradedBasis,
    dual_coproduct: Callable,
    degree_bound: int,
    dual_product: Callable,
    primal_coproduct: Callable,
) -> CheckResult:
    """Check <x y, z> = <x (x) y, Delta* z> and the transposed law
    <Delta x, z (x) w> = <x, z w> for all basis triples up to the bound.

    Labels of the dual are identified with primal labels (dual bases pair by
    delta).

    Both laws are checked by rows: the coproducts of a degree's targets are
    transposed once into columns ``(x, y) -> {z: coeff}``, and each product
    row ``x y`` is compared with its column as a dict.  A mismatch reports
    the differing z that comes first in the degree's target order, so the
    counterexample is the first triple of the nested loops over (x, y, z).
    This is stricter than reading only the targets: a product term whose
    label is not a target of its degree also fails, and ranks after them.
    The rows with an empty side are the counit rows: each target z, from
    degree 1 up and before its degree's rows, fails at ``((), z, z)``
    unless the only such terms of its coproduct are ((), z) and (z, ()),
    each with coefficient 1.
    """
    guard(primal.family.name, degree_bound)
    by_degree = primal.labels_upto(degree_bound)

    def cases(product: Callable, coproduct: Callable) -> Cases:
        for total in range(1, degree_bound + 1):
            targets = by_degree.get(total, [])
            cols: dict = {}
            for z in targets:
                ends: dict = {}
                for pair, c in coproduct(z).terms.items():
                    if pair[0] and pair[1]:
                        cols.setdefault(pair, {})[z] = c
                    else:
                        ends[pair] = c
                # the unit rows <1 y, z> and <x 1, z> are delta, so their
                # columns, one dict per target, are read off here instead
                yield ((), z, z), {"duality": lambda: ends == {((), z): 1, (z, ()): 1}}
            for i in range(1, total):
                for a in by_degree.get(i, []):
                    for b in by_degree.get(total - i, []):
                        row = product(a, b).terms
                        col = cols.get((a, b), {})
                        z = None
                        if row != col:
                            # a mismatch ends the check: the rank is built once
                            rank = {w: r for r, w in enumerate(targets)}
                            diff = [w for w in itertools.chain(row, col)
                                    if row.get(w, 0) != col.get(w, 0)]
                            z = min(diff, key=lambda w: rank.get(w, len(targets)))
                        yield (a, b, z), {"duality": lambda: z is None}

    laws = itertools.chain(cases(primal.product, dual_coproduct),
                           cases(dual_product, primal_coproduct))
    return first_failure(laws, ("duality",))["duality"]
