"""The commutative parking-function algebra, its graph and forest structures.

Parking functions are closed under the endofunction product and coproduct.
Summing over the labellings of functional graphs yields the polynomial
algebra on connected unlabelled graphs.  Killing the non-nondecreasing
labels yields a quotient with Catalan-many classes per degree, whose class
sums over support forests close into the polynomial algebra on rooted
trees.  Both polynomial algebras take their product and coproduct from
:func:`sgqsym.multiset_rules`, the rule of the cycle-type basis `ul`.
"""
from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache
from types import MappingProxyType

from . import eqsym
from .axioms import CheckResult, GradedBasis, check_each, graded_pairs
from .limits import guard
from .lincomb import LinComb, bilinear, relabelled, tensor_kind
from .sgqsym import multiset_rules
from .words import (
    FAMILIES,
    Family,
    Word,
    catalan,
    endofunctions,
    enumerate_family,
    exact_quotient,
    is_connected,
    is_nondecreasing,
    is_parking,
    multisets,
    nondecreasing_parking_functions,
    parking_functions,
)

MPA_KIND = "cpqsym:Mpa"
CC_KIND = "ccqsym:Mpa"
CC_DUAL_KIND = "ccqsym:S"
GRAPH_KIND = "parkgraph:N"
FOREST_KIND = "forest:M"


# ---------------------------------------------------------------------------
# cpqsym: restriction of the endofunction structure

product_Mpa = relabelled(MPA_KIND, eqsym.product_M)
coproduct_Mpa = relabelled(tensor_kind(MPA_KIND), eqsym.coproduct_M)


def parking_closure_check(degree_bound: int) -> CheckResult:
    """Every term of a product of parking labels is again a parking label."""
    return check_each(graded_pairs(parking_functions, degree_bound),
                      lambda p, q: all(map(is_parking, product_Mpa(p, q).terms)))


def algebra() -> GradedBasis:
    return GradedBasis(MPA_KIND, FAMILIES["parking"], product_Mpa, coproduct_Mpa)


# ---------------------------------------------------------------------------
# functional-graph certificates

def graph_certificate(p: Word) -> tuple:
    """Canonical form of the functional graph up to relabelling.

    Components are directed cycles of rooted trees; trees canonize as nested
    sorted tuples and each cycle takes its lexicographically minimal rotation.

    One pass finds the cycles: a walk from each unvisited node marks the
    nodes it meets with its start until it reaches a marked node, which
    closes a new cycle when the walk itself marked it.  The walk's nodes
    before the cycle hang as children below their images.
    """
    n = len(p)
    image = (0, *p)
    mark = [0] * (n + 1)
    children: list[list[int]] = [[] for _ in range(n + 1)]
    cycles = []
    for start in range(1, n + 1):
        if mark[start]:
            continue
        path = []
        v = start
        while not mark[v]:
            mark[v] = start
            path.append(v)
            v = image[v]
        if mark[v] == start:
            k = path.index(v)
            cycles.append(path[k:])
            del path[k:]
        for u in path:
            children[image[u]].append(u)

    def canon(v: int) -> tuple:
        kids = children[v]
        if not kids:
            return ()
        if len(kids) == 1:
            return (canon(kids[0]),)
        return tuple(sorted(map(canon, kids)))

    components = []
    for cycle in cycles:
        seq = tuple(map(canon, cycle))
        if len(seq) > 1:
            seq = min(seq[k:] + seq[:k] for k in range(len(seq)))
        components.append(seq)
    components.sort()
    return tuple(components)


def tree_text(t: tuple) -> str:
    return "(" + "".join(tree_text(c) for c in t) + ")"


def tree_size(t: tuple) -> int:
    return 1 + sum(tree_size(c) for c in t)


def certificate_text(cert: tuple) -> str:
    return "".join("<" + ",".join(tree_text(t) for t in comp) + ">" for comp in cert)


def is_connected_graph(cert: tuple) -> bool:
    return len(cert) == 1


@lru_cache(maxsize=None)
def unlabelled_certificates(n: int) -> MappingProxyType[tuple, int]:
    """Certificates of parking functions of size n with class sizes, as a
    read-only view: the census is cached and shared."""
    return MappingProxyType(Counter(map(graph_certificate, enumerate_family("parking", n))))


@lru_cache(maxsize=None)
def endofunction_certificates(n: int) -> MappingProxyType[tuple, int]:
    """Certificates over all endofunctions: the labelling classes summed by
    the unlabelled basis, as a read-only view of the cached census."""
    return MappingProxyType(Counter(map(graph_certificate, enumerate_family("endofunctions", n))))


def _rooted_tree_counts(bound: int) -> list[int]:
    """r[1..bound], rooted unlabelled trees (OEIS A000081), r[0] = 0:
    m r(m + 1) = sum over k of (sum over d | k of d r(d)) r(m - k + 1)."""
    r = [0, 1] + [0] * bound
    weighted = [0] * (bound + 1)    # weighted[k] = sum over d | k of d r(d)
    for m in range(1, bound):
        weighted[m] = sum(d * r[d] for d in range(1, m + 1) if m % d == 0)
        total = sum(weighted[k] * r[m - k + 1] for k in range(1, m + 1))
        r[m + 1] = exact_quotient(total, m, "rooted-tree")
    return r[:bound + 1]


def unlabelled_count(n: int) -> int:
    """Functional graphs on n unlabelled nodes (OEIS A001372): multisets of
    cycles of rooted trees, so [x^n] of prod over k = 1..n of 1/(1 - R(x^k)),
    R the rooted-tree series.  Dividing by each factor in place,
    a[m] += sum over j of r[j] a[m - k j], for increasing m.

    The parking bound still applies: every functional graph is realized by
    a parking function, and the tests compare the series with the number
    of certificates of the parking functions of size n.

    >>> [unlabelled_count(n) for n in range(9)]
    [1, 1, 3, 7, 19, 47, 130, 343, 951]
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    guard("parking", n)
    r = _rooted_tree_counts(n)
    a = [1] + [0] * n
    for k in range(1, n + 1):
        for m in range(k, n + 1):
            a[m] += sum(r[j] * a[m - k * j] for j in range(1, m // k + 1))
    return a[n]


def cert_size(cert: tuple) -> int:
    return sum(forest_size(comp) for comp in cert)


def unlabelled_product_brute(cert1: tuple, cert2: tuple) -> LinComb:
    """Full expansion over both endofunction labelling classes, regrouped."""
    n, m = cert_size(cert1), cert_size(cert2)
    by_cert: dict[tuple, int] = {}
    for p in endofunctions(n):
        if graph_certificate(p) != cert1:
            continue
        for q in endofunctions(m):
            if graph_certificate(q) != cert2:
                continue
            for h, c in eqsym.product_M(p, q).terms.items():
                cert = graph_certificate(h)
                by_cert[cert] = by_cert.get(cert, 0) + c
    out: dict[tuple, int] = {}
    for cert, total in by_cert.items():
        size = endofunction_certificates(cert_size(cert)).get(cert, 0)
        if total % size:
            raise AssertionError("labelling sum is not a multiple of the class sum")
        out[cert] = total // size
    return LinComb(GRAPH_KIND, out)


def _sorted(pieces) -> tuple:
    return tuple(sorted(pieces))


# The labelling sums of functional graphs are the polynomial algebra on the
# connected graphs, their certificate components.
unlabelled_product, unlabelled_coproduct = multiset_rules(GRAPH_KIND, _sorted)


def connected_graph_counts(bound: int) -> list[int]:
    return [
        sum(1 for cert in unlabelled_certificates(n) if is_connected_graph(cert))
        for n in range(1, bound + 1)
    ]


def free_polynomial_check(bound: int) -> CheckResult:
    """Unlabelled dimensions match multisets of connected generators, both
    read off the certificates of the parking functions; one case per degree."""
    dims = multisets(connected_graph_counts(bound))
    return check_each(((n,) for n in range(bound + 1)),
                      lambda n: dims[n] == len(unlabelled_certificates(n)))


# ---------------------------------------------------------------------------
# ccqsym: quotient by the non-nondecreasing ideal

def cc_product(p: Word, q: Word) -> LinComb:
    """Product of nondecreasing classes; non-nondecreasing terms vanish."""
    if not (is_nondecreasing(p) and is_nondecreasing(q)):
        raise ValueError("class labels must be nondecreasing parking functions")
    terms = product_Mpa(p, q).terms
    return LinComb(CC_KIND, {h: c for h, c in terms.items() if is_nondecreasing(h)})


cc_coproduct = relabelled(tensor_kind(CC_KIND), eqsym.coproduct_M)


def cc_ideal_check(degree_bound: int) -> CheckResult:
    """Products against a non-nondecreasing label stay in the ideal: at each
    pair (p, q) with p outside the quotient's labels, no term of pq or qp is
    nondecreasing."""
    def stays(p: Word, q: Word) -> bool:
        terms = itertools.chain(product_Mpa(p, q).terms, product_Mpa(q, p).terms)
        return is_nondecreasing(p) or not any(map(is_nondecreasing, terms))

    return check_each(graded_pairs(parking_functions, degree_bound), stays)


# Dual-side class product: shifted concatenation of nondecreasing labels.
cc_dual_product = relabelled(CC_DUAL_KIND, eqsym.product_S)


def cc_dual_coproduct(p: Word) -> LinComb:
    """Dual-side coproduct: stable splits, which stay nondecreasing."""
    cop = eqsym.coproduct_S(p)
    for (a, b) in cop.terms:
        if not (is_nondecreasing(a) and is_nondecreasing(b)):
            raise AssertionError("stable split left the nondecreasing labels")
    return LinComb(tensor_kind(CC_DUAL_KIND), cop.terms)


def connected_nondecreasing_count(n: int) -> int:
    return sum(map(is_connected, enumerate_family("nondecreasing_parking", n)))


def cc_freeness_check(bound: int) -> CheckResult:
    """Catalan dimensions match words in connected nondecreasing generators;
    one case per degree."""
    dims = eqsym.free_dimensions(connected_nondecreasing_count, bound)
    return check_each(((n,) for n in range(bound + 1)), lambda n: dims[n] == catalan(n))


def cc_algebra() -> GradedBasis:
    return GradedBasis(CC_KIND, FAMILIES["nondecreasing_parking"], cc_product, cc_coproduct)


def reordering_not_subalgebra_example(degree_bound: int = 4) -> CheckResult:
    """Whether sums over rearrangement classes close under the product, at
    each pair of nondecreasing labels: a failed result's counterexample is a
    pair whose product leaves their span.

    The product is constant on a class when each rearrangement of each of its
    terms has one coefficient; a rearrangement of a parking word parks.
    """
    def rearrangements(p: Word) -> set[Word]:
        return set(itertools.permutations(p))

    def closes(p: Word, q: Word) -> bool:
        total = bilinear(LinComb(MPA_KIND, dict.fromkeys(rearrangements(p), 1)),
                         LinComb(MPA_KIND, dict.fromkeys(rearrangements(q), 1)), product_Mpa)
        return all(len({total[w] for w in rearrangements(h)}) == 1 for h in total.terms)

    return check_each(graded_pairs(nondecreasing_parking_functions, degree_bound), closes)


# ---------------------------------------------------------------------------
# rooted forests from nondecreasing parking functions

def forest_certificate(p: Word) -> tuple:
    """Support forest: edges to the image, roots at loops, canonized."""
    if not (is_nondecreasing(p) and is_parking(p)):
        raise ValueError("forest supports require nondecreasing parking functions")
    n = len(p)
    children: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    roots = []
    for i in range(1, n + 1):
        if p[i - 1] == i:
            roots.append(i)
        else:
            children[p[i - 1]].append(i)

    def canon(v: int) -> tuple:
        return tuple(sorted(canon(u) for u in children[v]))

    return tuple(sorted(canon(r) for r in roots))


def forest_text(cert: tuple) -> str:
    return "".join(tree_text(t) for t in cert)


def forest_size(cert: tuple) -> int:
    return sum(tree_size(t) for t in cert)


# Forest and unlabelled parking-graph labels have no enumerator: they are
# entered through a checked representative and held as its certificate.
FORESTS = Family(
    "forests", None, None,
    lambda text: forest_certificate(FAMILIES["nondecreasing_parking"].parse(text)),
    forest_text, forest_size)
PARKING_GRAPHS = Family(
    "parking_graphs", None, None, lambda text: graph_certificate(FAMILIES["parking"].parse(text)),
    certificate_text, cert_size)


# The forest class sums are the polynomial algebra on the rooted trees; the
# tests check both rules against the class sums of ``cc_product`` and
# ``cc_coproduct``.
forest_product, forest_coproduct = multiset_rules(FOREST_KIND, _sorted)
