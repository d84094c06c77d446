"""Sparse formal linear combinations of basis labels, with exact coefficients.

A :class:`LinComb` maps hashable canonical labels to nonzero coefficients
(ints, :class:`~hopfcomb.coeffs.QPoly`, or Fractions) and carries a ``kind``
tag naming the basis it lives in; mixing kinds is rejected.  Tensor squares
and cubes reuse the same container with tuple labels and a derived kind.

There is one constructor, ``LinComb(kind, terms)``: it takes ownership of
``terms`` without copying and drops zero coefficients in place, so no value
ever holds a zero coefficient.  Values are never mutated, so rules may hand
out shared values and re-wrap another value's ``terms`` under a new kind.
"""
from __future__ import annotations

from functools import cache
from typing import Callable, Iterable


class LinComb:
    __slots__ = ("kind", "terms")

    def __init__(self, kind: str, terms: dict | None = None):
        """Adopt ``terms`` as is, deleting its zero coefficients in place.

        ``terms`` is not copied: the caller hands over a dict that nothing
        else holds or will mutate, and copies one it does not own.

        >>> d = {(1,): 2, (2,): 0}
        >>> x = LinComb("t", d)
        >>> x.terms is d, d
        (True, {(1,): 2})
        """
        if terms is None:
            terms = {}
        elif not all(terms.values()):
            for label in [label for label, c in terms.items() if not c]:
                del terms[label]
        self.kind = kind
        self.terms = terms

    @staticmethod
    def basis(kind: str, label, coeff=1) -> "LinComb":
        return LinComb(kind, {label: coeff})

    def __bool__(self) -> bool:
        return bool(self.terms)

    # Not iterable: read ``terms``.  Without this, ``__getitem__`` would make
    # ``iter()`` ask for labels 0, 1, 2, ... and never stop.
    __iter__ = None

    def __getitem__(self, label):
        return self.terms.get(label, 0)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LinComb)
            and self.kind == other.kind
            and self.terms == other.terms
        )

    def __hash__(self):
        raise TypeError("LinComb is mutable-dict backed; not hashable")

    def _check(self, other: "LinComb") -> None:
        if self.kind != other.kind:
            raise ValueError(f"mixing label kinds {self.kind!r} and {other.kind!r}")

    def __add__(self, other: "LinComb") -> "LinComb":
        self._check(other)
        terms = dict(self.terms)
        for label, c in other.terms.items():
            terms[label] = terms.get(label, 0) + c
        return LinComb(self.kind, terms)

    def __neg__(self) -> "LinComb":
        return LinComb(self.kind, {label: -c for label, c in self.terms.items()})

    def __sub__(self, other: "LinComb") -> "LinComb":
        return self + (-other)

    def scale(self, scalar) -> "LinComb":
        return LinComb(self.kind, {label: scalar * c for label, c in self.terms.items()})

    def __rmul__(self, scalar) -> "LinComb":
        return self.scale(scalar)

    def map_coeffs(self, fn: Callable) -> "LinComb":
        return LinComb(self.kind, {label: fn(c) for label, c in self.terms.items()})

    def map_labels(self, fn: Callable, kind: str) -> "LinComb":
        """Linear extension of a map ``label -> label`` into basis ``kind``:
        the coefficients of the labels sent to one image are summed, in the
        order the images first appear.

        >>> LinComb("t", {(1, 2): 1, (2, 1): 2, (3,): 5, (4,): -5}).map_labels(len, "n")
        LinComb(n: 3*2)
        """
        terms: dict = {}
        for label, c in self.terms.items():
            image = fn(label)
            terms[image] = terms.get(image, 0) + c
        return LinComb(kind, terms)

    def apply(self, rule: Callable, kind: str | None = None) -> "LinComb":
        """Linear extension of a basis-level map ``label -> LinComb``."""
        pieces = ((rule(label), c) for label, c in self.terms.items())
        return _sum_scaled(pieces, self.kind if kind is None else kind)

    def __repr__(self) -> str:
        if not self.terms:
            return f"LinComb({self.kind}: 0)"
        body = " + ".join(f"{c}*{label}" for label, c in sorted(self.terms.items(), key=lambda t: repr(t[0])))
        return f"LinComb({self.kind}: {body})"


def relabelled(kind: str, rule: Callable) -> Callable:
    """``rule`` with each value's terms re-wrapped, not copied, under ``kind``.

    >>> relabelled("u", lambda a: LinComb.basis("t", a))((1,))
    LinComb(u: 1*(1,))
    """
    return lambda *labels: LinComb(kind, rule(*labels).terms)


def bilinear(x: LinComb, y: LinComb, rule: Callable, kind: str | None = None) -> LinComb:
    """Bilinear extension of a basis-level rule ``(label, label) -> LinComb``."""
    x._check(y)
    pieces = ((rule(a, b), ca * cb) for a, ca in x.terms.items() for b, cb in y.terms.items())
    return _sum_scaled(pieces, x.kind if kind is None else kind)


def _sum_scaled(pieces: Iterable[tuple[LinComb, object]], empty_kind: str) -> LinComb:
    """The sum of ``scalar * piece``, accumulated in one dict.

    The pieces are only read, so rules may hand out shared values.  All
    pieces must have one kind, which the sum takes; an empty sum has
    ``empty_kind``.
    """
    terms: dict = {}
    kind = _sum_scaled_into(terms, pieces, empty_kind)
    return LinComb(kind, terms)


def _sum_scaled_into(terms: dict, pieces: Iterable[tuple[LinComb, object]], empty_kind: str) -> str:
    """Add each ``scalar * piece`` into ``terms`` and return the sum's kind.

    The kind rules are those of :func:`_sum_scaled`.  ``terms`` keeps the
    coefficients that cancel to zero; the ``LinComb`` wrapping it drops them.
    """
    kind = None
    for piece, scalar in pieces:
        if kind is None:
            kind = piece.kind
        elif piece.kind != kind:
            raise ValueError(f"mixing label kinds {kind!r} and {piece.kind!r}")
        for label, c in piece.terms.items():
            terms[label] = terms.get(label, 0) + scalar * c
    return empty_kind if kind is None else kind


def pairing(x: LinComb, y: LinComb):
    """Bilinear pairing extending <B, B*> = delta on labels."""
    total = 0
    small, big = (x.terms, y.terms) if len(x.terms) <= len(y.terms) else (y.terms, x.terms)
    for label, c in small.items():
        if label in big:
            total = total + c * big[label]
    return total


# ---------------------------------------------------------------------------
# tensors: labels are tuples of component labels

def tensor_kind(kind: str, factors: int = 2) -> str:
    return "(x)".join([kind] * factors)


@cache
def _cube_kind(square_kind: str) -> str:
    """The 3-tensor kind over the first factor of a 2-tensor kind; cached,
    since every :func:`tensor_apply` asks for it and there are few kinds."""
    return tensor_kind(square_kind.split("(x)")[0], 3)


def tensor(x: LinComb, y: LinComb) -> LinComb:
    """Plain tensor product x (x) y as a LinComb over pairs."""
    kind = tensor_kind(x.kind)
    terms: dict = {}
    for a, ca in x.terms.items():
        for b, cb in y.terms.items():
            terms[(a, b)] = terms.get((a, b), 0) + ca * cb
    return LinComb(kind, terms)


def tensor_swap(t: LinComb) -> LinComb:
    return LinComb(t.kind, {(b, a): c for (a, b), c in t.terms.items()})


def tensor_mul(t1: LinComb, t2: LinComb, product: Callable) -> LinComb:
    """Componentwise product of tensors: (a(x)b)(a'(x)b') = aa' (x) bb'."""
    return twisted_tensor_mul(t1, t2, product, chi=None)


def twisted_tensor_mul(
    t1: LinComb,
    t2: LinComb,
    product: Callable,
    chi: Callable | None,
) -> LinComb:
    """Tensor product twisted by a bicharacter on homogeneous labels.

    ``(a (x) b) (a' (x) b') = chi(b, a') (a a' (x) b b')`` extended
    bilinearly; ``chi=None`` means the untwisted componentwise product.
    ``product(label, label) -> LinComb`` is the component product rule.
    """
    terms: dict = {}
    kind = _twisted_tensor_mul_into(terms, t1, t2, product, chi)
    return LinComb(kind, terms)


def _twisted_tensor_mul_into(
    terms: dict,
    t1: LinComb,
    t2: LinComb,
    product: Callable,
    chi: Callable | None,
    scalar=1,
) -> str:
    """Add ``scalar`` times :func:`twisted_tensor_mul` into ``terms``; return its kind."""
    t1._check(t2)
    for (a, b), c1 in t1.terms.items():
        c1 = scalar * c1
        for (a2, b2), c2 in t2.terms.items():
            coeff = c1 * c2
            if chi is not None:
                coeff = coeff * chi(b, a2)
            left = product(a, a2)
            right = product(b, b2)
            for la, cla in left.terms.items():
                for lb, clb in right.terms.items():
                    key = (la, lb)
                    terms[key] = terms.get(key, 0) + coeff * cla * clb
    return t1.kind


def tensor_apply(t: LinComb, slot: int, rule: Callable) -> LinComb:
    """Apply a label -> LinComb map inside one slot of a 2-tensor, flattening.

    Used to form (Delta (x) id) Delta and (id (x) Delta) Delta: ``t`` and the
    values of ``rule`` are 2-tensors, and each result label ``(u, x, y)``
    (slot 1) or ``(x, y, v)`` (slot 0) is a 3-tensor label built directly.
    """
    terms: dict = {}
    kind = _tensor_apply_into(terms, t, slot, rule)
    return LinComb(kind, terms)


def _tensor_apply_into(terms: dict, t: LinComb, slot: int, rule: Callable, scalar=1) -> str:
    """Add ``scalar`` times :func:`tensor_apply` into ``terms``; return its kind,
    the 3-tensor kind of the last value of ``rule`` (of ``t`` when there is none)."""
    kind = t.kind
    for (u, v), c in t.terms.items():
        expanded = rule(v if slot else u)
        kind = expanded.kind
        c = scalar * c
        for (x, y), ci in expanded.terms.items():
            key = (u, x, y) if slot else (x, y, v)
            terms[key] = terms.get(key, 0) + c * ci
    return _cube_kind(kind)
