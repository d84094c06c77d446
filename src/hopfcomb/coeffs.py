"""Exact coefficient arithmetic: integers and integer polynomials in q.

Plain Python ints serve as the integer ring.  :class:`QPoly` is a univariate
polynomial in ``q`` with int coefficients, normalized with no trailing zero
coefficients, and interoperates with ints in mixed expressions.
"""
from __future__ import annotations

from typing import Sequence


class QPoly:
    """Polynomial in q over the integers, in normal form.

    >>> q = QPoly.gen()
    >>> (q + 1) * (q - 1)
    QPoly('q^2-1')
    >>> 3 * q**2 + 1
    QPoly('3*q^2+1')
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def _normal(cls, coeffs: tuple) -> "QPoly":
        """Wrap a tuple already in normal form: its last entry, if any, is nonzero."""
        out = object.__new__(cls)
        out.coeffs = coeffs
        return out

    @staticmethod
    def gen() -> "QPoly":
        return QPoly((0, 1))

    @staticmethod
    def const(n: int) -> "QPoly":
        return QPoly._normal((n,) if n else ())

    @staticmethod
    def monomial(exponent: int) -> "QPoly":
        return QPoly._normal((0,) * exponent + (1,))

    @staticmethod
    def coerce(value: "QPoly | int") -> "QPoly":
        return value if isinstance(value, QPoly) else QPoly.const(value)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == QPoly.const(other).coeffs
        return NotImplemented

    def __hash__(self) -> int:
        if len(self.coeffs) <= 1:
            return hash(self.coeffs[0] if self.coeffs else 0)
        return hash(self.coeffs)

    def __add__(self, other: "QPoly | int") -> "QPoly":
        a = self.coeffs
        b = QPoly.coerce(other).coeffs
        if len(a) < len(b):
            a, b = b, a
        if len(a) == len(b):
            # only equal lengths can cancel the top coefficient
            return QPoly([x + y for x, y in zip(a, b)])
        return QPoly._normal(tuple([x + y for x, y in zip(a, b)]) + a[len(b):])

    __radd__ = __add__

    def __neg__(self) -> "QPoly":
        return QPoly._normal(tuple([-c for c in self.coeffs]))

    def __sub__(self, other: "QPoly | int") -> "QPoly":
        return self + (-QPoly.coerce(other))

    def __rsub__(self, other: int) -> "QPoly":
        return QPoly.const(other) - self

    def __mul__(self, other: "QPoly | int") -> "QPoly":
        # a product of nonzero integer polynomials keeps a nonzero top
        # coefficient, so the result needs no trailing-zero strip
        a = self.coeffs
        b = QPoly.coerce(other).coeffs
        if not a or not b:
            return QPoly._normal(())
        if len(a) < len(b):
            a, b = b, a
        if len(b) == 1:
            c = b[0]
            return QPoly._normal(tuple([c * x for x in a]))
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return QPoly._normal(tuple(out))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QPoly":
        out = QPoly.const(1)
        for _ in range(n):
            out = out * self
        return out

    def subs(self, value: int) -> int:
        """Evaluate at an integer value of q."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for exponent in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[exponent]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if exponent == 0:
                body = str(mag)
            else:
                power = "q" if exponent == 1 else f"q^{exponent}"
                body = power if mag == 1 else f"{mag}*{power}"
            terms.append((sign, body))
        first_sign, first_body = terms[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in terms[1:]:
            text += sign + body
        return text

    def __repr__(self) -> str:
        return f"QPoly({str(self)!r})"
