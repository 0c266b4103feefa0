"""Exact arithmetic in the 8th cyclotomic field.

Elements are stored on the power basis {1, z, z^2, z^3} with
z = exp(2*pi*i/8), using z^4 = -1 for reduction.  Only the ring
operations needed by the sign bookkeeping are provided; division is
limited to rational divisors.  The library itself keeps a cocycle value
z^k as its exponent k (``CocycleTable.eps0``); ``Cyc8`` is the scalar
type of the independent reference weight-2 oracle in the tests, which
multiplies by z^k itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from numbers import Rational


@dataclass(frozen=True)
class Cyc8:
    """An element a0 + a1*z + a2*z^2 + a3*z^3 with rational ai."""

    coeffs: tuple[Q, Q, Q, Q]

    @staticmethod
    def of(value) -> "Cyc8":
        if isinstance(value, Cyc8):
            return value
        return Cyc8((Q(value), Q(0), Q(0), Q(0)))

    @staticmethod
    def zeta_pow(k: int) -> "Cyc8":
        """z**k, reduced via z^4 = -1."""
        k %= 8
        sign = Q(-1) if k >= 4 else Q(1)
        coeffs = [Q(0)] * 4
        coeffs[k % 4] = sign
        return Cyc8(tuple(coeffs))

    def __add__(self, other) -> "Cyc8":
        o = Cyc8.of(other)
        return Cyc8(tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self) -> "Cyc8":
        return Cyc8(tuple(-a for a in self.coeffs))

    def __sub__(self, other) -> "Cyc8":
        return self + (-Cyc8.of(other))

    def __rsub__(self, other) -> "Cyc8":
        return Cyc8.of(other) + (-self)

    def __mul__(self, other) -> "Cyc8":
        o = Cyc8.of(other)
        out = [Q(0)] * 4
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(o.coeffs):
                if not b:
                    continue
                k = i + j
                if k >= 4:
                    out[k - 4] -= a * b
                else:
                    out[k] += a * b
        return Cyc8(tuple(out))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Cyc8":
        if isinstance(other, Cyc8):
            if not other.is_rational():
                raise TypeError("division is supported for rational divisors only")
            other = other.as_fraction()
        inv = Q(1) / Q(other)
        return Cyc8(tuple(a * inv for a in self.coeffs))

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, (Cyc8, Rational, int)):
            return self.coeffs == Cyc8.of(other).coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def conjugate(self) -> "Cyc8":
        a0, a1, a2, a3 = self.coeffs
        return Cyc8((a0, -a3, -a2, -a1))

    def is_real(self) -> bool:
        return self == self.conjugate()

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_fraction(self) -> Q:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.coeffs[0]

    def unit_exponent(self) -> int | None:
        """k with self == z**k, or None when self is not such a unit.

        On the power basis z**k is the single coefficient +-1 at k mod 4,
        negative exactly when k >= 4."""
        nonzero = [(k, a) for k, a in enumerate(self.coeffs) if a]
        if len(nonzero) != 1:
            return None
        k, a = nonzero[0]
        if a == 1:
            return k
        if a == -1:
            return k + 4
        return None

    def __repr__(self) -> str:
        names = ["", "z", "z^2", "z^3"]
        parts = []
        for a, n in zip(self.coeffs, names):
            if a:
                parts.append(f"{a}{'*' if n else ''}{n}")
        return " + ".join(parts) if parts else "0"


ONE = Cyc8.of(1)
MINUS_ONE = Cyc8.of(-1)
