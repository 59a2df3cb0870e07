"""Exact Gaussian-rational scalars (a + b*i with a, b rational)."""

from __future__ import annotations

from fractions import Fraction


class QQi:
    """Immutable Gaussian rational.  The single exact scalar type used by
    the algebra, the conjugation sign tables and the Levi matrices."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, *a):
        raise AttributeError("QQi is immutable")

    # -- constructors -------------------------------------------------
    @staticmethod
    def i() -> "QQi":
        return QQi(0, 1)

    @staticmethod
    def of(x) -> "QQi":
        if isinstance(x, QQi):
            return x
        return QQi(x)

    # -- arithmetic ----------------------------------------------------
    def __add__(self, o):
        o = QQi.of(o)
        return QQi(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return QQi(-self.re, -self.im)

    def __sub__(self, o):
        o = QQi.of(o)
        return QQi(self.re - o.re, self.im - o.im)

    def __rsub__(self, o):
        return QQi.of(o) - self

    def __mul__(self, o):
        o = QQi.of(o)
        return QQi(self.re * o.re - self.im * o.im,
                   self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = QQi.of(o)
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero QQi")
        return QQi((self.re * o.re + self.im * o.im) / n,
                   (self.im * o.re - self.re * o.im) / n)

    def __rtruediv__(self, o):
        return QQi.of(o) / self

    def conj(self) -> "QQi":
        return QQi(self.re, -self.im)

    # -- predicates ----------------------------------------------------
    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def is_real(self) -> bool:
        return self.im == 0

    def __eq__(self, o):
        o = QQi.of(o)
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        return f"({self.re}{'+' if self.im > 0 else ''}{self.im}i)"

    def to_complex(self) -> complex:
        return float(self.re) + 1j * float(self.im)


ZERO = QQi(0)
I_POW = (QQi(1), QQi(0, 1), QQi(-1), QQi(0, -1))  # i**k for k mod 4
