"""Gaussian-rational complex numbers and the dual numeric backends.

GaussianRational is the exact backend (pairs of Fraction); the float
backend is the built-in complex.  GaussianRational shares complex's
interface (real, imag, conjugate(), arithmetic with int and Fraction), so
each model conversion is one formula that runs bit-exactly or in doubles.
"""

from __future__ import annotations

from fractions import Fraction

from ._linalg import frac


class GaussianRational:
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = frac(re)
        self.im = frac(im)

    def __add__(self, other):
        other = as_gaussian(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-as_gaussian(other))

    def __rsub__(self, other):
        return as_gaussian(other) + (-self)

    def __mul__(self, other):
        other = as_gaussian(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_gaussian(other)
        n2 = other.re * other.re + other.im * other.im
        if n2 == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n2,
            (self.im * other.re - self.re * other.im) / n2,
        )

    def __rtruediv__(self, other):
        return as_gaussian(other) / self

    def __eq__(self, other):
        try:
            other = as_gaussian(other)
        except TypeError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    @property
    def real(self) -> Fraction:
        return self.re

    @property
    def imag(self) -> Fraction:
        return self.im

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


I = GaussianRational(0, 1)


def as_gaussian(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x, 0)
    raise TypeError(f"cannot coerce {type(x).__name__} to GaussianRational")


def abs2(z):
    """|z|^2 on either backend, exactly for a GaussianRational."""
    return z.real * z.real + z.imag * z.imag
