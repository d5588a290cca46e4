"""Exact root-of-unity phases as rationals modulo 1.

A phase value ``Phase(n, d)`` stands for the complex number exp(2*pi*i*n/d).
All gate and operator phases in this package are roots of unity, so keeping
the exponent as a reduced fraction in [0, 1) makes every phase comparison
exact; floating point only appears when a dense matrix is materialised.
"""

from __future__ import annotations

import cmath
from fractions import Fraction


class Phase:
    """An element of Q/Z written as a reduced fraction ``num/den``."""

    __slots__ = ("_frac",)

    def __init__(self, numerator: int | Fraction = 0, denominator: int = 1):
        frac = Fraction(numerator, denominator) if denominator != 1 or not isinstance(
            numerator, Fraction) else numerator
        self._frac = frac - (frac.numerator // frac.denominator)

    @classmethod
    def from_fraction(cls, frac: Fraction) -> "Phase":
        p = object.__new__(cls)
        p._frac = frac - (frac.numerator // frac.denominator)
        return p

    @property
    def frac(self) -> Fraction:
        return self._frac

    @property
    def num(self) -> int:
        return self._frac.numerator

    @property
    def den(self) -> int:
        return self._frac.denominator

    def is_zero(self) -> bool:
        return self._frac == 0

    def __add__(self, other: "Phase") -> "Phase":
        return Phase.from_fraction(self._frac + other._frac)

    def __sub__(self, other: "Phase") -> "Phase":
        return Phase.from_fraction(self._frac - other._frac)

    def __neg__(self) -> "Phase":
        return Phase.from_fraction(-self._frac)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Phase):
            return NotImplemented
        return self._frac == other._frac

    def __hash__(self) -> int:
        return hash(self._frac)

    def __repr__(self) -> str:
        return f"Phase({self.num}/{self.den})"

    def to_complex(self) -> complex:
        return cmath.exp(2j * cmath.pi * float(self._frac))

    def as_string(self) -> str:
        return f"{self.num}/{self.den}"

    @classmethod
    def parse(cls, text: str) -> "Phase":
        num, _, den = text.partition("/")
        return cls(int(num), int(den) if den else 1)
