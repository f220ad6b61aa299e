"""Coefficients of the form r*sqrt(s): exact carriers for critical points.

Critical vectors routinely have square-root coefficients (e.g. sqrt(1/7)).
Every quantity the criteria need (norms, Gram data, moment maps) is quadratic
in the coefficients, so a single radical per coefficient keeps the whole
pipeline rational: ``Coeff`` stores r * sqrt(s) with r rational and s a
squarefree positive integer.  Only a ``Coeff`` made from a rational radicand
factors it, by trial division up to ``SPLIT_LIMIT`` (``RadicandError`` where
the cofactor left is at least SPLIT_LIMIT**3 and not a square); products fold
two squarefree radicands with one gcd.  Sums are only defined within one
radicand, and a sum of distinct radicands raises ``IrrationalError``.
``json_rational`` and ``json_integer`` are the one rule by which input and
fixture files give these numbers: rationals as strings or integers, signs as
integers.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, isqrt
from typing import Union

CoeffLike = Union["Coeff", Fraction, int, str]

# Trial division stops here: the cofactor left must be a perfect square or below
# SPLIT_LIMIT**3 (then it has at most two prime factors), or it is refused.
SPLIT_LIMIT = 10 ** 6

# Python's default limit on the digits of an integer string also caps a decimal
# exponent: Fraction builds 10**K for "1eK", and its radicand split takes ~K^2.
EXPONENT_LIMIT = 4300
_EXPONENT = re.compile(r"e[-+]?([0-9_]+)\s*\Z", re.IGNORECASE)


class RadicandError(ValueError):
    """A radicand whose square-free part trial division up to ``SPLIT_LIMIT``
    cannot settle: its cofactor is at least SPLIT_LIMIT**3 and not a square."""


def _square_free_split(n: int) -> tuple[int, int]:
    """n = k^2 * m with m squarefree; returns (k, m). Requires n >= 1.

    Divides out the primes below ``SPLIT_LIMIT``; the cofactor c left has no
    such prime, so below SPLIT_LIMIT**3 it has at most two prime factors and
    is square-free unless it is a square.  Any other c raises RadicandError.
    """
    k, m, d = 1, 1, 2
    while d * d <= n and d < SPLIT_LIMIT:
        if n % d == 0:
            count = 0
            while n % d == 0:
                n //= d
                count += 1
            k *= d ** (count // 2)
            if count % 2:
                m *= d
        d += 1 if d == 2 else 2
    root = isqrt(n)
    if root * root == n:
        return k * root, m
    if n >= SPLIT_LIMIT ** 3:
        raise RadicandError("cannot split the radicand factor %d: it has no prime factor "
                            "below %d and is neither a square nor below %d^3"
                            % (n, SPLIT_LIMIT, SPLIT_LIMIT))
    return k, m * n


def fold_radicands(s1: int, s2: int) -> tuple[int, int]:
    """(g, m) with sqrt(s1 s2) = g sqrt(m) for squarefree s1, s2: g = gcd(s1, s2)."""
    g = gcd(s1, s2)
    return g, (s1 // g) * (s2 // g)


def coprime_base(radicands) -> list[int]:
    """Pairwise-coprime integers > 1 of which each squarefree radicand is a product.

    Factor refinement with gcds alone: g = gcd(s, b) splits the base element b
    into g and b/g, and s goes on as s/g; squarefree s keeps the parts coprime.
    """
    base: list = []
    for s in radicands:
        refined = []
        for b in base:
            g = gcd(s, b)
            s //= g
            refined += [g, b // g]
        base = [b for b in refined + [s] if b > 1]
    return sorted(base)


def json_integer(x) -> int:
    """A JSON integer (exponent, index or sign): no float, boolean or string."""
    if type(x) is not int:
        raise ValueError("%r is not an integer" % (x,))
    return x


def json_rational(x) -> Fraction:
    """A JSON rational: a string such as "-3/4", or an integer.

    A JSON float is refused rather than read as its binary value (0.1 is not
    1/10 in binary), and so is a boolean.  A decimal exponent above
    ``EXPONENT_LIMIT`` in absolute value is refused too.
    """
    if type(x) is not str and type(x) is not int:
        raise ValueError("%r is not a rational string or an integer" % (x,))
    exponent = _EXPONENT.search(x) if type(x) is str else None
    if exponent and int(exponent.group(1)) > EXPONENT_LIMIT:
        raise ValueError("a decimal exponent above %d in absolute value" % EXPONENT_LIMIT)
    return Fraction(x)


class IrrationalError(ValueError):
    """An exact result left what ``Coeff`` holds: a rational was required and
    the value has a square root, or a sum mixes distinct radicands."""


class Coeff:
    """Exact number r * sqrt(s), r rational, s squarefree positive integer."""

    __slots__ = ("r", "s")

    def __init__(self, r: CoeffLike, s=1):
        if isinstance(r, Coeff):
            if s != 1:
                raise ValueError("cannot combine Coeff with a radicand")
            self.r, self.s = r.r, r.s
            return
        r = Fraction(r)
        s = Fraction(s)
        if s <= 0:
            raise ValueError("radicand must be positive")
        if r == 0:
            self.r, self.s = Fraction(0), 1
            return
        # sqrt(p/q) = sqrt(p*q)/q; then pull the square part out of p*q.
        k, m = _square_free_split(s.numerator * s.denominator)
        self.r = r * Fraction(k, s.denominator)
        self.s = m

    @classmethod
    def _normal(cls, r: Fraction, s: int) -> "Coeff":
        """r * sqrt(s) for a radicand s that is already squarefree: no factoring."""
        c = object.__new__(cls)
        c.r, c.s = r, (s if r else 1)
        return c

    @classmethod
    def from_square(cls, square, sign: int = 1) -> "Coeff":
        """The number sign * sqrt(square), square a positive rational."""
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        return cls(sign, square)

    def is_zero(self) -> bool:
        return self.r == 0

    def square(self) -> Fraction:
        return self.r * self.r * self.s

    def __neg__(self):
        return Coeff._normal(-self.r, self.s)

    def __add__(self, other):
        other = Coeff(other)
        if self.r == 0:
            return other
        if other.r == 0:
            return self
        if self.s != other.s:
            raise IrrationalError("cannot add mixed radicands sqrt(%d), sqrt(%d)"
                                  % (self.s, other.s))
        return Coeff._normal(self.r + other.r, self.s)

    def __sub__(self, other):
        return self + (-Coeff(other))

    def __mul__(self, other):
        other = Coeff(other)
        g, s = fold_radicands(self.s, other.s)
        return Coeff._normal(self.r * other.r * g, s)

    __rmul__ = __mul__
    __radd__ = __add__

    def __eq__(self, other):
        # Numbers only: a string equal to a Coeff would have to hash like it.
        if not isinstance(other, (Coeff, int, Fraction)):
            return NotImplemented
        other = Coeff(other)
        return self.r == other.r and self.s == other.s

    def __hash__(self):
        # A rational Coeff equals its value, so it hashes like it.
        return hash(self.r) if self.s == 1 else hash((self.r, self.s))

    def __float__(self):
        return float(self.r) * float(self.s) ** 0.5

    def __repr__(self):
        if self.s == 1:
            return "Coeff(%s)" % self.r
        return "Coeff(%s*sqrt(%d))" % (self.r, self.s)
