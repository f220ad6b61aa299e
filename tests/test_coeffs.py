"""Arithmetic of r*sqrt(s) coefficients."""

from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitforge.coeffs import (SPLIT_LIMIT, Coeff, IrrationalError, RadicandError,
                              _square_free_split, json_integer, json_rational)


PRIMES = [2, 3, 5, 7, 11, 13, 37, 109, 997]


def test_square_free_split():
    assert _square_free_split(1) == (1, 1)
    assert _square_free_split(12) == (2, 3)
    assert _square_free_split(49) == (7, 1)
    assert _square_free_split(360) == (6, 10)


def test_split_refuses_a_cofactor_it_cannot_settle():
    # 1000003 * 1000033 * 1000037: no prime below the limit, not a square,
    # and above SPLIT_LIMIT**3, so trial division cannot tell its square part.
    assert SPLIT_LIMIT ** 3 < 1000073001431003663
    with pytest.raises(RadicandError, match="cannot split"):
        Coeff.from_square(1000073001431003663)
    assert issubclass(RadicandError, ValueError)
    # p^2 q above the bound is refused too: trial division cannot tell it
    # from a square-free p q r.
    with pytest.raises(RadicandError, match="cannot split"):
        _square_free_split(1000003 ** 2 * 1000033)
    # Below SPLIT_LIMIT**3 a cofactor has at most two prime factors, so
    # 1000000007 * 998244353, not a square, is square-free.
    assert _square_free_split(998244359987710471) == (1, 998244359987710471)


def test_split_accepts_large_primes_and_their_squares():
    p = 1000003  # a prime above SPLIT_LIMIT
    assert p > SPLIT_LIMIT
    assert Coeff.from_square(p * p) == Coeff(p)
    assert Coeff.from_square(Fraction(12 * p * p, 7)) == Coeff(Fraction(2 * p, 7), 21)
    q = 1000000007  # a prime below SPLIT_LIMIT**2 is its own square-free part
    assert _square_free_split(4 * q) == (2, q)
    assert _square_free_split(q * q * 3 ** 3) == (3 * q, 3)


def test_normalization():
    assert Coeff(1, 8) == Coeff(2, 2)                   # sqrt(8) = 2 sqrt(2)
    assert Coeff(1, Fraction(1, 2)) == Coeff(Fraction(1, 2), 2)
    assert Coeff(0, 7) == Coeff(0)
    assert Coeff(3).s == 1 and Coeff(3).r == 3
    with pytest.raises(ValueError):
        Coeff(1, -2)


def test_from_square_round_trip():
    c = Coeff.from_square(Fraction(1, 7))
    assert c.square() == Fraction(1, 7)
    assert float(c) == pytest.approx(1 / 7 ** 0.5)
    d = Coeff.from_square(Fraction(9, 4), -1)
    assert d == Coeff(Fraction(-3, 2))
    with pytest.raises(ValueError):
        Coeff.from_square(Fraction(1, 2), 2)


@settings(max_examples=200, deadline=None)
@given(r1=st.fractions(-9, 9, max_denominator=7), r2=st.fractions(-9, 9, max_denominator=7),
       p1=st.sets(st.sampled_from(PRIMES)), p2=st.sets(st.sampled_from(PRIMES)))
def test_products_match_the_factored_product(r1, r2, p1, p2):
    # Squarefree radicands multiply by one gcd; the old product factored s1 s2.
    s1, s2 = prod(p1), prod(p2)
    got = Coeff(r1, s1) * Coeff(r2, s2)
    want = Coeff(r1 * r2, s1 * s2)
    assert (got.r, got.s) == (want.r, want.s)


def test_addition_within_one_radicand():
    a, b = Coeff(1, 3), Coeff(2, 3)
    assert a + b == Coeff(3, 3)
    assert a - b == Coeff(-1, 3)
    assert a + 0 == a and 0 + a == a
    with pytest.raises(ValueError):
        a + Coeff(1, 2)


def test_multiplication_folds_radicands():
    assert Coeff(1, 2) * Coeff(1, 2) == Coeff(2)
    assert Coeff(1, 2) * Coeff(1, 3) == Coeff(1, 6)
    assert Coeff(1, 6) * Coeff(1, 10) == Coeff(2, 15)
    assert Fraction(1, 2) * Coeff(4, 5) == Coeff(2, 5)


def test_irrational_results_raise_the_typed_error():
    assert issubclass(IrrationalError, ValueError)
    with pytest.raises(IrrationalError):
        Coeff(1, 2) + Coeff(1, 3)


def test_equality_and_hash():
    assert Coeff(2, 2) == Coeff(1, 8)
    assert hash(Coeff(2, 2)) == hash(Coeff(1, 8))
    assert Coeff(0) == 0
    assert Coeff(1, 2) != Coeff(1, 3)


def test_rational_coeffs_hash_like_their_values_and_others_compare_unequal():
    assert Coeff(2) == 2 and hash(Coeff(2)) == hash(2)
    assert {Coeff(2): "two"}.get(2) == "two"
    assert {Fraction(1, 3): "third"}.get(Coeff(Fraction(1, 3))) == "third"
    assert hash(Coeff(0)) == hash(0)
    # Operands that are no CoeffLike are unequal, not errors.
    for other in (None, "abc", "1/0", [1], object()):
        assert Coeff(1) != other and not Coeff(1) == other
    # Nor is a string of the same value: equal operands must hash alike.
    for text in ("1", "2", "-1/3", "0"):
        assert Coeff(text) != text and not Coeff(text) == text
    assert {Coeff(2): "two"}.get("2") is None and {"2": "two"}.get(Coeff(2)) is None


def test_json_rationals_are_strings_or_integers():
    assert json_rational("-3/4") == Fraction(-3, 4)
    assert json_rational(5) == 5 and json_rational("1e3") == 1000
    assert json_rational("1e4300") == 10 ** 4300
    for bad in ("1e4301", "1e-4301"):
        with pytest.raises(ValueError, match="exponent above 4300"):
            json_rational(bad)
    for bad in (0.1, 1.0, float("inf"), True, None, [1]):
        with pytest.raises(ValueError, match="not a rational string or an integer"):
            json_rational(bad)
    assert json_integer(-1) == -1
    for bad in (1.0, True, "1"):
        with pytest.raises(ValueError, match="not an integer"):
            json_integer(bad)
