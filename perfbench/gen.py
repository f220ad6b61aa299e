"""Seeded inputs for every workload.

Nothing here imports orbitforge: inputs are plain Python data (exponent
tuples, 0-based bracket triples, signed squares as ``(sq, sign)``), built
from ``random.Random`` so that the same seed gives the same inputs on every
machine.  The workloads turn them into orbitforge objects.
"""

from __future__ import annotations

import random
from fractions import Fraction

# One orbit-stream round, in order: (kind, parameter, support size).
#   form     -- ternary form of degree `parameter` under GL(3)
#   gl6      -- 6-dimensional two-step bracket under GL(6)
#   sp6      -- the same, under Sp(6) with the antidiagonal form
#   sp6-rad  -- an Sp(6) bracket whose coefficients all share one radicand
# The composition is fixed so that every round asks the same kinds of
# question; the seed and the round number pick the monomials, brackets and
# coefficients.
STREAM_SLOTS = (
    [("form", 4, k) for k in (2, 3, 4, 5)]
    + [("form", 5, k) for k in (2, 3, 4, 5)]
    + [("form", 6, k) for k in (2, 3, 4)]
    + [("gl6", None, k) for k in (2, 3, 4, 5)]
    + [("sp6", None, k) for k in (2, 3, 4, 5)]
    + [("sp6-rad", None, k) for k in (2, 3, 4)]
)

RADICANDS = (2, 3, 5, 6, 7)
PASSES = 8          # passes over STREAM_SLOTS in one round

# The worked bracket of the paper's symplectic example (1-based indices):
# [e1, e4] = e6 and [e2, e3] = e5.
WORKED_BRACKET = [(0, 3, 5, (Fraction(1), 1)), (1, 2, 4, (Fraction(1), 1))]


def _monomials(d: int, n: int = 3) -> list:
    if n == 1:
        return [(d,)]
    return [(e,) + rest for e in range(d, -1, -1) for rest in _monomials(d - e, n - 1)]


def random_form(rng: random.Random, d: int, k: int) -> list:
    """k distinct monomials of degree d in 3 variables with rational coefficients."""
    exps = rng.sample(_monomials(d), k)
    return [(e, Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4)))
            for e in exps]


def random_two_step(rng: random.Random, k: int, radicand: int = 1) -> list:
    """k terms of a 6-dimensional two-step bracket, as (i, j, l, (sq, sign)).

    A random set of two or three basis vectors spans the centre; brackets
    take pairs of the others into it, so Jacobi and two-step nilpotency hold
    by construction.  Each coefficient is sign * sqrt(sq) with sq a rational
    times ``radicand``, so all coefficients of one bracket share a radicand.
    """
    centre = rng.sample(range(6), rng.choice((2, 3)))
    outer = [i for i in range(6) if i not in centre]
    triples = [(i, j, c) for a, i in enumerate(outer) for j in outer[a + 1:]
               for c in centre]
    terms = []
    for i, j, c in rng.sample(triples, k):
        sq = Fraction(rng.randint(1, 6), rng.randint(1, 3)) ** 2 * radicand
        terms.append((i, j, c, (sq, rng.choice((-1, 1)))))
    return terms


def stream_round(seed: int, round_no: int) -> list:
    """The questions of one orbit-stream round: a list of (kind, payload)."""
    rng = random.Random("orbit-stream/%d/%d" % (seed, round_no))
    out = []
    for kind, param, k in STREAM_SLOTS * PASSES:
        if kind == "form":
            out.append(("form", random_form(rng, param, k)))
        elif kind == "gl6":
            out.append(("gl6", random_two_step(rng, k)))
        elif kind == "sp6":
            out.append(("sp6", random_two_step(rng, k)))
        else:
            out.append(("sp6", random_two_step(rng, k, rng.choice(RADICANDS))))
    return out


def cli_form(seed: int) -> list:
    """The quartic that cli-cold's `check` call classifies."""
    return random_form(random.Random("cli-cold/%d" % seed), 4, 4)
