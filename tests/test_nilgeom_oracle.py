"""The rational validate and sym_derivation_dim against a sympy reference.

The reference keeps the earlier implementation: exact symbolic matrices with
sqrt entries, column spaces for the lower central series and the stacked
system {A.mu = 0, A^T J + J A = 0} for symplectic derivations.
"""

import random
from fractions import Fraction

import pytest

from orbitforge.coeffs import Coeff
from orbitforge.nilgeom import (LieBracket, ValidationError,
                                bracket_from_fixture_terms,
                                load_table2_fixture, sym_derivation_dim,
                                validate)

from oracles import of_basis

sympy = pytest.importorskip("sympy")


def _to_sympy(c: Coeff):
    return sympy.Rational(c.r) * sympy.sqrt(c.s)


def _adjoint(mu: LieBracket, i: int):
    m = sympy.zeros(mu.n, mu.n)
    for j in range(mu.n):
        for k, c in of_basis(mu, i, j).items():
            m[k, j] = _to_sympy(c)
    return m


def _column_space(m):
    cols = m.columnspace()
    if not cols:
        return sympy.zeros(m.shape[0], 0)
    return sympy.Matrix.hstack(*cols)


def reference_validate(mu: LieBracket, two_step: bool = False) -> None:
    n = mu.n
    ads = [_adjoint(mu, i) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                jac = sympy.zeros(n, 1)
                for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                    for t, coeff in of_basis(mu, a, b).items():
                        jac += ads[c][:, t] * (-_to_sympy(coeff))
                if any(sympy.simplify(x) != 0 for x in jac):
                    raise ValidationError("jacobi", (i, j, k))
    if two_step:
        for a in range(n):
            for b in range(a + 1, n):
                ab = sympy.zeros(n, 1)
                for t, coeff in of_basis(mu, a, b).items():
                    ab[t] += _to_sympy(coeff)
                for c in range(n):
                    # [[e_a, e_b], e_c] = -ad(e_c) [e_a, e_b].
                    if any(sympy.simplify(x) != 0 for x in ads[c] * ab):
                        raise ValidationError("not_two_step", (a, b, c))
    current = sympy.Matrix.hstack(*ads) if mu.vector.terms else sympy.zeros(n, 0)
    current = _column_space(current)
    while current.shape[1]:
        nxt = _column_space(sympy.Matrix.hstack(*(ads[i] * current for i in range(n))))
        if nxt.shape[1] >= current.shape[1]:
            raise ValidationError("not_nilpotent", ())
        current = nxt


def reference_sym_derivation_dim(mu: LieBracket) -> int:
    n = mu.n
    m = n // 2
    col = {(a, b): a * n + b for a in range(n) for b in range(n)}
    rows = []
    for p in range(n):
        for q in range(p + 1, n):
            base = of_basis(mu, p, q)
            for k in range(n):
                row = [sympy.Integer(0)] * (n * n)
                for t, c in base.items():
                    row[col[(k, t)]] += _to_sympy(c)
                for a in range(n):
                    for t, c in of_basis(mu, a, q).items():
                        if t == k:
                            row[col[(a, p)]] -= _to_sympy(c)
                    for t, c in of_basis(mu, p, a).items():
                        if t == k:
                            row[col[(a, q)]] -= _to_sympy(c)
                if any(x != 0 for x in row):
                    rows.append(row)
    jsign = lambda i: 1 if i < m else -1
    for a in range(n):
        for b in range(n):
            row = [sympy.Integer(0)] * (n * n)
            row[col[(n - 1 - b, a)]] += jsign(n - 1 - b)
            row[col[(n - 1 - a, b)]] += jsign(a)
            if any(x != 0 for x in row):
                rows.append(row)
    return n * n - sympy.Matrix(rows).rank(simplify=True)


def _outcome(check, mu, **kwargs):
    try:
        check(mu, **kwargs)
    except ValidationError as exc:
        return exc.kind, exc.witness
    return None


def _sq(square, sign=1):
    return Coeff.from_square(Fraction(square), sign)


def _fixture_brackets():
    return [(inst["label"], bracket_from_fixture_terms(inst["terms"]))
            for row in load_table2_fixture()["rows"] for inst in row["instances"]]


def test_fixture_instances_match_reference():
    brackets = _fixture_brackets()
    assert len(brackets) == 15
    for label, mu in brackets:
        assert _outcome(validate, mu, two_step=True) is None, label
        assert _outcome(reference_validate, mu, two_step=True) is None, label
        assert sym_derivation_dim(mu) == reference_sym_derivation_dim(mu), label


# Brackets with a known verdict: (bracket, two_step, expected outcome).
INVALID = {
    "jacobi": (LieBracket.from_terms(6, [((0, 1, 2), 1), ((2, 3, 4), 1)]),
               False, ("jacobi", (0, 1, 3))),
    "not_nilpotent": (LieBracket.from_terms(2, [((0, 1, 1), 1)]),
                      False, ("not_nilpotent", ())),
    "three_step": (LieBracket.from_terms(4, [((0, 1, 2), 1), ((0, 2, 3), 1)]),
                   True, ("not_two_step", (0, 1, 0))),
    "mixed_jacobi": (LieBracket.from_terms(6, [((0, 1, 2), _sq(2)),
                                               ((2, 3, 4), _sq(3))]),
                     False, ("jacobi", (0, 1, 3))),
    "mixed_not_nilpotent": (LieBracket.from_terms(3, [((0, 1, 1), _sq(2)),
                                                      ((0, 2, 2), _sq(3))]),
                            False, ("not_nilpotent", ())),
}


@pytest.mark.parametrize("name", sorted(INVALID))
def test_invalid_brackets_match_reference(name):
    mu, two_step, expected = INVALID[name]
    assert _outcome(validate, mu, two_step=two_step) == expected
    assert _outcome(reference_validate, mu, two_step=two_step) == expected


def test_two_step_bracket_with_a_sum_value_matches_reference():
    # [e1,e2] = e3 + e4, [e3,e5] = e6, [e4,e5] = -e6: [[x, y], z] = 0 for
    # every x, y, z, though e3 and e4, the basis targets of [e1, e2], each
    # bracket with e5 to a nonzero value.
    mu = LieBracket.from_terms(6, [((0, 1, 2), 1), ((0, 1, 3), 1),
                                   ((2, 4, 5), 1), ((3, 4, 5), -1)])
    assert _outcome(validate, mu, two_step=True) is None
    assert _outcome(reference_validate, mu, two_step=True) is None


# Mixed radicands: after dividing by the first radical, sqrt 2, 3, 5 leave
# the degree-8 field Q(sqrt 2, sqrt 3, sqrt 5); radicands 2, 3, 6 leave
# Q(sqrt 2, sqrt 3).
MIXED = {
    "roots_2_3_5": LieBracket.from_terms(
        6, [((0, 1, 4), _sq(2)), ((0, 2, 4), _sq(3)), ((1, 2, 5), _sq(5))]),
    "roots_2_3_6": LieBracket.from_terms(
        6, [((0, 1, 4), _sq(2)), ((0, 2, 5), _sq(3)), ((1, 2, 3), _sq(6, -1)),
            ((0, 1, 5), _sq(Fraction(1, 2)))]),
    "roots_2_3_6_filiform": LieBracket.from_terms(
        6, [((0, 1, 2), _sq(2)), ((0, 2, 3), _sq(3)), ((0, 3, 4), _sq(6)),
            ((0, 4, 5), 1)]),
}


@pytest.mark.parametrize("name", sorted(MIXED))
def test_mixed_radicands_match_reference(name):
    mu = MIXED[name]
    for two_step in (False, True):
        assert (_outcome(validate, mu, two_step=two_step)
                == _outcome(reference_validate, mu, two_step=two_step))
    assert sym_derivation_dim(mu) == reference_sym_derivation_dim(mu)


def test_random_mixed_brackets_match_reference():
    rng = random.Random(7)
    squares = [1, 2, 3, 6, Fraction(1, 2), Fraction(2, 3)]
    verdicts = set()
    for _ in range(12):
        n = rng.choice([4, 6])
        items = {}
        for _ in range(rng.randint(1, 4)):
            i, j = sorted(rng.sample(range(n), 2))
            items[(i, j, rng.randrange(n))] = _sq(rng.choice(squares),
                                                  rng.choice([1, -1]))
        mu = LieBracket.from_terms(n, items.items())
        got = _outcome(validate, mu)
        assert got == _outcome(reference_validate, mu)
        verdicts.add(None if got is None else got[0])
        assert sym_derivation_dim(mu) == reference_sym_derivation_dim(mu)
    assert {None, "jacobi"} <= verdicts


# The binary64 number 0.1 as an exact square: its radicand 2 * 13 * 37 * 109 *
# 246241 * 279073 is squarefree, and the field of a bracket with it and
# rational constants has degree 2.  Refactoring every product of radicands
# by trial division, on a field of degree 64, ran past a 20-s timeout.
LARGE_SQ = "3602879701896397/36028797018963968"


def _large_radicand_brackets():
    worked = LieBracket.from_terms(6, [((0, 3, 5), _sq(Fraction(LARGE_SQ))),
                                       ((1, 2, 4), 1)])
    (row,) = [r for r in load_table2_fixture()["rows"] if r["name"] == "16.(a)"]
    terms = [dict(t) for t in row["instances"][0]["terms"]]
    terms[0]["sq"] = LARGE_SQ
    return {"worked": worked, "16a": bracket_from_fixture_terms(terms)}


@pytest.mark.parametrize("name, dim", [("worked", 6), ("16a", 5)])
def test_large_radicand_brackets_match_reference(name, dim):
    mu = _large_radicand_brackets()[name]
    for two_step in (False, True):
        assert _outcome(validate, mu, two_step=two_step) is None
        assert _outcome(reference_validate, mu, two_step=two_step) is None
    assert sym_derivation_dim(mu) == reference_sym_derivation_dim(mu) == dim
