"""Float solvers: Newton for the moment equation and the float moment map."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from math import log

import pytest

import orbitforge
from orbitforge.flow import solve_moment_equation
from orbitforge.lattice import gl_roots, projection, sp_diag_roots
from orbitforge.nicecrit import is_distinguished
from orbitforge.nilgeom import (LieBracket, NotDistinguishedError,
                                bracket_from_fixture_terms, find_minimal_metric,
                                load_table2_fixture)
from orbitforge.ratgeom import Vec, interior_certificate
from orbitforge.reps import RepVector, moment_map, support, weight_classes, weight_masses

from oracles import (float_norm_sq, group_scale, moment_map_float, project_to_subspace,
                     scale_by_diag)

EVEN_QUARTICS = [(4, 0, 0), (0, 4, 0), (0, 0, 4), (2, 2, 0), (2, 0, 2), (0, 2, 2)]


def class_masses(v, roots):
    """v's class masses {(projected) weight: mass}, the solver's input."""
    return weight_masses(v.backend, weight_classes(v.backend, v.terms, projection(roots)))


def _worked_bracket():
    return RepVector.bracket(6, [((0, 3, 5), 1), ((1, 2, 4), 1)])


def test_newton_on_critical_bracket_stays_put():
    mu = _worked_bracket().scale(Fraction(1, 2))
    h = Fraction(1, 2)
    beta = Vec([-h, -h, 0, 0, h, h])
    res = solve_moment_equation(class_masses(mu, sp_diag_roots(3)), beta)
    assert res.residual <= 1e-12
    assert res.hessian_psd_ok
    # mu/2 is already critical: the solution vanishes in the search space.
    proj = project_to_subspace(res, res.x)
    assert max(abs(t) for t in proj) < 1e-12 if len(proj) else True
    # The published diagonal solves the same equation modulo degeneracy.
    published = [log(2), 0.0, log(2), -log(2), 0.0, -log(2)]
    assert max(abs(t) for t in project_to_subspace(res, published)) < 1e-12


def test_newton_reaches_quartic_critical_point():
    v = RepVector.poly(3, 4, [((1, 3, 0), 1), ((2, 0, 2), 1)])
    beta = Vec([Fraction(-11, 7), Fraction(-9, 7), Fraction(-8, 7)])
    res = solve_moment_equation(class_masses(v, gl_roots(3)), beta)
    assert res.residual <= 1e-12 and res.iterations <= 50
    moved = scale_by_diag(res.x, v.backend, v.terms)
    nsq = float_norm_sq(v.backend, moved)
    # Squared coefficients of the normalized image: 1/14 and 1/7.
    sq = {idx: c * c / nsq for idx, c in moved.items()}
    assert sq[(1, 3, 0)] == pytest.approx(1 / 14, abs=1e-12)
    assert sq[(2, 0, 2)] == pytest.approx(1 / 7, abs=1e-12)


def test_newton_rejects_empty_and_mismatched_masses():
    with pytest.raises(ValueError, match="no weights"):
        solve_moment_equation({}, Vec([0, 0, 0]))
    masses = class_masses(RepVector.poly(3, 4, [((1, 3, 0), 1), ((2, 0, 2), 1)]), gl_roots(3))
    with pytest.raises(ValueError, match="dimension"):
        solve_moment_equation(masses, Vec([-2, -2]))


def test_find_minimal_metric_solves_through_the_one_newton_entry(monkeypatch):
    calls = []

    def counted(masses, beta):
        calls.append(beta)
        return solve_moment_equation(masses, beta)

    monkeypatch.setattr(orbitforge.flow, "solve_moment_equation", counted)
    row = next(r for r in load_table2_fixture()["rows"] if r["name"] == "16.(a)")
    find_minimal_metric(bracket_from_fixture_terms(row["instances"][0]["terms"]))
    assert len(calls) == 1
    find_minimal_metric(LieBracket.from_terms(3, [((0, 1, 2), 1)]), gl_roots(3))
    assert len(calls) == 2
    with pytest.raises(NotDistinguishedError) as err:
        find_minimal_metric(LieBracket.from_terms(6, [((0, 1, 5), 1), ((2, 3, 4), 1)]))
    assert err.value.verdict.outcome == "not_nice" and len(calls) == 2


def _random_even_element(rng):
    items = []
    for idx in rng.sample(EVEN_QUARTICS, rng.randint(2, 6)):
        items.append((idx, Fraction(rng.randint(1, 5), rng.randint(1, 3))))
    return RepVector.poly(3, 4, items)


def test_moment_map_convexity_on_nice_elements():
    """mm_a(exp(X)v) stays in the relative interior of CH(support(v)).

    Even quartic monomials have pairwise non-root weight differences, so any
    element supported on them is nice.  The diagonal action is applied with
    exact rational multipliers and the float moment map is compared with the
    exact one.
    """
    rng = random.Random(2026)
    for _ in range(100):
        v = _random_even_element(rng)
        sup = support(v)
        mult = [Fraction(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(3)]
        moved = group_scale(mult, v)
        mm = moment_map(moved)
        assert mm.is_diagonal()
        assert interior_certificate(sup, mm.diag()) is not None
        mm_f = moment_map_float(moved.backend, moved.terms)
        for a in range(3):
            for b in range(3):
                assert abs(mm_f[a][b] - float(mm.rows[a][b])) <= 1e-10


def test_moment_map_limit_hits_exposed_weight():
    rng = random.Random(8)
    for _ in range(10):
        v = _random_even_element(rng)
        sup = support(v)
        # Expose a support weight: direction maximizing <d, alpha> uniquely.
        for alpha in sup:
            vals = sorted(float(w.dot(alpha)) for w in sup)
            own = float(alpha.norm_sq())
            uniquely_exposed = (abs(vals[-1] - own) < 1e-12 and
                                (len(vals) == 1 or vals[-1] - vals[-2] > 1e-9))
            if not uniquely_exposed:
                continue
            moved = scale_by_diag([6.0 * float(a) for a in alpha], v.backend, v.terms)
            mm = moment_map_float(v.backend, moved)
            for i in range(3):
                assert abs(mm[i][i] - float(alpha[i])) <= 1e-6


def test_scale_by_diag_matches_group_scale():
    v = RepVector.poly(3, 4, [((1, 3, 0), 1), ((2, 0, 2), Fraction(1, 2))])
    exact = group_scale([2, 3, Fraction(1, 5)], v)
    x = [log(2), log(3), log(1 / 5)]
    fv = scale_by_diag(x, v.backend, v.terms)
    for idx, c in exact.terms.items():
        assert fv[idx] == pytest.approx(float(c), rel=1e-12)


def test_newton_takes_full_steps_below_float_noise():
    # Armijo backtracking cannot see a phi decrease below float noise; this
    # form used to stall there at residual 1e-8.
    v = RepVector.poly(3, 6, [((5, 0, 1), Fraction(1, 3)), ((2, 4, 0), Fraction(3, 4)),
                              ((0, 4, 2), 2), ((1, 2, 3), Fraction(-5, 4))])
    res = solve_moment_equation(class_masses(v, gl_roots(3)), (-2, -2, -2))
    assert res.residual <= 1e-12


def _random_form(rng):
    d = rng.randint(4, 6)
    monomials = [(a, b, d - a - b) for a in range(d + 1) for b in range(d + 1 - a)]
    return RepVector.poly(3, d, [
        (e, Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4)))
        for e in rng.sample(monomials, rng.randint(2, 6))])


def test_newton_converges_on_random_distinguished_forms():
    rng = random.Random(2027)
    solved = 0
    while solved < 60:
        v = _random_form(rng)
        verdict = is_distinguished(support(v), v.backend, gl_roots(3))
        if verdict.outcome != "distinguished":
            continue
        res = solve_moment_equation(class_masses(v, gl_roots(3)), verdict.beta)
        assert res.residual <= 1e-12 and res.hessian_psd_ok, (v, res)
        # The search space is an orthonormal basis of the weight differences.
        rows = res.subspace
        for r in range(len(rows)):
            for s in range(len(rows)):
                dot = sum(a * b for a, b in zip(rows[r], rows[s]))
                assert abs(dot - (r == s)) <= 1e-12
        a0 = support(v)[0]
        for alpha in support(v):
            diff = [float(t) for t in alpha - a0]
            proj = project_to_subspace(res, diff)
            assert max(abs(float(p) - d) for p, d in zip(proj, diff)) <= 1e-12
        solved += 1


def test_newton_loads_no_numpy():
    probe = ("import sys, orbitforge.flow; "
             "from orbitforge.nilgeom import LieBracket, find_minimal_metric; "
             "find_minimal_metric(LieBracket.from_terms(6, [((0, 3, 5), 1), ((1, 2, 4), 1)])); "
             "print('numpy' in sys.modules)")
    src = os.path.dirname(os.path.dirname(orbitforge.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"
