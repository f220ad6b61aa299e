"""Acceptance gate: one test per criterion, reported pass/fail by pytest -v.

Tolerances are pinned here and nowhere looser: exact (zero tolerance) for all
rational identities, 1e-12 for Newton residuals, 1e-10 for the convexity
check, 1e-6 for exposed-direction limits.
"""

import random
from fractions import Fraction
from math import log

from orbitforge.flow import solve_moment_equation
from orbitforge.lattice import gl_roots
from orbitforge.nicecrit import is_nice
from orbitforge.nilgeom import (LieBracket, bracket_from_fixture_terms,
                                load_table2_fixture, run_table2)
from orbitforge.ratgeom import PointSet, Vec, interior_certificate, mcc
from orbitforge.reps import (PolyBackend, RepVector, moment_map,
                             moment_map_restricted, support, support_projected)
from orbitforge.ternary import classify, display_type, stratifying_set, verify_table1

from oracles import (apply_matrix, gram, group_scale, moment_map_float, nice_by_images,
                     positive_solution, project_to_subspace, ricci, scale_by_diag, sym_scale)
from test_flow import EVEN_QUARTICS, _random_even_element
from test_ratgeom import _oracle_mcc, _random_point_set
from test_reps import _random_two_step
from test_ternary import QUARTIC_TYPES

NEWTON_TOL = 1e-12
CONVEXITY_TOL = 1e-10
LIMIT_TOL = 1e-6


def test_criterion_1_quartic_stratum_types():
    labels = stratifying_set(4, 3)
    assert len(labels) == 12
    assert {display_type(b) for b in labels} == QUARTIC_TYPES
    assert (Fraction(1, 2), Fraction(1, 2), 3) not in \
        {display_type(b) for b in labels}


def test_criterion_2_quartic_critical_coefficients_exact():
    reports = verify_table1()
    failures = [(r.type, r.mismatches) for r in reports if not r.passed]
    assert not failures, failures
    # Spot-pin the two headline rows on top of the full diff.
    by_type = {r.type: r for r in reports}
    b1 = by_type[(Fraction(8, 7), Fraction(9, 7), Fraction(11, 7))]
    assert b1.stratum.families[0].family.coefficient_squares() == \
        (Fraction(1, 14), Fraction(1, 7))
    b3 = by_type[(Fraction(6, 7), Fraction(10, 7), Fraction(12, 7))]
    assert b3.stratum.families[0].family.coefficient_squares() == \
        (Fraction(1, 168), Fraction(3, 7))
    empty = by_type[(Fraction(1, 2), Fraction(1, 2), 3)]
    assert empty.stratum.empty


def test_criterion_3_worked_example():
    mu = RepVector.bracket(6, [((0, 3, 5), 1), ((1, 2, 4), 1)])
    weights = support_projected(mu, 3)
    u = gram(weights)
    assert u[0, 0] == u[1, 1] == Fraction(5, 2)
    assert u[0, 1] == u[1, 0] == Fraction(-1, 2)
    x, lam = positive_solution(u, weights)
    assert tuple(x) == (Fraction(1, 2), Fraction(1, 2)) and lam == 1
    h = Fraction(1, 2)
    beta = Vec([-h, -h, 0, 0, h, h])
    res = solve_moment_equation(mu, beta, subgroup="sp")
    assert res.residual <= NEWTON_TOL
    published = [log(2), 0.0, log(2), -log(2), 0.0, -log(2)]
    gap = project_to_subspace(res, res.x) - project_to_subspace(res, published)
    assert max(abs(t) for t in gap) <= NEWTON_TOL if len(gap) else True
    rescaled = group_scale([2, 1, 2, h, 1, h], mu)
    assert rescaled == mu.scale(h)
    mm_sp = moment_map_restricted(rescaled, "sp", 3)
    assert mm_sp.is_diagonal() and mm_sp.diag() == beta


def test_criterion_4_table2_regression():
    reports = run_table2()
    assert len(reports) == 15  # 11 rows, parametric ones at t in {2, 3, 1/2}
    externally_sourced = {"18.(b_t)", "18.(c)"}
    hard_failures = [r for r in reports
                     if not r.passed and r.name not in externally_sourced]
    soft_failures = [r for r in reports
                     if not r.passed and r.name in externally_sourced]
    for r in soft_failures:
        print("table2 computed-vs-printed diff for %s: %r" % (r.label, r.mismatches))
    assert not hard_failures, [(r.label, r.mismatches) for r in hard_failures]
    assert not soft_failures, "externally sourced rows diverged (diffs above)"


def test_criterion_5_oracle_equivalences():
    rng = random.Random(99)
    # (a) mcc vs brute-force subset enumeration.
    for _ in range(200):
        s = _random_point_set(rng)
        assert mcc(s) == _oracle_mcc(s)
    # (b) positive Gram solution iff relative-interior membership.
    for _ in range(200):
        s = _random_point_set(rng)
        sol = positive_solution(gram(s), s)
        assert (sol is not None) == (interior_certificate(s, mcc(s)) is not None)
    # (c) 4 Ric = |mu|^2 mm on random nilpotent brackets, dims 4-7.
    done = 0
    while done < 200:
        v = _random_two_step(rng, rng.randint(4, 7))
        if v.is_zero():
            continue
        assert sym_scale(moment_map(v), v.norm_sq()) == sym_scale(ricci(LieBracket(v)), 4)
        done += 1
    # (d) is_nice, which reads the weights alone, vs the generator-image nice
    # check on monomial spans.
    backend = PolyBackend(3, 4)
    roots = gl_roots(3)
    indices = list(backend.all_indices())
    done = 0
    while done < 200:
        subset = rng.sample(indices, rng.randint(1, 5))
        weights = PointSet([backend.weight(i) for i in subset])
        nice, _ = is_nice(weights, backend, roots)
        assert nice == nice_by_images(weights, backend, roots)
        done += 1


def test_criterion_6_convexity_of_the_moment_map_image():
    rng = random.Random(6)
    for _ in range(100):
        v = _random_even_element(rng)
        sup = support(v)
        moved = group_scale([Fraction(rng.randint(1, 6), rng.randint(1, 6))
                             for _ in range(3)], v)
        mm = moment_map(moved)
        assert mm.is_diagonal() and interior_certificate(sup, mm.diag()) is not None
        mm_f = moment_map_float(moved.backend, moved.terms)
        assert all(abs(mm_f[a][b] - float(mm.rows[a][b])) <= CONVEXITY_TOL
                   for a in range(3) for b in range(3))
    # Limits along exposed directions reach the exposed weight.
    v = RepVector.poly(3, 4, [(idx, 1) for idx in EVEN_QUARTICS])
    for alpha in (Vec([-4, 0, 0]), Vec([0, -4, 0]), Vec([0, 0, -4])):
        moved = scale_by_diag([6.0 * float(a) for a in alpha],
                              v.backend, v.terms)
        mm = moment_map_float(v.backend, moved)
        assert all(abs(mm[i][i] - float(alpha[i])) <= LIMIT_TOL for i in range(3))


def test_criterion_7_criticality_invariants_exact():
    backend = PolyBackend(3, 4)
    for idx in backend.all_indices():
        v = RepVector(backend, {idx: 1})
        mm = moment_map(v)
        assert mm.is_diagonal() and mm.diag() == backend.weight(idx)
    # Every recomputed critical element satisfies pi(mm(v)) v = |beta|^2 v.
    from orbitforge.coeffs import Coeff
    for stratum in classify(4):
        for fam in stratum.families:
            sq = fam.family.coefficient_squares()
            items = [(tuple(int(-x) for x in w), Coeff.from_square(s))
                     for w, s in zip(fam.weights, sq) if s != 0]
            v = RepVector(backend, items)
            assert v.norm_sq() == 1
            mm = moment_map(v)
            assert mm.is_diagonal() and mm.diag() == stratum.beta
            image = apply_matrix([list(r) for r in mm.rows], v)
            assert image == v.scale(stratum.beta.norm_sq())


def test_criterion_8_newton_on_all_table_cases():
    backend = PolyBackend(3, 4)
    checked = 0
    for stratum in classify(4):
        for fam in stratum.families:
            if interior_certificate(fam.weights, stratum.beta) is None:
                continue
            items = [(tuple(int(-x) for x in w), 1) for w in fam.weights]
            v = RepVector(backend, items)
            res = solve_moment_equation(v, stratum.beta)
            assert res.residual <= NEWTON_TOL, (stratum.beta, res.residual)
            assert res.iterations <= 50 and res.hessian_psd_ok
            checked += 1
    assert checked >= 12
    fixture = load_table2_fixture()
    for row in fixture["rows"]:
        for inst in row["instances"]:
            mu = bracket_from_fixture_terms(inst["terms"])
            beta = mcc(support_projected(mu.vector, 3))
            start = RepVector(mu.vector.backend,
                              [(idx, 1) for idx in mu.vector.terms])
            res = solve_moment_equation(start, beta, subgroup="sp")
            assert res.residual <= NEWTON_TOL, (inst["label"], res.residual)
            assert res.iterations <= 50 and res.hessian_psd_ok
