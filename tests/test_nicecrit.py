"""Nice-space detection, the Gram criterion, and critical coefficients."""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from orbitforge import _exact, lattice
from orbitforge.lattice import gl_roots, project_to_sp_diag, sp_diag_roots
from orbitforge.nicecrit import (_projection, _root_pairs, _torus_nice, critical_coefficients,
                                 is_distinguished, is_nice, orbit_verdict)
from orbitforge.nilgeom import bracket_from_fixture_terms, load_table2_fixture
from orbitforge.ratgeom import PointSet, Vec, interior_certificate, mcc
from orbitforge.reps import (BracketBackend, PolyBackend, RepVector, support, support_projected,
                             weight_classes, weight_of)

from oracles import (family_member, gram, image_pairs, nice_by_images, positive_solution,
                     torus_diagonal)
from test_orbit_stream_golden import _question, _stream_round


def test_gram_of_worked_bracket():
    mu = RepVector.bracket(6, [((0, 3, 5), 1), ((1, 2, 4), 1)])
    u = gram(support_projected(mu, 3))
    assert u[0, 0] == u[1, 1] == Fraction(5, 2)
    assert u[0, 1] == u[1, 0] == Fraction(-1, 2)


def test_positive_solution_worked_bracket():
    mu = RepVector.bracket(6, [((0, 3, 5), 1), ((1, 2, 4), 1)])
    weights = support_projected(mu, 3)
    x, lam = positive_solution(gram(weights), weights)
    assert tuple(x) == (Fraction(1, 2), Fraction(1, 2))
    assert lam == 1


def test_positive_solution_asymmetric_gram():
    # Gram [[10,4],[4,6]]: solution (1/4,3/4) with lambda = 11/2.
    weights = PointSet([Vec([3, 1, 0]), Vec([1, 1, 2])])
    x, lam = positive_solution(gram(weights), weights)
    assert tuple(x) == (Fraction(1, 4), Fraction(3, 4))
    assert lam == Fraction(11, 2)


def test_positive_solution_none_on_boundary_mcc():
    # mcc of {e1, e1+e2} is e1 itself: a vertex, so no positive solution.
    weights = PointSet([Vec([1, 0]), Vec([1, 1])])
    assert positive_solution(gram(weights), weights) is None


def test_positive_solution_iff_relative_interior():
    rng = random.Random(11)
    for _ in range(200):
        dim = rng.randint(1, 4)
        pts = []
        while len(pts) < rng.randint(1, 5):
            p = Vec([Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                     for _ in range(dim)])
            if p not in pts:
                pts.append(p)
        weights = PointSet(pts)
        sol = positive_solution(gram(weights), weights)
        assert (sol is not None) == (interior_certificate(weights, mcc(weights)) is not None)


def test_is_nice_matches_generator_images():
    """The generator-image oracle vs is_nice on random spans of basis vectors:
    forms under GL(3), brackets under GL(6) and under Sp(6)."""
    for backend, roots, m in ((PolyBackend(3, 4), gl_roots(3), None),
                              (BracketBackend(6), gl_roots(6), None),
                              (BracketBackend(6), sp_diag_roots(3), 3)):
        weight = {idx: weight_of(backend, idx, m) for idx in backend.all_indices()}
        rng = random.Random(3)
        outcomes = set()
        for _ in range(200):
            subset = rng.sample(list(weight), rng.randint(1, 5))
            weights = PointSet(dict.fromkeys(weight[idx] for idx in subset))
            nice, witness = is_nice(weights, backend, roots)
            assert nice == nice_by_images(weights, backend, roots)
            if not nice:
                assert witness.alpha_i in weights and witness.alpha_j in weights
                assert witness.alpha_j - witness.alpha_i == witness.root
            outcomes.add(nice)
        assert outcomes == {True, False}, roots.subgroup


# poly(n, d) and bracket(n) under gl_n and sp(n), n = 2m: every group and
# representation that the package decides niceness for, at small sizes.
_NICE_GRID = ([(PolyBackend(3, d), gl_roots(3)) for d in range(1, 7)]
              + [(PolyBackend(4, d), gl_roots(4)) for d in range(1, 5)]
              + [(PolyBackend(2, 7), gl_roots(2)), (PolyBackend(2, 5), sp_diag_roots(1))]
              + [(PolyBackend(4, d), sp_diag_roots(2)) for d in range(1, 6)]
              + [(PolyBackend(6, d), sp_diag_roots(3)) for d in range(1, 4)]
              + [(BracketBackend(n), gl_roots(n)) for n in range(2, 8)]
              + [(BracketBackend(2 * m), sp_diag_roots(m)) for m in range(1, 5)])


@pytest.mark.parametrize("backend, roots", _NICE_GRID,
                         ids=["%s%s_%s" % (b.kind, "-".join(map(str, b[:-1])), r.subgroup)
                              for b, r in _NICE_GRID])
def test_weights_differ_by_a_root_exactly_where_a_generator_image_links_them(backend, roots):
    # The ordered weight pairs that is_nice reads (``_root_pairs``) are the
    # pairs (p, q) where a root-space generator maps V_p to a nonzero vector
    # of V_q, so a span of weight spaces is nice iff no two weights differ by
    # a root.
    weights = PointSet(weight_classes(backend, dict.fromkeys(backend.all_indices()),
                                      _projection(roots)))
    pairs = {(p, q) for p, q, _, _ in _root_pairs(weights, roots)}
    assert pairs and pairs == image_pairs(backend, roots)


def test_is_nice_sp_worked_bracket():
    backend6 = RepVector.bracket(6, [((0, 3, 5), 1)]).backend
    roots = sp_diag_roots(3)
    # The worked bracket's projected weights differ by eps_1 - eps_2 + ...:
    # pairwise differences are not sp roots, so the span is nice.
    mu = RepVector.bracket(6, [((0, 3, 5), 1), ((1, 2, 4), 1)])
    nice, _ = is_nice(support_projected(mu, 3), backend6, roots)
    assert nice
    # Swapped centers: the projected weights differ by a root, so the span
    # is not nice.
    bad = RepVector.bracket(6, [((0, 1, 5), 1), ((2, 3, 4), 1)])
    nice, witness = is_nice(support_projected(bad, 3), backend6, roots)
    assert not nice and witness is not None


def test_verdicts_read_the_prebuilt_root_table(monkeypatch):
    # The position loop runs when a root system is built, never per lookup.
    roots = sp_diag_roots(3)
    real, walks = lattice._root_spaces, []
    monkeypatch.setattr(lattice, "_root_spaces",
                        lambda n, subgroup: walks.append(subgroup) or real(n, subgroup))
    bad = RepVector.bracket(6, [((0, 1, 5), 1), ((2, 3, 4), 1)])
    assert is_distinguished(support_projected(bad, 3), bad.backend, roots).outcome == "not_nice"
    orbit_verdict(bad, roots)
    assert walks == []


def test_stratum_label():
    v = RepVector.poly(3, 4, [((1, 3, 0), 1), ((2, 0, 2), 1)])
    assert mcc(support(v)) == Vec([Fraction(-11, 7), Fraction(-9, 7),
                                  Fraction(-8, 7)])


def test_is_distinguished_verdicts():
    backend = PolyBackend(3, 4)
    roots = gl_roots(3)
    good = PointSet([Vec([-1, -3, 0]), Vec([-2, 0, -2])])
    v = is_distinguished(good, backend, roots)
    assert v.outcome == "distinguished"
    assert v.beta == mcc(good)
    assert all(c > 0 for c in v.certificate)
    bad = PointSet([Vec([-4, 0, 0]), Vec([-3, -1, 0])])
    assert is_distinguished(bad, backend, roots).outcome == "not_nice"


def test_critical_coefficients_point_solution():
    backend = PolyBackend(3, 4)
    weights = PointSet([Vec([-1, -3, 0]), Vec([-2, 0, -2])])
    norms = [backend.basis_norm_sq((1, 3, 0)), backend.basis_norm_sq((2, 0, 2))]
    fam = critical_coefficients(weights, norms, mcc(weights))
    assert fam is not None and fam.dimension == 0
    assert fam.coefficient_squares() == (Fraction(1, 14), Fraction(1, 7))


def test_critical_coefficients_family_and_member():
    # Even quartic monomials in two variables: x^4, x^2 y^2, y^4 (z absent),
    # beta = (-2, -2, 0) admits a 1-parameter family.
    backend = PolyBackend(3, 4)
    idxs = [(4, 0, 0), (2, 2, 0), (0, 4, 0)]
    weights = PointSet([backend.weight(i) for i in idxs])
    norms = [backend.basis_norm_sq(i) for i in idxs]
    fam = critical_coefficients(weights, norms, Vec([-2, -2, 0]))
    assert fam is not None and fam.dimension == 1
    c = fam.particular
    assert sum(c) == 1
    assert c[0] == c[2]  # symmetry of the certificate
    member = family_member(fam, [Fraction(1, 100)])
    total = Vec([0, 0, 0])
    for ci, w in zip(member, weights):
        total = total + ci * w
    assert total == Vec([-2, -2, 0])


def test_critical_coefficients_empty():
    backend = PolyBackend(3, 4)
    weights = PointSet([Vec([-4, 0, 0]), Vec([0, -4, 0])])
    norms = [backend.basis_norm_sq((4, 0, 0)), backend.basis_norm_sq((0, 4, 0))]
    assert critical_coefficients(weights, norms, Vec([-4, 0, 0]) * Fraction(1, 4)
                                 + Vec([0, -4, 0]) * Fraction(0)) is None


@pytest.mark.parametrize("exponents, beta, expected", [
    # beta on a vertex: one point solution, no interior certificate.
    ([(4, 2, 0), (5, 0, 1)], [-4, -2, 0], (1, 0)),
    # beta outside the hull: no solution.
    ([(3, 1, 0)], [-3, Fraction(-1, 2), Fraction(-1, 2)], None),
])
def test_critical_coefficients_solves_one_lp(monkeypatch, exponents, beta, expected):
    calls = []
    original = _exact.simplex_max

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(_exact, "simplex_max", counting)
    backend = PolyBackend(3, sum(exponents[0]))
    weights = PointSet([backend.weight(e) for e in exponents])
    fam = critical_coefficients(weights, [backend.basis_norm_sq(e) for e in exponents],
                                Vec(beta))
    assert len(calls) == 1
    if expected is None:
        assert fam is None
    else:
        assert fam.particular == expected and fam.kernel == ()


def _dense(entries, n):
    mat = [[0] * n for _ in range(n)]
    for a, b, x in entries:
        mat[a][b] += x
    return mat


def test_sp_root_space_closed_form_spans_the_symplectic_solutions():
    # Against the linear system M^T J + J M = 0 on the matrices supported on
    # the gl positions (a, b) whose projected root is gamma.
    for m in range(1, 5):
        n = 2 * m
        jmat = [[0] * n for _ in range(n)]
        for i in range(m):
            jmat[i][n - 1 - i], jmat[n - 1 - i][i] = 1, -1
        roots = sp_diag_roots(m)
        for gamma, gen in roots.spaces.items():
            positions = [(a, b) for a, b in permutations(range(n), 2)
                         if project_to_sp_diag([int(t == a) - int(t == b)
                                                for t in range(n)], m) == gamma]
            system = [[int(r == q) * jmat[p][c] + jmat[r][p] * int(c == q)
                       for (p, q) in positions] for r in range(n) for c in range(n)]
            # Split: the solutions form a line, which the one stored generator spans.
            assert len(positions) - _exact.rank(system) == 1
            g = _dense(gen, n)
            support = {(a, b) for a in range(n) for b in range(n) if g[a][b]}
            assert support and support <= set(positions)
            for r in range(n):
                for c in range(n):
                    assert sum(g[k][r] * jmat[k][c] + jmat[r][k] * g[k][c]
                               for k in range(n)) == 0


def _torus_cases():
    """(vector, roots): the shipped brackets and their unit-coefficient
    variants under gl(6) and sp(6), and the questions of
    ``gen.stream_round(1, 0)`` under the groups the benchmark asks them in."""
    cases = []
    for row in load_table2_fixture()["rows"]:
        for inst in row["instances"]:
            v = bracket_from_fixture_terms(inst["terms"]).vector
            unit = RepVector(v.backend, [(idx, 1) for idx in v.terms])
            for roots in (gl_roots(6), sp_diag_roots(3)):
                cases += [(v, roots), (unit, roots)]
    for kind, payload in _stream_round(1, 0):
        v, _, roots = _question(kind, payload)
        cases.append((v, roots))
    return cases


def test_pairwise_torus_test_matches_the_all_roots_scan():
    seen = set()
    for v, roots in _torus_cases():
        m = 3 if roots.subgroup == "sp" else None
        passed = _torus_nice(weight_classes(v.backend, v.terms, m), v.backend, roots)
        assert passed == torus_diagonal(v, roots), (v, roots.subgroup)
        seen.add((passed, is_nice(support_projected(v, m) if m else support(v),
                                   v.backend, roots)[0]))
    # Both answers occur, and so does a torus pass on a span that is not nice.
    assert {(True, True), (True, False), (False, False)} <= seen


def test_orbit_verdict_overrules_not_nice_only_by_the_torus_test():
    overruled = 0
    for v, roots in _torus_cases():
        m = 3 if roots.subgroup == "sp" else None
        span = is_distinguished(support_projected(v, m) if m else support(v), v.backend, roots)
        verdict = orbit_verdict(v, roots)
        if verdict != span:
            assert span.outcome == "not_nice" and verdict.outcome == "distinguished"
            assert _torus_nice(weight_classes(v.backend, v.terms, m), v.backend, roots)
            assert verdict.beta == mcc(support_projected(v, m) if m else support(v))
            overruled += 1
    # At least 18.(b_t) at t = 2, 3, 1/2 and 18.(c) under Sp(6).
    assert overruled >= 4
