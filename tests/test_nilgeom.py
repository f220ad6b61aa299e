"""Lie bracket validation, Ricci, minimal metrics, and the shipped table."""

import json
import sys
from fractions import Fraction

import pytest

from orbitforge import ratgeom, reps
from orbitforge.coeffs import Coeff, IrrationalError
from orbitforge.lattice import gl_roots, sp_diag_roots
from orbitforge.nicecrit import _torus_nice, is_distinguished, orbit_verdict
from orbitforge.nilgeom import (LieBracket, NotDistinguishedError,
                                ValidationError,
                                bracket_from_fixture_terms, find_minimal_metric,
                                load_table2_fixture, run_table2, sym_derivation_dim,
                                validate, verify_minimal)
from orbitforge.ratgeom import Vec
from orbitforge.reps import (RepVector, SymMatrix, moment_map, moment_map_restricted,
                             support_projected, weight_classes)

from oracles import group_scale, nilsoliton_constant, ricci, sym_scale, torus_diagonal


def _double_heisenberg() -> LieBracket:
    # [e1,e4] = e6, [e2,e3] = e5: two Heisenberg summands, antidiagonal omega.
    return LieBracket.from_terms(6, [((0, 3, 5), 1), ((1, 2, 4), 1)])


def test_validate_accepts_two_step():
    validate(_double_heisenberg(), two_step=True)


def test_validate_jacobi_failure():
    bad = LieBracket.from_terms(6, [((0, 1, 2), 1), ((2, 3, 4), 1)])
    with pytest.raises(ValidationError) as err:
        validate(bad)
    assert err.value.kind == "jacobi"


def test_validate_not_nilpotent():
    # [e1,e2] = e2 is solvable, not nilpotent (Jacobi is vacuous for n = 2).
    bad = LieBracket.from_terms(2, [((0, 1, 1), 1)])
    with pytest.raises(ValidationError) as err:
        validate(bad)
    assert err.value.kind == "not_nilpotent"


def test_validate_two_step_flag():
    # Filiform: [e1,e2] = e3, [e1,e3] = e4 is three-step but nilpotent.
    mu = LieBracket.from_terms(4, [((0, 1, 2), 1), ((0, 2, 3), 1)])
    validate(mu)
    with pytest.raises(ValidationError) as err:
        validate(mu, two_step=True)
    assert err.value.kind == "not_two_step"


def test_ricci_zero_bracket():
    mu = LieBracket(RepVector.bracket(4, []))
    assert ricci(mu) == SymMatrix([[0] * 4 for _ in range(4)])


def test_ricci_heisenberg():
    mu = LieBracket.from_terms(3, [((0, 1, 2), 1)])
    h = Fraction(1, 2)
    assert ricci(mu) == SymMatrix.diagonal([-h, -h, h])
    assert sym_scale(moment_map(mu.vector), mu.vector.norm_sq()) == sym_scale(ricci(mu), 4)


def test_verify_minimal_worked_example():
    mu = LieBracket(_double_heisenberg().vector.scale(Fraction(1, 2)))
    rep = verify_minimal(mu, reference_derivation=[1, 1, 2, 2, 3, 3])
    assert rep.nice and rep.critical and rep.is_derivation
    h = Fraction(1, 2)
    assert rep.beta == Vec([-h, -h, 0, 0, h, h])
    assert rep.beta_norm_sq == 1
    assert rep.derivation.diag() == Vec([h, h, 1, 1, Fraction(3, 2), Fraction(3, 2)])
    assert rep.multiple == h


def test_verify_minimal_scale_invariance_and_noncritical_case():
    # mm is invariant under global rescaling, so the unscaled double
    # Heisenberg is also critical; unbalancing the two summands is not.
    rep = verify_minimal(_double_heisenberg())
    assert rep.nice and rep.critical
    lopsided = LieBracket.from_terms(6, [((0, 3, 5), 2), ((1, 2, 4), 1)])
    rep = verify_minimal(lopsided)
    assert rep.nice and not rep.critical


def test_find_minimal_metric_exact_rescale():
    mu = _double_heisenberg()
    res = find_minimal_metric(mu)
    assert res.residual <= 1e-12
    assert res.critical_bracket == mu.vector.scale(Fraction(1, 2))
    # The exact diagonal rescale reaches the same bracket.
    assert group_scale([2, 1, 2, Fraction(1, 2), 1, Fraction(1, 2)],
                       mu.vector) == mu.vector.scale(Fraction(1, 2))
    h = Fraction(1, 2)
    assert res.beta == Vec([-h, -h, 0, 0, h, h])


def test_find_minimal_metric_reaches_beta_on_table_supports():
    # Unit coefficients on each shipped support are not critical; the exact
    # bracket built from the certificate masses must be.  The supports of
    # 18.(b_t) and 18.(c) are not nice by the weight criterion.
    solved = 0
    for row in load_table2_fixture()["rows"]:
        for inst in row["instances"]:
            mu = bracket_from_fixture_terms(inst["terms"])
            start = LieBracket(RepVector(mu.vector.backend,
                                         [(idx, 1) for idx in mu.vector.terms]))
            try:
                res = find_minimal_metric(start)
            except NotDistinguishedError as exc:
                assert exc.verdict.outcome == "not_nice"
                continue
            assert res.residual <= 1e-12
            solved += 1
            mm_sp = moment_map_restricted(res.critical_bracket, sp_diag_roots(3))
            assert mm_sp.is_diagonal() and mm_sp.diag() == res.beta, inst["label"]
    assert solved == 11


def test_find_minimal_metric_solves_every_shipped_instance():
    # 18.(b_t) and 18.(c) have no nice span, but mm_sp stays diagonal along
    # their torus orbits, and that suffices; each exact critical bracket has
    # mm_sp = diag(beta).
    labels = []
    for row in load_table2_fixture()["rows"]:
        for inst in row["instances"]:
            mu = bracket_from_fixture_terms(inst["terms"])
            res = find_minimal_metric(mu)
            assert res.verdict.outcome == "distinguished" and res.residual <= 1e-12
            mm_sp = moment_map_restricted(res.critical_bracket, sp_diag_roots(3))
            assert mm_sp.is_diagonal() and mm_sp.diag() == res.beta, inst["label"]
            # check's verdict, with a certificate: positive masses on the
            # weights, summing to 1, with barycentre beta.
            assert orbit_verdict(mu.vector, sp_diag_roots(3)) == res.verdict
            cert, weights = res.verdict.certificate, list(support_projected(mu.vector, 3))
            assert len(cert) == len(weights) and all(c > 0 for c in cert)
            assert sum(cert) == 1
            assert sum((c * w for c, w in zip(cert, weights)), Vec([0] * 6)) == res.beta
            labels.append(inst["label"])
    assert len(labels) == 15


# Under GL_6 the spans of 18.(b_t) and 18.(c) are not nice, and mm leaves the
# diagonal along their torus orbits.  Each row's witness (alpha_i, alpha_j, root):
GL_NOT_NICE = {
    "18.(b_t)": ((-1, 0, -1, 0, 1, 0), (-1, 0, -1, 0, 0, 1), (0, 0, 0, 0, -1, 1)),
    "18.(c)": ((-1, -1, 0, 1, 0, 0), (-1, -1, 0, 0, 1, 0), (0, 0, 0, -1, 1, 0)),
}


def test_find_minimal_metric_under_gl_finds_nilsolitons():
    # A critical point of |mm|^2 under GL_n is a nilsoliton: Ric = c Id + D
    # with D a derivation, checked through the Ricci oracle, not through the
    # moment map the code uses.  4 Ric = |mu|^2 diag(beta) and |mu|^2 = 1 fix
    # c = -|beta|^2 / 4.  Shipped coefficients and unit ones alike.
    solved = []
    for row in load_table2_fixture()["rows"]:
        for inst in row["instances"]:
            mu = bracket_from_fixture_terms(inst["terms"])
            unit = LieBracket(RepVector(mu.vector.backend, [(idx, 1) for idx in mu.vector.terms]))
            for start in (mu, unit):
                if row["name"] in GL_NOT_NICE:
                    with pytest.raises(NotDistinguishedError) as err:
                        find_minimal_metric(start, gl_roots(6))
                    assert err.value.verdict.outcome == "not_nice"
                    assert err.value.verdict.witness == GL_NOT_NICE[row["name"]]
                    assert not torus_diagonal(start.vector, gl_roots(6))
                    continue
                res = find_minimal_metric(start, gl_roots(6))
                assert res.verdict.outcome == "distinguished" and res.residual <= 1e-12
                critical = LieBracket(res.critical_bracket)
                validate(critical, two_step=True)
                assert critical.vector.norm_sq() == 1
                assert ricci(critical) == SymMatrix.diagonal(res.beta * Fraction(1, 4))
                assert nilsoliton_constant(critical) == -res.beta.norm_sq() / 4, inst["label"]
                rep = verify_minimal(critical, gl_roots(6))
                assert rep.critical and rep.is_derivation and rep.beta == res.beta
                solved.append(inst["label"])
    assert len(solved) == 22 and len(set(solved)) == 11


def test_gl_minimal_metric_of_the_heisenberg_algebra():
    # h3 is odd-dimensional: no default Sp(n), but GL_3 is fine.
    h3 = LieBracket.from_terms(3, [((0, 1, 2), 1)])
    with pytest.raises(ValueError, match="even dimension"):
        find_minimal_metric(h3)
    res = find_minimal_metric(h3, gl_roots(3))
    assert res.beta == Vec([-1, -1, 1]) and res.x == (0.0, 0.0, 0.0)
    assert res.critical_bracket == h3.vector.scale(Coeff.from_square(Fraction(1, 2)))
    assert nilsoliton_constant(LieBracket(res.critical_bracket)) == Fraction(-3, 4)


def test_gl_minimal_metric_of_the_five_dimensional_filiform_algebra():
    # [e1,e2] = e3, [e1,e3] = e4, [e1,e4] = e5: its nilsoliton has squared
    # structure constants in the ratio 3 : 4 : 3, reached here by Newton.
    mu = LieBracket.from_terms(5, [((0, 1, 2), 1), ((0, 2, 3), 1), ((0, 3, 4), 1)])
    res = find_minimal_metric(mu, gl_roots(5))
    assert res.residual <= 1e-12 and any(abs(t) > 1e-3 for t in res.x)
    squares = [c.square() for _, c in res.critical_bracket.sorted_terms()]
    assert squares == [Fraction(3, 20), Fraction(1, 5), Fraction(3, 20)]
    assert nilsoliton_constant(LieBracket(res.critical_bracket)) == -res.beta.norm_sq() / 4


def test_find_minimal_metric_groups_once_and_runs_one_mcc_and_one_lp(monkeypatch):
    # One grouping of the terms and no table of the representation's weights,
    # then the verdict's mcc and interior LP serve the Newton solve and the
    # bracket.
    import orbitforge.flow  # noqa: F401  imported lazily; bind it before patching
    originals = {"weight_classes": reps.weight_classes, "mcc": ratgeom.mcc,
                 "interior_certificate": ratgeom.interior_certificate}
    counts = dict.fromkeys(originals, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for key, module in list(sys.modules.items()):
        if key == "orbitforge" or key.startswith("orbitforge."):
            for name, fn in originals.items():
                if getattr(module, name, None) is fn:
                    monkeypatch.setattr(module, name, counting(name, fn))
    rows = {r["name"]: r for r in load_table2_fixture()["rows"]}
    mu = bracket_from_fixture_terms(rows["16.(a)"]["instances"][0]["terms"])
    assert find_minimal_metric(mu).verdict.outcome == "distinguished"
    assert counts == {"weight_classes": 1, "mcc": 1, "interior_certificate": 1}


def test_torus_fallback_only_where_the_span_is_not_nice():
    rows = {r["name"]: r for r in load_table2_fixture()["rows"]}
    mu = bracket_from_fixture_terms(rows["18.(c)"]["instances"][0]["terms"])
    m = 3
    weights = support_projected(mu.vector, m)
    assert is_distinguished(weights, mu.vector.backend, sp_diag_roots(m)).outcome == "not_nice"
    assert torus_diagonal(mu.vector, sp_diag_roots(m))
    # The oracle: mm_sp(t.mu) is diagonal at sample rational torus elements.
    for ts in ([2, 3, 5], [Fraction(1, 2), 7, Fraction(2, 3)]):
        t_mu = group_scale(ts + [1 / Fraction(t) for t in reversed(ts)], mu.vector)
        assert moment_map_restricted(t_mu, sp_diag_roots(m)).is_diagonal()
    # Unit coefficients on the same support leave the torus orbit's mm_sp
    # off the diagonal, and the span verdict stands.
    unit = RepVector(mu.vector.backend, [(idx, 1) for idx in mu.vector.terms])
    assert not torus_diagonal(unit, sp_diag_roots(m))
    assert not moment_map_restricted(unit, sp_diag_roots(m)).is_diagonal()


def test_torus_fallback_keeps_not_nice_without_an_interior_beta():
    # mm_sp is diagonal along the torus orbit, but beta is not interior: with
    # a span that is not nice that proves nothing, so the answer is not_nice.
    mu = LieBracket.from_terms(6, [((2, 3, 0), 1), ((3, 5, 4), 1)])
    assert torus_diagonal(mu.vector, sp_diag_roots(3))
    assert _torus_nice(weight_classes(mu.vector.backend, mu.vector.terms, 3),
                       mu.vector.backend, sp_diag_roots(3))
    assert orbit_verdict(mu.vector, sp_diag_roots(3)).outcome == "not_nice"
    with pytest.raises(NotDistinguishedError) as err:
        find_minimal_metric(mu)
    assert err.value.verdict.outcome == "not_nice"


def test_find_minimal_metric_not_nice():
    bad = LieBracket.from_terms(6, [((0, 1, 5), 1), ((2, 3, 4), 1)])
    with pytest.raises(NotDistinguishedError) as err:
        find_minimal_metric(bad)
    assert err.value.verdict.outcome == "not_nice"


def test_sym_derivation_dim_zero_bracket_is_sp():
    # With no bracket equations the symmetries are all of sp(6): dim 21.
    mu = LieBracket(RepVector.bracket(6, []))
    assert sym_derivation_dim(mu) == 21


def test_sym_derivation_dim_irrational_constants():
    # Rescaling by sqrt(1/2) leaves the derivation algebra unchanged, so this
    # matches the rational-coefficient version of the same bracket.
    mu = LieBracket.from_terms(
        6, [((0, 1, 4), Coeff.from_square(Fraction(1, 2))),
            ((0, 2, 5), Coeff.from_square(Fraction(1, 2)))])
    assert sym_derivation_dim(mu) == 9


_GOOD_ROW = {"name": "x", "beta_norm_sq": "1", "derivation_diag": [1] * 6,
             "dim_aut": 6, "instances": []}
BAD_TABLES = {
    "not_an_object": [1, 2],
    "no_rows": {"description": "x"},
    "rows_not_a_list": {"rows": {"x": _GOOD_ROW}},
    "row_not_an_object": {"rows": [["x"]]},
    "integer_name": {"rows": [dict(_GOOD_ROW, name=5)]},
    "instances_not_a_list": {"rows": [dict(_GOOD_ROW, instances={})]},
    "row_without_dim_aut": {"rows": [{k: v for k, v in _GOOD_ROW.items()
                                      if k != "dim_aut"}]},
}


@pytest.mark.parametrize("name", sorted(BAD_TABLES))
def test_fixture_schema_violations_raise_value_error(tmp_path, name):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(BAD_TABLES[name]))
    with pytest.raises(ValueError):
        load_table2_fixture(str(path))
    path.write_text(json.dumps({"rows": [_GOOD_ROW]}))
    assert load_table2_fixture(str(path))["rows"] == [_GOOD_ROW]


def test_fixture_round_trip():
    fixture = load_table2_fixture()
    assert len(fixture["rows"]) == 11
    by_name = {r["name"]: r for r in fixture["rows"]}
    mu = bracket_from_fixture_terms(by_name["16.(a)"]["instances"][0]["terms"])
    assert mu.vector.norm_sq() == 1
    # Parametric rows are sampled at three parameter values each.
    assert len(by_name["18.(a_t)"]["instances"]) == 3
    assert len(by_name["18.(b_t)"]["instances"]) == 3


def test_run_table2_single_rows():
    reports = run_table2()
    by_label = {r.label: r for r in reports}
    assert by_label["16.(a)"].passed
    assert by_label["25."].passed
    r24a = by_label["24.(a)"]
    assert r24a.passed and r24a.report.multiple == Fraction(1, 4)


def _sq(square, sign=1):
    return Coeff.from_square(Fraction(square), sign)


def test_mixed_radicands_are_not_nice_not_a_crash():
    # sqrt2 e12->e5 + sqrt3 e13->e5 + sqrt5 e23->e6: mm_sp has a sqrt(6) entry.
    mu = LieBracket.from_terms(6, [((0, 1, 4), _sq(2)), ((0, 2, 4), _sq(3)),
                                   ((1, 2, 5), _sq(5))])
    rep = verify_minimal(mu)
    assert not rep.nice and rep.mm is None and rep.derivation is None
    for irrational in (lambda: moment_map(mu.vector), lambda: ricci(mu),
                       lambda: moment_map_restricted(mu.vector, sp_diag_roots(3))):
        with pytest.raises(IrrationalError):
            irrational()


def test_moment_map_radicand_parts_cancel_under_projection():
    # The full mm has a sqrt(2) entry; the sp projection removes it.
    v = RepVector.bracket(6, [((0, 5, 0), _sq(2, -1)), ((0, 4, 1), _sq(2)),
                              ((0, 5, 1), -1)])
    with pytest.raises(IrrationalError):
        moment_map(v)
    assert moment_map_restricted(v, sp_diag_roots(3)).is_diagonal()


@pytest.mark.parametrize("length", [3, 8])
def test_verify_minimal_reference_needs_one_entry_per_dimension(length):
    # The first three entries alone agree with D up to the multiple 1/2.
    reference = [1, 1, 2, 2, 3, 3, 4, 4][:length]
    with pytest.raises(ValueError, match="needs 6 entries, not %d" % length):
        verify_minimal(_double_heisenberg(), reference_derivation=reference)
