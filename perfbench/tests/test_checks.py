"""Each checker accepts orbitforge's real output and rejects a corrupted copy.

Run with:  python3 -m pytest perfbench/tests -q
"""

import copy
import json
from fractions import Fraction as F

import pytest

import checks
import tracer
import workloads
from checks import CheckError

ROOT = workloads.ROOT


def _corrupts(check, good, mutate):
    """check(good) passes, and check(mutate(deepcopy(good))) raises."""
    check(good)
    bad = copy.deepcopy(good)
    mutate(bad)
    with pytest.raises(CheckError):
        check(bad)


# ---------------------------------------------------------------- ternary --
@pytest.fixture(scope="module")
def quartic_strata():
    from orbitforge.ternary import classify
    return [workloads.TernaryClassify._stratum(s) for s in classify(4)]


def _stratum(strata, paper_type):
    return next(s for s in strata if tuple(sorted(-x for x in s["beta"])) == paper_type)


def test_table1_transcription_accepts_classify(quartic_strata):
    checks.check_labels(4, quartic_strata)


def test_zeroed_mass_is_rejected(quartic_strata):
    s = _stratum(quartic_strata, (F(8, 7), F(9, 7), F(11, 7)))

    def zero(st):
        fam = st["families"][0]
        fam["particular"] = (F(0),) + tuple(fam["particular"][1:])
    _corrupts(lambda st: checks.check_stratum(4, st), s, zero)


def test_shifted_beta_is_rejected(quartic_strata):
    s = _stratum(quartic_strata, (1, F(3, 2), F(3, 2)))

    def shift(st):
        st["beta"] = (st["beta"][0] + F(1, 100),) + tuple(st["beta"][1:])
    _corrupts(lambda st: checks.check_stratum(4, st), s, shift)


def test_dropped_family_is_rejected(quartic_strata):
    s = _stratum(quartic_strata, (0, 2, 2))
    _corrupts(lambda st: checks.check_stratum(4, st), s, lambda st: st["families"].pop())


def test_wrong_kernel_is_rejected(quartic_strata):
    s = _stratum(quartic_strata, (0, 2, 2))

    def drop_kernel(st):
        for fam in st["families"]:
            fam["kernel"] = []
    _corrupts(lambda st: checks.check_stratum(4, st), s, drop_kernel)


def test_wrong_coefficient_square_is_rejected(quartic_strata):
    def bump(strata):
        fam = _stratum(strata, (F(6, 7), F(10, 7), F(12, 7)))["families"][0]
        fam["coefficient_squares"] = (F(1, 167),) + tuple(fam["coefficient_squares"][1:])
    _corrupts(checks.check_table1, quartic_strata, bump)


def test_missing_label_is_rejected(quartic_strata):
    _corrupts(lambda s: checks.check_labels(4, s), quartic_strata, lambda s: s.pop(0))


def test_labels_match_stratifying_set_for_degree_five():
    from orbitforge.ternary import stratifying_set
    assert {tuple(b) for b in stratifying_set(5)} == checks.stratum_labels(5)


def test_bron_kerbosch_matches_brute_force():
    from itertools import combinations
    pts = checks.form_weights(4)[:9]
    got = set(checks.maximal_independent_sets(pts, checks.gl_root))
    indep = [frozenset(c) for k in range(1, len(pts) + 1) for c in combinations(pts, k)
             if not any(checks.gl_root(tuple(x - y for x, y in zip(a, b)))
                        for a, b in combinations(c, 2))]
    assert got == {s for s in indep if not any(s < t for t in indep)}


# ---------------------------------------------------------------- Table 2 --
@pytest.fixture(scope="module")
def table2_outputs(tmp_path_factory):
    """run_table2 reports for 16.(a) and 18.(a_t) at t = 2, as the checker reads them."""
    from orbitforge.nilgeom import load_table2_fixture, run_table2
    out = []
    for row in load_table2_fixture()["rows"]:
        for inst in row["instances"]:
            if inst["label"] not in ("16.(a)", "18.(a_t) t=2"):
                continue
            path = tmp_path_factory.mktemp("table2") / "one.json"
            path.write_text(json.dumps({"rows": [dict(row, instances=[inst])]}))
            (rep,) = run_table2(str(path))
            out.append((row, inst, {
                "passed": rep.passed,
                "beta_norm_sq": rep.report.beta_norm_sq,
                "derivation_diag": tuple(rep.report.derivation.diag()),
                "multiple": rep.report.multiple,
                "dim_aut": rep.dim_aut,
            }))
    return out


def test_table2_accepts_and_rejects_wrong_dim_aut(table2_outputs):
    for row, inst, rep in table2_outputs:
        def wrong_dim(r):
            r["dim_aut"] += 1
        _corrupts(lambda r: checks.check_table2_instance(row, inst, r), rep, wrong_dim)


def test_table2_rejects_wrong_beta_norm_and_derivation(table2_outputs):
    row, inst, rep = table2_outputs[0]
    check = lambda r: checks.check_table2_instance(row, inst, r)

    def norm(r):
        r["beta_norm_sq"] += 1
    _corrupts(check, rep, norm)

    def der(r):
        r["derivation_diag"] = tuple(reversed(r["derivation_diag"]))
    _corrupts(check, rep, der)


def test_table2_rejects_a_failed_report(table2_outputs):
    row, inst, rep = table2_outputs[1]

    def fail(r):
        r["passed"] = False
    _corrupts(lambda r: checks.check_table2_instance(row, inst, r), rep, fail)


def test_numpy_moment_map_and_derivations_match_orbitforge():
    from orbitforge.nilgeom import (bracket_from_fixture_terms, load_table2_fixture,
                                    sym_derivation_dim)
    from orbitforge.reps import moment_map_restricted
    row = load_table2_fixture()["rows"][1]
    inst = row["instances"][0]
    mu = bracket_from_fixture_terms(inst["terms"])
    terms = [(i, j, k, float(c)) for (i, j, k), c in mu.vector.terms.items()]
    exact = moment_map_restricted(mu.vector, "sp", 3)
    mm = checks.moment_map_sp(terms)
    assert all(abs(mm[a][b] - float(exact.rows[a][b])) < 1e-12
               for a in range(6) for b in range(6))
    assert checks.sp_derivation_dim(terms) == sym_derivation_dim(mu)


# ----------------------------------------------------------- orbit-stream --
@pytest.fixture(scope="module")
def stream_outputs():
    w = workloads.OrbitStream()
    w.setup(3)
    rnd = w.round(0, False)
    return w, rnd.outputs


def _first(outputs, outcome, kind=None):
    return next(o for o in outputs if o[2]["verdict"]["outcome"] == outcome
                and (kind is None or o[0] == kind) and
                (outcome != "distinguished" or kind != "sp6" or "minimal" in o[2]))


def test_stream_outputs_pass(stream_outputs):
    w, outputs = stream_outputs
    for o in outputs:
        w.check(o)


def test_zeroed_certificate_entry_is_rejected(stream_outputs):
    w, outputs = stream_outputs
    good = _first(outputs, "distinguished", "form")

    def zero(o):
        v = o[2]["verdict"]
        v["certificate"] = (F(0),) + tuple(v["certificate"][1:])
    _corrupts(w.check, good, zero)


def test_shifted_beta_in_verdict_is_rejected(stream_outputs):
    w, outputs = stream_outputs
    for outcome in ("distinguished", "not_distinguished"):
        good = _first(outputs, outcome, "form")

        def shift(o):
            v = o[2]["verdict"]
            v["beta"] = tuple(b + F(1, 10) for b in v["beta"])
        _corrupts(w.check, good, shift)


def test_false_not_distinguished_is_rejected(stream_outputs):
    w, outputs = stream_outputs
    good = _first(outputs, "distinguished", "form")

    def relabel(o):
        o[2]["verdict"]["outcome"] = "not_distinguished"
    _corrupts(w.check, good, relabel)


def test_bad_not_nice_witness_is_rejected(stream_outputs):
    w, outputs = stream_outputs
    for kind in ("form", "sp6"):
        good = _first(outputs, "not_nice", kind)

        def swap(o):
            wit = o[2]["verdict"]["witness"]
            wit["root"] = tuple(-x for x in wit["root"])
        _corrupts(w.check, good, swap)


def test_perturbed_critical_bracket_is_rejected(stream_outputs):
    w, outputs = stream_outputs
    good = _first(outputs, "distinguished", "sp6")

    def perturb(o):
        terms, beta, residual = o[2]["minimal"]
        i, j, k, c = terms[0]
        terms[0] = (i, j, k, c * 1.01)
    _corrupts(w.check, good, perturb)


def test_not_nice_generator_image_check():
    # x^4 and x^3 y differ by a root; a generator maps each onto the other.
    exps = [(4, 0, 0), (3, 1, 0)]
    weights = [tuple(F(-e) for e in x) for x in exps]
    verdict = {"outcome": "not_nice", "witness": {
        "alpha_i": weights[0], "alpha_j": weights[1], "root": (F(1), F(-1), F(0))}}
    checks.check_verdict(weights, "gl", verdict, exponents=exps)
    verdict["witness"] = {"alpha_i": weights[1], "alpha_j": weights[0],
                          "root": (F(-1), F(1), F(0))}
    checks.check_verdict(weights, "gl", verdict, exponents=exps)


# --------------------------------------------------------------- cli-cold --
@pytest.fixture(scope="module")
def cli_outputs():
    w = workloads.CliCold()
    w.setup(0)
    try:
        rnd = w.round(0, False)
    finally:
        w.close()
    assert None not in rnd.outputs
    return w, {o[0]: o for o in rnd.outputs}


def _json_edit(edit):
    def mutate(output):
        payload = json.loads(output[1])
        edit(payload)
        output[1] = json.dumps(payload)
    return mutate


def _listed(output):
    return list(output)


def test_cli_strata_rejects_a_missing_label(cli_outputs):
    w, outs = cli_outputs

    def drop(p):
        p["strata"].pop()
        p["count"] -= 1
    _corrupts(w.check, _listed(outs["strata"]), _json_edit(drop))


def test_cli_worked_bracket_rejects_a_shifted_beta(cli_outputs):
    w, outs = cli_outputs

    def shift(p):
        p["beta"][0] = "-1/3"
    _corrupts(w.check, _listed(outs["check-sp"]), _json_edit(shift))
    _corrupts(w.check, _listed(outs["minimize"]), _json_edit(shift))


def test_cli_minimize_rejects_a_large_residual(cli_outputs):
    w, outs = cli_outputs

    def residual(p):
        p["residual"] = "1e-6"
    _corrupts(w.check, _listed(outs["minimize"]), _json_edit(residual))


def test_cli_table2_row_rejects_wrong_values(cli_outputs):
    w, outs = cli_outputs

    def norm(p):
        p["rows"][0]["beta_norm_sq"] = "2/1"
    _corrupts(w.check, _listed(outs["table2-row"]), _json_edit(norm))

    def dim(p):
        p["rows"][0]["dim_aut"] = 7
    _corrupts(w.check, _listed(outs["table2-row"]), _json_edit(dim))


# ----------------------------------------------------------------- tracer --
def test_tracer_wraps_every_binding_and_restores_it():
    import orbitforge.nicecrit as nicecrit
    import orbitforge.ratgeom as ratgeom
    import orbitforge.ternary as ternary
    original = ratgeom.mcc
    t = tracer.Tracer()
    t.install()
    try:
        assert ratgeom.mcc is not original
        assert nicecrit.mcc is ratgeom.mcc and ternary.mcc is ratgeom.mcc
        ternary.stratifying_set(3)
    finally:
        t.uninstall()
    assert ratgeom.mcc is original and nicecrit.mcc is original
    s = t.summary()
    assert s["ternary.stratifying_set.calls"] == 1
    assert s["ratgeom.mcc.calls"] > 1 and s["exact.rref.calls"] > 1
    total = sum(end - start for key, start, end, parent in t.spans if parent < 0)
    self_total = sum(v for k, v in s.items() if k.endswith(".self_s"))
    assert abs(total - self_total) < 1e-9


def test_import_times_parse():
    times = tracer.import_times(workloads.child_env(), ROOT)
    assert times["import.orbitforge_s"] > times["import.sympy_s"] > 0
    assert all(times["import.%s_s" % p] > 0 for p in tracer.IMPORTED)
