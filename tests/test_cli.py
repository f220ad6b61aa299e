"""Command-line interface: shapes, determinism, and exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest

import orbitforge
from orbitforge import nilgeom
from orbitforge.cli import CliError, main
from orbitforge.coeffs import Coeff
from orbitforge.ratgeom import Vec
from orbitforge.reps import support_projected

from oracles import nilsoliton_constant


class _Runner:
    """Runs a CLI entry point in process and captures what it writes.

    ``output`` is stdout followed by stderr; ``exception`` is the
    ``SystemExit`` of a nonzero exit, or the exception that escaped when
    ``catch_exceptions`` is true (exit code 1).
    """

    def invoke(self, cli, args, catch_exceptions=True):
        out, err = io.StringIO(), io.StringIO()
        exit_code, exception = 0, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                cli(args)
            except SystemExit as exc:
                code = exc.code
                exit_code = code if isinstance(code, int) else (code is not None)
                exception = exc if exit_code else None
            except Exception as exc:
                if not catch_exceptions:
                    raise
                exit_code, exception = 1, exc
        return SimpleNamespace(exit_code=int(exit_code), exception=exception,
                               stdout=out.getvalue(), stderr=err.getvalue(),
                               output=out.getvalue() + err.getvalue())


@pytest.fixture
def runner():
    return _Runner()


def _invoke(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


def test_strata_json_deterministic(runner):
    first = _invoke(runner, ["strata", "--d", "4"])
    second = _invoke(runner, ["strata", "--d", "4"])
    assert first.exit_code == 0
    assert first.output == second.output
    payload = json.loads(first.output)
    assert payload["count"] == 12
    assert {"beta", "norm_sq"} <= set(payload["strata"][0])
    assert "warning" not in payload


def test_strata_paper_signs(runner):
    res = _invoke(runner, ["strata", "--d", "4", "--paper-signs"])
    payload = json.loads(res.output)
    types = {tuple(s["beta"]) for s in payload["strata"]}
    assert ("8/7", "9/7", "11/7") in types


def test_strata_rejects_degree_zero(runner):
    res = runner.invoke(main, ["strata", "--d", "0"])
    assert res.exit_code != 0


def test_strata_warns_off_n3(runner):
    res = _invoke(runner, ["strata", "--n", "4", "--d", "2"])
    assert "unverified" in json.loads(res.output)["warning"]


def test_strata_on_a_line_has_no_warning(runner):
    # For n <= 2 the weights lie on a line, and the pair labels are complete.
    res = _invoke(runner, ["strata", "--n", "2", "--d", "3"])
    assert "warning" not in json.loads(res.stdout) and res.stderr == ""
    res = _invoke(runner, ["strata", "--n", "2", "--d", "3", "--format", "csv"])
    assert res.exit_code == 0 and res.stderr == ""
    res = _invoke(runner, ["strata", "--n", "4", "--d", "2", "--format", "csv"])
    assert res.stderr.startswith("# unverified")


def test_strata_formats_and_svg(runner, tmp_path):
    res = _invoke(runner, ["strata", "--d", "2", "--format", "csv"])
    assert res.output.splitlines()[0] == "beta_0,beta_1,beta_2,norm_sq"
    res = _invoke(runner, ["strata", "--d", "2", "--format", "markdown"])
    assert res.output.startswith("| beta_0 |")
    svg = tmp_path / "strata.svg"
    _invoke(runner, ["strata", "--d", "4", "--svg", str(svg)])
    assert svg.read_text().startswith("<svg")


def test_check_form_distinguished(runner, tmp_path):
    path = tmp_path / "form.json"
    path.write_text(json.dumps([
        {"exponents": [1, 3, 0], "coeff": {"sq": "1/14", "sign": 1}},
        {"exponents": [2, 0, 2], "coeff": {"sq": "1/7", "sign": 1}},
    ]))
    res = _invoke(runner, ["check", "--input", str(path)])
    payload = json.loads(res.output)
    assert payload["outcome"] == "distinguished"
    assert payload["beta"] == ["-11/7", "-9/7", "-8/7"]
    res = _invoke(runner, ["check", "--input", str(path), "--paper-signs"])
    assert json.loads(res.output)["beta"] == ["11/7", "9/7", "8/7"]


def test_check_sl_prints_the_trace_free_label(runner, tmp_path):
    # Every weight of x^4 + y^4 + z^4 has trace -4, so the gl label
    # (-4/3, -4/3, -4/3) has trace-free part 0: a closed SL orbit.
    path = tmp_path / "quartic.json"
    path.write_text(json.dumps([{"exponents": e, "coeff": "1"}
                                for e in ([4, 0, 0], [0, 4, 0], [0, 0, 4])]))
    res = _invoke(runner, ["check", "--input", str(path), "--group", "sl"])
    assert res.exit_code == 0
    assert json.loads(res.output) == {
        "command": "check", "group": "sl", "outcome": "distinguished",
        "beta": ["0/1", "0/1", "0/1"], "certificate": ["1/3", "1/3", "1/3"],
        "witness": None}


def test_check_not_nice_is_data_not_error(runner, tmp_path):
    path = tmp_path / "mu.json"
    path.write_text(json.dumps([
        {"i": 1, "j": 2, "k": 6, "coeff": "1"},
        {"i": 3, "j": 4, "k": 5, "coeff": "1"},
    ]))
    res = _invoke(runner, ["check", "--input", str(path), "--group", "sp"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["outcome"] == "not_nice"
    assert payload["witness"] is not None


def test_check_reports_parse_errors(runner, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("[{]")
    res = runner.invoke(main, ["check", "--input", str(path)])
    assert res.exit_code != 0
    assert "parse error" in res.output


BAD_TERMS = {
    "repeated_index": [{"i": 1, "j": 1, "k": 3, "coeff": "1"}],
    "short_exponents": [{"exponents": [1, 3, 0], "coeff": "1"},
                        {"exponents": [4, 0], "coeff": "1"}],
    # Indices are JSON integers only: nothing is truncated or coerced.
    "fractional_exponents": [{"exponents": [1.5, 2.5, 0], "coeff": "1"}],
    "float_exponent": [{"exponents": [1.0, 3, 0], "coeff": "1"}],
    "string_exponent": [{"exponents": ["1", 3, 0], "coeff": "1"}],
    "empty_exponents": [{"exponents": [], "coeff": "1"}],
    "fractional_index": [{"i": 1.5, "j": 2, "k": 3, "coeff": "1"}],
    "boolean_index": [{"i": True, "j": 2, "k": 3, "coeff": "1"}],
    "fractional_sign": [{"i": 1, "j": 2, "k": 3, "coeff": {"sq": "1", "sign": 1.5}}],
    # Rationals are strings or integers: a float would be read as its binary
    # value (0.1 is not 1/10), and 1e400 parses to an infinite float.
    "float_coeff": [{"exponents": [1, 3, 0], "coeff": 0.1}],
    "overflowing_coeff": '[{"exponents": [1, 3, 0], "coeff": 1e400}]',
    "boolean_coeff": [{"exponents": [1, 3, 0], "coeff": True}],
    "float_sq": [{"i": 1, "j": 2, "k": 3, "coeff": {"sq": 0.5, "sign": 1}}],
    "overflowing_sq": '[{"i": 1, "j": 2, "k": 3, "coeff": {"sq": 1e400}}]',
    "boolean_sign": [{"i": 1, "j": 2, "k": 3, "coeff": {"sq": "1", "sign": True}}],
}


@pytest.mark.parametrize("command", ["check", "minimize"])
@pytest.mark.parametrize("name", sorted(BAD_TERMS))
def test_bad_terms_are_one_line_errors(runner, tmp_path, command, name):
    path = tmp_path / "bad.json"
    terms = BAD_TERMS[name]  # a string is raw JSON text
    path.write_text(terms if isinstance(terms, str) else json.dumps(terms))
    res = runner.invoke(main, [command, "--input", str(path)])
    assert res.exit_code == 1
    assert not isinstance(res.exception, (ValueError, KeyError, TypeError))
    assert res.output.startswith("Error: bad term in")
    assert len(res.output.splitlines()) == 1


@pytest.mark.parametrize("command", ["check", "minimize"])
def test_non_utf8_input_is_a_one_line_error(runner, tmp_path, command):
    path = tmp_path / "latin1.json"
    path.write_bytes('[{"exponents": [1, 3, 0], "coeff": "\u00bd"}]'.encode("latin-1"))
    res = runner.invoke(main, [command, "--input", str(path)])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: bad input file")
    assert "UnicodeDecodeError" in lines[0]


ZERO_TERMS = {
    "form": [{"exponents": [1, 3, 0], "coeff": "1"},
             {"exponents": [1, 3, 0], "coeff": "-1"}],
    "bracket": [{"i": 1, "j": 2, "k": 3, "coeff": "1"},
                {"i": 2, "j": 1, "k": 3, "coeff": "1"}],
}


@pytest.mark.parametrize("command", ["check", "minimize"])
@pytest.mark.parametrize("name", sorted(ZERO_TERMS))
def test_terms_cancelling_to_zero_are_one_line_errors(runner, tmp_path, command, name):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(ZERO_TERMS[name]))
    res = runner.invoke(main, [command, "--input", str(path)])
    assert res.exit_code == 1
    assert res.output.startswith("Error: the terms in")
    assert len(res.output.splitlines()) == 1


def test_minimize_round_trip(runner, tmp_path):
    path = tmp_path / "mu.json"
    path.write_text(json.dumps([
        {"i": 1, "j": 4, "k": 6, "coeff": "1"},
        {"i": 2, "j": 3, "k": 5, "coeff": "1"},
    ]))
    res = _invoke(runner, ["minimize", "--input", str(path)])
    payload = json.loads(res.output)
    assert payload["outcome"] == "distinguished"
    assert payload["beta_norm_sq"] == "1/1"
    assert float(payload["residual"]) <= 1e-12
    assert all(t["coeff"] == {"sq": "1/4", "sign": 1}
               for t in payload["critical_bracket"])
    # The printed bracket is valid input again.
    again = tmp_path / "critical.json"
    again.write_text(json.dumps(payload["critical_bracket"]))
    res2 = _invoke(runner, ["minimize", "--input", str(again)])
    payload2 = json.loads(res2.output)
    assert payload2["critical_bracket"] == payload["critical_bracket"]
    assert all(x == "0" for x in payload2["x"])


def test_minimize_invalid_bracket_exit_code(runner, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([
        {"i": 1, "j": 2, "k": 3, "coeff": "1"},
        {"i": 3, "j": 4, "k": 5, "coeff": "1"},
    ]))
    res = runner.invoke(main, ["minimize", "--input", str(path)])
    assert res.exit_code == 1
    payload = json.loads(res.output)
    assert payload["outcome"] == "invalid_bracket"
    assert payload["violation"] == "jacobi"


def test_minimize_not_distinguished_is_data(runner, tmp_path):
    path = tmp_path / "mu.json"
    path.write_text(json.dumps([
        {"i": 1, "j": 2, "k": 6, "coeff": "1"},
        {"i": 3, "j": 4, "k": 5, "coeff": "1"},
    ]))
    res = _invoke(runner, ["minimize", "--input", str(path)])
    assert res.exit_code == 0
    assert json.loads(res.output)["outcome"] == "not_nice"


def _shipped_instances():
    """(instance, its terms in the CLI's input format) for the 15 shipped instances."""
    for row in nilgeom.load_table2_fixture()["rows"]:
        for inst in row["instances"]:
            yield inst, [{"i": t["i"], "j": t["j"], "k": t["k"],
                          "coeff": {"sq": t["sq"], "sign": t["sign"]}} for t in inst["terms"]]


def test_check_sl_is_gl_with_the_trace_free_label_on_every_shipped_instance(runner, tmp_path):
    # SL_n has gl_n's roots: the same outcome, certificate and witness, and
    # the label beta - (tr beta / n)(1, ..., 1).
    path = tmp_path / "mu.json"
    outcomes = []
    for inst, terms in _shipped_instances():
        path.write_text(json.dumps({"n": 6, "terms": terms}))
        gl = json.loads(_invoke(runner, ["check", "--input", str(path)]).output)
        sl = json.loads(_invoke(runner, ["check", "--input", str(path), "--group", "sl"]).output)
        assert sl.pop("group") == "sl" and gl.pop("group") == "gl"
        gl_beta, sl_beta = gl.pop("beta"), sl.pop("beta")
        assert sl == gl, inst["label"]
        if gl_beta is None:
            assert sl_beta is None
        else:
            beta = [Fraction(x) for x in gl_beta]
            assert [Fraction(x) for x in sl_beta] == [b - sum(beta) / 6 for b in beta]
        outcomes.append(gl["outcome"])
    assert len(outcomes) == 15 and len(set(outcomes)) > 1


def test_check_sp_agrees_with_minimize_on_every_shipped_instance(runner, tmp_path):
    # 18.(b_t) and 18.(c) have no nice span: check decides them, as minimize
    # does, by the torus test.  Each file states n = 6: a bare list's
    # dimension is its largest index, and no term of 23.(c) names e6, so
    # both commands refuse 23.(c)'s bare list as 5-dimensional.
    path = tmp_path / "mu.json"
    labels = []
    for inst, terms in _shipped_instances():
        if inst["label"] == "23.(c)":
            path.write_text(json.dumps(terms))
            check = runner.invoke(main, ["check", "--input", str(path), "--group", "sp"])
            found = runner.invoke(main, ["minimize", "--input", str(path)])
            assert check.exit_code == found.exit_code == 2
            assert "even" in check.stderr and "even" in found.stderr
        path.write_text(json.dumps({"n": 6, "terms": terms}))
        check = runner.invoke(main, ["check", "--input", str(path), "--group", "sp"])
        found = runner.invoke(main, ["minimize", "--input", str(path)])
        check, found = json.loads(check.output), json.loads(found.output)
        assert check["outcome"] == found["outcome"] == "distinguished", inst["label"]
        assert check["beta"] == found["beta"] and check["witness"] is None
        beta = [Fraction(x) for x in check["beta"]]
        cert = [Fraction(x) for x in check["certificate"]]
        mu = nilgeom.bracket_from_fixture_terms(inst["terms"])
        weights = list(support_projected(mu.vector, 3))
        assert len(cert) == len(weights) and all(c > 0 for c in cert)
        assert sum(cert) == 1
        assert [sum(c * w[i] for c, w in zip(cert, weights)) for i in range(6)] == beta
        labels.append(inst["label"])
        if inst["label"] == "23.(c)":
            assert check["beta"] == ["-1/2", "-1/2", "1/2", "-1/2", "1/2", "1/2"]
    assert len(labels) == 15


WORKED_TERMS = [{"i": 1, "j": 4, "k": 6, "coeff": "1"}, {"i": 2, "j": 3, "k": 5, "coeff": "1"}]


@pytest.mark.parametrize("command", ["check", "minimize"])
def test_a_stated_dimension_matches_the_bare_list(runner, tmp_path, command):
    bare, stated = tmp_path / "bare.json", tmp_path / "stated.json"
    bare.write_text(json.dumps(WORKED_TERMS))
    stated.write_text(json.dumps({"n": 6, "terms": WORKED_TERMS}))
    group = ["--group", "sp"] if command == "check" else []
    first = _invoke(runner, [command, "--input", str(bare), *group])
    second = _invoke(runner, [command, "--input", str(stated), *group])
    assert first.exit_code == second.exit_code == 0
    assert first.output == second.output


BAD_DIMENSIONS = {
    "float_n": {"n": 6.0, "terms": WORKED_TERMS},
    "string_n": {"n": "6", "terms": WORKED_TERMS},
    "boolean_n": {"n": True, "terms": WORKED_TERMS},
    "n_below_an_index": {"n": 5, "terms": WORKED_TERMS},
    "n_not_the_exponent_length": {"n": 4, "terms": [{"exponents": [1, 3, 0], "coeff": "1"}]},
}


@pytest.mark.parametrize("command", ["check", "minimize"])
@pytest.mark.parametrize("name", sorted(BAD_DIMENSIONS))
def test_bad_stated_dimensions_are_one_line_errors(runner, tmp_path, command, name):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(BAD_DIMENSIONS[name]))
    res = runner.invoke(main, [command, "--input", str(path)])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: ")


def test_check_and_minimize_keep_not_nice_with_an_exterior_beta(runner, tmp_path):
    # The torus test passes, but beta is not interior and the span is not nice.
    path = tmp_path / "mu.json"
    path.write_text(json.dumps([
        {"i": 3, "j": 4, "k": 1, "coeff": "1"},
        {"i": 4, "j": 6, "k": 5, "coeff": "1"},
    ]))
    check = json.loads(_invoke(runner, ["check", "--input", str(path), "--group", "sp"]).output)
    assert check["outcome"] == "not_nice" and check["witness"] is not None
    found = json.loads(_invoke(runner, ["minimize", "--input", str(path)]).output)
    assert found["outcome"] == "not_nice" and found["witness"] == check["witness"]


def test_minimize_odd_dimension_is_a_usage_error(runner, tmp_path):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps([{"i": 1, "j": 2, "k": 5, "coeff": "1"}]))
    res = runner.invoke(main, ["minimize", "--input", str(path)])
    assert res.exit_code == 2
    assert "minimize needs an even-dimensional bracket" in res.stderr
    assert "Traceback" not in res.output and res.stdout == ""


H3_UNDER_GL = {
    "beta": ["-1/1", "-1/1", "1/1"], "beta_norm_sq": "3/1", "command": "minimize",
    "critical_bracket": [{"coeff": {"sign": 1, "sq": "1/2"}, "i": 1, "j": 2, "k": 3}],
    "multipliers": ["1", "1", "1"], "outcome": "distinguished", "residual": "0",
    "x": ["0", "0", "0"],
}


def test_minimize_under_gl_accepts_the_odd_heisenberg_algebra(runner, tmp_path):
    # h3, [e1, e2] = e3, has no symplectic form, but GL_3 needs none.
    path = tmp_path / "h3.json"
    path.write_text(json.dumps([{"i": 1, "j": 2, "k": 3, "coeff": "1"}]))
    res = _invoke(runner, ["minimize", "--input", str(path), "--group", "gl"])
    assert res.exit_code == 0 and res.stderr == ""
    assert res.stdout == json.dumps(H3_UNDER_GL, sort_keys=True, separators=(",", ":")) + "\n"
    res = runner.invoke(main, ["minimize", "--input", str(path), "--group", "sp"])
    assert res.exit_code == 2 and res.stdout == ""
    assert "minimize needs an even-dimensional bracket" in res.stderr


def _printed_bracket(terms):
    return nilgeom.LieBracket.from_terms(6, [
        ((t["i"] - 1, t["j"] - 1, t["k"] - 1),
         Coeff.from_square(Fraction(t["coeff"]["sq"]), t["coeff"]["sign"])) for t in terms])


def test_minimize_under_gl_prints_nilsolitons_for_the_shipped_instances(runner, tmp_path):
    # sp stays the default; under gl each printed critical bracket is a
    # nilsoliton, Ric = c Id + D by the Ricci oracle, with c = -|beta|^2 / 4.
    path = tmp_path / "mu.json"
    outcomes = {}
    for inst, terms in _shipped_instances():
        path.write_text(json.dumps({"n": 6, "terms": terms}))
        sp = _invoke(runner, ["minimize", "--input", str(path)]).output
        assert _invoke(runner, ["minimize", "--input", str(path), "--group", "sp"]).output == sp
        found = json.loads(_invoke(runner, ["minimize", "--input", str(path),
                                            "--group", "gl"]).output)
        outcomes[inst["label"]] = found["outcome"]
        if found["outcome"] == "not_nice":
            assert found["witness"] is not None
            continue
        mu = _printed_bracket(found["critical_bracket"])
        beta = Vec(Fraction(x) for x in found["beta"])
        assert mu.vector.norm_sq() == 1 and float(found["residual"]) <= 1e-12
        assert nilsoliton_constant(mu) == -beta.norm_sq() / 4, inst["label"]
    assert [label for label, outcome in outcomes.items() if outcome != "distinguished"] == [
        "18.(b_t) t=2", "18.(b_t) t=3", "18.(b_t) t=1/2", "18.(c)"]
    assert len(outcomes) == 15


def test_classify_shape(runner):
    res = _invoke(runner, ["classify", "--d", "4"])
    payload = json.loads(res.output)
    assert len(payload["strata"]) == 13
    empties = [s for s in payload["strata"] if s["empty"]]
    assert len(empties) == 1 and empties[0]["type"] == ["1/2", "1/2", "3/1"]


def test_table2_row_filter(runner):
    res = _invoke(runner, ["table2", "--row", "24a"])
    payload = json.loads(res.output)
    assert payload["passed"]
    assert [r["row"] for r in payload["rows"]] == ["24.(a)"]
    assert payload["rows"][0]["derivation_multiple"] == "1/4"
    res = runner.invoke(main, ["table2", "--row", "nonexistent"])
    assert res.exit_code != 0


@pytest.mark.parametrize("row", ["", "()", "."])
def test_table2_row_of_only_ignored_characters_matches_nothing(runner, row):
    # Case, dots and parentheses are ignored: such a key names no row.
    res = runner.invoke(main, ["table2", "--row", row])
    assert res.exit_code == 2 and res.stdout == ""
    assert "no row matches" in res.stderr


def _fixture_row(name, terms):
    return {"rows": [{"name": name, "beta_norm_sq": "1", "derivation_diag": [1] * 6,
                      "dim_aut": 6, "instances": [{"label": name, "terms": [
                          {"i": i, "j": j, "k": k, "sq": sq, "sign": 1}
                          for i, j, k, sq in terms]}]}]}


FAILING_ROWS = {
    "not_a_nilpotent_bracket": [(1, 2, 3, "1"), (1, 3, 2, "1")],
    "not_nice": [(1, 2, 5, "1"), (1, 3, 5, "1")],
    "mixed_radicands": [(1, 2, 5, "2"), (1, 3, 5, "3"), (2, 3, 6, "5")],
}


@pytest.mark.parametrize("name", sorted(FAILING_ROWS))
def test_table2_failing_fixture_rows_are_json(runner, tmp_path, name):
    path = tmp_path / "rows.json"
    path.write_text(json.dumps(_fixture_row(name, FAILING_ROWS[name])))
    res = runner.invoke(main, ["table2", "--fixtures", str(path)])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    lines = res.output.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    (row,) = payload["rows"]
    assert not payload["passed"] and not row["passed"] and row["mismatches"]
    if name == "not_a_nilpotent_bracket":
        assert row["mismatches"][0].startswith("('validate'")
    else:
        assert row["mm_sp"] is row["derivation"] is row["beta_norm_sq"] is None


def _worked_row_text(old, new):
    """The passing fixture row of the worked bracket, as JSON text with one edit."""
    row = _fixture_row("x", [(1, 4, 6, "1"), (2, 3, 5, "1")])
    row["rows"][0]["derivation_diag"] = [1, 1, 2, 2, 3, 3]
    text = json.dumps(row)
    assert old in text
    return text.replace(old, new, 1)


LARGE_SQ = "3602879701896397/36028797018963968"  # binary64 0.1, exactly


def test_large_radicands_finish(runner, tmp_path):
    # Both used to run past a timeout, refactoring radicands in every product.
    path = tmp_path / "mu.json"
    path.write_text(json.dumps([{"i": 1, "j": 4, "k": 6, "coeff": {"sq": LARGE_SQ}},
                                {"i": 2, "j": 3, "k": 5, "coeff": "1"}]))
    res = _invoke(runner, ["minimize", "--input", str(path)])
    assert json.loads(res.output)["outcome"] == "distinguished"
    fixture = nilgeom.load_table2_fixture()
    fixture["rows"] = [r for r in fixture["rows"] if r["name"] == "16.(a)"]
    fixture["rows"][0]["instances"][0]["terms"][0]["sq"] = LARGE_SQ
    path = tmp_path / "fixtures.json"
    path.write_text(json.dumps(fixture))
    res = runner.invoke(main, ["table2", "--fixtures", str(path)])
    (row,) = json.loads(res.output)["rows"]
    assert res.exit_code == 1 and row["dim_aut"] == 5 and not row["passed"]


UNSPLIT_SQ = "1000073001431003663"  # 1000003 * 1000033 * 1000037, above SPLIT_LIMIT**3


@pytest.mark.parametrize("command", ["check", "minimize"])
def test_unsplittable_radicand_is_a_quick_one_line_error(runner, tmp_path, command):
    path = tmp_path / "mu.json"
    path.write_text(json.dumps([{"i": 1, "j": 4, "k": 6, "coeff": {"sq": UNSPLIT_SQ}},
                                {"i": 2, "j": 3, "k": 5, "coeff": "1"}]))
    start = time.perf_counter()
    res = runner.invoke(main, [command, "--input", str(path)])
    assert time.perf_counter() - start < 1.0
    assert res.exit_code == 1 and res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: bad term in")
    assert "RadicandError" in lines[0]


def test_a_huge_decimal_exponent_is_a_quick_one_line_error(tmp_path):
    # Fraction("1e1000000") builds 10**1000000, whose radicand split would
    # take about half an hour; the exponent is refused before that.
    path = tmp_path / "mu.json"
    path.write_text(json.dumps([{"i": 1, "j": 4, "k": 6,
                                 "coeff": {"sq": "1e1000000", "sign": 1}}]))
    src = os.path.dirname(os.path.dirname(orbitforge.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-m", "orbitforge.cli", "check", "--group", "sp",
                          "--input", str(path)], capture_output=True, text=True,
                         env=env, timeout=30)
    assert out.returncode == 1 and out.stdout == ""
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: bad term in")
    assert "exponent above 4300" in lines[0]


def test_a_radicand_with_two_large_prime_factors_is_answered(runner, tmp_path):
    # 1000000007 * 998244353: both primes above the split limit, and their
    # product below SPLIT_LIMIT**3, so it is square-free and is split.
    path = tmp_path / "mu.json"
    path.write_text(json.dumps([{"i": 1, "j": 4, "k": 6, "coeff": {"sq": "998244359987710471"}},
                                {"i": 2, "j": 3, "k": 5, "coeff": "1"}]))
    res = runner.invoke(main, ["minimize", "--input", str(path)])
    assert res.exit_code == 0 and res.stderr == ""
    out = json.loads(res.stdout)
    assert out["outcome"] == "distinguished" and out["beta_norm_sq"] == "1/1"


def test_minimize_reports_an_unsplittable_critical_coefficient(runner, tmp_path):
    # 16.(a)'s support with one class of coefficients 10^12 + 39 and 1: the
    # critical squared coefficients have a large cofactor the split refuses.
    path = tmp_path / "mu.json"
    path.write_text(json.dumps([
        {"i": 1, "j": 2, "k": 3, "coeff": "1000000000039"},
        {"i": 1, "j": 5, "k": 6, "coeff": "1"},
        {"i": 2, "j": 4, "k": 6, "coeff": "1"},
        {"i": 4, "j": 5, "k": 3, "coeff": "1"}]))
    res = runner.invoke(main, ["minimize", "--input", str(path)])
    assert res.exit_code == 1 and res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: cannot split the radicand")


def test_table2_worked_fixture_row_passes(runner, tmp_path):
    path = tmp_path / "fixtures.json"
    path.write_text(_worked_row_text("", ""))
    res = _invoke(runner, ["table2", "--fixtures", str(path)])
    assert json.loads(res.output)["passed"]


BAD_FIXTURES = {
    "not_json": '{"rows": [',
    "not_a_table": "[1,2]",
    "row_without_beta_norm_sq": json.dumps(
        {"rows": [{"name": "x", "derivation_diag": [1] * 6, "dim_aut": 6,
                   "instances": [{"label": "x", "terms": [
                       {"i": 1, "j": 2, "k": 5, "sq": "1", "sign": 1}]}]}]}),
    "zero_bracket": json.dumps(_fixture_row("x", [])),
    "float_sq": _worked_row_text('"sq": "1"', '"sq": 0.1'),
    "overflowing_sq": _worked_row_text('"sq": "1"', '"sq": 1e400'),
    "boolean_sq": _worked_row_text('"sq": "1"', '"sq": true'),
    "boolean_sign": _worked_row_text('"sign": 1', '"sign": true'),
    "float_beta_norm_sq": _worked_row_text('"beta_norm_sq": "1"', '"beta_norm_sq": 1.0'),
    "float_derivation_diag": _worked_row_text('[1, 1, 2,', '[0.5, 0.5, 1,'),
    # A reference derivation has one entry per basis vector of the 6-dim row.
    "long_derivation_diag": _worked_row_text('[1, 1, 2, 2, 3, 3]', '[1, 1, 2, 2, 3, 3, 4, 4]'),
    "short_derivation_diag": _worked_row_text('[1, 1, 2, 2, 3, 3]', '[1, 1, 2]'),
}


@pytest.mark.parametrize("name", sorted(BAD_FIXTURES))
def test_table2_bad_fixture_files_are_one_line_errors(runner, tmp_path, name):
    path = tmp_path / "fixtures.json"
    path.write_text(BAD_FIXTURES[name])
    res = runner.invoke(main, ["table2", "--fixtures", str(path)])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    lines = res.output.splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: bad fixture file")


def test_minimize_has_no_omega_option(runner, tmp_path):
    path = tmp_path / "mu.json"
    path.write_text(json.dumps([{"i": 1, "j": 4, "k": 6, "coeff": "1"}]))
    res = runner.invoke(main, ["minimize", "--input", str(path), "--omega", "cn"])
    assert res.exit_code == 2 and "--omega" in res.output


def test_table2_row_verifies_only_that_row(runner, monkeypatch):
    calls = []
    original = nilgeom._verify_instance

    def counting(*args, **kwargs):
        calls.append(args[1]["label"])
        return original(*args, **kwargs)

    monkeypatch.setattr(nilgeom, "_verify_instance", counting)
    res = _invoke(runner, ["table2", "--row", "16a"])
    assert json.loads(res.output)["passed"]
    assert calls == ["16.(a)"]


def test_cli_imports_no_sympy_networkx_or_numpy():
    probe = ("import sys, orbitforge.cli, orbitforge.ternary, orbitforge.nilgeom; "
             "print(sorted({'sympy', 'networkx', 'numpy'} & set(sys.modules)))")
    src = os.path.dirname(os.path.dirname(orbitforge.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


def test_table1_passes(runner):
    res = _invoke(runner, ["table1"])
    assert res.exit_code == 0
    assert json.loads(res.output)["passed"]


@pytest.mark.parametrize("args", [["strata", "--n", "0", "--d", "2"],
                                  ["strata", "--n", "-1", "--d", "2"],
                                  ["classify", "--d", "0"],
                                  ["classify", "--d", "-1"]])
def test_bad_degree_or_size_is_a_usage_error(runner, args):
    res = runner.invoke(main, args)
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
    assert res.stdout == "" and "Traceback" not in res.output
    assert "is not a positive integer" in res.stderr


def test_strata_svg_off_n3_fails_before_any_output(runner, tmp_path):
    svg = tmp_path / "x.svg"
    res = runner.invoke(main, ["strata", "--d", "2", "--n", "4", "--svg", str(svg)])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert "--svg requires --n 3" in res.stderr
    assert not svg.exists()


@pytest.mark.parametrize("target", ["missing_dir", "directory"])
def test_strata_unwritable_svg_fails_before_any_output(runner, tmp_path, target):
    svg = tmp_path / "missing" / "x.svg" if target == "missing_dir" else tmp_path
    res = runner.invoke(main, ["strata", "--d", "4", "--svg", str(svg)])
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
    assert res.stdout == "" and "Traceback" not in res.output
    assert "cannot write --svg" in res.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
def test_strata_svg_write_failure_prints_nothing_on_stdout(runner):
    # Opening /dev/full succeeds; the write (or the close that flushes it)
    # fails with ENOSPC.
    res = runner.invoke(main, ["strata", "--d", "4", "--svg", "/dev/full"])
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
    assert res.stdout == "" and "Traceback" not in res.output
    assert "cannot write --svg /dev/full" in res.stderr


def test_table2_fixture_row_name_must_be_a_string(runner, tmp_path):
    path = tmp_path / "fixtures.json"
    fixture = _fixture_row("x", [(1, 2, 5, "1")])
    fixture["rows"][0]["name"] = 5
    path.write_text(json.dumps(fixture))
    res = runner.invoke(main, ["table2", "--fixtures", str(path), "--row", "5"])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    lines = res.output.splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: bad fixture file")
    assert "string 'name'" in lines[0]


def _run_probe(args):
    """Modules loaded by one CLI call in a fresh interpreter."""
    probe = ("import json, sys\n"
             "from orbitforge.cli import main\n"
             "main(%r)\n"
             "print(json.dumps(sorted(sys.modules)))" % (args,))
    src = os.path.dirname(os.path.dirname(orbitforge.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True, env=env)
    return set(json.loads(out.stdout.splitlines()[-1]))


def test_each_subcommand_imports_only_its_modules(tmp_path):
    path = tmp_path / "mu.json"
    path.write_text(json.dumps([{"i": 1, "j": 4, "k": 6, "coeff": "1"},
                                {"i": 2, "j": 3, "k": 5, "coeff": "1"}]))
    # (arguments, a module the command runs, modules it must leave unloaded)
    cases = [
        (["strata", "--d", "2"], "ternary", ("nilgeom", "flow")),
        (["check", "--input", str(path), "--group", "sp"], "nicecrit",
         ("ternary", "nilgeom", "flow")),
        (["table2", "--row", "16a"], "nilgeom", ("ternary", "flow")),
    ]
    for args, used, unused in cases:
        loaded = _run_probe(args)
        assert "orbitforge." + used in loaded, args
        assert "click" not in loaded, args
        assert not {"orbitforge." + m for m in unused} & loaded, args


def test_main_standalone_mode_false_prints_the_same(capsys, tmp_path):
    main(["strata", "--d", "2"])
    default = capsys.readouterr().out
    main(["strata", "--d", "2"], standalone_mode=False)
    assert capsys.readouterr().out == default
    assert json.loads(default)["count"] > 0
    # Without standalone mode a bad input propagates to the caller.
    path = tmp_path / "broken.json"
    path.write_text("[{]")
    with pytest.raises(CliError, match="parse error"):
        main(["check", "--input", str(path)], standalone_mode=False)


@pytest.mark.parametrize("command", [[], ["strata"], ["check"], ["classify"],
                                     ["table1"], ["table2"], ["minimize"]])
def test_help_exits_zero(runner, command):
    res = runner.invoke(main, [*command, "--help"])
    assert res.exit_code == 0 and res.exception is None
    assert res.stdout.startswith("usage: orbitforge")
