"""Command-line front end.

Subcommands: strata, check, classify, table1, table2, minimize.  Exact
rationals cross the process boundary as "p/q" strings; floats are printed
with 17 significant digits.

Exit codes:

* 0 -- the command answered.  Findings are data: ``not_nice``,
  ``not_distinguished`` and empty strata exit 0.
* 1 -- a bad input file (a one-line ``Error:`` on stderr, or the
  ``invalid_bracket`` JSON of ``minimize``), a radicand the bounded
  square-free split of ``coeffs`` cannot settle (an ``Error:`` line), or a
  table regression with a mismatch.
* 2 -- a usage error: an unknown option, a bad option value, or options that
  do not fit together or with the input.

The parser needs only the standard library.  Each subcommand imports the
modules it runs inside its body: ``strata``, ``classify`` and ``table1`` load
``ternary``; ``check`` loads ``reps``, ``lattice`` and ``nicecrit``;
``table2`` and ``minimize`` load ``nilgeom``, which loads ``flow`` only to
solve for a metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

class CliError(Exception):
    """Bad input found by a subcommand: one ``Error:`` line, exit status 1."""


class UsageError(CliError):
    """Options that do not fit together or with the input: exit status 2."""


def frac_str(x) -> str:
    f = Fraction(x)
    return "%d/%d" % (f.numerator, f.denominator)


def vec_strs(v) -> list:
    return [frac_str(x) for x in v]


def float_str(x: float) -> str:
    return format(x, ".17g")


def _witness_json(witness):
    """A NiceWitness as {"alpha_i", "alpha_j", "root"}, or None."""
    if witness is None:
        return None
    return {"alpha_i": vec_strs(witness.alpha_i), "alpha_j": vec_strs(witness.alpha_j),
            "root": vec_strs(witness.root)}


def emit_json(payload) -> None:
    print(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def _parse_coeff(raw):
    from .coeffs import Coeff, json_integer, json_rational

    if isinstance(raw, dict):
        return Coeff.from_square(json_rational(raw["sq"]), json_integer(raw.get("sign", 1)))
    return Coeff(json_rational(raw))


def _load_vector(path: str):
    """The vector of an input file: a list of terms, or {"n": N, "terms": [...]}."""
    from .coeffs import json_integer

    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise CliError("parse error in %s at line %d column %d: %s"
                       % (path, exc.lineno, exc.colno, exc.msg))
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError("bad input file %s: %s: %s" % (path, type(exc).__name__, exc))
    n = None
    if isinstance(data, dict) and data.keys() == {"n", "terms"}:
        try:
            n = json_integer(data["n"])
        except ValueError as exc:
            raise CliError("bad dimension in %s: %s" % (path, exc))
        data = data["terms"]
    if not isinstance(data, list) or not data:
        raise CliError('input must be a nonempty list of terms, or {"n": N, "terms": [...]}')
    try:
        v = _vector_from_terms(data, n)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        raise CliError("bad term in %s: %s: %s" % (path, type(exc).__name__, exc))
    if v.is_zero():
        raise CliError("the terms in %s cancel to the zero vector" % path)
    return v


def _vector_from_terms(data: list, n=None):
    """A form or bracket from its terms, of dimension n if given: else a form's
    exponent length, or a bracket's largest index."""
    from .coeffs import json_integer
    from .reps import RepVector

    first = data[0]
    if "exponents" in first:
        exps = [tuple(json_integer(e) for e in t["exponents"]) for t in data]
        if not exps[0]:
            raise ValueError("empty exponent list")
        if n is not None and n != len(exps[0]):
            raise ValueError("n = %d differs from the exponent length %d" % (n, len(exps[0])))
        d = sum(exps[0])
        items = [(e, _parse_coeff(t["coeff"])) for e, t in zip(exps, data)]
        return RepVector.poly(len(exps[0]), d, items)
    if {"i", "j", "k"} <= set(first):
        top = max(json_integer(t[key]) for t in data for key in "ijk")
        if n is not None and n < top:
            raise ValueError("n = %d is below the index %d" % (n, top))
        items = [(tuple(json_integer(t[key]) - 1 for key in "ijk"), _parse_coeff(t["coeff"]))
                 for t in data]
        return RepVector.bracket(top if n is None else n, items)
    raise CliError("terms must carry either 'exponents' or 'i','j','k'")


def _render_table(rows: list, header: list, fmt: str) -> None:
    if fmt == "csv":
        print(",".join(header))
        for row in rows:
            print(",".join(str(c) for c in row))
    elif fmt == "markdown":
        print("| " + " | ".join(header) + " |")
        print("|" + "|".join(" --- " for _ in header) + "|")
        for row in rows:
            print("| " + " | ".join(str(c) for c in row) + " |")
    else:
        raise ValueError(fmt)


def strata(n, d, fmt, paper_signs, svg):
    """Stratum labels for forms of degree D in N variables."""
    from .ternary import stratifying_set

    if svg is not None and n != 3:
        raise UsageError("--svg requires --n 3")
    labels = stratifying_set(d, n)
    if svg is not None:
        # Write and close the drawing first, so that a failed write prints nothing.
        try:
            with open(svg, "w") as fh:
                _write_strata_svg(fh, d, labels)
        except OSError as exc:
            raise UsageError("cannot write --svg %s: %s" % (svg, exc.strerror))
    _print_strata(n, d, fmt, paper_signs, labels)


def _print_strata(n, d, fmt, paper_signs, labels) -> None:
    from .ratgeom import Vec
    from .ternary import display_type

    shown = [display_type(b) if paper_signs else tuple(b) for b in labels]
    payload = {
        "command": "strata", "n": n, "d": d, "paper_signs": paper_signs,
        "count": len(labels),
        "strata": [{"beta": vec_strs(b), "norm_sq": frac_str(Vec(b).norm_sq())}
                   for b in shown],
    }
    if n != 3:
        payload["warning"] = ("the pair formula is validated only for n = 3; "
                              "treat this output as unverified")
    if fmt == "json":
        emit_json(payload)
    else:
        rows = [[*vec_strs(b), frac_str(Vec(b).norm_sq())] for b in shown]
        _render_table(rows, ["beta_%d" % i for i in range(n)] + ["norm_sq"], fmt)
        if n != 3:
            print("# unverified for n != 3", file=sys.stderr)


def _write_strata_svg(fh, d: int, labels) -> None:
    from .ternary import _all_weights

    def plane(p):
        # Barycentric embedding of the (d,0,0)-(0,d,0)-(0,0,d) triangle.
        x = float(-p[1]) + float(-p[2]) / 2.0
        y = float(-p[2]) * 0.8660254037844386
        return 60.0 + 400.0 * x / d, 460.0 - 400.0 * y / d

    parts = ['<svg xmlns="http://www.w3.org/2000/svg" width="520" height="520">']
    tri = [plane((-d, 0, 0)), plane((0, -d, 0)), plane((0, 0, -d))]
    parts.append('<polygon points="%s" fill="none" stroke="black"/>'
                 % " ".join("%.2f,%.2f" % p for p in tri))
    for w in _all_weights(3, d):
        cx, cy = plane(w)
        parts.append('<circle cx="%.2f" cy="%.2f" r="3" fill="steelblue"/>' % (cx, cy))
    for b in labels:
        cx, cy = plane(b)
        parts.append('<circle cx="%.2f" cy="%.2f" r="5" fill="none" '
                     'stroke="crimson" stroke-width="2"/>' % (cx, cy))
    parts.append("</svg>")
    fh.write("\n".join(parts))


def check(path, group, paper_signs):
    """Distinguished-orbit verdict for a form or bracket file."""
    from .lattice import gl_roots, sp_diag_roots
    from .nicecrit import orbit_verdict
    from .ratgeom import Vec

    v = _load_vector(path)
    n = v.backend.n
    if group == "sp":
        if n % 2:
            raise UsageError("sp requires even dimension")
        roots = sp_diag_roots(n // 2)
    else:
        # SL_n has gl_n's roots: sl differs only in its trace-free label.
        roots = gl_roots(n)
    verdict = orbit_verdict(v, roots)
    beta = verdict.beta
    if beta is not None and group == "sl":
        # Every weight has trace t, so tr beta = t; the sl label drops (t/n)(1, ..., 1).
        beta = beta - Vec([sum(beta) / n] * n)
    if beta is not None and paper_signs:
        beta = -beta
    payload = {
        "command": "check", "group": group, "outcome": verdict.outcome,
        "beta": vec_strs(beta) if beta is not None else None,
        "certificate": (vec_strs(verdict.certificate)
                        if verdict.certificate is not None else None),
        "witness": _witness_json(verdict.witness),
    }
    emit_json(payload)


def classify_cmd(d, paper_signs):
    """Stratum-by-stratum critical coefficient families."""
    from .ternary import classify, display_type

    rows = []
    for s in classify(d):
        beta = display_type(s.beta) if paper_signs else tuple(s.beta)
        rows.append({
            "type": vec_strs(beta),
            "omega_weights": [[str(int(-x)) for x in w] for w in s.omega],
            "empty": s.empty,
            "families": [{
                "weights": [[str(int(-x)) for x in w] for w in f.weights],
                "masses": vec_strs(f.family.particular),
                "coefficient_squares": vec_strs(f.family.coefficient_squares()),
                "dimension": f.family.dimension,
            } for f in s.families],
        })
    emit_json({"command": "classify", "d": d, "strata": rows})


def table1(fmt):
    """Recompute the full degree-4 classification and diff it."""
    from .ternary import verify_table1

    reports = verify_table1()
    rows = [{
        "type": [frac_str(x) for x in r.type],
        "passed": r.passed,
        "families": len(r.stratum.families),
        "mismatches": [str(m) for m in r.mismatches],
    } for r in reports]
    ok = all(r.passed for r in reports)
    if fmt == "json":
        emit_json({"command": "table1", "passed": ok, "rows": rows})
    else:
        _render_table([["(%s)" % ",".join(r["type"]), r["families"],
                        "pass" if r["passed"] else "FAIL"] for r in rows],
                      ["type", "families", "status"], fmt)
    if not ok:
        sys.exit(1)


def table2(fixtures, row, fmt):
    """Re-verify the six-dimensional minimal-metric table."""
    from .nilgeom import run_table2

    try:
        reports = run_table2(fixtures, row=row)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        # A malformed --fixtures file is bad input; the shipped table is not.
        if fixtures is None:
            raise
        raise CliError("bad fixture file %s: %s: %s"
                       % (fixtures, type(exc).__name__, exc))
    if row is not None and not reports:
        raise UsageError("no row matches %r" % row)
    # A non-nice row has no diagonal mm_sp, derivation or beta: null.
    rows = [{
        "row": r.label,
        "passed": r.passed,
        "beta_norm_sq": frac_str(r.report.beta_norm_sq) if r.report.nice else None,
        "mm_sp": vec_strs(r.report.mm_sp.diag()) if r.report.nice else None,
        "derivation": vec_strs(r.report.derivation.diag()) if r.report.nice else None,
        "derivation_multiple": (frac_str(r.report.multiple)
                                if r.report.multiple is not None else None),
        "dim_aut": r.dim_aut,
        "mismatches": [str(m) for m in r.mismatches],
    } for r in reports]
    ok = all(r.passed for r in reports)
    if fmt == "json":
        emit_json({"command": "table2", "passed": ok, "rows": rows})
    else:
        _render_table(
            [[r["row"], r["beta_norm_sq"], r["derivation_multiple"],
              r["dim_aut"], "pass" if r["passed"] else "FAIL"] for r in rows],
            ["row", "beta_norm_sq", "multiple", "dim_aut", "status"], fmt)
    if not ok:
        sys.exit(1)


def minimize(path):
    """Minimal compatible metric for a symplectic nilpotent bracket."""
    from .coeffs import RadicandError
    from .nilgeom import (LieBracket, NotDistinguishedError, ValidationError,
                          find_minimal_metric, validate)

    v = _load_vector(path)
    if v.backend.kind != "bracket":
        raise UsageError("minimize expects a bracket input")
    mu = LieBracket(v)
    try:
        validate(mu, two_step=False)
    except ValidationError as exc:
        emit_json({"command": "minimize", "outcome": "invalid_bracket",
                   "violation": exc.kind, "witness": list(exc.witness)})
        sys.exit(1)
    if mu.n % 2:
        raise UsageError("minimize needs an even-dimensional bracket")
    try:
        res = find_minimal_metric(mu)
    except NotDistinguishedError as exc:
        payload = {"command": "minimize", "outcome": exc.verdict.outcome}
        if exc.verdict.witness is not None:
            payload["witness"] = _witness_json(exc.verdict.witness)
        emit_json(payload)
        return
    except RadicandError as exc:
        # A critical coefficient whose square-free part the bounded split
        # cannot find.
        raise CliError(str(exc))
    emit_json({
        "command": "minimize", "outcome": "distinguished",
        "x": [float_str(t) for t in res.x],
        "multipliers": [float_str(math.exp(t)) for t in res.x],
        "beta": vec_strs(res.beta),
        "beta_norm_sq": frac_str(res.beta.norm_sq()),
        "residual": float_str(res.residual),
        "critical_bracket": [
            {"i": i + 1, "j": j + 1, "k": k + 1,
             "coeff": {"sq": frac_str(c.square()), "sign": 1 if c.r > 0 else -1}}
            for (i, j, k), c in res.critical_bracket.sorted_terms()],
    })


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError("%r is not a positive integer" % text)
    return value


def _existing_file(text: str) -> str:
    if not os.path.isfile(text):
        raise argparse.ArgumentTypeError("no file %r" % text)
    return text


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitforge", allow_abbrev=False,
        description="Distinguished orbits of reductive representations, exactly.")
    commands = parser.add_subparsers(required=True, metavar="COMMAND")

    def command(run, name):
        sub = commands.add_parser(name, help=run.__doc__, description=run.__doc__,
                                  allow_abbrev=False)
        sub.set_defaults(run=run, parser=sub)
        return sub

    def format_option(sub):
        sub.add_argument("--format", dest="fmt", choices=("json", "csv", "markdown"),
                         default="json", help="output format (default: %(default)s)")

    def paper_signs_option(sub, default):
        sub.add_argument("--paper-signs", action=argparse.BooleanOptionalAction,
                         default=default, help="present labels with positive entries")

    sub = command(strata, "strata")
    sub.add_argument("--n", type=_positive_int, default=3,
                     help="number of variables (default: %(default)s)")
    sub.add_argument("--d", type=_positive_int, required=True,
                     help="degree of the forms")
    format_option(sub)
    paper_signs_option(sub, False)
    sub.add_argument("--svg", help="also write a weight-triangle drawing (n = 3 only)")

    sub = command(check, "check")
    sub.add_argument("--input", dest="path", type=_existing_file, required=True,
                     metavar="FILE", help='JSON terms: a list, or {"n": N, "terms": [...]}')
    sub.add_argument("--group", choices=("gl", "sl", "sp"), default="gl",
                     help="acting group (default: %(default)s)")
    paper_signs_option(sub, False)

    sub = command(classify_cmd, "classify")
    sub.add_argument("--d", type=_positive_int, default=4,
                     help="degree of the ternary forms (default: %(default)s)")
    paper_signs_option(sub, True)

    format_option(command(table1, "table1"))

    sub = command(table2, "table2")
    sub.add_argument("--fixtures", type=_existing_file, default=None, metavar="FILE",
                     help="alternative fixture file (default: the shipped table)")
    sub.add_argument("--row", default=None, help="restrict to one row, e.g. 24a")
    format_option(sub)

    sub = command(minimize, "minimize")
    sub.add_argument("--input", dest="path", type=_existing_file, required=True,
                     metavar="FILE", help='bracket terms: a list, or {"n": N, "terms": [...]}')
    return parser


def main(args=None, standalone_mode: bool = True) -> None:
    """Run one subcommand on ``args`` (default: ``sys.argv[1:]``).

    A parsing error exits with status 2.  In standalone mode a ``CliError``
    from the subcommand is printed and exits with status 1, or 2 for a
    ``UsageError``, and a reader closing stdout early (``| head``) exits
    with status 1; with ``standalone_mode=False`` both propagate instead.
    """
    opts = vars(_parser().parse_args(args))
    run, parser = opts.pop("run"), opts.pop("parser")
    try:
        run(**opts)
        sys.stdout.flush()
    except CliError as exc:
        if not standalone_mode:
            raise
        if isinstance(exc, UsageError):
            parser.error(str(exc))
        print("Error: %s" % exc, file=sys.stderr)
        sys.exit(1)
    except BrokenPipeError:
        if not standalone_mode:
            raise
        # Point stdout at devnull so the interpreter's final flush cannot
        # fail on the closed pipe a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)


if __name__ == "__main__":
    main()
