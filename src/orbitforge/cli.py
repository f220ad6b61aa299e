"""Command-line front end.

Subcommands: strata, check, classify, table1, table2, minimize.  Exact
rationals cross the process boundary as "p/q" strings; floats are printed
with 17 significant digits.  Findings (not distinguished, empty stratum) are
data with exit code 0; table regressions exit nonzero on any mismatch.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction

import click

from .coeffs import Coeff
from .lattice import gl_roots, sl_roots, sp_diag_roots
from .nicecrit import is_distinguished
from .nilgeom import (LieBracket, NotDistinguishedError, ValidationError,
                      find_minimal_metric, run_table2, validate)
from .ratgeom import Vec
from .reps import RepVector, support, support_projected
from .ternary import classify, display_type, stratifying_set, verify_table1


def frac_str(x) -> str:
    f = Fraction(x)
    return "%d/%d" % (f.numerator, f.denominator)


def vec_strs(v) -> list:
    return [frac_str(x) for x in v]


def float_str(x: float) -> str:
    return format(x, ".17g")


def emit_json(payload) -> None:
    click.echo(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def _parse_coeff(raw) -> Coeff:
    if isinstance(raw, dict):
        sign = int(raw.get("sign", 1))
        return Coeff.from_square(Fraction(raw["sq"]), sign)
    return Coeff(Fraction(raw))


def _load_vector(path: str) -> RepVector:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise click.ClickException(
            "parse error in %s at line %d column %d: %s"
            % (path, exc.lineno, exc.colno, exc.msg))
    if not isinstance(data, list) or not data:
        raise click.ClickException("input must be a nonempty list of terms")
    try:
        v = _vector_from_terms(data)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        raise click.ClickException("bad term in %s: %s: %s"
                                   % (path, type(exc).__name__, exc))
    if v.is_zero():
        raise click.ClickException("the terms in %s cancel to the zero vector" % path)
    return v


def _vector_from_terms(data: list) -> RepVector:
    first = data[0]
    if "exponents" in first:
        exps = [tuple(int(e) for e in t["exponents"]) for t in data]
        n = len(exps[0])
        d = sum(exps[0])
        items = [(e, _parse_coeff(t["coeff"])) for e, t in zip(exps, data)]
        return RepVector.poly(n, d, items)
    if {"i", "j", "k"} <= set(first):
        n = max(max(int(t["i"]), int(t["j"]), int(t["k"])) for t in data)
        items = [((int(t["i"]) - 1, int(t["j"]) - 1, int(t["k"]) - 1),
                  _parse_coeff(t["coeff"])) for t in data]
        return RepVector.bracket(n, items)
    raise click.ClickException(
        "terms must carry either 'exponents' or 'i','j','k'")


def _render_table(rows: list, header: list, fmt: str) -> None:
    if fmt == "csv":
        click.echo(",".join(header))
        for row in rows:
            click.echo(",".join(str(c) for c in row))
    elif fmt == "markdown":
        click.echo("| " + " | ".join(header) + " |")
        click.echo("|" + "|".join(" --- " for _ in header) + "|")
        for row in rows:
            click.echo("| " + " | ".join(str(c) for c in row) + " |")
    else:
        raise ValueError(fmt)


@click.group()
def main():
    """Distinguished orbits of reductive representations, exactly."""


@main.command()
@click.option("--n", default=3, show_default=True, help="Number of variables.")
@click.option("--d", required=True, type=int, help="Degree of the forms.")
@click.option("--format", "fmt", default="json",
              type=click.Choice(["json", "csv", "markdown"]), show_default=True)
@click.option("--paper-signs/--no-paper-signs", default=False,
              help="Present labels with positive entries.")
@click.option("--svg", type=click.Path(), default=None,
              help="Also write a weight-triangle drawing (n = 3 only).")
def strata(n, d, fmt, paper_signs, svg):
    """Stratum labels for forms of degree D in N variables."""
    if d < 1:
        raise click.UsageError("degree must be at least 1")
    labels = stratifying_set(d, n)
    shown = [tuple(sorted(-x for x in b)) if paper_signs else tuple(b)
             for b in labels]
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
            click.echo("# unverified for n != 3", err=True)
    if svg is not None:
        if n != 3:
            raise click.UsageError("--svg requires --n 3")
        _write_strata_svg(svg, d, labels)


def _write_strata_svg(path: str, d: int, labels) -> None:
    from .ternary import _all_weights

    def plane(p):
        # Barycentric embedding of the (d,0,0)-(0,d,0)-(0,0,d) triangle.
        x = float(-p[1]) + float(-p[2]) / 2.0
        y = float(-p[2]) * 0.8660254037844386
        return 60.0 + 400.0 * x / d, 460.0 - 400.0 * y / d

    parts = ['<svg xmlns="http://www.w3.org/2000/svg" width="520" height="520">']
    tri = [plane(Vec([-d, 0, 0])), plane(Vec([0, -d, 0])), plane(Vec([0, 0, -d]))]
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
    with open(path, "w") as fh:
        fh.write("\n".join(parts))


@main.command()
@click.option("--input", "path", required=True, type=click.Path(exists=True))
@click.option("--group", default="gl", show_default=True,
              type=click.Choice(["gl", "sl", "sp"]))
@click.option("--paper-signs/--no-paper-signs", default=False)
def check(path, group, paper_signs):
    """Distinguished-orbit verdict for a form or bracket file."""
    v = _load_vector(path)
    n = v.backend.n
    if group == "sp":
        if n % 2:
            raise click.UsageError("sp requires even dimension")
        roots = sp_diag_roots(n // 2)
        weights = support_projected(v, n // 2)
    else:
        roots = gl_roots(n) if group == "gl" else sl_roots(n)
        weights = support(v)
    verdict = is_distinguished(weights, v.backend, roots)
    beta = verdict.beta
    if beta is not None and paper_signs:
        beta = -beta
    payload = {
        "command": "check", "group": group, "outcome": verdict.outcome,
        "beta": vec_strs(beta) if beta is not None else None,
        "certificate": (vec_strs(verdict.certificate)
                        if verdict.certificate is not None else None),
        "witness": (None if verdict.witness is None else {
            "alpha_i": vec_strs(verdict.witness.alpha_i),
            "alpha_j": vec_strs(verdict.witness.alpha_j),
            "root": vec_strs(verdict.witness.root),
        }),
    }
    emit_json(payload)


@main.command("classify")
@click.option("--d", default=4, show_default=True, type=int)
@click.option("--paper-signs/--no-paper-signs", default=True, show_default=True)
def classify_cmd(d, paper_signs):
    """Stratum-by-stratum critical coefficient families."""
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


@main.command()
@click.option("--format", "fmt", default="json",
              type=click.Choice(["json", "csv", "markdown"]), show_default=True)
def table1(fmt):
    """Recompute the full degree-4 classification and diff it."""
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


@main.command()
@click.option("--fixtures", type=click.Path(exists=True), default=None,
              help="Alternative fixture file (default: the shipped table).")
@click.option("--row", default=None, help="Restrict to one row, e.g. 24a.")
@click.option("--format", "fmt", default="json",
              type=click.Choice(["json", "csv", "markdown"]), show_default=True)
def table2(fixtures, row, fmt):
    """Re-verify the six-dimensional minimal-metric table."""
    try:
        reports = run_table2(fixtures, row=row)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        # A malformed --fixtures file is bad input; the shipped table is not.
        if fixtures is None:
            raise
        raise click.ClickException("bad fixture file %s: %s: %s"
                                   % (fixtures, type(exc).__name__, exc))
    if row is not None and not reports:
        raise click.UsageError("no row matches %r" % row)
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


@main.command()
@click.option("--input", "path", required=True, type=click.Path(exists=True))
def minimize(path):
    """Minimal compatible metric for a symplectic nilpotent bracket."""
    v = _load_vector(path)
    if v.backend.kind != "bracket":
        raise click.UsageError("minimize expects a bracket input")
    mu = LieBracket(v)
    try:
        validate(mu, two_step=False)
    except ValidationError as exc:
        emit_json({"command": "minimize", "outcome": "invalid_bracket",
                   "violation": exc.kind, "witness": list(exc.witness)})
        sys.exit(1)
    try:
        res = find_minimal_metric(mu)
    except NotDistinguishedError as exc:
        payload = {"command": "minimize", "outcome": exc.verdict.outcome}
        if exc.verdict.witness is not None:
            payload["witness"] = {
                "alpha_i": vec_strs(exc.verdict.witness.alpha_i),
                "alpha_j": vec_strs(exc.verdict.witness.alpha_j),
                "root": vec_strs(exc.verdict.witness.root),
            }
        emit_json(payload)
        return
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


if __name__ == "__main__":
    main()
