"""Nilpotent Lie brackets and minimal metrics.

A bracket on R^n is an element of the bracket representation; this module
validates the Lie axioms and decides existence of a minimal metric for the
group G of a ``lattice.RootSystem``: one exists exactly when the G-orbit of
the bracket is distinguished, and the critical bracket satisfies
mm_G(mu) = -|beta|^2 Id + D with D a derivation.  Under GL_n that makes it
a nilsoliton (4 Ric = |mu|^2 mm); under Sp(2m,R), the default, a metric
compatible with the antidiagonal symplectic form.  The shipped table of
six-dimensional two-step algebras is re-verified row by row under Sp(6,R).
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple, Optional

from . import _exact
from .coeffs import (Coeff, IrrationalError, coprime_base, fold_radicands, json_integer,
                     json_rational)
from .lattice import RootSystem, projection, sp_diag_roots, sp_sign
from .nicecrit import Verdict, _orbit_verdict
from .ratgeom import Vec, mcc
from .reps import (RepVector, SymMatrix, apply_terms, moment_map_restricted,
                   support_projected, weight_classes, weight_masses)


class LieBracket:
    """A bracket mu on R^n, stored as a bracket-representation vector."""

    def __init__(self, vector: RepVector):
        if vector.backend.kind != "bracket":
            raise ValueError("LieBracket requires a bracket-backend vector")
        self.vector = vector
        self.n = vector.backend.n

    @classmethod
    def from_terms(cls, n: int, items) -> "LieBracket":
        return cls(RepVector.bracket(n, items))


class ValidationError(Exception):
    """A failed Lie-axiom check: ``kind`` is "jacobi", "not_nilpotent" or
    "not_two_step", ``witness`` the basis triple (empty for nilpotency)."""

    def __init__(self, kind: str, witness: tuple):
        super().__init__("%s violation at %r" % (kind, witness))
        self.kind, self.witness = kind, witness


class _RadicalField:
    """K = Q(sqrt b : b in ``coeffs.coprime_base`` of the radicands), over Q.

    No radicand is factored: each is squarefree, hence the product of the
    base elements dividing it.  The basis is {sqrt d : d a product of base
    elements}, so K has degree 2^(size of the base), and sqrt 6 alone gives
    degree 2.  A K-linear problem becomes a rational one ``degree`` times its
    size (restriction of scalars); with an empty base the degree is 1 and
    nothing changes.
    """

    def __init__(self, radicands):
        self.basis = [1]
        for b in coprime_base(radicands):
            self.basis += [d * b for d in self.basis]
        self.degree = len(self.basis)
        self._pos = {d: u for u, d in enumerate(self.basis)}

    def times_basis(self, r, s: int, u: int) -> tuple[int, Fraction]:
        """r sqrt(s) * sqrt(basis[u]) as (v, x), meaning x * sqrt(basis[v])."""
        g, m = fold_radicands(s, self.basis[u])
        return self._pos[m], r * g


def _rational_form(mu: LieBracket) -> tuple[LieBracket, _RadicalField]:
    """mu / sqrt(s), s the radicand of its first term, and the field it lives in.

    Jacobi, nilpotency and Der(mu) are unchanged by scaling, and a bracket
    whose constants share one radicand becomes rational (degree 1).
    """
    terms = mu.vector.sorted_terms()
    if not terms:
        return mu, _RadicalField(())
    first = terms[0][1]
    # r sqrt(s) / (r s) = 1 / sqrt(s), with no radicand to factor.
    scaled = LieBracket(mu.vector.scale(first * Fraction(1, first.r * first.s)))
    return scaled, _RadicalField(c.s for c in scaled.vector.terms.values())


def _bracket(consts: dict, x: dict, y: dict) -> dict:
    """[x, y] for sparse rational vectors, from structure constants."""
    out: dict = {}
    for p, a in x.items():
        for q, b in y.items():
            for r, c in consts.get((p, q), {}).items():
                out[r] = out.get(r, 0) + a * b * c
    return {r: v for r, v in out.items() if v != 0}


def _span(vectors, dim: int) -> list[dict]:
    """A basis, as sparse vectors, of the rational span of sparse vectors."""
    red, pivots = _exact.rref([[v.get(t, 0) for t in range(dim)] for v in vectors if v])
    return [{t: x for t, x in enumerate(red[r]) if x != 0} for r in range(len(pivots))]


def validate(mu: LieBracket, two_step: bool = False) -> None:
    """Check Jacobi, nilpotency, and optionally the two-step condition.

    Raises ValidationError with the witnessing basis triple.  All checks are
    exact rational arithmetic: mu is scaled to rational constants, or, when
    its radicands differ, realified over Q on the basis e_i sqrt(d) of
    K^n (restriction of scalars preserves Jacobi, nilpotency and two-step).
    """
    n = mu.n
    nu, field = _rational_form(mu)
    deg, dim = field.degree, n * field.degree
    # Realified structure constants: (p, q) -> {r: x}, index i * deg + u for
    # the basis vector e_i sqrt(basis[u]); both argument orders are stored.
    consts: dict = {}
    for (i, j, k), c in nu.vector.terms.items():
        for u in range(deg):
            t, y = field.times_basis(c.r, c.s, u)
            for w in range(deg):
                v, x = field.times_basis(y, field.basis[t], w)
                consts.setdefault((i * deg + u, j * deg + w), {})[k * deg + v] = x
                consts.setdefault((j * deg + w, i * deg + u), {})[k * deg + v] = -x
    # Jacobi and [[x, y], z] are K-trilinear: the K-basis triples e_i (u = 0) suffice.
    e = [{i * deg: Fraction(1)} for i in range(n)]
    for i, j, k in combinations(range(n), 3):
        jac: dict = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for r, x in _bracket(consts, _bracket(consts, e[a], e[b]), e[c]).items():
                jac[r] = jac.get(r, 0) + x
        if any(x != 0 for x in jac.values()):
            raise ValidationError("jacobi", (i, j, k))
    if two_step:
        for a, b in combinations(range(n), 2):
            ab = _bracket(consts, e[a], e[b])
            for c in range(n):
                if _bracket(consts, ab, e[c]):
                    raise ValidationError("not_two_step", (a, b, c))
    # Lower central series: span of bracket values, then brackets with it.
    current = _span([x for (p, q), x in consts.items() if p < q], dim)
    while current:
        nxt = _span([_bracket(consts, {p: 1}, v)
                     for p in range(dim) for v in current], dim)
        if len(nxt) >= len(current):
            raise ValidationError("not_nilpotent", ())
        current = nxt


class MinimalReport(NamedTuple):
    nice: bool                       # mm diagonal in this basis
    critical: bool                   # mm equals mcc of the (projected) support
    beta: Optional[Vec]
    beta_norm_sq: Optional[Fraction]
    derivation: Optional[SymMatrix]  # D = mm + |beta|^2 Id
    is_derivation: Optional[bool]
    multiple: Optional[Fraction]     # D = multiple * reference, if supplied
    mm: Optional[SymMatrix]          # the group's moment map; None when an entry is irrational


def _sp_roots(n: int) -> RootSystem:
    """The roots of the default group, Sp(n,R) for the antidiagonal form."""
    if n % 2:
        raise ValueError("the default group Sp(n) needs even dimension")
    return sp_diag_roots(n // 2)


def verify_minimal(mu: LieBracket, roots: RootSystem | None = None,
                   reference_derivation=None) -> MinimalReport:
    """Check that the canonical metric is minimal for mu under the group of
    ``roots`` (default Sp(n,R)): compares its moment map mm(mu) with mcc of
    the (projected) support, and reports D = mm + |beta|^2 Id with the exact
    derivation check.  ``reference_derivation`` (diagonal entries) is
    compared up to a positive rational multiple.  Raises ValueError for the
    zero bracket, roots of another dimension (an odd n by default), or a
    reference without exactly n entries.
    """
    roots = _sp_roots(mu.n) if roots is None else roots
    if reference_derivation is not None:
        ref = [Fraction(x) for x in reference_derivation]
        if len(ref) != mu.n:
            raise ValueError("the reference derivation needs %d entries, not %d"
                             % (mu.n, len(ref)))
    try:
        mm = moment_map_restricted(mu.vector, roots)
    except IrrationalError:
        # Diagonal entries are rational, so an irrational one is off-diagonal.
        mm = None
    if mm is None or not mm.is_diagonal():
        return MinimalReport(False, False, None, None, None, None, None, mm)
    beta = mcc(support_projected(mu.vector, projection(roots)))
    critical = mm.diag() == beta
    bns = beta.norm_sq()
    d = mm + SymMatrix.diagonal([bns] * mu.n)
    # D is diagonal here, so pi(D) mu scales each term by <weight, diag D>.
    diag = [(i, i, x) for i, x in enumerate(d.diag()) if x]
    is_der = not apply_terms(mu.vector.backend, diag, mu.vector.terms)
    multiple = None
    if reference_derivation is not None:
        ratios = {d.rows[i][i] / r for i, r in enumerate(ref) if r != 0}
        exact = all(d.rows[i][i] == 0 for i, r in enumerate(ref) if r == 0)
        if exact and len(ratios) == 1:
            ratio = ratios.pop()
            if ratio > 0:
                multiple = ratio
    return MinimalReport(True, critical, beta, bns, d, is_der, multiple, mm)


class NotDistinguishedError(Exception):
    def __init__(self, verdict: Verdict):
        super().__init__("orbit is %s" % verdict.outcome)
        self.verdict = verdict


class MinimalMetricResult(NamedTuple):
    verdict: Verdict
    x: tuple                  # diagonal solution of the moment equation
    residual: float
    critical_bracket: RepVector
    beta: Vec


def find_minimal_metric(mu: LieBracket, roots: RootSystem | None = None) -> MinimalMetricResult:
    """Diagonal change of basis carrying mu to a minimal-metric critical
    point for the group of ``roots`` (default Sp(n,R); a nilsoliton for GL_n).

    Requires ``nicecrit.orbit_verdict`` to find the orbit distinguished: mcc
    of the (sp-projected) weights is interior, and their span is nice or mm
    stays diagonal along the diagonal torus orbit of mu.  Raises
    NotDistinguishedError (carrying the verdict of the span test, so
    "not_nice" when only the torus test passed) otherwise, and ValueError for
    the zero bracket or roots of another dimension (an odd n by default).
    Returns X solving mm(exp(X).mu) = beta, from one call of
    ``flow.solve_moment_equation`` on the class masses the verdict checked,
    and an exact critical bracket, obtained by redistributing those masses
    onto the verdict's interior certificate; that scales each weight part by
    one factor, so the torus test's sums stay zero and mm of the bracket is
    diag(beta).  Where the (projected) weights are affinely independent the
    certificate is the only critical mass distribution and the bracket is
    exp(X).mu normalized; otherwise it can lie outside mu's orbit.
    """
    from .flow import solve_moment_equation

    roots = _sp_roots(mu.n) if roots is None else roots
    if mu.vector.is_zero():
        raise ValueError("the zero bracket has no minimal metric")
    backend = mu.vector.backend
    parts = weight_classes(backend, dict(mu.vector.sorted_terms()), projection(roots))
    verdict = _orbit_verdict(parts, backend, roots)
    if verdict.outcome != "distinguished":
        raise NotDistinguishedError(verdict)
    masses = weight_masses(backend, parts)
    result = solve_moment_equation(masses, verdict.beta)

    # The certificate is a critical mass distribution: positive masses on
    # the weights (in class order), summing to 1, with barycentre beta.
    # Each class's squared coefficients scale by one factor.
    scale = {idx: target / masses[w]
             for (w, part), target in zip(parts.items(), verdict.certificate) for idx in part}
    critical = RepVector(backend, {
        idx: Coeff.from_square(c.square() * scale[idx], 1 if c.r > 0 else -1)
        for idx, c in mu.vector.terms.items()})
    return MinimalMetricResult(verdict, result.x, result.residual, critical, verdict.beta)


def sym_derivation_dim(mu: LieBracket) -> int:
    """dim over R of Der(mu) intersected with sp(2m, R) (antidiagonal form).

    Exact: sp(2m) is parametrized as A = J S with S symmetric, and the system
    A.mu = 0 in the entries of S is solved over Q after scaling mu to rational
    constants.  Column (i, j) is the image of mu under J (E_ij + E_ji).
    Mixed radicands are realified over their field K, whose degree divides
    the rational nullity.
    """
    n = mu.n
    m = n // 2
    if 2 * m != n:
        raise ValueError("symplectic derivations need even dimension")
    nu, field = _rational_form(mu)
    deg = field.degree
    backend = nu.vector.backend
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    # Row (output index, component v) of the realified system; the unknown
    # S_ij in K is deg rational unknowns, column t * deg + u for sqrt(basis[u]).
    # J (E_ij + E_ji) has entry sgn(a) at (a, b) = (n-1-i, j) and (n-1-j, i).
    rows: dict = {}
    width = len(pairs) * deg
    for t, (i, j) in enumerate(pairs):
        for a, b in ((n - 1 - i, j), (n - 1 - j, i)):
            for idx, c in nu.vector.terms.items():
                for new, f in backend.act(a, b, idx):
                    for u in range(deg):
                        v, x = field.times_basis(c.r * (sp_sign(a, m) * f), c.s, u)
                        row = rows.setdefault((new, v), [Fraction(0)] * width)
                        row[t * deg + u] += x
    return len(pairs) - _exact.rank(list(rows.values())) // deg


class TableRowReport(NamedTuple):
    name: str
    label: str
    passed: bool
    report: MinimalReport
    dim_aut: int
    mismatches: tuple


_ROW_KEYS = {"name", "instances", "beta_norm_sq", "derivation_diag", "dim_aut"}


def load_table2_fixture(path: Optional[str] = None) -> dict:
    """The shipped table, or the fixture file at ``path``, checked for shape.

    Raises ValueError unless the file is an object with a ``rows`` list whose
    rows are objects with a string ``name``, an ``instances`` list,
    ``beta_norm_sq``, ``derivation_diag`` and ``dim_aut``.
    """
    if path is None:
        from importlib import resources

        text = resources.files("orbitforge.data").joinpath("table2.json").read_text()
    else:
        with open(path) as fh:
            text = fh.read()
    fixture = json.loads(text)
    if not isinstance(fixture, dict) or not isinstance(fixture.get("rows"), list):
        raise ValueError("the table must be an object with a 'rows' list")
    for i, row in enumerate(fixture["rows"]):
        if not (isinstance(row, dict) and _ROW_KEYS <= row.keys()
                and isinstance(row["name"], str) and isinstance(row["instances"], list)):
            raise ValueError("row %d must be an object with a string 'name', an "
                             "'instances' list, 'beta_norm_sq', 'derivation_diag' "
                             "and 'dim_aut'" % i)
    return fixture


def bracket_from_fixture_terms(terms) -> LieBracket:
    """A bracket on R^6 from fixture terms: 1-based "i", "j", "k", "sq" and "sign"."""
    items = []
    for t in terms:
        coeff = Coeff.from_square(json_rational(t["sq"]), json_integer(t["sign"]))
        items.append((tuple(json_integer(t[key]) - 1 for key in "ijk"), coeff))
    return LieBracket.from_terms(6, items)


def _verify_instance(row: dict, inst: dict) -> TableRowReport:
    expected_bns = json_rational(row["beta_norm_sq"])
    ref = [json_rational(x) for x in row["derivation_diag"]]
    mu = bracket_from_fixture_terms(inst["terms"])
    mismatches = []
    try:
        validate(mu, two_step=True)
    except ValidationError as exc:
        mismatches.append(("validate", str(exc), "two-step nilpotent"))
    rep = verify_minimal(mu, reference_derivation=ref)
    if not rep.nice:
        mismatches.append(("nice", False, True))
    else:
        if not rep.critical:
            mismatches.append(("critical", rep.mm.diag(), "mcc"))
        if rep.beta_norm_sq != expected_bns:
            mismatches.append(("beta_norm_sq", rep.beta_norm_sq, expected_bns))
        if not rep.is_derivation:
            mismatches.append(("derivation", False, True))
        if rep.multiple is None:
            mismatches.append(("derivation_multiple",
                               rep.derivation.diag() if rep.derivation else None,
                               tuple(ref)))
    expected_dim = inst.get("dim_aut", row["dim_aut"])
    dim_aut = sym_derivation_dim(mu)
    if dim_aut != expected_dim:
        mismatches.append(("dim_aut", dim_aut, expected_dim))
    return TableRowReport(row["name"], inst["label"], not mismatches, rep, dim_aut,
                          tuple(mismatches))


def _row_key(name: str) -> str:
    return name.replace(".", "").replace("(", "").replace(")", "").lower()


def run_table2(path: Optional[str] = None, row: Optional[str] = None):
    """Re-verify the table; returns a list of TableRowReport, one per instance.

    ``row`` restricts the check to the rows whose name contains it, ignoring
    case, dots and parentheses ("18a" selects "18.(a_t)"); other rows are
    not computed, and a ``row`` with nothing else ("", "()") selects none.
    """
    fixture = load_table2_fixture(path)
    rows = fixture["rows"]
    if row is not None:
        key = _row_key(row)
        rows = [r for r in rows if key and key in _row_key(r["name"])]
    return [_verify_instance(r, inst) for r in rows for inst in r["instances"]]
