"""Independent checks of orbitforge's outputs.

Every checker takes plain data (Fractions, tuples, floats, parsed JSON) and
raises ``CheckError`` on the first violated property.  The facts checked are
either transcribed from the paper (Table 1, the printed Table 2 values) or
recomputed here without orbitforge: closed-form minimum-norm points of
segments, a Bron-Kerbosch enumeration, exact Fraction identities, numpy
moment maps and SVD ranks, and scipy linear programs.  Nothing is compared
against a saved copy of orbitforge's own output.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, isclose

F = Fraction


class CheckError(AssertionError):
    pass


def require(cond, message, *args) -> None:
    if not cond:
        raise CheckError(message % args if args else message)


# ---------------------------------------------------------------- Table 1 --
# The paper's Table 1: stratum types of ternary quartics in positive
# ascending presentation, with every critical family as (monomial exponents,
# family dimension, squared coefficients).  The barycentric type carries the
# 3-parameter family on the six even monomials; (1/2, 1/2, 3) is the type
# whose stratum contains no critical point.
EVEN_QUARTICS = ((4, 0, 0), (0, 4, 0), (0, 0, 4), (2, 2, 0), (2, 0, 2), (0, 2, 2))
BARYCENTER_TYPE = (F(4, 3), F(4, 3), F(4, 3))
EMPTY_TYPE = (F(1, 2), F(1, 2), F(3))
TABLE1 = {
    (0, 0, 4): [(((4, 0, 0),), 0, ("1/24",))],
    (0, 1, 3): [(((3, 1, 0),), 0, ("1/6",))],
    (0, 2, 2): [
        (((0, 4, 0), (2, 2, 0), (4, 0, 0)), 1, ("1/72", "1/12", "1/72")),
        (((0, 4, 0), (3, 1, 0)), 0, ("1/72", "1/9")),
        (((1, 3, 0), (3, 1, 0)), 0, ("1/12", "1/12")),
        (((1, 3, 0), (4, 0, 0)), 0, ("1/9", "1/72")),
    ],
    (F(1, 3), F(4, 3), F(7, 3)): [(((2, 2, 0), (3, 0, 1)), 0, ("1/6", "1/18"))],
    (F(1, 2), F(3, 2), 2): [(((1, 3, 0), (3, 0, 1)), 0, ("1/12", "1/12"))],
    (F(8, 13), F(20, 13), F(24, 13)): [(((0, 4, 0), (3, 0, 1)), 0, ("5/312", "4/39"))],
    (1, 1, 2): [
        (((2, 0, 2), (2, 2, 0)), 0, ("1/8", "1/8")),
        (((2, 1, 1),), 0, ("1/2",)),
    ],
    (F(5, 6), F(4, 3), F(11, 6)): [(((1, 3, 0), (2, 1, 1)), 0, ("1/36", "5/12"))],
    (F(6, 7), F(10, 7), F(12, 7)): [(((0, 4, 0), (2, 1, 1)), 0, ("1/168", "3/7"))],
    (1, F(3, 2), F(3, 2)): [
        (((0, 3, 1), (2, 1, 1)), 0, ("1/24", "3/8")),
        (((0, 3, 1), (3, 0, 1)), 0, ("1/12", "1/12")),
        (((1, 2, 1), (3, 0, 1)), 0, ("3/8", "1/24")),
    ],
    (F(8, 7), F(9, 7), F(11, 7)): [(((1, 3, 0), (2, 0, 2)), 0, ("1/14", "1/7"))],
}
# The label classify(4) adds although its weight pair is root-related.
EXCLUDED_QUARTIC_LABEL = (F(-3), F(-1, 2), F(-1, 2))


# ------------------------------------------------------------- geometry ----
def dot(a, b):
    return sum((x * y for x, y in zip(a, b, strict=True)), F(0))


def combination(coeffs, points):
    dim = len(points[0])
    return tuple(sum((c * p[i] for c, p in zip(coeffs, points, strict=True)), F(0))
                 for i in range(dim))


def form_weights(d: int, n: int = 3) -> list:
    """Weights -(exponents) of all degree-d monomials in n variables."""
    def rec(left, slots):
        if slots == 1:
            return [(left,)]
        return [(e,) + rest for e in range(left + 1) for rest in rec(left - e, slots - 1)]
    return [tuple(F(-e) for e in exps) for exps in rec(d, n)]


def gl_root(v) -> bool:
    """True iff v = e_a - e_b for some a != b."""
    nz = [x for x in v if x != 0]
    return sorted(nz) == [-1, 1]


def sp_root(v) -> bool:
    """True iff v is a root of sp(2m) on its antidiagonal diagonal patterns.

    Roots are +-2 eps_i and +-eps_i +- eps_j (i < j), where eps_i is the
    pattern with 1/2 at i and -1/2 at 2m - 1 - i.
    """
    n = len(v)
    m = n // 2
    if any(v[i] != -v[n - 1 - i] for i in range(m)):
        return False
    half = [2 * v[i] for i in range(m)]       # coordinates in the eps basis
    nz = sorted(abs(x) for x in half if x != 0)
    return nz == [2] or nz == [1, 1]


def sp_project(w) -> tuple:
    n = len(w)
    half = [(w[i] - w[n - 1 - i]) / 2 for i in range(n // 2)]
    return tuple(half + [-h for h in reversed(half)])


def segment_min_norm(a, b) -> tuple:
    """Closed-form minimum-norm point of the segment [a, b]."""
    if a == b:
        return tuple(a)
    d = tuple(x - y for x, y in zip(a, b))
    t = min(max(dot(a, d) / dot(d, d), F(0)), F(1))
    return tuple(x + t * (y - x) for x, y in zip(a, b))


def stratum_labels(d: int) -> set:
    """Chamber-canonical mcc of every non-root-related pair of weights."""
    ws = form_weights(d)
    out = set()
    for i, a in enumerate(ws):
        for b in ws[i:]:
            if a != b and gl_root(tuple(x - y for x, y in zip(a, b))):
                continue
            out.add(tuple(sorted(segment_min_norm(a, b))))
    return out


def maximal_independent_sets(points, is_root) -> list:
    """Bron-Kerbosch with pivoting on the 'difference is not a root' graph."""
    n = len(points)
    friends = [{j for j in range(n) if j != i and
                not is_root(tuple(x - y for x, y in zip(points[i], points[j])))}
               for i in range(n)]
    out = []

    def expand(r, p, x):
        if not p and not x:
            out.append(frozenset(r))
            return
        pivot = max(p | x, key=lambda u: len(friends[u] & p))
        for v in list(p - friends[pivot]):
            expand(r | {v}, p & friends[v], x & friends[v])
            p = p - {v}
            x = x | {v}

    expand(set(), set(range(n)), set())
    return [frozenset(points[i] for i in s) for s in out]


def _float_rows(rows):
    import numpy as np
    return np.array([[float(x) for x in row] for row in rows], dtype=float)


def in_hull_lp(points, target) -> bool:
    """scipy feasibility LP: is target a convex combination of points?"""
    from scipy.optimize import linprog
    a_eq = _float_rows([[1] * len(points)] + [[p[i] for p in points]
                                                for i in range(len(target))])
    b_eq = [1.0] + [float(t) for t in target]
    res = linprog([0.0] * len(points), A_eq=a_eq, b_eq=b_eq,
                  bounds=[(0, None)] * len(points), method="highs")
    require(res.status in (0, 2), "hull LP did not terminate: %s", res.message)
    return res.status == 0


def max_min_weight(points, target) -> float:
    """scipy LP: max t over c_i >= t, sum c = 1, sum c_i p_i = target."""
    from scipy.optimize import linprog
    k = len(points)
    a_eq = _float_rows([[1] * k + [0]] + [[p[i] for p in points] + [0]
                                          for i in range(len(target))])
    b_eq = [1.0] + [float(t) for t in target]
    a_ub = [[-1.0 if j == i else 0.0 for j in range(k)] + [1.0] for i in range(k)]
    res = linprog([0.0] * k + [-1.0], A_ub=a_ub, b_ub=[0.0] * k, A_eq=a_eq, b_eq=b_eq,
                  bounds=[(None, None)] * (k + 1), method="highs")
    require(res.status == 0, "max-min LP failed: %s", res.message)
    return -res.fun


def matrix_rank(rows) -> int:
    import numpy as np
    return int(np.linalg.matrix_rank(_float_rows(rows))) if rows else 0


# ------------------------------------------------------- ternary-classify --
def check_family(beta, weights, particular, kernel, coefficient_squares):
    """Critical masses on one subset: exact barycentric identities."""
    weights = [tuple(w) for w in weights]
    require(len(particular) == len(weights), "one mass per weight")
    require(all(c >= 0 for c in particular), "negative mass in %r", particular)
    require(sum(particular) == 1, "masses sum to %s", sum(particular))
    require(combination(particular, weights) == tuple(beta),
            "masses do not reproduce beta %r", beta)
    rows = [[1] * len(weights)] + [[w[i] for w in weights] for i in range(len(beta))]
    require(len(kernel) == len(weights) - matrix_rank(rows),
            "kernel dimension %d, expected |S| - rank = %d",
            len(kernel), len(weights) - matrix_rank(rows))
    for k in kernel:
        require(sum(k) == 0 and all(x == 0 for x in combination(k, weights)),
                "kernel vector %r is not in the kernel", k)
    require(matrix_rank([list(k) for k in kernel]) == len(kernel),
            "kernel vectors are dependent")
    norms = [F(_prod_factorials(w)) for w in weights]
    require(tuple(coefficient_squares) == tuple(c / n for c, n in zip(particular, norms)),
            "coefficient squares are not masses / basis norms")


def _prod_factorials(weight) -> int:
    out = 1
    for x in weight:
        out *= factorial(int(-x))
    return out


def check_stratum(d: int, stratum: dict) -> None:
    """One stratum of classify(d): omega, subsets, families."""
    beta = tuple(stratum["beta"])
    bb = dot(beta, beta)
    omega = [tuple(w) for w in stratum["omega"]]
    for w in omega:
        require(dot(w, beta) == bb, "omega weight %r off the hyperplane", w)
    require(set(omega) == {w for w in form_weights(d) if dot(w, beta) == bb},
            "omega(%r) is incomplete", beta)
    subsets = maximal_independent_sets(omega, gl_root)
    with_family = set()
    for fam in stratum["families"]:
        s = frozenset(tuple(w) for w in fam["weights"])
        require(s in subsets, "family subset %r is not a maximal nice subset", sorted(s))
        with_family.add(s)
        check_family(beta, fam["weights"], fam["particular"], fam["kernel"],
                     fam["coefficient_squares"])
    for s in subsets:
        if s not in with_family:
            require(not in_hull_lp(sorted(s), beta),
                    "beta %r lies in the hull of subset %r, which has no family",
                    beta, sorted(s))


def check_labels(d: int, strata: list) -> None:
    """Stratum label set, and for d = 4 the paper's Table 1."""
    labels = {tuple(s["beta"]) for s in strata}
    expected = stratum_labels(d)
    if d == 4:
        expected = expected | {tuple(sorted(EXCLUDED_QUARTIC_LABEL))}
    require(labels == expected and len(labels) == len(strata),
            "stratum labels differ from the pair mcc labels")
    if d == 4:
        check_table1(strata)


def check_table1(strata: list) -> None:
    by_type = {tuple(sorted(-x for x in s["beta"])): s for s in strata}
    types = set(TABLE1) | {BARYCENTER_TYPE, EMPTY_TYPE}
    require(set(by_type) == {tuple(F(x) for x in t) for t in types},
            "quartic stratum types differ from Table 1")
    require(len(by_type) - 1 == 12, "Table 1 has twelve nonempty types")
    require(not by_type[EMPTY_TYPE]["families"], "type (1/2,1/2,3) must be empty")
    even = frozenset(tuple(F(-e) for e in w) for w in EVEN_QUARTICS)
    bary = [f for f in by_type[BARYCENTER_TYPE]["families"]
            if frozenset(tuple(w) for w in f["weights"]) == even]
    require(len(bary) == 1 and len(bary[0]["kernel"]) == 3,
            "the barycentric type needs the 3-parameter even family")
    for t, rows in TABLE1.items():
        s = by_type[tuple(F(x) for x in t)]
        got = sorted((tuple(tuple(int(-x) for x in w) for w in f["weights"]),
                      len(f["kernel"]), tuple(f["coefficient_squares"]))
                     for f in s["families"])
        want = sorted((w, dim, tuple(F(c) for c in sq)) for w, dim, sq in rows)
        require(got == want, "Table 1 row %r: got %r", t, got)


# ---------------------------------------------------------------- numpy ----
def structure_tensor(terms, n: int = 6):
    """C[i, j, k] = <mu(e_i, e_j), e_k> from (i, j, k, coeff) terms, 0-based."""
    import numpy as np
    c = np.zeros((n, n, n))
    for i, j, k, x in terms:
        c[i, j, k] += float(x)
        c[j, i, k] -= float(x)
    return c


def antidiagonal_j(n: int):
    import numpy as np
    j = np.zeros((n, n))
    for i in range(n // 2):
        j[i, n - 1 - i] = 1.0
        j[n - 1 - i, i] = -1.0
    return j


def moment_map_sp(terms, n: int = 6):
    """mm_sp(mu) = sym-sp part of 4 Ric / |mu|^2, in numpy (Lauret's identity)."""
    import numpy as np
    c = structure_tensor(terms, n)
    ric = -0.5 * np.einsum("aik,bik->ab", c, c) + 0.25 * np.einsum("ija,ijb->ab", c, c)
    mm = 4.0 * ric / np.sum(c * c)
    j = antidiagonal_j(n)
    return 0.5 * (mm - j.T @ mm @ j)


def sp_derivation_dim(terms, n: int = 6, tol: float = 1e-9) -> int:
    """dim(Der(mu) intersected with sp(n)) from the SVD rank of the system."""
    import numpy as np
    c = structure_tensor(terms, n)
    eye = np.eye(n)
    # (A.mu)(e_p, e_q)_k = A_kt C_pqt - A_ap C_aqk - A_aq C_pak, linear in A_xy.
    der = (np.einsum("kx,pqy->pqkxy", eye, c)
           - np.einsum("py,xqk->pqkxy", eye, c)
           - np.einsum("qy,pxk->pqkxy", eye, c)).reshape(n ** 3, n * n)
    j = antidiagonal_j(n)
    # (A^T J + J A)_ab = A_xa J_xb + J_ax A_xb.
    sp = (np.einsum("ya,xb->abxy", eye, j) + np.einsum("ax,yb->abxy", j, eye)
          ).reshape(n * n, n * n)
    sv = np.linalg.svd(np.vstack([der, sp]), compute_uv=False)
    return n * n - int(np.sum(sv > tol * sv[0]))


# ------------------------------------------------------------------ Table 2 --
def check_table2_instance(row: dict, inst: dict, report: dict) -> None:
    """One run_table2 report against the printed row and a numpy recomputation."""
    import numpy as np
    from math import sqrt
    terms = [(t["i"] - 1, t["j"] - 1, t["k"] - 1, t["sign"] * sqrt(F(t["sq"])))
             for t in inst["terms"]]
    mm = moment_map_sp(terms)
    n = mm.shape[0]
    require(np.abs(mm - np.diag(mm.diagonal())).max() <= 1e-9,
            "%s: mm_sp is not diagonal", inst["label"])
    beta = mm.diagonal()
    bns = float(beta @ beta)
    printed = F(row["beta_norm_sq"])
    require(isclose(bns, float(printed), rel_tol=1e-9),
            "%s: numpy |beta|^2 %r, printed %s", inst["label"], bns, printed)
    require(report["beta_norm_sq"] == printed,
            "%s: reported |beta|^2 %s, printed %s", inst["label"],
            report["beta_norm_sq"], printed)
    der = beta + bns
    for i, j, k, _ in terms:
        require(abs(der[k] - der[i] - der[j]) <= 1e-9,
                "%s: D is not a derivation", inst["label"])
    ref = [float(F(x)) for x in row["derivation_diag"]]
    ratio = max(der) / max(ref)
    require(ratio > 0 and all(abs(a - ratio * b) <= 1e-9 for a, b in zip(der, ref)),
            "%s: D is not a positive multiple of the printed diagonal", inst["label"])
    got = [float(x) for x in report["derivation_diag"]]
    require(all(abs(a - b) <= 1e-9 for a, b in zip(got, der)),
            "%s: reported D %r, numpy %r", inst["label"], got, list(der))
    require(report["multiple"] is not None and report["multiple"] > 0,
            "%s: no positive derivation multiple", inst["label"])
    expected_dim = inst.get("dim_aut", row["dim_aut"])
    dim = sp_derivation_dim(terms, n)
    require(dim == expected_dim == report["dim_aut"],
            "%s: dim(Der cap sp) numpy %d, printed %d, reported %r",
            inst["label"], dim, expected_dim, report["dim_aut"])
    require(report["passed"], "%s: run_table2 failed a row the numpy check passes",
            inst["label"])


# ------------------------------------------------------------ orbit-stream --
def support_weights(kind: str, terms) -> set:
    """The support weights of a question, from its input terms.

    A "form" has exponent tuples, weight -(exponents); a "gl6" or "sp6"
    bracket has 0-based (i, j, k) triples, weight e_k - e_i - e_j, projected
    to the sp diagonal for "sp6".
    """
    if kind == "form":
        return {tuple(F(-e) for e in t) for t in terms}
    out = set()
    for i, j, k in terms:
        w = [F(0)] * 6
        w[k] += 1
        w[i] -= 1
        w[j] -= 1
        out.add(sp_project(w) if kind == "sp6" else tuple(w))
    return out


def check_verdict(weights, group: str, verdict: dict, support=None,
                  exponents=None) -> None:
    """A distinguished / not_nice / not_distinguished verdict on a support.

    ``weights`` are the support weights in the order orbitforge used (the
    certificate's order); ``support`` is the same set computed from the
    input.  ``exponents`` are the monomials of a ternary form, which enables
    the generator-image check of a not_nice witness.
    """
    weights = [tuple(w) for w in weights]
    require(support is None or set(weights) == set(support),
            "support weights differ from the input's")
    is_root = sp_root if group == "sp" else gl_root
    outcome = verdict["outcome"]
    if outcome == "not_nice":
        w = verdict["witness"]
        ai, aj, root = tuple(w["alpha_i"]), tuple(w["alpha_j"]), tuple(w["root"])
        require(ai in weights and aj in weights, "witness weights not in the support")
        require(tuple(y - x for x, y in zip(ai, aj)) == root and is_root(root),
                "witness weights do not differ by a root")
        if exponents is not None:
            # E_ab with e_a - e_b = root maps the monomial of weight alpha_i to
            # -idx[a] times the monomial of weight alpha_j.
            a, b = root.index(1), root.index(-1)
            idx = next(e for e in exponents if tuple(F(-x) for x in e) == ai)
            require(idx[a] > 0, "generator image of the witness is zero")
        return
    beta = tuple(verdict["beta"])
    bb = dot(beta, beta)
    require(all(dot(beta, w) >= bb for w in weights), "beta fails <beta,alpha> >= |beta|^2")
    require(in_hull_lp(weights, beta), "beta is outside the hull of the support")
    if outcome == "distinguished":
        cert = verdict["certificate"]
        require(len(cert) == len(weights) and all(c > 0 for c in cert),
                "certificate is not strictly positive")
        require(sum(cert) == 1, "certificate sums to %s", sum(cert))
        require(combination(cert, weights) == beta, "certificate misses beta")
    elif outcome == "not_distinguished":
        require(max_min_weight(weights, beta) <= 1e-9,
                "a strictly positive representation of beta exists")
    else:
        raise CheckError("unknown outcome %r" % outcome)


def check_critical_bracket(terms, beta, residual) -> None:
    """A minimal-metric bracket: numpy mm_sp equals diag(beta)."""
    import numpy as np
    mm = moment_map_sp(terms)
    want = np.diag([float(b) for b in beta])
    require(residual <= 1e-12, "Newton residual %r above 1e-12", residual)
    require(float(np.abs(mm - want).max()) <= 1e-9,
            "mm_sp of the critical bracket is not diag(beta)")


# ---------------------------------------------------------------- cli-cold --
WORKED_BETA = (F(-1, 2), F(-1, 2), F(0), F(0), F(1, 2), F(1, 2))


def fracs(strs) -> tuple:
    return tuple(F(s) for s in strs)


def check_cli(name: str, payload: dict, context: dict) -> None:
    """The JSON one CLI call printed; ``context`` holds the call's input."""
    if name == "strata":
        labels = {fracs(s["beta"]) for s in payload["strata"]}
        require(payload["count"] == 12 == len(payload["strata"]), "strata: not 12 labels")
        require(labels == stratum_labels(4), "strata: labels differ from the pair mcc")
    elif name == "check-form":
        check_verdict(context["weights"], "gl", _cli_verdict(payload),
                      exponents=context["exponents"])
    elif name == "check-sp":
        require(payload["outcome"] == "distinguished", "worked bracket not distinguished")
        require(fracs(payload["beta"]) == WORKED_BETA, "worked bracket: wrong beta")
        check_verdict(context["weights"], "sp", _cli_verdict(payload))
    elif name == "minimize":
        require(payload["outcome"] == "distinguished", "minimize: not distinguished")
        require(fracs(payload["beta"]) == WORKED_BETA, "minimize: wrong beta")
        require(F(payload["beta_norm_sq"]) == 1, "minimize: |beta|^2 is not 1")
        from math import sqrt
        terms = [(t["i"] - 1, t["j"] - 1, t["k"] - 1,
                  t["coeff"]["sign"] * sqrt(F(t["coeff"]["sq"])))
                 for t in payload["critical_bracket"]]
        check_critical_bracket(terms, WORKED_BETA, float(payload["residual"]))
    elif name == "table2-row":
        rows = payload["rows"]
        require(payload["passed"] and len(rows) == 1 and rows[0]["row"] == "16.(a)",
                "table2 --row 16a: wrong rows")
        r = rows[0]
        require(F(r["beta_norm_sq"]) == 1, "table2 --row 16a: |beta|^2 is not 1")
        multiple = r["derivation_multiple"]
        check_table2_instance(context["row"], context["inst"], {
            "passed": r["passed"], "beta_norm_sq": F(r["beta_norm_sq"]),
            "derivation_diag": fracs(r["derivation"]),
            "multiple": F(multiple) if multiple is not None else None,
            "dim_aut": r["dim_aut"]})
    else:
        raise CheckError("unknown CLI call %r" % name)


def _cli_verdict(payload: dict) -> dict:
    w = payload["witness"]
    return {
        "outcome": payload["outcome"],
        "beta": fracs(payload["beta"]) if payload["beta"] is not None else None,
        "certificate": fracs(payload["certificate"]) if payload["certificate"] else None,
        "witness": None if w is None else {k: fracs(v) for k, v in w.items()},
    }
