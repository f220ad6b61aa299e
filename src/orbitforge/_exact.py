"""Exact linear algebra and linear programming over the rationals.

Everything here works on plain lists of ``fractions.Fraction``; matrices are
lists of rows.  Problem sizes in this package are tiny (dimensions <= 8, at
most a few dozen constraints), so clarity wins over asymptotics.

One Gauss-Jordan step, ``_pivot``, does every elimination: ``rref`` and both
simplex phases, whose objective rows one helper, ``_reduced_costs``, prices.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

Row = list[Fraction]
Matrix = list[Row]


def _as_matrix(rows: Sequence[Sequence]) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]


def _pivot(m: Matrix, row: int, col: int) -> None:
    """Scale ``row`` so that m[row][col] = 1, then clear ``col`` from every other row."""
    piv = m[row][col]
    m[row] = [x / piv for x in m[row]]
    for i, t in enumerate(m):
        if i != row and t[col] != 0:
            f = t[col]
            m[i] = [a - f * b for a, b in zip(t, m[row])]


def rref(rows: Sequence[Sequence]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (rref_matrix, pivot_columns)."""
    m = _as_matrix(rows)
    if not m:
        return m, []
    nrows, ncols = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        _pivot(m, r, c)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rank(rows: Sequence[Sequence]) -> int:
    return len(rref(rows)[1])


def nullspace(rows: Sequence[Sequence]) -> list[Row]:
    """Basis of the kernel of A as a list of vectors."""
    if not rows:
        return []
    red, pivots = rref(rows)
    n = len(rows[0])
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        basis.append(v)
    return basis


class LPResult(NamedTuple):
    """Outcome of an exact LP solve."""

    status: str  # "optimal" | "infeasible" | "unbounded"
    x: Optional[Row] = None


def _reduced_costs(cost: Row, tableau: Matrix, basis: list[int]) -> Row:
    """Objective row of min cost.x priced out on the canonical rows ``tableau``.

    It is zero on every basic column and ends with minus the basic solution's value.
    """
    obj = cost + [Fraction(0)]
    for row, b in zip(tableau, basis):
        f = obj[b]
        if f != 0:
            obj = [o - f * t for o, t in zip(obj, row)]
    return obj


def _simplex_phase(tableau: Matrix, basis: list[int], ncols: int) -> str:
    # Bland's rule; objective row is tableau[-1] (minimize, reduced costs).
    while True:
        obj = tableau[-1]
        col = next((j for j in range(ncols) if obj[j] < 0), None)
        if col is None:
            return "optimal"
        best_row, best_ratio = None, None
        for i in range(len(tableau) - 1):
            a = tableau[i][col]
            if a > 0:
                ratio = tableau[i][-1] / a
                if (best_ratio is None or ratio < best_ratio
                        or (ratio == best_ratio and basis[i] < basis[best_row])):
                    best_row, best_ratio = i, ratio
        if best_row is None:
            return "unbounded"
        _pivot(tableau, best_row, col)
        basis[best_row] = col


def simplex_max(objective: Sequence, a_eq: Sequence[Sequence], b_eq: Sequence) -> LPResult:
    """Maximize c.x subject to A x = b, x >= 0, with exact rationals.

    Two-phase simplex with Bland's anti-cycling rule.
    """
    c = [Fraction(v) for v in objective]
    a = _as_matrix(a_eq)
    b = [Fraction(v) for v in b_eq]
    n = len(c)
    m = len(a)
    # Normalize rhs to be nonnegative.
    for i in range(m):
        if b[i] < 0:
            a[i] = [-x for x in a[i]]
            b[i] = -b[i]

    # Phase 1: artificial variables, minimize their sum.
    tableau = [a[i] + [Fraction(1 if j == i else 0) for j in range(m)] + [b[i]]
               for i in range(m)]
    basis = [n + i for i in range(m)]
    tableau.append(_reduced_costs([Fraction(0)] * n + [Fraction(1)] * m, tableau, basis))
    if _simplex_phase(tableau, basis, n + m) != "optimal" or -tableau[-1][-1] != 0:
        return LPResult("infeasible")
    # Drive any artificial variables out of the basis.
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if tableau[i][j] != 0), None)
            if col is not None:
                _pivot(tableau, i, col)
                basis[i] = col
    keep = [i for i in range(m) if basis[i] < n]
    tableau = [[tableau[i][j] for j in range(n)] + [tableau[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]

    # Phase 2: minimize -c.x.
    tableau.append(_reduced_costs([-v for v in c], tableau, basis))
    status = _simplex_phase(tableau, basis, n)
    if status != "optimal":
        return LPResult("unbounded")
    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        x[bi] = tableau[i][-1]
    return LPResult("optimal", x)
