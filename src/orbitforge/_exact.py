"""Exact linear algebra and linear programming over the rationals.

Everything here works on plain lists of ``fractions.Fraction``; matrices are
lists of rows.  Problem sizes in this package are tiny (dimensions <= 8, at
most a few dozen constraints), so clarity wins over asymptotics.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

Row = list[Fraction]
Matrix = list[Row]


def _as_matrix(rows: Sequence[Sequence]) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]


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
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rank(rows: Sequence[Sequence]) -> int:
    return len(rref(rows)[1])


def solve(rows: Sequence[Sequence], rhs: Sequence) -> Optional[Row]:
    """One exact solution of A x = b, or None if inconsistent."""
    if not rows:
        return []
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    ncols = len(rows[0])
    for row in red:
        if all(x == 0 for x in row[:ncols]) and row[ncols] != 0:
            return None
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        if c == ncols:
            return None
        x[c] = red[r][ncols]
    return x


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


class LPResult:
    """Outcome of an exact LP solve."""

    __slots__ = ("status", "x", "value")

    def __init__(self, status: str, x: Optional[Row] = None, value: Optional[Fraction] = None):
        self.status = status  # "optimal" | "infeasible" | "unbounded"
        self.x = x
        self.value = value


def _pivot(tableau: Matrix, basis: list[int], row: int, col: int) -> None:
    piv = tableau[row][col]
    tableau[row] = [x / piv for x in tableau[row]]
    for i, t in enumerate(tableau):
        if i != row and t[col] != 0:
            f = t[col]
            tableau[i] = [a - f * b for a, b in zip(t, tableau[row])]
    basis[row] = col


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
        _pivot(tableau, basis, best_row, col)


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
    obj = [Fraction(0)] * (n + m) + [Fraction(0)]
    for j in range(n, n + m):
        obj[j] = Fraction(1)
    for i in range(m):  # price out the artificial basis
        obj = [o - t for o, t in zip(obj, tableau[i])]
    tableau.append(obj)
    if _simplex_phase(tableau, basis, n + m) != "optimal" or -tableau[-1][-1] != 0:
        return LPResult("infeasible")
    # Drive any artificial variables out of the basis.
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if tableau[i][j] != 0), None)
            if col is not None:
                _pivot(tableau, basis, i, col)
    keep = [i for i in range(m) if basis[i] < n]
    tableau = [[tableau[i][j] for j in range(n)] + [tableau[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]

    # Phase 2: minimize -c.x.
    obj2 = [-v for v in c] + [Fraction(0)]
    for i, bi in enumerate(basis):
        if obj2[bi] != 0:
            f = obj2[bi]
            obj2 = [o - f * t for o, t in zip(obj2, tableau[i])]
    tableau.append(obj2)
    status = _simplex_phase(tableau, basis, n)
    if status != "optimal":
        return LPResult("unbounded")
    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        x[bi] = tableau[i][-1]
    value = sum((ci * xi for ci, xi in zip(c, x)), Fraction(0))
    return LPResult("optimal", x, value)
