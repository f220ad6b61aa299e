"""Exact rational convex geometry on finite point sets.

Provides the minimum-norm point of a convex hull (``mcc``) and hull
membership and relative-interior certificates, all over exact rationals.
Point sets here are tiny (at most the 15 weights of a ternary quartic), so we
enumerate faces exhaustively instead of running an iterative solver; every
answer is exact and comes with a certificate.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterable, Optional, Sequence

from . import _exact


class Vec(tuple):
    """Immutable exact rational vector."""

    def __new__(cls, entries: Iterable):
        return super().__new__(cls, (Fraction(e) for e in entries))

    def __add__(self, other):
        return Vec(a + b for a, b in zip(self, other, strict=True))

    def __sub__(self, other):
        return Vec(a - b for a, b in zip(self, other, strict=True))

    def __neg__(self):
        return Vec(-a for a in self)

    def __mul__(self, scalar):
        s = Fraction(scalar)
        return Vec(a * s for a in self)

    __rmul__ = __mul__

    def dot(self, other) -> Fraction:
        return sum((a * b for a, b in zip(self, other, strict=True)), Fraction(0))

    def norm_sq(self) -> Fraction:
        return self.dot(self)

    @property
    def dim(self) -> int:
        return len(self)

    def __repr__(self):
        return "Vec(%s)" % ", ".join(str(e) for e in self)


def zero_vec(dim: int) -> Vec:
    return Vec([0] * dim)


class PointSet:
    """Ordered set of distinct equal-dimension rational points.

    Order matters: it indexes Gram-matrix rows and coefficient certificates.
    Duplicates are rejected rather than silently merged.
    """

    def __init__(self, points: Iterable):
        pts = tuple(Vec(p) for p in points)
        if not pts:
            raise ValueError("PointSet must be nonempty")
        dim = pts[0].dim
        if any(p.dim != dim for p in pts):
            raise ValueError("points have mixed dimensions")
        if len(set(pts)) != len(pts):
            raise ValueError("duplicate points are not allowed")
        self.points = pts
        self.dim = dim

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, i):
        return self.points[i]

    def __eq__(self, other):
        return isinstance(other, PointSet) and self.points == other.points

    def __hash__(self):
        return hash(self.points)

    def __repr__(self):
        return "PointSet(%r)" % (self.points,)

    def as_set(self) -> frozenset:
        return frozenset(self.points)


def _min_norm_in_affine_hull(points: Sequence[Vec]) -> Optional[tuple[Vec, list[Fraction]]]:
    """Minimum-norm point of aff(points), or None for affinely dependent points.

    Returns (point, barycentric coefficients); coefficients may be negative.
    One elimination decides both: the k x k system below is nonsingular
    exactly when the points are affinely independent.  A kernel vector mu has
    sum 0, so sum mu_i q_i lies in the span of the differences q_j - q_0 and
    is orthogonal to it, hence is 0, which forces mu = 0 on independent points.
    """
    k = len(points)
    # Unknowns: barycentric coefficients.  Conditions: sum = 1 and the point
    # is orthogonal to every direction of the affine hull.
    p0 = points[0]
    rows = [[Fraction(1)] * k + [Fraction(1)]]
    for p in points[1:]:
        d = p - p0
        rows.append([q.dot(d) for q in points] + [Fraction(0)])
    red, pivots = _exact.rref(rows)
    if pivots != list(range(k)):
        return None
    lam = [row[k] for row in red]
    x = zero_vec(p0.dim)
    for c, p in zip(lam, points):
        x = x + c * p
    return x, lam


def _candidate_subsets(s: PointSet):
    max_size = min(len(s), s.dim + 1)
    for size in range(1, max_size + 1):
        yield from combinations(s.points, size)


def mcc(s: PointSet) -> Vec:
    """Minimum-norm point of the convex hull of ``s``, exactly.

    Enumerates affinely independent subsets; the unique minimizer is the
    subset minimizer that has nonnegative barycentric coordinates and passes
    the global variational inequality <x, p - x> >= 0 for every p in s.
    """
    for subset in _candidate_subsets(s):
        sol = _min_norm_in_affine_hull(subset)
        if sol is None:
            continue
        x, lam = sol
        if any(c < 0 for c in lam):
            continue
        xx = x.norm_sq()
        if all(x.dot(p) >= xx for p in s):
            return x
    raise RuntimeError("mcc: no optimal face found (cannot happen)")


def segment_min_norm(a, b) -> Vec:
    """mcc of {a, b} in closed form: a + clamp(-<a, b-a>/|b-a|^2, 0, 1) (b-a)."""
    step = [y - x for x, y in zip(a, b, strict=True)]
    length_sq = sum(x * x for x in step)
    if not length_sq:
        return Vec(a)
    t = Fraction(min(max(-sum(x * y for x, y in zip(a, step)), 0), length_sq), length_sq)
    return Vec(x + t * y for x, y in zip(a, step))


def _barycentric_system(s: PointSet, p) -> tuple[list, list]:
    """Rows and right-hand side of sum c_i = 1 and sum c_i s_i = p.

    The first row is [1, ..., 1], then one row per coordinate.
    """
    p = Vec(p)
    if p.dim != s.dim:
        raise ValueError("dimension mismatch")
    rows = [[Fraction(1)] * len(s)] + [[q[coord] for q in s] for coord in range(s.dim)]
    return rows, [Fraction(1), *p]


def barycentric(s: PointSet, p) -> Optional[list[Fraction]]:
    """Nonnegative coefficients summing to 1 with sum c_i s_i = p, or None.

    The one exact hull LP:  max t  s.t.  c_i - t - slack_i = 0, sum c = 1,
    sum c_i s_i = p, all variables >= 0.  It is feasible exactly when p is in
    CH(s); its optimum has t* >= 0 and c_i = t* + slack_i >= 0, and t* > 0
    exactly when p is in relint(CH(s)), where every c_i > 0.  So c is
    strictly positive whenever it can be.
    """
    rows, b_eq = _barycentric_system(s, p)
    n = len(s)
    # Variables c_1..c_n, t, slack_1..slack_n; one row c_i - t - slack_i = 0 per i.
    unit = [[int(i == j) for j in range(n)] for i in range(n)]
    a_eq = [row + [0] * (n + 1) for row in rows] + [e + [-1] + [-x for x in e] for e in unit]
    res = _exact.simplex_max([0] * n + [1] + [0] * n, a_eq, b_eq + [0] * n)
    return res.x[:n] if res.status == "optimal" else None


def interior_certificate(s: PointSet, p) -> Optional[list[Fraction]]:
    """Strictly positive barycentric certificate for p in relint(CH(s)), or None.

    ``barycentric``'s c is strictly positive exactly then: a feasible c > 0
    makes t = min c_i > 0 feasible, so t* > 0, and t* > 0 gives c_i >= t*.
    """
    c = barycentric(s, p)
    return c if c is not None and all(ci > 0 for ci in c) else None
