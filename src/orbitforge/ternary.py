"""Strata of ternary forms and the degree-4 classification.

For GL_3(R) acting on R[x,y,z]_d, the candidate critical moment-map values
are the minimum-norm points of the segments between weight pairs whose
difference is not a root (singleton pairs included), each in closed form.
For d = 4 this reproduces the twelve strata of the null cone together with
their exact critical coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from typing import NamedTuple

from .lattice import chamber_canonical, gl_roots
from .nicecrit import CriticalFamily, critical_coefficients
from .ratgeom import PointSet, Vec, segment_min_norm
from .reps import PolyBackend


def _all_weights(n: int, d: int) -> list[Vec]:
    return [PolyBackend(n, d).weight(idx) for idx in PolyBackend(n, d).all_indices()]


def stratifying_set(d: int, n: int = 3) -> list[Vec]:
    """Candidate stratum labels: mcc over non-root-related weight pairs.

    Pairs may degenerate to a single weight, and a pair's mcc is the closed-
    form segment point.  Labels are chamber-canonical (ascending coordinates),
    sorted by norm descending, then lexicographically.  For n = 3 the labels
    are checked against the published degree-4 classification, and for
    d = 4, 5 and 6 against triples: the mcc of every weight triple whose pairs
    are not root-related is already a pair label.
    """
    if d < 1:
        raise ValueError("degree must be at least 1")
    roots = gl_roots(n)
    weights = [tuple(int(x) for x in w) for w in _all_weights(n, d)]  # integer arithmetic
    out = {chamber_canonical(segment_min_norm(a, b))
           for a, b in combinations_with_replacement(weights, 2)
           if a == b or [x - y for x, y in zip(a, b)] not in roots}
    return sorted(out, key=lambda v: (-v.norm_sq(), v))


def omega_weights(beta, d: int) -> PointSet:
    """All weights alpha of R[x..]_d with <alpha, beta> = |beta|^2, n = dim beta."""
    beta = Vec(beta)
    target = beta.norm_sq()
    hits = [w for w in _all_weights(beta.dim, d) if w.dot(beta) == target]
    if not hits:
        raise ValueError("no weight lies on the hyperplane of %r" % (beta,))
    return PointSet(hits)


def _maximal_independent_sets(n: int, edges) -> list[list[int]]:
    """Maximal independent sets of the graph on range(n), each sorted.

    Bron-Kerbosch with pivoting (Bron & Kerbosch 1973) on the complement:
    an independent set here is a clique there.
    """
    adjacent = [set() for _ in range(n)]
    for i, j in edges:
        adjacent[i].add(j)
        adjacent[j].add(i)
    free = [set(range(n)) - adjacent[v] - {v} for v in range(n)]
    out = []

    def expand(chosen, candidates, excluded):
        if not candidates and not excluded:
            out.append(sorted(chosen))
            return
        pivot = max(candidates | excluded, key=lambda u: len(free[u] & candidates))
        for v in sorted(candidates - free[pivot]):
            expand(chosen | {v}, candidates & free[v], excluded & free[v])
            candidates = candidates - {v}
            excluded = excluded | {v}

    expand(set(), set(range(n)), set())
    return out


def maximal_nice_subsets(weights: PointSet):
    """Maximal subsets whose monomial span is nice, as PointSets.

    The weights are those of R[x_1..x_n]_d, n their dimension and d minus the
    sum of any one.  A span of weight spaces is nice exactly when no two of
    its weights differ by a root (``nicecrit.is_nice``), so these are the
    maximal independent sets of the root-difference graph.
    """
    roots = gl_roots(weights.dim)
    edges = [(i, j) for i in range(len(weights)) for j in range(i + 1, len(weights))
             if (weights[i] - weights[j]) in roots]
    return sorted((PointSet([weights[i] for i in indep])
                   for indep in _maximal_independent_sets(len(weights), edges)),
                  key=lambda s: s.points)


class StratumFamily(NamedTuple):
    """Critical solutions supported on one maximal nice subset of Omega(beta)."""

    weights: PointSet
    family: CriticalFamily


class Stratum(NamedTuple):
    beta: Vec
    omega: PointSet
    families: tuple  # of StratumFamily; empty when no critical point exists

    @property
    def empty(self) -> bool:
        return not self.families


# Expected degree-4 classification, in the canonical chamber coordinates
# that classify() itself uses (type entries ascending).  Families are listed
# as (weights-as-positive-exponents, family dimension, coefficient squares).
# The barycentric type and the empty one are handled structurally instead.
TABLE1_EXPECTED: dict = {
    ("0", "0", "4"): [((((4, 0, 0),), 0, ("1/24",)))],
    ("0", "1", "3"): [(((3, 1, 0),), 0, ("1/6",))],
    ("0", "2", "2"): [
        (((0, 4, 0), (2, 2, 0), (4, 0, 0)), 1, ("1/72", "1/12", "1/72")),
        (((0, 4, 0), (3, 1, 0)), 0, ("1/72", "1/9")),
        (((1, 3, 0), (3, 1, 0)), 0, ("1/12", "1/12")),
        (((1, 3, 0), (4, 0, 0)), 0, ("1/9", "1/72")),
    ],
    ("1/3", "4/3", "7/3"): [(((2, 2, 0), (3, 0, 1)), 0, ("1/6", "1/18"))],
    ("1/2", "3/2", "2"): [(((1, 3, 0), (3, 0, 1)), 0, ("1/12", "1/12"))],
    ("8/13", "20/13", "24/13"): [(((0, 4, 0), (3, 0, 1)), 0, ("5/312", "4/39"))],
    ("1", "1", "2"): [
        (((2, 0, 2), (2, 2, 0)), 0, ("1/8", "1/8")),
        (((2, 1, 1),), 0, ("1/2",)),
    ],
    ("5/6", "4/3", "11/6"): [(((1, 3, 0), (2, 1, 1)), 0, ("1/36", "5/12"))],
    ("6/7", "10/7", "12/7"): [(((0, 4, 0), (2, 1, 1)), 0, ("1/168", "3/7"))],
    ("1", "3/2", "3/2"): [
        (((0, 3, 1), (2, 1, 1)), 0, ("1/24", "3/8")),
        (((0, 3, 1), (3, 0, 1)), 0, ("1/12", "1/12")),
        (((1, 2, 1), (3, 0, 1)), 0, ("3/8", "1/24")),
    ],
    ("8/7", "9/7", "11/7"): [(((1, 3, 0), (2, 0, 2)), 0, ("1/14", "1/7"))],
}

_BARYCENTER_TYPE = ("4/3", "4/3", "4/3")
_EMPTY_TYPE = ("1/2", "1/2", "3")


def display_type(beta: Vec) -> tuple:
    """Positive ascending presentation of a stratum label."""
    return tuple(sorted(-x for x in beta))


class Table1RowReport(NamedTuple):
    type: tuple
    passed: bool
    mismatches: tuple
    stratum: Stratum


def _family_key(fam: StratumFamily):
    weights = tuple(tuple(int(-x) for x in w) for w in fam.weights)
    return (weights, fam.family.dimension,
            tuple(str(c) for c in fam.family.coefficient_squares()))


def verify_table1() -> list[Table1RowReport]:
    """Recompute the degree-4 classification and diff it against the table."""
    strata = classify(4)
    found_types = [display_type(s.beta) for s in strata]
    reports = []
    expected_types = (set(TABLE1_EXPECTED) | {_BARYCENTER_TYPE, _EMPTY_TYPE})
    expected_types = {tuple(Fraction(x) for x in t) for t in expected_types}
    if set(found_types) != expected_types:
        raise AssertionError("stratum type sets differ: %r vs %r"
                             % (sorted(found_types), sorted(expected_types)))
    for s in strata:
        t = display_type(s.beta)
        key = tuple(str(x) for x in t)
        mismatches = []
        if key == _EMPTY_TYPE:
            if not s.empty:
                mismatches.append(("emptiness", len(s.families), 0))
        elif key == _BARYCENTER_TYPE:
            even = PointSet([Vec([-a for a in e]) for e in
                             ((4, 0, 0), (0, 4, 0), (0, 0, 4),
                              (2, 2, 0), (2, 0, 2), (0, 2, 2))])
            hit = [f for f in s.families if f.weights.as_set() == even.as_set()]
            if not hit or hit[0].family.dimension != 3:
                mismatches.append(("even_family", hit, "3-parameter"))
        else:
            got = sorted(_family_key(f) for f in s.families)
            want = sorted((tuple(w), dim, tuple(c))
                          for (w, dim, c) in TABLE1_EXPECTED[key])
            if got != want:
                mismatches.append(("families", got, want))
        reports.append(Table1RowReport(t, not mismatches, tuple(mismatches), s))
    return reports


def classify(d: int = 4) -> list[Stratum]:
    """Stratum-by-stratum critical coefficients for ternary forms R[x,y,z]_d.

    Covers the stratifying set plus, for d = 4, the excluded label
    (-3,-1/2,-1/2) whose candidate pair is root-related; its report is the
    emptiness statement.
    """
    backend = PolyBackend(3, d)
    labels = list(stratifying_set(d))
    if d == 4:
        labels.append(chamber_canonical(Vec([-3, Fraction(-1, 2), Fraction(-1, 2)])))
    out = []
    for beta in labels:
        omega = omega_weights(beta, d)
        families = []
        for subset in maximal_nice_subsets(omega):
            norms = [backend.basis_norm_sq(tuple(int(-x) for x in w)) for w in subset]
            fam = critical_coefficients(subset, norms, beta)
            if fam is not None:
                families.append(StratumFamily(subset, fam))
        out.append(Stratum(beta, omega, tuple(families)))
    return out
