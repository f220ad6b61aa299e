"""Exact convex geometry: oracle comparisons and hand-checked instances."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbitforge.ratgeom import (PointSet, Vec, barycentric, interior_certificate,
                                mcc, segment_min_norm, zero_vec)

from oracles import solve


def _oracle_mcc(s: PointSet) -> Vec:
    """Independent minimum-norm point: scan every subset, keep the best.

    For each subset, solve the normal equations of the least-norm point of its
    affine hull; candidates with nonnegative barycentric coordinates are
    feasible, and the overall minimum norm among feasible candidates is the
    answer (every face of the hull shows up as some subset).
    """
    best = None
    for size in range(1, len(s) + 1):
        for subset in combinations(s.points, size):
            k = len(subset)
            rows = [[Fraction(1)] * k]
            rhs = [Fraction(1)]
            for p in subset[1:]:
                d = p - subset[0]
                rows.append([q.dot(d) for q in subset])
                rhs.append(Fraction(0))
            lam = solve(rows, rhs)
            if lam is None or any(c < 0 for c in lam):
                continue
            x = zero_vec(s.dim)
            for c, p in zip(lam, subset):
                x = x + c * p
            if best is None or x.norm_sq() < best.norm_sq():
                best = x
    assert best is not None
    return best


def _random_point(rng, dim):
    return Vec([Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(dim)])


def _random_point_set(rng):
    dim = rng.randint(1, 4)
    npts = rng.randint(1, 6)
    pts = []
    while len(pts) < npts:
        p = _random_point(rng, dim)
        if p not in pts:
            pts.append(p)
    return PointSet(pts)


def test_mcc_against_subset_oracle():
    rng = random.Random(20260823)
    for _ in range(220):
        s = _random_point_set(rng)
        assert mcc(s) == _oracle_mcc(s)


def test_mcc_variational_inequality():
    rng = random.Random(7)
    for _ in range(100):
        s = _random_point_set(rng)
        x = mcc(s)
        xx = x.norm_sq()
        assert all(x.dot(p) >= xx for p in s)
        assert barycentric(s, x) is not None


def test_mcc_hand_checked():
    # Segment not through the origin.
    s = PointSet([Vec([3, 1, 0]), Vec([1, 1, 2])])
    assert mcc(s) == Vec([Fraction(3, 2), 1, Fraction(3, 2)])
    # Hull containing the origin.
    s = PointSet([Vec([1, 0]), Vec([-1, 1]), Vec([0, -2])])
    assert mcc(s) == Vec([0, 0])
    assert mcc(PointSet([Vec([2, 2])])) == Vec([2, 2])


_entries = st.one_of(st.integers(-6, 6),
                    st.fractions(min_value=-6, max_value=6, max_denominator=4))


@st.composite
def _segments(draw):
    """Endpoints of one segment in dimension 1-6; b == a a quarter of the time."""
    dim = draw(st.integers(1, 6))
    a = draw(st.lists(_entries, min_size=dim, max_size=dim))
    same = draw(st.integers(0, 3)) == 0
    return a, a if same else draw(st.lists(_entries, min_size=dim, max_size=dim))


@settings(max_examples=300, deadline=None)
@given(_segments())
@example(([1, 2], [1, 2]))                   # a == b
@example(([1, 0], [3, 0]))                   # t < 0: the end a
@example(([3, 0], [1, 0]))                   # t > 1: the end b
@example(([-1, 2], [1, 2]))                  # 0 < t < 1: the point (0, 2)
@example(([Fraction(1, 2)], [Fraction(-1, 3)]))
def test_segment_min_norm_matches_mcc(segment):
    a, b = segment
    got = segment_min_norm(a, b)
    assert got == mcc(PointSet([a]) if a == b else PointSet([a, b]))
    assert isinstance(got, Vec) and all(type(x) is Fraction for x in got)


def test_barycentric_membership():
    s = PointSet([Vec([0, 0]), Vec([2, 0]), Vec([0, 2])])
    assert barycentric(s, Vec([1, 1])) is not None
    assert barycentric(s, Vec([2, 2])) is None
    cert = barycentric(s, Vec([Fraction(1, 2), Fraction(1, 2)]))
    total = zero_vec(2)
    for c, p in zip(cert, s):
        assert c >= 0
        total = total + c * p
    assert total == Vec([Fraction(1, 2), Fraction(1, 2)])
    assert sum(cert) == 1


def test_interior_certificate_strict():
    s = PointSet([Vec([0, 0]), Vec([2, 0]), Vec([0, 2])])
    cert = interior_certificate(s, Vec([Fraction(1, 2), Fraction(1, 2)]))
    assert cert is not None and all(c > 0 for c in cert)
    # Boundary point: in the hull but not in the relative interior.
    assert interior_certificate(s, Vec([1, 0])) is None
    assert barycentric(s, Vec([1, 0])) is not None


def test_barycentric_is_strictly_positive_where_it_can_be():
    # The centre of a square: the one LP maximises the least coefficient, so
    # it returns the uniform point, not a vertex of the feasible polytope.
    s = PointSet([Vec([0, 0]), Vec([2, 0]), Vec([0, 2]), Vec([2, 2])])
    assert list(barycentric(s, Vec([1, 1]))) == [Fraction(1, 4)] * 4
    assert interior_certificate(s, Vec([1, 1])) == barycentric(s, Vec([1, 1]))


def test_relative_interior_is_relative():
    # A segment in the plane: its midpoint is relint, its endpoint is not.
    s = PointSet([Vec([0, 1]), Vec([2, 1])])
    assert interior_certificate(s, Vec([1, 1])) is not None
    assert interior_certificate(s, Vec([0, 1])) is None
    assert interior_certificate(s, Vec([1, 2])) is None


def test_point_set_rejects_duplicates_and_mixed_dims():
    with pytest.raises(ValueError):
        PointSet([Vec([1, 0]), Vec([1, 0])])
    with pytest.raises(ValueError):
        PointSet([Vec([1, 0]), Vec([1, 0, 0])])
    with pytest.raises(ValueError):
        PointSet([])
