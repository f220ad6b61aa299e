"""The exact kernel: rref against sympy, nullspace, and mcc's one elimination per face."""

import random
from fractions import Fraction

import pytest

from orbitforge import _exact, ratgeom
from orbitforge.ratgeom import PointSet, mcc
from orbitforge.ternary import _all_weights


def _random_matrix(rng):
    nrows, ncols = rng.randint(0, 6), rng.randint(0, 7)
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if rows and kind < 0.15:
            rows.append(list(rng.choice(rows)))
        elif kind < 0.25:
            rows.append([Fraction(0)] * ncols)
        else:
            rows.append([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                         if rng.random() < 0.7 else Fraction(0) for _ in range(ncols)])
    return rows, nrows, ncols


def test_rref_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20)
    for _ in range(240):
        rows, nrows, ncols = _random_matrix(rng)
        red, pivots = _exact.rref(rows)
        ref, ref_pivots = sympy.Matrix(nrows, ncols, [sympy.Rational(x.numerator, x.denominator)
                                                      for row in rows for x in row]).rref()
        assert pivots == list(ref_pivots)
        assert red == [[Fraction(int(x.p), int(x.q)) for x in ref.row(i)] for i in range(nrows)]


def test_nullspace_spans_the_kernel():
    rng = random.Random(21)
    for _ in range(200):
        rows, nrows, ncols = _random_matrix(rng)
        if not nrows:
            continue
        basis = _exact.nullspace(rows)
        assert len(basis) == ncols - _exact.rank(rows)
        for v in basis:
            assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows)


def test_mcc_eliminates_once_per_face(monkeypatch):
    counts = {"rref": 0, "face": 0}
    rref, face = _exact.rref, ratgeom._min_norm_in_affine_hull

    def counted(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(_exact, "rref", counted("rref", rref))
    monkeypatch.setattr(ratgeom, "_min_norm_in_affine_hull", counted("face", face))
    rng = random.Random(22)
    point_sets = [PointSet(_all_weights(3, 4))]  # the 15 quartic weights
    while len(point_sets) < 30:
        dim = rng.randint(1, 4)
        pts = {tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(dim))
               for _ in range(rng.randint(1, 7))}
        point_sets.append(PointSet(sorted(pts)))
    for s in point_sets:
        counts.update(rref=0, face=0)
        mcc(s)
        assert counts["face"] > 0
        assert counts["rref"] == counts["face"]
