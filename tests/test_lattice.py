"""Root systems, chamber representatives, and the sp projection."""

from fractions import Fraction

import pytest

from orbitforge import lattice
from orbitforge.lattice import (RootSystem, chamber_canonical, gl_roots,
                                project_to_sp_diag, sp_diag_roots)
from orbitforge.ratgeom import Vec


def test_gl_roots_count_and_membership():
    rs = gl_roots(3)
    assert len(rs.roots) == 6
    assert Vec([1, -1, 0]) in rs
    assert Vec([1, 0, -1]) in rs
    assert Vec([1, 1, -2]) not in rs
    assert Vec([0, 0, 0]) not in rs


def test_sp_roots_count():
    # 2m^2 restricted roots: +-2eps_i and +-eps_i +- eps_j.
    for m in (1, 2, 3):
        assert len(sp_diag_roots(m).roots) == 2 * m * m


def test_sp_roots_are_patterns():
    rs = sp_diag_roots(3)
    for r in rs.roots:
        assert r == project_to_sp_diag(r, 3)
    h = Fraction(1, 2)
    assert Vec([1, 0, 0, 0, 0, -1]) in rs          # 2 eps_1
    assert Vec([h, -h, 0, 0, h, -h]) in rs         # eps_1 - eps_2
    assert Vec([h, h, 0, 0, -h, -h]) in rs         # eps_1 + eps_2
    assert Vec([1, -1, 0, 0, 0, 0]) not in rs


def test_project_to_sp_diag():
    h = Fraction(1, 2)
    assert project_to_sp_diag(Vec([1, 0, 0, 0, 0, 0]), 3) == Vec([h, 0, 0, 0, 0, -h])
    # Patterns are fixed points of the projection.
    p = Vec([2, -1, 3, -3, 1, -2])
    assert project_to_sp_diag(p, 3) == p
    # The projection kills the orthogonal complement (constant-pair vectors).
    assert project_to_sp_diag(Vec([1, 0, 0, 0, 0, 1]), 3) == Vec([0] * 6)
    with pytest.raises(ValueError):
        project_to_sp_diag(Vec([1, 0, 0]), 2)


def test_chamber_canonical_sorts_ascending():
    assert chamber_canonical(Vec([0, -2, 1])) == Vec([-2, 0, 1])
    assert chamber_canonical((3, 1, 2)) == Vec([1, 2, 3])


def test_root_system_validation():
    with pytest.raises(ValueError):
        RootSystem(2, {Vec([1, -1]): ((0, 1, 1),)}, "gl")  # not negation-closed
    with pytest.raises(ValueError):
        RootSystem(2, {Vec([0, 0]): ((0, 0, 1),)}, "gl")


def _eps_roots(m):
    """The sp(2m) roots +-2 eps_i and +-eps_i +- eps_j (i < j), eps_i the
    element of the diagonal patterns pairing to the i-th coordinate."""
    eps = []
    for i in range(m):
        entries = [Fraction(0)] * (2 * m)
        entries[i], entries[2 * m - 1 - i] = Fraction(1, 2), Fraction(-1, 2)
        eps.append(Vec(entries))
    roots = {s * 2 * e for e in eps for s in (1, -1)}
    for i in range(m):
        for j in range(i + 1, m):
            roots |= {si * eps[i] + sj * eps[j] for si in (1, -1) for sj in (1, -1)}
    return frozenset(roots)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_sp_roots_match_the_eps_formula(m):
    assert sp_diag_roots(m).roots == _eps_roots(m)


@pytest.mark.parametrize("rs", [gl_roots(1), gl_roots(3), gl_roots(4)],
                         ids=["gl1", "gl3", "gl4"])
def test_gl_root_spaces_are_the_elementary_matrices(rs):
    n = rs.n
    for a in range(n):
        for b in range(n):
            if a != b:
                gamma = Vec([int(t == a) - int(t == b) for t in range(n)])
                assert rs.spaces[gamma] == ((a, b, 1),)
    assert rs.spaces.get(Vec([1] + [0] * (n - 1))) is None


def test_root_space_rejects_an_unknown_subgroup():
    # At construction, before any root space is read.
    with pytest.raises(ValueError, match="unknown subgroup"):
        RootSystem(2, gl_roots(2).spaces, "so")
    # SL_n has gl_n's roots, so a root system is named gl or sp only.
    with pytest.raises(ValueError, match="unknown subgroup"):
        RootSystem(2, gl_roots(2).spaces, "sl")


TABLES = ([(gl_roots(n), n * (n - 1)) for n in range(1, 7)]
          + [(sp_diag_roots(m), 2 * m * m) for m in range(1, 5)])


@pytest.mark.parametrize("rs, count", TABLES, ids=[rs.subgroup + str(rs.n) for rs, _ in TABLES])
def test_table_holds_one_generator_per_root(rs, count):
    # The loop yields each root once, so the table drops no generator.
    walked = list(lattice._root_spaces(rs.n, rs.subgroup))
    assert len(rs.spaces) == len(walked) == count
    assert all(rs.spaces[root] == gen for root, gen in walked)
    assert rs.roots == frozenset(rs.spaces)


@pytest.mark.parametrize("n", [2, 3, 6])
def test_gl_roots_are_integer_tuples_that_any_sequence_finds(n):
    rs = gl_roots(n)
    assert all(type(x) is int for r in rs.roots for x in r)
    gamma = [1] + [0] * (n - 2) + [-1]
    assert Vec(gamma) in rs and gamma in rs and tuple(gamma) in rs
    assert [Fraction(x) for x in gamma] in rs
    assert [2] + [0] * (n - 2) + [-2] not in rs


def test_sp_roots_are_found_from_differences_of_projected_weights():
    rs = sp_diag_roots(3)
    assert all(type(x) is Fraction for r in rs.roots for x in r)
    # Bracket weights e_k - e_i - e_j, projected: the entries are halves.
    a = project_to_sp_diag(Vec([-1, -1, 0, 0, 1, 0]), 3)
    b = project_to_sp_diag(Vec([-1, 0, -1, 0, 1, 0]), 3)
    assert any(x.denominator == 2 for x in a)
    h = Fraction(1, 2)
    assert b - a == Vec([0, h, -h, h, -h, 0]) and (b - a) in rs
    assert list(b - a) in rs
    assert (b - a) * 2 not in rs


@pytest.mark.parametrize("bad, message", [
    ({(1, -1)}, "closed under negation"),
    ({Vec([Fraction(1, 2), Fraction(-1, 2)]), (-1, 1)}, "closed under negation"),
    ({(1, -1), (-1, 1), (0, 0)}, "0 is not a root"),
    ({(Fraction(0), Fraction(0))}, "0 is not a root"),
])
def test_root_system_rejects_bad_sets_of_tuples(bad, message):
    with pytest.raises(ValueError, match=message):
        RootSystem(2, dict.fromkeys(bad, ((0, 1, 1),)), "gl")


@pytest.mark.parametrize("rs", [gl_roots(4), sp_diag_roots(2)], ids=["gl4", "sp4"])
def test_root_system_equality_ignores_vec_or_tuple(rs):
    as_vecs = RootSystem(rs.n, {Vec(r): gen for r, gen in rs.spaces.items()}, rs.subgroup)
    assert as_vecs == rs and hash(as_vecs) == hash(rs)
    assert all(r in as_vecs for r in rs.roots)


def test_root_space_answers_for_any_sequence():
    rs = sp_diag_roots(3)
    h = Fraction(1, 2)
    gamma = Vec([h, -h, 0, 0, h, -h])                    # eps_1 - eps_2
    assert rs.spaces[gamma] == ((0, 1, 1), (4, 5, -1)) == rs.spaces.get(tuple(gamma))
    assert list(gamma) in rs and tuple(gamma) in rs
    assert rs.spaces[Vec([1, 0, 0, 0, 0, -1])] == ((0, 5, 2),)   # 2 eps_1
    gl3 = gl_roots(3)
    assert gl3.spaces.get((0, 1, -1)) == ((1, 2, 1),) == gl3.spaces[Vec([0, 1, -1])]
    assert [0, 1, -1] in gl3
