"""Representation backends, group actions, and moment maps."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitforge.coeffs import Coeff
from orbitforge.lattice import gl_roots
from orbitforge.nilgeom import LieBracket
from orbitforge.ratgeom import PointSet, Vec
from orbitforge.reps import (BracketBackend, PolyBackend, RepVector, SymMatrix,
                             apply_terms, moment_map, moment_map_restricted,
                             project_sym_sp, support, support_projected,
                             weight_classes, weight_masses, weight_of)

from oracles import (apply_elementary, apply_matrix, group_scale, ricci, solve, sym_scale,
                     sym_sp_basis)


def test_poly_basis_norms_and_weights():
    v = RepVector.poly(3, 4, [((1, 3, 0), 1)])
    backend = v.backend
    assert backend.basis_norm_sq((1, 3, 0)) == 6       # 1! 3! 0!
    assert backend.basis_norm_sq((4, 0, 0)) == 24
    assert backend.weight((1, 3, 0)) == Vec([-1, -3, 0])
    assert len(list(backend.all_indices())) == 15
    assert v.norm_sq() == 6


def test_bracket_index_normalization():
    v = RepVector.bracket(4, [((2, 0, 3), Coeff(1))])
    assert v.terms == {(0, 2, 3): Coeff(-1)}
    assert v.backend.weight((0, 2, 3)) == Vec([-1, 0, -1, 1])
    assert v.norm_sq() == 2
    with pytest.raises(ValueError):
        RepVector.bracket(4, [((1, 1, 2), 1)])


def test_identity_acts_by_total_weight():
    # pi(I)p = -d p on degree-d forms; every bracket weight sums to -1.
    ident = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    p = RepVector.poly(3, 4, [((2, 1, 1), 1), ((0, 4, 0), Fraction(2, 3))])
    assert apply_matrix(ident, p) == p.scale(-4)
    ident6 = [[Fraction(int(i == j)) for j in range(6)] for i in range(6)]
    mu = RepVector.bracket(6, [((0, 3, 5), 1), ((1, 2, 4), 1)])
    assert apply_matrix(ident6, mu) == mu.scale(-1)


def test_elementary_action_shifts_weight_by_a_root():
    p = RepVector.poly(3, 4, [((2, 1, 1), 1)])
    image = apply_elementary(0, 2, p)
    assert image.terms == {(1, 1, 2): Coeff(-2)}
    w0 = p.backend.weight((2, 1, 1))
    w1 = p.backend.weight((1, 1, 2))
    assert (w1 - w0) in gl_roots(3)


def test_diagonal_apply_terms_is_weight_pairing():
    # pi(diag(x)) scales each term by <weight, x>, for both backends.
    p = RepVector.poly(3, 2, [((1, 1, 0), 1), ((0, 0, 2), 1)])
    image = apply_terms(p.backend, [(0, 0, 1), (1, 1, 2), (2, 2, 5)], p.terms)
    assert image == {(1, 1, 0): Coeff(-3), (0, 0, 2): Coeff(-10)}
    mu = RepVector.bracket(4, [((0, 1, 3), 1), ((1, 2, 0), Coeff.from_square(2))])
    x = [1, 2, 5, 7]
    image = apply_terms(mu.backend, [(i, i, t) for i, t in enumerate(x)], mu.terms)
    assert image == {(0, 1, 3): Coeff(4), (1, 2, 0): Coeff.from_square(2) * -6}
    assert image == {idx: c * mu.backend.weight(idx).dot(x) for idx, c in mu.terms.items()}


def test_group_scale_is_multiplicative_on_weights():
    p = RepVector.poly(3, 4, [((1, 3, 0), 1)])
    scaled = group_scale([2, 3, 7], p)
    # weight (-1,-3,0): factor 2^-1 3^-3.
    assert scaled.terms == {(1, 3, 0): Coeff(Fraction(1, 54))}
    mu = RepVector.bracket(6, [((0, 3, 5), 1), ((1, 2, 4), 1)])
    half = group_scale([2, 1, 2, Fraction(1, 2), 1, Fraction(1, 2)], mu)
    assert half == mu.scale(Fraction(1, 2))


def test_support_and_projection():
    mu = RepVector.bracket(6, [((0, 3, 5), 1), ((1, 2, 4), 1)])
    assert len(support(mu)) == 2
    h = Fraction(1, 2)
    proj = support_projected(mu, 3)
    assert proj.as_set() == PointSet([
        Vec([-1, 0, h, -h, 0, 1]), Vec([0, -1, -h, h, 1, 0])]).as_set()


@st.composite
def _vectors(draw, kind, group):
    """A nonzero poly or bracket vector, with some square-root coefficients."""
    if kind == "poly":
        n = draw(st.sampled_from([2, 4])) if group == "sp" else draw(st.integers(2, 3))
        backend = PolyBackend(n, draw(st.integers(1, 4)))
    else:
        backend = BracketBackend(draw(st.sampled_from([4, 6])) if group == "sp"
                                 else draw(st.integers(2, 5)))
    picked = draw(st.lists(st.sampled_from(list(backend.all_indices())),
                           min_size=1, max_size=6, unique=True))
    coeff = st.builds(Coeff.from_square, st.fractions(0, 9, max_denominator=4).filter(bool),
                      st.sampled_from([1, -1]))
    return RepVector(backend, [(idx, draw(coeff)) for idx in picked])


@pytest.mark.parametrize("kind", ["poly", "bracket"])
@pytest.mark.parametrize("group", ["gl", "sp"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_weight_masses_follow_the_support(kind, group, data):
    v = data.draw(_vectors(kind, group))
    m = v.backend.n // 2 if group == "sp" else None
    masses = weight_masses(v.backend, weight_classes(v.backend, dict(v.sorted_terms()), m))
    sup = support(v) if m is None else support_projected(v, m)
    assert list(masses) == list(sup)
    assert all(mass > 0 for mass in masses.values())
    assert sum(masses.values()) == v.norm_sq()


@pytest.mark.parametrize("kind", ["poly", "bracket"])
@pytest.mark.parametrize("group", ["gl", "sp"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_weight_classes_partition_the_terms_in_their_order(kind, group, data):
    v = data.draw(_vectors(kind, group))
    m = v.backend.n // 2 if group == "sp" else None
    classes = weight_classes(v.backend, v.terms, m)
    assert list(classes) == list(dict.fromkeys(weight_of(v.backend, i, m) for i in v.terms))
    for w, part in classes.items():
        assert list(part) == [i for i in v.terms if weight_of(v.backend, i, m) == w]
        assert all(part[i] is v.terms[i] for i in part)
    assert sum(len(part) for part in classes.values()) == len(v.terms)


def test_moment_map_of_a_monomial_is_its_weight():
    for idx in ((4, 0, 0), (2, 1, 1), (0, 2, 2)):
        mm = moment_map(RepVector.poly(3, 4, [(idx, Coeff(1, 5))]))
        assert mm == SymMatrix.diagonal([-e for e in idx])


def test_moment_map_equivariance_under_permutation():
    # Swapping x1 and x2 conjugates the moment map by the same permutation.
    p = RepVector.poly(3, 3, [((2, 1, 0), 1), ((0, 1, 2), Fraction(1, 2))])
    q = RepVector.poly(3, 3, [((1, 2, 0), 1), ((1, 0, 2), Fraction(1, 2))])
    mm_p, mm_q = moment_map(p), moment_map(q)
    perm = [1, 0, 2]
    for a in range(3):
        for b in range(3):
            assert mm_q.rows[a][b] == mm_p.rows[perm[a]][perm[b]]


def test_moment_map_trace_is_minus_degree():
    p = RepVector.poly(3, 4, [((1, 3, 0), 1), ((2, 0, 2), Fraction(2, 5))])
    assert sum(moment_map(p).diag()) == -4
    # sl is gl's moment map with its trace part dropped: no group of its own.
    with pytest.raises(ValueError, match="unknown subgroup"):
        moment_map_restricted(p, "sl")


def test_sym_sp_basis_dimension():
    for m in (1, 2, 3):
        basis = sym_sp_basis(m)
        assert len(basis) == m * m + m


def _basis_projection(mat, m):
    # Trace-form projection through the sym_sp_basis Gram system.
    basis = sym_sp_basis(m)
    gram = [[bi.trace_inner(bj) for bj in basis] for bi in basis]
    coeffs = solve(gram, [b.trace_inner(mat) for b in basis])
    out = SymMatrix([[0] * mat.n for _ in range(mat.n)])
    for c, b in zip(coeffs, basis):
        out = out + sym_scale(b, c)
    return out


def test_project_sym_sp_closed_form_matches_basis_projection():
    rng = random.Random(11)
    for m in (1, 2, 3):
        n = 2 * m
        for _ in range(20):
            s = [[Fraction(0)] * n for _ in range(n)]
            for a in range(n):
                for b in range(a, n):
                    s[a][b] = s[b][a] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
            mat = SymMatrix(s)
            assert project_sym_sp(mat, m) == _basis_projection(mat, m)


def test_restricted_moment_map_worked_bracket():
    mu = RepVector.bracket(6, [((0, 3, 5), 1), ((1, 2, 4), 1)])
    h = Fraction(1, 2)
    assert moment_map_restricted(mu, "sp", 3) == \
        SymMatrix.diagonal([-h, -h, 0, 0, h, h])


def _random_two_step(rng, n):
    """Random two-step nilpotent bracket: inputs low indices, values high."""
    q = rng.randint(2, n - 1)
    items = []
    for _ in range(rng.randint(1, 6)):
        i = rng.randint(0, q - 2)
        j = rng.randint(i + 1, q - 1)
        k = rng.randint(q, n - 1)
        c = Fraction(rng.randint(-4, 4))
        if c:
            items.append(((i, j, k), c))
    return RepVector.bracket(n, items)


def test_ricci_moment_map_identity_random_brackets():
    rng = random.Random(5)
    done = 0
    while done < 50:
        n = rng.randint(4, 7)
        v = _random_two_step(rng, n)
        if v.is_zero():
            continue
        mu = LieBracket(v)
        assert sym_scale(moment_map(v), v.norm_sq()) == sym_scale(ricci(mu), 4)
        done += 1
