"""Domain edges: single-weight supports, the zero bracket, odd n with sp."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitforge.flow import solve_moment_equation
from orbitforge.lattice import gl_roots, projection, sp_diag_roots
from orbitforge.nicecrit import is_distinguished
from orbitforge.nilgeom import (LieBracket, find_minimal_metric,
                                sym_derivation_dim, validate, verify_minimal)
from orbitforge.reps import (BracketBackend, PolyBackend, RepVector,
                             moment_map_restricted, support, support_projected,
                             weight_classes, weight_masses, weight_of)

from oracles import project_to_subspace

_COEFF = st.fractions(-3, 3, max_denominator=4).filter(bool)


@st.composite
def _single_weight_vectors(draw, kind, group):
    """A nonzero vector whose terms all share one (sp-projected) weight."""
    if kind == "poly":
        n = draw(st.sampled_from([2, 4])) if group == "sp" else draw(st.integers(2, 3))
        backend = PolyBackend(n, draw(st.integers(1, 4)))
    else:
        backend = BracketBackend(draw(st.sampled_from([4, 6])) if group == "sp"
                                 else draw(st.integers(2, 5)))
    indices = list(backend.all_indices())
    first = draw(st.sampled_from(indices))
    m = backend.n // 2 if group == "sp" else None
    alpha = weight_of(backend, first, m)
    same = [idx for idx in indices if weight_of(backend, idx, m) == alpha]
    picked = draw(st.lists(st.sampled_from(same), min_size=1, unique=True))
    return RepVector(backend, [(idx, draw(_COEFF)) for idx in picked]), alpha


@pytest.mark.parametrize("kind", ["poly", "bracket"])
@pytest.mark.parametrize("group", ["gl", "sp"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_single_weight_supports_are_distinguished(kind, group, data):
    v, alpha = data.draw(_single_weight_vectors(kind, group))
    n = v.backend.n
    if group == "sp":
        weights, roots = support_projected(v, n // 2), sp_diag_roots(n // 2)
    else:
        weights, roots = support(v), gl_roots(n)
    verdict = is_distinguished(weights, v.backend, roots)
    assert verdict.outcome == "distinguished"
    assert verdict.certificate == (1,)
    assert verdict.beta == alpha
    # The Newton search space is empty: X = 0 already solves the equation.
    classes = weight_classes(v.backend, v.terms, projection(roots))
    res = solve_moment_equation(weight_masses(v.backend, classes), alpha)
    assert res.x == (0.0,) * n and res.residual == 0.0 and res.iterations == 0
    assert res.subspace == () and project_to_subspace(res, [1] * n) == (0,) * n
    if kind == "bracket" and group == "sp":
        found = find_minimal_metric(LieBracket(v))
        assert found.beta == alpha and found.verdict.certificate == (1,)
        assert found.critical_bracket.norm_sq() == 1


@pytest.mark.parametrize("m", [1, 2, 3])
def test_zero_bracket(m):
    zero = LieBracket(RepVector.bracket(2 * m, []))
    validate(zero)
    validate(zero, two_step=True)
    assert sym_derivation_dim(zero) == m * (2 * m + 1)
    with pytest.raises(ValueError):
        verify_minimal(zero)
    with pytest.raises(ValueError, match="zero bracket"):
        find_minimal_metric(zero)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_odd_dimension_has_no_symplectic_answers(data):
    n = data.draw(st.sampled_from([3, 5, 7]))
    indices = list(BracketBackend(n).all_indices())
    picked = data.draw(st.lists(st.sampled_from(indices), min_size=1,
                                max_size=4, unique=True))
    v = RepVector.bracket(n, [(idx, data.draw(_COEFF)) for idx in picked])
    mu = LieBracket(v)
    with pytest.raises(ValueError):
        verify_minimal(mu)
    with pytest.raises(ValueError):
        sym_derivation_dim(mu)
    with pytest.raises(ValueError):
        moment_map_restricted(v, sp_diag_roots(n // 2))
    with pytest.raises(ValueError, match="even dimension"):
        find_minimal_metric(mu)
