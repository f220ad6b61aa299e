"""Properties of the one action primitive, through the oracle actions and the moment map."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitforge.reps import BracketBackend, PolyBackend, RepVector, moment_map

from oracles import apply_elementary, apply_matrix, inner, rational, vector_sub


@st.composite
def _cases(draw, kind):
    """A backend, two nonzero vectors and two small integer matrices."""
    if kind == "poly":
        backend = PolyBackend(draw(st.integers(2, 3)), draw(st.integers(1, 4)))
    else:
        backend = BracketBackend(draw(st.integers(2, 4)))
    n = backend.n
    indices = list(backend.all_indices())
    coeff = st.fractions(-3, 3, max_denominator=4).filter(bool)

    def vector():
        picked = draw(st.lists(st.sampled_from(indices), min_size=1,
                               max_size=5, unique=True))
        return RepVector(backend, [(idx, draw(coeff)) for idx in picked])

    def matrix():
        return [[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(n)]

    return vector(), vector(), matrix(), matrix()


def _mul(x, y):
    n = len(x)
    return [[sum(x[a][c] * y[c][b] for c in range(n)) for b in range(n)]
            for a in range(n)]


def _transpose(x):
    return [list(col) for col in zip(*x)]


@pytest.mark.parametrize("kind", ["poly", "bracket"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_apply_matrix_is_a_lie_algebra_homomorphism(kind, data):
    v, _, x, y = data.draw(_cases(kind))
    xy, yx = _mul(x, y), _mul(y, x)
    commutator = [[p - q for p, q in zip(r, s)] for r, s in zip(xy, yx)]
    lhs = apply_matrix(commutator, v)
    rhs = vector_sub(apply_matrix(x, apply_matrix(y, v)), apply_matrix(y, apply_matrix(x, v)))
    assert lhs == rhs


@pytest.mark.parametrize("kind", ["poly", "bracket"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_apply_matrix_transpose_is_the_adjoint(kind, data):
    v, w, x, _ = data.draw(_cases(kind))
    assert inner(apply_matrix(x, v), w) == inner(v, apply_matrix(_transpose(x), w))


@pytest.mark.parametrize("kind", ["poly", "bracket"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_moment_map_is_the_elementary_pairing_in_both_orders(kind, data):
    v = data.draw(_cases(kind))[0]
    mm, nsq = moment_map(v), v.norm_sq()
    for a in range(v.backend.n):
        for b in range(v.backend.n):
            for p, q in ((a, b), (b, a)):
                pairing = rational(inner(apply_elementary(p, q, v), v))
                assert mm.rows[a][b] == pairing / nsq


def test_elementary_images_of_single_basis_vectors():
    # pi(E_ab) x^idx = -idx_a x^(idx - e_a + e_b).
    p = RepVector.poly(3, 3, [((2, 1, 0), 1)])
    assert apply_elementary(0, 2, p).terms == {(1, 1, 1): -2}
    assert apply_elementary(2, 0, p).is_zero()
    # pi(E_ab) mu_ij^k = [b=k] mu_ij^a - [a=i] mu_bj^k - [a=j] mu_ib^k.
    mu = RepVector.bracket(4, [((0, 1, 2), 1)])
    assert apply_elementary(3, 2, mu).terms == {(0, 1, 3): 1}
    assert apply_elementary(0, 3, mu).terms == {(1, 3, 2): 1}
    assert apply_elementary(1, 3, mu).terms == {(0, 3, 2): -1}
    assert apply_elementary(1, 0, mu).is_zero()
    assert apply_elementary(2, 2, mu).terms == {(0, 1, 2): 1}
    assert apply_elementary(0, 0, mu).terms == {(0, 1, 2): -1}
    assert apply_elementary(0, 0, RepVector.bracket(3, [((0, 1, 0), 1)])).is_zero()


@pytest.mark.parametrize("i, j", [(-1, 0), (0, -1), (3, 0), (0, 3)])
def test_elementary_indices_outside_the_matrix_are_refused(i, j):
    # A negative index would otherwise act as i + n.
    with pytest.raises(ValueError, match="not an entry"):
        apply_elementary(i, j, RepVector.poly(3, 3, [((2, 1, 0), 1)]))
