"""Nice-space detection and the distinguished-orbit criterion.

A subspace spanned by weight vectors is "nice" when the moment map sends all
of it into the diagonal subalgebra; on a nice space, whether the orbit of an
element is distinguished reduces to exact convex geometry: the minimum-norm
point beta of the convex hull of its weights must lie in the relative
interior of that hull.  A span of weight spaces is nice exactly when no two
of its weights differ by a root (``is_nice``).  ``orbit_verdict`` decides one
vector's orbit: where the span is not nice, the torus test, the vector form
of the niceness test, may still prove it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from . import _exact, ratgeom
from .lattice import RootSystem
from .ratgeom import PointSet, Vec, interior_certificate, mcc
from .reps import RepVector, moment_parts, weight_classes


class NiceWitness(NamedTuple):
    """A failing pair for the niceness test: alpha_j - alpha_i is the root."""

    alpha_i: Vec
    alpha_j: Vec
    root: Vec


class Verdict(NamedTuple):
    outcome: str  # "distinguished" | "not_distinguished" | "not_nice"
    beta: Optional[Vec] = None
    certificate: Optional[tuple] = None
    witness: Optional[NiceWitness] = None


def _projection(roots: RootSystem) -> Optional[int]:
    """m for the sp(2m) weight projection, or None for gl."""
    return roots.n // 2 if roots.subgroup == "sp" else None


def _root_pairs(weights, roots: RootSystem):
    """(alpha_i, alpha_j, gamma, X) with gamma = alpha_j - alpha_i a root, X spanning g_gamma."""
    for wi in weights:
        for wj in weights:
            if wi != wj and (gen := roots.spaces.get(gamma := wj - wi)) is not None:
                yield wi, wj, gamma, gen


def is_nice(weights: PointSet, backend, roots: RootSystem):
    """Decide whether the span of all basis vectors with these weights is nice.

    Returns (True, None), or (False, NiceWitness) for the first pair whose
    difference gamma = alpha_j - alpha_i is a root; ValueError for a weight
    that is not one of the representation.  The generator X_gamma of g_gamma
    maps the weight space V_p into V_{p+gamma}, so only root pairs can fail,
    and each does.  With s = <X_gamma, X_-gamma, H_gamma> = sl_2 (each root
    space is a line), the gamma-string of V_p is an s-module whose
    H_gamma-eigenspaces are the V_{p+k gamma}, with eigenvalues c + 2k for the
    integer c = <p, gamma^v>.  On an irreducible of highest weight h, X_gamma
    is injective on every eigenspace but the top one.  If c <= -1, every
    irreducible meeting V_p has h >= -c >= c + 2.  If c >= -1, every
    irreducible meeting V_{p+gamma} has h >= c + 2 >= 1, so it holds the
    eigenvalue c too.  Either way X_gamma maps some vector of V_p to a
    nonzero vector.
    """
    if backend.n != roots.n:
        raise ValueError("backend and root system dimensions differ")
    table = weight_classes(backend, dict.fromkeys(backend.all_indices()), _projection(roots))
    for w in weights:
        if w not in table:
            raise ValueError("weight %r is not a weight of this representation" % (w,))
    for wi, wj, gamma, _ in _root_pairs(weights, roots):
        return False, NiceWitness(wi, wj, gamma)
    return True, None


def is_distinguished(weights: PointSet, backend, roots: RootSystem) -> Verdict:
    """Main criterion for the span of the given weights.

    Distinguished iff the span is nice and mcc of the weights lies in the
    relative interior of their convex hull.
    """
    nice, witness = is_nice(weights, backend, roots)
    if not nice:
        return Verdict("not_nice", witness=witness)
    return _hull_verdict(weights)


def _hull_verdict(weights: PointSet) -> Verdict:
    beta = mcc(weights)
    cert = interior_certificate(weights, beta)
    if cert is None:
        return Verdict("not_distinguished", beta=beta)
    return Verdict("distinguished", beta=beta, certificate=tuple(cert))


def _torus_nice(parts: dict, backend, roots: RootSystem) -> bool:
    """Whether mm(t.v) is diagonal for every t in the group's diagonal torus.

    The vector form of ``is_nice``'s test, on v's parts v_P of one (projected)
    weight.  For X in g_gamma and t = exp(H), <pi(X) t.v, t.v> sums
    e^<H, 2P + gamma> <pi(X) v_P, v_{P+gamma}> over P; distinct exponentials,
    and square roots of distinct squarefree integers, are independent.  So
    <pi(X) v_P, v_Q> must vanish radicand by radicand for each root Q - P.
    Every entry of X shifts weights by gamma != 0, and distinct weight spaces
    are orthogonal, so for u = v_P + v_Q that pairing is <pi(X)u, u>: the sum
    of x mm_ab(u) |u|^2 over X's entries (a, b, x).  ``moment_parts`` of u,
    with |u|^2 taken as 1, gives it exactly, radicand by radicand; mm is
    symmetric, so an entry with a > b reads the mirrored value.
    """
    for p, q, _, gen in _root_pairs(parts, roots):
        # Fraction(1), not 1: an untouched int 0 divided by 1 is a float.
        mm = moment_parts(backend, {**parts[p], **parts[q]}, Fraction(1))
        if any(sum(x * part[a][b] for a, b, x in gen) for part in mm.values()):
            return False
    return True


def orbit_verdict(v: RepVector, roots: RootSystem) -> Verdict:
    """``is_distinguished`` on the (sp-projected) support of a nonzero vector v,
    but "distinguished" where the span is not nice, the torus test passes
    (mm(T.v) is diagonal) and beta is interior.  Without a nice span an
    exterior beta proves nothing, so "not_nice" stands.  beta comes back in
    the coordinates of the weights it was given (sp-projected for sp).
    Raises ValueError for the zero vector or when v and the roots differ in
    dimension.
    """
    return _orbit_verdict(weight_classes(v.backend, dict(v.sorted_terms()), _projection(roots)),
                          v.backend, roots)


def _orbit_verdict(parts: dict, backend, roots: RootSystem) -> Verdict:
    """``orbit_verdict`` on v's weight classes, {weight: {idx: coeff}}."""
    weights = PointSet(parts)
    verdict = is_distinguished(weights, backend, roots)
    if verdict.outcome == "not_nice" and _torus_nice(parts, backend, roots):
        hull = _hull_verdict(weights)
        if hull.outcome == "distinguished":
            return hull
    return verdict


class CriticalFamily(NamedTuple):
    """Affine family of critical squared-coefficient masses.

    Masses c_i (nonnegative, summing to 1, with sum c_i alpha_i = beta) are
    ``particular + span(kernel)`` intersected with the nonnegative orthant.
    c_i = coeff_i^2 * |basis_i|^2, so squared coefficients are c_i divided by
    the basis norms.
    """

    weights: PointSet
    basis_norms: tuple
    particular: tuple
    kernel: tuple

    @property
    def dimension(self) -> int:
        return len(self.kernel)

    def coefficient_squares(self, point=None) -> tuple:
        c = self.particular if point is None else point
        return tuple(Fraction(ci) / ni for ci, ni in zip(c, self.basis_norms))


def critical_coefficients(weights: PointSet, basis_norms, beta) -> Optional[CriticalFamily]:
    """All critical mass distributions on a nice weight set for a given beta.

    Returns None when no nonnegative solution of  sum c_i alpha_i = beta,
    sum c_i = 1  exists (the stratum meets no critical point in this span).
    """
    beta = Vec(beta)
    norms = tuple(Fraction(x) for x in basis_norms)
    if len(norms) != len(weights):
        raise ValueError("one basis norm per weight is required")
    particular = ratgeom.barycentric(weights, beta)
    if particular is None:
        return None
    rows, _ = ratgeom._barycentric_system(weights, beta)
    kernel = tuple(tuple(k) for k in _exact.nullspace(rows))
    return CriticalFamily(weights, norms, tuple(particular), kernel)
