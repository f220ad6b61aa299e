"""Nice-space detection and the distinguished-orbit criterion.

A subspace spanned by weight vectors is "nice" when the moment map sends all
of it into the diagonal subalgebra; on a nice space, whether the orbit of an
element is distinguished reduces to exact convex geometry: the minimum-norm
point beta of the convex hull of its weights must lie in the relative
interior of that hull.  The niceness test applies each root's generators
(``lattice.root_space``) sparsely, through the backend's action primitive.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from . import _exact, ratgeom
from .lattice import RootSystem, root_space
from .ratgeom import PointSet, Vec, interior_certificate, mcc
from .reps import apply_terms, weight_of


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


def _weight_index_table(backend, roots: RootSystem) -> dict:
    m = roots.n // 2 if roots.subgroup == "sp" else None
    table: dict = {}
    for idx in backend.all_indices():
        table.setdefault(weight_of(backend, idx, m), []).append(idx)
    return table


def is_nice(weights: PointSet, backend, roots: RootSystem):
    """Decide whether the span of all basis vectors with these weights is nice.

    Returns (True, None) or (False, NiceWitness).  Fast path: if no pairwise
    weight difference is a root, the span is nice.  Otherwise, for each pair
    (alpha_i, alpha_j) with gamma = alpha_j - alpha_i a root, the image of the
    alpha_i weight space under every generator of g_gamma
    (``lattice.root_space``) must have no component on the span's basis
    indices.
    """
    if backend.n != roots.n:
        raise ValueError("backend and root system dimensions differ")
    table = _weight_index_table(backend, roots)
    for w in weights:
        if w not in table:
            raise ValueError("weight %r is not a weight of this representation" % (w,))
    pairs = [(wi, wj) for wi in weights for wj in weights
             if wi != wj and (wj - wi) in roots]
    if not pairs:
        return True, None
    span_indices = {idx for w in weights for idx in table[w]}
    for wi, wj in pairs:
        gamma = wj - wi
        for gen in root_space(roots, gamma):
            for idx in table[wi]:
                if any(t in span_indices for t in apply_terms(backend, gen, {idx: 1})):
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
    beta = mcc(weights)
    cert = interior_certificate(weights, beta)
    if cert is None:
        return Verdict("not_distinguished", beta=beta)
    return Verdict("distinguished", beta=beta, certificate=tuple(cert))


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

    def member(self, params) -> tuple:
        """The mass vector particular + sum params_k kernel_k."""
        c = list(self.particular)
        for t, k in zip(params, self.kernel, strict=True):
            c = [ci + Fraction(t) * ki for ci, ki in zip(c, k)]
        if any(ci < 0 for ci in c):
            raise ValueError("parameters leave the nonnegative orthant")
        return tuple(c)


def critical_coefficients(weights: PointSet, basis_norms, beta) -> Optional[CriticalFamily]:
    """All critical mass distributions on a nice weight set for a given beta.

    Returns None when no nonnegative solution of  sum c_i alpha_i = beta,
    sum c_i = 1  exists (the stratum meets no critical point in this span).
    """
    beta = Vec(beta)
    norms = tuple(Fraction(x) for x in basis_norms)
    if len(norms) != len(weights):
        raise ValueError("one basis norm per weight is required")
    particular = interior_certificate(weights, beta)
    if particular is None:
        particular = ratgeom.barycentric(weights, beta)
        if particular is None:
            return None
    rows = [[Fraction(1)] * len(weights)]
    for coord in range(weights.dim):
        rows.append([q[coord] for q in weights])
    kernel = tuple(tuple(k) for k in _exact.nullspace(rows))
    return CriticalFamily(weights, norms, tuple(particular), kernel)
