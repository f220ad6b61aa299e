"""Floating-point solvers around the moment map.

The exact modules decide *whether* a critical point exists; this module finds
the diagonal group element reaching it.  On a nice space the moment equation
mm_a(exp(X).w) = beta is the gradient of the strictly convex function

    phi(X) = log sum_i c_i e^{2<X, alpha_i>} - 2<beta, X>,

so Newton's method with backtracking converges globally.  The direction set
along which phi is flat (all weights move together) is computed exactly and
removed before iterating.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import exp, log

import numpy as np

from . import _exact
from .lattice import project_to_sp_diag
from .ratgeom import PointSet, Vec
from .reps import RepVector, apply_terms, moment_parts

ARMIJO = 1e-4
NEWTON_TOL = 1e-12
CRITICAL_TOL = 1e-10


class FloatVector:
    """binary64 mirror of a RepVector (same backend, float coefficients)."""

    def __init__(self, backend, terms: dict):
        self.backend = backend
        self.terms = {idx: float(c) for idx, c in terms.items() if float(c) != 0.0}

    @classmethod
    def from_rep(cls, v: RepVector) -> "FloatVector":
        return cls(v.backend, v.terms)

    def norm_sq(self) -> float:
        return sum(c * c * float(self.backend.basis_norm_sq(idx))
                   for idx, c in self.terms.items())

    def inner(self, other: "FloatVector") -> float:
        total = 0.0
        for idx, c in self.terms.items():
            d = other.terms.get(idx)
            if d is not None:
                total += c * d * float(self.backend.basis_norm_sq(idx))
        return total

    def apply_matrix(self, matrix) -> "FloatVector":
        return FloatVector(self.backend, apply_terms(self.backend, matrix, self.terms))

    def scale(self, factor: float) -> "FloatVector":
        return FloatVector(self.backend, {i: c * factor for i, c in self.terms.items()})

    def axpy(self, a: float, other: "FloatVector") -> "FloatVector":
        out = dict(self.terms)
        for idx, c in other.terms.items():
            out[idx] = out.get(idx, 0.0) + a * c
        return FloatVector(self.backend, out)


def moment_map_float(v: FloatVector):
    """Moment map of a float vector, as an n x n list-of-lists matrix."""
    return moment_parts(v.backend, v.terms, v.norm_sq())[1]


def is_critical(v: FloatVector, tol: float = CRITICAL_TOL):
    """Criticality test: pi(mm(v)) v = lambda v up to tol * |v|.

    Returns (bool, lambda); at a genuine critical point lambda = |mm(v)|^2.
    """
    mm = moment_map_float(v)
    image = v.apply_matrix(mm)
    nsq = v.norm_sq()
    lam = image.inner(v) / nsq
    residual = image.axpy(-lam, v)
    return residual.norm_sq() ** 0.5 <= tol * nsq ** 0.5, lam


def _diag_subspace_basis(n: int, subgroup: str):
    if subgroup in ("gl", "sl"):
        return [Vec([1 if i == j else 0 for j in range(n)]) for i in range(n)]
    if subgroup == "sp":
        m = n // 2
        out = []
        for i in range(m):
            entries = [0] * n
            entries[i], entries[n - 1 - i] = 1, -1
            out.append(Vec(entries))
        return out
    raise ValueError("unknown subgroup %r" % subgroup)


@dataclass
class NewtonResult:
    x: tuple                 # diagonal element, length-n floats
    residual: float          # |sum p_i alpha_i - beta| at the solution
    iterations: int
    hessian_psd_ok: bool
    subspace: tuple          # orthonormal rows spanning the non-degenerate directions

    def project_to_subspace(self, y):
        """Component of a diagonal vector y in the solver's search space."""
        b = np.array(self.subspace, dtype=float)
        yv = np.array([float(t) for t in y])
        if b.size == 0:
            return np.zeros_like(yv)
        return b.T @ (b @ yv)


def solve_moment_equation(w: RepVector, beta, subgroup: str = "gl",
                          max_iters: int = 50) -> NewtonResult:
    """Newton solve of mm_a(exp(X).w) = beta over the diagonal subalgebra.

    ``beta`` must be mcc of the (projected) support and lie in the relative
    interior of its hull; otherwise no solution exists and a ValueError is
    raised.  Weights, masses and the degeneracy directions are prepared
    exactly; only the Newton iteration itself runs in binary64.
    """
    from .ratgeom import in_relative_interior, mcc
    from .reps import support, support_projected

    n = w.backend.n
    beta = Vec(beta)
    if subgroup == "sp":
        weight_of = lambda idx: project_to_sp_diag(w.backend.weight(idx), n // 2)
        sup = support_projected(w, n // 2)
    else:
        weight_of = lambda idx: w.backend.weight(idx)
        sup = support(w)
    if mcc(sup) != beta:
        raise ValueError("beta is not the mcc of the support")
    if not in_relative_interior(sup, beta):
        raise ValueError("beta is not in the relative interior: no solution")

    masses: dict = {}
    for idx, c in w.terms.items():
        alpha = weight_of(idx)
        masses[alpha] = masses.get(alpha, Fraction(0)) + \
            c.square() * w.backend.basis_norm_sq(idx)
    alphas = sorted(masses)
    c0 = np.array([float(masses[a]) for a in alphas])
    c0 /= c0.sum()

    bas = _diag_subspace_basis(n, subgroup)
    bmat = np.array([[float(t) for t in b] for b in bas])
    afull = np.array([[float(t) for t in al] for al in alphas])
    bfull = np.array([float(t) for t in beta])
    # X = sum_k u_k b_k; the pairing <X, alpha_i> becomes amat @ u.
    amat = afull @ bmat.T

    # phi is flat exactly along ker of the weight-difference matrix; Newton
    # runs on the row space (computed exactly, orthonormalized in float).
    a0 = alphas[0]
    drows = [[(al - a0).dot(b) for b in bas] for al in alphas[1:]]
    rank = _exact.rank(drows) if drows else 0
    if rank > 0:
        dm = np.array([[float(x) for x in row] for row in drows])
        _, _, vt = np.linalg.svd(dm)
        search = vt[:rank]
    else:
        search = np.zeros((0, len(bas)))

    z = np.zeros(search.shape[0])
    psd_ok = True

    def state(zv):
        u = search.T @ zv
        expo = 2.0 * (amat @ u)
        shift = expo.max()
        ws = c0 * np.exp(expo - shift)
        total = ws.sum()
        p = ws / total
        phi = log(total) + shift - 2.0 * float((bfull @ bmat.T) @ u)
        return p, phi

    def residual_of(p):
        return float(np.linalg.norm(p @ afull - bfull))

    p, phi = state(z)
    res = residual_of(p)
    iters = 0
    while res > NEWTON_TOL and iters < max_iters:
        grad_u = 2.0 * (amat.T @ p - bmat @ bfull)
        grad = search @ grad_u
        second = amat.T @ (p[:, None] * amat)
        mean = amat.T @ p
        hess = search @ (4.0 * (second - np.outer(mean, mean))) @ search.T
        if hess.size:
            eigs = np.linalg.eigvalsh(0.5 * (hess + hess.T))
            if eigs.min() < -1e-9 * max(1.0, abs(eigs.max())):
                psd_ok = False
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            step = -grad
        # Once -grad @ step (the squared Newton decrement, twice the predicted
        # phi decrease) is below float noise, backtracking cannot see a
        # decrease and would stall; take the full step there.
        t = 1.0
        if -float(grad @ step) > 1e-12:
            while True:
                p_new, phi_new = state(z + t * step)
                if phi_new <= phi + ARMIJO * t * float(grad @ step) or t < 1e-14:
                    break
                t *= 0.5
        else:
            p_new, phi_new = state(z + step)
        z = z + t * step
        p, phi = p_new, phi_new
        res = residual_of(p)
        iters += 1

    x_full = bmat.T @ (search.T @ z)
    subspace_rows = []
    for row in search:
        xr = bmat.T @ row
        subspace_rows.append(tuple(xr / np.linalg.norm(xr)))
    return NewtonResult(tuple(float(t) for t in x_full), res, iters, psd_ok,
                        tuple(subspace_rows))


def scale_by_diag(x, v) -> FloatVector:
    """exp(diag(x)).v in float arithmetic (weight-alpha term scales by e^<x,alpha>)."""
    fv = v if isinstance(v, FloatVector) else FloatVector.from_rep(v)
    out = {}
    for idx, c in fv.terms.items():
        alpha = fv.backend.weight(idx)
        out[idx] = c * exp(sum(float(a) * float(t) for a, t in zip(alpha, x)))
    return FloatVector(fv.backend, out)


@dataclass
class FlowResult:
    vector: FloatVector
    mm_diag: tuple
    label: tuple            # chamber-canonical (sorted) mm diagonal
    critical: bool
    lam: float
    iterations: int


def gradient_flow(v: FloatVector, step: float = 0.01,
                  max_iters: int = 1000) -> FlowResult:
    """Explicit-Euler descent of F = |mm|^2 with renormalization.

    Exploratory: reports where the flow lands, with no convergence claims.
    grad F(v) = (4/|v|^2) (pi(mm(v)) v - F(v) v).
    """
    if step <= 0:
        raise ValueError("step must be positive")
    cur = v.scale(1.0 / v.norm_sq() ** 0.5)
    it = 0
    for it in range(1, max_iters + 1):
        mm = moment_map_float(cur)
        f = sum(mm[a][b] * mm[a][b] for a in range(len(mm)) for b in range(len(mm)))
        image = cur.apply_matrix(mm)
        grad = image.axpy(-f, cur).scale(4.0 / cur.norm_sq())
        if grad.norm_sq() ** 0.5 < 1e-14:
            break
        cur = cur.axpy(-step, grad)
        cur = cur.scale(1.0 / cur.norm_sq() ** 0.5)
    mm = moment_map_float(cur)
    diag = tuple(mm[i][i] for i in range(len(mm)))
    crit, lam = is_critical(cur, tol=1e-6)
    return FlowResult(cur, diag, tuple(sorted(diag)), crit, lam, it)
