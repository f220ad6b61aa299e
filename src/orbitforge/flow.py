"""The binary64 Newton solver for the moment equation.

The exact modules decide *whether* a critical point exists; this module finds
the diagonal group element reaching it.  On a nice space the moment equation
mm_a(exp(X).w) = beta is the gradient of the strictly convex function

    phi(X) = log sum_i c_i e^{2<X, alpha_i>} - 2<beta, X>,

so Newton's method with backtracking converges globally.  phi is flat
orthogonally to the weight differences alpha_i - alpha_0, so X is searched on
their span, whose basis is computed exactly and orthonormalized in binary64.
Everything runs on plain Python floats: the search space has at most n - 1
dimensions, and a small Cholesky factorization solves each Newton system.
``_newton`` runs on the class masses (``reps.weight_masses``), and
``solve_moment_equation`` checks beta on them first.
"""

from __future__ import annotations

from math import exp, log
from typing import NamedTuple

from . import _exact
from .ratgeom import PointSet, Vec, interior_certificate, mcc
from .reps import RepVector, weight_classes, weight_masses

ARMIJO = 1e-4
NEWTON_TOL = 1e-12
MAX_ITERS = 50


def _dot(u, v) -> float:
    return sum(a * b for a, b in zip(u, v))


def _orthonormal_rows(rows) -> list:
    """Gram-Schmidt on linearly independent rows, in binary64."""
    out = []
    for row in rows:
        v = [float(t) for t in row]
        for q in out:
            d = _dot(q, v)
            v = [a - d * b for a, b in zip(v, q)]
        norm = _dot(v, v) ** 0.5
        out.append([a / norm for a in v])
    return out


def _cholesky_solve(h, rhs):
    """Solution of h s = rhs via h = L L^T, or None if a pivot is not positive."""
    k = len(rhs)
    low = [[0.0] * k for _ in range(k)]
    for j in range(k):
        pivot = h[j][j] - _dot(low[j], low[j])
        if pivot <= 0.0:
            return None
        low[j][j] = pivot ** 0.5
        for i in range(j + 1, k):
            low[i][j] = (h[i][j] - _dot(low[i], low[j])) / low[j][j]
    # Forward substitution L y = rhs, then back substitution L^T s = y.
    y = []
    for i in range(k):
        y.append((rhs[i] - _dot(low[i], y)) / low[i][i])
    s = [0.0] * k
    for i in reversed(range(k)):
        s[i] = (y[i] - _dot([row[i] for row in low], s)) / low[i][i]
    return s


class NewtonResult(NamedTuple):
    x: tuple                 # diagonal element, length-n floats
    residual: float          # |sum p_i alpha_i - beta| at the solution
    iterations: int
    hessian_psd_ok: bool     # False if a Cholesky pivot failed (gradient step taken)
    subspace: tuple          # orthonormal rows spanning the non-degenerate directions


def solve_moment_equation(w: RepVector, beta, subgroup: str = "gl") -> NewtonResult:
    """Newton solve of mm_a(exp(X).w) = beta over the diagonal subalgebra of
    the acting group, "gl" or "sp" (whose weights are sp-projected).

    ``beta`` must be mcc of the (projected) support and lie in the relative
    interior of its hull; otherwise no solution exists and a ValueError is
    raised.  Weights, masses and the search space are prepared exactly; only
    the Newton iteration itself runs in binary64.
    """
    if subgroup not in ("gl", "sp"):
        raise ValueError("unknown subgroup %r" % subgroup)
    n = w.backend.n
    beta = Vec(beta)
    m = n // 2 if subgroup == "sp" else None
    masses = weight_masses(w.backend, weight_classes(w.backend, dict(w.sorted_terms()), m))
    sup = PointSet(masses)
    if mcc(sup) != beta:
        raise ValueError("beta is not the mcc of the support")
    if interior_certificate(sup, beta) is None:
        raise ValueError("beta is not in the relative interior: no solution")
    return _newton(masses, beta, n)


def _newton(masses: dict, beta: Vec, n: int) -> NewtonResult:
    """Newton on class masses {weight: mass} in R^n; beta is their interior mcc."""
    alphas = sorted(masses)
    c0 = [float(masses[a]) for a in alphas]

    # phi is flat orthogonally to the weight differences alpha_i - alpha_0
    # (sp-diagonal for sp), so X = sum_k z_k q_k over an orthonormal basis q
    # of their span; sum p_i alpha_i - beta lies there too, so |gap| is the
    # residual.  <X, alpha_i> = z . coords[i] and <X, beta> = z . target.
    echelon, pivots = _exact.rref([al - alphas[0] for al in alphas[1:]])
    basis = _orthonormal_rows(echelon[:len(pivots)])
    coords = [[_dot(q, (float(t) for t in al)) for q in basis] for al in alphas]
    target = [_dot(q, (float(t) for t in beta)) for q in basis]
    k = len(basis)

    def state(z):
        expo = [2.0 * _dot(a, z) for a in coords]
        shift = max(expo)
        ws = [c * exp(e - shift) for c, e in zip(c0, expo)]
        total = sum(ws)
        return [wt / total for wt in ws], log(total) + shift - 2.0 * _dot(target, z)

    def moments(p):
        mean = [sum(pi * a[r] for pi, a in zip(p, coords)) for r in range(k)]
        gap = [m - b for m, b in zip(mean, target)]
        return mean, gap, _dot(gap, gap) ** 0.5

    z = [0.0] * k
    p, phi = state(z)
    mean, gap, res = moments(p)
    psd_ok = True
    iters = 0
    while res > NEWTON_TOL and iters < MAX_ITERS:
        grad = [2.0 * g for g in gap]
        hess = [[4.0 * (sum(pi * a[r] * a[s] for pi, a in zip(p, coords))
                        - mean[r] * mean[s]) for s in range(k)] for r in range(k)]
        step = _cholesky_solve(hess, [-g for g in grad])
        if step is None:
            psd_ok = False
            step = [-g for g in grad]
        # Once -grad . step (the squared Newton decrement, twice the predicted
        # phi decrease) is below float noise, backtracking cannot see a
        # decrease and would stall; take the full step there.
        slope = _dot(grad, step)
        t = 1.0
        while True:
            trial = [a + t * b for a, b in zip(z, step)]
            p_new, phi_new = state(trial)
            if (-slope <= 1e-12 or t < 1e-14
                    or phi_new <= phi + ARMIJO * t * slope):
                break
            t *= 0.5
        z, p, phi = trial, p_new, phi_new
        mean, gap, res = moments(p)
        iters += 1

    x = [sum((zk * q[i] for zk, q in zip(z, basis)), 0.0) for i in range(n)]
    return NewtonResult(tuple(x), res, iters, psd_ok, tuple(tuple(q) for q in basis))
