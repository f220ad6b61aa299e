"""Restricted roots and diagonal subalgebras for GL_n(R), SL_n(R), Sp(2m,R).

Diagonal matrices are identified with vectors throughout; the trace form on
diagonals is then the standard dot product.  The symplectic form is fixed to
the antidiagonal pairing  omega = sum_i e_i^* wedge e_{2m+1-i}^*, so the
diagonal part of sp(2m,R) is the set of patterns (a_1,...,a_m,-a_m,...,-a_1).
"""

from __future__ import annotations

from fractions import Fraction

from .ratgeom import Vec


class RootSystem:
    """The root set of a diagonal subalgebra, closed under negation."""

    __slots__ = ("n", "roots", "subgroup")

    def __init__(self, n: int, roots: frozenset, subgroup: str):  # "gl" | "sl" | "sp"
        if Vec([0] * n) in roots:
            raise ValueError("0 is not a root")
        if any(-r not in roots for r in roots):
            raise ValueError("root set must be closed under negation")
        for name, value in zip(self.__slots__, (n, roots, subgroup)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("RootSystem is immutable")

    def __eq__(self, other):
        return type(other) is RootSystem and (self.n, self.roots, self.subgroup) == (
            other.n, other.roots, other.subgroup)

    def __hash__(self):
        return hash((self.n, self.roots, self.subgroup))

    def __contains__(self, v) -> bool:
        return Vec(v) in self.roots


def gl_roots(n: int) -> RootSystem:
    """Roots gamma_ij = E_ii - E_jj of gl_n (equal to those of sl_n)."""
    if n < 1:
        raise ValueError("n must be positive")
    roots = set()
    for i in range(n):
        for j in range(n):
            if i != j:
                entries = [0] * n
                entries[i], entries[j] = 1, -1
                roots.add(Vec(entries))
    return RootSystem(n, frozenset(roots), "gl")


def sl_roots(n: int) -> RootSystem:
    rs = gl_roots(n)
    return RootSystem(rs.n, rs.roots, "sl")


def _eps_vector(i: int, m: int) -> Vec:
    # The element of a_omega pairing to the i-th coordinate under the trace form.
    entries = [Fraction(0)] * (2 * m)
    entries[i] = Fraction(1, 2)
    entries[2 * m - 1 - i] = Fraction(-1, 2)
    return Vec(entries)


def sp_diag_roots(m: int) -> RootSystem:
    """Restricted roots of sp(2m,R) for the antidiagonal symplectic form.

    In terms of the coordinate functionals eps_i on the diagonal patterns,
    these are +-2 eps_i and +-eps_i +- eps_j (i < j); 2m^2 roots in total.
    """
    if m < 1:
        raise ValueError("m must be positive")
    roots = set()
    eps = [_eps_vector(i, m) for i in range(m)]
    for i in range(m):
        roots.add(2 * eps[i])
        roots.add(-2 * eps[i])
    for i in range(m):
        for j in range(i + 1, m):
            for si in (1, -1):
                for sj in (1, -1):
                    roots.add(si * eps[i] + sj * eps[j])
    return RootSystem(2 * m, frozenset(roots), "sp")


def sp_sign(i: int, m: int) -> int:
    """J_{i, 2m-1-i}, the one nonzero entry in row i of the antidiagonal form J."""
    return 1 if i < m else -1


def project_to_sp_diag(w, m: int) -> Vec:
    """Orthogonal (trace form) projection onto the sp diagonal patterns."""
    w = Vec(w)
    if w.dim != 2 * m:
        raise ValueError("vector must have dimension 2m")
    half = [(w[i] - w[2 * m - 1 - i]) / 2 for i in range(m)]
    return Vec(half + [-h for h in reversed(half)])


def chamber_canonical(w) -> Vec:
    """Weyl-chamber representative: coordinates sorted ascending."""
    return Vec(sorted(Vec(w)))


def sp_chamber_canonical(w, m: int) -> Vec:
    """Canonical form under the sp Weyl group (permute and flip eps signs)."""
    w = Vec(w)
    if w != project_to_sp_diag(w, m):
        raise ValueError("vector is not an sp diagonal pattern")
    half = sorted((abs(w[i]) for i in range(m)), reverse=True)
    return Vec([-h for h in half] + [h for h in reversed(half)])


def is_root_difference(a, b, rs: RootSystem) -> bool:
    """True iff a - b is a root of ``rs``."""
    return (Vec(a) - Vec(b)) in rs
