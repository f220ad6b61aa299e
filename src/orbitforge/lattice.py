"""Restricted roots and diagonal subalgebras for GL_n(R) and Sp(2m,R).

Diagonal matrices are identified with vectors throughout; the trace form on
diagonals is then the standard dot product.  The symplectic form is fixed to
the antidiagonal pairing  omega = sum_i e_i^* wedge e_{2m+1-i}^*, so the
diagonal part of sp(2m,R) is the set of patterns (a_1,...,a_m,-a_m,...,-a_1).
The roots and their root-space generators come from one loop over matrix
positions, run once per ``RootSystem``, whose ``spaces`` table maps each root
to its generator, a tuple of sparse (a, b, x) entries.  A root is an
exact tuple: a plain tuple of integers for gl, and a ``Vec`` (a tuple
subclass) of ``Fraction`` halves for sp.  Since ``Fraction(k)`` and ``k``
compare and hash equal, a ``Vec``, a list or an integer tuple with the same
entries is the same root.  SL_n(R) has gl_n's roots, so none is named sl.
"""

from __future__ import annotations

from .ratgeom import Vec


class RootSystem:
    """The roots of a diagonal subalgebra, closed under negation, and their root spaces.

    ``spaces`` maps each root to the generator of its root space, a tuple of
    sparse (a, b, x) entries.  GL_n and Sp(2m,R) are split, so each root
    space is a line: the position loop ``_root_spaces`` yields exactly one
    generator per root.  ``roots`` is the frozenset of the roots, exact tuples
    (integers for gl, a Vec of Fraction halves for sp); membership
    takes any sequence of the same entries, and ``spaces`` any tuple of them.
    """

    __slots__ = ("n", "spaces", "subgroup", "roots")

    def __init__(self, n: int, spaces: dict, subgroup: str):  # "gl" | "sp"
        if subgroup not in ("gl", "sp"):
            raise ValueError("unknown subgroup %r" % subgroup)
        roots = frozenset(spaces)
        if (0,) * n in roots:
            raise ValueError("0 is not a root")
        if any(tuple(-x for x in r) not in roots for r in roots):
            raise ValueError("root set must be closed under negation")
        for name, value in zip(self.__slots__, (n, spaces, subgroup, roots)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("RootSystem is immutable")

    def __eq__(self, other):
        return type(other) is RootSystem and (self.n, self.spaces, self.subgroup) == (
            other.n, other.spaces, other.subgroup)

    def __hash__(self):
        return hash((self.n, self.roots, self.subgroup))

    def __contains__(self, v) -> bool:
        return tuple(v) in self.roots


def projection(roots: RootSystem) -> int | None:
    """m for the sp(2m) weight projection of the roots' group, or None for gl."""
    return roots.n // 2 if roots.subgroup == "sp" else None


def _root_spaces(n: int, subgroup: str):
    """(root, generator) pairs spanning the root spaces, from matrix positions.

    gl: position (a, b), a != b, gives the root e_a - e_b and E_ab.  sp
    (n = 2m): M^T J + J M = 0 pairs (a, b) with (n-1-b, n-1-a) (the same
    position when b = n-1-a), and each pair gives the projected root and
    E_ab - sgn(a) sgn(b) E_{n-1-b,n-1-a}.  A generator is a tuple of sparse
    (a, b, x) entries, and a root is an integer tuple for gl and the
    projected Vec for sp.
    """
    m = n // 2
    for a in range(n):
        for b in range(n):
            pair = (n - 1 - b, n - 1 - a)
            if a == b or (subgroup == "sp" and (a, b) > pair):
                continue
            e = [0] * n
            e[a], e[b] = 1, -1
            if subgroup != "sp":
                yield tuple(e), ((a, b, 1),)
                continue
            x = -sp_sign(a, m) * sp_sign(b, m)
            gen = ((a, b, 1 + x),) if (a, b) == pair else ((a, b, 1), pair + (x,))
            yield project_to_sp_diag(e, m), gen


def gl_roots(n: int) -> RootSystem:
    """Roots gamma_ab = e_a - e_b of gl_n, which are also those of sl_n."""
    if n < 1:
        raise ValueError("n must be positive")
    return RootSystem(n, dict(_root_spaces(n, "gl")), "gl")


def sp_diag_roots(m: int) -> RootSystem:
    """Restricted roots of sp(2m,R) for the antidiagonal symplectic form.

    In terms of the coordinate functionals eps_i on the diagonal patterns,
    these are +-2 eps_i and +-eps_i +- eps_j (i < j); 2m^2 roots in total.
    """
    if m < 1:
        raise ValueError("m must be positive")
    return RootSystem(2 * m, dict(_root_spaces(2 * m, "sp")), "sp")


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
