"""Representation backends: n-ary forms and Lie brackets, with moment maps.

Two concrete GL_n(R)-representations are supported:

* ``poly(n, d)`` -- homogeneous degree-d polynomials in n variables, acting by
  linear substitution; monomials are orthogonal with squared norm d_1!...d_n!.
  A monomial with exponents (d_1,...,d_n) has weight -(d_1,...,d_n).
* ``bracket(n)`` -- antisymmetric bilinear maps Lambda^2(R^n)* (x) R^n acting
  by change of basis; the basis bracket mu_{ij}^k (i < j) has weight
  e_k - e_i - e_j and squared norm 2 (the inner product sums over ordered
  index pairs).

Each backend has one action primitive, ``act(a, b, idx)``: pi(E_ab) on one
basis index, as at most three (index, integer factor) pairs.  The sparse
``apply_terms``, which takes a matrix as its nonzero (a, b, x) entries (the
form of the root-space generators in ``RootSystem.spaces``), and the closed-form moment map
mm_ab = <pi(E_ab)v, v> / |v|^2 use nothing else of the action; the acting
group's moment map projects it (identity for gl, ``project_sym_sp`` for sp).

``weight_classes(backend, terms, m)`` groups basis indices by their weight,
projected to the sp(2m) diagonal when m is given: {weight: {idx: coeff}}.
It is the one grouping.  ``is_distinguished``'s membership check, the torus
test, the supports, ``weight_masses`` (each class's mass sum c^2 |e_idx|^2,
for the Newton solve) and the minimal metric's critical bracket all read it.

Vectors are sparse maps from basis index to an exact coefficient (rational or
a single square root, see ``coeffs``), so that moment maps and criticality
identities are computed without any rounding.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial
from typing import Iterable, NamedTuple, Optional

from .coeffs import Coeff, IrrationalError
from .lattice import RootSystem, gl_roots, project_to_sp_diag, projection, sp_sign
from .ratgeom import PointSet, Vec


class SymMatrix:
    """Exact rational symmetric matrix (diagonal identified with a Vec)."""

    def __init__(self, rows: Iterable[Iterable]):
        self.rows = tuple(Vec(r) for r in rows)
        n = len(self.rows)
        if any(r.dim != n for r in self.rows):
            raise ValueError("matrix must be square")
        for i in range(n):
            for j in range(i):
                if self.rows[i][j] != self.rows[j][i]:
                    raise ValueError("matrix must be symmetric")
        self.n = n

    @classmethod
    def diagonal(cls, entries) -> "SymMatrix":
        d = Vec(entries)
        return cls([[d[i] if i == j else 0 for j in range(d.dim)] for i in range(d.dim)])

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self.rows[i][j]

    def diag(self) -> Vec:
        return Vec(self.rows[i][i] for i in range(self.n))

    def is_diagonal(self) -> bool:
        return all(self.rows[i][j] == 0
                   for i in range(self.n) for j in range(self.n) if i != j)

    def trace_inner(self, other: "SymMatrix") -> Fraction:
        return sum((self.rows[i][j] * other.rows[i][j]
                    for i in range(self.n) for j in range(self.n)), Fraction(0))

    def norm_sq(self) -> Fraction:
        return self.trace_inner(self)

    def __add__(self, other):
        return SymMatrix([a + b for a, b in zip(self.rows, other.rows)])

    def __eq__(self, other):
        return isinstance(other, SymMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return "SymMatrix(%r)" % (self.rows,)


class PolyBackend(NamedTuple):
    """R[x_1..x_n]_d under linear substitution; ``check_index`` returns (exponents, 1)."""

    n: int
    d: int
    kind: str = "poly"

    def check_index(self, idx) -> tuple:
        idx = tuple(int(e) for e in idx)
        if len(idx) != self.n or any(e < 0 for e in idx) or sum(idx) != self.d:
            raise ValueError("bad monomial exponents %r for poly(%d,%d)"
                             % (idx, self.n, self.d))
        return idx, 1

    def weight(self, idx) -> Vec:
        return Vec(-e for e in idx)

    def basis_norm_sq(self, idx) -> Fraction:
        out = 1
        for e in idx:
            out *= factorial(e)
        return Fraction(out)

    def all_indices(self) -> list:
        """Every exponent tuple, in lexicographic order."""
        return sorted(tuple(map(c.count, range(self.n)))
                      for c in combinations_with_replacement(range(self.n), self.d))

    def act(self, a: int, b: int, idx) -> list:
        """pi(E_ab) x^idx = -x_b d/dx_a x^idx = -idx_a x^(idx - e_a + e_b)."""
        if idx[a] == 0:
            return []
        new = list(idx)
        new[a] -= 1
        new[b] += 1
        return [(tuple(new), -idx[a])]


class BracketBackend(NamedTuple):
    """Lambda^2(R^n)* (x) R^n under change of basis; ``check_index`` returns
    ((i, j, k), 1) for i < j and ((j, i, k), -1) for i > j, as mu_ji^k = -mu_ij^k."""

    n: int
    kind: str = "bracket"

    def check_index(self, idx) -> tuple:
        i, j, k = (int(x) for x in idx)
        bad = not (0 <= i < self.n and 0 <= j < self.n and 0 <= k < self.n)
        if bad or i == j:
            raise ValueError("bad bracket index %r for bracket(%d)" % (idx, self.n))
        return ((i, j, k), 1) if i < j else ((j, i, k), -1)

    def weight(self, idx) -> Vec:
        i, j, k = idx
        entries = [0] * self.n
        entries[k] += 1
        entries[i] -= 1
        entries[j] -= 1
        return Vec(entries)

    def basis_norm_sq(self, idx) -> Fraction:
        return Fraction(2)

    def all_indices(self):
        for i in range(self.n):
            for j in range(i + 1, self.n):
                for k in range(self.n):
                    yield (i, j, k)

    def act(self, a: int, b: int, idx) -> list:
        """pi(E_ab) mu_ij^k = [b=k] mu_ij^a - [a=i] mu_bj^k - [a=j] mu_ib^k.

        From (A.mu)(x, y) = A mu(x, y) - mu(Ax, y) - mu(x, Ay); each mu_pq^r
        is normalised to p < q (mu_qp^r = -mu_pq^r, mu_pp^r = 0).
        """
        i, j, k = idx
        out = [((i, j, a), 1)] if b == k else []
        if a == i:
            out.append(((b, j, k), -1))
        if a == j:
            out.append(((i, b, k), -1))
        return [((q, p, r), -f) if p > q else ((p, q, r), f)
                for (p, q, r), f in out if p != q]


def _accumulate(terms: dict, idx, coeff) -> None:
    cur = terms.get(idx)
    new = coeff if cur is None else cur + coeff
    if new == 0:
        terms.pop(idx, None)
    else:
        terms[idx] = new


class RepVector:
    """Sparse element of a representation space with exact coefficients."""

    def __init__(self, backend, items):
        self.backend = backend
        self.terms: dict = {}
        for idx, c in (items.items() if isinstance(items, dict) else items):
            idx, sign = backend.check_index(idx)
            _accumulate(self.terms, idx, Coeff(c) if sign > 0 else -Coeff(c))

    @classmethod
    def poly(cls, n: int, d: int, items) -> "RepVector":
        return cls(PolyBackend(n, d), items)

    @classmethod
    def bracket(cls, n: int, items) -> "RepVector":
        return cls(BracketBackend(n), items)

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self):
        return sorted(self.terms.items())

    def scale(self, factor) -> "RepVector":
        factor = Coeff(factor) if not isinstance(factor, Coeff) else factor
        return RepVector(self.backend,
                         {idx: c * factor for idx, c in self.terms.items()})

    def __eq__(self, other):
        return (isinstance(other, RepVector) and other.backend == self.backend
                and other.terms == self.terms)

    def norm_sq(self) -> Fraction:
        return norm_sq(self.backend, self.terms)

    def __repr__(self):
        return "RepVector(%r, %r)" % (self.backend, self.sorted_terms())


def norm_sq(backend, terms: dict) -> Fraction:
    """sum c^2 |e_idx|^2 over a sparse map basis index -> Coeff: |v|^2, or a class mass."""
    return sum((c.square() * backend.basis_norm_sq(idx) for idx, c in terms.items()),
               Fraction(0))


def weight_of(backend, idx, m: Optional[int] = None) -> Vec:
    """Weight of one basis index, projected to the sp(2m) diagonal when m is given."""
    w = backend.weight(idx)
    return w if m is None else project_to_sp_diag(w, m)


def weight_classes(backend, terms: dict, m: Optional[int] = None) -> dict:
    """{(projected) weight: {idx: coeff}} for a map basis index -> coefficient.

    Weights, and the indices within each class, keep the order of ``terms``.
    """
    classes: dict = {}
    for idx, c in terms.items():
        classes.setdefault(weight_of(backend, idx, m), {})[idx] = c
    return classes


def weight_masses(backend, classes: dict) -> dict:
    """{weight: class mass sum c^2 |e_idx|^2} for ``weight_classes``, in its order."""
    return {w: norm_sq(backend, part) for w, part in classes.items()}


def support(v: RepVector) -> PointSet:
    """Ordered set of distinct weights carried by the nonzero terms."""
    if v.is_zero():
        raise ValueError("empty support: zero vector")
    return PointSet(weight_classes(v.backend, dict(v.sorted_terms())))


def support_projected(v: RepVector, m: Optional[int]) -> PointSet:
    """Distinct weights, projected to the sp(2m) diagonal when m is given."""
    return PointSet(weight_classes(v.backend, dict(v.sorted_terms()), m))


def apply_terms(backend, entries, terms: dict) -> dict:
    """pi(M) on a sparse map basis index -> coefficient, through ``backend.act``.

    M is given by its nonzero entries, as (a, b, x) triples.  Coefficients and
    entries may be Coeff, Fraction, int or float; their products set the
    scalar type of the result.  Coeff images of distinct radicands that meet
    on one index raise IrrationalError.
    """
    out: dict = {}
    for idx, c in terms.items():
        for a, b, x in entries:
            for new, f in backend.act(a, b, idx):
                _accumulate(out, new, c * (x * f))
    return out


def moment_parts(backend, terms: dict, nsq) -> dict:
    """mm_ab = <pi(E_ab)v, v> / |v|^2 for a sparse coefficient map, by radicand.

    One pass over the terms for a <= b, mirrored: pi(X)^T = pi(X^T) makes mm
    symmetric.  A Coeff summand r*sqrt(s) adds r to the part under key s;
    Fraction and float summands go to key 1.  Square roots of distinct
    squarefree integers are independent over Q, so an entry is zero exactly
    when each of its parts is.  Returns {s: n x n list of rows}.
    """
    if not nsq:
        raise ValueError("moment map of the zero vector")
    n = backend.n
    parts: dict = {}
    for idx, c in terms.items():
        for a in range(n):
            for b in range(a, n):
                for new, f in backend.act(a, b, idx):
                    d = terms.get(new)
                    if d is not None:
                        x = c * d * (f * backend.basis_norm_sq(new))
                        s, x = (x.s, x.r) if isinstance(x, Coeff) else (1, x)
                        parts.setdefault(s, [[0] * n for _ in range(n)])[a][b] += x
    return {s: [[p[min(a, b)][max(a, b)] / nsq for b in range(n)] for a in range(n)]
            for s, p in parts.items()}


def moment_map(v: RepVector) -> SymMatrix:
    """The moment-map value mm(v): <mm(v), S> = <pi(S)v, v> / |v|^2.

    Raises IrrationalError when an entry is irrational (mixed radicands).
    """
    return moment_map_restricted(v, gl_roots(v.backend.n))


def project_sym_sp(mat: SymMatrix, m: int) -> SymMatrix:
    """Orthogonal (trace form) projection onto sym(2m) intersect sp(2m).

    S -> J S J is an isometric involution of sym(2m) whose fixed space is
    {S J + J S = 0}, so the projection is (S + J S J) / 2, with entries
    (J S J)_ab = -sgn(a) sgn(b) S_{n-1-a, n-1-b}, sgn = ``lattice.sp_sign``.
    """
    n = 2 * m
    sgn = [sp_sign(i, m) for i in range(n)]
    s = mat.rows
    return SymMatrix([[(s[a][b] - sgn[a] * sgn[b] * s[n - 1 - a][n - 1 - b]) / 2
                       for b in range(n)] for a in range(n)])


def moment_map_restricted(v: RepVector, roots: RootSystem) -> SymMatrix:
    """mm for the group of ``roots``: mm(v) for gl, its projection onto the
    symmetric part of sp(2m,R) for sp.  Raises ValueError when v and the roots
    differ in dimension, IrrationalError only for an irrational entry.
    """
    n, m = v.backend.n, projection(roots)
    if roots.n != n:
        raise ValueError("vector and root system dimensions differ")
    # pi(E_ab) kills a constant form, which leaves no part: mm = 0.
    parts = {1: [[0] * n for _ in range(n)], **moment_parts(v.backend, v.terms, v.norm_sq())}
    parts = {s: SymMatrix(p) if m is None else project_sym_sp(SymMatrix(p), m)
             for s, p in parts.items()}
    for s, part in parts.items():
        if s != 1 and part.norm_sq() != 0:
            raise IrrationalError("moment-map entries with a sqrt(%d) part" % s)
    return parts[1]
