"""Reference implementations that the tests compare the package against.

None of these runs on a CLI or library path; each is an independent route to
a quantity the package computes another way:

* ``ricci``: 4 Ric = |mu|^2 mm, against the closed-form moment map;
* ``gram`` and ``positive_solution``: the Gram criterion, against the
  relative-interior test;
* ``sym_sp_basis``: a nullspace basis of sym(2m) intersect sp(2m), against
  the closed-form ``reps.project_sym_sp``;
* ``group_scale``, ``apply_elementary``, ``apply_matrix`` and ``inner``: the
  exact group and Lie-algebra actions and the inner product, for the action
  and adjointness checks, with ``vector_sub`` and ``sym_scale`` for the
  differences and multiples these checks compare;
* ``scale_by_diag`` and ``moment_map_float``: the binary64 diagonal action
  and moment map on a plain {basis index: float} map, the float check of
  Newton solutions, and ``project_to_subspace``, which compares Newton
  solutions modulo the directions the moment equation cannot see;
* ``family_member``: one mass vector of a critical coefficient family;
* ``image_pairs`` and ``nice_by_images``: niceness from the images of every
  root-space generator on every basis vector, against ``nicecrit.is_nice``,
  which reads the weights and the root set alone;
* ``torus_diagonal``: the torus test as a scan over every root, root-space
  generator and term, against the pairwise test behind
  ``nicecrit.orbit_verdict``;
* ``solve``: one exact solution of a linear system, by one ``rref`` of the
  augmented matrix, for normal equations the package solves another way;
* ``of_basis`` and ``rational``: a bracket's value on two basis vectors, and
  the rational value of a ``Coeff``, for the reference computations.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import exp

from orbitforge import _exact
from orbitforge.coeffs import Coeff, IrrationalError
from orbitforge.lattice import sp_sign
from orbitforge.ratgeom import PointSet, Vec, interior_certificate, mcc
from orbitforge.reps import RepVector, SymMatrix, apply_terms, moment_parts, weight_of


def solve(rows, rhs):
    """One exact solution of A x = b, or None if inconsistent."""
    if not rows:
        return []
    red, pivots = _exact.rref([list(row) + [b] for row, b in zip(rows, rhs)])
    ncols = len(rows[0])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = red[r][ncols]
    return x


def of_basis(mu, i: int, j: int) -> dict:
    """mu(e_i, e_j) as a map k -> Coeff."""
    sign = 1
    if i == j:
        return {}
    if i > j:
        i, j, sign = j, i, -1
    return {k: sign * c for (a, b, k), c in mu.vector.terms.items() if (a, b) == (i, j)}


def rational(c: Coeff) -> Fraction:
    """The value of ``c`` as a rational; IrrationalError if it has a square root."""
    if c.s != 1:
        raise IrrationalError("irrational value %r" % c)
    return c.r


def ricci(mu) -> SymMatrix:
    """Ricci operator of the metric Lie algebra (R^n, mu, canonical metric).

    Ric_ab = -1/2 sum <mu(e_a,e_i),e_j><mu(e_b,e_i),e_j>
             + 1/4 sum <mu(e_i,e_j),e_a><mu(e_i,e_j),e_b>
    with both sums over ordered pairs (i, j).  Satisfies the exact identity
    moment_map(mu) * |mu|^2 = 4 Ric for nonzero mu.  Raises IrrationalError
    when mixed radicands meet in one entry.
    """
    n = mu.n
    if not mu.vector.terms:
        return SymMatrix([[0] * n for _ in range(n)])
    entries = [[Fraction(0)] * n for _ in range(n)]
    values = {}
    for i in range(n):
        for j in range(n):
            values[(i, j)] = of_basis(mu, i, j)
    for a in range(n):
        for b in range(a, n):
            total = Coeff(0)
            for i in range(n):
                va, vb = values[(a, i)], values[(b, i)]
                for j, ca in va.items():
                    cb = vb.get(j)
                    if cb is not None:
                        total = total + Fraction(-1, 2) * ca * cb
            for i in range(n):
                for j in range(n):
                    v = values[(i, j)]
                    ca, cb = v.get(a), v.get(b)
                    if ca is not None and cb is not None:
                        total = total + Fraction(1, 4) * ca * cb
            entries[a][b] = entries[b][a] = rational(total)
    return SymMatrix(entries)


def gram(weights: PointSet) -> SymMatrix:
    """Symmetric matrix of pairwise inner products of an ordered weight set."""
    return SymMatrix([[p.dot(q) for q in weights] for p in weights])


def positive_solution(u: SymMatrix, weights: PointSet):
    """Strictly positive x with U x = lambda [1..1], or None.

    Solved through convex geometry rather than a direct linear solve (U may
    be singular): beta = mcc(weights) and a strict relative-interior
    certificate for beta.  Returns (x, lambda) with sum x = 1 and
    lambda = |beta|^2.
    """
    if u != gram(weights):
        raise ValueError("Gram matrix does not match the weight set")
    beta = mcc(weights)
    cert = interior_certificate(weights, beta)
    if cert is None:
        return None
    lam = beta.norm_sq()
    for p in range(len(weights)):
        if sum(u[p, q] * cert[q] for q in range(len(weights))) != lam:
            raise AssertionError("certificate fails the Gram equation")
    return cert, lam


def _sym_basis(n: int):
    pairs = [(i, j) for i in range(n) for j in range(i, n)]

    def embed(vec):
        m = [[Fraction(0)] * n for _ in range(n)]
        for (i, j), x in zip(pairs, vec):
            m[i][j] = m[j][i] = Fraction(x)
        return m

    return pairs, embed


def sym_sp_basis(m: int) -> list[SymMatrix]:
    """Basis of the symmetric part of sp(2m,R) for the antidiagonal form."""
    n = 2 * m
    jmat = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        jmat[i][n - 1 - i] = Fraction(sp_sign(i, m))
    pairs, embed = _sym_basis(n)
    rows = []
    # Condition S J + J S = 0, entrywise, as linear equations in the S_ij.
    for a in range(n):
        for b in range(n):
            row = []
            for (i, j) in pairs:
                val = Fraction(0)
                for k in range(n):
                    s_ak = Fraction(1) if (a, k) in ((i, j), (j, i)) else Fraction(0)
                    s_kb = Fraction(1) if (k, b) in ((i, j), (j, i)) else Fraction(0)
                    val += s_ak * jmat[k][b] + jmat[a][k] * s_kb
                row.append(val)
            rows.append(row)
    return [SymMatrix(embed(vec)) for vec in _exact.nullspace(rows)]


def apply_elementary(i: int, j: int, v: RepVector) -> RepVector:
    """pi(E_ij) v (i == j allowed: the diagonal generator).

    Raises ValueError unless 0 <= i, j < n.
    """
    n = v.backend.n
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError("E_(%d,%d) is not an entry of an %d x %d matrix" % (i, j, n, n))
    return RepVector(v.backend, apply_terms(v.backend, ((i, j, 1),), v.terms))


def apply_matrix(matrix, v: RepVector) -> RepVector:
    """pi(M) v for an arbitrary rational matrix M."""
    entries = [(a, b, x) for a, row in enumerate(matrix)
               for b, x in enumerate(map(Fraction, row)) if x]
    return RepVector(v.backend, apply_terms(v.backend, entries, v.terms))


def group_scale(multipliers, v: RepVector) -> RepVector:
    """exp(X).v for X = diag(log t_i): weight-alpha terms scale by prod t_i^alpha_i.

    The multipliers t_i must be positive rationals and all weight entries
    integers, so the scaling stays exact.
    """
    ts = [Fraction(t) for t in multipliers]
    if any(t <= 0 for t in ts):
        raise ValueError("multipliers must be positive")
    out = {}
    for idx, c in v.terms.items():
        w = v.backend.weight(idx)
        factor = Fraction(1)
        for t, a in zip(ts, w, strict=True):
            if a.denominator != 1:
                raise ValueError("non-integer weight entry in exact mode")
            factor *= t ** a.numerator
        out[idx] = c * factor
    return RepVector(v.backend, out)


def vector_sub(v: RepVector, w: RepVector) -> RepVector:
    """v - w for vectors of one backend."""
    if w.backend != v.backend:
        raise ValueError("backend mismatch")
    return RepVector(v.backend, [*v.terms.items(), *((idx, -c) for idx, c in w.terms.items())])


def sym_scale(mat: SymMatrix, scalar) -> SymMatrix:
    """scalar * mat, entry by entry."""
    return SymMatrix([r * Fraction(scalar) for r in mat.rows])


def inner(v: RepVector, w: RepVector) -> Coeff:
    """<v, w> in the basis inner product: sum of c_idx d_idx |e_idx|^2."""
    if w.backend != v.backend:
        raise ValueError("backend mismatch")
    total = Coeff(0)
    for idx, c in v.sorted_terms():
        d = w.terms.get(idx)
        if d is not None:
            total = total + c * d * v.backend.basis_norm_sq(idx)
    return total


def float_norm_sq(backend, terms: dict) -> float:
    """|v|^2 of a {basis index: float} map."""
    return sum(c * c * float(backend.basis_norm_sq(idx)) for idx, c in terms.items())


def scale_by_diag(x, backend, terms: dict) -> dict:
    """exp(diag(x)).v as {basis index: float}: the weight-alpha term scales by e^<x,alpha>."""
    return {idx: float(c) * exp(sum(float(a) * float(t)
                                    for a, t in zip(backend.weight(idx), x)))
            for idx, c in terms.items()}


def moment_map_float(backend, terms: dict):
    """Moment map of v in binary64, as an n x n list of rows.

    ``terms`` maps basis indices to anything ``float`` accepts.
    """
    terms = {idx: float(c) for idx, c in terms.items()}
    return moment_parts(backend, terms, float_norm_sq(backend, terms))[1]


def project_to_subspace(result, y) -> Vec:
    """Component of a diagonal vector y in a Newton result's search space."""
    out = [0.0] * len(y)
    for q in result.subspace:
        d = sum(a * float(t) for a, t in zip(q, y))
        out = [a + d * b for a, b in zip(out, q)]
    return Vec(out)


def family_member(family, params) -> tuple:
    """The mass vector particular + sum params_k kernel_k of a CriticalFamily."""
    c = list(family.particular)
    for t, k in zip(params, family.kernel, strict=True):
        c = [ci + Fraction(t) * ki for ci, ki in zip(c, k)]
    if any(ci < 0 for ci in c):
        raise ValueError("parameters leave the nonnegative orthant")
    return tuple(c)


@lru_cache(maxsize=None)
def image_pairs(backend, roots) -> frozenset:
    """Ordered (sp-projected) weight pairs (p, q) such that a root-space
    generator sends a basis vector of weight p to a vector with a component
    of weight q."""
    m = roots.n // 2 if roots.subgroup == "sp" else None
    pairs = set()
    for idx in backend.all_indices():
        p = weight_of(backend, idx, m)
        for gen in roots.spaces.values():
            pairs.update((p, weight_of(backend, t, m))
                         for t in apply_terms(backend, gen, {idx: 1}))
    return frozenset(pairs)


def nice_by_images(weights, backend, roots) -> bool:
    """Whether the span of all basis vectors with these weights is nice: no
    root-space generator sends a basis vector of the span to a vector with a
    component on the span."""
    pairs = image_pairs(backend, roots)
    return not any((p, q) in pairs for p in weights for q in weights)


def torus_diagonal(v: RepVector, roots) -> bool:
    """Whether mm(t.v) is diagonal for every t in the diagonal torus of the roots' group.

    The off-diagonal entries of mm are <pi(X) v, v> / |v|^2 over the root
    space generators X.  Under t = exp(H) a summand of basis indices idx and
    new in X's root space gamma scales by exp<H, 2 p(alpha_idx) + gamma>,
    p the sp projection (the identity for gl and sl), and exponentials of
    distinct patterns are linearly independent, as are square roots of
    distinct squarefree integers.  So the summands, grouped by
    (gamma, p(alpha_idx), radicand), must each sum to 0.
    """
    m = roots.n // 2 if roots.subgroup == "sp" else None
    groups: dict = {}
    for gamma, gen in roots.spaces.items():
        for idx, c in v.terms.items():
            w = weight_of(v.backend, idx, m)
            for new, y in apply_terms(v.backend, gen, {idx: c}).items():
                d = v.terms.get(new)
                if d is not None:
                    z = y * d * v.backend.basis_norm_sq(new)
                    key = (gamma, w, z.s)
                    groups[key] = groups.get(key, 0) + z.r
    return not any(groups.values())
