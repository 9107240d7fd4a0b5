"""First-order tangent data for lines (and small planes) inside a hypersurface.

For a k-plane L contained in X = Z(P) the first-order deformations of L
inside X form the kernel of a linear map

    sigma : L^* (x) W/L  ->  S^d L^*,   y (x) w  |->  y . (w -| P)|_L,

where (w -| P) is the directional derivative of P along w.  sigma has one
construction, sigma_plane, with one restriction of P; a line E = span(e1, e2)
is its case k = 1.  The basis fixes everything: y_0, ..., y_k (alpha^1,
alpha^2 on a line) is its dual basis and the w_j are the standard basis
vectors at the non-pivot columns of its rref.  Rows are indexed by
y_i (x) w_j, y_0 block first; columns by the degree-d monomials in the y's,
descending lexicographic (s^d, s^(d-1) t, ..., t^d on a line).  A line's
alpha^1 rows are (w_j -| P)|_E times s, so Pi and the chain generators
(ideal.extract_generators) read those forms off sigma.

Pi <= W/E is the subspace of directions w with (w -| P)|_E = 0: deformations
that move the line trivially to first order in every pencil direction.
sigma vanishes on E^* (x) Pi, so it induces a map on E^* (x) (W/E)/Pi whose
rows are sigma's rows at Pi's free (non-pivot) columns; its kernel is the
pencil of 2 x m matrices fed to the normal-form machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations_with_replacement

from .forms import MultiForm, _substitute
from .linalg import (Field, Subspace, _ints, kernel, rref, solve_combination,
                     unit_vectors)


class PlaneNotContained(ValueError):
    """The given linear space does not lie on the hypersurface."""


@dataclass(frozen=True)
class Hypersurface:
    """Projective hypersurface Z(P) in P^n, P a nonzero form of degree >= 1."""

    P: MultiForm

    def __post_init__(self):
        if self.P.is_zero():
            raise ValueError("defining form must be nonzero")
        if self.P.degree < 1:
            raise ValueError("defining form must have degree >= 1")
        if self.P.nvars < 2:
            raise ValueError("need an ambient projective space of dimension >= 1")

    @property
    def n(self) -> int:
        return self.P.nvars - 1

    @property
    def d(self) -> int:
        return self.P.degree

    @property
    def field(self) -> Field:
        return self.P.field

    @cached_property
    def plain_form(self) -> tuple:
        """P as (terms, p), p = 0 over Q, read once per hypersurface: each
        term (c, ((i, k), ...)) carries its coefficient as an int and its
        nonzero exponents; over Q the terms are those of D*P, D the lcm of
        P's denominators.  The gradient checks and line scans of
        fanosing.singular evaluate it on ints."""
        (coeffs,), _ = _ints([self.P.terms.values()], self.field)
        return ([(c, tuple((i, k) for i, k in enumerate(e) if k))
                 for e, c in zip(self.P.terms, coeffs)], self.field.p)


class LineFrame:
    """A line span(e1, e2) that fixes the basis of its first-order data.

    The complement w_1, ..., w_{n-1} of E in W is the standard basis vectors
    at the non-pivot columns c_1 < ... < c_{n-1} of rref(e1, e2), and
    (alpha^1, alpha^2) is the dual basis of (e1, e2): a restricted form in
    (s, t) is expressed in exactly these coordinates.  sigma, Pi and the
    pencil are therefore functions of (e1, e2) alone.
    """

    __slots__ = ("field", "e1", "e2", "complement", "_rows")

    def __init__(self, field: Field, e1, e2):
        self.field = field
        self.e1 = field.vector(e1)
        self.e2 = field.vector(e2)
        n1 = len(self.e1)
        if len(self.e2) != n1:
            raise ValueError("spanning vectors have different lengths")
        red, pivots = rref([self.e1, self.e2], field)
        if len(red) != 2:
            raise ValueError("line frame needs two independent spanning vectors")
        self._rows = tuple(red)
        self.complement = tuple(unit_vectors(
            field, n1, [c for c in range(n1) if c not in pivots]))

    @property
    def ambient_dim(self) -> int:
        return len(self.e1)

    @property
    def n(self) -> int:
        return self.ambient_dim - 1

    def line_coords(self, x):
        """(a, b) with x = a e1 + b e2, or None if x is off the line."""
        ab = solve_combination([self.e1, self.e2], x, self.field)
        return None if ab is None else tuple(ab)

    def point(self, a, b):
        a, b = self.field.scalar(a), self.field.scalar(b)
        return tuple(a * u + b * v for u, v in zip(self.e1, self.e2))

    def canonical_rows(self):
        """Echelon representative of the line in the Grassmannian."""
        return self._rows

    def _key(self):
        return (self.field, self.e1, self.e2)

    def __eq__(self, other):
        if not isinstance(other, LineFrame):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "LineFrame(e1=%r, e2=%r)" % (self.e1, self.e2)


@dataclass(frozen=True)
class TangentReport:
    """Bundle of the first-order data of a line inside a hypersurface."""

    sigma_matrix: tuple
    kernel: Subspace       # in E^* (x) W/E coordinates, dim 2(n-1)
    pi: Subspace           # in W/E complement coordinates, dim n-1
    m: int                 # dim (W/E)/Pi
    pencil: Subspace       # ker of sigma on E^* (x) (W/E)/Pi, in K^2 (x) K^m
    tangent_dim: int


def restricted_contractions(X: Hypersurface, basis, cols):
    """(d_c P)|_L for c in cols, as MultiForms in the dual coordinates of
    basis, from one substitution of P that also checks P|_L = 0: the only
    restriction of P here, made by sigma_plane for lines and planes alike."""
    on_plane, *fs = _substitute(X.P, basis, cols)
    if not on_plane.is_zero():
        raise PlaneNotContained("plane not contained in hypersurface")
    return fs


def sigma(X: Hypersurface, frame: LineFrame):
    """Matrix of the first-order deformation map of the line: the k = 1
    case of sigma_plane.  Rows: alpha^1 (x) w_1 .. alpha^1 (x) w_{n-1}, then
    the alpha^2 row block.  Columns: coefficients of s^d, ..., t^d.
    """
    if X.field != frame.field:
        raise ValueError("field mismatch between hypersurface and frame")
    return sigma_plane(X, (frame.e1, frame.e2))[0]


def _left_kernel(rows, field: Field, ncols: int) -> Subspace:
    """The c with sum_r c_r * rows[r] = 0, for rows of ncols entries."""
    return kernel([[row[i] for row in rows] for i in range(ncols)], field,
                  ncols=len(rows))


def _free_columns(pi: Subspace):
    """Pi's non-pivot columns: coordinates of (W/E)/Pi inside W/E."""
    pivots = set(pi.pivot_columns())
    return [i for i in range(pi.ambient_dim) if i not in pivots]


def tangent_space(X: Hypersurface, frame: LineFrame) -> Subspace:
    """Kernel of sigma: first-order deformations of the line inside X."""
    return _left_kernel(sigma(X, frame), X.field, X.d + 1)


def compute_pi(X: Hypersurface, frame: LineFrame) -> Subspace:
    """Directions w in W/E with (w -| P)|_E identically zero: the largest
    Pi with E^* (x) Pi inside ker sigma.  The left kernel of sigma's alpha^1
    rows, (w_j -| P)|_E times s, without their last (zero) column.
    """
    return _left_kernel([r[:-1] for r in sigma(X, frame)[:X.n - 1]], X.field, X.d)


def quotient_section(c, pi: Subspace):
    """Canonical preimage in W/E coordinates of a quotient vector."""
    free = _free_columns(pi)
    if len(c) != len(free):
        raise ValueError("quotient vector has wrong length")
    out = [pi.field.zero()] * pi.ambient_dim
    for i, ci in zip(free, c):
        out[i] = ci
    return tuple(out)


def analyze_tangent(X: Hypersurface, frame: LineFrame) -> TangentReport:
    """sigma, its kernel, Pi, and the pencil: the kernel of sigma's rows at
    Pi's free columns, alpha^1 block then alpha^2 block."""
    mat = sigma(X, frame)
    tang = tangent_space(X, frame)
    pi = compute_pi(X, frame)
    nm1 = X.n - 1
    free = _free_columns(pi)
    rows = [mat[c] for c in free] + [mat[nm1 + c] for c in free]
    return TangentReport(sigma_matrix=mat, kernel=tang, pi=pi, m=len(free),
                         pencil=_left_kernel(rows, X.field, X.d + 1),
                         tangent_dim=tang.dim)


def tangent_cone_lines(X: Hypersurface, frame: LineFrame, x) -> Subspace:
    """Deformations fixing the point x on the line: hat(x)-annihilator (x) Pi.

    x is an ambient point on the line.  The result lives in the same
    coordinates as tangent_space and has dimension dim Pi.
    """
    ab = frame.line_coords(x)
    if ab is None:
        raise ValueError("point is not on the line")
    a, b = ab
    if not a and not b:
        raise ValueError("zero vector does not define a projective point")
    pi = compute_pi(X, frame)
    nm1 = X.n - 1
    vecs = []
    for p in pi.basis:
        vecs.append(tuple(b * c for c in p) + tuple(-a * c for c in p))
    if not vecs:
        return Subspace.zero(X.field, 2 * nm1)
    return Subspace.from_vectors(vecs, X.field, 2 * nm1)


# ---------------------------------------------------------------------------
# the first-order map of a k-plane (k <= 3); a line is the case k = 1


def _monomials(nv: int, d: int):
    """Exponent tuples of degree d in nv variables, descending lexicographic."""
    out = []
    for combo in combinations_with_replacement(range(nv), d):
        e = [0] * nv
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return sorted(out, reverse=True)


def sigma_plane(X: Hypersurface, basis):
    """Deformation matrix for a k-plane on X, k = len(basis)-1 <= 3; sigma
    is its case k = 1.

    Rows are indexed by y_i (x) w_j (dual-coordinate blocks, complement index
    ascending inside each block); columns by the degree-d monomials in the
    plane's dual coordinates, descending lexicographic.  Returns
    (matrix, monomial_order).  Row y_i (x) w_j is y_i (w_j -| P)|_L.
    """
    field = X.field
    k = len(basis) - 1
    if not 1 <= k <= 3:
        raise ValueError("plane dimension capped at k <= 3")
    basis = [field.vector(v) for v in basis]
    red, pivots = rref(basis, field)
    if len(red) != k + 1:
        raise ValueError("plane basis is linearly dependent")
    restricted = restricted_contractions(
        X, basis, [c for c in range(X.n + 1) if c not in pivots])
    zero = field.zero()
    monos = _monomials(k + 1, X.d)
    index = {e: i for i, e in enumerate(monos)}
    rows = []
    for i in range(k + 1):
        for f in restricted:
            row = [zero] * len(monos)
            for e, c in f.terms.items():
                shifted = e[:i] + (e[i] + 1,) + e[i + 1:]
                row[index[shifted]] = c
            rows.append(tuple(row))
    return tuple(rows), tuple(monos)


def tangent_space_plane(X: Hypersurface, basis) -> Subspace:
    """Kernel of the k-plane deformation matrix."""
    mat, monos = sigma_plane(X, basis)
    return _left_kernel(mat, X.field, len(monos))
