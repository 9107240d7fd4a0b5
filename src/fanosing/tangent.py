"""First-order tangent data for lines inside a hypersurface.

For a line E = span(e1, e2) contained in X = Z(P) the first-order
deformations of E inside X form the kernel of a linear map

    sigma : E^* (x) W/E  ->  S^d E^*,   y (x) w  |->  y . (w -| P)|_E,

where (w -| P) is the directional derivative of P along w.  The frame fixes
the basis: alpha^1, alpha^2 (s, t) is the dual basis of (e1, e2) and the w_j
are the standard basis vectors at the non-pivot columns of rref(e1, e2).
Rows are indexed by alpha^i (x) w_j, the alpha^1 block first; columns by
s^d, s^(d-1) t, ..., t^d.  A line's alpha^1 rows are (w_j -| P)|_E times s
and its alpha^2 rows the same forms times t, so Pi and the chain generators
(ideal.extract_generators) read those forms off sigma.

sigma is computed on ints: restricted_contractions runs the one
substitution kernel of fanosing.forms on P's int terms (read once per
hypersurface, Hypersurface.plain_form) and the frame's int rows (read once
per frame, LineFrame.ints), so over Q every entry is one common scale times
the true one.  Its kernels (the tangent space, Pi and the pencil) come from
linalg._kernel on those rows.  The report holds sigma once (sigma_ints, in
canonical form), and later stages read sigma and Pi from it.  Fp or Fraction
entries are built only for the values the pipeline returns.

Everything in the report is a function of sigma_ints and X's field, n and
d, and so is every later stage up to the gcd's roots.  analyze_tangent runs
_report on _sigma_rows and the frame's kernel and Pi (tangent_space,
compute_pi); a survey (singular.conjecture_check) keys each line on the
span U of its contractions (by the gradients its scan takes, p >= d - 1)
and runs restricted_contractions on one line per new U (every line if
p < d - 1).  Once per distinct U it builds the sigma of U's echelon basis
and runs _report on its kernel and Pi, then the stages, keeping only what
it reads (singular._sigma_summary), which depends only on U.

Pi <= W/E is the subspace of directions w with (w -| P)|_E = 0: deformations
that move the line trivially to first order in every pencil direction.
sigma vanishes on E^* (x) Pi, so it induces a map on E^* (x) (W/E)/Pi whose
rows are sigma's rows at Pi's free (non-pivot) columns; its kernel is the
pencil of 2 x m matrices fed to the normal-form machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm

from .forms import MultiForm, _expand, _plain_terms
from .linalg import (Field, FieldMismatch, Subspace, _echelon, _ints, _kernel,
                     _scalars, solve_combination, unit_vectors)


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
        """P as (terms, p, den), p = 0 over Q, read once per hypersurface:
        each term (c, ((i, k), ...)) carries its coefficient as an int and
        its nonzero exponents; over Q the terms are those of den*P, den the
        lcm of P's denominators (1 over F_p).  sigma and the gradient checks
        and line scans of fanosing.singular evaluate it on ints."""
        terms, den = _plain_terms(self.P)
        return terms, self.field.p, den


class LineFrame:
    """A line span(e1, e2) that fixes the basis of its first-order data.

    line is the line as a Subspace, from the one echelon pass the frame
    makes; its basis is canonical_rows.  The complement w_1, ..., w_{n-1}
    of E in W is the standard basis vectors at cols, line's non-pivot
    columns c_1 < ... < c_{n-1}, and (alpha^1, alpha^2) is the dual basis of
    (e1, e2): sigma, Pi and the pencil are functions of (e1, e2) alone.
    ints is ((r1, r2), m) with (r1, r2) = m (e1, e2) on ints (m = 1 over F_p).
    """

    __slots__ = ("field", "e1", "e2", "cols", "ints", "line")

    def __init__(self, field: Field, e1, e2):
        self.field = field
        self.e1 = field.vector(e1)
        self.e2 = field.vector(e2)
        n1 = len(self.e1)
        (r1, r2), (m1, m2) = _ints([self.e1, self.e2], field, n1)
        m = lcm(m1, m2)
        self.ints = ([x * (m // m1) for x in r1], [x * (m // m2) for x in r2]), m
        red, pivots = _echelon([r1, r2], field.p)
        if len(red) != 2:
            raise ValueError("line frame needs two independent spanning vectors")
        self.line = Subspace._of(field, n1, red, pivots)
        self.cols = tuple(c for c in range(n1) if c not in pivots)

    @classmethod
    def _from_echelon(cls, field: Field, r1, r2):
        """The frame of a reduced echelon pair of residue rows over F_p, as
        __init__ builds it from them, without reducing them again: each row
        is 1 at its pivot and zero before it, and r1 is zero at r2's pivot."""
        self = cls.__new__(cls)
        self.field = field
        pivots = (r1.index(1), r2.index(1))
        self.line = Subspace._of(field, len(r1), (r1, r2), pivots)
        self.e1, self.e2 = self.line.basis
        self.ints = (list(r1), list(r2)), 1
        self.cols = tuple(c for c in range(len(r1)) if c not in pivots)
        return self

    @property
    def complement(self):
        """w_1, ..., w_{n-1}: the standard basis vectors at cols."""
        return tuple(unit_vectors(self.field, self.ambient_dim, self.cols))

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
        return self.line.basis

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
    """Bundle of the first-order data of a line inside a hypersurface;
    sigma_ints = (rows, scale) holds sigma = rows / scale once, canonical
    (_sigma_rows), so equality and hash compare the exact sigma."""

    sigma_ints: tuple
    kernel: Subspace       # in E^* (x) W/E coordinates, dim 2(n-1)
    pi: Subspace           # in W/E complement coordinates, dim n-1
    m: int                 # dim (W/E)/Pi
    pencil: Subspace       # ker of sigma on E^* (x) (W/E)/Pi, in K^2 (x) K^m
    tangent_dim: int

    @cached_property
    def sigma_matrix(self) -> tuple:
        """sigma's scalar view, built on first read, for output code."""
        rows, scale = self.sigma_ints
        return tuple(_scalars(rows, [scale] * len(rows), self.pi.field))


def _frame_ints(X: Hypersurface, frame: LineFrame) -> tuple:
    """frame.ints, once the frame's field and length match X's: the one
    check of a frame against its hypersurface."""
    if frame.field != X.field:
        raise FieldMismatch("field mismatch: %s vs %s" % (frame.field, X.field))
    if frame.ambient_dim != X.n + 1:
        raise ValueError("vector length does not match variable count")
    return frame.ints


def restricted_contractions(X: Hypersurface, frame: LineFrame):
    """((w_j -| P)|_E for the frame's complement w_1, ..., w_{n-1}, scale):
    each form as the int coefficients of s^(d-1), s^(d-2) t, ..., t^(d-1),
    every one of them scale times the true coefficient.  One substitution of
    P (forms._expand on X.plain_form) that also checks P|_E = 0.  Over Q e1
    and e2 are scaled by one common lcm m of their denominators, so
    scale = den * m^(d-1); over F_p it is 1.
    """
    rows, m = _frame_ints(X, frame)
    terms, p, den = X.plain_form
    on_line, *fs = _expand(terms, rows, frame.cols, X.d, p)
    if on_line:
        raise PlaneNotContained("plane not contained in hypersurface")
    d = X.d
    # s^(d-1-i) t^i is keyed (d-1-i) + i*(d+1)
    fs = [[f.get(d - 1 + i * d, 0) for i in range(d)] for f in fs]
    return fs, den * m ** (d - 1)


def _sigma_rows(X: Hypersurface, frame: LineFrame):
    """sigma as tuple int rows and their one common scale: the alpha^1 rows
    are each contraction times s, the alpha^2 rows times t.  Over Q rows and
    scale are divided by their gcd (canonical); over F_p the scale is 1."""
    fs, scale = restricted_contractions(X, frame)
    if scale != 1:
        g = gcd(scale, *[x for f in fs for x in f])
        fs, scale = [[x // g for x in f] for f in fs], scale // g
    return tuple([(*f, 0) for f in fs] + [(0, *f) for f in fs]), scale


def _left_kernel(rows, field: Field, ncols: int) -> Subspace:
    """The c with sum_r c_r * rows[r] = 0, for int rows of ncols entries."""
    return _kernel([[row[i] for row in rows] for i in range(ncols)],
                   len(rows), field)


def _free_columns(pi: Subspace):
    """Pi's non-pivot columns: coordinates of (W/E)/Pi inside W/E."""
    pivots = pi.ints[1]
    return [i for i in range(pi.ambient_dim) if i not in pivots]


def tangent_space(X: Hypersurface, frame: LineFrame) -> Subspace:
    """Kernel of sigma: first-order deformations of the line inside X."""
    return _left_kernel(_sigma_rows(X, frame)[0], X.field, X.d + 1)


def compute_pi(X: Hypersurface, frame: LineFrame) -> Subspace:
    """Directions w in W/E with (w -| P)|_E identically zero: the largest
    Pi with E^* (x) Pi inside ker sigma.  The left kernel of the
    contractions (w_j -| P)|_E, sigma's alpha^1 rows without their last
    (zero) column.
    """
    return _left_kernel(restricted_contractions(X, frame)[0], X.field, X.d)


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
    Pi's free columns, alpha^1 block then alpha^2 block.  The kernel and Pi
    come from the frame (tangent_space, compute_pi)."""
    return _report(X, _sigma_rows(X, frame), tangent_space(X, frame),
                   compute_pi(X, frame))


def _report(X: Hypersurface, sigma_ints, tang: Subspace,
            pi: Subspace) -> TangentReport:
    """The report of the line whose _sigma_rows are sigma_ints, given
    sigma's kernel tang and Pi: a function of sigma_ints and X's field, n
    and d, since tang is the left kernel of the rows and Pi that of the
    alpha^1 rows without their last column, whoever computes them."""
    rows, scale = sigma_ints
    nm1 = X.n - 1
    free = _free_columns(pi)
    pencil = [rows[c] for c in free] + [rows[nm1 + c] for c in free]
    return TangentReport(sigma_ints=(rows, scale), kernel=tang, pi=pi,
                         m=len(free), tangent_dim=tang.dim,
                         pencil=_left_kernel(pencil, X.field, X.d + 1))


def tangent_cone_lines(report: TangentReport, frame: LineFrame, x) -> Subspace:
    """Deformations fixing the point x on the line: hat(x)-annihilator (x) Pi.

    x is a point on the line; Pi comes from its report.  The result lives
    in the coordinates of tangent_space and has dimension dim Pi.
    """
    ab = frame.line_coords(x)
    if ab is None:
        raise ValueError("point is not on the line")
    a, b = ab
    if not a and not b:
        raise ValueError("zero vector does not define a projective point")
    vecs = []
    for p in report.pi.basis:
        vecs.append(tuple(b * c for c in p) + tuple(-a * c for c in p))
    return Subspace.from_vectors(vecs, frame.field, 2 * (frame.n - 1))
