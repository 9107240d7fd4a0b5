"""Exact linear algebra over the rationals and over prime fields.

Scalars are `fractions.Fraction` (field Q) or `Fp` residues (field Fp:p,
p prime, p <= 2**61).  No floats anywhere.  Subspaces are stored in
canonical reduced row echelon form, so two subspaces are equal iff their
representations compare equal.

Everything below the scalar layer computes on plain ints: residues mod
p, or integer rows over Q, where a vector is an int row with a nonzero
scale (the row divided by its scale) and an echelon row's scale is its
pivot entry.  Scalars enter through `_ints`, the one checked int entry
(every entry is checked once, and every row's length when the caller
names a width; the form code uses it too), and leave
through `_scalars`, which builds `Fp` and `Fraction` only for what is
returned.  Between them there is one echelon kernel (`_echelon`), run at
most once by each int helper for a subspace operation: `_null_space` (on
the reversed columns, so the null vectors come out echelon), `_reduce`
(reduction modulo echelon rows), `_meet` (reduce one basis modulo the
other and take a left kernel of the residues, whose combinations are
echelon as they are), `_solve` (combinations for several targets, free
coefficients 0) and `_complement` (the echelon rows extending a subspace).
A `Subspace` carries its echelon int rows (`Subspace.ints`), so only this
module converts between a subspace's scalars and ints: its int paths build
subspaces through `Subspace._of`, and `fanosing.pencil`, `fanosing.tangent`
and `fanosing.ideal` read `ints` and call the int helpers directly.
`rref`, `rank`, `kernel`, `solve_combination`, `echelon_complement` and the
`Subspace` methods (reading another subspace's `ints`) are thin wrappers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm


class FieldMismatch(ValueError):
    """Raised when scalars from different fields meet in one operation."""


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    # deterministic Miller-Rabin, valid far beyond 2**61
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Fp:
    """Element of the prime field with p elements, stored reduced to [0, p)."""

    __slots__ = ("v", "p")

    def __init__(self, v: int, p: int):
        self.v = v % p
        self.p = p

    def _coerce(self, other):
        if isinstance(other, Fp):
            if other.p != self.p:
                raise FieldMismatch("field mismatch: Fp:%d vs Fp:%d" % (self.p, other.p))
            return other
        if isinstance(other, int):
            return Fp(other, self.p)
        if other is None or isinstance(other, (Fraction, float)):
            raise FieldMismatch("field mismatch: Fp:%d vs %r" % (self.p, other))
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Fp(self.v + o.v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Fp(self.v - o.v, self.p)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Fp(o.v - self.v, self.p)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Fp(self.v * o.v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.v == 0:
            raise ZeroDivisionError("division by zero in Fp:%d" % self.p)
        return Fp(self.v * pow(o.v, -1, self.p), self.p)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __pow__(self, e: int):
        if e < 0 and self.v == 0:
            raise ZeroDivisionError("inverse of zero in Fp:%d" % self.p)
        return Fp(pow(self.v, e, self.p), self.p)

    def __neg__(self):
        return Fp(-self.v, self.p)

    def __eq__(self, other):
        if isinstance(other, Fp):
            if other.p != self.p:
                raise FieldMismatch("field mismatch: Fp:%d vs Fp:%d" % (self.p, other.p))
            return self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.v, self.p))

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return "Fp(%d, %d)" % (self.v, self.p)

    def __str__(self):
        return str(self.v)


@dataclass(frozen=True)
class Field:
    """Field descriptor: p == 0 means Q, otherwise the prime field Fp:p."""

    p: int = 0

    def __post_init__(self):
        if self.p == 0:
            return
        if self.p > 2**61:
            raise ValueError("prime characteristic must be <= 2**61")
        if not _is_prime(self.p):
            raise ValueError("characteristic must be 0 or a prime, got %d" % self.p)

    @property
    def is_rational(self) -> bool:
        return self.p == 0

    def zero(self):
        return Fraction(0) if self.p == 0 else Fp(0, self.p)

    def one(self):
        return Fraction(1) if self.p == 0 else Fp(1, self.p)

    def scalar(self, x):
        """strict() after two conversions: an 'a/b' string is read as a
        Fraction, and over F_p a Fraction is mapped to a residue (its
        denominator must be prime to p)."""
        if isinstance(x, str):
            try:
                x = Fraction(x)
            except ZeroDivisionError:
                raise ValueError("zero denominator in %r" % x) from None
            except ValueError:
                raise ValueError("expected an integer or a fraction a/b, "
                                 "got %r" % x) from None
        if self.p and isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise FieldMismatch("denominator of %s is divisible by %d" % (x, self.p))
            return Fp(x.numerator, self.p) / Fp(x.denominator, self.p)
        return self.strict(x)

    def strict(self, x):
        """This field's scalar for an int or a scalar of this field; any
        other value, of another field or of no field, raises FieldMismatch.

        Used at linear-algebra entry points, where a stray Fraction in an
        Fp matrix is a bug rather than a conversion request.
        """
        if self.p == 0:
            if isinstance(x, Fraction):
                return x
            if isinstance(x, Fp):
                raise FieldMismatch("field mismatch: Q vs Fp:%d" % x.p)
            if isinstance(x, int):
                return Fraction(x)
        else:
            if isinstance(x, Fp):
                if x.p != self.p:
                    raise FieldMismatch("field mismatch: Fp:%d vs Fp:%d" % (self.p, x.p))
                return x
            if isinstance(x, int):
                return Fp(x, self.p)
        raise FieldMismatch("field mismatch: %r does not live in %s" % (x, self))

    def vector(self, entries) -> tuple:
        return tuple(self.strict(e) for e in entries)

    def __str__(self):
        return "Q" if self.p == 0 else "Fp:%d" % self.p


QQ = Field(0)


def plain(c):
    """The int behind an Fp residue; any other scalar as a Fraction."""
    return c.v if isinstance(c, Fp) else Fraction(c)


def parse_field(text: str) -> Field:
    """Parse 'Q' or 'Fp:<p>' (also 'Fp <p>')."""
    t = text.strip()
    if t == "Q":
        return QQ
    for sep in (":", " "):
        if t.startswith("Fp" + sep):
            try:
                p = int(t[3:])
            except ValueError:
                raise ValueError("field Fp needs an integer characteristic, "
                                 "got %r" % t[3:].strip()) from None
            if p < 2:
                raise ValueError("field Fp needs a prime characteristic, got %d" % p)
            return Field(p)
    raise ValueError("unknown field spec %r (expected Q or Fp:<p>)" % text)


# ---------------------------------------------------------------------------
# dense exact matrix routines (row-major lists of field scalars)


def unit_vectors(field: Field, n: int, cols) -> list:
    """The standard basis vectors of K^n at the given columns, in order."""
    one, zero = field.one(), field.zero()
    return [tuple(one if j == c else zero for j in range(n)) for c in cols]


def _ints(rows, field: Field, width: int | None = None) -> tuple:
    """(int rows, scales): the rows of field scalars or ints as lists of
    ints, every entry checked, and the nonzero int each row was scaled by.
    Over F_p the residues in [0, p), each scale 1; over Q each row times
    its scale, the lcm of its denominators.  Anything but an Fp of this
    field (a Fraction over Q) goes through field.strict, which converts ints
    and raises FieldMismatch for values of another field.  With width given
    every row must have width entries, else ValueError 'ragged matrix'."""
    if width is not None:
        rows = list(rows)
        if any(len(row) != width for row in rows):
            raise ValueError("ragged matrix: vector length is not %d" % width)
    p = field.p
    if p:
        out = [[x.v if type(x) is Fp and x.p == p else field.strict(x).v
                for x in row] for row in rows]
        return out, [1] * len(out)
    out, scales = [], []
    for row in rows:
        row = [x if type(x) is Fraction else field.strict(x) for x in row]
        den = lcm(*[x.denominator for x in row])
        out.append([x.numerator * (den // x.denominator) for x in row])
        scales.append(den)
    return out, scales


def _echelon(mat, p: int):
    """Reduced row echelon form of int rows, modified in place: the nonzero
    rows and their pivot columns.

    Over F_p (p > 0, entries in [0, p)) each pivot row is scaled to 1 and
    the other rows are cleared on the columns from the pivot on, in one
    pass mod p.  Over Q (p == 0) row <- (a*row - b*pivot_row)/gcd(a, b) is
    divided by its content, so rows stay primitive (in the spirit of
    Bareiss, Math. Comp. 1968); a row's pivot entry is then its denominator.
    """
    if not mat:
        return [], []
    pivots = []
    r = 0
    for c in range(len(mat[0])):
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        prow = mat[r]
        if p:
            inv = pow(prow[c], -1, p)
            tail = [x * inv % p for x in prow[c:]]
            prow[c:] = tail
            for i, row in enumerate(mat):
                b = row[c]
                if i != r and b:
                    row[c:] = [(x - b * y) % p for x, y in zip(row[c:], tail)]
        else:
            a = prow[c]
            for i, row in enumerate(mat):
                b = row[c]
                if i != r and b:
                    g = gcd(a, b)
                    ag, bg = a // g, b // g
                    row = [ag * x - bg * y for x, y in zip(row, prow)]
                    g = gcd(*row) or 1
                    mat[i] = [x // g for x in row]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def _scalars(rows, scales, field: Field) -> list:
    """Int rows back to field scalars, the inverse of _ints: over F_p the
    residues as they are, over Q row i divided by scales[i] (for an echelon
    row from _echelon, its pivot entry).  Fp values are never modified in
    place, so one is built per distinct residue and its entries share it."""
    p, zero = field.p, field.zero()
    if p:
        memo = {x: Fp(x, p) if x else zero for x in set().union(*rows)}
        return [tuple(map(memo.__getitem__, row)) for row in rows]
    return [tuple(Fraction(x, a) if x else zero for x in row)
            for row, a in zip(rows, scales)]


def _heads(mat, pivots) -> list:
    """The pivot entry of each echelon int row: its scale over Q."""
    return [row[c] for row, c in zip(mat, pivots)]


def _null_space(mat, ncols: int, p: int):
    """Right null space of int row lists of ncols entries as echelon int
    rows and pivots, from one echelon pass on the reversed columns: there a
    row's pivot lies left of its other entries, so here right of them, and
    the null vector of free column f (den = lcm(pivot entries) at f,
    -row[f]*den/row[c] at each pivot column c; mod p over F_p, den 1) leads
    at f and is zero at the other free columns: reduced echelon as it is."""
    last = ncols - 1
    red, pivots = _echelon([row[::-1] for row in mat], p)
    den = lcm(*_heads(red, pivots))
    taken = {last - c for c in pivots}
    out, free = [], [f for f in range(ncols) if f not in taken]
    for f in free:
        v = [0] * ncols
        v[f] = den
        for row, c in zip(red, pivots):
            v[last - c] = -row[last - f] * (den // row[c])
        out.append([x % p for x in v] if p else v)
    return out, free


def _reduce(rows, pivots, vectors, p: int) -> list:
    """Int vectors reduced modulo the span of echelon int rows, on ints.

    rows have pivot columns `pivots` and are zero at each other's pivot
    columns (from _echelon, or a Subspace's ints).  Gives (r, s) per
    vector v with r = s*v - (a vector of the span) and r zero at the pivot
    columns, so v lies in the span iff r is zero.  Over F_p the rows have
    pivot 1 and s == 1; over Q each step v <- (a*v - b*row)/gcd(a, b)
    multiplies the scale s by a/gcd(a, b).
    """
    out = []
    for v in vectors:
        s = 1
        for row, c in zip(rows, pivots):
            b = v[c]
            if not b:
                continue
            if p:
                v = [(x - b * y) % p for x, y in zip(v, row)]
            else:
                g = gcd(row[c], b)
                a, b = row[c] // g, b // g
                v = [a * x - b * y for x, y in zip(v, row)]
                s *= a
        out.append((v, s))
    return out


def _meet(xs, rows, pivots, n: int, p: int):
    """The vectors of span(xs) whose first n entries lie in span(rows), as
    echelon int rows and pivots: span(xs) meet (span(rows) x K^k) for xs in
    K^(n+k), the plain meet when k = 0.

    xs and rows are echelon int rows (from _echelon, _meet or a Subspace's
    ints), rows in K^n with the given pivot columns.  Each x_i[:n] reduces
    modulo rows to r_i = s_i*x_i[:n] - y_i with y_i in span(rows).  The left
    kernel of the r_i at the free columns (where all of r_i lives) gives the
    coefficients c with sum c_i*r_i = 0, and then sum c_i*s_i*x_i is in the
    meet; the x_i are independent, so these span it.  Each c from
    _null_space leads at its own f and is zero at the other free indices,
    so the combinations, primitive over Q, are echelon with x_f's pivots.
    """
    reduced = _reduce(rows, pivots, [x[:n] for x in xs], p)
    taken = set(pivots)
    cols = [[r[j] for r, _ in reduced] for j in range(n) if j not in taken]
    coeffs, _ = _null_space(cols, len(xs), p)
    vecs = []
    for cs in coeffs:
        vec = [0] * len(xs[0])
        for c, (_, s), x in zip(cs, reduced, xs):
            if c:
                c *= s
                vec = [a + c * b for a, b in zip(vec, x)]
        if p:
            vecs.append([a % p for a in vec])
        else:
            g = gcd(*vec)
            vecs.append([a // g for a in vec])
    return vecs, [next(j for j, a in enumerate(v) if a) for v in vecs]


def _solve(rows, targets, p: int):
    """(sols, den) with sum_i sol[i]*rows[i] == den*target for each target,
    on int rows, or None when a target is outside their span.

    Reduces the transposed system augmented with the targets; the free
    coefficients are 0 and den is the lcm of the pivot entries (1 over
    F_p).  Only the first len(target) entries of each row are read.
    """
    k = len(rows)
    aug = [[row[j] for row in rows] + [t[j] for t in targets]
           for j in range(len(targets[0]))]
    red, pivots = _echelon(aug, p)
    if pivots and pivots[-1] >= k:
        return None  # inconsistent
    den = lcm(*_heads(red, pivots))
    sols = []
    for j in range(k, k + len(targets)):
        nums = [0] * k
        for row, c in zip(red, pivots):
            nums[c] = row[j] * (den // row[c])
        sols.append(nums)
    return sols, den


def _complement(inner, pivots, p: int) -> list:
    """Indices of the echelon rows with pivot columns `pivots` that extend
    span(inner) to their span, in order; inner (int rows) must lie in it.

    Keeps row k iff it is independent of inner and the rows kept before it.
    In the coordinates of the echelon basis (a vector's entries at its
    pivot columns) row k is skipped iff some vector of inner has its last
    nonzero coordinate at k: the pivots of inner's coordinates with the
    columns reversed, found in one echelon pass.
    """
    cols = pivots[::-1]
    _, last = _echelon([[x[c] for c in cols] for x in inner], p)
    skip = {len(cols) - 1 - j for j in last}
    return [k for k in range(len(cols)) if k not in skip]


def _checked_echelon(rows, field: Field, width: int | None = None):
    """_echelon of the _ints rows, all width (or the first row's) long."""
    rows = list(rows)
    mat, _ = _ints(rows, field, len(rows[0]) if width is None and rows else width)
    return _echelon(mat, field.p)


def rref(rows, field: Field):
    """Reduced row echelon form.

    Returns (rows, pivots) with zero rows dropped, pivots scaled to 1
    and cleared above and below.  The result is the canonical representative
    of the row space: pivot columns are the lexicographically earliest
    possible.

    Entries are checked once by _ints, eliminated on ints by _echelon and
    turned back into Fp or Fraction entries on exit; the RREF of a row space
    is unique, so the output does not depend on the integer scaling.
    """
    mat, pivots = _checked_echelon(rows, field)
    return _scalars(mat, _heads(mat, pivots), field), pivots


def rank(rows, field: Field) -> int:
    """The number of pivots of _echelon on the int rows; no scalar is built."""
    return len(_checked_echelon(rows, field)[1])


def solve_combination(rows, target, field: Field):
    """Coefficients x with sum_i x_i * rows[i] == target, or None.

    When the system is underdetermined the free coefficients are set to 0.
    _solve on the int rows s_i*rows[i] and t*target gives y with
    sum y_i*s_i*rows[i] == t*target, so x_i = y_i*s_i/t.
    """
    (vec,), (t,) = _ints([target], field)
    ints, scales = _ints(rows, field, len(vec))
    if not ints:
        return [] if not any(vec) else None
    sol = _solve(ints, [vec], field.p)
    if sol is None:
        return None
    (nums,), den = sol
    return list(_scalars([[y * s for y, s in zip(nums, scales)]],
                         [den * t], field)[0])


@dataclass(frozen=True)
class Subspace:
    """Linear subspace of K^ambient_dim in canonical reduced echelon form.

    basis (the echelon rows as scalars) is the one stored field: equality,
    hash and repr read it, and Subspace(field, n, basis) and
    dataclasses.replace build valid subspaces.  ints is the echelon int
    form (rows, pivots) that every int path reads: the rows as tuples in the
    form _ints gives for the basis (residues with pivot 1 over F_p; over Q
    primitive, with a positive pivot entry as scale) and their pivot
    columns.  _of seeds it; any other subspace computes it on first use.
    """

    field: Field
    ambient_dim: int
    basis: tuple

    @classmethod
    def _of(cls, field: Field, ambient_dim: int, rows, pivots) -> "Subspace":
        """The span of echelon int rows from _echelon, with ints seeded:
        over Q each row is divided by its content, signed as its pivot."""
        canon = []
        for row, c in zip(rows, pivots):
            g = 1 if field.p else gcd(*row) if row[c] > 0 else -gcd(*row)
            canon.append(tuple(row) if g == 1 else tuple([x // g for x in row]))
        rows, pivots = tuple(canon), tuple(pivots)
        sub = cls(field, ambient_dim,
                  tuple(_scalars(rows, _heads(rows, pivots), field)))
        object.__setattr__(sub, "ints", (rows, pivots))
        return sub

    @cached_property
    def ints(self) -> tuple:
        """(rows, pivots): the echelon int form (see the class docstring)."""
        rows, _ = _ints(self.basis, self.field)
        return (tuple(map(tuple, rows)),
                tuple(next(j for j, x in enumerate(row) if x) for row in rows))

    @classmethod
    def from_vectors(cls, vectors, field: Field, ambient_dim: int | None = None):
        vectors = list(vectors)
        if ambient_dim is None:
            if not vectors:
                raise ValueError("ambient_dim required for an empty generating set")
            ambient_dim = len(vectors[0])
        return cls._of(field, ambient_dim,
                       *_checked_echelon(vectors, field, ambient_dim))

    @classmethod
    def zero(cls, field: Field, ambient_dim: int):
        return cls._of(field, ambient_dim, (), ())

    @classmethod
    def full(cls, field: Field, ambient_dim: int):
        return cls(field, ambient_dim,
                   tuple(unit_vectors(field, ambient_dim, range(ambient_dim))))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains_vectors(self, vectors) -> bool:
        """Whether every vector lies here; one _reduce pass for them all."""
        vectors, _ = _ints(vectors, self.field, self.ambient_dim)
        reduced = _reduce(*self.ints, vectors, self.field.p)
        return not any(any(r) for r, _ in reduced)

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        reduced = _reduce(*self.ints, other.ints[0], self.field.p)
        return not any(any(r) for r, _ in reduced)

    def _check_compatible(self, other: "Subspace"):
        if self.field != other.field:
            raise FieldMismatch("field mismatch: %s vs %s" % (self.field, other.field))
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimensions differ: %d vs %d"
                             % (self.ambient_dim, other.ambient_dim))

    def join(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        rows = [list(row) for row in self.ints[0] + other.ints[0]]
        return Subspace._of(self.field, self.ambient_dim,
                            *_echelon(rows, self.field.p))

    def meet(self, other: "Subspace") -> "Subspace":
        """Intersection: _meet of self's int rows with other's."""
        self._check_compatible(other)
        field, n = self.field, self.ambient_dim
        return Subspace._of(field, n,
                            *_meet(self.ints[0], *other.ints, n, field.p))


def _kernel(mat, ncols: int, field: Field) -> Subspace:
    """Right null space of int row lists of ncols entries (residues mod p
    over F_p, any ints over Q): _null_space, one echelon pass."""
    return Subspace._of(field, ncols, *_null_space(mat, ncols, field.p))


def kernel(rows, field: Field, ncols: int | None = None) -> Subspace:
    """Right null space {v : M v = 0} as a canonical Subspace: _kernel of
    the checked int rows."""
    rows = list(rows)
    ncols = len(rows[0]) if ncols is None and rows else ncols
    if ncols is None:
        raise ValueError("ncols required for a matrix with no rows")
    mat, _ = _ints(rows, field, ncols)
    return _kernel(mat, ncols, field)


def echelon_complement(inner: Subspace, outer: Subspace):
    """Vectors of outer's canonical basis extending inner to a basis of outer.

    Keeps, in order, each row of outer's echelon basis that is independent
    of inner and the rows kept before it (_complement); deterministic.
    Requires inner <= outer.
    """
    if not outer.contains_subspace(inner):
        raise ValueError("inner subspace is not contained in outer")
    keep = _complement(inner.ints[0], outer.ints[1], inner.field.p)
    return [outer.basis[k] for k in keep]
