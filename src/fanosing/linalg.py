"""Exact linear algebra over the rationals and over prime fields.

Scalars are `fractions.Fraction` (field Q) or `Fp` residues (field Fp:p,
p prime, p <= 2**61).  No floats anywhere.  Row reduction eliminates on
plain ints; `Fp` and `Fraction` appear only at its entry and exit.
Subspaces are stored in canonical reduced row echelon form, so two
subspaces are equal iff their representations compare equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm


class FieldMismatch(ValueError):
    """Raised when scalars from different fields meet in one operation."""


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    # deterministic Miller-Rabin, valid far beyond 2**61
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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
        """Coerce an int, Fraction, Fp or 'a/b' string into this field."""
        if self.p == 0:
            if isinstance(x, Fp):
                raise FieldMismatch("field mismatch: Q vs Fp:%d" % x.p)
            if isinstance(x, (int, Fraction)):
                return Fraction(x)
        else:
            if isinstance(x, Fp):
                if x.p != self.p:
                    raise FieldMismatch("field mismatch: Fp:%d vs Fp:%d" % (self.p, x.p))
                return x
            if isinstance(x, int):
                return Fp(x, self.p)
            if isinstance(x, Fraction):
                if x.denominator % self.p == 0:
                    raise FieldMismatch("denominator of %s is divisible by %d" % (x, self.p))
                return Fp(x.numerator, self.p) / Fp(x.denominator, self.p)
        if isinstance(x, str):
            try:
                value = Fraction(x)
            except ZeroDivisionError:
                raise ValueError("zero denominator in %r" % x) from None
            except ValueError:
                raise ValueError("expected an integer or a fraction a/b, "
                                 "got %r" % x) from None
            return self.scalar(value)
        raise FieldMismatch("cannot coerce %r into %s" % (x, self))

    def strict(self, x):
        """Like scalar(), but rejects cross-field values instead of converting.

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


def combine(field: Field, n: int, coeffs, vectors) -> tuple:
    """sum_i coeffs[i] * vectors[i] in K^n, from the first n entries of each
    vector; zero coefficients are skipped."""
    out = [field.zero()] * n
    for c, v in zip(coeffs, vectors):
        if c:
            out = [a + c * b for a, b in zip(out, v)]
    return tuple(out)


def rref(rows, field: Field):
    """Reduced row echelon form.

    Returns (rows, pivot_columns) with zero rows dropped, pivots scaled to 1
    and cleared above and below.  The result is the canonical representative
    of the row space: pivot columns are the lexicographically earliest
    possible.

    Entries are checked once, then become ints: residues over F_p, each row
    times the lcm of its denominators over Q.  Elimination runs on ints,
    row <- (a*row - b*pivot_row)/gcd(a, b), reduced mod p or divided by its
    content, so Q rows stay primitive (in the spirit of Bareiss, Math. Comp.
    1968).  On exit each row is divided by its pivot into Fp or Fraction
    entries; the RREF of a row space is unique, so the output is unchanged.
    """
    p = field.p
    mat = []
    for row in rows:
        row = field.vector(row)
        if p:
            mat.append([x.v for x in row])
        else:
            den = lcm(*(x.denominator for x in row))
            mat.append([x.numerator * (den // x.denominator) for x in row])
    if not mat:
        return [], []
    ncols = len(mat[0])
    if any(len(row) != ncols for row in mat):
        raise ValueError("ragged matrix")
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        prow = mat[r]
        a = prow[c]
        for i, row in enumerate(mat):
            b = row[c]
            if i != r and b:
                g = gcd(a, b)
                ag, bg = a // g, b // g
                row = [ag * x - bg * y for x, y in zip(row, prow)]
                if p:
                    mat[i] = [x % p for x in row]
                else:
                    g = gcd(*row) or 1
                    mat[i] = [x // g for x in row]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    zero, out = field.zero(), []
    for row, c in zip(mat, pivots):
        if p:
            inv = pow(row[c], -1, p)
            out.append(tuple(Fp(x * inv, p) if x else zero for x in row))
        else:
            a = row[c]
            out.append(tuple(Fraction(x, a) if x else zero for x in row))
    return out, pivots


def rank(rows, field: Field) -> int:
    return len(rref(rows, field)[0])


def solve_combination(rows, target, field: Field):
    """Coefficients x with sum_i x_i * rows[i] == target, or None.

    When the system is underdetermined the free coefficients are set to 0.
    """
    rows = list(rows)
    target = field.vector(target)
    k = len(rows)
    if k == 0:
        return [] if not any(target) else None
    n = len(rows[0])
    if len(target) != n:
        raise ValueError("length mismatch")
    # columns of the transposed system, augmented with the target
    aug = [[rows[i][j] for i in range(k)] + [target[j]] for j in range(n)]
    red, pivots = rref(aug, field)
    x = [field.zero()] * k
    for row, pc in zip(red, pivots):
        if pc == k:
            return None  # inconsistent
        x[pc] = row[k]
    return x


@dataclass(frozen=True)
class Subspace:
    """Linear subspace of K^ambient_dim in canonical reduced echelon form.

    Built via from_vectors; equality of subspaces is equality of the frozen
    representation.
    """

    field: Field
    ambient_dim: int
    basis: tuple

    @classmethod
    def from_vectors(cls, vectors, field: Field, ambient_dim: int | None = None):
        vectors = list(vectors)
        if ambient_dim is None:
            if not vectors:
                raise ValueError("ambient_dim required for an empty generating set")
            ambient_dim = len(vectors[0])
        for v in vectors:
            if len(v) != ambient_dim:
                raise ValueError("vector length %d != ambient dim %d" % (len(v), ambient_dim))
        rows, _ = rref(vectors, field)
        return cls(field, ambient_dim, tuple(rows))

    @classmethod
    def zero(cls, field: Field, ambient_dim: int):
        return cls(field, ambient_dim, ())

    @classmethod
    def full(cls, field: Field, ambient_dim: int):
        return cls(field, ambient_dim,
                   tuple(unit_vectors(field, ambient_dim, range(ambient_dim))))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def pivot_columns(self):
        cols = []
        for row in self.basis:
            for j, x in enumerate(row):
                if x:
                    cols.append(j)
                    break
        return cols

    def _reduce(self, v):
        v = list(self.field.vector(v))
        if len(v) != self.ambient_dim:
            raise ValueError("vector length %d != ambient dim %d" % (len(v), self.ambient_dim))
        for row, pc in zip(self.basis, self.pivot_columns()):
            if v[pc]:
                f = v[pc]
                v = [a - f * b for a, b in zip(v, row)]
        return v

    def contains_vector(self, v) -> bool:
        return not any(self._reduce(v))

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        return all(self.contains_vector(v) for v in other.basis)

    def _check_compatible(self, other: "Subspace"):
        if self.field != other.field:
            raise FieldMismatch("field mismatch: %s vs %s" % (self.field, other.field))
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimensions differ: %d vs %d"
                             % (self.ambient_dim, other.ambient_dim))

    def join(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return Subspace.from_vectors(list(self.basis) + list(other.basis),
                                     self.field, self.ambient_dim)

    def meet(self, other: "Subspace") -> "Subspace":
        """Intersection, by the Zassenhaus double-block trick.  Its zero-left
        rows end the RREF, so their right halves are already canonical."""
        self._check_compatible(other)
        n = self.ambient_dim
        zero = self.field.zero()
        block = [list(v) + list(v) for v in self.basis]
        block += [list(v) + [zero] * n for v in other.basis]
        red, _ = rref(block, self.field)
        return Subspace(self.field, n,
                        tuple(row[n:] for row in red if not any(row[:n])))


def kernel(rows, field: Field, ncols: int | None = None) -> Subspace:
    """Right null space {v : M v = 0} as a canonical Subspace."""
    rows = list(rows)
    if rows:
        ncols = len(rows[0])
    elif ncols is None:
        raise ValueError("ncols required for a matrix with no rows")
    red, pivots = rref(rows, field)
    free = [c for c in range(ncols) if c not in pivots]
    vecs = []
    one, zero = field.one(), field.zero()
    for f in free:
        v = [zero] * ncols
        v[f] = one
        for row, pc in zip(red, pivots):
            v[pc] = -row[f]
        vecs.append(v)
    if not vecs:
        return Subspace.zero(field, ncols)
    return Subspace.from_vectors(vecs, field, ncols)


def echelon_complement(inner: Subspace, outer: Subspace):
    """Vectors of outer's canonical basis extending inner to a basis of outer.

    Scans outer's echelon basis in order and keeps the earliest-pivot rows
    that are independent of inner; deterministic.  Requires inner <= outer.
    """
    if not outer.contains_subspace(inner):
        raise ValueError("inner subspace is not contained in outer")
    picked = []
    span = list(inner.basis)
    cur = Subspace.from_vectors(span, inner.field, inner.ambient_dim) if span \
        else Subspace.zero(inner.field, inner.ambient_dim)
    for v in outer.basis:
        if not cur.contains_vector(v):
            picked.append(v)
            span.append(v)
            cur = Subspace.from_vectors(span, inner.field, inner.ambient_dim)
    if len(picked) != outer.dim - inner.dim:
        raise AssertionError("complement extension failed")
    return picked
