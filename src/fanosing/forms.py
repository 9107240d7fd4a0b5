"""Homogeneous forms with exact coefficients.

MultiForm is a sparse homogeneous polynomial in n+1 ambient variables;
BinaryForm is a dense homogeneous form on a line, written in the dual
coordinates (s, t) of a chosen basis of the line.  Both take -, *, **, ==,
evaluate and repr from one private base, _Form, which reads each class's
storage through a few hooks.  Binary-form product, division, gcd and
factoring share one dense univariate kernel on plain values: ints mod p
(mod p^k while lifting) or Fractions.  binary_roots factors a form into
irreducibles in time polynomial in log p and in the coefficient size: over
F_p by distinct- and equal-degree splitting, over Q by Hensel-lifting a
factorization mod a small prime.

Contraction convention: contract(v, P) is the directional derivative D_v P,
*not* divided by the degree.  All identities downstream (restricted
contractions, chain relations, extracted generators) use this normalization.

Forms store field scalars.  Only fanosing.linalg knows how a scalar is
stored: the int paths here read scalars through its _ints.  Substitution
on a span has one int kernel, _expand: it reads P as sparse int terms
(c, ((i, k), ...)) (_plain_terms, the layout of Hypersurface.plain_form)
and the spanning vectors as int rows, residues mod p or over Q integers
after clearing denominators once.  restrict_to_plane is its one public
entry point, with residues over F_p and Fractions over Q for the
coefficients it returns; fanosing.tangent calls _expand directly for a
line's deformation matrix and fanosing.singular for its line scans.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .linalg import (Field, FieldMismatch, _ints, _is_prime, parse_field, plain,
                     rank)


class NotDivisible(ValueError):
    """Exact division failed; .remainder carries the obstruction."""

    def __init__(self, message, remainder=None):
        super().__init__(message)
        self.remainder = remainder


class _Form:
    """The ring API of both form classes.  A subclass supplies field, nvars,
    degree, is_zero, + and scale, sorted_terms() (the (exponents, nonzero
    coefficient) pairs, exponents descending), _one(), _times(other) (the
    product of two forms of its class), _names() and _zero_repr()."""

    __slots__ = ()

    def _check(self, other, same_degree=True):
        if self.field != other.field:
            raise FieldMismatch("field mismatch: %s vs %s" % (self.field, other.field))
        if self.nvars != other.nvars:
            raise ValueError("variable counts differ")
        if same_degree and self.degree != other.degree:
            raise ValueError("degrees differ: %d vs %d" % (self.degree, other.degree))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.scale(-1)

    def __mul__(self, other):
        if not isinstance(other, type(self)):
            return self.scale(other)
        self._check(other, same_degree=False)
        return self._times(other)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result, base = self._one(), self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.field == other.field and self.nvars == other.nvars
                and self.degree == other.degree
                and self.sorted_terms() == other.sorted_terms())

    def evaluate(self, point):
        """The form at point as one field scalar; the point is checked
        against the field first."""
        point = self.field.vector(point)
        if len(point) != self.nvars:
            raise ValueError("point has %d coordinates, form has %d variables"
                             % (len(point), self.nvars))
        return sum((c * math.prod(x**k for x, k in zip(point, e) if k)
                    for e, c in self.sorted_terms()), self.field.zero())

    def __repr__(self):
        if self.is_zero():
            return self._zero_repr()
        bits, names = [], self._names()
        for e, c in self.sorted_terms():
            mono = "*".join("%s^%d" % (v, k) if k > 1 else v
                            for v, k in zip(names, e) if k)
            bits.append("%s*%s" % (c, mono) if mono else str(c))
        return " + ".join(bits)


class MultiForm(_Form):
    """Sparse homogeneous form: exponent tuple -> nonzero coefficient.

    Immutable by convention; arithmetic returns new instances.  The zero
    form still carries a definite degree and variable count.
    """

    __slots__ = ("field", "nvars", "degree", "terms")

    def __init__(self, field: Field, nvars: int, degree: int, terms=None):
        if nvars < 1:
            raise ValueError("need at least one variable")
        if degree < 0:
            raise ValueError("degree must be >= 0")
        clean = {}
        for exps, c in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ValueError("bad exponent tuple %r" % (exps,))
            if sum(exps) != degree:
                raise ValueError("term %r is not of degree %d" % (exps, degree))
            c = field.scalar(c)
            if c:
                clean[exps] = clean[exps] + c if exps in clean else c
                if not clean[exps]:
                    del clean[exps]
        self.field = field
        self.nvars = nvars
        self.degree = degree
        self.terms = clean

    @classmethod
    def zero(cls, field: Field, nvars: int, degree: int):
        return cls(field, nvars, degree, {})

    @classmethod
    def monomial(cls, field: Field, nvars: int, exps, coeff=1):
        return cls(field, nvars, sum(exps), {tuple(exps): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, self.field.zero()) + c
        return MultiForm(self.field, self.nvars, self.degree, terms)

    def scale(self, c):
        c = self.field.scalar(c)
        return MultiForm(self.field, self.nvars, self.degree,
                         {e: c * v for e, v in self.terms.items()})

    def _one(self):
        return MultiForm(self.field, self.nvars, 0, {(0,) * self.nvars: 1})

    def _times(self, other):
        terms = {}
        zero = self.field.zero()
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, zero) + c1 * c2
        return MultiForm(self.field, self.nvars, self.degree + other.degree, terms)

    def partial(self, i: int) -> "MultiForm":
        """Partial derivative with respect to variable i (degree drops by 1)."""
        if not 0 <= i < self.nvars:
            raise ValueError("variable index %d is outside 0..%d"
                             % (i, self.nvars - 1))
        if self.degree == 0:
            raise ValueError("cannot differentiate a degree-0 form")
        terms = {}
        zero = self.field.zero()
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            ne = e[:i] + (e[i] - 1,) + e[i + 1:]
            terms[ne] = terms.get(ne, zero) + c * e[i]
        return MultiForm(self.field, self.nvars, self.degree - 1, terms)

    def reduce_mod(self, p: int) -> "MultiForm":
        """Reduce a rational form modulo a prime (denominators must be units)."""
        if not self.field.is_rational:
            raise ValueError("reduce_mod applies to rational forms")
        return MultiForm(Field(p), self.nvars, self.degree, self.terms)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def _names(self):
        return ["x%d" % i for i in range(self.nvars)]

    def _zero_repr(self):
        return "MultiForm(0; deg %d, %d vars, %s)" % (self.degree, self.nvars, self.field)


class BinaryForm(_Form):
    """Dense homogeneous form on a line: coeffs[i] multiplies s^(d-i) t^i."""

    __slots__ = ("field", "coeffs")
    nvars = 2

    def __init__(self, field: Field, coeffs):
        coeffs = tuple(field.scalar(c) for c in coeffs)
        if not coeffs:
            raise ValueError("empty coefficient list")
        self.field = field
        self.coeffs = coeffs

    @classmethod
    def zero(cls, field: Field, degree: int):
        return cls(field, (0,) * (degree + 1))

    @classmethod
    def linear(cls, field: Field, a, b):
        """a*s + b*t."""
        return cls(field, (a, b))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __add__(self, other):
        self._check(other)
        return BinaryForm(self.field, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def scale(self, c):
        c = self.field.scalar(c)
        return BinaryForm(self.field, tuple(c * v for v in self.coeffs))

    def _one(self):
        return BinaryForm(self.field, (1,))

    def _times(self, other):
        a, m = _plain_coeffs(self)
        return BinaryForm(self.field, _umul(a, _plain_coeffs(other)[0], m))

    def evaluate(self, a, b):
        return super().evaluate((self.field.scalar(a), self.field.scalar(b)))

    def monic(self):
        """Scale so the earliest nonzero coefficient is 1."""
        for c in self.coeffs:
            if c:
                return self.scale(self.field.one() / c)
        raise ValueError("cannot normalize the zero form")

    def t_multiplicity(self) -> int:
        """Largest k with t^k dividing the form (order of vanishing at [1:0])."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        raise ValueError("zero form")

    def s_multiplicity(self) -> int:
        for i in range(self.degree, -1, -1):
            if self.coeffs[i]:
                return self.degree - i
        raise ValueError("zero form")

    def sorted_terms(self):
        d = self.degree
        return [((d - i, i), c) for i, c in enumerate(self.coeffs) if c]

    def _names(self):
        return ("s", "t")

    def _zero_repr(self):
        return "BinaryForm(0; deg %d, %s)" % (self.degree, self.field)


# ---------------------------------------------------------------------------
# contraction / restriction


def contract(v, P: MultiForm) -> MultiForm:
    """Directional derivative D_v P (degree drops by one, no 1/d factor)."""
    if P.degree < 1:
        raise ValueError("contraction needs degree >= 1")
    v = P.field.vector(v)
    if len(v) != P.nvars:
        raise ValueError("vector length does not match variable count")
    out = MultiForm.zero(P.field, P.nvars, P.degree - 1)
    for i, vi in enumerate(v):
        if vi:
            out = out + P.partial(i).scale(vi)
    return out


def _nonzero(terms, p):
    """terms without its zero values, each reduced mod p when p > 0."""
    out = {}
    for k, v in terms.items():
        if p:
            v %= p
        if v:
            out[k] = v
    return out


def _plain_terms(P: MultiForm):
    """P's terms on ints, as (terms, den): each term (c, ((i, k), ...))
    carries its coefficient as an int and its nonzero exponents.  Over Q the
    terms are those of den*P, den the lcm of P's denominators; over F_p the
    residues, den 1.  linalg._ints checks every coefficient."""
    (coeffs,), (den,) = _ints([P.terms.values()], P.field)
    pairs = {}      # one (i, k) tuple per distinct factor, shared by terms
    return [(c, tuple(pairs.setdefault(f, f) for f in enumerate(e) if f[1]))
            for e, c in zip(P.terms, coeffs)], den


def _expand(terms, rows, cols, degree: int, p: int) -> list:
    """[P, d_{c1} P, ...] (c in cols) on sum_k y_k * rows[k], on ints: the
    one substitution kernel.

    terms are P's sparse int terms (from _plain_terms) of the given degree,
    rows int vectors (residues mod p, or any ints over Q).  Each output is a
    {packed monomial key: int} dict without zero values, reduced mod p when
    p > 0.  A monomial y^f is keyed by the int sum_k f_k B^k with
    B = degree + 1, so multiplying monomials adds keys.  The powers of each
    ambient variable's linear form are built only when a term needs them.
    A term with a factor x_i^k whose linear form is zero contributes
    nothing to P, and to d_i P only when that is its one such factor and
    k = 1, so such terms are skipped before any product is formed.
    """
    base = degree + 1

    def mul(a, b):
        out = {}
        get = out.get
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
        return _nonzero(out, p)

    # powers[i][k]: the k-th power of the linear form of ambient variable i
    powers = [[{0: 1}, {base ** j: v[i] for j, v in enumerate(rows) if v[i]}]
              for i in range(len(rows[0]) if rows else 0)]
    outs = [{} for _ in range(len(cols) + 1)]
    for c, e in terms:
        zero = [(i, k) for i, k in e if not powers[i][1]]
        if not zero:
            # c x^e contributes e_j c x^(e - unit_j) to the partial d_j P
            exps = dict(e)
            jobs = [(0, c, e)] + [
                (n, c * exps[j], tuple((i, k - (i == j)) for i, k in e
                                       if k > (i == j)))
                for n, j in enumerate(cols, 1) if j in exps]
        elif len(zero) == 1 and zero[0][1] == 1:
            j = zero[0][0]
            rest = tuple(f for f in e if f[0] != j)
            jobs = [(n, c, rest) for n, col in enumerate(cols, 1) if col == j]
        else:
            continue
        for n, a, f in jobs:
            term = {0: a}
            for i, k in f:
                pw = powers[i]
                while len(pw) <= k:
                    pw.append(mul(pw[-1], pw[1]))
                term = mul(term, pw[k])
            acc = outs[n]
            for key, v in term.items():
                acc[key] = acc.get(key, 0) + v
    return [_nonzero(acc, p) for acc in outs]


def restrict_to_plane(P: MultiForm, basis):
    """P restricted to the span of basis, in the dual coordinates y of basis:
    a BinaryForm in (s, t) on a line (two vectors), otherwise a MultiForm in
    len(basis) variables.  basis must be nonempty and linearly independent.

    One _expand on the int terms of P and the int vectors.  linalg._ints
    checks the vectors once, entries and lengths: residues mod p, or over Q
    m_k basis[k], m_k the lcm of its denominators.  With P read as den*P the
    int y^f coefficient is den prod_k m_k^(f_k) times the true one, so over
    Q a Fraction is built once for each returned coefficient.
    """
    field, d = P.field, P.degree
    basis = [field.vector(v) for v in basis]
    if not basis:
        raise ValueError("basis of the plane is empty")
    if rank(basis, field) != len(basis):
        raise ValueError("basis of the plane is linearly dependent")
    rows, scales = _ints(basis, field, P.nvars)
    terms, den = _plain_terms(P)
    r, out = len(rows), {}
    for key, v in _expand(terms, rows, (), d, field.p)[0].items():
        f = []
        for _ in range(r):
            key, k = divmod(key, d + 1)
            f.append(k)
        out[tuple(f)] = v if field.p else Fraction(
            v, den * math.prod(map(pow, scales, f)))
    if r != 2:
        return MultiForm(field, r, d, out)
    return BinaryForm(field, [out.get((d - i, i), 0) for i in range(d + 1)])


# ---------------------------------------------------------------------------
# dense univariate kernel: coefficient lists, index = power of t.  Entries
# are plain values: ints mod m when m > 0 (m = p, or a power of p while a
# factorization is lifted), exact values when m = 0.


def _trim(a):
    """Copy of a without its trailing zero coefficients."""
    a = list(a)
    while a and not a[-1]:
        a.pop()
    return a


def _plain_coeffs(f):
    """(f's coefficients, m): residues and m = p, or Fractions and m = 0."""
    p = f.field.p
    return (_ints([f.coeffs], f.field)[0][0] if p else list(f.coeffs)), p


def _umul(a, b, m):
    """Product of two coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return [c % m for c in out] if m else out


def _usub(a, b, m):
    """a - b, trimmed."""
    out = list(a) + [0] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] -= y
    return _trim([c % m for c in out] if m else out)


def _udivmod(a, b, m):
    """(q, r) with a = q*b + r, deg r < deg b and r trimmed; q has
    len(a) - len(b) + 1 entries.  b is trimmed with a lead that is a unit
    mod m; when m = 0 a's entries are Fractions, so quotients are exact."""
    n = len(b)
    r = list(a)
    q = [0] * max(len(a) - n + 1, 0)
    lead = pow(b[-1], -1, m) if m else b[-1]
    for i in range(len(a) - n, -1, -1):
        c = r[i + n - 1] * lead % m if m else r[i + n - 1] / lead
        if c:
            q[i] = c
            for j in range(n - 1):
                r[i + j] -= c * b[j]
    r = r[:n - 1]
    return q, _trim([c % m for c in r] if m else r)


def _ugcd(a, b, m):
    """A gcd of two coefficient lists by Euclid, unnormalized and trimmed."""
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, _udivmod(a, b, m)[1]
    return a


def _monic(a, m):
    """A trimmed list mod m scaled to lead 1."""
    inv = pow(a[-1], -1, m)
    return [c * inv % m for c in a]


def _upowmod(a, e, g, m):
    """a^e mod g by square-and-multiply."""
    out = [1]
    for bit in bin(e)[2:]:
        out = _udivmod(_umul(out, out, m), g, m)[1]
        if bit == "1":
            out = _udivmod(_umul(out, a, m), g, m)[1]
    return out


def _peel(a, b, m):
    """(a / b^k, k) for the largest k with b^k dividing a (a nonzero)."""
    k = 0
    while True:
        q, r = _udivmod(a, b, m)
        if r:
            return a, k
        a, k = q, k + 1


def _int_poly(coeffs):
    """Primitive integer multiple of rational coefficients whose earliest
    nonzero entry is positive."""
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    g = math.gcd(*ints) or 1
    if next((i for i in ints if i), 0) < 0:
        g = -g
    return [i // g for i in ints]


# ---------------------------------------------------------------------------
# factoring chart polynomials: F_p by distinct- and equal-degree splitting,
# Q by Hensel-lifting a factorization mod p


def _factor_fp(g, p):
    """The distinct monic irreducible factors over F_p of a trimmed list g,
    at a cost polynomial in deg g and log p.

    Distinct-degree factoring: with h = t^(p^k) mod g, gcd(g, h - t) is the
    squarefree product of g's irreducible factors of degree dividing k.
    Those of smaller degree are already divided out of g completely, so
    _split separates factors of degree k, and each is divided out in turn.
    Once deg g < 2(k + 1), what is left of g is 1 or irreducible.
    """
    g = _monic(g, p)
    out, h, k = [], [0, 1], 0
    while len(g) > 2 * (k + 1):
        k += 1
        h = _upowmod(h, p, g, p)
        d = _ugcd(g, _usub(h, [0, 1], p), p)
        if len(d) > 1:
            for u in _split(_monic(d, p), k, p, 0):
                out.append(u)
                g = _peel(g, u, p)[0]
    return out + [g] if len(g) > 1 else out


def _split(d, k, p, n):
    """Equal-degree splitting of a monic squarefree d over F_p whose
    irreducible factors all have degree k.

    Trial element n has the base-p digits of p + n as coefficients: t,
    t + 1, ..., t + p - 1, 2t, ...  For odd p, gcd(d, a^((p^k - 1)/2) - 1)
    keeps the factors modulo which a is a nonzero square; over F_2,
    gcd(d, a + a^2 + ... + a^(2^(k-1))) those where a has trace 0.  Some a
    of degree < deg d splits d (Chinese remainders); one that fails on d
    fails on its factors too, so they go on from the next.
    """
    if len(d) - 1 == k:
        return [d]
    while True:
        a, x = [], p + n
        while x:
            x, c = divmod(x, p)
            a.append(c)
        n += 1
        if p == 2:
            w = x = _udivmod(a, d, 2)[1]
            for _ in range(k - 1):
                x = _udivmod(_umul(x, x, 2), d, 2)[1]
                w = _usub(w, x, 2)          # - is + over F_2
        else:
            w = _usub(_upowmod(a, (p ** k - 1) // 2, d, p), [1], p)
        e = _ugcd(d, w, p)
        if 1 < len(e) < len(d):
            e = _monic(e, p)
            return (_split(e, k, p, n)
                    + _split(_udivmod(d, e, p)[0], k, p, n))


def _hensel_lift(w, u, p, m):
    """The monic factor of w mod m (a power of p) that is u mod p, for u
    a simple monic irreducible factor of w mod p and p not dividing w's lead.

    Each step lifts f = w/lc = g h and s = 1/g mod h from mod k to mod k^2:
    h += s (f - g h) mod h, g = f div h, and s = s (2 - s g) mod h.  The
    first s is g^(p^deg u - 2) mod u, F_p[t]/(u) being a field.
    """
    h = u
    g = _udivmod(_monic([c % p for c in w], p), h, p)[0]
    s = _upowmod(g, p ** (len(h) - 1) - 2, h, p)
    k = p
    while k < m:
        k *= k
        f = _monic([c % k for c in w], k)
        e = _usub(_umul(g, h, k), f, k)
        h = _usub(h, _udivmod(_umul(s, e, k), h, k)[1], k)
        g = _udivmod(f, h, k)[0]
        s = _udivmod(_usub([2 * c for c in s], _umul(s, _umul(s, g, k), k),
                           k), h, k)[1]
    return h


def _factor_q(core):
    """The irreducible factors over Q, normalized by _int_poly, of a
    Fraction list with nonzero first and last entries.

    Its primitive squarefree part w is factored mod the least prime p that
    keeps w's degree and squarefreeness, and the factors are Hensel-lifted
    to m > 2 |lc| B, B = 2^deg w |w|_2 the Mignotte bound on the
    coefficients of a factor.  A factor of w times lc/its lead is then lc
    times a product of lifted factors, read in (-m/2, m/2): subsets by
    increasing size are trial-divided over Z until half the rest is tried.
    """
    der = [c * i for i, c in enumerate(core)][1:]
    w = _int_poly(_udivmod(core, _ugcd(core, der, 0), 0)[0])
    p = 2
    while not w[-1] % p or len(_ugcd([c % p for c in w],
                                     [c * i % p for i, c in enumerate(w)][1:],
                                     p)) > 1:
        p = next(q for q in itertools.count(p + 1) if _is_prime(q))
    factors = _factor_fp([c % p for c in w], p)
    if len(factors) == 1:
        return [w]
    m, norm = p, math.isqrt(sum(c * c for c in w)) + 1
    while m <= (2 * abs(w[-1]) * norm) << (len(w) - 1):
        m *= m
    lifted = [_hensel_lift(w, u, p, m) for u in factors]
    f = [Fraction(c) for c in w]
    out, size = [], 1
    while 2 * size <= len(lifted):
        for subset in itertools.combinations(lifted, size):
            g = [f[-1].numerator]
            for u in subset:
                g = _umul(g, u, m)
            g = _int_poly([c - m if 2 * c > m else c for c in g])
            q, r = _udivmod(f, g, 0)
            if not r:
                out.append(g)
                f = q
                lifted = [u for u in lifted if u not in subset]
                break
        else:
            size += 1
    return out + [_int_poly(f)] if len(f) > 1 else out


# ---------------------------------------------------------------------------
# binary form division, gcd, roots


def binary_divide(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """Exact quotient f/g of binary forms, divided in the chart s=1 and
    re-homogenized; NotDivisible carries the remainder, or f itself when
    no homogeneous quotient of degree deg f - deg g exists."""
    f._check(g, same_degree=False)
    if g.is_zero():
        raise ZeroDivisionError("division by the zero form")
    df, dg = f.degree, g.degree
    rem = f
    if df >= dg:
        a, m = _plain_coeffs(f)
        uq, r = _udivmod(a, _trim(_plain_coeffs(g)[0]), m)
        # t-degree of the quotient may not exceed df - dg (s-power obstruction)
        if not any(uq[df - dg + 1:]):
            if not r:
                return BinaryForm(f.field, uq[:df - dg + 1])
            rem = BinaryForm(f.field, r + [0] * (df + 1 - len(r)))
    raise NotDivisible("binary form is not divisible", remainder=rem)


def binary_gcd(forms) -> BinaryForm:
    """Monic gcd of a collection of binary forms over the same field.

    Zero forms are ignored; the gcd of an all-zero (or empty) collection is
    undefined and raises.  'Monic' means the earliest nonzero coefficient
    is 1.
    """
    forms = [f for f in forms if not f.is_zero()]
    if not forms:
        raise ValueError("gcd needs at least one nonzero form")
    for f in forms[1:]:
        f._check(forms[0], same_degree=False)
    g, m = _plain_coeffs(forms[0])
    sm = forms[0].s_multiplicity()
    for f in forms[1:]:
        # the chart gcd misses the common power of s; put it back
        sm = min(sm, f.s_multiplicity())
        g = _ugcd(g, _plain_coeffs(f)[0], m) + [0] * sm
        if len(g) == 1:
            break
    return BinaryForm(forms[0].field, g).monic()


@dataclass(frozen=True)
class RootReport:
    """Projective roots of a binary form over the ground field.

    roots: ((x, y), multiplicity) pairs, (x, y) in canonical coordinates
    (first nonzero coordinate 1 over F_p; primitive integers with positive
    leading coordinate over Q).  unsolved: the irreducible factors of degree
    >= 2 with multiplicities, with s^deg coefficient 1 over F_p, primitive
    with it positive over Q; their roots live in an extension.
    """

    roots: tuple
    unsolved: tuple


def projective_normalize(vec, field: Field):
    """Canonical coordinates of a projective point."""
    vec = list(field.vector(vec))
    if not any(vec):
        raise ValueError("zero vector does not define a projective point")
    if not field.is_rational:
        lead = next(x for x in vec if x)
        inv = field.one() / lead
        return tuple(inv * x for x in vec)
    return tuple(Fraction(i) for i in _int_poly(vec))


def binary_roots(f: BinaryForm) -> RootReport:
    """Roots and irreducible factors of a nonzero binary form over its field.

    The powers of t and s give the roots [1:0] and [0:1]; the chart f(1, t)
    of the rest is factored by _factor_fp or _factor_q, in time polynomial
    in log p and the coefficient size.  Linear factors are roots, the others
    unsolved, each with the multiplicity _peel finds.  Roots come as [1:a]
    by ascending a, then [0:1], over F_p, and sorted over Q; unsolved
    factors by degree, then by their t-monic (over Q, _int_poly)
    coefficients from the constant term up.
    """
    if f.is_zero():
        raise ValueError("roots of the zero form are everything")
    field = f.field
    c, m = _plain_coeffs(f)
    tm, sm = f.t_multiplicity(), f.s_multiplicity()
    core = c[tm:len(c) - sm]
    roots = [((1, 0), tm), ((0, 1), sm)]
    unsolved = []
    if len(core) > 1:
        for u in sorted(_factor_fp(core, m) if m else _factor_q(core),
                        key=lambda u: (len(u), u)):
            core, k = _peel(core, u, m)
            if len(u) == 2:
                roots.append(((u[1], -u[0]), k))
            else:
                unsolved.append((BinaryForm(field, u).monic() if m
                                 else BinaryForm(field, u), k))
    roots = [(projective_normalize(pt, field), k) for pt, k in roots if k]
    # over F_p [0:1] goes last
    roots.sort(key=lambda r: (m and not r[0][0], [plain(x) for x in r[0]]))
    return RootReport(tuple(roots), tuple(unsolved))


# ---------------------------------------------------------------------------
# text format


def _natural_at(lineno: int, what: str, value: str, least: int = 0) -> int:
    """int(value) if it is an integer >= least (0 or 1), else a ValueError
    that names the line."""
    try:
        if int(value) >= least:
            return int(value)
    except ValueError:
        pass
    raise ValueError("line %d: %s needs a %s integer, got %r" % (
        lineno, what, "positive" if least else "non-negative", value))


def _at(where: str, parse, value: str):
    """parse(value); a bad literal is reported with where it stands."""
    try:
        return parse(value)
    except ValueError as e:
        raise ValueError("%s: %s" % (where, e)) from None


def _headed_lines(text: str, count: str, least: int = 0):
    """(field, k, [(lineno, tokens), ...]) of an input file: a 'field'
    header and a header `count` with an integer k >= least, each once,
    in either order, before the body lines.  '#' starts a comment; a
    header's value is the rest of its line; every error names its line.
    """
    heads = {}
    lines = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        toks = raw.split("#", 1)[0].split()
        if not toks:
            continue
        key, value = toks[0], " ".join(toks[1:])
        if key not in ("field", count):
            if len(heads) < 2:
                raise ValueError("line %d: %r comes before the 'field' and "
                                 "'%s' headers" % (lineno, " ".join(toks), count))
            lines.append((lineno, toks))
        elif key in heads:
            raise ValueError("line %d: repeated '%s' header" % (lineno, key))
        elif not value:
            raise ValueError("line %d: '%s' needs a value" % (lineno, key))
        elif key == "field":
            heads[key] = _at("line %d" % lineno, parse_field, value)
        else:
            heads[key] = _natural_at(lineno, "'%s'" % key, value, least)
    if len(heads) < 2:
        raise ValueError("missing 'field' or '%s' header" % count)
    return heads["field"], heads[count], lines


def parse_form(text: str) -> MultiForm:
    """Parse the exchange format:

        field Q            # or: field Fp 7, field Fp:7
        vars 4
        1 3 0 0 0          # coefficient, then one exponent per variable
        -1/2 0 1 1 1

    Each header appears once, in either order, before the first term line
    (see _headed_lines); repeated monomials are summed.
    """
    field, nvars, body = _headed_lines(text, "vars", 1)
    terms = {}
    for lineno, toks in body:
        if len(toks) != nvars + 1:
            raise ValueError("line %d: a term line needs a coefficient and %d "
                             "exponents, got %d tokens"
                             % (lineno, nvars, len(toks)))
        c = _at("line %d: coefficient" % lineno, field.scalar, toks[0])
        e = tuple(_natural_at(lineno, "exponent", t) for t in toks[1:])
        terms[e] = terms[e] + c if e in terms else c
    if not terms:
        raise ValueError("form has no terms")
    degs = {sum(e) for e in terms}
    if len(degs) != 1:
        raise ValueError("form is not homogeneous: degrees %s" % sorted(degs))
    return MultiForm(field, nvars, degs.pop(), terms)


def format_scalar(c) -> str:
    return str(plain(c))


def format_form(P: MultiForm) -> str:
    lines = ["field %s" % ("Q" if P.field.is_rational else "Fp %d" % P.field.p),
             "vars %d" % P.nvars]
    for e, c in P.sorted_terms():
        lines.append(" ".join([format_scalar(c)] + [str(k) for k in e]))
    return "\n".join(lines) + "\n"
