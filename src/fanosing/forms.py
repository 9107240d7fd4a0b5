"""Homogeneous forms with exact coefficients.

MultiForm is a sparse homogeneous polynomial in n+1 ambient variables;
BinaryForm is a dense homogeneous form on a line, written in the dual
coordinates (s, t) of a chosen basis of the line.  Binary-form product,
division, gcd and root peeling share one dense univariate kernel.  Over
F_p the roots of a binary form are not found by scanning the p+1 points of
the line: the kernel computes gcd(f, t^p - t) by modular powering and splits
it by equal-degree factoring with fixed shifts, at a cost polynomial in
log p.

Contraction convention: contract(v, P) is the directional derivative D_v P,
*not* divided by the degree.  All identities downstream (restricted
contractions, chain relations, extracted generators) use this normalization.
restrict_partials restricts P and its partials d_c P = contract(e_c, P) to a
span from one substitution of P.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .linalg import Field, FieldMismatch, QQ, parse_field, plain, rank


class NotDivisible(ValueError):
    """Exact division failed; .remainder carries the obstruction."""

    def __init__(self, message, remainder=None):
        super().__init__(message)
        self.remainder = remainder


class CharacteristicTooSmall(ValueError):
    """Polarization denominators vanish: characteristic <= degree."""


class MultiForm:
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

    def _check(self, other: "MultiForm", same_degree=True):
        if self.field != other.field:
            raise FieldMismatch("field mismatch: %s vs %s" % (self.field, other.field))
        if self.nvars != other.nvars:
            raise ValueError("variable counts differ")
        if same_degree and self.degree != other.degree:
            raise ValueError("degrees differ: %d vs %d" % (self.degree, other.degree))

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, self.field.zero()) + c
        return MultiForm(self.field, self.nvars, self.degree, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return MultiForm(self.field, self.nvars, self.degree,
                         {e: -c for e, c in self.terms.items()})

    def scale(self, c):
        c = self.field.scalar(c)
        return MultiForm(self.field, self.nvars, self.degree,
                         {e: c * v for e, v in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, MultiForm):
            return self.scale(other)
        self._check(other, same_degree=False)
        terms = {}
        zero = self.field.zero()
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, zero) + c1 * c2
        return MultiForm(self.field, self.nvars, self.degree + other.degree, terms)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = MultiForm(self.field, self.nvars, 0, {(0,) * self.nvars: 1})
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, MultiForm):
            return NotImplemented
        return (self.field == other.field and self.nvars == other.nvars
                and self.degree == other.degree and self.terms == other.terms)

    def partial(self, i: int) -> "MultiForm":
        """Partial derivative with respect to variable i (degree drops by 1)."""
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

    def evaluate(self, point):
        point = self.field.vector(point)
        if len(point) != self.nvars:
            raise ValueError("point has %d coordinates, form has %d variables"
                             % (len(point), self.nvars))
        total = self.field.zero()
        for e, c in self.terms.items():
            v = c
            for x, k in zip(point, e):
                if k:
                    v = v * x**k
            total = total + v
        return total

    def reduce_mod(self, p: int) -> "MultiForm":
        """Reduce a rational form modulo a prime (denominators must be units)."""
        if not self.field.is_rational:
            raise ValueError("reduce_mod applies to rational forms")
        fp = Field(p)
        return MultiForm(fp, self.nvars, self.degree,
                         {e: fp.scalar(c) for e, c in self.terms.items()})

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def __repr__(self):
        if self.is_zero():
            return "MultiForm(0; deg %d, %d vars, %s)" % (self.degree, self.nvars, self.field)
        bits = []
        for e, c in self.sorted_terms():
            mono = "*".join("x%d^%d" % (i, k) if k > 1 else "x%d" % i
                            for i, k in enumerate(e) if k)
            bits.append("%s*%s" % (c, mono) if mono else str(c))
        return " + ".join(bits)


class BinaryForm:
    """Dense homogeneous form on a line: coeffs[i] multiplies s^(d-i) t^i."""

    __slots__ = ("field", "coeffs")

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

    def _check(self, other: "BinaryForm", same_degree=True):
        if self.field != other.field:
            raise FieldMismatch("field mismatch: %s vs %s" % (self.field, other.field))
        if same_degree and self.degree != other.degree:
            raise ValueError("degrees differ: %d vs %d" % (self.degree, other.degree))

    def __add__(self, other):
        self._check(other)
        return BinaryForm(self.field, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return BinaryForm(self.field, tuple(-c for c in self.coeffs))

    def scale(self, c):
        c = self.field.scalar(c)
        return BinaryForm(self.field, tuple(c * v for v in self.coeffs))

    def __mul__(self, other):
        if not isinstance(other, BinaryForm):
            return self.scale(other)
        self._check(other, same_degree=False)
        return BinaryForm(self.field,
                          _umul(self.coeffs, other.coeffs, self.field.zero()))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = BinaryForm(self.field, (self.field.one(),))
        for _ in range(k):
            result = result * self
        return result

    def __eq__(self, other):
        if not isinstance(other, BinaryForm):
            return NotImplemented
        return (self.field == other.field and self.coeffs == other.coeffs)

    def evaluate(self, a, b):
        a, b = self.field.scalar(a), self.field.scalar(b)
        d = self.degree
        total = self.field.zero()
        for i, c in enumerate(self.coeffs):
            if c:
                total = total + c * a**(d - i) * b**i
        return total

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

    def __repr__(self):
        if self.is_zero():
            return "BinaryForm(0; deg %d, %s)" % (self.degree, self.field)
        d = self.degree
        bits = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            mono = []
            if d - i:
                mono.append("s^%d" % (d - i) if d - i > 1 else "s")
            if i:
                mono.append("t^%d" % i if i > 1 else "t")
            bits.append("%s*%s" % (c, "*".join(mono)) if mono else str(c))
        return " + ".join(bits)


# ---------------------------------------------------------------------------
# contraction / restriction / polarization


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


def _substitute(P: MultiForm, vectors, cols=()):
    """[P, d_{c1} P, ...] (c in cols) evaluated on sum_k y_k * vectors[k], as
    forms in the y's; one table of powers of the linear forms serves them all.

    No independence requirement; exact substitution and expansion.
    """
    field = P.field
    r = len(vectors)
    vectors = [field.vector(v) for v in vectors]
    for v in vectors:
        if len(v) != P.nvars:
            raise ValueError("vector length does not match variable count")
    # linear form in the y's for each ambient variable
    lin = []
    for i in range(P.nvars):
        lin.append(MultiForm(field, r, 1,
                             {tuple(1 if k == j else 0 for k in range(r)): vectors[j][i]
                              for j in range(r) if vectors[j][i]}))
    max_exp = [0] * P.nvars
    for e in P.terms:
        for i, k in enumerate(e):
            max_exp[i] = max(max_exp[i], k)
    powers = []
    for i in range(P.nvars):
        pw = [MultiForm(field, r, 0, {(0,) * r: 1})]
        for _ in range(max_exp[i]):
            pw.append(pw[-1] * lin[i])
        powers.append(pw)
    outs = [MultiForm.zero(field, r, P.degree)]
    outs += [MultiForm.zero(field, r, P.degree - 1) for _ in cols]
    for e, c in P.terms.items():
        # c x^e contributes e_j c x^(e - unit_j) to the partial d_j P
        jobs = [(0, c, e)] + [(n, c * e[j], e[:j] + (e[j] - 1,) + e[j + 1:])
                              for n, j in enumerate(cols, 1) if e[j]]
        for n, a, f in jobs:
            term = MultiForm(field, r, 0, {(0,) * r: a})
            for i, k in enumerate(f):
                if k:
                    term = term * powers[i][k]
            outs[n] = outs[n] + term
    return outs


def restrict_partials(P: MultiForm, basis, cols):
    """[P, d_{c1} P, ...] restricted to the span of basis, in the dual
    coordinates of basis, from one substitution; d_c P is contract(e_c, P).

    basis must be linearly independent.  For a 2-dimensional span (a line)
    each result is a BinaryForm in (s, t); otherwise a MultiForm in k+1
    variables.
    """
    basis = [P.field.vector(v) for v in basis]
    if rank(basis, P.field) != len(basis):
        raise ValueError("basis of the plane is linearly dependent")
    forms = _substitute(P, basis, cols)
    if len(basis) != 2:
        return forms
    return [BinaryForm(P.field, [Q.terms.get((Q.degree - i, i), 0)
                                 for i in range(Q.degree + 1)]) for Q in forms]


def restrict_to_plane(P: MultiForm, basis):
    """P restricted to the span of basis, as restrict_partials gives it."""
    return restrict_partials(P, basis, ())[0]


def multilinear_eval(P: MultiForm, args):
    """Full polarization of P evaluated on vectors with multiplicities.

    args is a sequence of (vector, multiplicity) with multiplicities summing
    to deg P.  Needs characteristic 0 or p > deg P; the multinomial
    denominators are units exactly in that case.
    """
    d = P.degree
    mults = [int(m) for _, m in args]
    if any(m < 0 for m in mults) or sum(mults) != d:
        raise ValueError("multiplicities must be nonnegative and sum to the degree")
    if not P.field.is_rational and P.field.p <= d:
        raise CharacteristicTooSmall(
            "characteristic <= degree: polarization needs char 0 or p > %d" % d)
    Q = _substitute(P, [v for v, _ in args])[0]
    c = Q.terms.get(tuple(mults), P.field.zero())
    multinom = math.factorial(d)
    for m in mults:
        multinom //= math.factorial(m)
    return c / P.field.scalar(multinom)


# ---------------------------------------------------------------------------
# dense univariate kernel: coefficient lists, index = power of t


def _trim(a):
    """Copy of a without its trailing zero coefficients."""
    a = list(a)
    while a and not a[-1]:
        a.pop()
    return a


def _umul(a, b, zero):
    """Product of two coefficient lists."""
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = out[i + j] + x * y
    return out


def _udivmod(a, b, zero):
    """(q, r) with a = q*b + r and deg r < deg b; b[-1] must be nonzero.

    q has len(a) - len(b) + 1 entries (none when a is shorter than b); r
    keeps the length of a, with zeros from position len(b) - 1 on.
    """
    n = len(b)
    q = [zero] * max(len(a) - n + 1, 0)
    r = list(a)
    lead = b[-1]
    for i in range(len(a) - n, -1, -1):
        c = r[i + n - 1] / lead
        if c:
            q[i] = c
            for j in range(n):
                r[i + j] = r[i + j] - c * b[j]
    return q, r


def _ugcd(a, b, zero):
    """A gcd of two coefficient lists by Euclid, unnormalized and trimmed."""
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, _trim(_udivmod(a, b, zero)[1])
    return a


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
# binary form division, gcd, roots


def _binary_divmod(f: BinaryForm, g: BinaryForm):
    """(q, r) with f = q*g + r in the chart s=1, re-homogenized; q may be None
    when no homogeneous quotient of degree deg f - deg g exists."""
    f._check(g, same_degree=False)
    if g.is_zero():
        raise ZeroDivisionError("division by the zero form")
    df, dg = f.degree, g.degree
    if df < dg:
        return None, f
    uq, r = _udivmod(f.coeffs, _trim(g.coeffs), f.field.zero())
    # t-degree of the quotient may not exceed df - dg (s-power obstruction)
    if any(uq[df - dg + 1:]):
        return None, f
    return BinaryForm(f.field, uq[:df - dg + 1]), BinaryForm(f.field, r)


def _peel(f: BinaryForm, g: BinaryForm):
    """(f / g^k, k) for the largest k with g^k dividing f."""
    k = 0
    while True:
        q, r = _binary_divmod(f, g)
        if q is None or not r.is_zero():
            return f, k
        f, k = q, k + 1


def binary_divide(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """Exact quotient f/g of binary forms; NotDivisible carries the remainder."""
    q, r = _binary_divmod(f, g)
    if q is None or not r.is_zero():
        raise NotDivisible("binary form is not divisible", remainder=r)
    return q


def binary_gcd(forms) -> BinaryForm:
    """Monic gcd of a collection of binary forms over the same field.

    Zero forms are ignored; the gcd of an all-zero (or empty) collection is
    undefined and raises.  'Monic' means the earliest nonzero coefficient
    is 1.
    """
    forms = [f for f in forms if not f.is_zero()]
    if not forms:
        raise ValueError("gcd needs at least one nonzero form")
    field = forms[0].field
    zero = field.zero()
    for f in forms[1:]:
        f._check(forms[0], same_degree=False)
    g = forms[0]
    for f in forms[1:]:
        # the chart gcd misses the common power of s; put it back
        sm = min(g.s_multiplicity(), f.s_multiplicity())
        g = BinaryForm(field, _ugcd(g.coeffs, f.coeffs, zero) + [zero] * sm)
        if g.degree == 0:
            break
    return g.monic()


@dataclass(frozen=True)
class RootReport:
    """Projective roots of a binary form over the ground field.

    roots: ((x, y), multiplicity) pairs, (x, y) in canonical coordinates
    (first nonzero coordinate 1 over F_p; primitive integers with positive
    leading coordinate over Q).  unsolved: factors of degree >= 2 without
    rational roots, with multiplicities; their roots live in an extension.
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


def _divisors_signed(n: int):
    n = abs(n)
    small, big = [], []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i != n // i:
                big.append(n // i)
        i += 1
    out = small + big[::-1]
    return [d for v in out for d in (v, -v)]


def _kronecker_irreducible_factors(w):
    """Irreducible factors (each of degree >= 2) of a primitive squarefree
    integer polynomial with no rational roots, by divisor interpolation on
    small integer nodes.  Desk-scale only; guarded by a combinatorial budget.
    w comes normalized by _int_poly, and so does every factor returned.
    """
    n = len(w) - 1
    if n <= 3:
        return [list(w)]  # no rational roots and degree <= 3: irreducible
    zero = Fraction(0)
    wf = BinaryForm(QQ, w)
    for e in range(2, n // 2 + 1):
        nodes = [0]
        k = 1
        while len(nodes) < e + 1:
            nodes += [k, -k]
            k += 1
        nodes = nodes[:e + 1]
        vals = [int(wf.evaluate(1, x)) for x in nodes]
        div_lists = [_divisors_signed(v) for v in vals]
        total = 1
        for dl in div_lists:
            total *= len(dl)
            if total > 200000:
                raise ValueError("factorization budget exceeded")
        for choice in itertools.product(*div_lists):
            # Lagrange interpolation of a factor candidate through the nodes
            cand = [zero] * (e + 1)
            for xi, yi in zip(nodes, choice):
                li = [Fraction(1)]
                denom = Fraction(1)
                for xj in nodes:
                    if xj == xi:
                        continue
                    li = _umul(li, [Fraction(-xj), Fraction(1)], zero)
                    denom *= Fraction(xi - xj)
                scale = Fraction(yi) / denom
                for k2 in range(len(li)):
                    cand[k2] += scale * li[k2]
            if not cand[e] or any(c.denominator != 1 for c in cand):
                continue
            q, r = _udivmod(w, cand, zero)
            if any(r):
                continue
            return (_kronecker_irreducible_factors(_int_poly(cand))
                    + _kronecker_irreducible_factors(_int_poly(q)))
    return [list(w)]


def binary_roots(f: BinaryForm) -> RootReport:
    """Roots of a nonzero binary form over its field of definition.

    Over F_p: the finite roots [1:a] are the distinct roots of the chart
    polynomial f(1, t), found by _fp_chart_roots in time polynomial in
    log p; [0:1] is a root when the last coefficient vanishes.  Roots come
    as [1:a] by ascending a, then [0:1]; multiplicities by repeated exact
    division.  Over Q: rational roots by the integer root test, remaining
    factors split into irreducibles (desk scale) and reported unsolved.
    """
    if f.is_zero():
        raise ValueError("roots of the zero form are everything")
    field = f.field
    roots = []
    cofactor = f

    def peel(point):
        nonlocal cofactor
        x, y = point
        cofactor, mult = _peel(cofactor, BinaryForm.linear(field, y, -x))
        return mult

    if not field.is_rational:
        pts = [(field.one(), a) for a in _fp_chart_roots(_trim(f.coeffs), field)]
        if not f.coeffs[-1]:
            pts.append((field.zero(), field.one()))
        for pt in pts:
            roots.append((pt, peel(pt)))
        unsolved = ()
        if cofactor.degree >= 2:
            unsolved = tuple(_factor_nonsplit_fp(cofactor))
        return RootReport(tuple(roots), unsolved)

    # field Q
    tm = f.t_multiplicity()
    if tm:
        m = peel((field.one(), field.zero()))
        assert m == tm
        roots.append((projective_normalize((1, 0), field), m))
    sm = cofactor.s_multiplicity() if not cofactor.is_zero() else 0
    if cofactor.degree >= 1 and sm:
        m = peel((field.zero(), field.one()))
        roots.append((projective_normalize((0, 1), field), m))
    if cofactor.degree >= 1:
        # chart s=1: polynomial in t with nonzero constant and leading coeff
        ints = _int_poly(cofactor.coeffs)
        for num in _divisors_signed(ints[0]):
            for den in _divisors_signed(ints[-1]):
                if den <= 0:
                    continue
                pt = (field.one(), Fraction(num, den))
                if not cofactor.evaluate(*pt):
                    roots.append((projective_normalize(pt, field), peel(pt)))
    unsolved = []
    if cofactor.degree >= 2:
        w = list(cofactor.coeffs)
        der = [c * i for i, c in enumerate(w)][1:]
        sqfree, _ = _udivmod(w, _ugcd(w, der, field.zero()), field.zero())
        for fac in _kronecker_irreducible_factors(_int_poly(sqfree)):
            bf = BinaryForm(field, fac)
            cofactor, mult = _peel(cofactor, bf)
            unsolved.append((bf, mult))
    roots.sort(key=lambda rm: rm[0])
    return RootReport(tuple(roots), tuple(unsolved))


def _fp_chart_roots(g, field):
    """Distinct roots in F_p of a trimmed coefficient list g, ascending.

    r = gcd(g, t^p - t) is the product of the distinct linear factors of g,
    with t^p reduced mod g by square-and-multiply.  r is split by
    gcd(r, (t+a)^((p-1)/2) - 1) for the fixed shifts a = 0, 1, 2, ...
    (Cantor-Zassenhaus equal-degree splitting).  The gcd keeps the roots x
    with x + a a nonzero square; for odd p some shift keeps exactly one of
    any two roots, so the search ends.  A shift that fails to split r fails
    on its factors too, so they go on from the next one.  Over F_2 a
    squarefree r of degree 2 is t(t+1).
    """
    p = field.p
    zero, one = field.zero(), field.one()

    def powmod(base, e, mod):
        out = [one]
        for bit in bin(e)[2:]:
            out = _trim(_udivmod(_umul(out, out, zero), mod, zero)[1])
            if bit == "1":
                out = _trim(_udivmod(_umul(out, base, zero), mod, zero)[1])
        return out

    def split(r, a):
        if len(r) == 2:
            return [-r[0] / r[1]]
        if p == 2:
            return [zero, one]
        while True:
            w = powmod([field.scalar(a), one], (p - 1) // 2, r) or [zero]
            w[0] = w[0] - one
            d = _ugcd(r, w, zero)
            if 1 < len(d) < len(r):
                return split(d, a + 1) + split(_udivmod(r, d, zero)[0], a + 1)
            a += 1

    if len(g) < 2:
        return []
    h = powmod([zero, one], p, g) + [zero, zero]
    h[1] = h[1] - one
    r = _ugcd(g, h, zero)
    return sorted(split(r, 0), key=plain) if len(r) > 1 else []


def _factor_nonsplit_fp(f: BinaryForm):
    """Factor a rootless cofactor over a small prime field by trial division;
    for large p the cofactor is reported whole."""
    field = f.field
    p = field.p
    out = []
    if p > 64 or f.degree < 4:
        return [(f.monic(), 1)]
    rest = f
    for e in range(2, f.degree // 2 + 1):
        for tail in itertools.product(range(p), repeat=e):
            if not tail[0]:
                continue  # divisible by t, but the cofactor has no roots
            cand = BinaryForm(field, tail + (1,))
            rest, mult = _peel(rest, cand)
            if mult:
                out.append((cand.monic(), mult))
        if rest.degree < 4:
            break
    if rest.degree >= 2:
        out.append((rest.monic(), 1))
    return out


# ---------------------------------------------------------------------------
# text format


def _int_at(lineno: int, what: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValueError("line %d: %s needs an integer, got %r"
                         % (lineno, what, value)) from None


def _at(where: str, parse, value: str):
    """parse(value); a bad literal is reported with where it stands."""
    try:
        return parse(value)
    except ValueError as e:
        raise ValueError("%s: %s" % (where, e)) from None


def parse_form(text: str) -> MultiForm:
    """Parse the exchange format:

        field Q            (or: field Fp 7, field Fp:7)
        vars 4
        1 3 0 0 0          (coefficient, then one exponent per variable)
        -1/2 0 1 1 1

    Lines may appear in any order after the two headers; repeated monomials
    are summed.
    """
    field = None
    nvars = None
    terms = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        toks = line.split()
        if len(toks) == 1 and toks[0] in ("field", "vars"):
            raise ValueError("line %d: '%s' needs a value" % (lineno, toks[0]))
        if toks[0] == "field":
            field = _at("line %d" % lineno, parse_field, " ".join(toks[1:]))
            continue
        if toks[0] == "vars":
            nvars = _int_at(lineno, "'vars'", toks[1])
            continue
        if field is None or nvars is None:
            raise ValueError("term line before 'field'/'vars' headers")
        if len(toks) != nvars + 1:
            raise ValueError("term line %r: expected coefficient + %d exponents"
                             % (line, nvars))
        c = _at("line %d: coefficient" % lineno, field.scalar, toks[0])
        terms.append((c, tuple(_int_at(lineno, "exponent", t) for t in toks[1:])))
    if field is None or nvars is None:
        raise ValueError("missing 'field' or 'vars' header")
    if not terms:
        raise ValueError("form has no terms")
    degs = {sum(e) for _, e in terms}
    if len(degs) != 1:
        raise ValueError("form is not homogeneous: degrees %s" % sorted(degs))
    degree = degs.pop()
    out = MultiForm.zero(field, nvars, degree)
    for c, e in terms:
        out = out + MultiForm(field, nvars, degree, {e: c})
    return out


def format_scalar(c) -> str:
    return str(plain(c))


def format_form(P: MultiForm) -> str:
    lines = ["field %s" % ("Q" if P.field.is_rational else "Fp %d" % P.field.p),
             "vars %d" % P.nvars]
    for e, c in P.sorted_terms():
        lines.append(" ".join([format_scalar(c)] + [str(k) for k in e]))
    return "\n".join(lines) + "\n"
