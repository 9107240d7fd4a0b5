"""Polynomial layer: sparse forms, contraction, restriction, binary-form
division, gcd, and projective root finding."""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from fanosing.forms import (BinaryForm, MultiForm, NotDivisible, _expand,
                            _plain_terms, binary_divide, binary_gcd,
                            binary_roots, contract, format_form, format_scalar,
                            parse_form, projective_normalize, restrict_to_plane)
from fanosing.linalg import QQ, FieldMismatch, Fp, _ints, parse_field, rank
from reference import restrict

F7 = parse_field("Fp:7")
Fr = Fraction


def mono(field, nvars, exps, c=1):
    return MultiForm.monomial(field, nvars, exps, field.scalar(c))


def rand_form(rng, field, nvars, d, nterms):
    terms = {}
    for _ in range(nterms):
        e = [0] * nvars
        for _ in range(d):
            e[rng.randint(0, nvars - 1)] += 1
        terms[tuple(e)] = field.scalar(rng.randint(-5, 5))
    return MultiForm(field, nvars, d, terms)


def test_multiform_product():
    x0 = mono(QQ, 2, (1, 0))
    x1 = mono(QQ, 2, (0, 1))
    sq = (x0 + x1) * (x0 + x1)
    assert sq == mono(QQ, 2, (2, 0)) + mono(QQ, 2, (1, 1), 2) + mono(QQ, 2, (0, 2))
    assert (x0 + x1) ** 2 == sq


def test_partial_and_evaluate():
    P = mono(QQ, 2, (2, 1))  # x0^2 x1
    assert P.partial(0) == mono(QQ, 2, (1, 1), 2)
    assert P.partial(1) == mono(QQ, 2, (2, 0))
    assert P.evaluate((3, 5)) == Fr(45)


def test_partial_rejects_index_outside_variables():
    P = mono(QQ, 3, (2, 0, 1))
    assert P.partial(2) == mono(QQ, 3, (2, 0, 0))
    for i, msg in ((3, "variable index 3 is outside 0..2"),
                   (5, "variable index 5 is outside 0..2"),
                   (-1, "variable index -1 is outside 0..2")):
        with pytest.raises(ValueError, match=msg):
            P.partial(i)


def test_euler_identity():
    """sum_i x_i dP/dx_i = deg(P) * P for homogeneous P."""
    rng = random.Random(4)
    for field in (QQ, F7):
        for _ in range(25):
            n = rng.randint(2, 4)
            d = rng.randint(1, 5)
            P = rand_form(rng, field, n, d, rng.randint(1, 6))
            if P.is_zero():
                continue
            total = MultiForm.zero(field, n, d)
            for i in range(n):
                total = total + mono(field, n, tuple(
                    1 if j == i else 0 for j in range(n))) * P.partial(i)
            assert total == P.scale(d)


def test_contract_is_directional_derivative():
    P = mono(QQ, 3, (1, 1, 1))  # x0 x1 x2
    v = (1, 0, 0)
    assert contract(v, P) == mono(QQ, 3, (0, 1, 1))
    w = (2, -1, 0)
    assert contract(w, P) == mono(QQ, 3, (0, 1, 1), 2) - mono(QQ, 3, (1, 0, 1))


def test_contract_leibniz():
    rng = random.Random(8)
    for field in (QQ, F7):
        for _ in range(20):
            n = rng.randint(2, 3)
            f = rand_form(rng, field, n, rng.randint(1, 3), 3)
            g = rand_form(rng, field, n, rng.randint(1, 3), 3)
            if f.is_zero() or g.is_zero():
                continue
            v = tuple(field.scalar(rng.randint(-3, 3)) for _ in range(n))
            lhs = contract(v, f * g)
            rhs = contract(v, f) * g + f * contract(v, g)
            assert lhs == rhs


def test_restrict_to_plane_concordance():
    """Restriction then evaluation equals evaluation at the combination."""
    rng = random.Random(15)
    for field in (QQ, F7):
        for _ in range(20):
            n = rng.randint(3, 4)
            P = rand_form(rng, field, n, rng.randint(1, 4), 4)
            if P.is_zero():
                continue
            b1 = tuple(field.scalar(rng.randint(-3, 3)) for _ in range(n))
            b2 = tuple(field.scalar(rng.randint(-3, 3)) for _ in range(n))
            if rank([b1, b2], field) < 2:
                continue
            R = restrict_to_plane(P, [b1, b2])
            for _ in range(4):
                a = field.scalar(rng.randint(-3, 3))
                b = field.scalar(rng.randint(-3, 3))
                pt = tuple(a * u + b * v for u, v in zip(b1, b2))
                assert R.evaluate(a, b) == P.evaluate(pt)


def test_restrict_to_three_vectors_gives_multiform():
    P = mono(QQ, 4, (2, 0, 0, 1))
    R = restrict_to_plane(P, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1)])
    assert isinstance(R, MultiForm)
    assert R.nvars == 3
    assert R == mono(QQ, 3, (2, 0, 1))
    # a short vector, first among longer ones or with all of them short
    for basis in ([(1, 0, 0, 0), (0, 1, 0)], [(1, 0, 0), (0, 1, 0), (0, 0, 1)]):
        with pytest.raises(ValueError, match="ragged matrix"):
            restrict_to_plane(P, basis)


def test_restrict_to_empty_basis_is_refused():
    P = mono(F7, 3, (1, 1, 0))
    for basis in ([], ()):
        with pytest.raises(ValueError, match="basis of the plane is empty"):
            restrict_to_plane(P, basis)
    with pytest.raises(ValueError, match="linearly dependent"):
        restrict_to_plane(P, [(1, 2, 0), (2, 4, 0)])


def test_reference_partials_match_contraction():
    """restrict_to_plane(P, basis) equals the reference's P|_L, and each
    partial the reference restricts equals restrict_to_plane(contract(e_c,
    P), basis), for lines and 2- and 3-planes with non-unit bases, including
    characteristic p <= d where some e_c vanish mod p."""
    rng = random.Random(29)
    checked = 0
    for field in (QQ, parse_field("Fp:2"), parse_field("Fp:3"),
                  parse_field("Fp:11")):
        for d in range(1, 6):
            for k in (1, 2, 3):
                nvars = rng.randint(k + 1, k + 3)
                P = rand_form(rng, field, nvars, d, rng.randint(1, 8))
                while True:
                    basis = [tuple(field.scalar(rng.randint(-3, 3))
                                   for _ in range(nvars)) for _ in range(k + 1)]
                    if rank(basis, field) == k + 1 and \
                            any(sum(1 for x in v if x) >= 2 for v in basis):
                        break
                cols = list(range(nvars))
                got = restrict(P, basis, cols)
                assert len(got) == nvars + 1
                assert all(isinstance(f, BinaryForm if k == 1 else MultiForm)
                           for f in got)
                assert got[0] == restrict_to_plane(P, basis)
                for c in cols:
                    e_c = [0] * nvars
                    e_c[c] = 1
                    assert got[c + 1] == restrict_to_plane(contract(e_c, P),
                                                           basis)
                assert restrict(P, basis, cols[::-1])[1:] == got[:0:-1]
                checked += 1
    assert checked == 60


def _termwise_value(P, point):
    total = P.field.zero()
    for e, c in P.terms.items():
        for x, k in zip(point, e):
            for _ in range(k):
                c = c * x
        total = total + c
    return total


def test_restriction_and_evaluation_match_termwise_oracle():
    """restrict_to_plane and evaluate against a plain expansion on
    Fp/Fraction scalars (the reference), over F_2, F_3, F_11 and F_(2^61 - 1)
    with entries near p, and over Q with fractional entries.  Half the forms
    carry a factor x0 + x1 that vanishes on the span only mod p, so a
    coefficient that is a nonzero multiple of p would show.  Every stored
    coefficient is a nonzero scalar of the form's field."""
    rng = random.Random(61)
    checked = 0
    for p in (2, 3, 11, 2 ** 61 - 1, 0):
        field = parse_field("Fp:%d" % p if p else "Q")
        kind = Fp if p else Fr

        def entry():
            if p:
                return field.scalar(rng.choice((0, 1, 2, p - 1, p - 2, p // 2)))
            return Fr(rng.randint(-9, 9), rng.randint(1, 7))

        for d in range(1, 6):
            for k in (1, 2, 3):
                nvars = k + 2
                for planted in (False, True):
                    while True:
                        basis = [tuple(entry() for _ in range(nvars))
                                 for _ in range(k + 1)]
                        if planted:
                            # x0 + x1 vanishes on the span; over F_p each
                            # pair of residues sums to 0 or p as integers
                            basis = [(-v[1],) + v[1:] for v in basis]
                        if rank(basis, field) == k + 1:
                            break
                    terms = {}
                    for _ in range(rng.randint(1, 6)):
                        e = [0] * nvars
                        for _ in range(d - planted):
                            e[rng.randint(0, nvars - 1)] += 1
                        terms[tuple(e)] = entry() or field.one()
                    P = MultiForm(field, nvars, d - planted, terms)
                    if planted:
                        P = P * (mono(field, nvars, (1, 0) + (0,) * (nvars - 2))
                                 + mono(field, nvars, (0, 1) + (0,) * (nvars - 2)))
                    want = restrict(P, basis)[0]
                    if planted:
                        assert want.is_zero()
                    form = restrict_to_plane(P, basis)
                    stored = form.coeffs if k == 1 else form.terms.values()
                    assert all(isinstance(c, kind) and (k == 1 or c)
                               for c in stored)
                    if p:
                        assert all(c.p == p for c in stored)
                    assert form == want
                    for _ in range(3):
                        pt = tuple(entry() for _ in range(nvars))
                        val = P.evaluate(pt)
                        assert isinstance(val, kind)
                        assert val == _termwise_value(P, pt)
                    checked += 1
    assert checked == 150
    with pytest.raises(FieldMismatch):
        mono(F7, 2, (1, 1)).evaluate((F7.scalar(1), Fr(1, 2)))
    with pytest.raises(FieldMismatch):
        mono(F7, 2, (1, 1)).evaluate((F7.scalar(1), Fp(1, 5)))


_BIG = 1000003     # a prime above 10^6


def _q_entry():
    """Fractions whose denominators often carry _BIG."""
    return st.builds(lambda a, b, big: Fr(a, b * (_BIG if big else 1)),
                     st.integers(-40, 40), st.integers(1, 30), st.booleans())


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_q_restriction_with_large_denominators(data):
    """Over Q, with a prime above 10^6 in the denominators of P's
    coefficients and of 1-3 spanning vectors: restrict_to_plane of P and of
    each P.partial(c), at a random y, equals MultiForm.evaluate of that form
    at sum_k y_k v_k."""
    nvars, d = data.draw(st.integers(2, 5)), data.draw(st.integers(1, 4))
    exps = st.lists(st.integers(0, nvars - 1), min_size=d, max_size=d).map(
        lambda ix: tuple(ix.count(i) for i in range(nvars)))
    terms = data.draw(st.dictionaries(exps, _q_entry().filter(bool),
                                      min_size=1, max_size=6))
    first = next(iter(terms))
    terms[first] /= _BIG
    P = MultiForm(QQ, nvars, d, terms)
    r = data.draw(st.integers(1, min(3, nvars)))
    vectors = data.draw(st.lists(
        st.lists(_q_entry(), min_size=nvars, max_size=nvars).map(tuple),
        min_size=r, max_size=r))
    vectors[0] = tuple(x / _BIG for x in vectors[0])
    cols = data.draw(st.lists(st.integers(0, nvars - 1), max_size=nvars))
    if rank(vectors, QQ) == r:
        oracles = [P] + [P.partial(c) for c in cols]
        forms = [restrict_to_plane(Q, vectors) for Q in oracles]
        for _ in range(2):
            y = data.draw(st.lists(_q_entry(), min_size=r, max_size=r))
            point = [sum((a * v[i] for a, v in zip(y, vectors)), Fr(0))
                     for i in range(nvars)]
            for form, Q in zip(forms, oracles):
                got = form.evaluate(*y) if r == 2 else form.evaluate(y)
                assert got == Q.evaluate(point)


def _expanded(P, basis, cols):
    """forms._expand's outputs on P and basis, read back as forms in the
    dual coordinates of basis (a BinaryForm on a line): each packed key
    unpacked into its exponents, each int divided by its scale.  Every int
    must already be reduced and nonzero."""
    field, d, r, p = P.field, P.degree, len(basis), P.field.p
    rows, scales = _ints(basis, field, P.nvars)
    terms, den = _plain_terms(P)
    outs = []
    for n, acc in enumerate(_expand(terms, rows, cols, d, p)):
        assert all(0 < v < p if p else v for v in acc.values())
        deg, coeffs = d - (n > 0), {}
        for key, v in acc.items():
            f = []
            for _ in range(r):
                key, k = divmod(key, d + 1)
                f.append(k)
            coeffs[tuple(f)] = field.scalar(
                Fr(v, den * math.prod(map(pow, scales, f))))
        Q = MultiForm(field, r, deg, coeffs)
        outs.append(Q if r != 2 else BinaryForm(
            field, [Q.terms.get((deg - i, i), 0) for i in range(deg + 1)]))
    return outs


def test_expand_matches_reference():
    """The first oracle for forms._expand that does not run it: P and its
    partials at cols (repeats and any order) on spans of 1-4 vectors,
    dependent ones included, against tests/reference.py, over Q (a prime
    above 10^6 in the denominators), F_2, F_3 and F_(2^61 - 1).  Half the
    spans have an all-zero coordinate column z with z in cols, where only the
    terms linear in x_z reach d_z P (_expand's zero-linear-form branch)."""
    rng = random.Random(36)
    checked = reached = 0
    for p in (0, 2, 3, 2 ** 61 - 1):
        field = parse_field("Fp:%d" % p if p else "Q")

        def entry():
            if p:
                return field.scalar(rng.choice((0, 1, 2, p - 1, p // 2)))
            return Fr(rng.randint(-9, 9),
                      rng.randint(1, 7) * rng.choice((1, _BIG)))

        for d in range(1, 6):
            for r in (1, 2, 3, 4):
                for zeroed in (False, True):
                    nvars = rng.randint(max(r, 2), r + 2)
                    terms = {}
                    for _ in range(rng.randint(1, 8)):
                        e = [0] * nvars
                        for _ in range(d):
                            e[rng.randint(0, nvars - 1)] += 1
                        terms[tuple(e)] = entry() or field.one()
                    P = MultiForm(field, nvars, d, terms)
                    basis = [[entry() for _ in range(nvars)] for _ in range(r)]
                    cols = [rng.randrange(nvars)
                            for _ in range(rng.randint(0, nvars + 2))]
                    if zeroed:
                        z = rng.randrange(nvars)
                        for v in basis:
                            v[z] = field.zero()
                        at = rng.randint(0, len(cols))
                        cols[at:at] = [z, z]
                    want = restrict(P, basis, cols)
                    assert _expanded(P, basis, cols) == want
                    if zeroed:
                        reached += not want[cols.index(z) + 1].is_zero()
                    checked += 1
    assert checked == 160 and reached >= 30, reached
    # x_2 = 0 on the second span: only the terms linear in x_2 reach d_2 P
    for field in (QQ, F7):
        P = (mono(field, 3, (2, 0, 1), 3) + mono(field, 3, (0, 1, 2), -2)
             + mono(field, 3, (1, 1, 1)))
        for basis in ([(1, 2, 0), (0, 1, 3)], [(1, 2, 0), (0, 1, 0)]):
            got = _expanded(P, basis, [2, 0, 2])
            assert got == restrict(P, basis, [2, 0, 2])
            assert got[0] == restrict_to_plane(P, basis)
            d2 = restrict_to_plane(contract((0, 0, 1), P), basis)
            assert got[1] == got[3] == d2 and not d2.is_zero()
            assert got[2] == restrict_to_plane(contract((1, 0, 0), P), basis)
            assert got[1] != got[2]


def binform(field, *coeffs):
    return BinaryForm(field, tuple(field.scalar(c) for c in coeffs))


@pytest.mark.parametrize("field, reprs", [
    (QQ, ["MultiForm(0; deg 2, 3 vars, Q)", "BinaryForm(0; deg 2, Q)",
          "1*x0^2 + 2/3*x0*x2 + -1*x1*x2", "1*s^2 + 4*t^2",
          "1/2*s*t + -1*t^2", "5", "5"]),
    (F7, ["MultiForm(0; deg 2, 3 vars, Fp:7)", "BinaryForm(0; deg 2, Fp:7)",
          "1*x0^2 + 3*x0*x2 + 6*x1*x2", "1*s^2 + 4*t^2", "4*s*t + 6*t^2",
          "5", "5"]),
], ids=["Q", "F7"])
def test_shared_ring_api(field, reprs):
    """-, scalar *, **, ==, evaluate and repr, written once for both form
    classes, agree with +, scale and the product of each."""
    rng = random.Random(29)
    for f, g, one in (
            (rand_form(rng, field, 3, 2, 4), rand_form(rng, field, 3, 2, 4),
             mono(field, 3, (0, 0, 0))),
            (binform(field, 1, -2, 0, 3), binform(field, 0, 4, 5, -1),
             binform(field, 1))):
        assert f - g == f + (-g)
        assert -f == f.scale(-1)
        assert 3 * f == f * 3 == f.scale(3)
        power = one
        for k in range(6):
            assert f ** k == power
            power = power * f
        with pytest.raises(TypeError):
            hash(f)
    for b in (binform(field, 1, -2, 0, 3), binform(field, 0, 4, 5, -1)):
        m = MultiForm(field, 2, b.degree, dict(b.sorted_terms()))
        assert not b == m and b != m and not m == b
        for x, y in itertools.product(range(-2, 3), repeat=2):
            assert b.evaluate(x, y) == m.evaluate((x, y))
    assert [repr(f) for f in (
        MultiForm.zero(field, 3, 2), BinaryForm.zero(field, 2),
        MultiForm(field, 3, 2, {(2, 0, 0): 1, (0, 1, 1): -1,
                                (1, 0, 1): Fr(2, 3)}),
        binform(field, 1, 0, 4), binform(field, 0, Fr(1, 2), -1),
        mono(field, 2, (0, 0), 5), binform(field, 5))] == reprs


def test_binary_divide_exact():
    f = binform(QQ, 1, 0, -1)       # s^2 - t^2
    g = binform(QQ, 1, -1)          # s - t
    assert binary_divide(f, g) == binform(QQ, 1, 1)
    # s-power obstruction: t^2 not divisible by s
    with pytest.raises(NotDivisible):
        binary_divide(binform(QQ, 0, 0, 1), binform(QQ, 1, 0))


def test_binary_divide_remainder():
    f = binform(QQ, 1, 0, 1)        # s^2 + t^2
    g = binform(QQ, 1, -1)          # s - t
    with pytest.raises(NotDivisible) as exc:
        binary_divide(f, g)
    # division identity f = q*g + r holds with r = 2 s^2
    r = exc.value.remainder
    assert r == binform(QQ, 2, 0, 0)
    q = binform(QQ, -1, -1)
    assert q * g + r == f


def test_binary_gcd_frozen():
    a = binform(QQ, 1, 0, -1)       # (s - t)(s + t)
    b = binform(QQ, 1, 2, 1)        # (s + t)^2
    assert binary_gcd([a, b]) == binform(QQ, 1, 1)
    # common s factors survive
    assert binary_gcd([binform(QQ, 1, 0, 0), binform(QQ, 1, 0)]) == binform(QQ, 1, 0)
    assert binary_gcd([a, BinaryForm.zero(QQ, 5)]) == a.monic()
    with pytest.raises(ValueError):
        binary_gcd([BinaryForm.zero(QQ, 2)])


def test_binary_roots_rational():
    # (s - 2t)(s + 3t)(s^2 + t^2)
    f = binform(QQ, 1, 0, 0, 0, 0) * 0 + binform(QQ, 1, -2) * binform(QQ, 1, 3) \
        * binform(QQ, 1, 0, 1)
    rep = binary_roots(f)
    # canonical rational points: primitive integers, leading positive
    assert set(rep.roots) == {((Fr(2), Fr(1)), 1), ((Fr(3), Fr(-1)), 1)}
    assert len(rep.unsolved) == 1
    g, mult = rep.unsolved[0]
    assert mult == 1 and g == binform(QQ, 1, 0, 1)


def test_binary_roots_multiplicity():
    f = binform(QQ, 1, -1) ** 3 * binform(QQ, 0, 1)   # (s-t)^3 t
    rep = binary_roots(f)
    assert set(rep.roots) == {((Fr(1), Fr(1)), 3), ((Fr(1), Fr(0)), 1)}
    assert rep.unsolved == ()


def _scan_roots(f):
    """Roots of f over F_p by scanning P^1, in the order [1:0], ..., [1:p-1],
    [0:1]; the order at [1:a] is the first nonzero Taylor coefficient of
    f(1, t) at a."""
    field, p = f.field, f.field.p
    c = [x.v for x in f.coeffs]
    out = []
    for a in range(p):
        order = next(k for k in range(len(c))
                     if sum(ci * math.comb(i, k) * pow(a, i - k, p)
                            for i, ci in enumerate(c) if i >= k) % p)
        if order:
            out.append(((field.scalar(1), field.scalar(a)), order))
    trailing = next(k for k in range(len(c)) if c[len(c) - 1 - k])
    if trailing:
        out.append(((field.scalar(0), field.scalar(1)), trailing))
    return tuple(out)


def test_binary_roots_fp_vs_bruteforce():
    rng = random.Random(23)
    for p in [2, 3, 5, 7, 101] * 60:
        field = parse_field("Fp:%d" % p)
        # repeated linear factors, t (root [1:0]) and s (root [0:1]) among them
        f = binform(field, rng.randint(1, p - 1))
        for _ in range(rng.randint(0, 4)):
            lin = rng.choice([(0, 1), (1, 0), (rng.randrange(p), 1),
                              (1, rng.randrange(p))])
            f = f * binform(field, *lin) ** rng.randint(1, 3)
        # times a dense form of degree <= 5, whose rootless part is split
        # into irreducibles by distinct- and equal-degree factoring
        extra = binform(field, *(rng.randrange(p)
                                 for _ in range(rng.randint(1, 6))))
        if not extra.is_zero():
            f = f * extra
        rep = binary_roots(f)
        assert rep.roots == _scan_roots(f)
        assert sum(m for _, m in rep.roots) \
            + sum(g.degree * m for g, m in rep.unsolved) == f.degree


@pytest.mark.parametrize("p", [1000003, 2 ** 61 - 1])
def test_binary_roots_large_prime(p):
    # (s - 3t)^2 (2s + 5t) (s^2 + t^2) t; p = 3 mod 4 keeps s^2 + t^2 irreducible
    field = parse_field("Fp:%d" % p)
    f = binform(field, 1, -3) ** 2 * binform(field, 2, 5) \
        * binform(field, 1, 0, 1) * binform(field, 0, 1)
    rep = binary_roots(f)
    s = field.scalar
    want = sorted([(s(0), 1), (s(1) / s(3), 2), (s(-2) / s(5), 1)],
                  key=lambda am: am[0].v)
    assert rep.roots == tuple(((s(1), a), m) for a, m in want)
    assert rep.unsolved == ((binform(field, 1, 0, 1), 1),)


def test_binary_roots_fp_multiplicity():
    s2 = F7.scalar
    f = BinaryForm.linear(F7, s2(1), s2(-3)) ** 2 \
        * BinaryForm.linear(F7, s2(0), s2(1))
    rep = binary_roots(f)
    # x - 3y = 0 at (3, 1) ~ (1, 5); y = 0 at (1, 0)
    assert dict(rep.roots) == {(s2(1), s2(5)): 2, (s2(1), s2(0)): 1}


@pytest.mark.parametrize("field, factors, roots, unsolved", [
    # one rational root, two rootless quadratics split off a quartic
    (QQ, [(1, 0, 1), (1, 0, 2), (1, -1)], [((1, 1), 1)],
     [((1, 0, 1), 1), ((1, 0, 2), 1)]),
    # a squared quadratic and an irreducible quartic in degree 8
    (QQ, [(1, 0, 1), (1, 0, 1), (1, 0, 0, 0, 3)], [],
     [((1, 0, 1), 2), ((1, 0, 0, 0, 3), 1)]),
    # a rootless quartic over a small prime split into its quadratics
    (F7, [(1, 0, 1), (1, 1, 3)], [], [((1, 0, 1), 1), ((1, 1, 3), 1)]),
    (parse_field("Fp:101"), [(1, 0, 1), (1, 0, 3)],
     [((1, 10), 1), ((1, 91), 1)], [((1, 0, 3), 1)]),
    # two irreducible quadratics over a large prime (10007 = 2 mod 3 and
    # 3 mod 4, so -1 and -3 are non-squares) come back split
    (parse_field("Fp:10007"), [(1, 0, 1), (1, 0, 3)], [],
     [((1, 0, 1), 1), ((1, 0, 3), 1)]),
    # a square over F_2, whose derivative vanishes, times a rootless quartic
    (parse_field("Fp:2"), [(1, 1, 1), (1, 1, 1), (1, 1, 0, 0, 1)], [],
     [((1, 1, 1), 2), ((1, 1, 0, 0, 1), 1)]),
    # the two irreducible cubics over F_2, whose product 1 + t + ... + t^6
    # only the trace splitting separates; then times s t, so roots mix in
    (parse_field("Fp:2"), [(1, 1, 0, 1), (1, 0, 1, 1)], [],
     [((1, 0, 1, 1), 1), ((1, 1, 0, 1), 1)]),
    (parse_field("Fp:2"), [(1, 1, 0, 1), (1, 0), (1, 0, 1, 1), (0, 1)],
     [((1, 0), 1), ((0, 1), 1)], [((1, 0, 1, 1), 1), ((1, 1, 0, 1), 1)]),
    # two cubics with coefficients above 10^6, rootless mod 11 and mod 23;
    # mod 5 each is a linear times a quadratic factor, so the lifted
    # factors recombine in pairs
    (QQ, [(1000003, -2000017, 3000001, 1000033),
          (7000009, 1000081, -5000011, 2000007)], [],
     [((1000003, -2000017, 3000001, 1000033), 1),
      ((7000009, 1000081, -5000011, 2000007), 1)]),
], ids=["q-root-and-quadratics", "q-square-and-quartic", "f7-quartic",
        "f101-roots-and-quadratic", "f10007-two-quadratics",
        "f2-square-and-quartic", "f2-two-cubics", "f2-two-cubics-and-roots",
        "q-big-cubics"])
def test_binary_roots_frozen(field, factors, roots, unsolved):
    f = binform(field, 1)
    for c in factors:
        f = f * binform(field, *c)
    rep = binary_roots(f)
    assert rep.roots == tuple((tuple(field.scalar(x) for x in pt), m)
                              for pt, m in roots)
    assert rep.unsolved == tuple((binform(field, *c), m) for c, m in unsolved)


def _chart_value(coeffs, a, p):
    """f(1, a) mod p for a coefficient list (index = power of t)."""
    return sum(c * a ** i for i, c in enumerate(coeffs)) % p


def _small_monic_divisor(f):
    """A monic chart divisor of degree <= deg f / 2 of a binary form over a
    small prime, by enumerating every candidate; None if there is none."""
    field = f.field
    for e in range(1, f.degree // 2 + 1):
        for tail in itertools.product(range(field.p), repeat=e):
            cand = BinaryForm(field, tail + (1,))
            try:
                binary_divide(f, cand)
            except NotDivisible:
                continue
            return cand
    return None


def _irreducible_witness(coeffs, p):
    """True when a planted factor of degree 2 or 3 (or 4, for p <= 7) is
    irreducible: over F_p it has no root, or for p <= 7 no small monic
    divisor; over Q a quadratic's discriminant is not a square, and a cubic
    has no root mod some prime not dividing its lead."""
    if p:
        if p <= 7:
            return _small_monic_divisor(
                BinaryForm(parse_field("Fp:%d" % p), coeffs)) is None
        return len(coeffs) <= 4 and all(_chart_value(coeffs, a, p)
                                        for a in range(p))
    if len(coeffs) == 3:
        c, b, a = coeffs
        disc = b * b - 4 * a * c
        return disc < 0 or math.isqrt(disc) ** 2 != disc
    return any(coeffs[-1] % q and all(_chart_value(coeffs, a, q)
                                      for a in range(q))
               for q in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_binary_roots_factor_oracle(data):
    """Planted products over Q (coefficients up to 10^30) and over F_p: the
    report multiplies back to f, returns the planted roots and irreducible
    factors with their multiplicities, and over small p no unsolved factor
    has a monic divisor of degree <= half its own."""
    p = data.draw(st.sampled_from([0, 2, 3, 5, 7, 101, 10007]), label="p")
    field = parse_field("Fp:%d" % p if p else "Q")
    coeff = st.integers(0, p - 1) if p else st.integers(-10 ** 30, 10 ** 30)
    mult = st.integers(1, 3)
    points = data.draw(st.lists(st.tuples(coeff, coeff, mult), max_size=3),
                       label="roots")
    max_degree = 4 if 0 < p <= 7 else 3
    factors = data.draw(st.lists(st.tuples(
        st.integers(2, max_degree).flatmap(
            lambda d: st.lists(coeff, min_size=d + 1, max_size=d + 1)),
        mult), max_size=2), label="factors")
    f = binform(field, data.draw(coeff.filter(bool), label="unit"))
    want_roots, want_factors = {}, {}
    for x, y, m in points:
        if x or y:
            pt = projective_normalize((x, y), field)
            want_roots[pt] = want_roots.get(pt, 0) + m
            f = f * binform(field, y, -x) ** m
    for coeffs, m in factors:
        if coeffs[0] and coeffs[-1] and _irreducible_witness(coeffs, p):
            g = binform(field, *coeffs).monic()
            want_factors[g.coeffs] = want_factors.get(g.coeffs, 0) + m
            f = f * g ** m
    rep = binary_roots(f)
    assert dict(rep.roots) == want_roots
    assert {g.monic().coeffs: m for g, m in rep.unsolved} == want_factors
    back = binform(field, 1)
    for (x, y), m in rep.roots:
        back = back * binform(field, y, -x) ** m
    for g, m in rep.unsolved:
        back = back * g ** m
    assert back.monic() == f.monic()
    if 0 < p <= 7:
        assert all(_small_monic_divisor(g) is None for g, _ in rep.unsolved)


def test_projective_normalize():
    assert projective_normalize((-2, 4), QQ) == (Fr(1), Fr(-2))
    assert projective_normalize((0, Fr(1, 3), Fr(2, 3)), QQ) == (Fr(0), Fr(1), Fr(2))
    s = F7.scalar
    assert projective_normalize((s(0), s(3), s(5)), F7) == (s(0), s(1), s(4))
    with pytest.raises(ValueError):
        projective_normalize((0, 0), QQ)


def test_parse_format_round_trip():
    P = mono(QQ, 3, (2, 1, 0), Fr(3, 4)) - mono(QQ, 3, (0, 0, 3))
    text = format_form(P)
    assert parse_form(text) == P
    s = F7.scalar
    Q = mono(F7, 2, (1, 1), s(3))
    assert parse_form(format_form(Q)) == Q


def test_parse_form_rejects_inhomogeneous():
    bad = "field Q\nvars 2\n1 2 0\n1 1 0\n"
    with pytest.raises(ValueError):
        parse_form(bad)


def test_parse_form_sums_duplicates():
    text = "field Q\nvars 2\n1 1 1\n2 1 1\n"
    assert parse_form(text) == mono(QQ, 2, (1, 1), 3)


def test_parse_form_sums_and_cancels_repeats():
    text = ("field Fp 7\nvars 3\n3 2 0 0\n1 1 1 0\n2 0 1 1\n4 2 0 0\n"
            "-2 0 1 1\n5 1 1 0\n1 0 0 2\n")
    P = parse_form(text)
    # 3 + 4 and 2 - 2 cancel mod 7; 1 + 5 is summed
    assert P.terms == {(1, 1, 0): F7.scalar(6), (0, 0, 2): F7.scalar(1)}
    Q = parse_form("field Q\nvars 2\n1/2 1 1\n-1/2 1 1\n1/3 2 0\n1/6 2 0\n")
    assert Q.terms == {(2, 0): Fr(1, 2)} and Q.degree == 2
    zero = parse_form("field Q\nvars 2\n1 1 1\n-1 1 1\n")
    assert zero.is_zero() and zero.degree == 2 and zero.nvars == 2
    with pytest.raises(ValueError, match="line 4: exponent needs a "
                       "non-negative integer, got '-1'"):
        parse_form("field Q\nvars 2\n1 2 0\n1 3 -1\n")


def test_parse_form_dense_is_fast():
    """Every monomial of degree 6 in 9 variables (3003 terms), once each and
    then again with the same coefficient, parses in well under a second."""
    exps = [tuple(c.count(i) for i in range(9))
            for c in itertools.combinations_with_replacement(range(9), 6)]
    assert len(exps) == 3003
    lines = ["%d %s" % (k % 5 + 1, " ".join(map(str, e)))
             for k, e in enumerate(exps)]
    text = "field Fp 11\nvars 9\n" + "\n".join(lines + lines) + "\n"
    start = time.perf_counter()
    P = parse_form(text)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, elapsed
    assert len(P.terms) == 3003
    assert all(P.terms[e] == 2 * (k % 5 + 1) for k, e in enumerate(exps))


def test_format_scalar():
    assert format_scalar(Fr(3, 4)) == "3/4"
    assert format_scalar(Fr(5)) == "5"
    assert format_scalar(F7.scalar(3)) == "3"


def test_reduce_mod():
    P = mono(QQ, 2, (1, 1), Fr(1, 2))
    Q = P.reduce_mod(7)
    assert Q.field.p == 7
    assert Q == mono(F7, 2, (1, 1), F7.scalar(4))  # 1/2 = 4 mod 7


@settings(max_examples=40)
@given(st.lists(st.integers(-9, 9), min_size=2, max_size=6),
       st.lists(st.integers(-9, 9), min_size=2, max_size=6))
def test_binary_product_degree_and_evaluation(ca, cb):
    a = BinaryForm(QQ, tuple(Fr(c) for c in ca))
    b = BinaryForm(QQ, tuple(Fr(c) for c in cb))
    prod = a * b
    assert prod.degree == a.degree + b.degree
    for s, t in ((1, 1), (2, -3), (0, 1), (5, 7)):
        assert prod.evaluate(Fr(s), Fr(t)) == \
            a.evaluate(Fr(s), Fr(t)) * b.evaluate(Fr(s), Fr(t))
