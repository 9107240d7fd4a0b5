"""Certified singular points on lines, enumeration over prime fields, and the
whole-surface survey."""

import random
import time
from collections import Counter
from fractions import Fraction as Fr
from itertools import product

import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from fanosing import singular
from fanosing.corpus import cone, fermat, random_with_line
from fanosing.forms import (MultiForm, projective_normalize, restrict_partials,
                            restrict_to_plane)
from fanosing.linalg import (QQ, Field, FieldMismatch, Fp, combine, parse_field,
                             plain, rank, solve_combination)
from fanosing.pencil import has_decomposable
from fanosing.singular import (BudgetExceeded, CharacteristicRefused,
                               SingularPoint, all_lines, analyze_line,
                               certify_entire_line, conjecture_check,
                               grassmannian_size, is_singular_at,
                               lines_through, projective_points,
                               singular_points)
from fanosing.tangent import Hypersurface, LineFrame, analyze_tangent

F3 = parse_field("Fp:3")
F5 = parse_field("Fp:5")
F7 = parse_field("Fp:7")


def mono(field, nvars, exps, c=1):
    return MultiForm.monomial(field, nvars, exps, field.scalar(c))


def test_cone_vertex_certified():
    X = cone(fermat(2, 3, QQ))
    fr = LineFrame(QQ, (1, -1, 0, 0), (0, 0, 0, 1))
    la = analyze_line(X, fr)
    assert la.nf.s == (1,)
    assert la.certificate.points == (
        SingularPoint(ambient=(Fr(0), Fr(0), Fr(0), Fr(1)),
                      line_point=(Fr(0), Fr(1)), multiplicity=2),)
    assert la.everyp1.applies
    assert la.everyp1.s1 == 1 and la.everyp1.dim_cx_tangent == 1
    assert la.image_contained
    assert is_singular_at(X, (0, 0, 0, 1))
    assert not is_singular_at(X, (1, -1, 0, 0))



def test_scaled_cone_vertex_certified_fast():
    """The README cone on the frame e1 = M u + v, e2 = N u + 2v, u a point of
    the base curve and v the vertex: the generators' gcd is (M s + N t)^2 up
    to a scalar, and each line certifies the vertex once, with multiplicity
    2, in time that does not grow with the size of M and N."""
    X = cone(fermat(2, 3, QQ))
    u, v = (1, -1, 0, 0), (0, 0, 0, 1)
    sizes = (10 ** 3, 10 ** 6, 10 ** 9, 10 ** 12)
    start = time.perf_counter()
    for M, N in sorted(product(sizes, repeat=2), key=max):
        fr = LineFrame(QQ, tuple(M * a + b for a, b in zip(u, v)),
                       tuple(N * a + 2 * b for a, b in zip(u, v)))
        points = analyze_line(X, fr).certificate.points
        assert [(pt.ambient, pt.multiplicity) for pt in points] == \
            [((Fr(0), Fr(0), Fr(0), Fr(1)), 2)], (M, N)
        assert time.perf_counter() - start < 5.0, (M, N)

def test_quadric_line_has_no_singular_points():
    X = Hypersurface(mono(QQ, 4, (1, 0, 0, 1)) - mono(QQ, 4, (0, 1, 1, 0)))
    fr = LineFrame(QQ, (1, 0, 0, 0), (0, 1, 0, 0))
    la = analyze_line(X, fr)
    assert la.nf.s == (2,)
    assert la.certificate.points == () and not la.certificate.whole_line
    assert la.certificate.gcd_form.degree == 0
    # d = 2 leaves the lone generator constant, so nothing is forced
    assert not la.everyp1.applies
    assert la.image_contained


def test_entirely_singular_line():
    X = Hypersurface(mono(QQ, 4, (0, 0, 2, 0)))
    fr = LineFrame(QQ, (1, 0, 0, 0), (0, 1, 0, 0))
    la = analyze_line(X, fr)
    assert la.tangent.m == 0
    assert la.certificate.whole_line
    assert la.nf is None and la.gens is None
    cert = certify_entire_line(X, fr, la.tangent)
    assert cert.whole_line
    # a line that is NOT entirely singular is refused
    Xs = Hypersurface(mono(QQ, 4, (1, 0, 0, 1)) - mono(QQ, 4, (0, 1, 1, 0)))
    with pytest.raises(ValueError, match="not entirely singular"):
        certify_entire_line(Xs, fr, analyze_tangent(Xs, fr))


def _moved(X, line, rng):
    """X' = Z(P o A) for a random invertible A, the line A^-1 E, and A's
    columns."""
    field, n1 = X.field, X.n + 1
    while True:
        cols = [tuple(field.scalar(rng.randrange(field.p) if field.p
                                   else rng.randint(-3, 3))
                      for _ in range(n1)) for _ in range(n1)]
        if rank(cols, field) == n1:
            break
    back = [solve_combination(cols, e, field) for e in line]
    return Hypersurface(restrict_to_plane(X.P, cols)), back, cols


def _double_line(field, n, d, rng, linear):
    """A random form through span(e0, e1) whose terms have order >= 2 along
    the line, plus `linear` random terms of order 1: with none the line is
    a double line and lies in the singular locus."""
    terms = {}
    for k in range(rng.randint(2, 3 * n) + linear):
        e = [0] * (n + 1)
        for _ in range(1 if k < linear else 2):
            e[rng.randint(2, n)] += 1
        for _ in range(d - sum(e)):
            e[rng.randint(0, n)] += 1
        c = rng.randrange(1, field.p) if field.p else rng.randint(-4, 4) or 1
        terms[tuple(e)] = field.scalar(c)
    return (Hypersurface(MultiForm(field, n + 1, d, terms)),
            [tuple(field.scalar(int(i == j)) for i in range(n + 1))
             for j in (0, 1)])


def _whole_line_corpus():
    """Lines on hypersurfaces: random_with_line over F_2..F_13, planted and
    moved lines over Q, cone lines and double lines."""
    rng = random.Random(13)
    out = []
    for p in (2, 3, 5, 7, 11, 13):
        for k in range(12):
            X, fr = random_with_line(2 + k % 4, 1 + k % 5, p, 100 * p + k)
            out.append((X, [fr.e1, fr.e2]))
    out += _planted_q_lines()
    for X, line in list(out[::5]):
        out.append(_moved(X, line, rng)[:2])
    for base in (fermat(2, 3, QQ), fermat(2, 3, F7), fermat(3, 2, F5)):
        for extra in (1, 2):
            X = cone(base, extra)
            vertex = (0,) * (base.n + 1) + (1,) * extra
            for line in (((1, -1) + (0,) * (X.n - 1), vertex),
                         ((1, 2) + (0,) * (X.n - 1), vertex)):
                if not X.P.evaluate(X.field.vector(line[0])):
                    out.append((X, line))
    for field in (QQ, F3, F5, F7):
        for k in range(8):
            X, line = _double_line(field, 2 + k % 3, 2 + k % 3, rng, k % 2)
            out.append((X, line))
            out.append(_moved(X, line, rng)[:2])
    return out


def test_whole_line_lemma_matches_restricted_gradient():
    """m == 0 exactly when every partial of P restricts to zero on the line,
    the derivation certify_entire_line used before it read sigma; and the
    certificate refuses every line with m > 0."""
    seen = {True: 0, False: 0}
    for X, line in _whole_line_corpus():
        fr = LineFrame(X.field, *line)
        rep = analyze_tangent(X, fr)
        _, *grad = restrict_partials(X.P, line, range(X.n + 1))
        whole = all(f.is_zero() for f in grad)
        assert (rep.m == 0) == whole, (X.P, line)
        seen[whole] += 1
        if whole:
            assert certify_entire_line(X, fr, rep).whole_line
        else:
            with pytest.raises(ValueError, match="not entirely singular"):
                certify_entire_line(X, fr, rep)
    assert seen[True] >= 20 and seen[False] >= 60, seen


@settings(max_examples=120, deadline=None)
@given(st.sampled_from((2, 3, 5, 7, 11, 0)), st.integers(2, 5),
       st.integers(2, 5), st.integers(0, 10 ** 6), st.booleans())
def test_no_rank_one_pencil_on_a_line(p, n, d, seed, move):
    """A line's pencil never has a rank-one element: for (lam v | mu v) in
    it, (lam s + mu t) times sum_k v_k f_(free_k) is zero, binary forms have
    no zero divisors, and so v would be a nonzero vector of Pi at Pi's free
    columns."""
    X, fr = random_with_line(n, d, p or 101, seed)
    line = [fr.e1, fr.e2]
    if not p:
        # the same form and line read over Q, coefficients in [0, 101)
        X = Hypersurface(MultiForm(QQ, n + 1, d, {e: plain(c) for e, c
                                                  in X.P.terms.items()}))
        line = [[plain(x) for x in v] for v in line]
    if move:
        X, line, _ = _moved(X, line, random.Random(seed))
    la = analyze_line(X, LineFrame(X.field, *line))
    assume(la.tangent.m > 0)
    assert not has_decomposable(la.tangent.pencil)


def test_fermat_f7_line_count_and_rigidity():
    X = fermat(3, 3, F7)
    lines = all_lines(X)
    assert len(lines) == 27
    assert grassmannian_size(7, 3) == 2850
    for fr in lines:
        la = analyze_line(X, fr)
        assert la.tangent.tangent_dim == 0
        assert la.certificate.points == ()
        assert la.image_contained
    assert singular_points(X) == ()


def test_quadric_f5_lines_through_point():
    X = Hypersurface(mono(F5, 4, (1, 0, 0, 1)) - mono(F5, 4, (0, 1, 1, 0)))
    lines = all_lines(X)
    assert len(lines) == 12
    s = F5.scalar
    pt = (s(1), s(0), s(0), s(0))
    thr = lines_through(X, pt)
    assert len(thr) == 2
    assert sum(1 for fr in lines if fr.line_coords(pt) is not None) == 2


def _quadric_f5():
    return Hypersurface(mono(F5, 4, (1, 0, 0, 1)) - mono(F5, 4, (0, 1, 1, 0)))


@pytest.mark.parametrize("make", [lambda: fermat(3, 3, F7), _quadric_f5],
                         ids=["fermat-cubic-f7", "quadric-f5"])
def test_incidence_lines_through_vs_all_lines(make):
    # each line holds p+1 points, so sum_x |lines through x| = (p+1) |lines|
    X = make()
    on_x = [pt for pt in projective_points(X.field, X.n + 1)
            if not X.P.evaluate(pt)]
    incidences = sum(len(lines_through(X, pt)) for pt in on_x)
    assert incidences == (X.field.p + 1) * len(all_lines(X))


def _ints(vec):
    return tuple(map(plain, vec))


def test_enumeration_order_frozen():
    assert [_ints(pt) for pt in projective_points(F3, 3)] == [
        (1, 0, 0), (1, 0, 1), (1, 0, 2), (1, 1, 0), (1, 1, 1), (1, 1, 2),
        (1, 2, 0), (1, 2, 1), (1, 2, 2), (0, 1, 0), (0, 1, 1), (0, 1, 2),
        (0, 0, 1)]
    # x0 x2 - x1 x3 + x2 x3: a line with pivots 0, 2 has a free entry
    # of its first row on each side of column 2
    X = Hypersurface(mono(F3, 4, (1, 0, 1, 0)) - mono(F3, 4, (0, 1, 0, 1))
                     + mono(F3, 4, (0, 0, 1, 1)))
    assert [(_ints(fr.e1), _ints(fr.e2)) for fr in all_lines(X)] == [
        ((1, 0, 0, 0), (0, 1, 0, 0)), ((1, 0, 0, 1), (0, 1, 2, 0)),
        ((1, 0, 1, 2), (0, 1, 1, 2)), ((1, 0, 2, 2), (0, 1, 1, 1)),
        ((1, 0, 0, 2), (0, 0, 1, 0)), ((0, 1, 0, 0), (0, 0, 1, 0)),
        ((1, 0, 0, 0), (0, 0, 0, 1)), ((0, 1, 1, 0), (0, 0, 0, 1))]


def _echelon_rows(field, n1, j):
    """Every vector of F_p^n1 that is 1 at column j and 0 before it, the
    free entries lexicographic, the first free column slowest."""
    elems = [field.scalar(i) for i in range(field.p)]
    head = (field.zero(),) * j + (field.one(),)
    return [head + t for t in product(elems, repeat=n1 - 1 - j)]


def _bruteforce_lines(X):
    # every echelon pair (pivots j1 < j2, row 1 zero at j2), kept when P
    # restricted to its span is the zero binary form
    n1 = X.n + 1
    return [(_ints(r1), _ints(r2)) for j2 in range(1, n1) for j1 in range(j2)
            for r1 in _echelon_rows(X.field, n1, j1) if not r1[j2]
            for r2 in _echelon_rows(X.field, n1, j2)
            if restrict_to_plane(X.P, [r1, r2]).is_zero()]


def _bruteforce_through(X, x):
    # the second rows lines_through tries, in projective_points order: the
    # points that vanish at the pivot column of x
    piv = next(i for i, c in enumerate(x) if c)
    return [_ints(w) for w in projective_points(X.field, X.n + 1)
            if not w[piv] and restrict_to_plane(X.P, [x, w]).is_zero()]


def _bruteforce_cases():
    f3 = parse_field("Fp:3")
    cases = [
        pytest.param(fermat(3, 3, parse_field("Fp:2")), id="fermat-cubic-f2"),
        # (x0 + x1 + x2 + x3)^3: the gradient vanishes identically
        pytest.param(Hypersurface(sum(
            (mono(f3, 4, e) for e in ((3, 0, 0, 0), (0, 3, 0, 0),
                                      (0, 0, 3, 0), (0, 0, 0, 3))),
            MultiForm.zero(f3, 4, 3))), id="fermat-cubic-f3"),
        pytest.param(Hypersurface(mono(F5, 4, (1, 0, 0, 0))
                                  + mono(F5, 4, (0, 1, 0, 0), 2)
                                  + mono(F5, 4, (0, 0, 0, 1), 3)),
                     id="hyperplane-f5"),
        pytest.param(_quadric_f5(), id="quadric-f5"),
    ]
    # the scan tests every pair with restrict_to_plane; P^4 over F_5 and
    # F_7 (20306 and 140050 pairs) would take minutes
    for n in (2, 3, 4):
        for d in (1, 2, 3, 4):
            for p in (2, 3, 5, 7):
                if grassmannian_size(p, n) <= 3000:
                    cases.append(pytest.param(
                        random_with_line(n, d, p, 97 * n + d)[0],
                        id="random-n%d-d%d-p%d" % (n, d, p)))
    return cases


@pytest.mark.parametrize("X", _bruteforce_cases())
def test_all_lines_vs_bruteforce(X):
    lines = _bruteforce_lines(X)
    assert [tuple(map(_ints, fr.canonical_rows()))
            for fr in all_lines(X)] == lines
    on_x = [pt for pt in projective_points(X.field, X.n + 1)
            if not X.P.evaluate(pt)]
    for x in on_x[:2] + on_x[-1:]:
        frames = lines_through(X, x)
        assert all(fr.e1 == x for fr in frames)
        assert [_ints(fr.e2) for fr in frames] == _bruteforce_through(X, x)
        assert sorted(tuple(map(_ints, fr.canonical_rows())) for fr in frames) \
            == sorted(L for L in lines
                      if LineFrame(X.field, *L).line_coords(x) is not None)


def test_all_lines_takes_each_polar_once(monkeypatch):
    """A row 1 recurs for every later pivot j2 it is zero at; all_lines
    evaluates P and its polar there once, and finds the same lines."""
    X = fermat(4, 3, F7)
    seen = []
    polar = singular._polar
    monkeypatch.setattr(singular, "_polar",
                        lambda partials, x: seen.append(x) or polar(partials, x))
    assert len(all_lines(X)) == 135
    assert len(seen) == len(set(seen)) > 0


def test_lines_through_rejects_off_point():
    X = Hypersurface(mono(F5, 4, (1, 0, 0, 1)) - mono(F5, 4, (0, 1, 1, 0)))
    s = F5.scalar
    with pytest.raises(ValueError, match="not on the hypersurface"):
        lines_through(X, (s(0), s(1), s(1), s(0)))


def test_lines_through_takes_any_representative():
    # [1:-1:0:0] on the Fermat cubic surface over F_7 lies on three lines;
    # the point may come scaled, as ints or as Fp, and is kept as e1
    X = fermat(3, 3, F7)
    base = lines_through(X, (1, 6, 0, 0))
    assert len(base) == 3
    scaled = (3, 18, 0, 0)
    for point in (scaled, F7.vector(scaled)):
        frames = lines_through(X, point)
        assert [fr.canonical_rows() for fr in frames] == \
            [fr.canonical_rows() for fr in base]
        for fr in frames:
            assert fr.e1 == F7.vector(scaled)
            assert all(isinstance(c, Fp) and c.p == 7 for c in fr.e1 + fr.e2)


def _fermat_cubic_points(p, k, nvars):
    """#X(F_q), q = p^k with k in (1, 2), for X = Z(sum x_i^3) in
    P^(nvars-1): the affine zeros come from convolving the distribution of
    cubes in F_q, with F_(p^2) = F_p(sqrt r) for a non-residue r."""
    r = next(r for r in range(2, p) if pow(r, (p - 1) // 2, p) == p - 1)

    def mul(u, v):
        return ((u[0] * v[0] + r * u[1] * v[1]) % p,
                (u[0] * v[1] + u[1] * v[0]) % p)

    elems = product(range(p), range(p) if k == 2 else (0,))
    cubes = Counter(mul(mul(x, x), x) for x in elems)
    sums = Counter({(0, 0): 1})
    for _ in range(nvars):
        nxt = Counter()
        for (a, b), m in sums.items():
            for (c, d), w in cubes.items():
                nxt[(a + c) % p, (b + d) % p] += m * w
        sums = nxt
    q = p ** k
    return (sums[0, 0] - 1) // (q - 1)


@pytest.mark.parametrize("n,p,expected", [(3, 7, 27), (3, 13, 27),
                                          (4, 7, 135), (4, 13, 135),
                                          (4, 19, 1647)])
def test_all_lines_galkin_shinder_oracle(n, p, expected):
    """Galkin-Shinder: a smooth cubic of dimension m over F_q carries
    ((N_1^2 + N_2)/2 - (1 + q^m) N_1) / q^2 lines over F_q, N_k the number
    of its points over F_(q^k)."""
    n1, n2 = (_fermat_cubic_points(p, k, n + 1) for k in (1, 2))
    count, rem = divmod((n1 * n1 + n2) // 2 - (1 + p ** (n - 1)) * n1, p * p)
    assert (count, rem) == (expected, 0)
    assert len(all_lines(fermat(n, 3, Field(p)))) == expected


def _planted_q_lines():
    """Lines over Q: rigid, cone-vertex, quadric, entirely singular, and a
    random form through span(e0, e1) in P^4."""
    rng = random.Random(3)
    terms = {}
    for _ in range(8):
        e = [0] * 5
        e[rng.randint(2, 4)] += 1
        for _ in range(2):
            e[rng.randint(0, 4)] += 1
        terms[tuple(e)] = QQ.scalar(rng.randint(-3, 3))
    return [
        (fermat(3, 3, QQ), ((1, -1, 0, 0), (0, 0, 1, -1))),
        (cone(fermat(2, 3, QQ)), ((1, -1, 0, 0), (0, 0, 0, 1))),
        (Hypersurface(mono(QQ, 4, (1, 0, 0, 1)) - mono(QQ, 4, (0, 1, 1, 0))),
         ((1, 0, 0, 0), (0, 1, 0, 0))),
        (Hypersurface(mono(QQ, 4, (0, 0, 2, 0))), ((1, 0, 0, 0), (0, 1, 0, 0))),
        (Hypersurface(MultiForm(QQ, 5, 3, terms)),
         ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0))),
    ]


def _line_invariants(la):
    cert = la.certificate
    return (la.tangent.tangent_dim, la.tangent.pi.dim, la.tangent.m,
            la.nf.s if la.nf else None,
            cert.whole_line if cert else None)


def _certified(la, field, A_cols=None):
    """{normalized ambient point: multiplicity}, moved by A when given."""
    if la.certificate is None:
        return {}
    out = {}
    for sp in la.certificate.points:
        x = sp.ambient if A_cols is None \
            else combine(field, len(sp.ambient), sp.ambient, A_cols)
        out[projective_normalize(x, field)] = sp.multiplicity
    return out


def test_change_of_coordinates_oracle():
    """X' = Z(P o A) carries the line A^-1 E with the same first-order data,
    block sizes and certified points (moved back by A)."""
    rng = random.Random(7)
    cases = [random_with_line(2 + k % 4, 2 + k % 3, 11, k) for k in range(40)]
    cases = [(X, (fr.e1, fr.e2)) for X, fr in cases] + _planted_q_lines()
    points = 0
    for X, line in cases:
        field = X.field
        la = analyze_line(X, LineFrame(field, *line))
        want = _line_invariants(la)
        want_pts = _certified(la, field)
        for _ in range(3):
            Xa, back, cols = _moved(X, line, rng)
            la_a = analyze_line(Xa, LineFrame(field, *back))
            assert _line_invariants(la_a) == want, (X.P, cols)
            assert _certified(la_a, field, cols) == want_pts, (X.P, cols)
            points += len(want_pts)
    assert points >= 100


def _gradient_oracle(X, x):
    """P(x) and every P.partial(i)(x), by the form code."""
    return [X.P.evaluate(x)] + [X.P.partial(i).evaluate(x)
                                for i in range(X.n + 1)]


def test_is_singular_at_matches_partials_oracle():
    """The one-pass gradient agrees with P.partial(i).evaluate over Q and
    small and large primes, at random points (coordinates near p too), at
    points of X where some partial does not vanish, and at singular points;
    it keeps the point checks of field.vector."""
    rng = random.Random(12)
    big = parse_field("Fp:%d" % (2 ** 61 - 1))
    fields = [QQ, parse_field("Fp:2"), F3, parse_field("Fp:11"), big]
    smooth_zeros = 0
    for field in fields:
        p = field.p
        for _ in range(40):
            n, d = rng.randint(1, 4), rng.randint(1, 4)
            exps = [e for e in product(range(d + 1), repeat=n + 1)
                    if sum(e) == d]

            def coord():
                if p and rng.random() < 0.5:
                    return p - rng.randint(1, min(p, 3))
                return (Fr(rng.randint(-9, 9), rng.randint(1, 5)) if not p
                        else rng.randint(0, 9))

            terms = {e: coord() for e in rng.sample(exps, min(len(exps), 4))}
            x = tuple(field.scalar(coord()) for _ in range(n + 1))
            x = x if any(x) else (field.one(),) + x[1:]
            P = MultiForm(field, n + 1, d, terms)
            if P.is_zero():
                continue
            # a term at x's first nonzero coordinate makes P vanish there
            j = next(i for i, c in enumerate(x) if c)
            fix = MultiForm.monomial(field, n + 1,
                                     tuple(d * (i == j) for i in range(n + 1)),
                                     P.evaluate(x) / x[j] ** d)
            for Q in (P, P - fix):
                if Q.is_zero():
                    continue
                X = Hypersurface(Q)
                values = _gradient_oracle(X, x)
                assert is_singular_at(X, x) == (not any(values)), (Q, x)
                smooth_zeros += not values[0] and any(values[1:])
    assert smooth_zeros >= 50
    # singular points: the cone vertex and a double point of a cubic
    X = cone(fermat(2, 3, big))
    assert is_singular_at(X, (0, 0, 0, big.scalar(2 ** 61 - 2)))
    X = Hypersurface(mono(F3, 3, (1, 2, 0)) + mono(F3, 3, (0, 0, 3), -1))
    assert is_singular_at(X, (1, 0, 0))
    assert not is_singular_at(X, (0, 1, 1))
    X = fermat(3, 3, parse_field("Fp:11"))
    with pytest.raises(ValueError, match="zero vector"):
        is_singular_at(X, (0, 0, 0, 0))
    with pytest.raises(ValueError, match="3 coordinates, form has 4"):
        is_singular_at(X, (1, 0, 0))
    with pytest.raises(FieldMismatch):
        is_singular_at(X, (1, Fr(1, 2), 0, 0))
    with pytest.raises(FieldMismatch):
        is_singular_at(X, (1, F7.one(), 0, 0))
    with pytest.raises(FieldMismatch):
        is_singular_at(fermat(3, 3, QQ), (1, F7.one(), 0, 0))


def test_is_singular_at_is_invariant_under_scaling():
    """The gradient test gives the same answer at a point and at its
    multiples by Fractions: the README cone's vertex given as (0,0,0,1/7),
    and the certified and sample points of the planted Q lines scaled by
    -3/5 and by 1/1000003."""
    X = cone(fermat(2, 3, QQ))
    assert is_singular_at(X, (0, 0, 0, Fr(1, 7)))
    assert not is_singular_at(X, (Fr(1, 7), Fr(-1, 7), 0, 0))
    scale = Fr(-3, 5)
    seen = 0
    for X, line in _planted_q_lines():
        fr = LineFrame(QQ, *line)
        la = analyze_line(X, fr)
        points = [sp.ambient for sp in la.certificate.points]
        points += [fr.point(1, 0), fr.point(1, 1), fr.point(2, -1)]
        for x in points:
            want = is_singular_at(X, x)
            assert is_singular_at(X, tuple(scale * c for c in x)) == want
            assert is_singular_at(X, tuple(c / 1000003 for c in x)) == want
            seen += want
    assert seen >= 5


def test_budget_guard():
    X = fermat(3, 3, F7)
    with pytest.raises(BudgetExceeded) as exc:
        all_lines(X, budget=100)
    assert exc.value.estimate == 2850


def test_point_scan_budget_guards():
    X = fermat(3, 3, F7)
    s = F7.scalar
    with pytest.raises(BudgetExceeded) as exc:
        lines_through(X, (s(1), s(6), s(0), s(0)), budget=56)
    assert exc.value.estimate == 57             # points of P^2(F_7)
    assert len(lines_through(X, (s(1), s(6), s(0), s(0)), budget=57)) == 3
    with pytest.raises(BudgetExceeded) as exc:
        singular_points(fermat(3, 3, parse_field("Fp:467")))
    assert exc.value.estimate == 102066120      # points of P^3(F_467)


def test_projective_points_budget_guard(monkeypatch):
    """The point list is refused before it is built: P^4(F_10007) has about
    10^16 points.  singular_points keeps its own message."""
    with pytest.raises(BudgetExceeded) as exc:
        projective_points(parse_field("Fp:10007"), 5)
    assert exc.value.estimate == (10007 ** 5 - 1) // 10006
    monkeypatch.setattr(singular, "_BUDGET", 13)
    assert len(projective_points(F3, 3)) == 13      # the 13 points of P^2(F_3)
    monkeypatch.setattr(singular, "_BUDGET", 12)
    with pytest.raises(BudgetExceeded):
        projective_points(F3, 3)
    monkeypatch.undo()
    with pytest.raises(BudgetExceeded, match="^singular point scan needs"):
        singular_points(fermat(3, 3, parse_field("Fp:467")))


def test_characteristic_refusal():
    X = Hypersurface(mono(F5, 4, (0, 0, 0, 5)))
    with pytest.raises(CharacteristicRefused):
        conjecture_check(X, budget=10 ** 6)


def test_cone_f7_survey():
    X = cone(fermat(2, 3, F7))
    rep = conjecture_check(X, budget=10 ** 7)
    assert rep.num_lines == 9
    assert rep.max_tangent_dim == 2
    assert rep.trigger
    assert rep.covered_points == 64
    assert rep.exceptions == ()
    sing = singular_points(X)
    assert set(rep.certified) <= set(sing)
    assert len(rep.certified) == 1 and len(sing) == 1
    s = F7.scalar
    assert rep.certified[0] == (s(0), s(0), s(0), s(1))


def test_survey_without_lines_does_not_trigger():
    # a plane cubic curve holds no line, so nothing deforms and nothing is
    # forced, even though max_tangent_dim >= n - 2 = 0 and d >= n
    rep = conjecture_check(fermat(2, 3, F7), budget=10 ** 6)
    assert rep.num_lines == 0
    assert not rep.trigger
    assert rep.note.startswith("no line deforms")


def test_random_with_line_is_deterministic():
    Xa, fra = random_with_line(4, 3, 11, seed=5)
    Xb, frb = random_with_line(4, 3, 11, seed=5)
    assert Xa.P == Xb.P
    assert (fra.e1, fra.e2) == (frb.e1, frb.e2)
    la = analyze_line(Xa, fra)
    assert la.tangent.m >= 0  # full pipeline runs without error


@pytest.mark.parametrize("p", [0, 1, 4])
def test_random_with_line_rejects_non_prime(p):
    with pytest.raises(ValueError, match="prime p, got p = %d" % p):
        random_with_line(3, 3, p, seed=0)


def test_fermat_rejects_bad_characteristic():
    with pytest.raises(ValueError, match="divides the degree"):
        fermat(3, 7, F7)


def test_cone_extends_variables():
    base = fermat(2, 3, QQ)
    X = cone(base, extra=2)
    assert X.n == base.n + 2
    assert X.d == base.d
    # the new coordinate directions never appear
    assert all(e[-1] == 0 and e[-2] == 0 for e in X.P.terms)
