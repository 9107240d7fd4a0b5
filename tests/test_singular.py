"""Certified singular points on lines, enumeration over prime fields, and the
whole-surface survey."""

import random
import time
from collections import Counter
from fractions import Fraction as Fr
from itertools import combinations_with_replacement, product
from math import gcd, lcm
from operator import mul

import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from fanosing import singular, tangent
from fanosing.corpus import cone, fermat, random_with_line
from fanosing.ideal import contains_image_sigma
from fanosing.forms import MultiForm, projective_normalize, restrict_to_plane
from fanosing.linalg import (QQ, Field, FieldMismatch, Fp, Subspace,
                             parse_field, plain, rank, solve_combination)
from fanosing.pencil import has_decomposable
from fanosing.singular import (BudgetExceeded, CharacteristicRefused,
                               SingularPoint, all_lines, analyze_line,
                               conjecture_check, grassmannian_size,
                               is_singular_at, lines_through,
                               projective_points, singular_on_line,
                               singular_points)
from fanosing.tangent import Hypersurface, LineFrame, analyze_tangent
from helpers import combine, moved, planted
from reference import restrict

F3 = parse_field("Fp:3")
F5 = parse_field("Fp:5")
F7 = parse_field("Fp:7")
F13 = parse_field("Fp:13")


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


def test_foreign_frame_raises_field_mismatch():
    """An F_7 (or Q) frame with an F_13 hypersurface: its residues mean
    nothing mod 13, so analyze_tangent, analyze_line and singular_on_line
    refuse it with FieldMismatch, on a whole singular line and on the
    cone's.  The image check refuses an F_7 report with an F_13
    filtration."""
    F13 = parse_field("Fp:13")
    # x0^2 x2 + x1^2 x3 is singular all along x0 = x1 = 0
    X = Hypersurface(mono(F13, 4, (2, 0, 1, 0)) + mono(F13, 4, (0, 2, 0, 1)))
    line = ((0, 0, 1, 0), (0, 0, 0, 1))
    rep = analyze_tangent(X, LineFrame(F13, *line))
    assert rep.m == 0
    with pytest.raises(FieldMismatch, match="field mismatch: Fp:7 vs Fp:13"):
        analyze_line(X, LineFrame(F7, *line))
    # the README cone's line through the vertex, which it certifies
    X = cone(fermat(2, 3, F13))
    line = ((1, -1, 0, 0), (0, 0, 0, 1))
    la = analyze_line(X, LineFrame(F13, *line))
    assert la.certificate.points
    with pytest.raises(FieldMismatch, match="field mismatch: Fp:7 vs Fp:13"):
        singular_on_line(X, LineFrame(F7, *line), la.filt)
    with pytest.raises(FieldMismatch, match="field mismatch: Fp:7 vs Fp:13"):
        analyze_line(X, LineFrame(F7, *line))
    for field in (F7, QQ):
        with pytest.raises(FieldMismatch,
                           match="^field mismatch: %s vs Fp:13$" % field):
            analyze_tangent(X, LineFrame(field, *line))
    rep7 = analyze_tangent(cone(fermat(2, 3, F7)), LineFrame(F7, *line))
    with pytest.raises(FieldMismatch, match="^field mismatch between "
                                            "filtration and report$"):
        contains_image_sigma(la.filt, rep7)


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
    and exactly then analyze_line certifies the whole line."""
    seen = {True: 0, False: 0}
    for X, line in _whole_line_corpus():
        fr = LineFrame(X.field, *line)
        rep = analyze_tangent(X, fr)
        _, *grad = restrict(X.P, line, range(X.n + 1))
        whole = all(f.is_zero() for f in grad)
        assert (rep.m == 0) == whole, (X.P, line)
        seen[whole] += 1
        assert analyze_line(X, fr).certificate.whole_line == whole
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
    """A row 1 recurs for every later pivot j2 it is zero at, and a point of
    chart j1 > 0 is also a row 2 of chart j1; all_lines lists X's points
    fibre by fibre, takes the polar only at points of X and each of them
    once, and finds the same lines."""
    X = fermat(4, 3, F7)
    seen = []
    polar = singular._polar
    monkeypatch.setattr(singular, "_polar",
                        lambda partials, x: seen.append(x) or polar(partials, x))
    assert len(all_lines(X)) == 135
    assert len(seen) == len(set(seen)) > 0
    assert all(not X.P.evaluate(F7.vector(x)) for x in seen)
    # every point of X in the charts of rows 2 is listed, as row 2 or row 1
    assert {x for x in singular._residue_points(7, 5) if x[0] == 0
            and not X.P.evaluate(F7.vector(x))} <= set(seen)


def _dual_forms(field, nvars, e1, e2):
    """Linear forms l1, l2 with l1(e1) = l2(e2) = 1 and l1(e2) = l2(e1) = 0,
    on two columns where the independent residue vectors e1, e2 are."""
    p = field.p
    a, b = next((a, b) for a in range(nvars) for b in range(a + 1, nvars)
                if (e1[a] * e2[b] - e1[b] * e2[a]) % p)
    inv = pow(e1[a] * e2[b] - e1[b] * e2[a], -1, p)

    def lin(ca, cb):
        return MultiForm(field, nvars, 1, {
            tuple(int(i == a) for i in range(nvars)): ca * inv,
            tuple(int(i == b) for i in range(nvars)): cb * inv})

    return lin(e2[b], -e2[a]), lin(-e1[b], e1[a])


def test_line_on_matches_reference_restriction():
    """The line test agrees with the reference restriction on seeded random
    forms and residue pairs (e1, e2) that meet its preconditions: P(e1),
    P(e2) and the s^(d-1) t coefficient of P(s e1 + t e2) vanish.  They
    are made to by taking those coefficients, and a random subset of the
    others, off P along l1^(d-i) l2^i for linear forms l1, l2 dual to e1,
    e2.  p < d runs the _expand branch; lines and non-lines occur on both
    branches, and for every d >= 3 a non-line."""
    rng = random.Random(39)
    counts = Counter()
    for _ in range(500):
        p, d, nvars = rng.choice((2, 3, 5, 7, 13)), rng.randint(1, 5), \
            rng.randint(2, 5)
        F = parse_field("Fp:%d" % p)
        while True:
            e1, e2 = (tuple(rng.randrange(p) for _ in range(nvars))
                      for _ in range(2))
            if rank([e1, e2], F) == 2:
                break
        terms = {}
        for _ in range(rng.randint(1, 8)):
            e = [0] * nvars
            for _ in range(d):
                e[rng.randrange(nvars)] += 1
            terms[tuple(e)] = rng.randrange(p)
        P = MultiForm(F, nvars, d, terms)
        line = [F.vector(e1), F.vector(e2)]
        coeffs = restrict(P, line)[0].coeffs
        l1, l2 = _dual_forms(F, nvars, e1, e2)
        kill = {0, 1, d} | {i for i in range(2, d) if rng.random() < 0.6}
        for i in kill:
            P = P - (l1 ** (d - i) * l2 ** i).scale(coeffs[i])
        on = restrict(P, line)[0]
        assert not any(on.coeffs[i] for i in (0, 1, d))
        if P.is_zero():
            continue
        form = Hypersurface(P).plain_form
        got = singular._line_on(form, d, e1, e2, singular._polar(form, e2))
        assert got == on.is_zero()
        counts["expand" if p < d else "values", got] += 1
        counts[d, got] += 1
    assert all(counts[branch, got] for branch in ("expand", "values")
               for got in (True, False)), counts
    assert all(counts[d, False] for d in (3, 4, 5)), counts


def _flat_echelon_pairs(X, cases):
    """The line scan before its rows 2 were grouped by fibre: every row 1
    on X against every row 2 on X of its chart, in the same order, kept when
    g . r2 = 0 for row 1's polar g and the reference restriction of P to the
    line is zero.  cases counts the lines by how the fibred scan finds row
    2: the last chart's empty tail, or g's last entry zero or not.  Points
    are tested on X by evaluating P at each candidate."""
    p, n1 = X.field.p, X.n + 1
    form = X.plain_form
    polars = singular._Polars(form)
    for j2 in range(1, n1):
        head = (0,) * j2 + (1,)
        rows2 = [(r2, t) for t in product(range(p), repeat=n1 - 1 - j2)
                 if not singular._value(form, r2 := head + t)]
        for j1 in range(j2):
            cut = j2 - j1 - 1
            for t in product(range(p), repeat=n1 - 2 - j1):
                r1 = (0,) * j1 + (1,) + t[:cut] + (0,) + t[cut:]
                if singular._value(form, r1):
                    continue
                g = polars[r1]
                case = ("empty tail" if j2 == n1 - 1
                        else "g_l != 0" if g[-1] else "g_l = 0")
                for r2, tail in rows2:
                    if (not sum(map(mul, g[j2 + 1:], tail), g[j2]) % p
                            and restrict(X.P, [X.field.vector(r1),
                                               X.field.vector(r2)])[0]
                            .is_zero()):
                        cases[case] += 1
                        yield r1, r2


def _dense_form(field, nvars, d, rng):
    """A seeded random coefficient on every monomial of degree d."""
    return MultiForm(field, nvars, d, {
        tuple(mono.count(i) for i in range(nvars)): rng.randrange(field.p)
        for mono in combinations_with_replacement(range(nvars), d)})


def test_fibred_scan_matches_flat_scan():
    """_echelon_pairs yields the pairs of the flat scan, in its order, on
    seeded dense forms in P^2 to P^4 of degree 1 to 4 over F_2 to F_13,
    and each way the fibred scan finds a row 2 finds lines."""
    rng = random.Random(39)
    cases = Counter()
    for n in (2, 3, 4):
        for d in (1, 2, 3, 4):
            for p in (2, 3, 5, 7, 11, 13):
                if grassmannian_size(p, n) > 35000:     # to P^4/F_5, P^3/F_13
                    continue
                P = _dense_form(Field(p), n + 1, d, rng)
                if P.is_zero():
                    continue
                X = Hypersurface(P)
                assert list(singular._echelon_pairs(
                    X, singular._Polars(X.plain_form), 10 ** 7)) == \
                    list(_flat_echelon_pairs(X, cases))
    assert all(cases[c] for c in ("empty tail", "g_l != 0", "g_l = 0")), cases


def _sparse_form(field, nvars, d, rng):
    """A seeded random form of degree d with one to eight terms."""
    terms = {}
    for _ in range(rng.randint(1, 8)):
        e = [0] * nvars
        for _ in range(d):
            e[rng.randrange(nvars)] += 1
        terms[tuple(e)] = rng.randrange(field.p)
    return MultiForm(field, nvars, d, terms)


def test_chart_points_match_bruteforce():
    """_chart_points lists each chart's points of X in the order of the
    scan that evaluates P at every point of P^n, on seeded dense and sparse
    forms and cones (P free of the last coordinate, so every fibre is
    constant) in P^1 to P^4 of degree 1 to 6 over F_2 to F_13.  Cones, a
    fibre wholly on X with d < p (an identically zero fibre), d >= p and
    the last chart's lone point on X and off it all occur."""
    rng = random.Random(40)
    cases = Counter()
    for n in (1, 2, 3, 4):
        for d in range(1, 7):
            for p in (2, 3, 5, 7, 13):
                if singular._projective_size(p, n + 1) > 3000:   # to P^4/F_7
                    continue
                F = Field(p)
                for kind in ("dense", "sparse", "cone"):
                    if kind == "cone":
                        base = _dense_form(F, n, d, rng)
                        P = MultiForm(F, n + 1, d, {
                            e + (0,): c for e, c in base.terms.items()})
                    else:
                        P = (_dense_form if kind == "dense"
                             else _sparse_form)(F, n + 1, d, rng)
                    if P.is_zero():
                        continue
                    form = Hypersurface(P).plain_form
                    on_x = [x for x in singular._residue_points(p, n + 1)
                            if not singular._value(form, x)]
                    charts = [singular._chart_points(form, d, n + 1, j)
                              for j in range(n + 1)]
                    assert charts == [[x for x in on_x if x.index(1) == j]
                                      for j in range(n + 1)]
                    fibres = Counter(x[:-1] for x in on_x if x.index(1) < n)
                    cases["cone"] += kind == "cone" and any(charts[:-1])
                    cases["zero fibre"] += d < p and p in fibres.values()
                    cases["d >= p"] += d >= p and any(charts)
                    cases["last chart", bool(charts[-1])] += 1
    assert all(cases[c] for c in ("cone", "zero fibre", "d >= p",
                                  ("last chart", True),
                                  ("last chart", False))), cases


@pytest.mark.parametrize("make,lines", [
    (lambda: fermat(4, 3, F7), 135), (lambda: cone(fermat(2, 3, F7)), 9)],
    ids=["fermat-p4-f7", "cone-f7"])
def test_survey_evaluates_p_on_x_only(make, lines, monkeypatch):
    """The survey finds X's points fibre by fibre (_chart_points) and takes
    their polars without evaluating P, so every evaluation of P it makes
    (the certificates' re-checks, the line test's) is at a point of X."""
    X = make()
    values = []
    value = singular._value
    monkeypatch.setattr(singular, "_value",
                        lambda form, x: values.append(value(form, x))
                        or values[-1])
    assert conjecture_check(X).num_lines == lines
    assert not any(values)


@pytest.mark.parametrize("X", _bruteforce_cases())
def test_frame_from_echelon_matches_line_frame(X):
    """all_lines builds each frame from the scan's echelon pair; it is the
    frame LineFrame builds from the same rows in every field it carries."""
    for fr in all_lines(X):
        (r1, r2), _ = fr.ints
        ref = LineFrame(X.field, r1, r2)
        assert (fr.e1, fr.e2, fr.cols, fr.ints) == \
            (ref.e1, ref.e2, ref.cols, ref.ints)
        assert fr.canonical_rows() == ref.canonical_rows() == (fr.e1, fr.e2)
        assert fr == ref and hash(fr) == hash(ref)


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
    P^(nvars-1), with F_(p^2) = F_p(sqrt r) for a non-residue r.  Scaling
    by a nonzero cube c^3 maps the ways to write a as a sum of j cubes onto
    those for a c^3, so their number depends only on a's cube class; adding
    one cube at a time is a sum over F_q for each class representative."""
    r = next(r for r in range(2, p) if pow(r, (p - 1) // 2, p) == p - 1)

    def mul(u, v):
        return ((u[0] * v[0] + r * u[1] * v[1]) % p,
                (u[0] * v[1] + u[1] * v[0]) % p)

    zero = (0, 0)
    elems = list(product(range(p), range(p) if k == 2 else (0,)))
    cube = {x: mul(mul(x, x), x) for x in elems}
    units = set(cube.values()) - {zero}
    rep = {zero: zero}          # each element's cube class representative
    for a in elems:
        if a not in rep:
            rep.update((mul(a, c), a) for c in units)
    ways = {a: int(a == zero) for a in set(rep.values())}   # sums of 0 cubes
    for _ in range(nvars):
        ways = {a: sum(ways[rep[(a[0] - c[0]) % p, (a[1] - c[1]) % p]]
                       for c in cube.values()) for a in ways}
    q = p ** k
    return (ways[zero] - 1) // (q - 1)


@pytest.mark.parametrize("n,p,expected", [(3, 7, 27), (3, 13, 27),
                                          (3, 103, 27), (4, 7, 135),
                                          (4, 13, 135), (4, 19, 1647)])
def test_all_lines_galkin_shinder_oracle(n, p, expected):
    """Galkin-Shinder: a smooth cubic of dimension m over F_q carries
    ((N_1^2 + N_2)/2 - (1 + q^m) N_1) / q^2 lines over F_q, N_k the number
    of its points over F_(q^k)."""
    n1, n2 = (_fermat_cubic_points(p, k, n + 1) for k in (1, 2))
    count, rem = divmod((n1 * n1 + n2) // 2 - (1 + p ** (n - 1)) * n1, p * p)
    assert (count, rem) == (expected, 0)
    # P^3(F_103) has 113664930 lines, past the default budget
    assert len(all_lines(fermat(n, 3, Field(p)),
                         budget=grassmannian_size(p, n))) == expected


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


def _reduced_point(x, F):
    """The Q point x mod p, normalized: from its primitive int multiple,
    which is nonzero mod every p."""
    ints = [c * lcm(*(c.denominator for c in x)) for c in x]
    g = gcd(*(c.numerator for c in ints))
    return projective_normalize([F.scalar(c.numerator // g) for c in ints], F)


def test_q_certified_points_reduce_into_fp_certificates():
    """A Q-certified point is a singular point of X on E, so its reduction
    mod a good p is a singular point of X mod p on E mod p, and the F_p
    certificate, whose points are all the rational common zeros of the
    contractions (w_j -| P)|_E, lists it.  Inclusion, not equality: mod p
    the gcd can split further.  Lines: the cone over the Fermat cubic and
    planted forms over Q whose generators share a root, on the planted line
    and moved; a prime dividing a denominator or moving the frame's pivot
    columns is skipped."""
    rng = random.Random(28)

    def q():
        return Fr(rng.randint(-9, 9), rng.choice((1, 2, 3, 7, 11, 13)))

    def nz():
        return next(x for x in iter(q, None) if x)

    cases = [(cone(fermat(2, 3, QQ)), LineFrame(QQ, (1, -1, 0, 0), (0, 0, 0, 1)))]
    while len(cases) < 48:
        n, d = rng.randint(2, 5), rng.randint(2, 4)
        P = planted(QQ, n, d, rng, q, nz, double=False)
        if P.is_zero():
            continue
        X, fr = moved(P, rng, q) if rng.random() < 0.5 else (
            Hypersurface(P), LineFrame(QQ, *[[int(i == j) for i in range(n + 1)]
                                             for j in (0, 1)]))
        if not X.P.is_zero() and analyze_line(X, fr).certificate.points:
            cases.append((X, fr))
    compared = 0
    for X, fr in cases:
        points = analyze_line(X, fr).certificate.points
        dens = [c.denominator for c in (*X.P.terms.values(), *fr.e1, *fr.e2)]
        for p in (11, 13, 101):
            F = parse_field("Fp:%d" % p)
            if any(den % p == 0 for den in dens):
                continue
            e1, e2 = (tuple(map(F.scalar, e)) for e in (fr.e1, fr.e2))
            if rank([e1, e2], F) < 2 or LineFrame(F, e1, e2).cols != fr.cols:
                continue
            cert = analyze_line(Hypersurface(X.P.reduce_mod(p)),
                                LineFrame(F, e1, e2)).certificate
            listed = {sp.ambient for sp in cert.points}
            for sp in points:
                assert cert.whole_line or _reduced_point(sp.ambient, F) in listed, \
                    (X.P, fr, p, sp)
                compared += 1
    assert compared >= 50


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
    with pytest.raises(CharacteristicRefused, match=r"\(pass force=True to proceed\)$"):
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


def test_survey_with_an_entirely_singular_line():
    """x0 x2^2 + x1 x3^2 over F_7 is singular along the line x2 = x3 = 0:
    the survey certifies that line's 8 points through its whole-line
    branch, and they are all the singular points of X."""
    X = Hypersurface(mono(F7, 4, (1, 0, 2, 0)) + mono(F7, 4, (0, 1, 0, 2)))
    rep = conjecture_check(X)
    assert rep.num_lines == 10
    assert rep.max_tangent_dim == 4
    assert rep.trigger
    assert rep.exceptions == ()
    assert [analyze_line(X, fr).certificate.whole_line
            for fr in all_lines(X)].count(True) == 1
    assert len(rep.certified) == 8
    assert set(rep.certified) == set(singular_points(X))
    assert all(not pt[2] and not pt[3] for pt in rep.certified)


def test_survey_without_lines_does_not_trigger():
    # a plane cubic curve holds no line, so nothing deforms and nothing is
    # forced, even though max_tangent_dim >= n - 2 = 0 and d >= n
    rep = conjecture_check(fermat(2, 3, F7), budget=10 ** 6)
    assert rep.num_lines == 0
    assert not rep.trigger
    assert rep.note.startswith("no line deforms")


def test_survey_note_counts_extension_field_lines():
    # p = 5 > d = 4, so no force; each exception's gcd has no zero over F_5
    X, _ = random_with_line(3, 4, 5, 5)
    rep = conjecture_check(X)
    assert [e.kind for e in rep.exceptions] == ["no-rational-point"] * 5
    assert rep.note.endswith("; 5 line(s) have singular points only over an "
                             "extension field")


def _diagonal_cubic(field, coeffs):
    """sum c_i x_i^3 for cubes c_i: a Fermat cubic in other coordinates."""
    n1 = len(coeffs)
    return Hypersurface(sum((mono(field, n1, [3 * (j == i) for j in range(n1)],
                                  c) for i, c in enumerate(coeffs)),
                            MultiForm.zero(field, n1, 3)))


def _generic_cubic_threefold():
    """A cubic in P^4 over F_7, every coefficient uniform (seed 12345): its
    93 lines have 93 distinct sigma, whose contractions span 19 distinct
    subspaces."""
    rng = random.Random(12345)
    terms = {}
    for mon in combinations_with_replacement(range(5), 3):
        terms[tuple(mon.count(i) for i in range(5))] = rng.randrange(7)
    return Hypersurface(MultiForm(F7, 5, 3, terms))


def _cayley_cubic():
    """The four-nodal Cayley cubic over F_7: lines with one sigma run
    through different nodes."""
    return Hypersurface(sum((mono(F7, 4, [int(i != j) for i in range(4)])
                             for j in range(4)), MultiForm.zero(F7, 4, 3)))


# the benchmark's seed-1 survey inputs, the Fermat cubic surface, a cone
# with a vertex line and the Cayley cubic, whose lines with one sigma
# certify different points
_SHARED_SIGMA = [(lambda: cone(_diagonal_cubic(F7, (6, 1, 1))), 9, 6),
                 (lambda: _diagonal_cubic(F13, (5, 8, 8, 8)), 27, 18),
                 (lambda: _diagonal_cubic(F7, (6, 6, 6, 1, 6)), 135, 63),
                 (lambda: fermat(3, 3, F13), 27, 18),
                 (lambda: cone(fermat(2, 3, F7), extra=2), 505, 7),
                 (_cayley_cubic, 9, 3)]
_SHARED_IDS = ["cone-f7", "p3-f13", "p4-f7", "fermat-p3-f13", "double-cone",
               "cayley"]


def _span(X, sigma_ints):
    """The span of a sigma's contractions, its alpha^1 rows without their
    last column, as a Subspace of the binary forms of degree d - 1."""
    return Subspace.from_vectors([row[:-1] for row in sigma_ints[0][:X.n - 1]],
                                 X.field, X.d)


@pytest.mark.parametrize("make,lines,sigmas", _SHARED_SIGMA, ids=_SHARED_IDS)
def test_sigma_determines_the_core(make, lines, sigmas):
    """Lines with one sigma get one report, normal form, generators,
    filtration, gcd and image check; each line's certified points lie on
    that line and are singular on X."""
    X = make()
    first = {}
    frames = all_lines(X)
    for fr in frames:
        la = analyze_line(X, fr)
        other = first.setdefault(la.tangent.sigma_ints, la)
        assert (la.tangent, la.nf, la.gens, la.filt, la.certificate.gcd_form,
                la.image_contained) == (
            other.tangent, other.nf, other.gens, other.filt,
            other.certificate.gcd_form, other.image_contained)
        for sp in la.certificate.points:
            assert sp.ambient == projective_normalize(fr.point(*sp.line_point),
                                                      X.field)
            assert is_singular_at(X, sp.ambient)
    assert (len(frames), len(first)) == (lines, sigmas)


def _reference_survey(X):
    """conjecture_check's fields but the note, as a plain loop over
    analyze_line."""
    F, p = X.field, X.field.p
    frames = all_lines(X)
    covered, certified, exceptions, max_dim = set(), set(), [], 0
    for fr in frames:
        la = analyze_line(X, fr)
        max_dim = max(max_dim, la.tangent.tangent_dim)
        points = {projective_normalize(fr.point(a, b), F)
                  for a, b in [(0, 1)] + [(1, k) for k in range(p)]}
        covered |= points
        cert = la.certificate
        certified |= points if cert.whole_line else {
            sp.ambient for sp in cert.points}
        if la.everyp1.applies and not cert.points:
            exceptions.append(singular.ExceptionRecord(
                line=fr.canonical_rows(), kind="no-rational-point",
                detail="gcd %r has no rational zero; singular points exist "
                       "over an extension" % (cert.gcd_form,)))
    return (len(frames), max_dim,
            bool(frames) and max_dim >= X.n - 2 and X.d >= X.n, len(covered),
            tuple(sorted(certified, key=lambda pt: tuple(map(plain, pt)))),
            tuple(exceptions))


@pytest.mark.parametrize("make,force", [
    (lambda: cone(fermat(2, 3, F7)), False),
    (lambda: cone(fermat(2, 3, F7), extra=2), False),
    (lambda: fermat(3, 3, F7), False), (_cayley_cubic, False),
    (lambda: _diagonal_cubic(F7, (6, 6, 6, 1, 6)), False),
    (lambda: Hypersurface(mono(F7, 4, (1, 0, 2, 0)) + mono(F7, 4, (0, 1, 0, 2))),
     False),
    (lambda: random_with_line(3, 4, 5, 5)[0], False),
    (_generic_cubic_threefold, False),
    (lambda: random_with_line(3, 5, 3, 1)[0], True),
    (lambda: random_with_line(3, 3, 2, 3)[0], True),
    (lambda: random_with_line(3, 4, 3, 6)[0], True)],
    ids=["cone-f7", "double-cone", "fermat-p3-f7", "cayley", "p4-f7",
         "singular-line", "exceptions", "generic", "forced-frame-sigma",
         "forced-p2-d3", "forced-p3-d4"])
def test_survey_builds_one_core_per_sigma(make, force, monkeypatch):
    """conjecture_check runs normal_form once per distinct span of the
    contractions with m > 0, so at most once per distinct sigma, and equals
    the survey that analyzes every line.  The forced surveys read sigma off
    each line's frame (p < d - 1) or interpolate it on the fewest nodes
    (p = d - 1)."""
    X = make()
    reports = [analyze_tangent(X, fr) for fr in all_lines(X)]
    calls = []
    normal_form = singular.normal_form

    def counted(pencil):
        calls.append(pencil)
        return normal_form(pencil)

    monkeypatch.setattr(singular, "normal_form", counted)
    rep = conjecture_check(X, force=force)
    assert len(calls) == len({_span(X, r.sigma_ints) for r in reports if r.m})
    assert (rep.num_lines, rep.max_tangent_dim, rep.trigger,
            rep.covered_points, rep.certified, rep.exceptions) == \
        _reference_survey(X)


@pytest.mark.parametrize("make,lines", [
    (lambda: cone(_diagonal_cubic(F7, (6, 1, 1))), 9),
    (lambda: _diagonal_cubic(F13, (5, 8, 8, 8)), 27),
    (lambda: _diagonal_cubic(F7, (6, 6, 6, 1, 6)), 135),
    (lambda: cone(fermat(3, 3, F7)), 1422),
    (_generic_cubic_threefold, 93),
    (lambda: random_with_line(3, 3, 2, 3)[0], 10),
    (lambda: random_with_line(3, 4, 3, 6)[0], 5)],
    ids=["cone-f7", "p3-f13", "p4-f7", "cone-fermat-surface", "generic",
         "p2-d3", "p3-d4"])
def test_gradient_sigma_matches_sigma_rows(make, lines):
    """The contractions the survey interpolates from the scan's gradients
    equal restricted_contractions, the one substitution kernel, of a frame
    built from scratch on every line, whose scale is 1: the benchmark's
    seed-1 survey inputs, the cone over the Fermat cubic surface, a cubic
    threefold whose lines all have distinct sigma, and p = d - 1, the
    fewest nodes the interpolation can run on."""
    X = make()
    polars = singular._Polars(X.plain_form)
    contractions = singular._gradient_contractions(X, polars)
    pairs = list(singular._echelon_pairs(X, polars, 10 ** 7))
    assert len(pairs) == lines
    for r1, r2 in pairs:
        assert (contractions(r1, r2), 1) == tangent.restricted_contractions(
            X, LineFrame(X.field, r1, r2))


@pytest.mark.parametrize("make,force,per_line", [
    (lambda: _diagonal_cubic(F7, (6, 6, 6, 1, 6)), False, 0),
    (lambda: cone(fermat(2, 3, F7), extra=2), False, 0),
    (lambda: random_with_line(3, 3, 2, 3)[0], True, 0),
    (lambda: random_with_line(3, 5, 3, 1)[0], True, 1)],
    ids=["p4-f7", "double-cone", "p2-d3", "p3-d5"])
def test_survey_work_is_per_sigma_not_per_line(make, force, per_line,
                                               monkeypatch):
    """With p >= d - 1 the survey reads each line's contractions off the
    scan's gradients and each distinct span's summary off its echelon rows
    (_sigma_summary): no restricted_contractions call and no frame at all.
    Under force with p < d - 1 each line costs one of each, and a distinct
    span none."""
    X = make()
    sigmas = {analyze_tangent(X, fr).sigma_ints for fr in all_lines(X)}
    contractions, frames = [], []
    restricted = tangent.restricted_contractions
    from_echelon, init = LineFrame._from_echelon, LineFrame.__init__
    monkeypatch.setattr(tangent, "restricted_contractions",
                        lambda *a: contractions.append(a) or restricted(*a))
    monkeypatch.setattr(LineFrame, "_from_echelon", classmethod(
        lambda cls, *a: frames.append(a) or from_echelon(*a)))
    monkeypatch.setattr(LineFrame, "__init__",
                        lambda self, *a: frames.append(a) or init(self, *a))
    rep = conjecture_check(X, force=force)
    assert rep.num_lines > len(sigmas)
    assert len(contractions) == len(frames) == per_line * rep.num_lines


@pytest.mark.parametrize("make,spans", [
    (make, spans) for (make, _, _), spans in zip(_SHARED_SIGMA,
                                                 [1, 1, 1, 1, 2, 2])]
    + [(_generic_cubic_threefold, 19)], ids=_SHARED_IDS + ["generic"])
def test_span_determines_the_summary(make, spans):
    """On every line, the survey's summary of the line's contractions
    equals that of their span's echelon rows (the survey's key) and that of
    the contractions moved by a random invertible matrix mod p; the lines
    have as many spans as pinned."""
    X = make()
    F, p, nm1 = X.field, X.field.p, X.n - 1
    rng = random.Random(7)
    keys = set()
    for fr in all_lines(X):
        fs, _ = tangent.restricted_contractions(X, fr)
        key = Subspace.from_vectors(fs, F, X.d).ints[0]
        keys.add(key)
        while True:
            A = [[rng.randrange(p) for _ in range(nm1)] for _ in range(nm1)]
            if rank(A, F) == nm1:
                break
        moved_fs = [[sum(a * f[i] for a, f in zip(row, fs)) % p
                     for i in range(X.d)] for row in A]
        summary = singular._sigma_summary(X, fs)
        assert singular._sigma_summary(X, key) == summary
        assert singular._sigma_summary(X, moved_fs) == summary
    assert len(keys) == spans


def test_survey_refuses_a_failed_image_check(monkeypatch):
    """The survey keeps the image check of each distinct span: a False
    there raises instead of being dropped."""
    X = fermat(3, 3, F13)
    assert conjecture_check(X).num_lines == 27
    monkeypatch.setattr(singular, "contains_image_sigma", lambda *a: False)
    with pytest.raises(ArithmeticError, match="image"):
        conjecture_check(X)


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
