"""Certified singular points on lines, enumeration over prime fields, and the
whole-surface survey."""

import random
from fractions import Fraction as Fr
from itertools import product

import pytest

from fanosing.corpus import cone, fermat, random_with_line
from fanosing.forms import MultiForm, projective_normalize, restrict_to_plane
from fanosing.linalg import (QQ, combine, parse_field, plain, rank,
                             solve_combination)
from fanosing.singular import (BudgetExceeded, CharacteristicRefused,
                               SingularPoint, all_lines, analyze_line,
                               certify_entire_line, conjecture_check,
                               grassmannian_size, is_singular_at,
                               lines_through, projective_points,
                               singular_points)
from fanosing.tangent import Hypersurface, LineFrame

F3 = parse_field("Fp:3")
F5 = parse_field("Fp:5")
F7 = parse_field("Fp:7")


def mono(field, nvars, exps, c=1):
    return MultiForm.monomial(field, nvars, exps, field.scalar(c))


def test_cone_vertex_certified():
    X = cone(fermat(2, 3, QQ))
    fr = LineFrame(QQ, (1, -1, 0, 0), (0, 0, 0, 1))
    la = analyze_line(X, fr)
    assert la.degenerate is None
    assert la.nf.s == (1,)
    assert la.certificate.points == (
        SingularPoint(ambient=(Fr(0), Fr(0), Fr(0), Fr(1)),
                      line_point=(Fr(0), Fr(1)), multiplicity=2),)
    assert la.everyp1.applies
    assert la.everyp1.s1 == 1 and la.everyp1.dim_cx_tangent == 1
    assert la.image_contained
    assert is_singular_at(X, (0, 0, 0, 1))
    assert not is_singular_at(X, (1, -1, 0, 0))


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
    cert = certify_entire_line(X, fr)
    assert cert.whole_line
    # a line that is NOT entirely singular is refused
    Xs = Hypersurface(mono(QQ, 4, (1, 0, 0, 1)) - mono(QQ, 4, (0, 1, 1, 0)))
    with pytest.raises(ValueError, match="not entirely singular"):
        certify_entire_line(Xs, fr)


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


def test_lines_through_rejects_off_point():
    X = Hypersurface(mono(F5, 4, (1, 0, 0, 1)) - mono(F5, 4, (0, 1, 1, 0)))
    s = F5.scalar
    with pytest.raises(ValueError, match="not on the hypersurface"):
        lines_through(X, (s(0), s(1), s(1), s(0)))


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
            la.degenerate is not None, la.nf.s if la.nf else None,
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
        field, n1 = X.field, X.n + 1
        la = analyze_line(X, LineFrame(field, *line))
        want = _line_invariants(la)
        want_pts = _certified(la, field)
        for _ in range(3):
            while True:
                cols = [tuple(field.scalar(rng.randrange(field.p) if field.p
                                           else rng.randint(-3, 3))
                              for _ in range(n1)) for _ in range(n1)]
                if rank(cols, field) == n1:
                    break
            Xa = Hypersurface(restrict_to_plane(X.P, cols))
            back = [solve_combination(cols, e, field) for e in line]
            la_a = analyze_line(Xa, LineFrame(field, *back))
            assert _line_invariants(la_a) == want, (X.P, cols)
            assert _certified(la_a, field, cols) == want_pts, (X.P, cols)
            points += len(want_pts)
    assert points >= 100


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
