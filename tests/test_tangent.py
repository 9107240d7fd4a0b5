"""First-order deformation data of a line inside a hypersurface."""

import random
from dataclasses import fields
from fractions import Fraction
from math import gcd

import pytest

from fanosing import tangent
from fanosing.corpus import cone, fermat, random_with_line
from fanosing.forms import BinaryForm, MultiForm, contract, restrict_to_plane
from fanosing.linalg import QQ, Subspace, kernel, parse_field, unit_vectors
from fanosing.singular import analyze_line, singular_on_line
from fanosing.tangent import (Hypersurface, LineFrame, PlaneNotContained,
                              TangentReport, analyze_tangent, compute_pi,
                              restricted_contractions, tangent_cone_lines,
                              tangent_space)
from helpers import combine
from reference import restrict

F11 = parse_field("Fp:11")


def mono(field, nvars, exps, c=1):
    return MultiForm.monomial(field, nvars, exps, field.scalar(c))


def F(*xs):
    return tuple(Fraction(x) for x in xs)


@pytest.fixture
def quadric():
    P = mono(QQ, 4, (1, 0, 0, 1)) - mono(QQ, 4, (0, 1, 1, 0))
    return Hypersurface(P), LineFrame(QQ, (1, 0, 0, 0), (0, 1, 0, 0))


@pytest.fixture
def cone_cubic():
    P = (mono(QQ, 4, (3, 0, 0, 0)) + mono(QQ, 4, (0, 3, 0, 0))
         + mono(QQ, 4, (0, 0, 3, 0)))
    return Hypersurface(P), LineFrame(QQ, (1, -1, 0, 0), (0, 0, 0, 1))


@pytest.fixture
def fermat_cubic():
    P = (mono(QQ, 4, (3, 0, 0, 0)) + mono(QQ, 4, (0, 3, 0, 0))
         + mono(QQ, 4, (0, 0, 3, 0)) + mono(QQ, 4, (0, 0, 0, 3)))
    return Hypersurface(P), LineFrame(QQ, (1, -1, 0, 0), (0, 0, 1, -1))


def test_default_complement(quadric):
    _, fr = quadric
    assert fr.complement == (F(0, 0, 1, 0), F(0, 0, 0, 1))


def test_quadric_deformation_matrix(quadric):
    X, fr = quadric
    mat = analyze_tangent(X, fr).sigma_matrix
    assert mat == (F(0, -1, 0), F(1, 0, 0), F(0, 0, -1), F(0, 1, 0))
    T = tangent_space(X, fr)
    assert T.basis == (F(1, 0, 0, 1),)
    assert compute_pi(X, fr).dim == 0
    rep = analyze_tangent(X, fr)
    assert rep.tangent_dim == 1 and rep.m == 2
    assert rep.pencil.basis == (F(1, 0, 0, 1),)


def test_cone_deformation_and_tangent_cone(cone_cubic):
    X, fr = cone_cubic
    rep = analyze_tangent(X, fr)
    assert rep.sigma_matrix == (F(3, 0, 0, 0), F(0, 0, 0, 0),
                                F(0, 3, 0, 0), F(0, 0, 0, 0))
    assert rep.tangent_dim == 2
    assert rep.pi.basis == (F(0, 1),)
    assert rep.m == 1 and rep.pencil.dim == 0
    # tangent directions of the line variety at the vertex vs a smooth point
    tc = tangent_cone_lines(rep, fr, (0, 0, 0, 1))
    assert tc.basis == (F(0, 1, 0, 0),)
    assert tangent_cone_lines(rep, fr, (1, -1, 0, 5)).dim == 1
    with pytest.raises(ValueError, match="not on the line"):
        tangent_cone_lines(rep, fr, (1, 0, 0, 0))


def test_fermat_line_is_rigid(fermat_cubic):
    X, fr = fermat_cubic
    rep = analyze_tangent(X, fr)
    assert rep.sigma_matrix == (F(3, 0, 0, 0), F(0, 0, 3, 0),
                                F(0, 3, 0, 0), F(0, 0, 0, 3))
    assert rep.tangent_dim == 0 and rep.pi.dim == 0 and rep.m == 2


def test_plane_not_contained(fermat_cubic):
    """A line off X, and a frame of the wrong length, keep their messages
    now that sigma reads the frame's cached int rows; singular_on_line
    and analyze_line check the frame as restricted_contractions does."""
    X, fr = fermat_cubic
    with pytest.raises(PlaneNotContained,
                       match="^plane not contained in hypersurface$"):
        analyze_tangent(X, LineFrame(QQ, (1, 0, 0, 0),
                                     (0, 1, 0, 0))).sigma_matrix
    la = analyze_line(X, fr)
    short = LineFrame(QQ, (1, -1, 0), (0, 0, 1))
    for check in (lambda: restricted_contractions(X, short),
                  lambda: singular_on_line(X, short, la.filt),
                  lambda: analyze_line(X, short)):
        with pytest.raises(ValueError, match="^vector length does not match "
                                             "variable count$"):
            check()


def _interp_linear_term(P, e1, e2, w1, w2):
    """d/dt at 0 of P restricted to span(e1 + t w1, e2 + t w2), by Lagrange
    interpolation at d+1 exact nodes.  Independent of the matrix build."""
    field = P.field
    d = P.degree
    nodes, samples = [], []
    cand = 0
    while len(nodes) <= d:
        tv = field.scalar(cand)
        cand += 1
        if any(tv == u for u in nodes):
            break
        b1 = tuple(a + tv * b for a, b in zip(e1, w1))
        b2 = tuple(a + tv * b for a, b in zip(e2, w2))
        try:
            samples.append(restrict_to_plane(P, [b1, b2]))
        except ValueError:
            continue
        nodes.append(tv)
    out = BinaryForm.zero(field, d)
    for k, tk in enumerate(nodes):
        denom = field.one()
        poly = [field.one()]  # prod_{j != k} (t - t_j), ascending coefficients
        for j, tj in enumerate(nodes):
            if j == k:
                continue
            denom = denom * (tk - tj)
            poly = [field.zero()] + poly
            for i in range(len(poly) - 1):
                poly[i] = poly[i] - tj * poly[i + 1]
        c1 = poly[1] / denom if len(poly) > 1 else field.zero()
        out = out + samples[k] * c1
    return out


def _row_combo(mat, v, field, d):
    coeffs = [field.zero()] * (d + 1)
    for c, row in zip(v, mat):
        for i in range(d + 1):
            coeffs[i] = coeffs[i] + c * row[i]
    return BinaryForm(field, tuple(coeffs))


def test_deformation_matches_interpolation_oracle():
    """The matrix rows reproduce the first-order term of the restricted
    family, measured by exact interpolation along a deformation path."""
    rng = random.Random(7)
    for trial in range(40):
        n = rng.randint(2, 4)
        d = rng.randint(2, 4)
        field = F11 if trial % 2 else QQ
        terms = {}
        for _ in range(rng.randint(2, 6)):
            exps = [0] * (n + 1)
            exps[rng.randint(2, n)] += 1
            for _ in range(d - 1):
                exps[rng.randint(0, n)] += 1
            terms[tuple(exps)] = field.scalar(rng.randint(1, 10))
        P = MultiForm(field, n + 1, d, terms)
        if P.is_zero():
            continue
        X = Hypersurface(P)
        e1 = tuple(field.scalar(1 if i == 0 else 0) for i in range(n + 1))
        e2 = tuple(field.scalar(1 if i == 1 else 0) for i in range(n + 1))
        fr = LineFrame(field, e1, e2)
        mat = analyze_tangent(X, fr).sigma_matrix
        v = [field.scalar(rng.randint(0, 10)) for _ in range(2 * (n - 1))]
        w1 = combine(fr.field, fr.ambient_dim, v[:n - 1], fr.complement)
        w2 = combine(fr.field, fr.ambient_dim, v[n - 1:], fr.complement)
        got = _row_combo(mat, v, field, d)
        assert got == _interp_linear_term(P, fr.e1, fr.e2, w1, w2)
        for kv in tangent_space(X, fr).basis:
            kw1 = combine(fr.field, fr.ambient_dim, kv[:n - 1], fr.complement)
            kw2 = combine(fr.field, fr.ambient_dim, kv[n - 1:], fr.complement)
            assert _interp_linear_term(P, fr.e1, fr.e2, kw1, kw2).is_zero()


def _projected_kernel(X, fr):
    """The pencil by its older definition: reduce both halves of each ker
    sigma basis vector mod Pi, keep Pi's free coordinates, re-echelon."""
    nm1 = X.n - 1
    tang, pi = tangent_space(X, fr), compute_pi(X, fr)
    pivots = pi.ints[1]
    free = [i for i in range(nm1) if i not in pivots]

    def project(v):
        v = list(v)
        for row, pc in zip(pi.basis, pivots):
            f = v[pc]
            v = [a - f * b for a, b in zip(v, row)]
        assert not any(v[pc] for pc in pivots)
        return tuple(v[i] for i in free)

    vecs = [project(v[:nm1]) + project(v[nm1:]) for v in tang.basis]
    return Subspace.from_vectors(vecs, X.field, 2 * len(free))


def _planted_q(rng, n, d):
    """A random form over Q vanishing on span(e0, e1), with that line."""
    terms = {}
    for _ in range(rng.randint(2, 3 * n)):
        exps = [0] * (n + 1)
        exps[rng.randint(2, n)] += 1
        for _ in range(d - 1):
            exps[rng.randint(0, n)] += 1
        terms[tuple(exps)] = QQ.scalar(rng.randint(-5, 5) or 1)
    units = [tuple(QQ.scalar(int(i == j)) for i in range(n + 1))
             for j in (0, 1)]
    return Hypersurface(MultiForm(QQ, n + 1, d, terms)), LineFrame(QQ, *units)


def _pencil_cases():
    cases = [random_with_line(n, d, 11, seed)
             for n in range(2, 7) for d in range(2, 6) for seed in range(3)]
    rng = random.Random(11)
    cases += [_planted_q(rng, rng.randint(2, 5), rng.randint(2, 4))
              for _ in range(25)]
    # lines through a cone vertex: Pi holds the vertex directions
    cases.append((cone(fermat(2, 3, QQ)),
                  LineFrame(QQ, (1, -1, 0, 0), (0, 0, 0, 1))))
    cases.append((cone(fermat(3, 3, QQ)),
                  LineFrame(QQ, (1, -1, 0, 0, 0), (0, 0, 0, 0, 1))))
    cases.append((cone(fermat(2, 3, QQ), extra=2),
                  LineFrame(QQ, (1, -1, 0, 0, 0), (0, 0, 0, 1, 1))))
    # a whole singular line: Pi is all of W/E and the pencil is trivial
    P = (mono(QQ, 4, (1, 0, 2, 0)) + mono(QQ, 4, (0, 1, 0, 2))
         + mono(QQ, 4, (0, 0, 3, 0)))
    cases.append((Hypersurface(P), LineFrame(QQ, (1, 0, 0, 0), (0, 1, 0, 0))))
    return cases


def test_pencil_is_the_projected_kernel():
    """The pencil, read as the kernel of sigma's rows at Pi's free columns,
    equals the image of ker sigma in E^* (x) (W/E)/Pi."""
    seen = set()
    for X, fr in _pencil_cases():
        rep = analyze_tangent(X, fr)
        assert rep.pencil == _projected_kernel(X, fr)
        assert rep.pencil.ambient_dim == 2 * rep.m
        seen.add((rep.pi.dim > 0, rep.m > 0, rep.pencil.dim > 0))
    # Pi both trivial and not, next to a nonzero pencil, and a trivial pencil
    assert {(False, True, True), (True, True, True), (True, False, False)} <= seen


def test_kernel_is_assembled_from_pi_and_the_pencil():
    """ker sigma = (Pi x 0) + (0 x Pi) + the pencil's vectors placed at Pi's
    free columns, so tangent_dim = 2 dim Pi + dim pencil; and the kernel
    and Pi are the left kernels of sigma's rows and of its alpha^1 rows on
    their first d columns, as a survey reads them off sigma alone.  On the
    pencil cases (random_with_line lines over F_11, planted lines over Q,
    cone-vertex lines over Q, a singular line) and cone-vertex lines over
    F_11."""
    cases = _pencil_cases()
    for seed in range(8):
        X, fr = random_with_line(3 + seed % 3, 2 + seed % 4, 11, seed)
        Y = cone(X, extra=1 + seed % 2)
        cases.append((Y, LineFrame(X.field, fr.point(1, 0) + (0,) * (Y.n - X.n),
                                   unit_vectors(X.field, Y.n + 1, (Y.n,))[0])))
    wide = 0
    for X, fr in cases:
        rep = analyze_tangent(X, fr)
        rows, field, nm1 = rep.sigma_ints[0], X.field, X.n - 1
        assert rep.kernel == tangent._left_kernel(rows, field, X.d + 1)
        assert rep.pi == tangent._left_kernel(rows[:nm1], field, X.d)
        assert rep.tangent_dim == 2 * rep.pi.dim + rep.pencil.dim
        zero = (field.zero(),) * nm1
        vecs = [v + zero for v in rep.pi.basis]
        vecs += [zero + v for v in rep.pi.basis]
        free = tangent._free_columns(rep.pi)
        for v in rep.pencil.basis:
            out = [field.zero()] * (2 * nm1)
            for k, c in enumerate(free):
                out[c], out[nm1 + c] = v[k], v[rep.m + k]
            vecs.append(tuple(out))
        assert rep.kernel == Subspace.from_vectors(vecs, field, 2 * nm1)
        wide += rep.pi.dim > 0
    assert wide >= 10, wide


def _form_on_line(rng, field, e1, e2, d, q):
    """A random form of degree d vanishing on span(e1, e2): sum_j l_j G_j,
    the l_j a basis of the linear forms vanishing on the line and the G_j
    random forms of degree d - 1 with coefficients q()."""
    n1 = len(e1)
    P = MultiForm.zero(field, n1, d)
    for ell in kernel([e1, e2], field).basis:
        lin = MultiForm(field, n1, 1, {tuple(int(i == j) for i in range(n1)): c
                                       for j, c in enumerate(ell)})
        G = MultiForm.zero(field, n1, d - 1)
        for _ in range(rng.randint(1, 3)):
            exps = [0] * n1
            for _ in range(d - 1):
                exps[rng.randint(0, n1 - 1)] += 1
            G = G + mono(field, n1, exps, q())
        P = P + lin * G
    return P


def _fractional_line(rng, n, d):
    """A random Q form through a line with a fractional frame."""
    def q():
        return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 7, 9, 1000003)))

    while True:
        e1, e2 = (tuple(q() for _ in range(n + 1)) for _ in range(2))
        if len(Subspace.from_vectors([e1, e2], QQ, n + 1).basis) == 2:
            break
    return _form_on_line(rng, QQ, e1, e2, d, q), e1, e2


def test_sigma_commutes_with_reduction_mod_p():
    """On Q lines with fractional coefficients and frames, sigma over Q
    reduced mod p equals sigma of P.reduce_mod(p) on the reduced frame, for
    primes dividing no denominator and keeping the frame's pivot columns."""
    rng = random.Random(15)
    compared = 0
    for case in range(30):
        n, d = 2 + case % 3, 2 + case % 3
        P, e1, e2 = _fractional_line(rng, n, d)
        if P.is_zero():
            continue
        frame = LineFrame(QQ, e1, e2)
        mat = analyze_tangent(Hypersurface(P), frame).sigma_matrix
        dens = [c.denominator for c in (*P.terms.values(), *e1, *e2)]
        primes = [p for p in (11, 13, 101, 10007, 1000003)
                  if all(den % p for den in dens)]
        assert len(primes) >= 3
        for p in primes:
            Fp_ = parse_field("Fp:%d" % p)
            Pp = P.reduce_mod(p)
            f1, f2 = (tuple(map(Fp_.scalar, v)) for v in (e1, e2))
            if Pp.is_zero() or len(Subspace.from_vectors([f1, f2], Fp_).basis) < 2:
                continue
            frame_p = LineFrame(Fp_, f1, f2)
            if frame_p.complement != tuple(tuple(map(Fp_.scalar, w))
                                           for w in frame.complement):
                continue
            rep_p = analyze_tangent(Hypersurface(Pp), frame_p)
            assert rep_p.sigma_matrix == \
                tuple(tuple(map(Fp_.scalar, row)) for row in mat)
            compared += 1
    assert compared >= 80


def test_hypersurface_validation():
    with pytest.raises(ValueError):
        Hypersurface(MultiForm.zero(QQ, 4, 2))
    X = Hypersurface(mono(QQ, 4, (1, 0, 0, 1)))
    assert X.n == 3 and X.d == 2 and X.field == QQ


def test_line_frame_coords(quadric):
    _, fr = quadric
    assert fr.line_coords((3, 5, 0, 0)) == (Fraction(3), Fraction(5))
    assert fr.line_coords((0, 0, 1, 0)) is None
    assert fr.point(2, 7) == F(2, 7, 0, 0)
    assert fr.canonical_rows() == (F(1, 0, 0, 0), F(0, 1, 0, 0))


def _left_kernel_oracle(rows, ncols, field):
    """The c with sum_r c_r * rows[r] = 0, by the public kernel."""
    return kernel([[row[i] for row in rows] for i in range(ncols)], field,
                  ncols=len(rows))


def _int_sigma_cases():
    """Lines on random forms, with frames not in echelon form, over F_2,
    F_3, F_13, F_10007 and Q (denominators above 10^6), plus the cone
    frame e1 = M u + v, e2 = N u + 2v with large M, N, and the Fermat
    cubic's rigid line."""
    rng = random.Random(17)
    cases = []
    for p in (2, 3, 13, 10007, 0):
        field = parse_field("Fp:%d" % p) if p else QQ

        def q():
            if p:
                return rng.randrange(p)
            return Fraction(rng.randint(-9, 9),
                            rng.choice((1, 2, 1000003, 1000033)))

        for case in range(12):
            n1, d = 3 + case % 4, 2 + case % 3
            while True:
                e1, e2 = (tuple(field.scalar(q()) for _ in range(n1))
                          for _ in range(2))
                if len(Subspace.from_vectors([e1, e2], field).basis) == 2 \
                        and LineFrame(field, e1, e2).canonical_rows() != (e1, e2):
                    break
            P = _form_on_line(rng, field, e1, e2, d, q)
            if not P.is_zero():
                cases.append((P, LineFrame(field, e1, e2)))
    u, v = (1, -1, 0, 0), (0, 0, 0, 1)
    for M, N in ((10**6 + 3, 10**6 + 33), (Fraction(1, 10**6 + 3), 7)):
        cases.append((cone(fermat(2, 3, QQ)).P, LineFrame(
            QQ, [M * a + b for a, b in zip(u, v)],
            [N * a + 2 * b for a, b in zip(u, v)])))
    P = (mono(QQ, 4, (3, 0, 0, 0)) + mono(QQ, 4, (0, 3, 0, 0))
         + mono(QQ, 4, (0, 0, 3, 0)) + mono(QQ, 4, (0, 0, 0, 3)))
    cases.append((P, LineFrame(QQ, (1, -1, 0, 0), (0, 0, 1, -1))))
    return cases


def test_int_sigma_matches_restricted_contractions():
    """sigma computed on ints agrees with the scalar definition: row
    alpha^1 (x) w_j holds the coefficients s^(d-1), ..., t^(d-1) of
    (w_j -| P)|_E shifted to s^d, ..., s t^(d-1) (a trailing 0), row
    alpha^2 (x) w_j the same shifted to s^(d-1) t, ..., t^d (a leading 0).
    The kernel, Pi and the pencil of analyze_tangent equal the public
    kernel of the returned scalar matrix, and a frame off X raises
    PlaneNotContained."""
    rng = random.Random(23)
    seen, raised = {}, set()
    for P, fr in _int_sigma_cases():
        field, d = P.field, P.degree
        X = Hypersurface(P)
        rep = analyze_tangent(X, fr)
        mat, nm1, zero = rep.sigma_matrix, X.n - 1, field.zero()
        assert mat == analyze_tangent(X, fr).sigma_matrix
        assert len(mat) == 2 * nm1
        for j, w in enumerate(fr.complement):
            f = restrict(contract(w, P), [fr.e1, fr.e2])[0].coeffs
            assert mat[j] == f + (zero,)
            assert mat[nm1 + j] == (zero,) + f
        assert rep.kernel == tangent_space(X, fr) == \
            _left_kernel_oracle(mat, d + 1, field)
        pi = _left_kernel_oracle([r[:-1] for r in mat[:nm1]], d, field)
        assert rep.pi == compute_pi(X, fr) == pi
        free = [c for c in range(nm1) if c not in pi.ints[1]]
        rows = [mat[c] for c in free] + [mat[nm1 + c] for c in free]
        assert rep.pencil == _left_kernel_oracle(rows, d + 1, field)
        assert rep.m == len(free) and rep.tangent_dim == rep.kernel.dim
        seen[field] = seen.get(field, 0) + 1
        # move e2 off X: a random vector outside the line and off X
        for _ in range(20):
            w = tuple(field.scalar(rng.randint(0, 50)) for _ in fr.e1)
            if len(Subspace.from_vectors([fr.e1, w], field).basis) == 2 \
                    and not restrict_to_plane(P, [fr.e1, w]).is_zero():
                off = LineFrame(field, fr.e1, w)
                for fn in (tangent_space, compute_pi, analyze_tangent):
                    with pytest.raises(PlaneNotContained):
                        fn(X, off)
                raised.add(field.is_rational)
                break
    assert len(seen) == 5 and min(seen.values()) >= 10
    assert raised == {True, False}
    # the Fermat cubic's line is rigid
    assert rep.tangent_dim == 0 and rep.pi.dim == 0 and rep.m == 2


def test_frame_int_rows_and_report_equality():
    """A frame's int rows divided by their one scale give back e1 and e2 (the
    scale is 1 over F_p); a report holds sigma once, as canonical int rows
    (tuples sharing no factor with a positive scale, the scale 1 over F_p)
    that divided by the scale give sigma_matrix, so two reports of one line
    compare equal and hash equal."""
    assert [f.name for f in fields(TangentReport)].count("sigma_ints") == 1
    assert "sigma_matrix" not in [f.name for f in fields(TangentReport)]
    for P, fr in _int_sigma_cases():
        field = P.field
        (r1, r2), m = fr.ints
        assert all(type(x) is int for x in r1 + r2) and m >= 1
        assert m == 1 or not field.p
        for row, e in ((r1, fr.e1), (r2, fr.e2)):
            assert tuple(field.scalar(Fraction(x, m)) for x in row) == e
        X = Hypersurface(P)
        rep = analyze_tangent(X, fr)
        again = analyze_tangent(X, LineFrame(field, fr.e1, fr.e2))
        assert rep == again and hash(rep) == hash(again)
        rows, scale = rep.sigma_ints
        assert type(rows) is tuple and all(type(r) is tuple for r in rows)
        assert all(type(x) is int for r in rows for x in r)
        assert scale >= 1 and gcd(scale, *[x for r in rows for x in r]) == 1
        assert scale == 1 or not field.p
        assert rep.sigma_matrix == tuple(
            tuple(field.scalar(Fraction(x, scale)) for x in r) for r in rows)
        assert rep.sigma_ints == again.sigma_ints


def test_equal_sigma_with_different_raw_scales_is_one_report():
    """(P, (e1, e2)) and (2^(d-1) P, (e1/2, e2/2)) over Q have the same sigma,
    reached through raw int rows and scales that differ by 2^(d-1): the
    reports hold the same canonical sigma_ints, so they compare and hash
    equal."""
    for P, (e1, e2) in ((cone(fermat(2, 3, QQ)).P, ((1, -1, 0, 0), (0, 0, 0, 1))),
                        (fermat(3, 3, QQ).P, ((1, -1, 0, 0), (0, 0, 1, -1))),
                        (fermat(3, 5, QQ).P, ((1, -1, 0, 0), (0, 0, 1, -1)))):
        d = P.degree
        X, fr = Hypersurface(P), LineFrame(QQ, e1, e2)
        big = Hypersurface(MultiForm(QQ, P.nvars, d, {
            e: c * 2 ** (d - 1) for e, c in P.terms.items()}))
        half = LineFrame(QQ, [Fraction(x, 2) for x in e1],
                         [Fraction(x, 2) for x in e2])
        assert restricted_contractions(big, half)[1] == \
            2 ** (d - 1) * restricted_contractions(X, fr)[1]
        rep, other = analyze_tangent(X, fr), analyze_tangent(big, half)
        assert rep.sigma_matrix == other.sigma_matrix
        assert rep.sigma_ints == other.sigma_ints
        assert rep == other and hash(rep) == hash(other)


def _old_tangent_cone_lines(X, frame, x):
    """tangent_cone_lines as it was, with its own Pi from compute_pi."""
    a, b = frame.line_coords(x)
    vecs = [tuple(b * c for c in p) + tuple(-a * c for c in p)
            for p in compute_pi(X, frame).basis]
    return Subspace.from_vectors(vecs, X.field, 2 * (X.n - 1))


def test_tangent_cone_lines_reads_pi_from_the_report(monkeypatch):
    """tangent_cone_lines(report, frame, x) equals the old construction from
    compute_pi(X, frame) at several points of each line: the cone lines and
    random_with_line lines with n 2..6, d 2..5 over F_11 and F_13, some
    through the vertex of their cone.  It makes no restricted_contractions
    call."""
    cases = [(cone(fermat(2, 3, QQ)), LineFrame(QQ, (1, -1, 0, 0), (0, 0, 0, 1)))]
    cases += [(Hypersurface(P), fr) for P, fr in _int_sigma_cases()[-3:-1]]
    for seed in range(32):
        X, fr = random_with_line(2 + seed % 5, 2 + seed % 4, (11, 13)[seed % 2],
                                 seed)
        cases.append((X, fr))
        if seed % 2:
            # the cone over X and its line through e0 and the vertex
            Y = cone(X)
            cases.append((Y, LineFrame(X.field, fr.point(1, 0) + (0,),
                                       unit_vectors(X.field, Y.n + 1, (Y.n,))[0])))
    calls = []
    counted = tangent.restricted_contractions

    def counting(*args):
        calls.append(args)
        return counted(*args)

    wide = 0
    for X, fr in cases:
        rep = analyze_tangent(X, fr)
        points = [fr.point(a, b) for a, b in ((1, 0), (0, 1), (1, 1), (2, -3))]
        want = [_old_tangent_cone_lines(X, fr, x) for x in points]
        monkeypatch.setattr(tangent, "restricted_contractions", counting)
        got = [tangent_cone_lines(rep, fr, x) for x in points]
        monkeypatch.undo()
        assert got == want and all(g.dim == rep.pi.dim for g in got)
        wide += rep.pi.dim > 0
    assert not calls
    assert len(cases) >= 40 and wide >= 20, (len(cases), wide)
