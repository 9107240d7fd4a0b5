"""First-order deformation data of a line inside a hypersurface."""

import random
from fractions import Fraction

import pytest

from fanosing.corpus import cone, fermat, random_with_line
from fanosing.forms import BinaryForm, MultiForm, restrict_to_plane
from fanosing.linalg import QQ, Subspace, combine, parse_field
from fanosing.tangent import (Hypersurface, LineFrame, PlaneNotContained,
                              analyze_tangent, compute_pi, sigma, sigma_plane,
                              tangent_cone_lines, tangent_space,
                              tangent_space_plane)

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
    mat = sigma(X, fr)
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
    tc = tangent_cone_lines(X, fr, (0, 0, 0, 1))
    assert tc.basis == (F(0, 1, 0, 0),)
    assert tangent_cone_lines(X, fr, (1, -1, 0, 5)).dim == 1
    with pytest.raises(ValueError, match="not on the line"):
        tangent_cone_lines(X, fr, (1, 0, 0, 0))


def test_fermat_line_is_rigid(fermat_cubic):
    X, fr = fermat_cubic
    rep = analyze_tangent(X, fr)
    assert rep.sigma_matrix == (F(3, 0, 0, 0), F(0, 0, 3, 0),
                                F(0, 3, 0, 0), F(0, 0, 0, 3))
    assert rep.tangent_dim == 0 and rep.pi.dim == 0 and rep.m == 2


def test_plane_not_contained(fermat_cubic):
    X, _ = fermat_cubic
    with pytest.raises(PlaneNotContained):
        sigma(X, LineFrame(QQ, (1, 0, 0, 0), (0, 1, 0, 0)))


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
        mat = sigma(X, fr)
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
    pivots = pi.pivot_columns()
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


def test_sigma_plane_k1_matches_sigma(fermat_cubic):
    X, fr = fermat_cubic
    rep = analyze_tangent(X, fr)
    mat1, monos1 = sigma_plane(X, [fr.e1, fr.e2])
    assert mat1 == rep.sigma_matrix
    assert monos1 == ((3, 0), (2, 1), (1, 2), (0, 3))
    assert tangent_space_plane(X, [fr.e1, fr.e2]).dim == 0


def test_sigma_plane_k2():
    X = Hypersurface(mono(QQ, 4, (2, 0, 0, 1)))
    basis = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)]
    mat, monos = sigma_plane(X, basis)
    assert len(mat) == 3 and len(monos) == 10
    assert mat[0][monos.index((3, 0, 0))] == 1
    assert sum(1 for c in mat[0] if c) == 1
    assert mat[1][monos.index((2, 1, 0))] == 1
    assert mat[2][monos.index((2, 0, 1))] == 1
    assert tangent_space_plane(X, basis).dim == 0


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
