"""Binary-form generators of the deformation ideal and its degree filtration."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from fanosing.forms import BinaryForm, MultiForm
from fanosing.ideal import (BlockGenerator, DegreeTooSmall, GeneratorSet,
                            build_filtration, contains_image_sigma,
                            extract_generators, ideal_degree_piece,
                            max_multiplicity_at, pure_power_locus)
from fanosing.linalg import QQ, FieldMismatch, Subspace, parse_field, rank
from fanosing.pencil import NormalForm, normal_form
from fanosing.singular import analyze_line
from fanosing.tangent import Hypersurface, LineFrame, analyze_tangent
from helpers import moved, planted

Fr = Fraction
F11 = parse_field("Fp:11")


def mono(field, nvars, exps, c=1):
    return MultiForm.monomial(field, nvars, exps, field.scalar(c))


def _pipeline(X, fr):
    rep = analyze_tangent(X, fr)
    nf = normal_form(rep.pencil)
    gens = extract_generators(X, nf, rep)
    return rep, nf, gens, build_filtration(gens)


@pytest.fixture
def quadric_pipeline():
    X = Hypersurface(mono(QQ, 4, (1, 0, 0, 1)) - mono(QQ, 4, (0, 1, 1, 0)))
    fr = LineFrame(QQ, (1, 0, 0, 0), (0, 1, 0, 0))
    return (X, fr) + _pipeline(X, fr)


@pytest.fixture
def cone_pipeline():
    X = Hypersurface(mono(QQ, 4, (3, 0, 0, 0)) + mono(QQ, 4, (0, 3, 0, 0))
                     + mono(QQ, 4, (0, 0, 3, 0)))
    fr = LineFrame(QQ, (1, -1, 0, 0), (0, 0, 0, 1))
    return (X, fr) + _pipeline(X, fr)


@pytest.fixture
def fermat_pipeline():
    X = Hypersurface(mono(QQ, 4, (3, 0, 0, 0)) + mono(QQ, 4, (0, 3, 0, 0))
                     + mono(QQ, 4, (0, 0, 3, 0)) + mono(QQ, 4, (0, 0, 0, 3)))
    fr = LineFrame(QQ, (1, -1, 0, 0), (0, 0, 1, -1))
    return (X, fr) + _pipeline(X, fr)


def test_quadric_generator_is_unit(quadric_pipeline):
    X, fr, rep, nf, gens, filt = quadric_pipeline
    assert nf.s == (2,)
    assert gens.r == 1 and gens.blocks[0].size == 2
    assert gens.blocks[0].p == BinaryForm(QQ, (Fr(1),))
    assert gens.deltas() == (0,)
    assert filt.hatM[0].dim == 1 and filt.quotient_dims == (0,)
    assert ideal_degree_piece(filt, 3).dim == 4
    assert contains_image_sigma(filt, rep)


def test_cone_generator_and_multiplicity(cone_pipeline):
    X, fr, rep, nf, gens, filt = cone_pipeline
    assert nf.s == (1,) and nf.m == 1
    assert gens.blocks[0].p == BinaryForm(QQ, (Fr(1), Fr(0), Fr(0)))  # s^2
    assert filt.deltas == (2,)
    assert contains_image_sigma(filt, rep)
    # the vertex [0:1] is a double point; every other line point is smooth
    assert max_multiplicity_at(filt, 2, (0, 1)) == 2
    assert max_multiplicity_at(filt, 2, (1, 1)) == 0
    # the whole degree-5 piece is divisible by s^2, so ell^5 = s^5 sits in it
    assert max_multiplicity_at(filt, 5, (0, 1)) == 5
    assert max_multiplicity_at(filt, 3, (0, 1)) == 3
    assert max_multiplicity_at(filt, 3, (2, 5)) <= 2


def test_cone_pure_power_locus(cone_pipeline):
    _, _, _, _, _, filt = cone_pipeline
    loc = pure_power_locus(filt, 2)
    assert not loc.whole_line
    assert loc.gcd_form == BinaryForm(QQ, (Fr(1), Fr(0)))
    assert loc.report.roots == (((Fr(0), Fr(1)), 1),)
    loc3 = pure_power_locus(filt, 3)
    assert not loc3.whole_line
    assert [pt for pt, _ in loc3.report.roots] == [(Fr(0), Fr(1))]


def test_fermat_two_generators(fermat_pipeline):
    X, fr, rep, nf, gens, filt = fermat_pipeline
    assert nf.s == (1, 1)
    got = sorted(tuple(p.coeffs) for p in gens.forms())
    assert got == [(Fr(0), Fr(0), Fr(1)), (Fr(1), Fr(0), Fr(0))]
    assert filt.deltas == (2,) and filt.counts == (2,)
    assert filt.quotient_dims == (1,)
    assert contains_image_sigma(filt, rep)


def test_fermat_filtration_fills_high_degrees(fermat_pipeline):
    """span(s^2, t^2) generates everything from degree 5 on."""
    _, _, _, _, _, filt = fermat_pipeline
    assert ideal_degree_piece(filt, 5).dim == 6
    assert pure_power_locus(filt, 5).whole_line
    assert max_multiplicity_at(filt, 5, (1, 7)) == 5


def test_fermat_low_degree_exceptional_points(fermat_pipeline):
    _, _, _, _, _, filt = fermat_pipeline
    loc = pure_power_locus(filt, 2)
    assert not loc.whole_line
    pts = {pt for pt, _ in loc.report.roots}
    assert pts == {(Fr(1), Fr(0)), (Fr(0), Fr(1))}
    assert max_multiplicity_at(filt, 2, (1, 0)) == 2
    # s^2 - t^2 vanishes to order exactly 1 at [1:1]
    assert max_multiplicity_at(filt, 2, (1, 1)) == 1


def test_genuine_size_three_block_over_f11():
    """x0^2 x2 + x0 x1 x3 + x1^2 x4 carries a single chain of length 3."""
    X = Hypersurface(mono(F11, 5, (2, 0, 1, 0, 0))
                     + mono(F11, 5, (1, 1, 0, 1, 0))
                     + mono(F11, 5, (0, 2, 0, 0, 1)))
    fr = LineFrame(F11, (1, 0, 0, 0, 0), (0, 1, 0, 0, 0))
    rep, nf, gens, filt = _pipeline(X, fr)
    assert nf.s == (3,)
    assert contains_image_sigma(filt, rep)
    # chain identities are re-checked inside extract_generators; reaching
    # here at all means they held


def test_degree_guard_on_mismatched_normal_form(quadric_pipeline):
    X, fr, rep, _, _, _ = quadric_pipeline
    fake = NormalForm(field=QQ, m=2, r=1, s=(3,),
                      adapted_basis=((Fr(1), Fr(0)), (Fr(0), Fr(1)),
                                     (Fr(1), Fr(1))))
    with pytest.raises(DegreeTooSmall, match="too small"):
        extract_generators(X, fake, rep)


def test_generators_refuse_a_normal_form_or_report_over_another_field(
        quadric_pipeline):
    """The same quadric over F_11: its normal form or report with the Q
    hypersurface raises FieldMismatch, a ValueError."""
    X, _, rep, nf, _, _ = quadric_pipeline
    X11 = Hypersurface(mono(F11, 4, (1, 0, 0, 1)) - mono(F11, 4, (0, 1, 1, 0)))
    rep11, nf11, _, _ = _pipeline(X11, LineFrame(F11, (1, 0, 0, 0),
                                                 (0, 1, 0, 0)))
    for args in ((X, nf11, rep), (X, nf, rep11), (X11, nf, rep11)):
        with pytest.raises(FieldMismatch, match="over another field"):
            extract_generators(*args)


def test_multiplicity_refuses_a_point_off_the_line_coordinates():
    """max_multiplicity_at reads a line point (a, b): on the F_7 cone's
    generator s^2, (0, 1, 5) is not read as the vertex (0, 1) and (0,)
    raises no bare IndexError; both are refused with their length."""
    F7 = parse_field("Fp:7")
    X = Hypersurface(mono(F7, 4, (3, 0, 0, 0)) + mono(F7, 4, (0, 3, 0, 0))
                     + mono(F7, 4, (0, 0, 3, 0)))
    filt = analyze_line(X, LineFrame(F7, (1, -1, 0, 0), (0, 0, 0, 1))).filt
    assert filt.gens.blocks[0].p == BinaryForm(F7, tuple(map(F7.scalar,
                                                             (1, 0, 0))))
    assert max_multiplicity_at(filt, 2, (0, 1)) == 2
    for point in ((0, 1, 5), (0,)):
        with pytest.raises(ValueError, match="^line point has %d coordinates,"
                                             " not 2$" % len(point)):
            max_multiplicity_at(filt, 2, point)


def test_piece_below_first_delta_is_zero(cone_pipeline):
    _, _, _, _, _, filt = cone_pipeline
    assert ideal_degree_piece(filt, 1).dim == 0
    assert max_multiplicity_at(filt, 1, (0, 1)) is None


def _span_of_shifts(gens, k):
    """The degree-k piece as a scalar span: every generator of degree <= k
    times every monomial of the degree gap."""
    field, zero = gens.field, gens.field.zero()
    vecs = [(zero,) * b + tuple(p.coeffs) + (zero,) * (k - p.degree - b)
            for p in gens.forms() if p.degree <= k
            for b in range(k - p.degree + 1)]
    return Subspace.from_vectors(vecs, field, k + 1)


def _shape(filt):
    return filt.deltas, filt.counts, filt.hatM, filt.quotient_dims


def test_filtration_in_any_block_order():
    """F_7 generators s + 2t (block size 2) and s^2 (block size 1) of a
    cubic's line, in either order: levels in degrees 1 and 2 of dims 1 and
    3, and pieces 0..4 of dims 0, 1, 3, 4, 5."""
    F7 = parse_field("Fp:7")
    lin = BlockGenerator(p=BinaryForm(F7, (F7.scalar(1), F7.scalar(2))),
                         size=2, chain=())
    sq = BlockGenerator(p=BinaryForm(F7, tuple(map(F7.scalar, (1, 0, 0)))),
                        size=1, chain=())
    for blocks in ((lin, sq), (sq, lin)):
        filt = build_filtration(GeneratorSet(field=F7, blocks=blocks))
        assert filt.deltas == (1, 2) and filt.counts == (1, 1)
        assert [sp.dim for sp in filt.hatM] == [1, 3]
        assert filt.quotient_dims == (1, 0)
        assert [ideal_degree_piece(filt, k).dim for k in range(5)] == [
            0, 1, 3, 4, 5]


@pytest.mark.parametrize("field", [QQ, F11, parse_field("Fp:13")],
                         ids=["Q", "F11", "F13"])
def test_pieces_are_spans_of_shifted_generators(field):
    """On planted lines, half of them moved, with the generator blocks
    shuffled: the filtration does not depend on block order, each level is
    the piece at its degree, and every piece up to degree d + 2 is the span
    of the shifts of the generators of degree <= k."""
    rng = random.Random(33)

    def q():
        if field.p:
            return field.scalar(rng.randrange(field.p))
        return Fr(rng.randint(-9, 9), rng.choice((1, 2, 3, 5)))

    def nz():
        return next(x for x in iter(q, None) if x)

    lines = mixed = 0
    for _ in range(300):
        if lines >= 40 and mixed >= 4:
            break
        n, d = rng.randint(3, 6), rng.randint(2, 5)
        P = planted(field, n, d, rng, q, nz, double=False)
        if P.is_zero():
            continue
        X, fr = moved(P, rng, q) if rng.random() < 0.5 else (
            Hypersurface(P), LineFrame(field, *[[int(i == j)
                                                 for i in range(n + 1)]
                                                for j in (0, 1)]))
        la = analyze_line(X, fr)
        if la.gens is None:
            continue
        lines += 1
        mixed += len(la.filt.deltas) > 1
        blocks = list(la.gens.blocks)
        rng.shuffle(blocks)
        shuffled = GeneratorSet(field=field, blocks=tuple(blocks))
        filt = build_filtration(shuffled)
        assert _shape(filt) == _shape(la.filt)
        assert sum(filt.counts) == la.gens.r
        for delta, space in zip(filt.deltas, filt.hatM):
            assert space == _span_of_shifts(shuffled, delta)
        for k in range(d + 3):
            assert ideal_degree_piece(filt, k) == _span_of_shifts(
                shuffled, k) == ideal_degree_piece(la.filt, k), (X.P, fr, k)
    assert lines >= 40 and mixed >= 4


def _primitive_mod(coeffs, F):
    """Rational coefficients scaled to a primitive int vector, then reduced
    into F: a monic Q generator can have a denominator divisible by p."""
    den = lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    g = gcd(*ints)
    return [F.scalar(i // g) for i in ints]


def test_q_generators_reduce_to_fp_generators():
    """Over a good prime p, the Q generators of each degree delta, reduced
    mod p, span the F_p generators of degree delta.  Generators are
    canonical only as a span per degree: blocks of one size can mix.  Lines:
    planted forms over Q, half of them moved; a prime is skipped when it
    divides a denominator of the form or the frame, moves the frame's pivot
    columns, or changes the block sizes.  The filtration levels hatM are not
    compared: a reduced Q level can be larger than the F_p level (it is the
    saturation), which is bad reduction."""
    rng = random.Random(29)

    def q():
        return Fr(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 7)))

    def nz():
        return next(x for x in iter(q, None) if x)

    lines = compared = 0
    while lines < 150:
        n, d = rng.randint(2, 5), rng.randint(2, 4)
        P = planted(QQ, n, d, rng, q, nz, double=False)
        if P.is_zero():
            continue
        X, fr = moved(P, rng, q) if rng.random() < 0.5 else (
            Hypersurface(P), LineFrame(QQ, *[[int(i == j) for i in range(n + 1)]
                                             for j in (0, 1)]))
        gens = analyze_line(X, fr).gens
        if gens is None:
            continue
        lines += 1
        sizes = [b.size for b in gens.blocks]
        dens = [c.denominator for c in (*X.P.terms.values(), *fr.e1, *fr.e2)]
        for p in (11, 13, 101):
            F = parse_field("Fp:%d" % p)
            if any(den % p == 0 for den in dens):
                continue
            e1, e2 = (tuple(map(F.scalar, e)) for e in (fr.e1, fr.e2))
            if rank([e1, e2], F) < 2 or LineFrame(F, e1, e2).cols != fr.cols:
                continue
            fp = analyze_line(Hypersurface(X.P.reduce_mod(p)),
                              LineFrame(F, e1, e2)).gens
            if fp is None or [b.size for b in fp.blocks] != sizes:
                continue
            for delta in set(gens.deltas()):
                want = [_primitive_mod(b.p.coeffs, F) for b in gens.blocks
                        if b.delta == delta]
                got = [b.p.coeffs for b in fp.blocks if b.delta == delta]
                assert (Subspace.from_vectors(want, F, delta + 1)
                        == Subspace.from_vectors(got, F, delta + 1)), \
                    (X.P, fr, p, delta)
                compared += 1
    assert compared >= 200
