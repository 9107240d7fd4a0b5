"""Certified points, block generators, the ideal's degree pieces and the
image check on int rows agree with the scalar code they replaced, kept here
as the reference: the same certificates, generator sets (chains included),
pieces and image verdicts, or the same exception with the same message."""

import random
from fractions import Fraction

from fanosing.corpus import cone, fermat
from fanosing.forms import (BinaryForm, MultiForm, binary_gcd, binary_roots,
                            projective_normalize)
from fanosing.ideal import (BlockGenerator, ChainIdentityViolated,
                            DegreeTooSmall, GeneratorSet, build_filtration,
                            contains_image_sigma, extract_generators,
                            ideal_degree_piece)
from fanosing.linalg import QQ, Subspace, _ints, parse_field
from fanosing.pencil import NormalForm, normal_form
from fanosing.singular import (SingularCertificate, SingularPoint,
                               _certificate, analyze_line, is_singular_at,
                               singular_on_line)
from fanosing.tangent import (Hypersurface, LineFrame, _free_columns,
                              analyze_tangent)
from helpers import combine, moved, planted

FIELDS = tuple(parse_field("Fp:%d" % p) for p in (2, 3, 13, 10007)) + (QQ,)
BIG = (1, 2, 1000003, 1000033)      # denominators over Q


# ---------------------------------------------------------------------------
# the scalar reference: the functions as they were before ints


def ref_extract_generators(X, nf, tangent):
    field = X.field
    pi = tangent.pi
    if nf.field != field or pi.field != field:
        raise ValueError("field mismatch")
    if nf.m != (X.n - 1) - pi.dim:
        raise ValueError("normal form does not match the quotient dimension")
    d = X.d
    rows = [tangent.sigma_matrix[c] for c in _free_columns(pi)]
    zero = field.zero()
    blocks = []
    for j in range(nf.r):
        s = nf.s[j]
        if d < s:
            raise DegreeTooSmall(
                "degree %d is too small for a block of size %d" % (d, s))
        chain = nf.block(j)
        fs = [combine(field, d, w, rows) for w in chain]
        if any(fs[0][:s - 1]):
            raise ChainIdentityViolated(
                "head contraction is not divisible by the chain power")
        p_raw = BinaryForm(field, fs[0][s - 1:])
        if p_raw.is_zero():
            raise ChainIdentityViolated("block generator vanishes")
        lam = next(c for c in p_raw.coeffs if c)
        p = p_raw.monic()
        inv = field.one() / lam
        chain = tuple(tuple(inv * c for c in w) for w in chain)
        for i in range(s):
            want = (zero,) * (s - 1 - i) + p.coeffs + (zero,) * i
            if tuple(inv * c for c in fs[i]) != want:
                raise ChainIdentityViolated(
                    "contraction of chain slot %d is off" % (i + 1))
        blocks.append(BlockGenerator(p=p, size=s, chain=chain))
    return GeneratorSet(field=field, blocks=tuple(blocks))


def ref_ideal_degree_piece(filt, k):
    field = filt.gens.field
    if k < 0:
        raise ValueError("negative degree")
    if k < filt.deltas[0]:
        return Subspace.zero(field, k + 1)
    j = max(i for i, delta in enumerate(filt.deltas) if delta <= k)
    gap = k - filt.deltas[j]
    vecs = []
    zero = field.zero()
    for row in filt.hatM[j].basis:
        vecs.extend((zero,) * b + tuple(row) + (zero,) * (gap - b)
                    for b in range(gap + 1))
    return Subspace.from_vectors(vecs, field, k + 1)


def ref_contains_image_sigma(filt, tangent):
    sigma_matrix = tangent.sigma_matrix
    if not sigma_matrix:
        return True
    k = len(sigma_matrix[0]) - 1
    piece = ref_ideal_degree_piece(filt, k)
    return piece.contains_vectors(sigma_matrix)


def ref_singular_on_line(X, frame, filt):
    gcd = binary_gcd(filt.gens.forms())
    if gcd.degree == 0:
        return SingularCertificate(points=(), whole_line=False, gcd_form=gcd,
                                   unsolved=(),
                                   note="generators share no zero on the line")
    report = binary_roots(gcd)
    points = []
    for (a, b), mult in report.roots:
        amb = projective_normalize(frame.point(a, b), X.field)
        if not is_singular_at(X, amb):
            raise ArithmeticError(
                "certified point fails the gradient re-check")
        points.append(SingularPoint(ambient=amb, line_point=(a, b),
                                    multiplicity=mult))
    note = "every gcd zero is a singular point of the hypersurface"
    if report.unsolved:
        note += "; further zeros live in an extension field"
    return SingularCertificate(points=tuple(points), whole_line=False,
                               gcd_form=gcd, unsolved=report.unsolved,
                               note=note)


def ref_certify_entire_line(X, frame, tangent):
    if any(any(row) for row in tangent.sigma_matrix):
        raise ValueError("line is not entirely singular")
    for sample in ((X.field.one(), X.field.zero()),
                   (X.field.zero(), X.field.one()),
                   (X.field.one(), X.field.one())):
        amb = projective_normalize(frame.point(*sample), X.field)
        if not is_singular_at(X, amb):
            raise ArithmeticError("sample point fails the gradient re-check")
    return SingularCertificate(points=(), whole_line=True, gcd_form=None,
                               unsolved=(),
                               note="gradient vanishes identically on the line")


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as e:              # compared by type and message
        return "raised", type(e), str(e)


def _whole_line_certificate(X, frame, rep):
    return analyze_line(X, frame).certificate


def _sample_certificate(X, frame, rep):
    return _certificate(X, frame.ints[0], None, None)


def _same(new, ref, *args):
    got, want = _outcome(new, *args), _outcome(ref, *args)
    assert got == want, (new.__name__, args)
    return got


# ---------------------------------------------------------------------------
# the corpus


def _cases():
    """Lines over F_2, F_3, F_13, F_10007 and Q (denominators above 10^6),
    most on moved forms with non-echelon frames, a quarter on singular
    lines (m = 0), and the README cone frame e1 = M u + v, e2 = N u + 2v
    with M, N up to 10^12."""
    rng = random.Random(41)
    out = []
    for field in FIELDS:
        def q():
            if field.p:
                return field.scalar(rng.randrange(field.p))
            return Fraction(rng.randint(-9, 9), rng.choice(BIG))

        def nz():
            return next(x for x in iter(q, None) if x)

        for k in range(24):
            n, d = 2 + k % 4, 2 + (k // 4) % 4
            P = planted(field, n, d, rng, q, nz, double=k % 4 == 0)
            if P.is_zero():
                continue
            if k % 3:
                X, fr = moved(P, rng, q)
            else:
                X = Hypersurface(P)
                fr = LineFrame(field, *[[int(i == j) for i in range(n + 1)]
                                        for j in (0, 1)])
            if not X.P.is_zero():
                out.append((X, fr))
    u, v = (1, -1, 0, 0), (0, 0, 0, 1)
    for field in (QQ, parse_field("Fp:13"), parse_field("Fp:10007")):
        X = cone(fermat(2, 3, field))
        for M, N in ((10 ** 12, 10 ** 12 - 1), (rng.randint(1, 10 ** 12),
                                                rng.randint(1, 10 ** 12)),
                     (Fraction(1, 10 ** 12), 7)):
            fs = [field.scalar(M), field.scalar(N)]
            if not 2 * fs[0] - fs[1]:
                continue            # e1 and e2 dependent
            out.append((X, LineFrame(field, [fs[0] * a + b for a, b in zip(u, v)],
                                     [fs[1] * a + 2 * b for a, b in zip(u, v)])))
    return out


def _rescaled(nf, rng, field, common):
    """nf with each block times one random unit (common) or each vector
    times its own: the identities hold for the first, fail for the second."""
    basis = list(nf.adapted_basis)
    for j in range(nf.r):
        c = None
        for i in range(nf.chain_offsets[j], nf.chain_offsets[j] + nf.s[j]):
            if c is None or not common:
                c = field.scalar(rng.randrange(1, field.p) if field.p
                                 else Fraction(rng.randint(1, 9),
                                               rng.choice(BIG)))
            basis[i] = tuple(c * x for x in basis[i])
    return NormalForm(field, nf.m, nf.r, nf.s, tuple(basis))


def test_int_pipeline_matches_scalar_reference():
    """extract_generators, ideal_degree_piece, contains_image_sigma,
    analyze_line's image check and certificate, and singular_on_line agree
    with the scalar code on the corpus, on normal forms rescaled per block
    and per vector, and on filtrations and normal forms borrowed from other
    lines."""
    rng = random.Random(43)
    seen = dict.fromkeys(("points", "whole", "gens", "chain off", "head",
                          "small", "point off", "image no"), 0)
    qscales = 0
    pool = {}                       # (field, m) -> (nf, filt) of earlier lines
    for X, fr in _cases():
        field = X.field
        rep = analyze_tangent(X, fr)
        if rep.m == 0:
            cert = _same(_whole_line_certificate, ref_certify_entire_line,
                         X, fr, rep)
            assert cert[1].whole_line
            seen["whole"] += 1
            continue
        nf = normal_form(rep.pencil)
        _, gens = _same(extract_generators, ref_extract_generators, X, nf, rep)
        seen["gens"] += 1
        if not field.p:
            qscales += any(len(set(_ints(nf.block(j), QQ)[1])) > 1
                           for j in range(nf.r))
        filt = build_filtration(gens)
        _, cert = _same(singular_on_line, ref_singular_on_line, X, fr, filt)
        seen["points"] += bool(cert.points)
        for k in range(-1, X.d + 2):
            _same(ideal_degree_piece, ref_ideal_degree_piece, filt, k)
        la = analyze_line(X, fr)
        assert la.gens == gens and la.certificate == cert
        assert la.image_contained == ref_contains_image_sigma(
            filt, rep) == contains_image_sigma(filt, rep)
        for common in (True, False):
            got = _same(extract_generators, ref_extract_generators, X,
                        _rescaled(nf, rng, field, common), rep)
            seen["chain off"] += "slot" in str(got[-1])
        # the whole adapted basis read as one chain, and a chain longer than d
        for size in (nf.m, X.d + 1):
            one = NormalForm(field, nf.m, 1, (size,), nf.adapted_basis)
            got = _same(extract_generators, ref_extract_generators, X, one, rep)
            seen["small"] += got[1] is DegreeTooSmall
            seen["head"] += "head" in str(got[-1])
        for nf2, filt2 in pool.get((field, rep.m), ()):
            got = _same(extract_generators, ref_extract_generators,
                        X, nf2, rep)
            seen["head"] += "head" in str(got[-1])
            got = _same(singular_on_line, ref_singular_on_line, X, fr, filt2)
            seen["point off"] += got[0] == "raised"
            got = _same(contains_image_sigma, ref_contains_image_sigma,
                        filt2, rep)
            seen["image no"] += got == ("ok", False)
        pool.setdefault((field, rep.m), []).append((nf, filt))
        del pool[(field, rep.m)][:-3]
    assert min(seen.values()) >= 3 and seen["gens"] >= 60, seen
    assert qscales >= 5


def test_whole_line_samples_match_scalar_reference():
    """A zero sigma with a frame whose e1, e2 or e1 + e2 is not singular on
    X = Z(x0 x1 x2): the whole-line case of _certificate and the scalar
    code refuse at the same sample."""
    for field in FIELDS:
        s = field.scalar
        X = Hypersurface(MultiForm(field, 3, 3, {(1, 1, 1): s(1)}))
        double = Hypersurface(MultiForm(field, 3, 3, {(1, 0, 2): s(1)}))
        rep = analyze_tangent(double, LineFrame(field, (1, 0, 0), (0, 1, 0)))
        assert rep.m == 0
        for e1, e2 in (((1, 0, 0), (0, 1, 0)), ((1, 1, 0), (0, -1, 0)),
                       ((1, 0, 0), (-1, 1, 0))):
            fr = LineFrame(field, [s(x) for x in e1], [s(x) for x in e2])
            got = _same(_sample_certificate, ref_certify_entire_line,
                        X, fr, rep)
            assert got[1] is ArithmeticError
