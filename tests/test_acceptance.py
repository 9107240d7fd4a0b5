"""Acceptance gate: one test per exit criterion, exact arithmetic throughout.

Each test prints one "ACCEPTANCE NN PASS/FAIL" line; pytest -v shows one
verdict line per criterion as well.  Shared corpora are module-scoped so the
random instances are generated once and cross-checked by several criteria.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction as Fr

import pytest

from fanosing.corpus import cone, fermat, random_with_line
from fanosing.forms import BinaryForm, MultiForm, contract
from fanosing.ideal import (build_filtration, contains_image_sigma,
                            extract_generators, ideal_degree_piece,
                            max_multiplicity_at, pure_power_locus)
from fanosing.linalg import QQ, Subspace, parse_field
from fanosing.pencil import normal_form, verify_normal_form
from fanosing.ruled import DivisorClass, FIBER, RuledSurface, intersect, itcone_check
from fanosing.singular import (all_lines, analyze_line, conjecture_check,
                               is_singular_at, lines_through,
                               projective_points, singular_points)
from fanosing.tangent import (Hypersurface, LineFrame, analyze_tangent,
                              quotient_section)
from helpers import combine
from reference import restrict

F5 = parse_field("Fp:5")
F7 = parse_field("Fp:7")


def mono(field, nvars, exps, c=1):
    return MultiForm.monomial(field, nvars, exps, field.scalar(c))


@contextmanager
def criterion(num, desc, limit=None, extra=0.0):
    """extra: seconds spent building shared fixtures, counted into the limit."""
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print("ACCEPTANCE %02d FAIL: %s" % (num, desc))
        raise
    dt = time.monotonic() - t0 + extra
    if limit is not None:
        assert dt < limit, "criterion %d exceeded %gs (%.2fs)" % (num, limit, dt)
    print("ACCEPTANCE %02d PASS: %s (%.2fs)" % (num, desc, dt))


# ---------------------------------------------------------------------------
# shared corpora


@pytest.fixture(scope="module")
def random_corpus():
    """200 deterministic instances with a planted line: n <= 5, d <= 5,
    p in {11, 13}; each fully analyzed once.  Returns (instances, seconds)."""
    t0 = time.monotonic()
    out = []
    for seed in range(200):
        n = 2 + seed % 4
        d = 2 + (seed * 7) % 4
        p = 11 if seed % 2 else 13
        X, fr = random_with_line(n, d, p, seed=seed)
        la = analyze_line(X, fr)
        out.append((X, fr, la))
    return out, time.monotonic() - t0


@pytest.fixture(scope="module")
def named_pipelines():
    quadric = Hypersurface(mono(QQ, 4, (1, 0, 0, 1)) - mono(QQ, 4, (0, 1, 1, 0)))
    conic = cone(fermat(2, 3, QQ))
    ferm = fermat(3, 3, QQ)
    f11 = parse_field("Fp:11")
    blocky = Hypersurface(mono(f11, 5, (2, 0, 1, 0, 0))
                          + mono(f11, 5, (1, 1, 0, 1, 0))
                          + mono(f11, 5, (0, 2, 0, 0, 1)))
    pairs = [
        (quadric, LineFrame(QQ, (1, 0, 0, 0), (0, 1, 0, 0))),
        (conic, LineFrame(QQ, (1, -1, 0, 0), (0, 0, 0, 1))),
        (ferm, LineFrame(QQ, (1, -1, 0, 0), (0, 0, 1, -1))),
        (blocky, LineFrame(f11, (1, 0, 0, 0, 0), (0, 1, 0, 0, 0))),
    ]
    return [(X, fr, analyze_line(X, fr)) for X, fr in pairs]


@pytest.fixture(scope="module")
def fermat7_lines():
    t0 = time.monotonic()
    X = fermat(3, 3, F7)
    analyzed = [(fr, analyze_line(X, fr)) for fr in all_lines(X)]
    return X, analyzed, time.monotonic() - t0


# ---------------------------------------------------------------------------
# criteria


def test_acceptance_01_quadric_pipeline():
    with criterion(1, "quadric pipeline: smooth line, constant generator",
                   limit=1.0):
        X = Hypersurface(mono(QQ, 4, (1, 0, 0, 1)) - mono(QQ, 4, (0, 1, 1, 0)))
        fr = LineFrame(QQ, (1, 0, 0, 0), (0, 1, 0, 0))
        la = analyze_line(X, fr)
        assert la.tangent.tangent_dim == 1 == 2 * X.n - X.d - 3
        assert la.tangent.pi.dim == 0
        assert la.tangent.m == 2
        assert la.nf.s == (2,)
        p1 = la.gens.blocks[0].p
        assert p1.degree == 0 and not p1.is_zero()
        assert la.certificate.points == () and not la.certificate.whole_line
        assert la.everyp1.applies is False          # d = 2 < s1 + 1 = 3
        assert la.image_contained


def test_acceptance_02_cone_pipeline():
    with criterion(2, "cone pipeline: vertex certified at multiplicity 2",
                   limit=1.0):
        X = cone(fermat(2, 3, QQ))
        fr = LineFrame(QQ, (1, -1, 0, 0), (0, 0, 0, 1))
        la = analyze_line(X, fr)
        assert la.tangent.tangent_dim == 2
        assert la.tangent.pi.dim == 1
        assert la.tangent.m == 1
        assert la.nf.s == (1,)
        # the generator is the square of the first dual form, up to scalar:
        # monic normalization makes it exactly s^2
        assert la.gens.blocks[0].p == BinaryForm(QQ, (Fr(1), Fr(0), Fr(0)))
        assert len(la.certificate.points) == 1
        sp = la.certificate.points[0]
        assert sp.ambient == (Fr(0), Fr(0), Fr(0), Fr(1))
        assert sp.multiplicity == 2
        assert is_singular_at(X, sp.ambient)        # independent oracle
        assert la.everyp1.applies is True


def test_acceptance_03_fermat_f7_all_lines(fermat7_lines):
    X, analyzed, build = fermat7_lines
    with criterion(3, "Fermat cubic over F7: 27 rigid lines, clean "
                      "certificates", limit=30.0, extra=build):
        assert len(analyzed) == 27
        for fr, la in analyzed:
            assert la.tangent.tangent_dim == 0
            assert la.tangent.pi.dim == 0
            assert la.image_contained
            assert la.certificate.points == ()
            assert not la.certificate.whole_line


def test_acceptance_04_quadric_f5_line_counts():
    with criterion(4, "quadric over F5: 12 lines, 2 through each sampled "
                      "point", limit=10.0):
        X = Hypersurface(mono(F5, 4, (1, 0, 0, 1)) - mono(F5, 4, (0, 1, 1, 0)))
        lines = all_lines(X)
        assert len(lines) == 12
        for fr in lines:
            assert analyze_tangent(X, fr).tangent_dim == 1
        on_x = [pt for pt in projective_points(F5, 4)
                if X.P.evaluate(pt) == F5.zero()]
        sampled = on_x[:10] + on_x[-4:]
        assert len(sampled) >= 10
        for pt in sampled:
            assert len(lines_through(X, pt)) == 2
            assert sum(1 for fr in lines
                       if fr.line_coords(pt) is not None) == 2


def test_acceptance_05_kernel_bound_and_pi(random_corpus):
    corpus, build = random_corpus
    with criterion(5, "200 random planted lines: kernel bound, dual-times-Pi "
                      "inside the kernel, a verified normal form or m = 0",
                   limit=120.0, extra=build):
        verified = 0
        for X, fr, la in corpus:
            n, d = X.n, X.d
            rep = la.tangent
            assert rep.kernel.dim >= 2 * (n - 1) - (d + 1), (n, d, rep.kernel.dim)
            zero = (X.field.zero(),) * (n - 1)
            for pvec in rep.pi.basis:
                lifted = quotient_section(pvec, rep.pi) \
                    if len(pvec) != n - 1 else pvec
                assert rep.kernel.contains_vectors([tuple(lifted) + zero])
                assert rep.kernel.contains_vectors([zero + tuple(lifted)])
            if rep.m == 0:
                assert la.nf is None
            else:
                assert verify_normal_form(rep.pencil, la.nf)
                verified += 1
        assert len(corpus) == 200
        print("  kernel-bound corpus: %d verified normal forms, %d with m = 0"
              % (verified, len(corpus) - verified))


def _random_invertible(field, m, rng):
    from fanosing.linalg import rank
    while True:
        rows = [[field.scalar(rng.randint(-4, 4)) for _ in range(m)]
                for _ in range(m)]
        if rank(rows, field) == m:
            return [tuple(r) for r in rows]


def test_acceptance_06_normal_form_round_trips():
    with criterion(6, "500 normal-form round trips (m <= 8) recover the "
                      "partition", limit=60.0):
        rng = random.Random(2)
        fields = [QQ, F7, parse_field("Fp:101")]
        done = 0
        while done < 500:
            field = fields[done % 3]
            m = rng.randint(1, 8)
            basis = _random_invertible(field, m, rng)
            sizes = []
            left = m
            while left:
                k = rng.randint(1, left)
                sizes.append(k)
                left -= k
            sizes.sort(reverse=True)
            vecs = []
            idx = 0
            for k in sizes:
                blk = basis[idx:idx + k]
                idx += k
                for u, v in zip(blk, blk[1:]):
                    vecs.append(tuple(u) + tuple(-y for y in v))
            L = Subspace.from_vectors(vecs, field, 2 * m) if vecs \
                else Subspace.zero(field, 2 * m)
            Q = _random_invertible(field, m, rng)
            cols = [[Q[i][j] for i in range(m)] for j in range(m)]

            def act(vec):
                return tuple(sum((cols[i][k] * vec[k] for k in range(m)),
                                 field.zero()) for i in range(m))

            LQ = Subspace.from_vectors(
                [act(w[:m]) + act(w[m:]) for w in L.basis], field, 2 * m) \
                if L.dim else Subspace.zero(field, 2 * m)
            nf = normal_form(LQ)
            assert nf.s == tuple(sizes), (done, nf.s, sizes)
            assert verify_normal_form(LQ, nf)
            done += 1


def _recheck_block_identities(X, fr, la):
    """Exact re-verification of the factorization identities from public data."""
    beta1 = BinaryForm.linear(X.field, 1, 0)
    beta2 = BinaryForm.linear(X.field, 0, 1)
    for blk in la.gens.blocks:
        s = blk.size
        for i, w in enumerate(blk.chain):
            lift = combine(fr.field, fr.ambient_dim,
                           quotient_section(w, la.tangent.pi), fr.complement)
            f = restrict(contract(lift, X.P), [fr.e1, fr.e2])[0]
            assert f == (beta1 ** i) * (beta2 ** (s - 1 - i)) * blk.p


def test_acceptance_07_image_identity(random_corpus, named_pipelines,
                                      fermat7_lines):
    with criterion(7, "image of the deformation map equals the generated "
                      "degree-d piece; chain identities exact"):
        X7, analyzed7, _ = fermat7_lines
        instances = list(named_pipelines) + list(random_corpus[0]) \
            + [(X7, fr, la) for fr, la in analyzed7]
        checked = spare_degree = 0
        for X, fr, la in instances:
            if la.gens is None:
                continue
            rows = Subspace.from_vectors(la.tangent.sigma_matrix, X.field,
                                         X.d + 1)
            piece = ideal_degree_piece(la.filt, X.d)
            assert piece == rows, (X.n, X.d, piece.basis, rows.basis)
            assert contains_image_sigma(la.filt, la.tangent)
            _recheck_block_identities(X, fr, la)
            checked += 1
            if X.d >= la.nf.s[0] + 1:
                spare_degree += 1
        assert checked >= 100
        print("  image identity on %d extractions (%d with spare degree)"
              % (checked, spare_degree))


def test_acceptance_08_certified_points_are_singular(random_corpus,
                                                     named_pipelines):
    with criterion(8, "every certified point passes the gradient oracle and "
                      "lies in the exhaustive singular locus"):
        emitted = contained = 0
        for X, fr, la in list(named_pipelines) + list(random_corpus[0]):
            cert = la.certificate
            if cert is None:
                continue
            pts = [sp.ambient for sp in cert.points]
            if cert.whole_line:
                pts += [fr.point(1, j) for j in range(3)] + [fr.point(0, 1)]
            for pt in pts:
                assert is_singular_at(X, pt), (X.P, pt)
                emitted += 1
            if X.field.p and (X.field.p ** (X.n + 1) - 1) // (X.field.p - 1) <= 2500:
                sing = set(singular_points(X))
                from fanosing.forms import projective_normalize
                for pt in pts:
                    assert projective_normalize(pt, X.field) in sing
                    contained += 1
        print("  %d certified points oracle-checked, %d against exhaustive "
              "enumeration" % (emitted, contained))


def test_acceptance_09_ruled_surface_lattice():
    with criterion(9, "divisor lattice on ruled surfaces and the cone bound",
                   limit=1.0):
        for k in range(1, 6):
            S = RuledSurface(k)
            o1 = DivisorClass(1, 0)
            assert intersect(S, o1, o1) == -k
            assert intersect(S, o1, FIBER) == 1
            assert intersect(S, FIBER, FIBER) == 0
        rng = random.Random(41)
        for _ in range(1000):
            k = rng.randint(1, 6)
            a1, a2 = rng.randint(1, 7), rng.randint(1, 7)
            b1 = a1 * k + rng.randint(0, 11)
            b2 = a2 * k + rng.randint(0, 11)
            rep = itcone_check(RuledSurface(k), DivisorClass(a1, b1),
                               DivisorClass(a2, b2))
            assert rep.hypotheses_ok
            assert rep.value >= a1 * a2 * k >= 1


def _sample_line_points(field):
    if field.p:
        return [(field.scalar(1), field.scalar(j)) for j in range(field.p)] \
            + [(field.scalar(0), field.scalar(1))]
    return [(Fr(1), Fr(j)) for j in range(-3, 4)] + [(Fr(0), Fr(1))]


def test_acceptance_10_multiplicity_bound_outside_locus(random_corpus,
                                                        named_pipelines):
    with criterion(10, "graded pieces vanish to order <= k-1 away from the "
                       "listed exceptional points"):
        report = []
        instances = 0
        for X, fr, la in list(named_pipelines) + list(random_corpus[0]):
            if la.filt is None:
                continue
            filt = la.filt
            counted = False
            for k in sorted({filt.deltas[0], filt.deltas[0] + 1, X.d}):
                if ideal_degree_piece(filt, k).dim == 0:
                    continue
                loc = pure_power_locus(filt, k)
                listed = set() if loc.whole_line \
                    else {pt for pt, _ in loc.report.roots}
                for x in _sample_line_points(X.field):
                    mult = max_multiplicity_at(filt, k, x)
                    if loc.whole_line:
                        assert mult == k
                    elif x in listed:
                        assert mult == k
                    else:
                        assert mult <= k - 1, (X.P, k, x, mult)
                report.append("n=%d d=%d k=%d exceptional=%s" % (
                    X.n, X.d, k,
                    "whole line" if loc.whole_line else sorted(
                        (str(a), str(b)) for a, b in listed)))
                counted = True
            if counted:
                instances += 1
        assert instances >= 50, instances
        assert len(report) >= 50
        print("  multiplicity report: %d instances, %d (line, degree) entries"
              % (instances, len(report)))


def test_acceptance_11_conjecture_harness_cone_sweep():
    with criterion(11, "survey of the F7 cone completes with zero exceptions",
                   limit=120.0):
        X = cone(fermat(2, 3, F7))
        rep = conjecture_check(X, budget=10 ** 7)
        assert rep.exceptions == ()
        assert rep.trigger
        assert rep.num_lines == 9
        for e in rep.exceptions:
            assert e.kind == "no-rational-point"
            assert "counterexample" not in e.detail.lower()
        assert "counterexample" not in rep.note.lower()
        s = F7.scalar
        assert (s(0), s(0), s(0), s(1)) in rep.certified
