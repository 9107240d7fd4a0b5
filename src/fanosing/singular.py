"""Forced singular points on lines, and exhaustive checks over finite fields.

A common zero of all block generators of a line E on X = Z(P) is a singular
point of X: every directional derivative of P is a combination of shifted
generators on E, so the whole gradient vanishes there.  This module turns
that into certificates (each claimed point is re-checked against the
gradient), enumerates lines over small finite fields by echelon position,
and packages a replay-friendly survey of a whole hypersurface.  Candidate
lines start at a point of X and run over the kernel of its first polar.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import mul

from .forms import (BinaryForm, binary_gcd, binary_roots, projective_normalize,
                    restrict_partials, restrict_to_plane)
from .ideal import (GeneratorSet, IdealFiltration, build_filtration,
                    contains_image_sigma, extract_generators)
from .linalg import Field, combine, plain, rref, unit_vectors
from .pencil import NormalForm, NotConstantRankTwo, normal_form
from .tangent import (Hypersurface, LineFrame, PlaneNotContained, TangentReport,
                      analyze_tangent)


class BudgetExceeded(RuntimeError):
    """Enumeration would overrun the budget; .estimate carries the count."""

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


class CharacteristicRefused(ValueError):
    """Survey refused: characteristic at most the degree (override with force)."""


@dataclass(frozen=True)
class SingularPoint:
    """A certified singular point on the line, with its vanishing order."""

    ambient: tuple         # normalized projective coordinates in P^n
    line_point: tuple      # normalized (a, b) with the point = a e1 + b e2
    multiplicity: int      # order of the common-zero gcd at the point


@dataclass(frozen=True)
class SingularCertificate:
    """Singular points forced on a line by its generator ideal.

    whole_line means the gradient vanishes identically on the line; then
    points stays empty and every point of the line is singular.  unsolved
    lists gcd factors with no rational root: their zeros are singular points
    over an extension field.
    """

    points: tuple
    whole_line: bool
    gcd_form: BinaryForm | None
    unsolved: tuple
    note: str


def is_singular_at(X: Hypersurface, point) -> bool:
    """Gradient test: P and all its partials vanish at the point."""
    point = X.field.vector(point)
    if not any(point):
        raise ValueError("zero vector does not define a projective point")
    if X.P.evaluate(point):
        return False
    return not any(X.P.partial(i).evaluate(point) for i in range(X.n + 1))


def singular_on_line(X: Hypersurface, frame: LineFrame,
                     filt: IdealFiltration) -> SingularCertificate:
    """Certified singular points at the common zeros of the generators."""
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


def certify_entire_line(X: Hypersurface, frame: LineFrame) -> SingularCertificate:
    """Certificate that the gradient vanishes identically on the line.

    Exact: one substitution restricts all n+1 partial derivatives of P to the
    line symbolically.  Raises if the line is not entirely singular.
    """
    _, *grad = restrict_partials(X.P, [frame.e1, frame.e2], range(X.n + 1))
    if any(not f.is_zero() for f in grad):
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


@dataclass(frozen=True)
class EveryP1Report:
    """Whether a single full-length chain forces a singular point on the line.

    applies when the pencil is one chain of length m = dim (W/E)/Pi and the
    degree exceeds it: the lone generator then has positive degree, so it
    has a zero (over the closure) and the line carries a singular point.
    """

    applies: bool
    s1: int
    dim_cx_tangent: int
    points: tuple
    note: str


def check_everyp1(X: Hypersurface, report: TangentReport, nf: NormalForm | None,
                  certificate: SingularCertificate) -> EveryP1Report:
    """Apply the single-chain criterion to a line's computed pipeline stages.

    nf is None exactly when the pencil is trivial (report.m == 0).
    """
    if report.m == 0:
        return EveryP1Report(applies=False, s1=0,
                             dim_cx_tangent=report.pi.dim,
                             points=certificate.points,
                             note="pencil is trivial; the whole line is singular")
    s1 = nf.s[0]
    applies = (s1 == report.m) and (X.d >= s1 + 1)
    if applies:
        if certificate.points:
            note = "single full chain and spare degree force the listed points"
        else:
            note = ("single full chain forces a singular point over the "
                    "closure; none is rational")
    elif s1 != report.m:
        note = "pencil splits into %d blocks" % nf.r
    else:
        note = "degree %d leaves the lone generator constant" % X.d
    return EveryP1Report(applies=applies, s1=s1,
                         dim_cx_tangent=report.pi.dim,
                         points=certificate.points, note=note)


@dataclass(frozen=True)
class LineAnalysis:
    """Full pipeline record for one line on a hypersurface."""

    frame: LineFrame
    tangent: TangentReport
    nf: NormalForm | None
    degenerate: str | None          # diagnostic when the pencil has rank-one
    gens: GeneratorSet | None
    filt: IdealFiltration | None
    certificate: SingularCertificate | None
    everyp1: EveryP1Report | None
    image_contained: bool | None


def analyze_line(X: Hypersurface, frame: LineFrame) -> LineAnalysis:
    """Run the whole pipeline on one line, recording each stage."""
    rep = analyze_tangent(X, frame)
    if rep.m == 0:
        cert = certify_entire_line(X, frame)
        ep1 = check_everyp1(X, rep, None, cert)
        return LineAnalysis(frame=frame, tangent=rep, nf=None, degenerate=None,
                            gens=None, filt=None, certificate=cert,
                            everyp1=ep1, image_contained=None)
    try:
        nf = normal_form(rep.pencil)
    except NotConstantRankTwo as e:
        return LineAnalysis(frame=frame, tangent=rep, nf=None,
                            degenerate=str(e), gens=None, filt=None,
                            certificate=None, everyp1=None,
                            image_contained=None)
    gens = extract_generators(X, nf, rep)
    filt = build_filtration(gens)
    cert = singular_on_line(X, frame, filt)
    ep1 = check_everyp1(X, rep, nf, cert)
    image_ok = contains_image_sigma(filt, rep.sigma_matrix)
    return LineAnalysis(frame=frame, tangent=rep, nf=nf, degenerate=None,
                        gens=gens, filt=filt, certificate=cert, everyp1=ep1,
                        image_contained=image_ok)


# ---------------------------------------------------------------------------
# enumeration over finite fields


def _require_prime_field(field: Field):
    if field.p == 0:
        raise ValueError("enumeration needs a finite field")


def _field_elements(field: Field):
    return [field.scalar(i) for i in range(field.p)]


def projective_points(field: Field, ncoords: int):
    """All points of P^(ncoords-1) over F_p, first nonzero coordinate 1."""
    _require_prime_field(field)
    elems = _field_elements(field)
    zero, one = field.zero(), field.one()
    return [(zero,) * lead + (one,) + tail for lead in range(ncoords)
            for tail in product(elems, repeat=ncoords - 1 - lead)]


def _line_on(X: Hypersurface, e1, e2) -> bool:
    """Exact containment test for the line span(e1, e2), given that e1 is a
    point of X: every caller has already checked P(e1) = 0."""
    p, d = X.field.p, X.d
    if p and d <= p:
        # a degree-d form on the line vanishing at d+1 points vanishes;
        # e1 (k = 0) is one of them
        for k in range(1, d):
            pt = tuple(a + X.field.scalar(k) * b for a, b in zip(e1, e2))
            if X.P.evaluate(pt):
                return False
        return not X.P.evaluate(e2)
    return restrict_to_plane(X.P, [e1, e2]).is_zero()


def _polar(partials, x) -> list:
    """The gradient g of P at x: sum g_i w_i is the s^(d-1) t coefficient of
    P(s x + t w), so it vanishes in every characteristic when span(x, w) is
    on X."""
    return [D.evaluate(x) for D in partials]


def _polar_rows(g, j, elems):
    """The rows e_j + sum_{c > j} t_c e_c with sum g_i r_i = 0, the t_c
    running lexicographically over elems = (0, 1, ..., p-1).  The last c with
    g_c != 0 is solved for; it depends only on earlier entries, so the
    surviving rows stay in that order."""
    head = (elems[0],) * j + (elems[1],)
    live = [c for c in range(j + 1, len(g)) if g[c]]
    if not live:
        if not g[j]:
            yield from (head + t for t in product(elems, repeat=len(g) - 1 - j))
        return
    c = live[-1]
    k = c - j - 1
    for t in product(elems, repeat=len(g) - 2 - j):
        rest = sum(map(mul, g[j + 1:c], t), g[j])
        yield head + t[:k] + (-rest / g[c],) + t[k:]


def _check_budget(what: str, total: int, budget: int):
    if total > budget:
        raise BudgetExceeded(
            "%s needs %d candidates (budget %d)" % (what, total, budget),
            estimate=total)


def _projective_size(p: int, ncoords: int) -> int:
    """Number of points of P^(ncoords-1) over F_p."""
    return (p ** ncoords - 1) // (p - 1)


def lines_through(X: Hypersurface, point, budget: int = 10 ** 8) -> list:
    """All lines on X through a point of X, as frames with e1 = the point.
    A point off X raises PlaneNotContained.  The second vector runs over the
    kernel of the point's first polar on the complement of its pivot."""
    _require_prime_field(X.field)
    field = X.field
    x = field.vector(point)
    if not any(x):
        raise ValueError("zero vector does not define a projective point")
    if X.P.evaluate(x):
        raise PlaneNotContained("point is not on the hypersurface")
    _check_budget("lines through a point", _projective_size(field.p, X.n),
                  budget)
    _, pivots = rref([x], field)
    cols = [c for c in range(X.n + 1) if c not in pivots]
    comp = unit_vectors(field, X.n + 1, cols)
    g = _polar([X.P.partial(c) for c in cols], x)
    elems = _field_elements(field)
    frames = []
    for j in range(X.n):
        for coords in _polar_rows(g, j, elems):
            w = combine(field, X.n + 1, coords, comp)
            if _line_on(X, x, w):
                frames.append(LineFrame(field, x, w))
    return frames


def grassmannian_size(p: int, n: int) -> int:
    """Number of lines in P^n over F_p."""
    return ((p ** (n + 1) - 1) * (p ** n - 1)) // ((p ** 2 - 1) * (p - 1))


def all_lines(X: Hypersurface, budget: int = 10 ** 8) -> list:
    """Every line on X over F_p, one frame per line, echelon representatives.
    Row 1 must be a point of X, row 2 in the kernel of its first polar."""
    _require_prime_field(X.field)
    field = X.field
    n1 = X.n + 1
    _check_budget("line enumeration", grassmannian_size(field.p, X.n), budget)
    elems = _field_elements(field)
    one, zero = (field.one(),), (field.zero(),)
    partials = [X.P.partial(i) for i in range(n1)]
    frames = []
    # echelon pairs with pivots j1 < j2: row 2 is 1 at j2, then free entries;
    # row 1 is 1 at j1, then free entries with a 0 at column j2.  Free
    # entries run lexicographically, the first free column slowest.
    for j2 in range(1, n1):
        for j1 in range(j2):
            cut = j2 - j1 - 1
            for t in product(elems, repeat=n1 - 2 - j1):
                r1 = zero * j1 + one + t[:cut] + zero + t[cut:]
                if X.P.evaluate(r1):
                    continue
                for r2 in _polar_rows(_polar(partials, r1), j2, elems):
                    if _line_on(X, r1, r2):
                        frames.append(LineFrame(field, r1, r2))
    return frames


def singular_points(X: Hypersurface) -> tuple:
    """Exhaustive scan of P^n(F_p) for singular points of X."""
    _require_prime_field(X.field)
    _check_budget("singular point scan", _projective_size(X.field.p, X.n + 1),
                  10 ** 8)
    return tuple(pt for pt in projective_points(X.field, X.n + 1)
                 if is_singular_at(X, pt))


# ---------------------------------------------------------------------------
# whole-hypersurface survey


@dataclass(frozen=True)
class ExceptionRecord:
    """A line the survey could not settle rationally, with replay data."""

    line: tuple            # canonical echelon rows of the line
    kind: str              # "rank-one-pencil" or "no-rational-point"
    detail: str


@dataclass(frozen=True)
class ConjectureReport:
    """Survey of all lines on X over F_p.

    trigger records whether the line count forces the singularity heuristic
    (a line with deformation dimension >= n-2 while d >= n).  Exceptional
    lines are listed with replay data; they flag rationality gaps, never
    counterexamples.
    """

    p: int
    n: int
    d: int
    num_lines: int
    max_tangent_dim: int
    trigger: bool
    covered_points: int
    certified: tuple       # normalized singular points found on lines
    exceptions: tuple
    note: str


def conjecture_check(X: Hypersurface, budget: int = 10 ** 8,
                     force: bool = False) -> ConjectureReport:
    _require_prime_field(X.field)
    field = X.field
    if field.p <= X.d and not force:
        raise CharacteristicRefused(
            "characteristic %d is at most the degree %d; results would be "
            "unreliable (pass force=True to proceed)" % (field.p, X.d))
    frames = all_lines(X, budget)
    covered = set()
    certified = []
    exceptions = []
    max_dim = 0
    line_points = projective_points(field, 2)
    for fr in frames:
        la = analyze_line(X, fr)
        max_dim = max(max_dim, la.tangent.tangent_dim)
        pts = [fr.point(a, b) for a, b in line_points]
        for pt in pts:
            covered.add(projective_normalize(pt, field))
        if la.degenerate is not None:
            exceptions.append(ExceptionRecord(
                line=fr.canonical_rows(), kind="rank-one-pencil",
                detail=la.degenerate))
            continue
        cert = la.certificate
        if cert.whole_line:
            certified.extend(projective_normalize(pt, field) for pt in pts)
        else:
            certified.extend(sp.ambient for sp in cert.points)
        if la.everyp1.applies and not cert.points:
            gcd = cert.gcd_form
            exceptions.append(ExceptionRecord(
                line=fr.canonical_rows(), kind="no-rational-point",
                detail="gcd %r has no rational zero; singular points exist "
                       "over an extension" % (gcd,)))
    certified = tuple(sorted(set(certified),
                             key=lambda pt: tuple(map(plain, pt))))
    trigger = bool(frames) and max_dim >= X.n - 2 and X.d >= X.n
    if trigger:
        note = ("overloaded regime: a line deforms in dimension >= %d "
                "with d >= n" % (X.n - 2))
    else:
        note = "no line deforms in dimension >= %d; nothing is forced" % (X.n - 2)
    if exceptions:
        note += "; %d line(s) need extension fields or stall" % len(exceptions)
    return ConjectureReport(p=field.p, n=X.n, d=X.d, num_lines=len(frames),
                            max_tangent_dim=max_dim, trigger=trigger,
                            covered_points=len(covered),
                            certified=certified, exceptions=tuple(exceptions),
                            note=note)
