"""Forced singular points on lines, and exhaustive checks over finite fields.

A common zero of all block generators of a line E on X = Z(P) is a singular
point of X: every directional derivative of P is a combination of shifted
generators on E, so the whole gradient vanishes there.  This module turns
that into certificates (each claimed point is re-checked against the
gradient), enumerates lines over small finite fields by echelon position,
and packages a replay-friendly survey of a whole hypersurface.  Candidate
lines start at a point of X and run over the kernel of its first polar.

The gradient re-check and the point and line scans share one pass over
P's terms, (c, ((i, k), ...)) on ints: residues mod p, or over Q the terms
of D*P at a point scaled to ints, good only for zero tests.  The terms are
read once per hypersurface (Hypersurface.plain_form).  The scans run
on residue tuples mod p and build Fp only for what they return.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import mul

from .forms import (BinaryForm, _expand, binary_gcd, binary_roots,
                    projective_normalize)
from .ideal import (GeneratorSet, IdealFiltration, build_filtration,
                    contains_image_sigma, extract_generators)
from .linalg import Field, _ints, plain
from .pencil import NormalForm, normal_form
from .tangent import (Hypersurface, LineFrame, PlaneNotContained, TangentReport,
                      analyze_tangent)


# largest point or candidate list a scan builds unless a caller passes its own
_BUDGET = 10 ** 8


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


def _polar(form, x):
    """The gradient g of P at the int point x, or None when P(x) != 0.

    One pass over P's terms on ints: a term c x^e adds c x^e to P(x) and
    e_i c x^(e - unit_i) to d_i P(x).  sum g_i w_i is the s^(d-1) t
    coefficient of P(s x + t w), so it vanishes in every characteristic when
    span(x, w) is on X.  Over Q, with form D*P and x = m x', g is
    D m^(d-1) times the gradient at x': right only about which entries vanish.
    """
    terms, p, _ = form
    value, grad = 0, [0] * len(x)
    for c, e in terms:
        term = c
        for i, k in e:
            term *= x[i] ** k
        value += term
        for i, k in e:
            part = c * k * x[i] ** (k - 1)
            for i2, k2 in e:
                if i2 != i:
                    part *= x[i2] ** k2
            grad[i] += part
    if p:
        return None if value % p else [g % p for g in grad]
    return None if value else grad


def _checked_point(X: Hypersurface, point) -> tuple:
    """The point checked against X's field and ambient space."""
    point = X.field.vector(point)
    if not any(point):
        raise ValueError("zero vector does not define a projective point")
    if len(point) != X.n + 1:
        raise ValueError("point has %d coordinates, form has %d variables"
                         % (len(point), X.n + 1))
    return point


def is_singular_at(X: Hypersurface, point) -> bool:
    """Gradient test: P and all its partials vanish at the point.

    One pass over X.plain_form on ints, the _polar the line scans use; over Q
    on D*P at the point times the lcm of its denominators, nonzero scalings
    that keep every zero.  It uses neither the restriction code nor
    MultiForm.partial, so it stays an independent check of both.
    """
    (x,), _ = _ints([_checked_point(X, point)], X.field)
    grad = _polar(X.plain_form, x)
    return grad is not None and not any(grad)


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


def certify_entire_line(X: Hypersurface, frame: LineFrame,
                        tangent: TangentReport) -> SingularCertificate:
    """Certificate that the gradient vanishes identically on the line.

    Exact, from the line's sigma: P|_E = 0 kills the derivatives along E, so
    the gradient vanishes on E exactly when every (w_j -| P)|_E does, i.e.
    when sigma is zero.  Raises if the line is not entirely singular.
    """
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
    gens: GeneratorSet | None
    filt: IdealFiltration | None
    certificate: SingularCertificate
    everyp1: EveryP1Report
    image_contained: bool | None

    degenerate = None   # no line's pencil is rank-one; perfbench reads it


def analyze_line(X: Hypersurface, frame: LineFrame) -> LineAnalysis:
    """Run the whole pipeline on one line, recording each stage.

    A line's pencil has no rank-one element: for (lam v | mu v) in it,
    (lam s + mu t) sum_k v_k f_(free_k) = 0, binary forms have no zero
    divisors, so v would be a nonzero vector of Pi at Pi's free columns.
    normal_form therefore succeeds; a NotConstantRankTwo here is a bug and
    propagates.
    """
    rep = analyze_tangent(X, frame)
    if rep.m == 0:
        cert = certify_entire_line(X, frame, rep)
        ep1 = check_everyp1(X, rep, None, cert)
        return LineAnalysis(frame=frame, tangent=rep, nf=None, gens=None,
                            filt=None, certificate=cert, everyp1=ep1,
                            image_contained=None)
    nf = normal_form(rep.pencil)
    gens = extract_generators(X, nf, rep)
    filt = build_filtration(gens)
    cert = singular_on_line(X, frame, filt)
    ep1 = check_everyp1(X, rep, nf, cert)
    image_ok = contains_image_sigma(filt, rep.sigma_matrix)
    return LineAnalysis(frame=frame, tangent=rep, nf=nf, gens=gens, filt=filt,
                        certificate=cert, everyp1=ep1,
                        image_contained=image_ok)


# ---------------------------------------------------------------------------
# enumeration over finite fields


def _require_prime_field(field: Field):
    if field.p == 0:
        raise ValueError("enumeration needs a finite field")


def projective_points(field: Field, ncoords: int):
    """All points of P^(ncoords-1) over F_p, first nonzero coordinate 1.
    Raises BudgetExceeded before building a list longer than _BUDGET."""
    _require_prime_field(field)
    _check_budget("point list of P^%d" % (ncoords - 1),
                  _projective_size(field.p, ncoords), _BUDGET)
    elems = [field.scalar(i) for i in range(field.p)]
    return [tuple(map(elems.__getitem__, x))
            for x in _residue_points(field.p, ncoords)]


def _residue_points(p: int, ncoords: int):
    """The points of projective_points as residue tuples, in its order."""
    return ((0,) * lead + (1,) + tail for lead in range(ncoords)
            for tail in product(range(p), repeat=ncoords - 1 - lead))


def _value(form, x) -> int:
    """P(x) mod p at a residue point."""
    terms, p, _ = form
    total = 0
    for c, e in terms:
        for i, k in e:
            c *= x[i] ** k
        total += c
    return total % p


def _line_on(X: Hypersurface, form, e1, e2) -> bool:
    """Exact containment test for the line span(e1, e2) of residue vectors,
    given that e1 is a point of X: every caller has already checked
    P(e1) = 0.  form is X.plain_form."""
    d, p = X.d, form[1]
    if d <= p:
        # a degree-d form on the line vanishing at d+1 points vanishes;
        # e1 (k = 0) is one of them
        for k in range(1, d):
            if _value(form, [a + k * b for a, b in zip(e1, e2)]):
                return False
        return not _value(form, e2)
    # too few points on the line: expand P on it with the one int kernel
    return not _expand(form[0], [e1, e2], (), d, p)[0]


def _polar_rows(g, j, p):
    """The residue rows e_j + sum_{c > j} t_c e_c with sum g_i r_i = 0 mod p,
    the t_c running lexicographically over 0, 1, ..., p-1.  The last c with
    g_c != 0 is solved for; it depends only on earlier entries, so the
    surviving rows stay in that order."""
    head = (0,) * j + (1,)
    live = [c for c in range(j + 1, len(g)) if g[c]]
    if not live:
        if not g[j]:
            yield from (head + t
                        for t in product(range(p), repeat=len(g) - 1 - j))
        return
    c = live[-1]
    k = c - j - 1
    before, minus_inv = g[j + 1:c], -pow(g[c], -1, p)
    for t in product(range(p), repeat=len(g) - 2 - j):
        rest = sum(map(mul, before, t), g[j])
        yield head + t[:k] + (rest * minus_inv % p,) + t[k:]


def _check_budget(what: str, total: int, budget: int):
    if total > budget:
        raise BudgetExceeded(
            "%s needs %d candidates (budget %d)" % (what, total, budget),
            estimate=total)


def _projective_size(p: int, ncoords: int) -> int:
    """Number of points of P^(ncoords-1) over F_p."""
    return (p ** ncoords - 1) // (p - 1)


def lines_through(X: Hypersurface, point, budget: int = _BUDGET) -> list:
    """All lines on X through a point of X, as frames with e1 = the point.
    A point off X raises PlaneNotContained.  The second vector runs over the
    kernel of the point's first polar on the complement of its pivot; the
    scan runs on residues and builds Fp only for the frames it returns."""
    _require_prime_field(X.field)
    field, p = X.field, X.field.p
    x = _checked_point(X, point)
    xs = tuple(plain(c) for c in x)
    form = X.plain_form
    g = _polar(form, xs)
    if g is None:
        raise PlaneNotContained("point is not on the hypersurface")
    _check_budget("lines through a point", _projective_size(p, X.n), budget)
    piv = next(i for i, c in enumerate(xs) if c)
    g = g[:piv] + g[piv + 1:]
    frames = []
    for j in range(X.n):
        for w in _polar_rows(g, j, p):
            w = w[:piv] + (0,) + w[piv:]
            if _line_on(X, form, xs, w):
                frames.append(LineFrame(field, x, w))
    return frames


def grassmannian_size(p: int, n: int) -> int:
    """Number of lines in P^n over F_p."""
    return ((p ** (n + 1) - 1) * (p ** n - 1)) // ((p ** 2 - 1) * (p - 1))


def all_lines(X: Hypersurface, budget: int = _BUDGET) -> list:
    """Every line on X over F_p, one frame per line, echelon representatives.
    Row 1 must be a point of X, row 2 in the kernel of its first polar.  The
    scan runs on residues and builds Fp only for the frames it returns."""
    _require_prime_field(X.field)
    field, p = X.field, X.field.p
    n1 = X.n + 1
    _check_budget("line enumeration", grassmannian_size(p, X.n), budget)
    form = X.plain_form
    polars = {}     # row 1 -> its polar, or None off X; rows recur across j2
    frames = []
    # echelon pairs with pivots j1 < j2: row 2 is 1 at j2, then free entries;
    # row 1 is 1 at j1, then free entries with a 0 at column j2.  Free
    # entries run lexicographically, the first free column slowest.
    for j2 in range(1, n1):
        for j1 in range(j2):
            cut = j2 - j1 - 1
            for t in product(range(p), repeat=n1 - 2 - j1):
                r1 = (0,) * j1 + (1,) + t[:cut] + (0,) + t[cut:]
                if r1 not in polars:
                    polars[r1] = _polar(form, r1)
                g = polars[r1]
                if g is None:
                    continue
                for r2 in _polar_rows(g, j2, p):
                    if _line_on(X, form, r1, r2):
                        frames.append(LineFrame(field, r1, r2))
    return frames


def singular_points(X: Hypersurface) -> tuple:
    """Exhaustive scan of P^n(F_p) for singular points of X, in
    projective_points order, on residue tuples with P read once."""
    _require_prime_field(X.field)
    _check_budget("singular point scan", _projective_size(X.field.p, X.n + 1),
                  _BUDGET)
    form = X.plain_form
    return tuple(X.field.vector(x) for x in _residue_points(X.field.p, X.n + 1)
                 if (g := _polar(form, x)) is not None and not any(g))


# ---------------------------------------------------------------------------
# whole-hypersurface survey


@dataclass(frozen=True)
class ExceptionRecord:
    """A line the survey could not settle rationally, with replay data."""

    line: tuple            # canonical echelon rows of the line
    kind: str              # "no-rational-point", the only kind
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


def conjecture_check(X: Hypersurface, budget: int = _BUDGET,
                     force: bool = False) -> ConjectureReport:
    """Survey every F_p-line of X: analyse each one, and count the points
    the lines cover on residue tuples read off their echelon rows.  Fp
    points are built only for whole-line certificates."""
    _require_prime_field(X.field)
    field, p = X.field, X.field.p
    if p <= X.d and not force:
        raise CharacteristicRefused(
            "characteristic %d is at most the degree %d; results would be "
            "unreliable (pass force=True to proceed)" % (p, X.d))
    frames = all_lines(X, budget)
    covered = set()
    certified = []
    exceptions = []
    max_dim = 0
    line_points = projective_points(field, 2)
    for fr in frames:
        la = analyze_line(X, fr)
        max_dim = max(max_dim, la.tangent.tangent_dim)
        # the echelon rows give the line's points normalised: e2, and
        # e1 + a e2 (e2 is zero at e1's pivot)
        r1, r2 = ([plain(c) for c in row] for row in fr.canonical_rows())
        covered.add(tuple(r2))
        covered.update(tuple((u + a * v) % p for u, v in zip(r1, r2))
                       for a in range(p))
        cert = la.certificate
        if cert.whole_line:
            certified.extend(projective_normalize(fr.point(a, b), field)
                             for a, b in line_points)
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
    return ConjectureReport(p=p, n=X.n, d=X.d, num_lines=len(frames),
                            max_tangent_dim=max_dim, trigger=trigger,
                            covered_points=len(covered),
                            certified=certified, exceptions=tuple(exceptions),
                            note=note)
