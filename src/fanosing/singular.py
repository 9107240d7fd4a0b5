"""Forced singular points on lines, and exhaustive checks over finite fields.

A common zero of all block generators of a line E on X = Z(P) is a singular
point of X: every directional derivative of P is a combination of shifted
generators on E, so the whole gradient vanishes there.  This module turns
that into certificates (each claimed point is re-checked against the
gradient), enumerates lines over small finite fields by echelon position,
and packages a replay-friendly survey of a whole hypersurface.  The points
of X over F_p are listed chart by chart and fibre by fibre of the last
coordinate, from the roots of P on each fibre (_chart_points), so the
singular point scan and the line scan test no point off X for membership.
A line through a point x of X has its second point on X in the kernel of
x's first polar: the line scan finds it by one lookup per fibre, with first
points from X's sections by coordinate hyperplanes (never chart 0, the
largest), and lines_through by the fibre scan of P on x's polar hyperplane.
The line test reads the second point's polar before P on the line.

The gradient re-checks and the point and line scans read P's terms,
(c, ((i, k), ...)) on ints, once per hypersurface (Hypersurface.plain_form):
residues mod p, or over Q the terms of D*P at a point scaled to ints, good
only for zero tests.  A point test evaluates P once (_value) and takes the
gradient (_polar) only on X; _singular_at is the two together.  The scans
run on residue tuples mod p, and certified points on a line's int rows (a
frame's, tangent._frame_ints, or a scan's echelon pair); each builds
scalars only for what it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product
from operator import mul

from .forms import (BinaryForm, _expand, _unpacked, binary_gcd, binary_roots,
                    projective_normalize)
from .ideal import (GeneratorSet, IdealFiltration, build_filtration,
                    contains_image_sigma, extract_generators)
from .linalg import Field, _echelon, _ints, plain
from .pencil import NormalForm, normal_form
from . import tangent
from .tangent import (Hypersurface, LineFrame, PlaneNotContained, TangentReport,
                      _frame_ints, _left_kernel, _report, analyze_tangent)


# largest point or candidate list a scan builds unless a caller passes its own
_BUDGET = 10 ** 8


class BudgetExceeded(RuntimeError):
    """Enumeration would overrun the budget; .estimate carries the count."""

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


class CharacteristicRefused(ValueError):
    """Survey refused: characteristic at most the degree (override with
    force).  .reason is the message without its hint, which names force=True."""

    def __init__(self, reason):
        super().__init__("%s (pass force=True to proceed)" % reason)
        self.reason = reason


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
    """The gradient g of P at the int point x.

    One pass over P's terms on ints: a term c x^e adds e_i c x^(e - unit_i)
    to d_i P(x).  sum g_i w_i is the s^(d-1) t coefficient of P(s x + t w),
    so it vanishes in every characteristic when span(x, w) is on X.  Over Q,
    with form D*P and x = m x', g is D m^(d-1) times the gradient at x':
    right only about which entries vanish.
    """
    terms, p, _ = form
    grad = [0] * len(x)
    for c, e in terms:
        for i, k in e:
            part = c * k * x[i] ** (k - 1)
            for i2, k2 in e:
                if i2 != i:
                    part *= x[i2] ** k2
            grad[i] += part
    return [g % p for g in grad] if p else grad


def _value(form, x) -> int:
    """P(x) at an int point: mod p over F_p; over Q D m^d P(x') for
    x = m x', right only about whether it vanishes."""
    terms, p, _ = form
    total = 0
    for c, e in terms:
        for i, k in e:
            c *= x[i] ** k
        total += c
    return total % p if p else total


def _singular_at(form, x) -> bool:
    """Whether P and its gradient vanish at the int point x."""
    return not _value(form, x) and not any(_polar(form, x))


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

    _singular_at on X.plain_form, the point test the scans use; over Q
    on D*P at the point times the lcm of its denominators, nonzero scalings
    that keep every zero.  It uses neither the restriction code nor
    MultiForm.partial, so it stays an independent check of both.
    """
    (x,), _ = _ints([_checked_point(X, point)], X.field)
    return _singular_at(X.plain_form, x)


def singular_on_line(X: Hypersurface, frame: LineFrame,
                     filt: IdealFiltration) -> SingularCertificate:
    """Certified singular points at the common zeros of the generators."""
    rows, _ = _frame_ints(X, frame)
    return _certificate(X, rows, *_gcd_roots(filt))


def _gcd_roots(filt: IdealFiltration):
    """(gcd of the generators, its binary_roots report or None when the gcd
    is constant): a function of the filtration alone."""
    gcd = binary_gcd(filt.gens.forms())
    return gcd, (binary_roots(gcd) if gcd.degree else None)


def _certificate(X: Hypersurface, rows, gcd: BinaryForm | None,
                 report) -> SingularCertificate:
    """The certificate of the line with int rows (r1, r2) (a frame's ints,
    or a scan's echelon pair) from its gcd and roots: each root [a:b] mapped
    to a r1 + b r2 and re-checked on X.  gcd None means a trivial pencil,
    so sigma is zero and the gradient vanishes on the whole line: re-checked
    at r1, r2 and r1 + r2."""
    r1, r2 = rows
    if gcd is None:
        if not all(_singular_at(X.plain_form, x)
                   for x in (r1, r2, [u + v for u, v in zip(r1, r2)])):
            raise ArithmeticError("sample point fails the gradient re-check")
        return SingularCertificate(
            points=(), whole_line=True, gcd_form=None, unsolved=(),
            note="gradient vanishes identically on the line")
    if report is None:
        return SingularCertificate(points=(), whole_line=False, gcd_form=gcd,
                                   unsolved=(),
                                   note="generators share no zero on the line")
    points = []
    for (a, b), mult in report.roots:
        ((i, j),), _ = _ints([(a, b)], X.field)     # a multiple of [a:b]
        x = [i * u + j * v for u, v in zip(r1, r2)]
        if not _singular_at(X.plain_form, x):
            raise ArithmeticError(
                "certified point fails the gradient re-check")
        points.append(SingularPoint(ambient=projective_normalize(x, X.field),
                                    line_point=(a, b), multiplicity=mult))
    note = "every gcd zero is a singular point of the hypersurface"
    if report.unsolved:
        note += "; further zeros live in an extension field"
    return SingularCertificate(points=tuple(points), whole_line=False,
                               gcd_form=gcd, unsolved=report.unsolved,
                               note=note)


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
    applies = _single_chain(X, report, nf)
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


def _single_chain(X: Hypersurface, report: TangentReport,
                  nf: NormalForm) -> bool:
    """check_everyp1's verdict on a nontrivial pencil: one chain of the full
    length m, and degree d > m."""
    return nf.s[0] == report.m and X.d > report.m


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
    """Run the whole pipeline on one line, recording each stage: sigma and
    its report (analyze_tangent), the sigma-determined core (_core), then
    the stages that read the frame (_tail).

    A line's pencil has no rank-one element: for (lam v | mu v) in it,
    (lam s + mu t) sum_k v_k f_(free_k) = 0, binary forms have no zero
    divisors, so v would be a nonzero vector of Pi at Pi's free columns.
    normal_form therefore succeeds; a NotConstantRankTwo here is a bug and
    propagates.
    """
    rep = analyze_tangent(X, frame)
    return _tail(X, frame, rep, _core(X, rep))


def _core(X: Hypersurface, rep: TangentReport) -> tuple:
    """The stages after the report, a function of its sigma and X's field,
    n and d: (nf, gens, filt, gcd, roots, image_contained), every field
    None when the pencil is trivial (rep.m == 0), where gcd and roots None
    make _certificate's whole-line case."""
    if rep.m == 0:
        return (None,) * 6
    nf = normal_form(rep.pencil)
    gens = extract_generators(X, nf, rep)
    filt = build_filtration(gens)
    return (nf, gens, filt, *_gcd_roots(filt),
            contains_image_sigma(filt, rep))


def _tail(X: Hypersurface, frame: LineFrame, rep: TangentReport,
          core: tuple) -> LineAnalysis:
    """The line's record from its report and core: the stages that read
    the frame's int rows, whose certificate re-checks its points on X."""
    rows, _ = _frame_ints(X, frame)
    nf, gens, filt, gcd, roots, image_ok = core
    cert = _certificate(X, rows, gcd, roots)
    return LineAnalysis(frame=frame, tangent=rep, nf=nf, gens=gens, filt=filt,
                        certificate=cert,
                        everyp1=check_everyp1(X, rep, nf, cert),
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


def _line_on(form, d: int, e1, e2, g2) -> bool:
    """Exact containment test for the line span(e1, e2) of residue vectors
    on X (form is X.plain_form, d the degree, g2 the polar of e2), given
    P(e1) = P(e2) = 0 and g . e2 = 0 for the polar g of e1: both callers
    take e2 from X's points (_chart_points) in g's kernel.  They are the
    s^d, t^d and s^(d-1) t coefficients of P(s e1 + t e2); g2 . e1 is the
    s t^(d-1) one, tested first, in every characteristic.  So when d <= 3
    that is all; else when d <= p the test only evaluates P(e1 + k e2) for
    k = 1..d-3: that is k^2 times a polynomial of degree d-4 in k, and
    vanishes at d-3 distinct nonzero k only if it is zero."""
    p = form[1]
    if sum(map(mul, g2, e1)) % p:
        return False
    if d <= max(p, 3):
        return not any(_value(form, [a + k * b for a, b in zip(e1, e2)])
                       for k in range(1, d - 2))
    # too few points on the line: expand P on it with the one int kernel
    return not _expand(form[0], [e1, e2], (), d, p)[0]


def _check_budget(what: str, total: int, budget: int):
    if total > budget:
        raise BudgetExceeded(
            "%s needs %d candidates (budget %d)" % (what, total, budget),
            estimate=total)


def _projective_size(p: int, ncoords: int) -> int:
    """Number of points of P^(ncoords-1) over F_p."""
    return (p ** ncoords - 1) // (p - 1)


def lines_through(X: Hypersurface, point, budget: int = _BUDGET) -> list:
    """All lines on X through a point x of X, as frames with e1 = x, in the
    projective_points order of e2; a point off X raises PlaneNotContained.
    e2 runs over X's points w in H = {w_piv = 0, g . w = 0} (piv x's pivot,
    g its polar), listed by _chart_points on P restricted to H (one
    _expand).  H's basis is e_i - (g_i/g_c) e_c at each column i but piv
    and c, the last column != piv with g_c != 0 (none: e_i), so w_c depends
    only on earlier entries and keeps y's order.  P is evaluated only at x
    (and in _line_on when d >= 4); Fp is built only for the frames."""
    _require_prime_field(X.field)
    field, p, d = X.field, X.field.p, X.d
    x = _checked_point(X, point)
    xs = tuple(plain(c) for c in x)
    form = X.plain_form
    if _value(form, xs):
        raise PlaneNotContained("point is not on the hypersurface")
    _check_budget("lines through a point", _projective_size(p, X.n), budget)
    g = _polar(form, xs)
    piv = next(i for i, c in enumerate(xs) if c)
    live = [i for i, gi in enumerate(g) if gi and i != piv]
    c, solve = (live[-1], -pow(g[live[-1]], -1, p)) if live else (piv, 0)
    basis = [[1 if k == i else g[i] * solve % p if k == c else 0
              for k in range(X.n + 1)] for i in range(X.n + 1)
             if i not in (piv, c)]
    if not basis:
        return []           # n = 1 and g . w = 0 leaves only w = 0
    m, cols = len(basis), list(zip(*basis))
    section = (_unpacked(_expand(form[0], basis, (), d, p)[0], m, d), p, 1)
    frames = []
    for j in range(m):
        for y in _chart_points(section, d, m, j):
            w = tuple(sum(map(mul, y, col)) % p for col in cols)
            if _line_on(form, d, xs, w, _polar(form, w)):
                frames.append(LineFrame(field, x, w))
    return frames


def grassmannian_size(p: int, n: int) -> int:
    """Number of lines in P^n over F_p."""
    return ((p ** (n + 1) - 1) * (p ** n - 1)) // ((p ** 2 - 1) * (p - 1))


class _Polars(dict):
    """Residue point of X -> the polar of P there (_polar), taken once per
    point.  Its keys are points of X only (_chart_points lists them), so P
    is never evaluated here.  One memo serves a whole line scan and the
    contractions its survey reads off it."""

    def __init__(self, form):
        super().__init__()
        self.form = form

    def __missing__(self, x):
        g = self[x] = _polar(self.form, x)
        return g


def _chart_points(form, d: int, n1: int, j: int) -> list:
    """Chart j's points of X = Z(P) over F_p, (0, ..., 0, 1 at j, tail), as
    residue tuples in lexicographic order of the tail (projective_points'
    order); form is X.plain_form, d the degree, n1 the number of variables.

    On a fibre, the prefix u of the tail (every entry but the last) fixed,
    P is a univariate of degree <= d in the last coordinate z: one pass
    over P's terms without a variable before j gives its coefficients, and
    its roots are read off its values at the p residues, from one table of
    powers.  Roots are kept per coefficient tuple, which diagonal forms
    repeat; an identically zero fibre keeps all p points, and d >= p needs
    no care, as every residue is tested.  The last chart's lone point has
    an empty tail: it is on X when P's x_j^d coefficient is 0."""
    p, last = form[1], n1 - 1
    head = (0,) * j + (1,)
    # (c, power of z, ((position in u, power), ...)) per surviving term
    rows = [(c, sum(k for i, k in e if i == last),
             tuple((i - j - 1, k) for i, k in e if j < i < last))
            for c, e in form[0] if all(i >= j for i, _ in e)]
    if j == last:
        return [] if sum(c for c, _, _ in rows) % p else [head]
    pw = [[pow(z, k, p) for k in range(d + 1)] for z in range(p)]
    roots = {}
    points = []
    for u in product(range(p), repeat=last - j - 1):
        f = [0] * (d + 1)
        for c, k, e in rows:
            for i, m in e:
                c *= pw[u[i]][m]
            f[k] += c
        f = tuple(c % p for c in f)
        zs = roots.get(f)
        if zs is None:
            zs = roots[f] = [z for z in range(p)
                             if not sum(map(mul, f, pw[z])) % p]
        points.extend(head + u + (z,) for z in zs)
    return points


def _section_points(form, d: int, n1: int, j: int, j2: int) -> list:
    """Chart j's points of X with x_(j2) = 0, for j < j2, in _chart_points'
    order: chart j of X's section by x_(j2) = 0 (P's terms free of x_(j2),
    later variables shifted down), with a 0 put back at j2."""
    terms, p, den = form
    section = ([(c, tuple((i - (i > j2), k) for i, k in e))
                for c, e in terms if all(i != j2 for i, _ in e)], p, den)
    return [x[:j2] + (0,) + x[j2:]
            for x in _chart_points(section, d, n1 - 1, j)]


def all_lines(X: Hypersurface, budget: int = _BUDGET) -> list:
    """Every line on X over F_p, one frame per line, echelon representatives:
    the pairs of _echelon_pairs in its order, each frame built from its
    echelon pair (LineFrame._from_echelon), with Fp only for what it
    returns."""
    field = X.field
    return [LineFrame._from_echelon(field, r1, r2)
            for r1, r2 in _echelon_pairs(X, _Polars(X.plain_form), budget)]


def _echelon_pairs(X: Hypersurface, polars: _Polars, budget: int):
    """Yield each line on X over F_p once, as its reduced echelon pair
    (r1, r2) of residue tuples; polars is a memo (_Polars) of X's form.

    Echelon pairs have pivots j1 < j2: row 2 is 1 at j2, then free entries;
    row 1 is 1 at j1, then free entries with a 0 at column j2.  Free entries
    run lexicographically, the first free column slowest.  Row 1 must be a
    point of X and row 2 a point of X in the kernel of row 1's polar g.
    X's points are listed fibre by fibre (_chart_points), so no point off X
    is tested.  Rows 2 are chart j2's points, for j2 = 1..n.  Rows 1 are
    chart j1 of X's section by x_(j2) = 0 with a 0 put back at j2
    (_section_points): chart j1's points that are 0 at j2, in its order, so
    chart 0 is never listed and rows 1 cost about n p^(n-2) fibres.  The
    polar memo takes each point's polar once, eagerly for rows 2 and on
    first use for rows 1.  The points of X in chart j2 are grouped by
    fibre: the prefix u of row 2's tail (its entries after j2 but the
    last), in lexicographic order, maps to {last entry: row 2}.  On a fibre
    g . r2 = 0 reads g_(j2) + g_u . u + g_l last = 0, g_l g's last entry:
    for g_l != 0 one dict lookup finds its one solution, for g_l = 0 the
    whole fibre passes or none of it.  The last chart's lone point has an
    empty tail: one fibre, taken as for g_l = 0.  So rows 2 keep their
    lexicographic order, and as P(r1) = P(r2) = g . r2 = 0 the line test
    (_line_on) checks only the other coefficients, starting with row 2's
    polar, a memo hit.
    """
    _require_prime_field(X.field)
    p, d = X.field.p, X.d
    n1 = X.n + 1
    _check_budget("line enumeration", grassmannian_size(p, X.n), budget)
    form = X.plain_form
    for j2 in range(1, n1):
        fibres = {}
        for r2 in _chart_points(form, d, n1, j2):
            polars[r2]      # taken eagerly
            fibres.setdefault(r2[j2 + 1:-1], {})[r2[-1]] = r2
        for j1 in range(j2):
            for r1 in _section_points(form, d, n1, j1, j2):
                g = polars[r1]
                g0, gu = g[j2], g[j2 + 1:-1]
                if j2 < n1 - 1 and g[-1]:
                    solve = -pow(g[-1], -1, p)
                    for u, fibre in fibres.items():
                        r2 = fibre.get(sum(map(mul, gu, u), g0) * solve % p)
                        if r2 and _line_on(form, d, r1, r2, polars[r2]):
                            yield r1, r2
                else:
                    for u, fibre in fibres.items():
                        if not sum(map(mul, gu, u), g0) % p:
                            for r2 in fibre.values():
                                if _line_on(form, d, r1, r2, polars[r2]):
                                    yield r1, r2


def singular_points(X: Hypersurface) -> tuple:
    """Exhaustive scan of P^n(F_p) for singular points of X, in
    projective_points order, on residue tuples: X's points chart by chart
    (_chart_points), and the gradient only there."""
    _require_prime_field(X.field)
    p, n1 = X.field.p, X.n + 1
    _check_budget("singular point scan", _projective_size(p, n1), _BUDGET)
    form = X.plain_form
    return tuple(X.field.vector(x) for j in range(n1)
                 for x in _chart_points(form, X.d, n1, j)
                 if not any(_polar(form, x)))


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


def _gradient_rows(X: Hypersurface, polars: _Polars):
    """raw(r1, r2, points): the raw rows of the line with echelon pair
    (r1, r2), read off P's gradients in polars, one per column c off its
    pivots: d_c P(r1 + k r2) for k = 0..d-2, then d_c P(r2), where points
    lists r1 + k r2 for k = 0, 1, ...  Each is 1 at r1's pivot and zero
    before it, a normalised point of X, a key of the scan's memo.

    For p >= d - 1 they are the line's contraction rows under one fixed
    invertible linear map of F_p^d, so their echelon keys the span U of
    the contractions: row c_j's contraction f_j = (d_(c_j) P)|_E has degree
    d - 1, its values at s = 1, t = k (k = 0..d-2) are d_(c_j) P(r1 + k r2)
    and its t^(d-1) coefficient is d_(c_j) P(r2); as the d - 1 nodes are
    distinct mod p, those d numbers determine f_j, linearly."""
    def raw(r1, r2, points):
        pivots = (r1.index(1), r2.index(1))
        grads = [polars[x] for x in points[:X.d - 1]] + [polars[r2]]
        return [list(col) for c, col in enumerate(zip(*grads))
                if c not in pivots]

    return raw


def _sigma_summary(X: Hypersurface, fs) -> tuple:
    """What a survey reads of every line whose contractions f_j span the
    same U as the rows fs over F_p (at most n - 1 of them; a line's own
    contractions, or U's echelon basis): fs padded with zero rows to n - 1
    give sigma's alpha^1 rows (*f, 0) and alpha^2 rows (0, *f), then
    _report on their left kernel and Pi's (that of fs), then _core:
    (tangent_dim, the single-chain verdict, the gcd, its roots), all but
    tangent_dim falsy or None when the pencil is trivial.  A core whose
    image check fails raises ArithmeticError.

    It is a function of U, so lines with one span share it:
    tangent_dim = 2(n - 1) - dim(s U + t U) and m = dim U; a change of
    basis of (W/E)/Pi moves the pencil by one GL(m) acting on both halves,
    which keeps its block sizes; the generators' monic gcd is gcd(U); and
    image sigma = s U + t U for every sigma of the span."""
    fs = [*fs] + [(0,) * X.d] * (X.n - 1 - len(fs))
    rows = tuple([(*f, 0) for f in fs] + [(0, *f) for f in fs])
    rep = _report(X, (rows, 1), _left_kernel(rows, X.field, X.d + 1),
                  _left_kernel(fs, X.field, X.d))
    nf, _, _, gcd, roots, image_ok = _core(X, rep)
    if image_ok is False:
        raise ArithmeticError("sigma's image leaves the generator ideal")
    return (rep.tangent_dim, rep.m > 0 and _single_chain(X, rep, nf), gcd,
            roots)


def conjecture_check(X: Hypersurface, budget: int = _BUDGET,
                     force: bool = False) -> ConjectureReport:
    """Survey every F_p-line of X as the scan yields its echelon pair
    (_echelon_pairs), without keeping frames, and count the points the lines
    cover on residue tuples read off those rows.

    When p >= d - 1 the echelon of a line's raw gradient rows (the memo's
    gradients at r1 + k r2, k < d - 1, and at r2: _gradient_rows) keys its
    span U, as one fixed invertible map takes them to the contractions, so
    the keys split the lines as U does.  Else the key is the echelon of the
    line's contractions.  Per distinct key the survey reads the contractions
    of the key's first line (restricted_contractions of its frame, which
    re-checks P|_E = 0), builds sigma once, from U's echelon rows, and keeps
    only what it reads (_sigma_summary), for this call only.  A line's
    points r1 + a r2 are built once, by columns (u + a v) % p memoised per
    entry pair (u, v) for this call, for the covered points and the raw
    rows.  A line gets a certificate (_certificate: from its echelon rows,
    every point re-checked on X, Fp only for what it returns) when its
    span's gcd is None (a singular line) or has a rational zero; a gcd with
    no zero certifies nothing."""
    _require_prime_field(X.field)
    field, p, d = X.field, X.field.p, X.d
    if p <= d and not force:
        raise CharacteristicRefused(
            "characteristic %d is at most the degree %d; results would be "
            "unreliable" % (p, d))
    polars = _Polars(X.plain_form)

    def contractions(r1, r2, points=None):
        return tangent.restricted_contractions(
            X, LineFrame._from_echelon(field, r1, r2))[0]

    raw = _gradient_rows(X, polars) if p >= d - 1 else contractions

    @cache
    def seq(u, v):
        return tuple((u + a * v) % p for a in range(p))

    num_lines = 0
    covered = set()
    certified = []
    exceptions = []
    max_dim = 0
    summaries = {}      # raw rows' echelon rows -> _sigma_summary of U
    for r1, r2 in _echelon_pairs(X, polars, budget):
        num_lines += 1
        # the line's points normalised: r1 + a r2 (r2 is zero at r1's
        # pivot), and r2
        points = list(zip(*map(seq, r1, r2)))
        key = tuple(map(tuple, _echelon(raw(r1, r2, points), p)[0]))
        if key not in summaries:
            summaries[key] = _sigma_summary(
                X, _echelon(contractions(r1, r2), p)[0])
        dim, applies, gcd, roots = summaries[key]
        max_dim = max(max_dim, dim)
        covered.update(points)
        covered.add(r2)
        if gcd is None or roots and roots.roots:
            cert = _certificate(X, (r1, r2), gcd, roots)
            certified.extend(map(field.vector, [r2, *points])
                             if cert.whole_line
                             else (sp.ambient for sp in cert.points))
        elif applies:
            exceptions.append(ExceptionRecord(
                line=(field.vector(r1), field.vector(r2)),
                kind="no-rational-point",
                detail="gcd %r has no rational zero; singular points exist "
                       "over an extension" % (gcd,)))
    certified = tuple(sorted(set(certified),
                             key=lambda pt: tuple(map(plain, pt))))
    trigger = bool(num_lines) and max_dim >= X.n - 2 and d >= X.n
    if trigger:
        note = ("overloaded regime: a line deforms in dimension >= %d "
                "with d >= n" % (X.n - 2))
    else:
        note = "no line deforms in dimension >= %d; nothing is forced" % (X.n - 2)
    if exceptions:
        note += ("; %d line(s) have singular points only over an extension "
                 "field" % len(exceptions))
    return ConjectureReport(p=p, n=X.n, d=d, num_lines=num_lines,
                            max_tangent_dim=max_dim, trigger=trigger,
                            covered_points=len(covered),
                            certified=certified, exceptions=tuple(exceptions),
                            note=note)
