"""Workload inputs, the timed library call of each workload, and the
user-visible record of every answer.

Inputs are a pure function of (workload, seed).  Every library call goes
through a module attribute (``singular.analyze_line``, not a captured
reference), so the timing wrappers of the traced run see it.

Each workload cycles over ``count`` inputs in groups of ``group``: one group
holds every input shape once, and a run stops only at a group boundary, so
the mix of shapes is the same in every run whatever the seed.  ``count`` is
about what a 15-second run reaches: which inputs a seed draws moves the
figures more than timing noise does, so a run measures many distinct inputs
rather than repeats of a few.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from fanosing import corpus, pencil, singular
from fanosing.forms import MultiForm
from fanosing.linalg import QQ, Field, Fp, Subspace
from fanosing.pencil import NotConstantRankTwo
from fanosing.tangent import Hypersurface, LineFrame

BIG_P = 10007
F7, F13, F101 = Field(7), Field(13), Field(101)

# (n, d) of the planted-line shapes: one group holds each shape once
SHAPES = tuple(product(range(2, 7), range(2, 6)))


@dataclass(frozen=True)
class LineInput:
    """A hypersurface and a line on it; kind is 'planted' or 'cone'."""

    X: Hypersurface
    frame: LineFrame
    kind: str


@dataclass(frozen=True)
class SurveyInput:
    """A whole surface to survey; kind names the family the oracle knows."""

    X: Hypersurface
    kind: str


@dataclass(frozen=True)
class PencilInput:
    """A pencil in K^2 (x) K^m; sizes is the planted partition, or None
    when a rank-one element was planted."""

    L: Subspace
    sizes: tuple | None


def _instance_seed(seed: int, i: int) -> int:
    return seed * 1_000_003 + i


# ---------------------------------------------------------------------------
# line analysis


def _monomial(nvars: int, first: int, d: int, rng: random.Random) -> tuple:
    """Exponents of a random degree-d monomial divisible by one of
    x_first, ..., x_(nvars-1)."""
    e = [0] * nvars
    e[rng.randint(first, nvars - 1)] += 1
    for _ in range(d - 1):
        e[rng.randint(0, nvars - 1)] += 1
    return tuple(e)


def _planted_q(n: int, d: int, visit: int, rng: random.Random) -> LineInput:
    """random_with_line over Q: small nonzero integer coefficients, every
    monomial involving one of x_2..x_n, so span(e0, e1) lies on X.  The
    term count, which sets most of the cost, steps through the range
    random_with_line draws it from (3..4n) as the shape is visited again."""
    while True:
        terms = {}
        for _ in range(3 + visit % (4 * n - 2)):
            key = _monomial(n + 1, 2, d, rng)
            terms[key] = terms.get(key, 0) + rng.choice((-3, -2, -1, 1, 2, 3))
        P = MultiForm(QQ, n + 1, d, terms)
        if not P.is_zero():
            break
    e0 = tuple(1 if i == 0 else 0 for i in range(n + 1))
    e1 = tuple(1 if i == 1 else 0 for i in range(n + 1))
    return LineInput(Hypersurface(P), LineFrame(QQ, e0, e1), "planted")


def _cone(field: Field, n: int, d: int, visit: int,
          rng: random.Random) -> LineInput:
    """Cone in P^n over a random base in P^(n-1) with a smooth point at e0;
    the line joins e0 to the vertex e_n.  The base's x0^(d-1) x1 term makes
    the pencil one block whose generator vanishes exactly at the vertex,
    so the vertex is always certified.  Up to 3n more terms, their count
    stepping with the visit as in _planted_q."""
    def coeff():
        if field.p:
            return rng.randrange(1, field.p)
        return rng.choice((-3, -2, -1, 1, 2, 3))

    terms = {(d - 1, 1) + (0,) * (n - 2): coeff()}
    for _ in range(1 + visit % (3 * n)):
        key = _monomial(n, 1, d, rng)
        if key not in terms:
            terms[key] = coeff()
    X = corpus.cone(Hypersurface(MultiForm(field, n, d, terms)))
    e0 = tuple(1 if i == 0 else 0 for i in range(n + 1))
    vertex = tuple(1 if i == n else 0 for i in range(n + 1))
    return LineInput(X, LineFrame(field, e0, vertex), "cone")


def make_analyze_fp(seed: int, count: int):
    out = []
    for i in range(count):
        n, d = SHAPES[i % len(SHAPES)]
        p = 13 if (i // len(SHAPES)) % 2 == 0 else 11
        X, fr = corpus.random_with_line(n, d, p, seed=_instance_seed(seed, i))
        out.append(LineInput(X, fr, "planted"))
    return out


# cone lines in P^3..P^6, then planted lines on plane curves of degree 2, 3
BIGP_SHAPES = tuple(product(range(3, 7), range(2, 6))) + ((2, 2), (2, 3)) * 2


def make_analyze_bigp(seed: int, count: int):
    """Lines whose generators share a zero, so that every op runs the root
    scan: cone lines, and lines planted on plane curves of degree <= 3
    (there the one generator is the curve's residual factor)."""
    rng = random.Random("analyze-bigp:%d" % seed)
    field = Field(BIG_P)
    out = []
    for i in range(count):
        n, d = BIGP_SHAPES[i % len(BIGP_SHAPES)]
        if n == 2:
            X, fr = corpus.random_with_line(n, d, BIG_P,
                                            seed=_instance_seed(seed, i))
            out.append(LineInput(X, fr, "planted"))
        else:
            out.append(_cone(field, n, d, i // len(BIGP_SHAPES), rng))
    return out


def make_analyze_q(seed: int, count: int):
    """Three planted lines to one cone line, shapes cycling as over F_p."""
    rng = random.Random("analyze-q:%d" % seed)
    out = []
    for i in range(count):
        j, r = divmod(i, 4)
        if r == 3:
            shape, visit = SHAPES[j % len(SHAPES)], j // len(SHAPES)
            out.append(_cone(QQ, *shape, visit, rng))
        else:
            t = 3 * j + r
            shape, visit = SHAPES[t % len(SHAPES)], t // len(SHAPES)
            out.append(_planted_q(*shape, visit, rng))
    return out


def analyze_op(inp: LineInput):
    return singular.analyze_line(inp.X, inp.frame)


# ---------------------------------------------------------------------------
# survey


def _diagonal_cubic(field: Field, nvars: int, rng: random.Random):
    """sum (c_i x_i)^3 for random units c_i: isomorphic to the Fermat cubic,
    so its line count and smoothness are those of the Fermat cubic."""
    terms = {}
    for i in range(nvars):
        e = [0] * nvars
        e[i] = 3
        terms[tuple(e)] = pow(rng.randrange(1, field.p), 3, field.p)
    return MultiForm(field, nvars, 3, terms)


def make_survey(seed: int, count: int):
    rng = random.Random("survey:%d" % seed)
    group = [
        SurveyInput(corpus.cone(Hypersurface(_diagonal_cubic(F7, 3, rng))),
                    "cone-f7"),
        SurveyInput(Hypersurface(_diagonal_cubic(F13, 4, rng)), "fermat-p3-f13"),
        SurveyInput(Hypersurface(_diagonal_cubic(F7, 5, rng)), "fermat-p4-f7"),
    ]
    return [group[i % len(group)] for i in range(count)]


def survey_op(inp: SurveyInput):
    return singular.conjecture_check(inp.X, budget=10 ** 7)


# ---------------------------------------------------------------------------
# pencil normal forms


PENCIL_FIELDS = (QQ, F7, F101)
PENCIL_MAX_M = 8


def _invertible(m: int, rng: random.Random):
    """Integer L U with L unit lower and U upper triangular, U's diagonal
    in +-1..4: invertible over Q, F_7 and F_101 alike."""
    def entry():
        return rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))

    low = [[entry() if j < i else int(i == j) for j in range(m)]
           for i in range(m)]
    up = [[entry() if j >= i else 0 for j in range(m)] for i in range(m)]
    return [[sum(low[i][k] * up[k][j] for k in range(m)) for j in range(m)]
            for i in range(m)]


def _partitions(m: int, largest: int | None = None):
    """Partitions of m as descending tuples."""
    if m == 0:
        return [()]
    largest = m if largest is None else largest
    return [(k,) + rest for k in range(min(m, largest), 0, -1)
            for rest in _partitions(m - k, k)]


# every partition of m = 1..8: the chain shapes a pencil can have
PARTITIONS = tuple(lam for m in range(1, PENCIL_MAX_M + 1)
                   for lam in _partitions(m))


def _planted_pencil(field: Field, sizes: tuple, rank_one: bool,
                    rng: random.Random) -> PencilInput:
    """Chain pencil with block sizes `sizes` in a random basis, moved by a
    random change of coordinates; optionally plus a rank-one element.
    Built in integers, read into the field at the end."""
    m = sum(sizes)
    basis = _invertible(m, rng)
    vecs, idx = [], 0
    for k in sizes:
        blk = basis[idx:idx + k]
        idx += k
        vecs.extend(u + [-y for y in v] for u, v in zip(blk, blk[1:]))
    if rank_one:
        u = [rng.randint(-4, 4) for _ in range(m)]
        u[rng.randrange(m)] = rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))
        a, b = rng.choice(((1, 0), (0, 1), (1, 1), (2, -3), (-1, 4)))
        vecs.append([a * x for x in u] + [b * x for x in u])
    Q = _invertible(m, rng)

    def act(vec):
        return [sum(Q[j][i] * vec[j] for j in range(m)) for i in range(m)]

    moved = [act(w[:m]) + act(w[m:]) for w in vecs]
    L = Subspace.from_vectors(moved, field, 2 * m) if moved \
        else Subspace.zero(field, 2 * m)
    return PencilInput(L, None if rank_one else sizes)


def make_pencil_nf(seed: int, count: int):
    """Per group: every partition of m <= 8 over each of the three fields,
    then every partition once more with a planted rank-one element, its
    field cycling."""
    rng = random.Random("pencil-nf:%d" % seed)
    nf = len(PENCIL_FIELDS)
    group = [(field, lam, False) for lam in PARTITIONS
             for field in PENCIL_FIELDS]
    group += [(PENCIL_FIELDS[j % nf], lam, True)
              for j, lam in enumerate(PARTITIONS)]
    return [_planted_pencil(*group[i % len(group)], rng)
            for i in range(count)]


def pencil_op(inp: PencilInput):
    try:
        return pencil.normal_form(inp.L)
    except NotConstantRankTwo as e:
        return e


# ---------------------------------------------------------------------------
# user-visible records: the fields of the command line's JSON reports


def _scal(c):
    if isinstance(c, Fp):
        return c.v
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else "%d/%d" % (c.numerator,
                                                             c.denominator)


def _vec(v):
    return [_scal(c) for c in v]


def _mat(rows):
    return [_vec(r) for r in rows]


def _nf_record(nf):
    return {"s": list(nf.s), "r": nf.r, "m": nf.m,
            "adapted": _mat(nf.adapted_basis),
            "offsets": list(nf.chain_offsets), "alpha": _mat(nf.alpha)}


def _certificate_record(cert):
    if cert is None:
        return None
    return {"whole_line": cert.whole_line,
            "points": [{"ambient": _vec(sp.ambient),
                        "line_point": _vec(sp.line_point),
                        "multiplicity": sp.multiplicity}
                       for sp in cert.points],
            "gcd": None if cert.gcd_form is None else _vec(cert.gcd_form.coeffs),
            "unsolved": [{"coeffs": _vec(f.coeffs), "multiplicity": m}
                         for f, m in cert.unsolved],
            "note": cert.note}


def analyze_record(la) -> dict:
    rep = la.tangent
    return {
        "tangent": {"sigma": _mat(rep.sigma_matrix),
                    "kernel": _mat(rep.kernel.basis),
                    "tangent_dim": rep.tangent_dim, "pi": _mat(rep.pi.basis),
                    "pi_dim": rep.pi.dim, "m": rep.m,
                    "pencil": _mat(rep.pencil.basis)},
        "degenerate": la.degenerate,
        "normal_form": None if la.nf is None else _nf_record(la.nf),
        "generators": None if la.gens is None else [
            {"size": b.size, "delta": b.delta, "p": _vec(b.p.coeffs)}
            for b in la.gens.blocks],
        "filtration": None if la.filt is None else {
            "deltas": list(la.filt.deltas), "counts": list(la.filt.counts),
            "dims": [sp.dim for sp in la.filt.hatM],
            "codims": list(la.filt.quotient_dims)},
        "certificate": _certificate_record(la.certificate),
        "image_contained": la.image_contained,
        "everyp1": None if la.everyp1 is None else {
            "applies": la.everyp1.applies, "s1": la.everyp1.s1,
            "dim_cx_tangent": la.everyp1.dim_cx_tangent,
            "points": [_vec(sp.ambient) for sp in la.everyp1.points],
            "note": la.everyp1.note},
    }


def survey_record(rep) -> dict:
    return {"p": rep.p, "n": rep.n, "d": rep.d, "num_lines": rep.num_lines,
            "max_tangent_dim": rep.max_tangent_dim, "trigger": rep.trigger,
            "covered_points": rep.covered_points,
            "certified": [_vec(pt) for pt in rep.certified],
            "exceptions": [{"line": _mat(e.line), "kind": e.kind,
                            "detail": e.detail} for e in rep.exceptions],
            "note": rep.note}


def pencil_record(result) -> dict:
    if isinstance(result, NotConstantRankTwo):
        return {"error": str(result)}
    return {"normal_form": _nf_record(result)}


def digest(record: dict) -> str:
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    make: object           # (seed, count) -> list of inputs
    op: object             # input -> result (the timed call)
    record: object         # result -> JSON-able dict
    count: int             # inputs generated per seed
    group: int             # inputs that hold every shape once
    trace_count: int       # leading inputs replayed by the traced run


WORKLOADS = {w.name: w for w in (
    Workload("analyze-fp", make_analyze_fp, analyze_op, analyze_record,
             count=400, group=40, trace_count=160),
    Workload("analyze-q", make_analyze_q, analyze_op, analyze_record,
             count=720, group=80, trace_count=80),
    Workload("analyze-bigp", make_analyze_bigp, analyze_op, analyze_record,
             count=240, group=len(BIGP_SHAPES), trace_count=60),
    Workload("survey", make_survey, survey_op, survey_record,
             count=3, group=3, trace_count=3),
    Workload("pencil-nf", make_pencil_nf, pencil_op, pencil_record,
             count=792, group=264, trace_count=264),
)}
