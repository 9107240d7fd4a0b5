"""Command line front end.

Commands: analyze (one line's full pipeline), lines (enumeration over F_p),
conjecture (whole-surface survey), pencil-nf (normal form of a raw pencil),
ruled (divisor intersection numbers), gen (stock examples).

Exit codes: 0 success, 1 usage or input errors, 2 the given line or point
is not on the hypersurface, 3 (pencil-nf only) the pencil has a rank-one
element, 4 the enumeration budget was exceeded, 5 refused because the
characteristic is at most the degree (pass --force).  analyze never exits
3: a line's pencil has no rank-one element.
"""

from __future__ import annotations

import argparse
import json
import sys

from .corpus import cone, fermat, random_with_line
from .forms import (BinaryForm, _at, _headed_lines, format_form, format_scalar,
                    parse_form)
from .linalg import Field, Subspace, parse_field, plain
from .pencil import NotConstantRankTwo, normal_form
from .ruled import DivisorClass, RuledSurface, c1_twist, intersect, itcone_check
from .singular import (_BUDGET, BudgetExceeded, CharacteristicRefused,
                       all_lines, analyze_line, conjecture_check,
                       lines_through)
from .tangent import Hypersurface, LineFrame, PlaneNotContained

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_OFF_SURFACE = 2
EXIT_DEGENERATE = 3
EXIT_BUDGET = 4
EXIT_REFUSED = 5

# the exit code of a command that an exception of each type stopped
_STOPPED = {PlaneNotContained: EXIT_OFF_SURFACE, BudgetExceeded: EXIT_BUDGET,
            CharacteristicRefused: EXIT_REFUSED}


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _budget(text: str) -> int:
    """--budget's value: an integer >= 0 (0 reports the estimate)."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text) from None
    if n < 0:
        raise argparse.ArgumentTypeError("needs a non-negative integer, got %d" % n)
    return n


def _scal(c):
    """A JSON scalar: an int, or an 'a/b' string for a non-integral rational."""
    c = plain(c)
    return c.numerator if c.denominator == 1 else str(c)


def _vec(v):
    return [_scal(c) for c in v]


def _mat(rows):
    return [_vec(r) for r in rows]


def _point(v) -> str:
    """A projective point as text, '[a:b:...]'."""
    return "[" + ":".join(format_scalar(c) for c in v) + "]"


def _binform(f: BinaryForm | None):
    return None if f is None else _vec(f.coeffs)


def _parse_vector(field: Field, text: str):
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        toks = text[1:-1].split(":")
    elif ":" in text:
        toks = text.split(":")
    else:
        toks = text.split(",")
    return tuple(_at("entry %d of %r" % (i, text), field.scalar, t.strip())
                 for i, t in enumerate(toks, 1))


def _parse_line_spec(field: Field, text: str):
    halves = text.split(";")
    if len(halves) != 2:
        raise ValueError("line spec must be 'v1;v2' with comma-separated entries")
    return _parse_vector(field, halves[0]), _parse_vector(field, halves[1])


def _load_surface(path: str, field_opt: str | None):
    with open(path) as fh:
        text = fh.read()
    P = parse_form(text)
    if field_opt:
        want = parse_field(field_opt)
        if P.field.is_rational and not want.is_rational:
            P = P.reduce_mod(want.p)
        elif want != P.field:
            raise CliError("form is over %s; cannot read it over %s"
                           % (P.field, want))
    return Hypersurface(P), text


def _emit(args, lines, payload, code):
    if args.json != "-":
        for ln in lines:
            print(ln)
    if args.json:
        payload = dict(payload, exit=code)
        blob = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        if args.json == "-":
            sys.stdout.write(blob)
        else:
            with open(args.json, "w") as fh:
                fh.write(blob)
    return code


def _stopped(args, payload, e) -> int:
    """The exit of a command that e stopped: its message in payload["error"]
    and on stdout (a refusal with its --force hint), a budget's estimate,
    and the code _STOPPED gives e's type."""
    if isinstance(e, CharacteristicRefused):
        payload["error"] = "%s (pass --force to proceed)" % e.reason
        line = "refused: " + payload["error"]
    else:
        payload["error"] = str(e)
        line = "error: %s" % e
    if isinstance(e, BudgetExceeded):
        payload["estimate"] = e.estimate
    return _emit(args, [line], payload, _STOPPED[type(e)])


def _tangent_payload(rep):
    return {
        "sigma": _mat(rep.sigma_matrix),
        "kernel": _mat(rep.kernel.basis),
        "tangent_dim": rep.tangent_dim,
        "pi": _mat(rep.pi.basis),
        "pi_dim": rep.pi.dim,
        "m": rep.m,
        "pencil": _mat(rep.pencil.basis),
    }


def _nf_payload(nf):
    return {"s": list(nf.s), "r": nf.r, "adapted": _mat(nf.adapted_basis),
            "offsets": list(nf.chain_offsets), "alpha": _mat(nf.alpha)}


def _certificate_payload(cert):
    return {
        "whole_line": cert.whole_line,
        "points": [{"ambient": _vec(sp.ambient),
                    "line_point": _vec(sp.line_point),
                    "multiplicity": sp.multiplicity} for sp in cert.points],
        "gcd": _binform(cert.gcd_form),
        "unsolved": [{"coeffs": _binform(f), "multiplicity": m}
                     for f, m in cert.unsolved],
        "note": cert.note,
    }


def cmd_analyze(args) -> int:
    X, text = _load_surface(args.form, args.field)
    e1, e2 = _parse_line_spec(X.field, args.line)
    frame = LineFrame(X.field, e1, e2)
    payload = {
        "command": "analyze",
        "input": {"form": text, "line": args.line,
                  "field": str(X.field)},
        "surface": {"n": X.n, "d": X.d, "field": str(X.field)},
    }
    try:
        la = analyze_line(X, frame)
    except tuple(_STOPPED) as e:
        return _stopped(args, payload, e)
    payload["tangent"] = _tangent_payload(la.tangent)
    out = ["field: %s   n: %d   d: %d" % (X.field, X.n, X.d),
           "tangent dim: %d   pi dim: %d   m: %d"
           % (la.tangent.tangent_dim, la.tangent.pi.dim, la.tangent.m)]
    payload["degenerate"] = None
    if la.nf is None:
        payload.update(normal_form=None, generators=None, filtration=None)
        out.append("pencil trivial: whole line moves only through the cone "
                   "directions")
    else:
        payload["normal_form"] = _nf_payload(la.nf)
        payload["generators"] = [{"size": b.size, "delta": b.delta,
                                  "p": _binform(b.p)} for b in la.gens.blocks]
        payload["filtration"] = {
            "deltas": list(la.filt.deltas), "counts": list(la.filt.counts),
            "dims": [sp.dim for sp in la.filt.hatM],
            "codims": list(la.filt.quotient_dims),
        }
        out.append("blocks: %s" % (la.nf.s,))
    payload["certificate"] = _certificate_payload(la.certificate)
    payload["image_contained"] = la.image_contained
    payload["everyp1"] = {
        "applies": la.everyp1.applies, "s1": la.everyp1.s1,
        "dim_cx_tangent": la.everyp1.dim_cx_tangent,
        "points": [_vec(sp.ambient) for sp in la.everyp1.points],
        "note": la.everyp1.note,
    }
    cert = la.certificate
    if cert.whole_line:
        out.append("singular: entire line (gradient vanishes identically)")
    elif cert.points:
        for sp in cert.points:
            out.append("singular point %s  (line point %s, multiplicity %d)"
                       % (_point(sp.ambient), _point(sp.line_point),
                          sp.multiplicity))
    else:
        out.append("singular points: none rational (%s)" % cert.note)
    out.append("forced-singularity criterion: %s (%s)"
               % ("applies" if la.everyp1.applies else "does not apply",
                  la.everyp1.note))
    if la.image_contained is not None:
        out.append("deformation rows inside the ideal: %s"
                   % ("yes" if la.image_contained else "NO"))
    return _emit(args, out, payload, EXIT_OK)


def _rows_to_spec(rows) -> str:
    return ";".join(",".join(format_scalar(c) for c in row) for row in rows)


def cmd_lines(args) -> int:
    X, text = _load_surface(args.form, args.field)
    payload = {"command": "lines",
               "input": {"form": text, "field": str(X.field),
                         "through": args.through, "budget": args.budget}}
    try:
        if args.through:
            pt = _parse_vector(X.field, args.through)
            frames = lines_through(X, pt, budget=args.budget)
        else:
            frames = all_lines(X, budget=args.budget)
    except tuple(_STOPPED) as e:
        return _stopped(args, payload, e)
    specs = [_rows_to_spec(fr.canonical_rows()) for fr in frames]
    payload["count"] = len(specs)
    payload["lines"] = specs
    out = ["%d line(s) on the hypersurface" % len(specs)] + specs
    return _emit(args, out, payload, EXIT_OK)


def cmd_conjecture(args) -> int:
    X, text = _load_surface(args.form, args.field)
    payload = {"command": "conjecture",
               "input": {"form": text, "field": str(X.field),
                         "budget": args.budget, "force": args.force}}
    try:
        rep = conjecture_check(X, budget=args.budget, force=args.force)
    except tuple(_STOPPED) as e:
        return _stopped(args, payload, e)
    payload["report"] = {
        "p": rep.p, "n": rep.n, "d": rep.d,
        "num_lines": rep.num_lines,
        "max_tangent_dim": rep.max_tangent_dim,
        "trigger": rep.trigger,
        "covered_points": rep.covered_points,
        "certified": [_vec(pt) for pt in rep.certified],
        "exceptions": [{"line": _rows_to_spec(e.line), "kind": e.kind,
                        "detail": e.detail} for e in rep.exceptions],
        "note": rep.note,
    }
    out = ["lines: %d   max tangent dim: %d   trigger: %s"
           % (rep.num_lines, rep.max_tangent_dim, rep.trigger),
           "points covered by lines: %d" % rep.covered_points,
           "singular points certified on lines: %d" % len(rep.certified)]
    for pt in rep.certified:
        out.append("  " + _point(pt))
    out.append("exceptions: %d" % len(rep.exceptions))
    for e in rep.exceptions:
        out.append("  %s: %s (%s)" % (e.kind, _rows_to_spec(e.line), e.detail))
    out.append(rep.note)
    return _emit(args, out, payload, EXIT_OK)


def _parse_pencil_file(text: str):
    field, m, body = _headed_lines(text, "m")
    vecs = []
    for lineno, toks in body:
        where = "line %d" % lineno
        if toks[0] != "element" or len(toks) == 1:
            raise CliError("%s: a pencil line needs the form 'element u;v', "
                           "got %r" % (where, " ".join(toks)))
        u, v = _at(where, lambda spec: _parse_line_spec(field, spec),
                   " ".join(toks[1:]))
        if len(u) != m or len(v) != m:
            raise CliError("%s: an element needs %d + %d entries, got %d + %d"
                           % (where, m, m, len(u), len(v)))
        vecs.append(u + v)
    return Subspace.from_vectors(vecs, field, 2 * m), field, m


def cmd_pencil_nf(args) -> int:
    with open(args.pencil) as fh:
        text = fh.read()
    L, field, m = _parse_pencil_file(text)
    payload = {"command": "pencil-nf",
               "input": {"pencil": text, "field": str(field), "m": m}}
    try:
        nf = normal_form(L)
    except NotConstantRankTwo as e:
        payload["error"] = str(e)
        return _emit(args, ["rank-one element: %s" % e], payload,
                     EXIT_DEGENERATE)
    payload["normal_form"] = dict(_nf_payload(nf), m=nf.m)
    out = ["block sizes: %s" % (nf.s,),
           "adapted basis:"]
    out += ["  " + ",".join(format_scalar(c) for c in w)
            for w in nf.adapted_basis]
    return _emit(args, out, payload, EXIT_OK)


def _parse_class(text: str) -> DivisorClass:
    toks = text.split(",")
    if len(toks) != 2:
        raise CliError("divisor class must be 'a,b'")
    try:
        a, b = int(toks[0]), int(toks[1])
    except ValueError:
        raise CliError("divisor class %r needs integers a,b" % text) from None
    return DivisorClass(a, b)


def cmd_ruled(args) -> int:
    S = RuledSurface(args.k)
    D1 = _parse_class(args.d1)
    D2 = _parse_class(args.d2)
    val = intersect(S, D1, D2)
    rep = itcone_check(S, D1, D2)
    payload = {"command": "ruled",
               "input": {"k": args.k, "d1": args.d1, "d2": args.d2},
               "intersection": val,
               "itcone": {"value": rep.value, "lower_bound": rep.lower_bound,
                          "hypotheses_ok": rep.hypotheses_ok,
                          "positive": rep.positive}}
    out = ["D1.D2 = %d" % val,
           "cone bound: %d (hypotheses %s)"
           % (rep.lower_bound, "hold" if rep.hypotheses_ok else "fail")]
    if args.twist_p is not None:
        if args.twist_l is None:
            raise CliError("--twist-p needs --twist-l")
        L = _parse_class(args.twist_l)
        tw = c1_twist(S, L, args.twist_p, D1)
        payload["twist"] = {"a": tw.a, "b": tw.b}
        out.append("twist class: (%d, %d)" % (tw.a, tw.b))
    return _emit(args, out, payload, EXIT_OK)


def cmd_gen(args) -> int:
    payload = {"command": "gen", "generator": args.generator}
    if args.generator == "fermat":
        X = fermat(args.n, args.d, parse_field(args.field or "Q"))
    elif args.generator == "cone":
        if args.base is None:
            raise CliError("cone needs --base")
        base, _ = _load_surface(args.base, None)
        X = cone(base, extra=args.extra)
    else:
        if args.p is None:
            raise CliError("random-with-line needs --p")
        X, frame = random_with_line(args.n, args.d, args.p, args.seed)
        payload["line"] = _rows_to_spec((frame.e1, frame.e2))
    payload["form"] = format_form(X.P)
    return _emit(args, [payload["form"].rstrip("\n")], payload, EXIT_OK)


def build_parser() -> _Parser:
    ap = _Parser(prog="fanosing",
                 description="Exact line geometry on hypersurfaces: "
                             "deformations, forced singular points, surveys.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    pa = sub.add_parser("analyze", help="full pipeline for one line")
    pa.add_argument("form", help="form file (see README for the format)")
    pa.add_argument("--line", required=True,
                    help="two spanning vectors, e.g. '1,0,0,0;0,1,0,0'")
    pa.add_argument("--field", help="Q or Fp:<p>; reduces a rational form mod p")
    pa.add_argument("--json", help="write a JSON report to this path ('-' for stdout)")
    pa.set_defaults(func=cmd_analyze)

    pl = sub.add_parser("lines", help="enumerate lines on X over F_p")
    pl.add_argument("form")
    pl.add_argument("--through", help="a point, e.g. '[1:0:0:0]' or '1,0,0,0'")
    pl.add_argument("--budget", type=_budget, default=_BUDGET)
    pl.add_argument("--field")
    pl.add_argument("--json")
    pl.set_defaults(func=cmd_lines)

    pc = sub.add_parser("conjecture", help="survey all lines on X over F_p")
    pc.add_argument("form")
    pc.add_argument("--budget", type=_budget, default=_BUDGET)
    pc.add_argument("--force", action="store_true",
                    help="proceed even when the characteristic <= degree")
    pc.add_argument("--field")
    pc.add_argument("--json")
    pc.set_defaults(func=cmd_conjecture)

    pp = sub.add_parser("pencil-nf", help="chain normal form of a pencil file")
    pp.add_argument("pencil", help="file with field/m headers and element lines")
    pp.add_argument("--json")
    pp.set_defaults(func=cmd_pencil_nf)

    pr = sub.add_parser("ruled", help="divisor intersection numbers")
    pr.add_argument("--k", type=int, required=True)
    pr.add_argument("--d1", required=True, help="class 'a,b'")
    pr.add_argument("--d2", required=True, help="class 'a,b'")
    pr.add_argument("--twist-p", type=int, dest="twist_p")
    pr.add_argument("--twist-l", dest="twist_l", help="class 'a,b'")
    pr.add_argument("--json")
    pr.set_defaults(func=cmd_ruled)

    pg = sub.add_parser("gen", help="emit stock example forms")
    pg.add_argument("generator", choices=["fermat", "cone", "random-with-line"])
    pg.add_argument("--n", type=int, default=3)
    pg.add_argument("--d", type=int, default=3)
    pg.add_argument("--field")
    pg.add_argument("--base", help="base form file (cone)")
    pg.add_argument("--extra", type=int, default=1, help="new variables (cone)")
    pg.add_argument("--p", type=int, help="prime (random-with-line)")
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--json")
    pg.set_defaults(func=cmd_gen)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (CliError, OSError, ValueError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
