"""Per-op oracles, independent of the pipeline's own checks.

Each oracle takes a workload input and the library's answer and returns a
list of failure messages (empty when the answer is right).  The arithmetic
here is the benchmark's own: scalars become Python ints reduced mod p or
Fractions, forms are evaluated from their term dictionaries, and ranks come
from a separate Gaussian elimination, so a defect in the package's scalar,
form or linear-algebra code cannot vouch for itself.
"""

from __future__ import annotations

from fractions import Fraction

from fanosing.linalg import Fp
from fanosing.pencil import NormalForm, NotConstantRankTwo


def _plain(c):
    return c.v if isinstance(c, Fp) else Fraction(c)


class _Arith:
    """Field arithmetic on plain values: ints mod p, or Fractions (p = 0)."""

    def __init__(self, p: int):
        self.p = p

    def norm(self, x):
        return x % self.p if self.p else x

    def inv(self, x):
        return pow(x, -1, self.p) if self.p else 1 / x

    def vec(self, v):
        return [self.norm(_plain(c)) for c in v]

    def rank(self, rows) -> int:
        mat = [self.vec(r) for r in rows]
        rank = 0
        ncols = len(mat[0]) if mat else 0
        for c in range(ncols):
            piv = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
            if piv is None:
                continue
            mat[rank], mat[piv] = mat[piv], mat[rank]
            inv = self.inv(mat[rank][c])
            for i in range(rank + 1, len(mat)):
                if mat[i][c]:
                    f = mat[i][c] * inv
                    mat[i] = [self.norm(a - f * b)
                              for a, b in zip(mat[i], mat[rank])]
            rank += 1
        return rank

    def gradient_vanishes(self, P, point) -> bool:
        """P and every partial derivative vanish at the point."""
        x = self.vec(point)
        values = [0] * (P.nvars + 1)      # P, then d/dx_0 .. d/dx_n
        for e, c in P.terms.items():
            c = _plain(c)
            mono = c
            for xi, k in zip(x, e):
                mono *= xi ** k
            values[0] += mono
            for i, k in enumerate(e):
                if k:
                    term = c * k
                    for j, (xj, kj) in enumerate(zip(x, e)):
                        term *= xj ** (kj - 1 if j == i else kj)
                    values[i + 1] += term
        return not any(self.norm(v) for v in values)


def _line_samples(field):
    """Points of a line to test when the whole line is claimed singular:
    every point over a small field, a fixed handful otherwise."""
    if field.p:
        return [(1, j) for j in range(min(field.p, 16))] + [(0, 1)]
    return [(1, j) for j in range(-3, 4)] + [(0, 1)]


def _on_line(A: _Arith, frame, point) -> bool:
    return A.rank([frame.e1, frame.e2, point]) == 2


def normal_form_failures(L, nf) -> list:
    """Definition check of a chain normal form for the pencil L."""
    A = _Arith(L.field.p)
    m = L.ambient_dim // 2
    if nf.m != m or nf.r != len(nf.s) or sum(nf.s) != m:
        return ["normal form sizes do not partition m = %d: %r" % (m, nf.s)]
    if any(a < b for a, b in zip(nf.s, nf.s[1:])) or min(nf.s, default=1) < 1:
        return ["block sizes not descending and positive: %r" % (nf.s,)]
    if L.dim != m - nf.r:
        return ["pencil dim %d != m - r = %d" % (L.dim, m - nf.r)]
    if A.rank(nf.adapted_basis) != m:
        return ["adapted basis is not a basis"]
    if A.rank(list(L.basis) + nf.chain_elements()) != L.dim:
        return ["chain element outside the pencil"]
    return []


def analyze_failures(inp, la) -> list:
    X, frame = inp.X, inp.frame
    A = _Arith(X.field.p)
    n, d = X.n, X.d
    rep = la.tangent
    out = []
    if rep.kernel.dim < 2 * (n - 1) - (d + 1):
        out.append("kernel dim %d below 2(n-1)-(d+1)" % rep.kernel.dim)
    sig = rep.sigma_matrix
    if rep.kernel.dim != len(sig) - A.rank(sig):
        out.append("kernel dim %d != rows - rank of sigma" % rep.kernel.dim)
    rows = [A.vec(r) for r in sig]
    for v in rep.kernel.basis:
        vv = A.vec(v)
        if any(A.norm(sum(c * r[k] for c, r in zip(vv, rows)))
               for k in range(d + 1)):
            out.append("kernel vector not annihilated by sigma")
            break
    if la.nf is not None:
        out += normal_form_failures(rep.pencil, la.nf)
    if la.gens is not None and la.image_contained is not True:
        out.append("deformation rows not inside the generated ideal")
    cert = la.certificate
    if cert is not None:
        if cert.whole_line:
            pts = [frame.point(X.field.scalar(a), X.field.scalar(b))
                   for a, b in _line_samples(X.field)]
        else:
            pts = [sp.ambient for sp in cert.points]
        for pt in pts:
            if not _on_line(A, frame, pt):
                out.append("certified point %r is off the line" % (pt,))
            elif not A.gradient_vanishes(X.P, pt):
                out.append("certified point %r is not singular" % (pt,))
    if la.degenerate is None and cert is None:
        out.append("neither a certificate nor a degeneracy diagnosis")
    if inp.kind == "cone":
        vertex = (0,) * n + (1,)
        if cert is None or vertex not in {tuple(A.vec(sp.ambient))
                                          for sp in cert.points}:
            out.append("cone vertex not certified")
    return out


# kind -> (line count, vertex or None); None line count: not known here
_SURVEY_FACTS = {
    # Fermat cubic surface over F_13 (13 = 1 mod 3): all 27 lines rational
    "fermat-p3-f13": (27, None),
    "fermat-p4-f7": (None, None),
    # acceptance 11: the cone over the F_7 Fermat cubic curve
    "cone-f7": (9, (0, 0, 0, 1)),
}


def survey_failures(inp, rep) -> list:
    X = inp.X
    A = _Arith(X.field.p)
    count, vertex = _SURVEY_FACTS[inp.kind]
    out = []
    if count is not None and rep.num_lines != count:
        out.append("%s: %d lines, expected %d" % (inp.kind, rep.num_lines,
                                                  count))
    if rep.exceptions:
        out.append("%s: %d exceptional lines" % (inp.kind,
                                                 len(rep.exceptions)))
    for pt in rep.certified:
        if not A.gradient_vanishes(X.P, pt):
            out.append("certified point %r is not singular" % (pt,))
    certified = {tuple(A.vec(pt)) for pt in rep.certified}
    if vertex is None and certified:
        out.append("%s is smooth but %d points were certified"
                   % (inp.kind, len(certified)))
    if vertex is not None and tuple(vertex) not in certified:
        out.append("cone vertex %r not certified" % (vertex,))
    return out


def pencil_failures(inp, result) -> list:
    if inp.sizes is None:
        if isinstance(result, NotConstantRankTwo):
            return []
        return ["planted rank-one pencil got a normal form"]
    if not isinstance(result, NormalForm):
        return ["rank-two pencil refused: %s" % result]
    if tuple(result.s) != inp.sizes:
        return ["block sizes %r, planted %r" % (result.s, inp.sizes)]
    return normal_form_failures(inp.L, result)


FAILURES = {
    "analyze-fp": analyze_failures,
    "analyze-q": analyze_failures,
    "analyze-bigp": analyze_failures,
    "survey": survey_failures,
    "pencil-nf": pencil_failures,
}
