"""Binary-form generators cut out by a line's deformation pencil.

Each chain block of the normal form contributes one generator.  For a block
w_1, ..., w_s the restricted contractions f_i = (w_i -| P)|_E satisfy

    f_i = beta1^(i-1) * beta2^(s-i) * p,        i = 1, ..., s,

for a single binary form p of degree d - s, where beta1, beta2 are the line's
coordinates s, t.  On coefficient tuples (s^(d-1), ..., t^(d-1)) each
identity is a shift: f_i is p's coefficients with s - i zeros in front and
i - 1 behind.  So t^(s-1) divides f_1 exactly when its first s - 1
coefficients vanish, and p is the rest, normalized monic (the block vectors
are rescaled along with it so the identities stay exact).  It all runs on
the int sigma of the line's TangentReport, as does the image check, with
scalars built only for p and the rescaled chain.

The generators of degrees delta_j = d - s_j span an ideal of binary forms
on the line.  Its degree-k piece is built in one place (_piece): one echelon
pass over the k-shifts of every generator of degree <= k, on int rows each
generator converts once.  The filtration's levels are the pieces at the
generator degrees, and ideal_degree_piece, the image check and the
multiplicity bounds read the same function.  Points where every piece
vanishes are forced singular points of the hypersurface; the degree-k piece
also bounds how fast its elements can vanish at a point of the line (order
<= k-1 away from an explicit finite locus).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import mul

from .forms import BinaryForm, RootReport, binary_gcd, binary_roots
from .linalg import (Field, FieldMismatch, Subspace, _echelon, _ints, _kernel,
                     _reduce)
from .pencil import NormalForm
from .tangent import Hypersurface, TangentReport, _free_columns


class ChainIdentityViolated(ValueError):
    """The extracted generator does not reproduce the chain contractions."""


class DegreeTooSmall(ValueError):
    """A chain block is longer than the defining degree allows."""


@dataclass(frozen=True)
class BlockGenerator:
    """One chain block: generator p of degree d - size, rescaled block."""

    p: BinaryForm
    size: int
    chain: tuple

    @property
    def delta(self) -> int:
        return self.p.degree


@dataclass(frozen=True)
class GeneratorSet:
    """All block generators of a line: extract_generators gives them in
    descending block-size order, and the filtration reads them in any
    order."""

    field: Field
    blocks: tuple

    def __post_init__(self):
        # (delta, int coefficient row) per generator, converted once for
        # every degree piece (_piece) to read
        rows, _ = _ints([b.p.coeffs for b in self.blocks], self.field)
        object.__setattr__(self, "_rows",
                           tuple(zip([len(row) - 1 for row in rows], rows)))

    @property
    def r(self) -> int:
        return len(self.blocks)

    def deltas(self) -> tuple:
        return tuple(b.delta for b in self.blocks)

    def forms(self) -> tuple:
        return tuple(b.p for b in self.blocks)


def extract_generators(X: Hypersurface, nf: NormalForm,
                       tangent: TangentReport) -> GeneratorSet:
    """Generator p of each chain block, with exact identity verification.

    A chain vector w has coordinates at Pi's free columns, so its restricted
    contraction (w -| P)|_E is the same combination of sigma's alpha^1 rows
    at those columns, read without their last (zero) coefficient.  P is not
    contracted or restricted again, and each chain identity is checked as a
    coefficient shift of p.  On ints, with sigma's rows scale times the
    true ones and the chain's w_i times t_i (_ints), F_i = t_i scale f_i:
    each shift is checked as t_1 F_i == t_i (F_1 shifted).
    """
    field, q = X.field, X.field.p
    pi = tangent.pi
    if nf.field != field or pi.field != field:
        raise FieldMismatch("normal form or report lies over another field")
    if nf.m != (X.n - 1) - pi.dim:
        raise ValueError("normal form does not match the quotient dimension")
    d = X.d
    sig, scale = tangent.sigma_ints
    cols = list(zip(*(sig[c] for c in _free_columns(pi))))[:d]
    blocks = []
    for j in range(nf.r):
        s = nf.s[j]
        if d < s:
            raise DegreeTooSmall(
                "degree %d is too small for a block of size %d" % (d, s))
        chain = nf.block(j)
        ws, ts = _ints(chain, field)
        fs = [[sum(map(mul, w, col)) for col in cols] for w in ws]
        if q:
            fs = [[a % q for a in f] for f in fs]
        if any(fs[0][:s - 1]):
            raise ChainIdentityViolated(
                "head contraction is not divisible by the chain power")
        core = fs[0][s - 1:]
        if not any(core):
            raise ChainIdentityViolated("block generator vanishes")
        for i in range(s):
            want = [0] * (s - 1 - i) + core + [0] * i
            if [ts[0] * a for a in fs[i]] != [ts[i] * b for b in want]:
                raise ChainIdentityViolated(
                    "contraction of chain slot %d is off" % (i + 1))
        lam = next(c for c in core if c)
        p = BinaryForm(field, [a * pow(lam, -1, q) % q for a in core] if q
                       else [Fraction(a, lam) for a in core])
        inv = field.scalar(ts[0] * scale) / lam
        chain = tuple(tuple(inv * c for c in w) for w in chain)
        blocks.append(BlockGenerator(p=p, size=s, chain=chain))
    return GeneratorSet(field=field, blocks=tuple(blocks))


@dataclass(frozen=True)
class IdealFiltration:
    """Ascending pieces hatM_j of the ideal the generators span on the line.

    Level j is the degree-deltas[j] piece (_piece), so it contains every
    lower level times the forms of the degree gap, and the top level
    determines every higher degree piece.
    """

    gens: GeneratorSet
    deltas: tuple          # distinct generator degrees, ascending
    counts: tuple          # generators of each degree
    hatM: tuple            # Subspace of K^(delta+1) per level
    quotient_dims: tuple   # codimension of each level in its degree


def _shift_up(coeffs, gap: int) -> list:
    """All multiples of a form by the degree-gap monomials (int 0 padding)."""
    return [[0] * b + list(coeffs) + [0] * (gap - b) for b in range(gap + 1)]


def _piece(gens: GeneratorSet, k: int):
    """The degree-k piece of the ideal gens span on the line, as echelon int
    rows and their pivot columns: one _echelon pass over the k-shifts of
    every generator of degree <= k (GeneratorSet._rows)."""
    if k < 0:
        raise ValueError("negative degree")
    return _echelon([v for delta, row in gens._rows if delta <= k
                     for v in _shift_up(row, k - delta)], gens.field.p)


def build_filtration(gens: GeneratorSet) -> IdealFiltration:
    """The filtration whose levels are the pieces (_piece) at the distinct
    generator degrees; the blocks may come in any order."""
    if not gens.blocks:
        raise ValueError("no generators to build a filtration from")
    found = [delta for delta, _ in gens._rows]
    deltas = sorted(set(found))
    hatM = [Subspace._of(gens.field, k + 1, *_piece(gens, k)) for k in deltas]
    return IdealFiltration(gens=gens, deltas=tuple(deltas),
                           counts=tuple([found.count(k) for k in deltas]),
                           hatM=tuple(hatM),
                           quotient_dims=tuple([k + 1 - space.dim for k, space
                                                in zip(deltas, hatM)]))


def ideal_degree_piece(filt: IdealFiltration, k: int) -> Subspace:
    """Degree-k piece of the ideal on the line, as coefficient vectors."""
    return Subspace._of(filt.gens.field, k + 1, *_piece(filt.gens, k))


def contains_image_sigma(filt: IdealFiltration, report: TangentReport) -> bool:
    """Whether every row of the report's sigma lies in the degree-d piece."""
    if report.pi.field != filt.gens.field:
        raise FieldMismatch("field mismatch between filtration and report")
    rows = report.sigma_ints[0]
    if not rows:
        return True
    reduced = _reduce(*_piece(filt.gens, len(rows[0]) - 1), rows,
                      filt.gens.field.p)
    return not any(any(r) for r, _ in reduced)


def max_multiplicity_at(filt: IdealFiltration, k: int, point):
    """Largest vanishing order at a line point over the degree-k piece.

    Returns None when the piece is zero (every order is vacuous); k itself
    is attained exactly when the k-th power of the point's linear form lies
    in the piece.  point is (a, b), the line point a e1 + b e2.
    """
    if len(point) != 2:
        raise ValueError("line point has %d coordinates, not 2" % len(point))
    field = filt.gens.field
    piece = ideal_degree_piece(filt, k)
    if piece.dim == 0:
        return None
    a, b = field.scalar(point[0]), field.scalar(point[1])
    if not a and not b:
        raise ValueError("zero vector does not define a projective point")
    ell = BinaryForm.linear(field, b, -a)
    for j in range(k, 0, -1):
        power = ell ** j
        mults = _shift_up(power.coeffs, k - j)
        if piece.meet(Subspace.from_vectors(mults, field, k + 1)).dim:
            return j
    return 0


@dataclass(frozen=True)
class PurePowerLocus:
    """Line points whose k-th power linear form lies in the degree-k piece.

    whole_line means every point qualifies (the constraints vanish
    identically); otherwise the locus is cut out by gcd_form and report
    lists its points over the ground field.
    """

    k: int
    whole_line: bool
    gcd_form: BinaryForm | None
    report: RootReport | None


def pure_power_locus(filt: IdealFiltration, k: int) -> PurePowerLocus:
    """Exceptional points where some piece element vanishes to full order k.

    A degree-k form vanishing to order k at a point is a scalar multiple of
    the k-th power of the point's linear form, so the locus is cut out by
    applying the piece's annihilator functionals to that power: each yields
    a binary form in the point coordinates, and the locus is the zero set
    of their gcd.
    """
    field = filt.gens.field
    ann = _kernel(_piece(filt.gens, k)[0], k + 1, field)
    forms = []
    for lam in ann.basis:
        coeffs = [field.zero()] * (k + 1)
        for i in range(k + 1):
            if lam[i]:
                coeffs[k - i] = lam[i] * field.scalar((-1) ** i * comb(k, i))
        g = BinaryForm(field, tuple(coeffs))
        if not g.is_zero():
            forms.append(g)
    if not forms:
        return PurePowerLocus(k=k, whole_line=True, gcd_form=None, report=None)
    g = binary_gcd(forms)
    report = binary_roots(g) if g.degree >= 1 else RootReport((), ())
    return PurePowerLocus(k=k, whole_line=False, gcd_form=g, report=report)
