"""Binary-form generators cut out by a line's deformation pencil.

Each chain block of the normal form contributes one generator.  For a block
w_1, ..., w_s the restricted contractions f_i = (w_i -| P)|_E satisfy

    f_i = beta1^(i-1) * beta2^(s-i) * p,        i = 1, ..., s,

for a single binary form p of degree d - s, where beta1, beta2 are the line's
coordinates s, t.  On coefficient tuples (s^(d-1), ..., t^(d-1)) each
identity is a shift: f_i is p's coefficients with s - i zeros in front and
i - 1 behind.  So t^(s-1) divides f_1 exactly when its first s - 1
coefficients vanish, and p is the rest, normalized monic (the block vectors
are rescaled along with it so the identities stay exact).

The generators of degrees delta_j = d - s_j build an ascending filtration of
ideal pieces inside the spaces of binary forms on the line.  Points where
every piece vanishes are forced singular points of the hypersurface; the
degree-k piece also bounds how fast its elements can vanish at a point of
the line (order <= k-1 away from an explicit finite locus).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .forms import BinaryForm, RootReport, binary_gcd, binary_roots
from .linalg import Field, Subspace, combine, kernel
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
    """All block generators of a line, in descending block-size order."""

    field: Field
    degree: int            # degree d of the defining form
    m: int
    blocks: tuple

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
    coefficient shift of p.
    """
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
    return GeneratorSet(field=field, degree=d, m=nf.m, blocks=tuple(blocks))


@dataclass(frozen=True)
class IdealFiltration:
    """Ascending pieces hatM_j of the ideal the generators span on the line.

    Level j lives in degree deltas[j] and contains every lower level times
    the forms of the degree gap, so the top level determines every higher
    degree piece.
    """

    gens: GeneratorSet
    deltas: tuple          # distinct generator degrees, ascending
    counts: tuple          # generators entering at each level
    hatM: tuple            # Subspace of K^(delta+1) per level
    quotient_dims: tuple   # codimension of each level in its degree


def _shift_up(coeffs, gap: int, field: Field):
    """All multiples of a form by the degree-gap monomials."""
    zero = field.zero()
    out = []
    for b in range(gap + 1):
        out.append((zero,) * b + tuple(coeffs) + (zero,) * (gap - b))
    return out


def build_filtration(gens: GeneratorSet) -> IdealFiltration:
    if not gens.blocks:
        raise ValueError("no generators to build a filtration from")
    field = gens.field
    levels = []
    for b in gens.blocks:       # deltas ascend with block order
        if levels and levels[-1][0] == b.delta:
            levels[-1][1].append(b.p)
        else:
            levels.append([b.delta, [b.p]])
    deltas, counts, spaces, codims = [], [], [], []
    prev = None
    for delta, ps in levels:
        vecs = [p.coeffs for p in ps]
        if prev is not None:
            gap = delta - deltas[-1]
            for row in prev.basis:
                vecs.extend(_shift_up(row, gap, field))
        space = Subspace.from_vectors(vecs, field, delta + 1)
        deltas.append(delta)
        counts.append(len(ps))
        spaces.append(space)
        codims.append(delta + 1 - space.dim)
        prev = space
    return IdealFiltration(gens=gens, deltas=tuple(deltas),
                           counts=tuple(counts), hatM=tuple(spaces),
                           quotient_dims=tuple(codims))


def ideal_degree_piece(filt: IdealFiltration, k: int) -> Subspace:
    """Degree-k piece of the ideal on the line, as coefficient vectors."""
    field = filt.gens.field
    if k < 0:
        raise ValueError("negative degree")
    if k < filt.deltas[0]:
        return Subspace.zero(field, k + 1)
    j = max(i for i, delta in enumerate(filt.deltas) if delta <= k)
    gap = k - filt.deltas[j]
    vecs = []
    for row in filt.hatM[j].basis:
        vecs.extend(_shift_up(row, gap, field))
    return Subspace.from_vectors(vecs, field, k + 1)


def contains_image_sigma(filt: IdealFiltration, sigma_matrix) -> bool:
    """Whether every row of the deformation matrix lies in the degree piece."""
    if not sigma_matrix:
        return True
    k = len(sigma_matrix[0]) - 1
    piece = ideal_degree_piece(filt, k)
    return all(piece.contains_vector(row) for row in sigma_matrix)


def max_multiplicity_at(filt: IdealFiltration, k: int, point):
    """Largest vanishing order at a line point over the degree-k piece.

    Returns None when the piece is zero (every order is vacuous); k itself
    is attained exactly when the k-th power of the point's linear form lies
    in the piece.
    """
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
        mults = _shift_up(power.coeffs, k - j, field)
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
    piece = ideal_degree_piece(filt, k)
    ann = kernel([list(row) for row in piece.basis], field, ncols=k + 1) \
        if piece.dim else Subspace.full(field, k + 1)
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
