"""Chain normal form for pencils of rank-two tensors in K^2 (x) K^m.

A subspace L <= K^2 (x) K^m all of whose nonzero elements have rank two
(even over every field extension) is spanned, in a suitable basis
w_1, ..., w_m of K^m, by the elements

    alpha^1 (x) w_i - alpha^2 (x) w_{i+1}

for consecutive indices inside blocks of sizes s_1 >= ... >= s_r >= 1 with
s_1 + ... + s_r = m and r = m - dim L.  Elements are encoded as vectors
(u | v) of length 2m meaning alpha^1 (x) u + alpha^2 (x) v.

The construction walks the descending filtration

    V[0] = K^m,   V[t] = p_2( R \\cap (V[t-1] x K^m) ),

where R = {(u, v) : alpha^1 (x) u - alpha^2 (x) v in L}.  For valid pencils
V[t-1]/V[t] counts the blocks of size >= t; as V[t] <= V[t-1], each meet
is taken with the one before instead of R.  Chains are assembled deepest
slot first, one solve per level giving the predecessors inside R.  The
chains are the one record of the blocks: s is their lengths, the adapted
basis their concatenation, and NormalForm derives the block offsets from s.
A rank-one pencil ends in exactly two ways: the filtration stalls, or the
completed candidate, always re-verified, fails verification; either proves a
rank-one element over the algebraic closure, so construction plus
verification decides decomposability exactly.  No other step fails on any L.

Scalars enter once and leave once.  normal_form reads the pencil's echelon
int rows (Subspace.ints) and computes on int rows from then on, with
linalg's int helpers (_echelon, _meet, _solve, _complement), the same ones
the Subspace methods wrap: residues mod p, or over Q a vector is an (int
row, scale) pair, an echelon row's scale being its pivot entry.  Fp or
Fraction entries are built only for the returned adapted basis.
verify_normal_form stays on the public scalar API, an independent re-check
of that basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import gcd

from .linalg import (Field, FieldMismatch, Subspace, _complement, _echelon,
                     _meet, _scalars, _solve, rank)


class NotConstantRankTwo(ValueError):
    """The pencil has a rank-one element over the algebraic closure."""


@dataclass(frozen=True)
class NormalForm:
    """Adapted basis and block sizes of a rank-two pencil.

    adapted_basis holds the m vectors w_1, ..., w_m grouped block by block:
    block j occupies indices o .. o + s[j] - 1, o = s[0] + ... + s[j - 1]
    (chain_offsets[j]).  The chains refer to the standard dual pair
    (alpha^1, alpha^2), which alpha returns as rows, ((1, 0), (0, 1)).
    """

    field: Field
    m: int
    r: int
    s: tuple
    adapted_basis: tuple

    @property
    def chain_offsets(self) -> tuple:
        return tuple(accumulate(self.s, initial=0))[:-1]

    @property
    def alpha(self) -> tuple:
        one, zero = self.field.one(), self.field.zero()
        return ((one, zero), (zero, one))

    def block(self, j: int) -> tuple:
        off = self.chain_offsets[j]
        return self.adapted_basis[off:off + self.s[j]]

    def chain_elements(self):
        """The spanning tensors alpha^1 (x) u - alpha^2 (x) v, as (u | -v)."""
        out = []
        for j in range(self.r):
            blk = self.block(j)
            for u, v in zip(blk, blk[1:]):
                out.append(u + tuple(-y for y in v))
        return out


def _relation_space(rows, m: int, p: int) -> list:
    """R = {(u, v) : alpha^1 (x) u - alpha^2 (x) v lies in the pencil}, as
    echelon int rows, from the pencil's int basis rows."""
    return _echelon([list(w[:m]) + [-y % p if p else -y for y in w[m:]]
                     for w in rows], p)[0]


def normal_form(pencil: Subspace) -> NormalForm:
    """Chain normal form of a rank-two pencil; NotConstantRankTwo if none.

    pencil lives in K^{2m} with the (u | v) encoding in the standard dual
    pair (alpha^1, alpha^2), which a line's frame fixes; the chains refer to
    that pair.  R, the levels V[t], the meets and the chains are int rows
    (see the module docstring).  It raises only when the filtration stalls
    or the candidate fails verify_normal_form.
    """
    field, p = pencil.field, pencil.field.p
    if pencil.ambient_dim % 2:
        raise ValueError("pencil ambient dimension must be even")
    m = pencil.ambient_dim // 2

    R = _relation_space(pencil.ints[0], m, p)
    V = ([[int(i == j) for j in range(m)] for i in range(m)], list(range(m)))
    meets = []             # R cap (V[t-1] x K^m), echelon int rows
    chain_spaces = [V]     # (echelon int rows, pivots) of each V[t]
    M = R                  # R cap (V[0] x K^m)
    while V[0]:
        nxt = _echelon([w[m:] for w in M], p)
        if len(nxt[0]) >= len(V[0]):
            raise NotConstantRankTwo(
                "chain recursion stalled at dimension %d" % len(nxt[0]))
        meets.append(M)
        chain_spaces.append(nxt)
        V = nxt
        if V[0]:
            # V only shrinks, so R cap (V x K^m) is M cap (V x K^m); the
            # right halves are never reduced
            M, _ = _meet(M, *V, m, p)

    # the level sizes dim V[t-1] - dim V[t] never grow with t
    chains_rev = []        # (int row, scale) of each block, deepest slot first
    for t in range(len(meets), 0, -1):
        below, (here, here_piv) = chain_spaces[t][0], chain_spaces[t - 1]
        if chains_rev:
            # one solve for every chain's newest v: its predecessor u applies
            # v's combination of the meet's second halves to the first halves
            M = meets[t - 1]
            heads = [ch[-1][0] for ch in chains_rev]   # in V[t]: solvable
            sols, den = _solve([w[m:] for w in M], heads, p)
            for nums, ch in zip(sols, chains_rev):
                u = [0] * m
                for c, w in zip(nums, M):
                    if c:
                        u = [a + c * b for a, b in zip(u, w)]
                if p:
                    ch.append(([a % p for a in u], 1))
                else:
                    g = gcd(*u, den * ch[-1][1])
                    ch.append(([a // g for a in u], den * ch[-1][1] // g))
        # below + predecessors is independent; keep extends it to here's basis
        keep = _complement(below + [ch[-1][0] for ch in chains_rev],
                           here_piv, p)
        chains_rev += [[(here[k], here[k][here_piv[k]])] for k in keep]

    s = tuple(len(ch) for ch in chains_rev)
    adapted = [vec for ch in chains_rev for vec in reversed(ch)]
    basis = _scalars([u for u, _ in adapted], [c for _, c in adapted], field)
    nf = NormalForm(field=field, m=m, r=len(s), s=s,
                    adapted_basis=tuple(basis))
    if not verify_normal_form(pencil, nf):
        raise NotConstantRankTwo("normal form candidate failed verification")
    return nf


def verify_normal_form(pencil: Subspace, nf: NormalForm) -> bool:
    """Exact check that nf presents the pencil as block chains."""
    m = nf.m
    if pencil.ambient_dim != 2 * m or pencil.field != nf.field:
        return False
    if nf.r != len(nf.s) or any(x < 1 for x in nf.s) or sum(nf.s) != m:
        return False
    if [len(w) for w in nf.adapted_basis] != [m] * m:
        return False
    if any(a < b for a, b in zip(nf.s, nf.s[1:])):
        return False
    if pencil.dim != m - nf.r:
        return False
    try:
        return (rank(nf.adapted_basis, nf.field) == m
                and pencil.contains_vectors(nf.chain_elements()))
    except FieldMismatch:       # the basis holds scalars of another field
        return False


def has_decomposable(pencil: Subspace) -> bool:
    """Whether the pencil has a rank-one element over the algebraic closure.

    Decided exactly by attempting the chain normal form: a verified normal
    form rules out rank-one elements over every extension, and a pencil with
    one ends in a stalled filtration or a failed verification.
    """
    try:
        normal_form(pencil)
    except NotConstantRankTwo:
        return True
    return False
