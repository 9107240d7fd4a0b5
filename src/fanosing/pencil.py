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
V[t-1]/V[t] counts the blocks of size >= t, and chains are assembled deepest
slot first by solving for predecessors inside R.  A completed candidate is
always re-verified; verification failure (or a stalled filtration) proves a
rank-one element exists over the algebraic closure, so construction plus
verification decides decomposability exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import (Field, Subspace, combine, echelon_complement, rank,
                     solve_combination, unit_vectors)


class NotConstantRankTwo(ValueError):
    """The pencil has a rank-one element over the algebraic closure."""


@dataclass(frozen=True)
class NormalForm:
    """Adapted basis and block sizes of a rank-two pencil.

    adapted_basis holds the m vectors w_1, ..., w_m grouped block by block;
    block j occupies indices chain_offsets[j] .. chain_offsets[j] + s[j] - 1.
    The chains refer to the standard dual pair (alpha^1, alpha^2), which
    alpha returns as rows, ((1, 0), (0, 1)).
    """

    field: Field
    m: int
    r: int
    s: tuple
    adapted_basis: tuple
    chain_offsets: tuple

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


def _relation_space(pencil: Subspace, m: int) -> Subspace:
    """R = {(u, v) : alpha^1 (x) u - alpha^2 (x) v lies in the pencil}."""
    vecs = [w[:m] + tuple(-y for y in w[m:]) for w in pencil.basis]
    return Subspace.from_vectors(vecs, pencil.field, 2 * m)


def _product_with_full(left: Subspace, m: int) -> Subspace:
    # rows (v | 0), then unit rows on the right half: already in RREF
    field = left.field
    vecs = [v + (field.zero(),) * m for v in left.basis]
    vecs += unit_vectors(field, 2 * m, range(m, 2 * m))
    return Subspace(field, 2 * m, tuple(vecs))


def _second_block_image(space: Subspace, m: int) -> Subspace:
    return Subspace.from_vectors([w[m:] for w in space.basis], space.field, m)


def normal_form(pencil: Subspace) -> NormalForm:
    """Chain normal form of a rank-two pencil; NotConstantRankTwo if none.

    pencil lives in K^{2m} with the (u | v) encoding in the standard dual
    pair (alpha^1, alpha^2), which a line's frame fixes; the chains refer to
    that pair.
    """
    field = pencil.field
    if pencil.ambient_dim % 2:
        raise ValueError("pencil ambient dimension must be even")
    m = pencil.ambient_dim // 2

    R = _relation_space(pencil, m)
    V = Subspace.full(field, m)
    levels_dim = []        # dim V[t-1] - dim V[t] for t = 1, 2, ...
    meets = []             # R cap (V[t-1] x K^m)
    chain_spaces = [V]
    while V.dim:
        M = R.meet(_product_with_full(V, m))
        nxt = _second_block_image(M, m)
        if nxt.dim >= V.dim:
            raise NotConstantRankTwo(
                "chain recursion stalled at dimension %d" % nxt.dim)
        meets.append(M)
        levels_dim.append(V.dim - nxt.dim)
        chain_spaces.append(nxt)
        V = nxt

    T = len(levels_dim)
    for a, b in zip(levels_dim, levels_dim[1:]):
        if a < b:
            raise NotConstantRankTwo(
                "level sizes are not monotone; no block decomposition")

    chains_rev = []        # vectors of each block, deepest slot first
    current = []           # chain index of each vector in the current level
    level_vecs = []
    for t in range(T, 0, -1):
        below, here = chain_spaces[t], chain_spaces[t - 1]
        M = meets[t - 1]
        second = [w[m:] for w in M.basis]
        preds = []
        for v in level_vecs:
            coeffs = solve_combination(second, v, field)
            if coeffs is None:
                raise NotConstantRankTwo("chain predecessor missing")
            # combine reads the first m entries of each (u | v) basis vector
            preds.append(combine(field, m, coeffs, M.basis))
        inner = below.join(Subspace.from_vectors(preds, field, m)) \
            if preds else below
        if inner.dim != below.dim + len(preds):
            raise NotConstantRankTwo(
                "chain predecessors collapse; no block decomposition")
        new_heads = echelon_complement(inner, here)
        for i, vec in enumerate(preds):
            chains_rev[current[i]].append(vec)
        ids = list(current)
        for vec in new_heads:
            chains_rev.append([vec])
            ids.append(len(chains_rev) - 1)
        level_vecs = preds + list(new_heads)
        current = ids

    blocks = [tuple(reversed(ch)) for ch in chains_rev]
    s = tuple(len(b) for b in blocks)
    offsets, adapted, off = [], [], 0
    for b in blocks:
        offsets.append(off)
        adapted.extend(b)
        off += len(b)
    nf = NormalForm(field=field, m=m, r=len(blocks), s=s,
                    adapted_basis=tuple(adapted),
                    chain_offsets=tuple(offsets))
    if not verify_normal_form(pencil, nf):
        raise NotConstantRankTwo("normal form candidate failed verification")
    return nf


def verify_normal_form(pencil: Subspace, nf: NormalForm) -> bool:
    """Exact check that nf presents the pencil as block chains."""
    m = nf.m
    if pencil.ambient_dim != 2 * m or pencil.field != nf.field:
        return False
    if nf.r != len(nf.s) or len(nf.adapted_basis) != m:
        return False
    if any(x < 1 for x in nf.s) or sum(nf.s) != m:
        return False
    if any(a < b for a, b in zip(nf.s, nf.s[1:])):
        return False
    if pencil.dim != m - nf.r:
        return False
    if rank(nf.adapted_basis, nf.field) != m:
        return False
    return pencil.contains_vectors(nf.chain_elements())


def has_decomposable(pencil: Subspace) -> bool:
    """Whether the pencil has a rank-one element over the algebraic closure.

    Decided exactly by attempting the chain normal form: a verified normal
    form rules out rank-one elements over every extension, and every failure
    mode certifies one.
    """
    try:
        normal_form(pencil)
    except NotConstantRankTwo:
        return True
    return False
