"""Chain normal form for pencils with no decomposable element."""

import dataclasses
import itertools
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from fanosing import linalg, pencil as pencil_mod
from fanosing.linalg import (QQ, Subspace, echelon_complement, kernel,
                             parse_field, rank, solve_combination, unit_vectors)
from fanosing.pencil import (NormalForm, NotConstantRankTwo, has_decomposable,
                             normal_form, verify_normal_form)
from helpers import combine

F7 = parse_field("Fp:7")
F101 = parse_field("Fp:101")
FIELDS = (QQ, F7, F101)


def F(*xs):
    return tuple(Fraction(x) for x in xs)


def test_single_chain_element():
    L = Subspace.from_vectors([F(1, 0, 0, 0, -1, 0)], QQ, 6)
    nf = normal_form(L)
    assert nf.m == 3 and nf.r == 2 and nf.s == (2, 1)
    assert nf.adapted_basis == (F(1, 0, 0), F(0, 1, 0), F(0, 0, 1))
    assert nf.chain_offsets == (0, 2)
    assert verify_normal_form(L, nf)
    assert not has_decomposable(L)


def test_rational_decomposable_stalls():
    L = Subspace.from_vectors([F(1, 0, -1, 0)], QQ, 4)
    assert has_decomposable(L)
    with pytest.raises(NotConstantRankTwo, match="stalled"):
        normal_form(L)


def test_two_element_chain():
    L = Subspace.from_vectors([F(1, 0, 0, 0, -1, 0), F(0, 1, 0, 0, 0, -1)],
                              QQ, 6)
    nf = normal_form(L)
    assert nf.s == (3,) and nf.r == 1
    assert nf.adapted_basis == (F(1, 0, 0), F(0, 1, 0), F(0, 0, 1))
    assert not has_decomposable(L)


def test_diagonal_pencil():
    L = Subspace.from_vectors([F(1, 0, 0, 1)], QQ, 4)
    nf = normal_form(L)
    assert nf.s == (2,)
    assert verify_normal_form(L, nf)


def test_zero_pencil_all_singletons():
    nf = normal_form(Subspace.zero(QQ, 6))
    assert nf.s == (1, 1, 1) and nf.r == 3


def test_empty_ambient():
    nf = normal_form(Subspace.zero(QQ, 0))
    assert nf.s == () and nf.r == 0 and nf.m == 0


def test_closure_only_decomposable_rejected():
    """Pencils whose rank-one elements exist only over the closure must
    still be rejected (the determinant form x^2 + y^2 has no root in F7)."""
    s = F7.scalar
    L = Subspace.from_vectors(
        [(s(1), s(0), s(0), s(1)), (s(0), s(1), s(-1), s(0))], F7, 4)
    assert has_decomposable(L)
    L2 = Subspace.from_vectors(
        [(s(1), s(0), s(0), s(0), s(1), s(0)),
         (s(0), s(1), s(0), s(-1), s(0), s(0))], F7, 6)
    assert has_decomposable(L2)


def _random_invertible(field, m, rng):
    while True:
        rows = [[field.scalar(rng.randint(-4, 4)) for _ in range(m)]
                for _ in range(m)]
        if rank(rows, field) == m:
            return [tuple(r) for r in rows]


def _apply_glm(L, Q, field, m):
    cols = [[Q[i][j] for i in range(m)] for j in range(m)]

    def act(vec):
        return tuple(sum((cols[i][k] * vec[k] for k in range(m)), field.zero())
                     for i in range(m))

    return Subspace.from_vectors(
        [act(w[:m]) + act(w[m:]) for w in L.basis], field, 2 * m)


def _apply_gl2(L, g, field, m):
    """Move the dual pair by g: (u | v) -> (g11 u + g12 v | g21 u + g22 v)."""
    (g11, g12), (g21, g22) = g

    def mix(a, b, w):
        return tuple(a * u + b * v for u, v in zip(w[:m], w[m:]))

    return Subspace.from_vectors(
        [mix(g11, g12, w) + mix(g21, g22, w) for w in L.basis], field, 2 * m)


def _random_chain_pencil(field, m, rng):
    basis = _random_invertible(field, m, rng)
    sizes = []
    left = m
    while left:
        k = rng.randint(1, left)
        sizes.append(k)
        left -= k
    sizes.sort(reverse=True)
    vecs = []
    idx = 0
    for k in sizes:
        blk = basis[idx:idx + k]
        idx += k
        for u, v in zip(blk, blk[1:]):
            vecs.append(tuple(u) + tuple(-y for y in v))
    L = Subspace.from_vectors(vecs, field, 2 * m) if vecs \
        else Subspace.zero(field, 2 * m)
    return L, tuple(sizes)


def test_random_round_trips_recover_partition():
    """Planting chains over a random basis, transporting by GL(K^m), or
    moving the dual pair by GL_2 never changes the recovered block sizes."""
    rng = random.Random(11)
    for trial in range(150):
        field = FIELDS[trial % 3]
        m = rng.randint(1, 6)
        L, sizes = _random_chain_pencil(field, m, rng)
        nf = normal_form(L)
        assert nf.s == sizes, (trial, nf.s, sizes)
        assert verify_normal_form(L, nf)
        Q = _random_invertible(field, m, rng)
        LQ = _apply_glm(L, Q, field, m)
        nfQ = normal_form(LQ)
        assert nfQ.s == sizes
        assert verify_normal_form(LQ, nfQ)
        g = _random_invertible(field, 2, rng)
        Lg = _apply_gl2(L, g, field, m)
        nfA = normal_form(Lg)
        assert nfA.s == sizes
        assert verify_normal_form(Lg, nfA)


def test_decomposable_salting_always_rejected():
    rng = random.Random(5)
    rejected = 0
    for trial in range(120):
        field = FIELDS[trial % 3]
        m = rng.randint(2, 6)
        x = [field.scalar(rng.randint(-3, 3)) for _ in range(2)]
        y = [field.scalar(rng.randint(-3, 3)) for _ in range(m)]
        if not any(x) or not any(y):
            continue
        dec = tuple(x[0] * c for c in y) + tuple(x[1] * c for c in y)
        vecs = [dec]
        for _ in range(rng.randint(0, m - 2)):
            vecs.append(tuple(field.scalar(rng.randint(-3, 3))
                              for _ in range(2 * m)))
        L = Subspace.from_vectors(vecs, field, 2 * m)
        assert has_decomposable(L), (trial, L.basis)
        rejected += 1
    assert rejected > 80


def test_verify_rejects_wrong_partition():
    L = Subspace.from_vectors([F(1, 0, 0, 0, -1, 0)], QQ, 6)
    nf = normal_form(L)
    wrong = dataclasses.replace(nf, s=(3,), r=1)
    assert not verify_normal_form(L, wrong)


def test_verify_returns_false_on_malformed_shapes():
    """Adapted vectors of length m + 1, a ragged adapted basis and an F_7
    basis with Fraction entries are answered False, not raised on."""
    L = Subspace.from_vectors([F(1, 0, 0, 0, -1, 0)], QQ, 6)
    nf = normal_form(L)
    basis = nf.adapted_basis
    for bad in (
            dataclasses.replace(nf, adapted_basis=tuple(w + F(0)
                                                        for w in basis)),
            dataclasses.replace(nf, adapted_basis=basis[:2] + (F(0, 0),)),
            dataclasses.replace(nf, adapted_basis=basis[:2] + (F(0, 0, 1, 0),)),
    ):
        assert verify_normal_form(L, bad) is False
    L7 = Subspace.from_vectors([(1, 0, 0, 0, -1, 0)], F7, 6)
    nf7 = normal_form(L7)
    assert nf7.s == (2, 1) and verify_normal_form(L7, nf7)
    assert verify_normal_form(
        L7, dataclasses.replace(nf7, adapted_basis=basis)) is False


def _reference_normal_form(pencil):
    """The chain normal form on the public scalar Subspace API: the same
    filtration and backward pass as normal_form, with Subspace.meet,
    solve_combination, combine and echelon_complement on Fp/Fraction
    entries.  The reference for the int implementation."""
    field = pencil.field
    if pencil.ambient_dim % 2:
        raise ValueError("pencil ambient dimension must be even")
    m = pencil.ambient_dim // 2
    R = Subspace.from_vectors([w[:m] + tuple(-y for y in w[m:])
                               for w in pencil.basis], field, 2 * m)
    V = Subspace.full(field, m)
    levels_dim, meets, chain_spaces = [], [], [V]
    while V.dim:
        prod = Subspace(field, 2 * m, tuple(
            [v + (field.zero(),) * m for v in V.basis]
            + unit_vectors(field, 2 * m, range(m, 2 * m))))
        M = R.meet(prod)
        nxt = Subspace.from_vectors([w[m:] for w in M.basis], field, m)
        if nxt.dim >= V.dim:
            raise NotConstantRankTwo(
                "chain recursion stalled at dimension %d" % nxt.dim)
        meets.append(M)
        levels_dim.append(V.dim - nxt.dim)
        chain_spaces.append(nxt)
        V = nxt
    for a, b in zip(levels_dim, levels_dim[1:]):
        if a < b:
            raise NotConstantRankTwo(
                "level sizes are not monotone; no block decomposition")
    chains_rev, current, level_vecs = [], [], []
    for t in range(len(levels_dim), 0, -1):
        below, here, M = chain_spaces[t], chain_spaces[t - 1], meets[t - 1]
        second = [w[m:] for w in M.basis]
        preds = []
        for v in level_vecs:
            coeffs = solve_combination(second, v, field)
            if coeffs is None:
                raise NotConstantRankTwo("chain predecessor missing")
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
    nf = NormalForm(field=field, m=m, r=len(blocks),
                    s=tuple(len(b) for b in blocks),
                    adapted_basis=tuple(v for b in blocks for v in b))
    if not verify_normal_form(pencil, nf):
        raise NotConstantRankTwo("normal form candidate failed verification")
    return nf


@st.composite
def _planted_case(draw):
    """A chain pencil with a drawn partition of m <= 8 over Q (fractional
    entries), F_2, F_3, F_7 or F_101, in a random basis L U, its dual pair
    moved by GL_2; optionally salted with a rank-one element or a random
    vector.  Or, with no planting, the span of up to m + 1 random vectors
    of K^(2m)."""
    field = draw(st.sampled_from([QQ] + [parse_field("Fp:%d" % p)
                                         for p in (2, 3, 7, 101)]))
    if field.p:
        entry = st.builds(field.scalar, st.integers(0, field.p - 1))
        unit = st.builds(field.scalar, st.integers(1, field.p - 1))
    else:
        entry = st.builds(Fraction, st.integers(-9, 9),
                          st.sampled_from([1, 2, 3, 4, 7]))
        unit = entry.filter(bool)
    m = draw(st.integers(0, 8))
    if draw(st.booleans()):
        return Subspace.from_vectors(
            [tuple(draw(entry) for _ in range(2 * m))
             for _ in range(draw(st.integers(0, m + 1)))], field, 2 * m)
    sizes, left = [], m
    while left:
        sizes.append(draw(st.integers(1, left)))
        left -= sizes[-1]
    sizes.sort(reverse=True)
    low = [[draw(entry) if j < i else field.scalar(int(i == j))
            for j in range(m)] for i in range(m)]
    up = [[draw(unit) if j == i else draw(entry) if j > i else field.zero()
           for j in range(m)] for i in range(m)]
    basis = [tuple(sum((low[i][k] * up[k][j] for k in range(m)), field.zero())
                   for j in range(m)) for i in range(m)]
    vecs, idx = [], 0
    for k in sizes:
        blk = basis[idx:idx + k]
        idx += k
        vecs.extend(u + tuple(-y for y in v) for u, v in zip(blk, blk[1:]))
    salt = draw(st.sampled_from(["none", "rank-one", "random"])) if m else "none"
    if salt == "rank-one":
        y = [draw(entry) for _ in range(m)]
        y[draw(st.integers(0, m - 1))] = draw(unit)
        a, b = draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (2, -3)]))
        vecs.append(tuple(a * c for c in y) + tuple(b * c for c in y))
    elif salt == "random":
        vecs.append(tuple(draw(entry) for _ in range(2 * m)))
    a, b, c, d = (draw(entry) for _ in range(4))
    if a * d - b * c:
        vecs = [tuple(a * u + b * v for u, v in zip(w[:m], w[m:]))
                + tuple(c * u + d * v for u, v in zip(w[:m], w[m:]))
                for w in vecs]
    return Subspace.from_vectors(vecs, field, 2 * m)


def _outcome(fn, pencil):
    try:
        nf = fn(pencil)
    except NotConstantRankTwo as e:
        return "NotConstantRankTwo: %s" % e, None
    return repr(nf), nf


@settings(max_examples=400, deadline=None)
@given(_planted_case())
def test_int_normal_form_matches_scalar_reference(pencil):
    """normal_form on int rows gives the same NormalForm as the scalar
    reference, or raises NotConstantRankTwo with the same message.  The
    reference keeps the monotone, missing-predecessor and collapse guards
    that normal_form lacks: an input reaching one would show here as a
    message mismatch."""
    got, got_nf = _outcome(normal_form, pencil)
    want, want_nf = _outcome(_reference_normal_form, pencil)
    assert got == want
    assert got_nf == want_nf


def _partitions(m, largest=None):
    largest = m if largest is None else largest
    if not m:
        return [()]
    return [(k,) + rest for k in range(min(m, largest), 0, -1)
            for rest in _partitions(m - k, k)]


def _integer_chain_pencil(sizes, rng):
    """Integer generators (u | -v) of chains with the given block sizes in
    the basis L U, for random unit lower and upper triangular integer L and
    U, the dual pair moved by ((1, a), (b, 1 + a b)).  Every matrix has
    determinant 1, so the planting is invertible over Q and every F_p."""
    m = sum(sizes)
    low = [[rng.randint(-9, 9) if j < i else int(i == j) for j in range(m)]
           for i in range(m)]
    up = [[rng.randint(-9, 9) if j > i else int(i == j) for j in range(m)]
          for i in range(m)]
    basis = [[sum(low[i][k] * up[k][j] for k in range(m)) for j in range(m)]
             for i in range(m)]
    vecs, idx = [], 0
    for k in sizes:
        blk = basis[idx:idx + k]
        idx += k
        vecs.extend(u + [-y for y in v] for u, v in zip(blk, blk[1:]))
    a, b = rng.randint(-5, 5), rng.randint(-5, 5)
    return [[x + a * y for x, y in zip(w[:m], w[m:])]
            + [b * x + (1 + a * b) * y for x, y in zip(w[:m], w[m:])]
            for w in vecs]


def _pencil_over(field, vecs, m):
    return Subspace.from_vectors(
        [tuple(field.scalar(x) for x in w) for w in vecs], field, 2 * m)


def test_q_and_its_reductions_give_the_same_blocks():
    """Planted integer chain pencils over Q and reduced mod 7 and mod 101
    give the planted block sizes in all three fields, for every partition
    of m <= 6."""
    rng = random.Random(9)
    for m in range(7):
        for sizes in _partitions(m):
            for _ in range(2):
                vecs = _integer_chain_pencil(sizes, rng)
                got = [normal_form(_pencil_over(field, vecs, m)).s
                       for field in FIELDS]
                assert got == [sizes] * 3, (sizes, got)


@pytest.mark.parametrize("field", [QQ, F7], ids=str)
def test_eliminations_per_normal_form_are_bounded(field):
    """One normal_form on a planted pencil with largest block T runs at most
    4T + 2 echelon passes (R, then per level one for V[t], one meet, one
    solve and one complement, then the verifying rank), and
    linalg.kernel runs exactly one."""
    calls = []
    real = linalg._echelon

    def counting(mat, p):
        calls.append(len(mat))
        return real(mat, p)

    rng = random.Random(13)
    pencils = [(sizes, _pencil_over(field, _integer_chain_pencil(sizes, rng),
                                    m))
               for m in range(1, 7) for sizes in _partitions(m)]
    with mock.patch.object(linalg, "_echelon", counting), \
            mock.patch.object(pencil_mod, "_echelon", counting):
        over = []
        for sizes, L in pencils:
            calls.clear()
            assert normal_form(L).s == sizes
            if len(calls) > 4 * sizes[0] + 2:
                over.append((sizes, len(calls)))
        assert not over
        for sizes, L in pencils:
            calls.clear()
            m = sum(sizes)
            kernel([row[:m] for row in L.basis], field, m)
            assert len(calls) == 1


@settings(max_examples=300, deadline=None)
@given(_planted_case())
def test_each_incremental_meet_is_the_meet_with_R(pencil):
    """normal_form meets the previous meet with V[t] x K^m instead of R; on
    planted pencils, with or without a rank-one element, and on arbitrary
    subspaces, the t-th such meet is R cap (V[t] x K^m), with R and the
    levels V[t] = p_2(R cap (V[t-1] x K^m)) from V[1] = p_2(R) on the scalar
    Subspace API.  The level sizes dim V[t-1] - dim V[t] never grow with t,
    up to and including a stall."""
    field = pencil.field
    m = pencil.ambient_dim // 2
    R = Subspace.from_vectors([w[:m] + tuple(-y for y in w[m:])
                               for w in pencil.basis], field, 2 * m)
    seen = []

    def recording(xs, rows, pivots, n, p):
        out = linalg._meet(xs, rows, pivots, n, p)
        seen.append(Subspace._of(field, 2 * m, *out))
        return out

    with mock.patch.object(pencil_mod, "_meet", recording):
        try:
            normal_form(pencil)
        except NotConstantRankTwo:
            pass
    M, dims, meets = R, [m], []
    while True:
        V = Subspace.from_vectors([w[m:] for w in M.basis], field, m)
        dims.append(V.dim)
        if not V.dim or V.dim >= dims[-2]:      # done, or stalled
            break
        M = R.meet(Subspace(field, 2 * m, tuple(
            [v + (field.zero(),) * m for v in V.basis]
            + unit_vectors(field, 2 * m, range(m, 2 * m)))))
        meets.append(M)
    assert seen == meets
    sizes = [a - b for a, b in zip(dims, dims[1:])]
    assert all(a >= b for a, b in zip(sizes, sizes[1:])), dims


def _rref_subspaces(n, k):
    """Every k-dimensional subspace of F_2^n exactly once, as its RREF rows:
    pivot columns, then every filling of the entries right of a pivot that
    lie in no pivot column."""
    for pivots in itertools.combinations(range(n), k):
        free = [(i, j) for i, c in enumerate(pivots) for j in range(c + 1, n)
                if j not in pivots]
        for bits in itertools.product((0, 1), repeat=len(free)):
            rows = [[int(j == c) for j in range(n)] for c in pivots]
            for (i, j), b in zip(free, bits):
                rows[i][j] = b
            yield rows


def _f2_rank_one(rows, m):
    """Whether some nonzero (u | v) in the F_2-span of rows has u and v
    proportional: u = 0, v = 0 or u = v."""
    for cs in itertools.product((0, 1), repeat=len(rows)):
        if any(cs):
            w = [sum(c * x for c, x in zip(cs, col)) % 2 for col in zip(*rows)]
            if not any(w[:m]) or not any(w[m:]) or w[:m] == w[m:]:
                return True
    return False


def test_exhaustive_small_pencils_over_f2():
    """Every subspace L of F_2^(2m) with m <= 3 and dim L <= m (2,110 for
    m = 3).  A nonzero (u | v) in L with u, v proportional is a rank-one
    element, and normal_form must raise on it; a normal form it returns
    verifies, has chain offsets the prefix sums of s, and equals the
    scalar reference.  normal_form raises only when the filtration stalls
    or the candidate fails verification; the reference's three further
    guards (monotone level sizes, a missing predecessor, collapsing
    predecessors) are unreachable, so every message agrees."""
    F2 = parse_field("Fp:2")
    outcomes = {"normal form": 0, "raised": 0}
    for m in range(1, 4):
        n = 2 * m
        subspaces = [rows for k in range(m + 1)
                     for rows in _rref_subspaces(n, k)]
        if m == 3:
            assert len(subspaces) == 2110
        for rows in subspaces:
            L = Subspace.from_vectors([tuple(map(F2.scalar, w)) for w in rows],
                                      F2, n)
            got, nf = _outcome(normal_form, L)
            assert got == _outcome(_reference_normal_form, L)[0]
            if nf is None:
                outcomes["raised"] += 1
                continue
            outcomes["normal form"] += 1
            assert not _f2_rank_one(rows, m), rows
            assert verify_normal_form(L, nf)
            assert nf.chain_offsets == tuple(sum(nf.s[:j])
                                             for j in range(nf.r))
    assert min(outcomes.values()) > 100, outcomes
