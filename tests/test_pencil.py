"""Chain normal form for pencils with no decomposable element."""

import random
from fractions import Fraction

import pytest

from fanosing.linalg import QQ, Subspace, parse_field, rank
from fanosing.pencil import (NotConstantRankTwo, has_decomposable, normal_form,
                             verify_normal_form)

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
    import dataclasses
    wrong = dataclasses.replace(nf, s=(3,), r=1, chain_offsets=(0,))
    assert not verify_normal_form(L, wrong)
