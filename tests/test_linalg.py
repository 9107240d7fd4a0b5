"""Exact linear algebra: row reduction, subspaces, meet/join, complements."""

import dataclasses
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from fanosing.ideal import ideal_degree_piece
from fanosing.linalg import (QQ, Field, FieldMismatch, Fp, Subspace, _echelon,
                             _heads, _ints, _kernel, _meet, _null_space,
                             _reduce, _scalars, _solve, echelon_complement,
                             kernel, parse_field, rank, rref,
                             solve_combination, unit_vectors)
from fanosing.singular import analyze_line
from fanosing.tangent import LineFrame
from helpers import combine, moved, planted

F5 = parse_field("Fp:5")
F7 = parse_field("Fp:7")


def F(*xs):
    return tuple(Fraction(x) for x in xs)


def test_fp_arithmetic():
    a = Fp(3, 7)
    b = Fp(5, 7)
    assert a + b == Fp(1, 7)
    assert a * b == Fp(1, 7)
    assert -a == Fp(4, 7)
    assert a / b == a * Fp(3, 7)  # 5^-1 = 3 mod 7
    assert a ** 6 == Fp(1, 7)
    assert bool(Fp(0, 7)) is False
    with pytest.raises(ZeroDivisionError):
        a / Fp(0, 7)


def test_fp_reflected_and_refusing_operators():
    """An int on the left goes through __rsub__/__rtruediv__; a Fraction,
    a float or None on either side is refused, never converted."""
    assert 3 - Fp(5, 7) == Fp(5, 7)
    assert 1 / Fp(3, 7) == Fp(5, 7)
    with pytest.raises(FieldMismatch):
        Fraction(1, 2) + Fp(1, 7)
    with pytest.raises(FieldMismatch):
        Fp(1, 7) * 0.5
    with pytest.raises(FieldMismatch):
        Fp(1, 7) - None


def test_field_scalar_coercion():
    assert QQ.scalar("3/4") == Fraction(3, 4)
    assert QQ.scalar(2) == Fraction(2)
    assert F7.scalar(-1) == Fp(6, 7)
    assert F7.scalar("3") == Fp(3, 7)
    with pytest.raises(FieldMismatch):
        QQ.strict(Fp(1, 7))
    with pytest.raises(FieldMismatch):
        F7.strict(Fraction(1, 2))
    with pytest.raises(FieldMismatch, match="Fp:7 vs Fp:11"):
        Fp(1, 7) == Fp(1, 11)
    with pytest.raises(FieldMismatch, match="Fp:7 vs Fp:11"):
        Fp(1, 7) + Fp(1, 11)


_P61 = 2**61 - 1
_LADDER_VALUES = [0, 1, -7, 2**70, True, False,
                  Fraction(3, 4), Fraction(-9, 7), Fraction(5, _P61),
                  Fraction(6, 3), Fp(1, 2), Fp(4, 7), Fp(_P61 - 1, _P61),
                  Fp(2, 3), "3/4", "-9/7", "12", 1.5, 0.0, None]


@pytest.mark.parametrize("field", [QQ, Field(2), F7, Field(_P61)], ids=str)
def test_scalar_is_strict_after_two_conversions(field):
    """scalar and strict agree on every value strict accepts and refuse
    every scalar of another field; only scalar reads strings and maps
    Fractions into F_p, and a value of no field gets strict's message."""
    p = field.p
    both = (field.scalar, field.strict)
    for x in _LADDER_VALUES:
        if x is None or isinstance(x, float):
            for coerce in both:
                with pytest.raises(FieldMismatch, match="does not live in"):
                    coerce(x)
        elif isinstance(x, Fp) and x.p != p:
            for coerce in both:
                with pytest.raises(FieldMismatch, match="field mismatch"):
                    coerce(x)
        elif isinstance(x, str) or (p and isinstance(x, Fraction)):
            with pytest.raises(FieldMismatch, match="does not live in"):
                field.strict(x)
            q = Fraction(x)
            if p and q.denominator % p == 0:
                with pytest.raises(FieldMismatch, match="divisible by %d" % p):
                    field.scalar(x)
            else:
                got = field.scalar(x)
                assert got == (Fp(q.numerator * pow(q.denominator, -1, p), p)
                               if p else q)
                assert type(got) is (Fp if p else Fraction)
        else:
            got = field.strict(x)
            assert type(got) is (Fp if p else Fraction)
            assert got == (x if isinstance(x, Fp) else
                           Fp(int(x), p) if p else Fraction(x))
            assert field.scalar(x) == got and type(field.scalar(x)) is type(got)
    for text in ("x", "1/0"):
        with pytest.raises(ValueError) as err:
            field.scalar(text)
        assert not isinstance(err.value, FieldMismatch)
        with pytest.raises(FieldMismatch, match="does not live in"):
            field.strict(text)


def test_parse_field():
    assert parse_field("Q") == QQ
    assert parse_field("Fp:11").p == 11
    assert parse_field("Fp 11").p == 11
    with pytest.raises(ValueError):
        parse_field("Fp:10")
    # Fp:0 must not fall through to Q, nor a negative p to anything
    for spec in ("Fp:0", "Fp 0", "Fp:1", "Fp:-7"):
        with pytest.raises(ValueError, match="needs a prime characteristic"):
            parse_field(spec)
    # 1763 = 41 * 43 has no factor <= 37: only Miller-Rabin refuses it
    for make in (lambda: Field(1763), lambda: parse_field("Fp:1763")):
        with pytest.raises(ValueError,
                           match="characteristic must be 0 or a prime"):
            make()
    with pytest.raises(ValueError, match=r"characteristic must be <= 2\*\*61"):
        Field(2**61 + 1)


def test_rref_canonical():
    mat, pivots = rref([F(2, 4, 6), F(1, 2, 4)], QQ)
    assert mat == [F(1, 2, 0), F(0, 0, 1)]
    assert pivots == [0, 2]
    assert rank([F(2, 4, 6), F(1, 2, 4)], QQ) == 2


def _gauss_jordan(rows, field):
    """Reference RREF: textbook Gauss-Jordan on Fraction / Fp scalars."""
    mat = [list(field.vector(r)) for r in rows]
    pivots, r = [], 0
    for c in range(len(mat[0])):
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = field.one() / mat[r][c]
        mat[r] = [inv * x for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return [tuple(row) for row in mat[:r]], pivots


@st.composite
def _rref_case(draw):
    """A field and a matrix over it with dependent, repeated and zero rows,
    zero columns, and tall, wide and 1 x n shapes; entries are a mix of
    ints and field scalars."""
    field = draw(st.sampled_from([QQ, Field(2), F7, Field(2 ** 61 - 1)]))
    small = st.integers(-2, 2)
    if field.p:
        big = st.integers(-field.p, 2 * field.p)
    else:
        big = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
                        st.integers(1, 10 ** 6))
    entry = st.one_of(small, big)
    nrows, ncols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    rows = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    for c in draw(st.sets(st.integers(0, ncols - 1), max_size=2)):
        for row in rows:
            row[c] = 0
    for _ in range(draw(st.integers(0, 3))):
        src = draw(st.integers(0, len(rows) - 1))
        kind = draw(st.sampled_from(["repeat", "multiple", "sum", "zero"]))
        if kind == "repeat":
            new = list(rows[src])
        elif kind == "multiple":
            k = draw(big)
            new = [k * x for x in rows[src]]
        elif kind == "sum":
            new = [x + y for x, y in zip(rows[src], rows[-1])]
        else:
            new = [0] * ncols
        rows.insert(draw(st.integers(0, len(rows))), new)
    as_scalar = draw(st.lists(st.booleans(), min_size=len(rows),
                              max_size=len(rows)))
    return field, [tuple(field.scalar(x) for x in row) if conv else tuple(row)
                   for row, conv in zip(rows, as_scalar)]


@settings(max_examples=300, deadline=None)
@given(_rref_case())
def test_rref_matches_gauss_jordan(case):
    field, rows = case
    got, pivots = rref(rows, field)
    want, want_pivots = _gauss_jordan(rows, field)
    assert pivots == want_pivots
    assert got == want
    for row in got:
        for x in row:
            if field.p:
                assert type(x) is Fp and x.p == field.p
            else:
                assert type(x) is Fraction


def test_rref_rejects_foreign_and_ragged():
    with pytest.raises(FieldMismatch):
        rref([(F7.one(), Fraction(1, 2))], F7)
    with pytest.raises(FieldMismatch):
        rref([(F7.one(),), (Fp(1, 5),)], F7)
    with pytest.raises(FieldMismatch):
        rref([F(1, 2), (Fraction(1), Fp(1, 7))], QQ)
    with pytest.raises(ValueError, match="ragged matrix"):
        rref([F(1, 2), F(1)], QQ)
    with pytest.raises(ValueError, match="ragged matrix"):
        rref([(F7.one(),), (F7.one(), F7.zero())], F7)
    # a short or long row in the other entry points' systems
    for rows, target in (([(1, 0), (0, 1, 5)], (1, 1)),
                         ([(1, 0, 0), (0, 1)], (1, 1, 0))):
        with pytest.raises(ValueError, match="ragged matrix"):
            solve_combination(rows, target, QQ)
    with pytest.raises(ValueError, match="ragged matrix"):
        Subspace.from_vectors([F(1, 0, 0), F(0, 1)], QQ)
    with pytest.raises(ValueError, match="ragged matrix"):
        Subspace.from_vectors([F(1, 0)], QQ, 3)
    with pytest.raises(ValueError, match="ragged matrix"):
        Subspace.full(F7, 3).contains_vectors([(1, 0, 0), (1, 0)])


def test_kernel_frozen():
    K = kernel([F(1, 2, 3), F(4, 5, 6)], QQ)
    assert K.basis == (F(1, -2, 1),)
    assert K.contains_vectors([F(2, -4, 2)])
    assert not K.contains_vectors([F(1, 0, 0)])


def _scalar_kernel(rows, field, ncols):
    """Reference null space: the null vectors of the Gauss-Jordan RREF on
    field scalars, one per free column, re-echeloned by from_vectors."""
    red, pivots = _gauss_jordan(rows, field) if rows else ([], [])
    vecs = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [field.zero()] * ncols
        v[f] = field.one()
        for row, c in zip(red, pivots):
            v[c] = -row[f]
        vecs.append(v)
    return Subspace.from_vectors(vecs, field, ncols)


@settings(max_examples=300, deadline=None)
@given(_rref_case())
def test_kernel_matches_scalar_null_space(case):
    field, rows = case
    ncols = len(rows[0])
    K = kernel(rows, field)
    assert K == _scalar_kernel(rows, field, ncols)
    assert K.dim == ncols - rank(rows, field)
    for row in K.basis:
        assert all(type(x) is (Fp if field.p else Fraction) for x in row)
    assert kernel([], field, ncols) == Subspace.full(field, ncols)


def test_kernel_rejects_ragged_and_missing_ncols():
    with pytest.raises(ValueError, match="ragged matrix"):
        kernel([F(1, 2), F(1)], QQ)
    with pytest.raises(ValueError, match="ragged matrix"):
        kernel([F(1, 2)], QQ, ncols=3)
    with pytest.raises(ValueError, match="ncols required"):
        kernel([], QQ)
    with pytest.raises(FieldMismatch):
        kernel([(F7.one(), Fraction(1, 2))], F7)


def test_subspace_canonical_under_presentation():
    U = Subspace.from_vectors([F(2, 4, 0), F(0, 0, 3)], QQ, 3)
    V = Subspace.from_vectors([F(1, 2, 3), F(1, 2, 0)], QQ, 3)
    assert U == V
    assert U.basis == (F(1, 2, 0), F(0, 0, 1))
    assert hash(U) == hash(V)


def test_meet_join_frozen():
    U = Subspace.from_vectors([F(1, 0, 0), F(0, 1, 0)], QQ, 3)
    V = Subspace.from_vectors([F(0, 1, 0), F(0, 0, 1)], QQ, 3)
    assert U.meet(V).basis == (F(0, 1, 0),)
    assert U.join(V) == Subspace.full(QQ, 3)
    assert U.contains_subspace(U.meet(V))


def _random_subspace(rng, field, ncols):
    k = rng.randint(0, ncols)
    vecs = [tuple(field.scalar(rng.randint(0, 4)) for _ in range(ncols))
            for _ in range(k)]
    return Subspace.from_vectors(vecs, field, ncols)


def test_meet_join_dimension_formula():
    rng = random.Random(3)
    for _ in range(200):
        U = _random_subspace(rng, F5, 5)
        V = _random_subspace(rng, F5, 5)
        assert U.meet(V).dim + U.join(V).dim == U.dim + V.dim
        assert U.join(V).contains_subspace(U)
        assert U.contains_subspace(U.meet(V))


@st.composite
def _subspace_pair(draw):
    field = draw(st.sampled_from([QQ, parse_field("Fp:2"), F7]))
    n = draw(st.integers(1, 6))

    def subspace():
        rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n,
                                      max_size=n), max_size=n + 1))
        return Subspace.from_vectors(
            [tuple(field.scalar(x) for x in row) for row in rows], field, n)

    return field, n, subspace(), subspace()


@settings(max_examples=300, deadline=None)
@given(_subspace_pair())
def test_meet_and_product_rows_are_canonical(case):
    """meet returns its left kernel's combinations with no echelon pass
    after them, and the product A x K^n is its (v | 0) and unit rows
    without a second rref: both must already be the canonical echelon
    basis.  The meet lies in both inputs
    with the dimension formula.  _meet of rows of K^(2n) with A's rows is
    the meet with that product, which pencil.normal_form takes without
    building the product."""
    field, n, A, B = case
    M = A.meet(B)
    assert M == Subspace.from_vectors(M.basis, field, n)
    assert A.contains_subspace(M) and B.contains_subspace(M)
    assert M.dim == A.dim + B.dim - A.join(B).dim
    prod = Subspace(field, 2 * n, tuple(
        [v + (field.zero(),) * n for v in A.basis]
        + unit_vectors(field, 2 * n, range(n, 2 * n))))
    assert prod == Subspace.from_vectors(prod.basis, field, 2 * n)
    assert prod.dim == A.dim + n
    wide = Subspace.from_vectors(
        [b + a for b, a in zip(B.basis, A.basis)]
        + [a + b for a, b in zip(A.basis[1:], B.basis)], field, 2 * n)
    rows, piv = _meet(_ints(wide.basis, field)[0], *A.ints, n, field.p)
    got = Subspace(field, 2 * n, tuple(_scalars(rows, _heads(rows, piv), field)))
    assert got == wide.meet(prod)


def _zassenhaus_meet(A, B):
    """Reference intersection: RREF of the rows (a | a) and (b | 0); the rows
    with zero left half end the RREF, and their right halves span the meet."""
    n, zero = A.ambient_dim, A.field.zero()
    block = [list(v) + list(v) for v in A.basis]
    block += [list(v) + [zero] * n for v in B.basis]
    red, _ = rref(block, A.field)
    return Subspace(A.field, n, tuple(row[n:] for row in red if not any(row[:n])))


@st.composite
def _related_pair(draw):
    """Two subspaces of K^n: unrelated, zero, full, equal or nested, in
    either order.  Over Q the generators have entries a/b with b | 12, so
    the integer rows met in reduction have pivots sharing factors."""
    field = draw(st.sampled_from([QQ, parse_field("Fp:2"), F7]))
    n = draw(st.integers(1, 6))
    if field.p:
        entry = st.integers(-3, 3)
    else:
        entry = st.builds(Fraction, st.integers(-12, 12),
                          st.sampled_from([1, 2, 3, 4, 6, 12]))

    def vectors(k):
        return [tuple(field.scalar(draw(entry)) for _ in range(n))
                for _ in range(k)]

    def subspace():
        return Subspace.from_vectors(vectors(draw(st.integers(0, n + 1))),
                                     field, n)

    A = subspace()
    kind = draw(st.sampled_from(["random", "zero", "full", "equal", "nested"]))
    if kind == "random":
        B = subspace()
    elif kind == "zero":
        B = Subspace.zero(field, n)
    elif kind == "full":
        B = Subspace.full(field, n)
    elif kind == "equal":
        B = A
    else:
        B = A.join(subspace())
    return (field, B, A) if draw(st.booleans()) else (field, A, B)


@settings(max_examples=400, deadline=None)
@given(_related_pair())
def test_meet_matches_zassenhaus(case):
    field, A, B = case
    M = A.meet(B)
    assert M == _zassenhaus_meet(A, B)
    for row in M.basis:
        assert all(type(x) is (Fp if field.p else Fraction) for x in row)


@settings(max_examples=300, deadline=None)
@given(_related_pair())
def test_contains_vectors_matches_one_at_a_time(case):
    """One reduction pass over many vectors answers as one call per vector
    does, with the same length error."""
    field, A, B = case
    vecs = list(B.basis) + [tuple(x + y for x, y in zip(u, v))
                            for u, v in zip(A.basis, B.basis)]
    assert A.contains_vectors(vecs) == all(A.contains_vectors([v])
                                           for v in vecs)
    assert A.contains_vectors([]) and A.contains_vectors(A.basis)
    with pytest.raises(ValueError, match="vector length"):
        A.contains_vectors(list(A.basis) + [(field.zero(),) * (A.ambient_dim + 1)])


def _greedy_complement(inner, outer):
    """Reference picks: each row of outer's basis that raises the rank."""
    picked, span = [], list(inner.basis)
    for v in outer.basis:
        if rank(span + [v], inner.field) > rank(span, inner.field):
            picked.append(v)
            span.append(v)
    return picked


@settings(max_examples=300, deadline=None)
@given(_related_pair())
def test_echelon_complement_matches_greedy_rank(case):
    field, A, B = case
    inner, outer = A.meet(B), B
    assert echelon_complement(inner, outer) == _greedy_complement(inner, outer)
    if not B.contains_subspace(A):
        with pytest.raises(ValueError, match="not contained"):
            echelon_complement(A, B)

@settings(max_examples=60)
@given(st.lists(st.lists(st.integers(0, 4), min_size=4, max_size=4),
                min_size=1, max_size=5))
def test_rank_nullity(rows):
    mat = [tuple(F5.scalar(x) for x in row) for row in rows]
    assert rank(mat, F5) + kernel(mat, F5).dim == 4


def test_solve_combination():
    rows = [F(1, 0), F(1, 1)]
    x = solve_combination(rows, F(3, 2), QQ)
    assert list(x) == [Fraction(1), Fraction(2)]
    assert solve_combination([F(1, 0, 0)], F(0, 1, 0), QQ) is None
    # no rows: only the zero target is a (empty) combination
    assert solve_combination([], (0, 0), QQ) == []
    assert solve_combination([], (1, 0), QQ) is None


@st.composite
def _solve_case(draw):
    """Rows over Q (fractional entries), F_2 or F_7 with repeated and
    dependent rows, and a target in their span or drawn at random."""
    field = draw(st.sampled_from([QQ, parse_field("Fp:2"), F7]))
    if field.p:
        entry = st.integers(-3, 9)
    else:
        entry = st.builds(Fraction, st.integers(-12, 12),
                          st.sampled_from([1, 2, 3, 5, 12]))
    k, n = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    rows = [[draw(entry) for _ in range(n)] for _ in range(k)]
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        rows[i] = [x + draw(entry) * y for x, y in zip(rows[i], rows[j])]
    rows = [tuple(field.scalar(x) for x in row) for row in rows]
    if draw(st.booleans()):
        coeffs = [field.scalar(draw(entry)) for _ in range(k)]
        target = combine(field, n, coeffs, rows)
    else:
        target = tuple(field.scalar(draw(entry)) for _ in range(n))
    return field, rows, target


def _gauss_jordan_solve(rows, target, field):
    """Reference: Gauss-Jordan on the transposed system augmented with the
    target; free coefficients 0."""
    k = len(rows)
    aug = [[row[j] for row in rows] + [t] for j, t in enumerate(target)]
    red, pivots = _gauss_jordan(aug, field)
    if k in pivots:
        return None
    x = [field.zero()] * k
    for row, c in zip(red, pivots):
        x[c] = row[k]
    return x


@settings(max_examples=300, deadline=None)
@given(_solve_case())
def test_solve_combination_matches_gauss_jordan(case):
    field, rows, target = case
    x = solve_combination(rows, target, field)
    assert x == _gauss_jordan_solve(rows, target, field)
    in_span = rank(rows + [target], field) == rank(rows, field)
    assert (x is None) == (not in_span)
    if x is not None:
        assert all(type(c) is (Fp if field.p else Fraction) for c in x)
        assert combine(field, len(target), x, rows) == target
        # the coefficient of a row dependent on the rows before it is 0
        _, pivots = rref([[row[j] for row in rows] for j in range(len(target))],
                         field)
        assert all(not c for i, c in enumerate(x) if i not in pivots)
    foreign = Fp(1, 5) if not field.p else Fraction(1, 2)
    with pytest.raises(FieldMismatch):
        solve_combination(rows, (foreign,) + target[1:], field)
    with pytest.raises(FieldMismatch):
        solve_combination([(foreign,) + rows[0][1:]] + rows[1:], target, field)


def test_echelon_complement():
    inner = Subspace.from_vectors([F(1, 1, 0)], QQ, 3)
    outer = Subspace.full(QQ, 3)
    comp = echelon_complement(inner, outer)
    got = Subspace.from_vectors(list(inner.basis) + list(comp), QQ, 3)
    assert len(comp) == 2
    assert got == outer
    rng = random.Random(21)
    for _ in range(100):
        U = _random_subspace(rng, F5, 5)
        W = U.join(_random_subspace(rng, F5, 5))
        comp = echelon_complement(U, W)
        assert len(comp) == W.dim - U.dim
        assert Subspace.from_vectors(list(U.basis) + list(comp), F5, 5) == W


def test_zero_and_full():
    Z = Subspace.zero(QQ, 4)
    assert Z.dim == 0 and Z.basis == ()
    E = Subspace.full(F5, 3)
    assert E.dim == 3
    assert E.contains_vectors([(F5.scalar(1), F5.scalar(4), F5.scalar(2))])


def _every_constructor(rng):
    """(subspaces, Q echelon rows that are not canonical): subspaces from
    every constructor over Q, F_2, F_7 and F_10007.  Over Q the generators
    are integer multiples of rows with denominators, so _echelon leaves
    rows that are not primitive or have a negative pivot, counted in the
    second entry."""
    subs, raw = [], 0
    for field in (QQ, parse_field("Fp:2"), F7, parse_field("Fp:10007")):
        def q():
            if field.p:
                return field.scalar(rng.randrange(field.p))
            return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 12)))

        def nz():
            return next(x for x in iter(q, None) if x)

        for _ in range(60):
            n = rng.randint(1, 6)
            vecs = [tuple(field.scalar(rng.choice((-6, -2, 1, 3))) * q()
                          for _ in range(n)) for _ in range(rng.randint(0, n + 1))]
            A = Subspace.from_vectors(vecs, field, n)
            B = Subspace.from_vectors(
                [tuple(q() for _ in range(n)) for _ in range(rng.randint(0, n))]
                + list(A.basis[:1]), field, n)
            subs += [A, B, A.meet(B), A.join(B), kernel(vecs, field, ncols=n),
                     Subspace.full(field, n), Subspace.zero(field, n)]
            if not field.p:
                red, piv = _echelon(_ints(vecs, field)[0], 0)
                raw += sum(row[c] < 0 or gcd(*row) > 1
                           for row, c in zip(red, piv))
        for k in range(16):
            n, d = 2 + k % 4, 2 + (k // 4) % 4
            P = planted(field, n, d, rng, q, nz, double=k % 8 == 0)
            if P.is_zero():
                continue
            X, fr = moved(P, rng, q)
            if X.P.is_zero():
                continue
            la = analyze_line(X, fr)
            rep = la.tangent
            subs += [rep.kernel, rep.pi, rep.pencil, fr.line]
            if la.filt is not None:
                subs += list(la.filt.hatM)
                subs += [ideal_degree_piece(la.filt, j) for j in range(d + 2)]
        if field.p:
            for _ in range(30):
                n1 = rng.randint(2, 6)
                j1, j2 = sorted(rng.sample(range(n1), 2))
                r1 = tuple(0 if j < j1 or j == j2 else 1 if j == j1
                           else rng.randrange(field.p) for j in range(n1))
                r2 = tuple(0 if j < j2 else 1 if j == j2
                           else rng.randrange(field.p) for j in range(n1))
                fr = LineFrame._from_echelon(field, r1, r2)
                assert fr.line == LineFrame(field, r1, r2).line
                subs.append(fr.line)
    return subs, raw


def test_ints_view_matches_the_basis_for_every_constructor():
    """Each subspace's int view, seeded by Subspace._of or computed on first
    use, equals the view a fresh copy computes from its basis: tuple rows,
    over Q primitive with a positive pivot.  A copy with a shorter basis
    computes its own view, so it no longer contains the dropped row.  join
    and contains_subspace, which read the other subspace's view, agree with
    from_vectors and contains_vectors on the scalar bases, for pairs of
    subspaces and shortened copies over Q, F_2, F_7 and F_10007."""
    subs, raw = _every_constructor(random.Random(22))
    stale = [sub for sub in subs
             if sub.ints != dataclasses.replace(sub).ints]
    assert not stale, "%d of %d views differ" % (len(stale), len(subs))
    for sub in subs:
        rows, pivots = sub.ints
        assert type(rows) is tuple and all(type(r) is tuple for r in rows)
        assert len(rows) == sub.dim
        if sub.dim:
            short = dataclasses.replace(sub, basis=sub.basis[1:])
            assert short.ints == (rows[1:], pivots[1:])
            assert not short.contains_vectors([sub.basis[0]])
    assert len(subs) > 2000 and raw >= 40, (len(subs), raw)
    rng, groups, seen = random.Random(23), {}, set()
    for sub in subs:
        groups.setdefault((sub.field, sub.ambient_dim), []).append(sub)
    for sub in subs:
        group = groups[sub.field, sub.ambient_dim]
        for other in rng.sample(group, min(3, len(group))):
            short = dataclasses.replace(sub, basis=sub.basis[1:])
            for A, B in ((sub, other), (other, sub), (other, short)):
                assert A.join(B) == Subspace.from_vectors(
                    A.basis + B.basis, A.field, A.ambient_dim)
                inside = A.contains_subspace(B)
                assert inside == A.contains_vectors(B.basis)
                seen.add((A.field.p, inside))
    assert seen == {(p, b) for p in (0, 2, 7, 10007) for b in (True, False)}


def _forward_null_vectors(mat, ncols, p):
    """Null vectors of a forward _echelon pass, one per free column f: den
    at f and -row[f]*den/row[c] at each pivot column c.  A basis of the null
    space, but not echelon."""
    red, pivots = _echelon([list(row) for row in mat], p)
    den = lcm(*_heads(red, pivots))
    out = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[f] = den
        for row, c in zip(red, pivots):
            v[c] = -row[f] * (den // row[c])
        out.append([x % p for x in v] if p else v)
    return out


def _two_pass_meet(xs, rows, pivots, n, p):
    """Reference for _meet: any left kernel of the residues, then one more
    _echelon pass over the combinations."""
    reduced = _reduce(rows, pivots, [x[:n] for x in xs], p)
    cols = [[r[j] for r, _ in reduced] for j in range(n) if j not in pivots]
    vecs = []
    for coeffs in _forward_null_vectors(cols, len(xs), p):
        vec = [0] * len(xs[0])
        for c, (_, s), x in zip(coeffs, reduced, xs):
            vec = [a + c * s * b for a, b in zip(vec, x)]
        vecs.append([a % p for a in vec] if p else vec)
    return _echelon(vecs, p)


_DIFF_FIELDS = (QQ, Field(2), F7, Field(_P61))


def _int_entry(p):
    if p:
        return st.one_of(st.integers(0, min(p - 1, 3)), st.integers(0, p - 1))
    return st.one_of(st.integers(-3, 3), st.integers(-2 ** 70, 2 ** 70))


@st.composite
def _int_matrix(draw, p, nrows, ncols):
    """Int rows for _echelon: residues mod p, or over Q small and huge ints
    of either sign.  Random, zero, full rank (unit upper triangular), zero
    kernel (a unit upper triangular square plus more rows) or with rows
    that are combinations of others."""
    entry = _int_entry(p)
    kind = draw(st.sampled_from(
        ["random", "zero", "full", "zero-kernel", "dependent"]))
    if kind == "zero":
        return [[0] * ncols for _ in range(nrows)]
    if kind in ("full", "zero-kernel"):
        k = ncols if kind == "zero-kernel" else min(nrows, ncols)
        mat = [[draw(entry) if j > i else int(i == j) for j in range(ncols)]
               for i in range(k)]
        if kind == "zero-kernel":
            mat += [[draw(entry) for _ in range(ncols)]
                    for _ in range(max(nrows - k, 0))]
        return mat
    mat = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    if kind == "dependent" and nrows:
        for _ in range(draw(st.integers(1, 3))):
            a, b = draw(entry), draw(entry)
            i, j = (draw(st.integers(0, nrows - 1)) for _ in range(2))
            row = [a * x + b * y for x, y in zip(mat[i], mat[j])]
            mat.append([x % p for x in row] if p else row)
    return mat


def _same_echelon(got, want, field):
    """Both (rows, pivots) pairs are echelon with the same pivots and the
    same rows up to scale (so the same reduced echelon form)."""
    (rows, piv), (wrows, wpiv) = got, want
    assert list(piv) == list(wpiv)
    assert (_scalars(rows, _heads(rows, piv), field)
            == _scalars(wrows, _heads(wrows, wpiv), field))


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_one_pass_kernel_matches_two_passes(data):
    """_null_space's one pass on reversed columns gives the reduced echelon
    basis that the forward null vectors and a second _echelon pass give,
    pivot 1 over F_p, on empty, zero, full-rank and zero-kernel shapes; each
    vector is a null vector, and _kernel is that subspace."""
    field = data.draw(st.sampled_from(_DIFF_FIELDS))
    p = field.p
    nrows, ncols = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 6))
    mat = data.draw(_int_matrix(p, nrows, ncols))
    rows, free = _null_space([list(row) for row in mat], ncols, p)
    want = _echelon(_forward_null_vectors(mat, ncols, p), p)
    _same_echelon((rows, free), want, field)
    for v in rows:
        assert all(sum(a * b for a, b in zip(row, v)) % (p or 2 ** 200) == 0
                   for row in mat)
    if p:
        assert _heads(rows, free) == [1] * len(rows)
    K = _kernel([list(row) for row in mat], ncols, field)
    assert K == Subspace._of(field, ncols, *want)


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_meet_rows_match_a_final_echelon_pass(data):
    """_meet's combinations, on echelon xs from _echelon (not primitive,
    any pivot sign, over Q), equal the two-pass meet's rows up to scale:
    already echelon, primitive over Q and with pivot 1 over F_p."""
    field = data.draw(st.sampled_from(_DIFF_FIELDS))
    p = field.p
    n, k = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 3))
    xs, _ = _echelon(data.draw(_int_matrix(p, data.draw(st.integers(0, 6)),
                                           n + k)), p)
    rows, pivots = _echelon(data.draw(_int_matrix(
        p, data.draw(st.integers(0, 6)), n)), p)
    got = _meet([list(x) for x in xs], rows, pivots, n, p)
    _same_echelon(got, _two_pass_meet(xs, rows, pivots, n, p), field)
    if p:
        assert _heads(*got) == [1] * len(got[0])
    else:
        assert all(gcd(*row) == 1 for row in got[0])


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_solve_for_several_targets_matches_one_at_a_time(data):
    """One _solve for several targets returns None iff one of them is out of
    the span, and otherwise each target's solution sol/den equals that of
    a _solve for it alone."""
    field = data.draw(st.sampled_from(_DIFF_FIELDS))
    p = field.p
    k, n = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
    rows = data.draw(_int_matrix(p, k, n))
    targets = []
    for _ in range(data.draw(st.integers(1, 4))):
        if data.draw(st.booleans()) or not rows:
            t = [data.draw(_int_entry(p)) for _ in range(n)]
        else:
            cs = [data.draw(_int_entry(p)) for _ in rows]
            t = [sum(c * row[j] for c, row in zip(cs, rows)) for j in range(n)]
            t = [x % p for x in t] if p else t
        targets.append(t)
    got = _solve(rows, targets, p)
    singles = [_solve(rows, [t], p) for t in targets]
    if any(one is None for one in singles):
        assert got is None
        return
    sols, den = got
    assert len(sols) == len(targets)
    for nums, ((want,), wden) in zip(sols, singles):
        if p:
            assert den == wden == 1 and nums == want
        else:
            assert [Fraction(a, den) for a in nums] \
                == [Fraction(a, wden) for a in want]
