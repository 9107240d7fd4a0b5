"""Divisor arithmetic on ruled surfaces over a curve."""

import random

import pytest
from hypothesis import given
import hypothesis.strategies as st

from fanosing.ruled import (FIBER, DivisorClass, RuledSurface, c1_twist,
                            intersect, itcone_check)


def test_lattice_frozen_values():
    S = RuledSurface(k=2)
    o1 = DivisorClass(1, 0)
    assert intersect(S, o1, o1) == -2
    assert intersect(S, o1, FIBER) == 1
    assert intersect(S, FIBER, FIBER) == 0
    D1 = DivisorClass(1, 3)
    D2 = DivisorClass(2, 5)
    assert intersect(S, D1, D2) == -4 + 5 + 6


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_section_self_intersection(k):
    S = RuledSurface(k)
    assert intersect(S, DivisorClass(1, 0), DivisorClass(1, 0)) == -k
    assert intersect(S, DivisorClass(1, k), DivisorClass(1, 0)) == 0


@given(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9),
       st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9),
       st.integers(0, 5))
def test_bilinear_symmetric(a1, b1, a2, b2, a3, b3, k):
    S = RuledSurface(k)
    D1, D2, D3 = DivisorClass(a1, b1), DivisorClass(a2, b2), DivisorClass(a3, b3)
    assert intersect(S, D1, D2) == intersect(S, D2, D1)
    assert intersect(S, D1 + D3, D2) == intersect(S, D1, D2) + intersect(S, D3, D2)
    assert intersect(S, 3 * D1, D2) == 3 * intersect(S, D1, D2)


def test_itcone_bound_frozen():
    S = RuledSurface(2)
    rep = itcone_check(S, DivisorClass(1, 3), DivisorClass(2, 5))
    assert rep.hypotheses_ok
    assert rep.value == 7 and rep.lower_bound == 4
    assert rep.positive


def test_itcone_bound_random():
    """Classes with a >= 1 and b >= a k meet at least in a1 a2 k points."""
    rng = random.Random(17)
    for _ in range(500):
        k = rng.randint(1, 5)
        a1, a2 = rng.randint(1, 6), rng.randint(1, 6)
        b1 = a1 * k + rng.randint(0, 9)
        b2 = a2 * k + rng.randint(0, 9)
        rep = itcone_check(RuledSurface(k), DivisorClass(a1, b1),
                           DivisorClass(a2, b2))
        assert rep.hypotheses_ok
        assert rep.value >= rep.lower_bound == a1 * a2 * k >= 1
        assert rep.positive


def test_itcone_hypotheses_fail():
    rep = itcone_check(RuledSurface(0), DivisorClass(1, 1), DivisorClass(1, 1))
    assert not rep.hypotheses_ok


def test_c1_twist():
    S = RuledSurface(2)
    o1 = DivisorClass(1, 3)
    L = DivisorClass(0, 2)   # pullback from the base curve
    tw = c1_twist(S, L, 3, o1)
    assert tw == DivisorClass(3, 7)
    assert intersect(S, tw, FIBER) == 3
    with pytest.raises(ValueError, match="fiber"):
        c1_twist(S, DivisorClass(1, 1), 3, o1)


def test_divisor_class_algebra():
    D = DivisorClass(2, -1)
    assert D + D == DivisorClass(4, -2)
    assert D - D == DivisorClass(0, 0)
    assert not DivisorClass(0, 0)
    assert 2 * D == DivisorClass(4, -2)
