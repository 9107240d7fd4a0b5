"""Integer intersection arithmetic on ruled surfaces over a curve.

The lattice of divisor classes is generated by a section class o1 and a
fiber class F with o1^2 = -k, o1.F = 1, F^2 = 0; a class a*o1 + b*F meets
another in an integer computed bilinearly from those three products.  The
positivity check mirrors the cone-of-curves argument: classes with a >= 1
and b >= a*k meet in at least a1*a2*k.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RuledSurface:
    """Ruled surface with section self-intersection -k."""

    k: int

    def __post_init__(self):
        if not isinstance(self.k, int):
            raise TypeError("k must be an integer")


@dataclass(frozen=True)
class DivisorClass:
    """a times the section class plus b times the fiber class."""

    a: int
    b: int

    def __post_init__(self):
        if not (isinstance(self.a, int) and isinstance(self.b, int)):
            raise TypeError("divisor coordinates must be integers")

    def __add__(self, other):
        return DivisorClass(self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        return DivisorClass(self.a - other.a, self.b - other.b)

    def __rmul__(self, c):
        if not isinstance(c, int):
            return NotImplemented
        return DivisorClass(c * self.a, c * self.b)

    def __bool__(self):
        return bool(self.a or self.b)


FIBER = DivisorClass(0, 1)


def intersect(S: RuledSurface, D1: DivisorClass, D2: DivisorClass) -> int:
    """Intersection number of two divisor classes on S."""
    return -D1.a * D2.a * S.k + D1.a * D2.b + D2.a * D1.b


@dataclass(frozen=True)
class ItconeReport:
    """Positivity record for a pair of classes meeting the cone hypotheses."""

    value: int
    lower_bound: int
    hypotheses_ok: bool
    positive: bool


def itcone_check(S: RuledSurface, D1: DivisorClass,
                 D2: DivisorClass) -> ItconeReport:
    """Check D1.D2 >= a1*a2*k > 0 for classes with a >= 1, b >= a*k, k >= 1.

    The identity D1.D2 = a1*(b2 - a2*k) + a2*(b1 - a1*k) + a1*a2*k makes the
    bound immediate; the report carries both sides.
    """
    hyp = (S.k >= 1 and D1.a >= 1 and D2.a >= 1
           and D1.b - D1.a * S.k >= 0 and D2.b - D2.a * S.k >= 0)
    value = intersect(S, D1, D2)
    bound = D1.a * D2.a * S.k
    return ItconeReport(value=value, lower_bound=bound, hypotheses_ok=hyp,
                        positive=value > 0)


def c1_twist(S: RuledSurface, L_class: DivisorClass, p: int,
             o1_class: DivisorClass) -> DivisorClass:
    """The class p*o1_class - L_class, checked to meet a fiber p times."""
    if not isinstance(p, int):
        raise TypeError("p must be an integer")
    result = p * o1_class - L_class
    if intersect(S, result, FIBER) != p:
        raise ValueError("twist does not meet the fiber %d times" % p)
    return result
