"""Stock hypersurfaces for tests and experiments."""

from __future__ import annotations

import random

from .forms import MultiForm
from .linalg import Field, _is_prime, unit_vectors
from .tangent import Hypersurface, LineFrame


def fermat(n: int, d: int, field: Field) -> Hypersurface:
    """Sum of d-th powers of all n+1 coordinates.

    Refused when the characteristic divides the degree: the gradient then
    vanishes identically and every point is singular.
    """
    if field.p and d % field.p == 0:
        raise ValueError(
            "characteristic %d divides the degree %d: the form is a p-th "
            "power and every point is singular" % (field.p, d))
    one = field.one()
    terms = {}
    for i in range(n + 1):
        e = [0] * (n + 1)
        e[i] = d
        terms[tuple(e)] = one
    return Hypersurface(MultiForm(field, n + 1, d, terms))


def cone(base: Hypersurface, extra: int = 1) -> Hypersurface:
    """The same equation read in extra more variables: a cone with vertex
    the span of the new coordinates."""
    if extra < 1:
        raise ValueError("need at least one new variable")
    P = base.P
    terms = {e + (0,) * extra: c for e, c in P.terms.items()}
    return Hypersurface(MultiForm(P.field, P.nvars + extra, P.degree, terms))


def random_with_line(n: int, d: int, p: int, seed: int):
    """Random degree-d hypersurface in P^n over F_p through span(e0, e1).

    Every monomial involves one of x_2..x_n, so the form vanishes on the
    line; coefficients are uniform.  Returns the hypersurface and that
    line's frame.  Deterministic in the seed.
    """
    if n < 2:
        raise ValueError("need n >= 2 for a complement direction")
    if d < 1:
        raise ValueError("random-with-line needs degree d >= 1, got d = %d" % d)
    if not _is_prime(p):
        raise ValueError("random-with-line needs a prime p, got p = %d" % p)
    field = Field(p)
    rng = random.Random(seed)
    while True:
        terms = {}
        for _ in range(rng.randint(3, 4 * n)):
            e = [0] * (n + 1)
            e[rng.randint(2, n)] += 1
            for _ in range(d - 1):
                e[rng.randint(0, n)] += 1
            c = field.scalar(rng.randrange(p))
            key = tuple(e)
            terms[key] = terms.get(key, field.zero()) + c
        P = MultiForm(field, n + 1, d, terms)
        if not P.is_zero():
            break
    e1, e2 = unit_vectors(field, n + 1, (0, 1))
    return Hypersurface(P), LineFrame(field, e1, e2)
