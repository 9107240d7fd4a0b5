"""Scalar helpers shared by the tests, outside the package."""

from fanosing.forms import MultiForm
from fanosing.linalg import rank, solve_combination
from fanosing.tangent import Hypersurface, LineFrame
from reference import restrict


def combine(field, n: int, coeffs, vectors) -> tuple:
    """sum_i coeffs[i] * vectors[i] in K^n, from the first n entries of each
    vector; zero coefficients are skipped."""
    out = [field.zero()] * n
    for c, v in zip(coeffs, vectors):
        if c:
            out = [a + c * b for a, b in zip(out, v)]
    return tuple(out)


def planted(field, n, d, rng, q, nz, double):
    """A random degree-d form through span(E0, E1) with planted chains.

    Terms of order >= 2 along the line leave sigma alone; unless double
    (a singular line, m = 0) chains of sizes s <= d are planted on x_2, ...:
    x_(k+i) f_i with f_i = x0^(i-1) x1^(s-i) p for a random p of degree
    d - s, which for half the forms share a random root."""
    terms = {}

    def add(e, c):
        terms[tuple(e)] = terms.get(tuple(e), field.zero()) + c

    for _ in range(rng.randint(1, 2 * n)):
        e = [0] * (n + 1)
        for _ in range(min(d, 2)):
            e[rng.randint(2, n)] += 1
        for _ in range(d - sum(e)):
            e[rng.randint(0, n)] += 1
        add(e, q())
    root = (nz(), q()) if rng.random() < 0.5 else None
    k = 2
    while not double and k <= n and rng.random() < 0.9:
        s = rng.randint(1, min(d, n + 1 - k))
        p = [nz()] + [q() for _ in range(d - s)]    # s^(d-s-i) t^i coeffs
        if root and d > s:
            a, b = root     # times (b s - a t): vanish at [a:b]
            p = [b * x - a * y for x, y in zip(p[:-1] + [0], [0] + p[:-1])]
        for i in range(1, s + 1):
            for j, c in enumerate(p):
                e = [0] * (n + 1)
                e[0], e[1], e[k] = i - 1 + d - s - j, s - i + j, 1
                add(e, c)
            k += 1
    return MultiForm(field, n + 1, d, terms)


def moved(P, rng, q):
    """P o A for a random invertible A, the line A^-1 span(E0, E1) mixed by
    a random 2 x 2 change of basis, so its frame is not in echelon form."""
    field, n1 = P.field, P.nvars
    while True:
        cols = [tuple(q() for _ in range(n1)) for _ in range(n1)]
        if rank(cols, field) == n1:
            break
    e1, e2 = (solve_combination(cols, tuple(field.scalar(int(i == j))
                                            for i in range(n1)), field)
              for j in (0, 1))
    while True:
        a, b, c = q(), q(), q()
        if field.scalar(c) - field.scalar(a) * field.scalar(b):
            break
    f1 = [x + a * y for x, y in zip(e1, e2)]
    f2 = [b * x + c * y for x, y in zip(e1, e2)]
    return Hypersurface(restrict(P, cols)[0]), LineFrame(field, f1, f2)
