"""Scalar helpers shared by the tests, outside the package."""


def combine(field, n: int, coeffs, vectors) -> tuple:
    """sum_i coeffs[i] * vectors[i] in K^n, from the first n entries of each
    vector; zero coefficients are skipped."""
    out = [field.zero()] * n
    for c, v in zip(coeffs, vectors):
        if c:
            out = [a + c * b for a, b in zip(out, v)]
    return tuple(out)
