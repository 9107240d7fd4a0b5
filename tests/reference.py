"""A reference substitution of a form on a span, for checking the package's
int substitution kernel (forms._expand) against code that does not run it.

Only MultiForm's own + and * on the field's scalars are used: no int
layout, no packed keys, no rank check, and Horner's rule rather than
_expand's table of powers.  tests/test_layering.py keeps this module's
imports to the form classes and the field types.  It is several times
slower than forms.restrict_to_plane, so brute-force scans stay on the
package.
"""

from fanosing.forms import BinaryForm, MultiForm


def _horner(field, lin, terms, degree, i=0):
    """sum c x^e over terms ({e: c}, every e of the given degree in the
    variables x_i, x_(i+1), ...) with each x_j replaced by the linear form
    lin[j]: Horner's rule in x_i, (...(Q_K x_i + Q_(K-1)) x_i + ...) x_i +
    Q_0, where Q_k gathers the terms with x_i^k, and the same for each Q_k
    in the variables after x_i."""
    r = lin[0].nvars
    if not terms:
        return MultiForm.zero(field, r, degree)
    if i == len(lin):
        (c,) = terms.values()
        return MultiForm(field, r, 0, {(0,) * r: c})
    groups = {}
    for e, c in terms.items():
        groups.setdefault(e[i], {})[e] = c
    top = max(groups)
    out = MultiForm.zero(field, r, degree - top)
    for k in range(top, -1, -1):
        if k < top:
            out = out * lin[i]
        out = out + _horner(field, lin, groups.get(k, {}), degree - k, i + 1)
    return out


def restrict(P, basis, cols=()):
    """[P, d_{c1} P, ...] (c in cols) on sum_k y_k basis[k], as forms in the
    dual coordinates y of basis: one output per entry of cols, repeats
    included, in the given order.  d_c P takes e_c a x^(e - unit_c) from
    each term a x^e, and each x_i becomes its linear form
    sum_k basis[k][i] y_k.  The vectors need not be independent.  On a line
    (two vectors) each result is a BinaryForm in (s, t), as
    forms.restrict_to_plane returns it; otherwise a MultiForm in len(basis)
    variables."""
    field, r = P.field, len(basis)
    lin = [MultiForm(field, r, 1, {tuple(int(k == j) for k in range(r)): v[i]
                                   for j, v in enumerate(basis)})
           for i in range(P.nvars)]
    jobs = [(P.degree, P.terms)]
    for j in cols:
        jobs.append((P.degree - 1, {e[:j] + (e[j] - 1,) + e[j + 1:]: c * e[j]
                                    for e, c in P.terms.items() if e[j]}))
    outs = []
    for degree, terms in jobs:
        Q = _horner(field, lin, terms, degree)
        outs.append(Q if r != 2 else BinaryForm(
            field, [Q.terms.get((degree - i, i), 0) for i in range(degree + 1)]))
    return outs
