"""The reference of the one exterior derivative and the one contraction: the
two loops that took d of one- and two-forms, and the loop with which a
two-form took its value on two fields, beside forms.interior_product."""

from spraydirac.expr import Add, Expr, Mul, Neg, ZERO, coordinates, diff, simplify, sum_exprs
from spraydirac.forms import COORD, ThreeForm, TwoForm, _accum, flat_var
from spraydirac.geometry import OneForm, VectorField


def exterior_derivative_1(alpha: OneForm) -> TwoForm:
    n = alpha.n
    comps: dict = {}
    for j, aj in enumerate(alpha.comps):
        if aj == ZERO:
            continue
        for i, v in enumerate(coordinates(n)):
            if i == j:
                continue
            partial = diff(aj, v)
            if partial != ZERO:
                _accum(comps, (i, j), partial)
    return TwoForm(n, comps)


def exterior_derivative_2(omega: TwoForm) -> ThreeForm:
    form = omega.to_coordinates()
    n = form.n
    comps: dict = {}
    for (i, j), w in form.comps.items():
        for k in range(2 * n):
            partial = diff(w, flat_var(n, k))
            if partial != ZERO:
                _accum(comps, (k, i, j), partial)
    return ThreeForm(n, comps)


def two_form_value(omega: TwoForm, X: VectorField, Y: VectorField) -> Expr:
    """omega(X, Y), as TwoForm.__call__ computed it."""
    if omega.basis != COORD:
        return two_form_value(omega.to_coordinates(), X, Y)
    parts = []
    for (i, j), w in omega.comps.items():
        xi, xj = X.comps[i], X.comps[j]
        yi, yj = Y.comps[i], Y.comps[j]
        parts.append(Mul((w, Add((Mul((xi, yj)), Neg(Mul((xj, yi))))))))
    return simplify(sum_exprs(parts))
