"""The reference of the structural-zero shortcuts: the bodies that built
every product, sum and form part that a zero half or a zero component
decides, from a directional derivative and a pairing up to the Courant
bracket, the curvature and the brackets of a structure.  Each calls only
the functions here and ones the shortcuts leave alone."""

import itertools
from fractions import Fraction

from spraydirac.dirac import Section
from spraydirac.errors import ValidationError
from spraydirac.expr import (
    Add, Const, Mul, Neg, ZERO, as_expr, coordinates, diff, simplify, sum_exprs,
)
from spraydirac.forms import d_scalar, exterior_derivative_1, interior_product
from spraydirac.geometry import CurvatureTensor, OneForm, VectorField, berwald_frame

HALF = Const(Fraction(1, 2))


def add(u, v):
    """u + v, component by component."""
    if v.n != u.n:
        raise ValidationError("sum of elements on different dimensions")
    return u.from_comps(u.n, [simplify(Add((a, b))) for a, b in zip(u.comps, v.comps)])


def scaled(u, c):
    c = as_expr(c)
    return u.from_comps(u.n, [simplify(Mul((c, v))) for v in u.comps])


def directional(X: VectorField, f):
    """X(f); a zero component takes no derivative."""
    parts = [Mul((c, diff(f, v)))
             for c, v in zip(X.comps, coordinates(X.n)) if c != ZERO]
    return simplify(sum_exprs(parts))


def pairing(alpha: OneForm, X: VectorField):
    """alpha(X) over every pair of components."""
    parts = [Mul((a, b)) for a, b in zip(alpha.comps, X.comps)]
    return simplify(Add(tuple(parts)))


def difference(a, b):
    """a - b, as lie_bracket and curvature took it."""
    return simplify(Add((a, Neg(b))))


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    if X.n != Y.n:
        raise ValidationError("bracket of fields on different dimensions")
    return VectorField.from_comps(X.n, [simplify(Add((directional(X, y), Neg(directional(Y, x)))))
                                        for x, y in zip(X.comps, Y.comps)])


def curvature(S, frame=None) -> CurvatureTensor:
    fr = frame or berwald_frame(S)
    n = S.n
    R = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for a in range(n):
                R[a][i][j] = simplify(Add((directional(fr.horizontal[j], fr.N[a][i]),
                                           Neg(directional(fr.horizontal[i], fr.N[a][j])))))
                R[a][j][i] = simplify(Neg(R[a][i][j]))
    return CurvatureTensor(n, tuple(tuple(tuple(row) for row in plane) for plane in R))


def lie_derivative(X: VectorField, alpha: OneForm) -> OneForm:
    if all(c == ZERO for c in X.comps) or all(c == ZERO for c in alpha.comps):
        return OneForm.zero(alpha.n)
    first = interior_product(X, exterior_derivative_1(alpha))
    second = d_scalar(pairing(alpha, X), alpha.n)
    return add(first, second)


def courant_bracket(a: Section, b: Section) -> Section:
    if a.n != b.n:
        raise ValidationError("bracket of sections on different dimensions")
    vec = lie_bracket(a.X, b.X)
    scalar = simplify(Add((pairing(a.alpha, b.X), Neg(pairing(b.alpha, a.X)))))
    correction = d_scalar(Mul((HALF, scalar)), a.n)
    form = add(lie_derivative(a.X, b.alpha), scaled(lie_derivative(b.X, a.alpha), -1))
    form = add(form, correction)
    return Section(vec, form.simplified())


def bracket_exprs(L) -> list:
    """AlmostDirac.bracket_exprs: the components of the brackets that are
    not structurally zero."""
    brackets = [courant_bracket(L.generators[i], L.generators[j]).simplified()
                for i, j in itertools.combinations(range(len(L.generators)), 2)]
    return [c for s in brackets if not all(c == ZERO for c in s.components())
            for c in s.components()]
