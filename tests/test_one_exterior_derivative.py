"""One exterior derivative and one contraction: forms._d takes d of one- and
two-forms, and omega(X, Y) is (i_X omega)(Y).  On derandomized forms with
exact and float coefficients, over the coordinate and the adapted coframe,
both derivatives equal the loops of tests/forms_ref.py item for item, and
omega(X, Y) equals the reference's value: the same canonical tree for exact
coefficients, within a relative 1e-12 for float ones."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import forms_ref  # noqa: E402
from spraydirac.expr import (  # noqa: E402
    Add, Call, Const, Context, Mul, Point, Pow, ZERO, coordinates, evaluate,
)
from spraydirac.forms import (  # noqa: E402
    BERWALD, COORD, TwoForm, exterior_derivative_1, exterior_derivative_2,
)
from spraydirac.geometry import OneForm, VectorField  # noqa: E402

PROPERTY = settings(max_examples=240, deadline=None, derandomize=True)

EXACT = [1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]
FLOATS = [0.1, -2.5, 1e-3, 3.0, 0.75]
POINTS = {n: [Point(tuple(0.3 * k - 0.7 for k in range(n)), tuple(1.1 - 0.4 * k for k in range(n))),
              Point(tuple(1.5 + k for k in range(n)), tuple(-0.25 * (k + 1) for k in range(n)))]
          for n in (1, 2)}


def _trees(n: int, exact: bool):
    consts = EXACT if exact else EXACT + FLOATS
    leaves = st.one_of(st.sampled_from(coordinates(n)), st.sampled_from(consts).map(Const))
    tree = st.recursive(leaves, lambda inner: st.one_of(
        st.lists(inner, min_size=2, max_size=3).map(lambda cs: Add(tuple(cs))),
        st.lists(inner, min_size=2, max_size=3).map(lambda cs: Mul(tuple(cs))),
        st.tuples(inner, st.sampled_from([Fraction(2), Fraction(3)])).map(lambda p: Pow(*p)),
        st.tuples(st.sampled_from(["sin", "exp"]), inner).map(lambda p: Call(*p)),
    ), max_leaves=5)
    # a zero component, often
    return st.one_of(st.just(ZERO), tree)


@st.composite
def cases(draw):
    """(n, exact, one-form, two-form, X, Y) over one drawn size and coframe."""
    n, exact = draw(st.sampled_from([1, 2])), draw(st.booleans())
    basis = draw(st.sampled_from([COORD, BERWALD]))
    coeff = _trees(n, exact)
    m = 2 * n
    alpha = OneForm.from_comps(n, draw(st.lists(coeff, min_size=m, max_size=m)))
    comps = {(i, j): draw(coeff) for i in range(m) for j in range(i + 1, m)}
    N = tuple(tuple(draw(coeff) for _ in range(n)) for _ in range(n))
    omega = TwoForm(n, comps, basis, N if basis == BERWALD else None)
    X, Y = (VectorField.from_comps(n, draw(st.lists(coeff, min_size=m, max_size=m)))
            for _ in range(2))
    return n, exact, alpha, omega, X, Y


def _same_items(new, ref):
    assert type(new) is type(ref) and new.n == ref.n and new.basis == ref.basis
    assert list(new.comps) == list(ref.comps)
    assert [e._key for e in new.comps.values()] == [e._key for e in ref.comps.values()]


def _fixed(n, exact, basis):
    """A case of this size, kind of coefficient and coframe, with every
    component of both forms set."""
    c = Const(Fraction(3, 2) if exact else 0.25)
    x1, y1 = coordinates(n)[0], coordinates(n)[n]
    w = Add((Mul((c, x1, y1)), Call("sin", y1)))
    m = 2 * n
    alpha = OneForm.from_comps(n, [w] * m)
    comps = {(i, j): w for i in range(m) for j in range(i + 1, m)}
    N = tuple((Mul((c, y1)),) * n for _ in range(n))
    omega = TwoForm(n, comps, basis, N if basis == BERWALD else None)
    X = VectorField.from_comps(n, [x1] + [ZERO] * (m - 1))
    Y = VectorField.from_comps(n, [w] * m)
    return n, exact, alpha, omega, X, Y


@PROPERTY
@given(cases())
@example(_fixed(1, True, COORD))
@example(_fixed(2, False, BERWALD))
@example(_fixed(2, True, BERWALD))
@example(_fixed(1, False, COORD))
def test_d_and_the_value_on_two_fields_equal_the_reference(case):
    n, exact, alpha, omega, X, Y = case
    _same_items(exterior_derivative_1(alpha), forms_ref.exterior_derivative_1(alpha))
    _same_items(exterior_derivative_2(omega), forms_ref.exterior_derivative_2(omega))
    value, ref = omega(X, Y), forms_ref.two_form_value(omega, X, Y)
    if exact:
        assert value == ref
        return
    ctx = Context(n)
    for p in POINTS[n]:
        got, want = evaluate(value, p, ctx), evaluate(ref, p, ctx)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

