"""Exterior calculus on the double coordinate block, both coframes."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spraydirac import forms
from spraydirac.errors import ValidationError
from spraydirac.expr import (
    ONE, ZERO, Add, Const, Context, Neg, Point, evaluate, parse, simplify,
)
from spraydirac.forms import (
    BERWALD, TwoForm, d_scalar, exterior_derivative_1, exterior_derivative_2,
    format_two_form, interior_product, lie_derivative, wedge,
)
from spraydirac.geometry import (
    OneForm, SemiSpray, VectorField, connection_coefficients,
)


CTX2 = Context(dim=2)
CTX3 = Context(dim=3, params={"A": 1.0})


def _spray2():
    return SemiSpray(2, (parse("0", CTX2), parse("y2^2", CTX2)))


def _semispray3():
    G = tuple(parse(t, CTX3) for t in ("A*y1/y3", "A*y2/y3", "A"))
    return SemiSpray(3, G, (parse("y3", CTX3),))


SCALARS = ["x1*y2 + sin(x2)", "exp(x1)*y1^2", "x2 - (1/2)*ln(y1/y2)"]


@pytest.mark.parametrize("text", SCALARS)
def test_d_squared_on_scalars(text):
    f = parse(text, CTX2)
    dd = exterior_derivative_1(d_scalar(f, 2))
    assert dd.is_structurally_zero()


def test_d_squared_on_one_forms():
    alpha = OneForm(2,
                    (parse("x1*y1", CTX2), parse("cos(x2)", CTX2)),
                    (parse("x2^2", CTX2), parse("y1*y2", CTX2)))
    ddd = exterior_derivative_2(exterior_derivative_1(alpha))
    assert ddd.is_structurally_zero()


def test_d_of_adapted_fiber_coframe():
    # delta y2 = dy2 + 2*y2*dx2; its differential is -2 dx2 ^ dy2
    alpha = OneForm(2, (ZERO, parse("2*y2", CTX2)), (ZERO, ONE))
    d = exterior_derivative_1(alpha)
    assert dict(d.items()) == {(1, 3): Const(-2)}


def test_closed_vertical_pairing_form():
    S = _semispray3()
    N = connection_coefficients(S)
    omega = TwoForm.single(3, 2, 5, 2, basis=BERWALD, N=N)
    coord = omega.to_coordinates()
    # the fiber coframe slot for the constant coefficient carries no
    # connection term here, so the rewrite is the plain coordinate pair
    assert dict(coord.items()) == {(2, 5): Const(2)}
    assert exterior_derivative_2(coord).is_structurally_zero()
    assert exterior_derivative_2(omega).is_structurally_zero()


def test_interior_product_of_second_order_field():
    S = _semispray3()
    omega = TwoForm.single(3, 2, 5, 2)
    pulled = interior_product(S.vector_field(), omega)
    assert all(simplify(c) == ZERO for c in pulled.dx[:2])
    assert simplify(pulled.dx[2]) == simplify(parse("4*A", CTX3))
    assert all(simplify(c) == ZERO for c in pulled.dy[:2])
    assert simplify(pulled.dy[2]) == simplify(parse("2*y3", CTX3))
    # omega(X, Y) = (i_X omega)(Y) = x^T M y, M the antisymmetric component matrix
    omega = omega + TwoForm.single(3, 0, 1, parse("x1", CTX3))
    rng = np.random.default_rng(17)
    for _ in range(5):
        p = Point(tuple(rng.uniform(-2, 2, 3)), tuple(rng.uniform(-2, 2, 3)),
                  params={"A": 1.0})
        M = np.zeros((6, 6))
        for (i, j), w in omega.items():
            M[i, j] = evaluate(w, p, CTX3)
            M[j, i] = -M[i, j]
        xv = rng.uniform(-1, 1, 6)
        yv = rng.uniform(-1, 1, 6)
        X = VectorField(3, tuple(Const(v) for v in xv[:3]),
                        tuple(Const(v) for v in xv[3:]))
        Y = VectorField(3, tuple(Const(v) for v in yv[:3]),
                        tuple(Const(v) for v in yv[3:]))
        expected = pytest.approx(float(xv @ M @ yv), abs=1e-12)
        assert evaluate(interior_product(X, omega)(Y), p, CTX3) == expected


def test_lie_derivative_of_coframe_along_vertical():
    alpha = OneForm(2, (ZERO, parse("2*y2", CTX2)), (ZERO, ONE))
    X = VectorField.coordinate(2, "y", 2)
    moved = lie_derivative(X, alpha)
    assert simplify(moved.dx[1]) == Const(2)
    assert moved.dx[0] == ZERO
    assert all(simplify(c) == ZERO for c in moved.dy)


def test_wedge_products():
    dx1 = OneForm.coordinate(2, "x", 1)
    dx2 = OneForm.coordinate(2, "x", 2)
    dy1 = OneForm.coordinate(2, "y", 1)
    assert wedge(dx1, dx1).is_structurally_zero()
    assert dict(wedge(dx1, dy1).items()) == {(0, 2): ONE}
    flipped = wedge(dy1, dx1)
    assert dict(flipped.items()) == {(0, 2): Const(-1)}
    scaled = wedge(dx2.scaled(parse("x1", CTX2)), dy1)
    assert dict(scaled.items()) == {(1, 2): parse("x1", CTX2)}


def test_berwald_rewrite_uses_connection():
    N = connection_coefficients(_spray2())
    berw = TwoForm.single(2, 1, 3, 1, basis=BERWALD, N=N)
    coord = berw.to_coordinates()
    # dx2 ^ (dy2 + 2*y2*dx2) collapses: the dx2 ^ dx2 part dies
    assert coord.basis == "coord"
    assert dict(coord.items()) == {(1, 3): ONE}


def test_adapted_forms_that_differ_only_in_their_connection():
    # del1^del2 = (dy1 + y1*dx1)^dy2 under a, dy1^dy2 under b
    y1 = parse("y1", CTX2)
    a = TwoForm.single(2, 2, 3, 1, basis=BERWALD, N=((y1, 0), (0, 0)))
    b = TwoForm.single(2, 2, 3, 1, basis=BERWALD, N=((0, 0), (0, 0)))
    assert dict(a.to_coordinates().items()) == {(0, 3): y1, (2, 3): ONE}
    assert dict(b.to_coordinates().items()) == {(2, 3): ONE}
    assert a != b
    assert a == TwoForm.single(2, 2, 3, 1, basis=BERWALD, N=((y1, 0), (0, 0)))
    with pytest.raises(ValidationError, match="matching size, basis and connection"):
        a + b
    with pytest.raises(ValidationError, match="matching size, basis and connection"):
        b + a
    assert dict((a + a).to_coordinates().items()) == {
        (0, 3): simplify(parse("2*y1", CTX2)), (2, 3): Const(2)}


def test_exterior_derivative_of_function_coefficient():
    omega = TwoForm.single(2, 1, 2, parse("x1", CTX2))
    d = exterior_derivative_2(omega)
    assert dict(d.items()) == {(0, 1, 2): ONE}
    assert d.components() == [ONE]


def test_two_form_printing():
    omega = TwoForm.single(2, 0, 2, 1) + TwoForm.single(2, 1, 3, parse("-2*y2", CTX2))
    assert format_two_form(omega) == "dx1^dy1 + (-2*y2)*dx2^dy2"
    assert format_two_form(TwoForm.zero(2)) == "0"
    assert format_two_form(TwoForm.single(2, 0, 2, -2)) == "(-2)*dx1^dy1"
    mixed = (TwoForm.single(2, 0, 2, -1)
             + TwoForm.single(2, 1, 3, parse("x1 + y1", CTX2)))
    assert format_two_form(mixed) == "(-1)*dx1^dy1 + (x1 + y1)*dx2^dy2"
    adapted = TwoForm.single(2, 0, 3, parse("3*x1", CTX2), basis=BERWALD,
                             N=connection_coefficients(_spray2()))
    assert format_two_form(adapted) == "3*x1*dx1^del2"


def _odd(idx) -> bool:
    """Whether sorting idx (distinct entries) is an odd permutation, from its
    cycles: a k-cycle is k - 1 transpositions."""
    order = sorted(range(len(idx)), key=idx.__getitem__)
    cycles, seen = 0, set()
    for start in range(len(idx)):
        if start not in seen:
            cycles += 1
            k = start
            while k not in seen:
                seen.add(k)
                k = order[k]
    return (len(idx) - cycles) % 2 == 1


# index tuples of length 2 and 3 over the 2n flat slots, repeats allowed
INDEX_TUPLES = st.integers(1, 3).flatmap(lambda n: st.lists(
    st.integers(0, 2 * n - 1), min_size=2, max_size=3).map(tuple))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(INDEX_TUPLES)
def test_the_accumulator_stores_at_the_sorted_tuple_with_the_permutation_sign(idx):
    e = parse("x1*y1 + 2", CTX3)
    comps: dict = {}
    forms._accum(comps, idx, e)
    if len(set(idx)) < len(idx):
        assert comps == {}
        return
    signed = Neg(e) if _odd(idx) else e
    assert comps == {tuple(sorted(idx)): signed}
    # a second term at the same tuple is added to the first
    forms._accum(comps, idx, e)
    assert comps == {tuple(sorted(idx)): Add((signed, signed))}
