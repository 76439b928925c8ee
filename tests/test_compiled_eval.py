"""evaluate_points gives, point by point, what evaluate and
evaluate_with_magnitude give, bit for bit, or raises what they raise first,
type and text, after the tuples of the points before."""

import math
import struct
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from spraydirac import expr  # noqa: E402
from spraydirac.errors import EvalDomainError  # noqa: E402
from spraydirac.expr import (  # noqa: E402
    Add, Call, Const, Context, Div, FuncApp, Mul, Neg, Param, Point, Pow, Var,
    clear_caches, evaluate, evaluate_points, evaluate_points_with_magnitude,
    evaluate_with_magnitude, formal_value, parse,
)

X1, X2 = Var("x", 1), Var("x", 2)

# A is bound in the context, B only by some points, C by nothing.  f has no
# body, so it takes its formal values; g has one; h's body divides by zero, and so does computing h'.
CTX = Context(dim=2, params={"A": Fraction(3, 7), "B": None, "C": None})
CTX.declare_function("f")
CTX.declare_function("g", parse("x1^2 - 1/x1 + y1", Context(1)))
CTX.declare_function("h", Div(Const(1), Add((X1, Neg(X1)))))

PROPERTY = settings(max_examples=250, deadline=None, derandomize=True)

LEAVES = st.one_of(
    st.sampled_from([X1, X2, Var("y", 1), Var("y", 2), Var("x", 3),
                     Param("A"), Param("B"), Param("C")]),
    st.fractions(min_value=-3, max_value=3, max_denominator=4).map(Const),
    st.sampled_from([Const(0.0), Const(-0.0), Const(0.1), Const(-2.5), Const(1e300),
                     Const(math.inf), Const(Fraction(10 ** 400, 3))]),
)
EXPONENTS = st.sampled_from([Fraction(k) for k in range(-3, 4)]
                            + [Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2),
                               Fraction(1, 3)])


def _nodes(children):
    terms = st.lists(children, min_size=2, max_size=3).map(tuple)
    return st.one_of(
        terms.map(Add),
        terms.map(Mul),
        children.map(Neg),
        st.tuples(children, children).map(lambda t: Div(*t)),
        st.tuples(children, EXPONENTS).map(lambda t: Pow(*t)),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "ln", "sqrt"]), children).map(
            lambda t: Call(*t)),
        st.tuples(st.sampled_from([("f", 0), ("f", 1), ("g", 0), ("g", 1), ("g", 2),
                                   ("h", 0), ("h", 1)]), children).map(
            lambda t: FuncApp(t[0][0], t[0][1], t[1])),
    )


TREES = st.recursive(LEAVES, _nodes, max_leaves=10)
COORDS = st.one_of(st.floats(-3.0, 3.0, allow_nan=False), st.sampled_from([0.0, 1.0]))
POINTS = st.one_of(
    st.tuples(COORDS, COORDS, COORDS, COORDS, st.booleans()).map(
        lambda v: Point(v[:2], v[2:4], {"B": 0.75} if v[4] else {})),
    # a point of dimension 1: x2 and y2 are out of range
    st.tuples(COORDS, COORDS).map(lambda v: Point(v[:1], v[1:])),
)


def _bits(v):
    """A float by its bits (so -0.0 and nan compare as themselves)."""
    if isinstance(v, tuple):
        return tuple(_bits(u) for u in v)
    return struct.pack("<d", v) if isinstance(v, float) else v


def _outcomes(rows):
    """The tuples yielded, by their bits, then the type and text of what was
    raised, if anything."""
    out = []
    try:
        for row in rows:
            out.append(_bits(row))
    except Exception as exc:  # noqa: BLE001 -- compared, not handled
        out.append((type(exc), str(exc)))
    return out


def _reference(exprs, points, one):
    """evaluate (or evaluate_with_magnitude) over exprs, point by point."""
    for p in points:
        yield tuple(one(e, p, CTX) for e in exprs)


def _check(exprs, points):
    """Both modes against their oracles."""
    assert (_outcomes(evaluate_points(exprs, points, CTX))
            == _outcomes(_reference(exprs, points, evaluate)))
    assert (_outcomes(evaluate_points_with_magnitude(exprs, points, CTX))
            == _outcomes(_reference(exprs, points, evaluate_with_magnitude)))


@PROPERTY
@given(st.lists(TREES, min_size=1, max_size=3), st.lists(POINTS, max_size=6))
# the builtins' edges: ln at 0.0, -0.0 and a subnormal, sqrt at -0.0 and
# below 0, exp on either side of its overflow, sin of a product that
# overflows to inf, and ln of an exact and of a huge parameter
@example([Call("ln", X1), Call("sqrt", X2), Call("exp", Var("y", 1))],
         [Point((0.0, -0.0), (709.78, 0.0)), Point((-0.0, -1.0), (710.0, 0.0)),
          Point((5e-324, -5e-324), (-746.0, 0.0))])
@example([Call("sin", Mul((X1, Const(1e300)))), Call("ln", Param("B"))],
         [Point((1.0, 0.0), (0.0, 0.0), {"B": Fraction(3, 7)}),
          Point((1e10, 0.0), (0.0, 0.0), {"B": Fraction(10 ** 400)})])
def test_point_lists_match_evaluate_point_by_point(trees, points):
    # coordinates of 0.0 divide by zero and leave domains at some points,
    # B is bound at some points only, and x2 is out of range at a point of
    # dimension 1
    exprs = trees + [Add((trees[0], trees[-1])), Mul((trees[-1], trees[0]))]
    _check(exprs, points)
    for e in exprs:
        _check((e,), points)


@PROPERTY
@given(st.lists(TREES, min_size=1, max_size=3), POINTS)
def test_compiled_evaluation_matches_evaluate(trees, p):
    # repeated subtrees: the pass computes a shared node once
    exprs = trees + [Add((trees[0], trees[-1])), Mul((trees[-1], trees[0]))]
    expected = _outcomes(_reference(exprs, [p], evaluate))
    assert _outcomes(evaluate_points(exprs, [p], CTX)) == expected
    for e in exprs:
        assert (_outcomes(evaluate_points((e,), [p], CTX))
                == _outcomes(_reference((e,), [p], evaluate)))


@PROPERTY
@given(st.lists(TREES, min_size=1, max_size=3), POINTS)
def test_magnitude_mode_matches_evaluate_with_magnitude(trees, p):
    exprs = trees + [Add(tuple(trees) + (Const(1),))]
    assert (_outcomes(evaluate_points_with_magnitude(exprs, [p], CTX))
            == _outcomes(_reference(exprs, [p], evaluate_with_magnitude)))


BIG = Mul((X1, Const(1e300)))     # inf at x1 = 1e10
ORDERED = [
    # a product's check comes before a sum that would raise on its value
    Add((BIG, Neg(BIG))),
    Add((BIG, Const(1.0))),
    # and before a guard on it, and before a later error
    Div(Const(1.0), Add((BIG, Neg(BIG)))),
    Add((Mul((BIG, X2)), Div(X2, Const(0)))),
    Pow(Add((BIG, X2)), Fraction(1, 2)),
    # intermediate overflow in a sum of finite terms
    Add((Mul((X1, Const(1e298))), Mul((X1, Const(1e298))))),
    Mul((Mul((X1, Const(1e298))), Mul((X1, Const(1e-298))))),
    # a quotient by a value that already passed its guard
    Add((Div(X2, X1), Div(Const(1.0), X1), Pow(X1, -1))),
    Call("ln", Call("ln", X1)),
    # the guards of a power, in evaluate's order
    Pow(X1, Fraction(-1, 2)),
    Pow(Neg(X1), Fraction(-3, 2)),
    Pow(X1, -2),
    Add((Call("sqrt", X1), Call("ln", X1), Call("exp", X1))),
    Call("exp", Const(math.inf)),
    # a parameter without a value is read after the checks before it
    Add((BIG, Param("C"))),
]


@pytest.mark.parametrize("e", ORDERED, ids=range(len(ORDERED)))
@pytest.mark.parametrize("x", [1e10, 0.5, 0.0, -2.0])
def test_errors_come_in_evaluate_order(e, x):
    p = Point((x, 3.0), (1.0, 1.0))
    for exprs in ((e,), (Mul((X2, X2)), e)):
        _check(exprs, [p])
        # the points before a failing one are yielded first
        _check(exprs, [Point((1.5, 3.0), (1.0, 1.0)), p, Point((2.5, 3.0), (1.0, 1.0))])


def test_the_top_level_sum_of_magnitude_mode_is_not_checked():
    # evaluate refuses a non-finite constant, so the infinite term is a coordinate
    p = Point((math.inf,), (0.0,))
    e = Add((Const(1.0), X1))
    with pytest.raises(EvalDomainError, match="sum produced a non-finite value"):
        list(evaluate_points((e,), [p], None))
    assert (list(evaluate_points_with_magnitude((e,), [p], None))
            == [(evaluate_with_magnitude(e, p),)] == [((math.inf, math.inf),)])


def test_nothing_runs_before_the_first_tuple_and_nothing_is_kept(monkeypatch):
    passes = []

    def counted(points, ctx, _real=expr._Columns):
        passes.append(len(points))
        return _real(points, ctx)

    monkeypatch.setattr(expr, "_Columns", counted)
    clear_caches()
    exprs = (parse("x1*y2 + g(x2)", CTX), parse("f(x1)/y1", CTX))
    points = [Point((0.5 * k, 1.0), (1.0, -0.5 * k)) for k in range(1, 5)]
    rows = evaluate_points(exprs, points, CTX)
    assert passes == []
    assert next(rows) == tuple(evaluate(e, points[0], CTX) for e in exprs)
    assert passes == [4]
    assert list(rows) == [tuple(evaluate(e, p, CTX) for e in exprs) for p in points[1:]]
    # one pass over all the points, and no compiled function or memo entry
    assert passes == [4]
    assert expr._COMPILE_MEMO == {}
    assert list(evaluate_points((), points, CTX)) == [()] * 4
    assert list(evaluate_points(exprs, [], CTX)) == []


def test_a_redeclared_body_is_compiled_afresh():
    ctx = Context(dim=1)
    ctx.declare_function("k")
    e = parse("k(x1)", ctx)
    p = Point((0.5,), (0.0,))
    assert list(evaluate_points((e,), [p], ctx)) == [(formal_value("k", 0, 0.5),)]
    ctx.declare_function("k", parse("x1 + 1", Context(1)))
    assert list(evaluate_points((e,), [p], ctx)) == [(evaluate(e, p, ctx),)] == [(1.5,)]
