"""The compiled evaluator gives what evaluate and evaluate_with_magnitude
give, bit for bit, or raises what they raise first, type and text."""

import math
import struct
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from spraydirac.errors import EvalDomainError  # noqa: E402
from spraydirac.expr import (  # noqa: E402
    Add, Call, Const, Context, Div, FuncApp, Mul, Neg, Param, Point, Pow, Var,
    clear_caches, compile_evaluate, compile_evaluate_with_magnitude, evaluate,
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


def _outcome(fn, *args):
    try:
        return "value", _bits(fn(*args))
    except Exception as exc:  # noqa: BLE001 -- compared, not handled
        return type(exc), str(exc)


def _reference(exprs, p, one):
    """evaluate (or evaluate_with_magnitude) over exprs in order."""
    return tuple(one(e, p, CTX) for e in exprs)


@PROPERTY
@given(st.lists(TREES, min_size=1, max_size=3), POINTS)
def test_compiled_evaluation_matches_evaluate(trees, p):
    # repeated subtrees: the compiled code computes a shared node once
    exprs = trees + [Add((trees[0], trees[-1])), Mul((trees[-1], trees[0]))]
    expected = _outcome(_reference, exprs, p, evaluate)
    assert _outcome(compile_evaluate(exprs, CTX), p) == expected
    for e in exprs:
        assert (_outcome(compile_evaluate((e,), CTX), p)
                == _outcome(_reference, (e,), p, evaluate))


@PROPERTY
@given(st.lists(TREES, min_size=1, max_size=3), POINTS)
def test_magnitude_mode_matches_evaluate_with_magnitude(trees, p):
    exprs = trees + [Add(tuple(trees) + (Const(1),))]
    assert (_outcome(compile_evaluate_with_magnitude(exprs, CTX), p)
            == _outcome(_reference, exprs, p, evaluate_with_magnitude))


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
        assert (_outcome(compile_evaluate(exprs, CTX), p)
                == _outcome(_reference, exprs, p, evaluate))
        assert (_outcome(compile_evaluate_with_magnitude(exprs, CTX), p)
                == _outcome(_reference, exprs, p, evaluate_with_magnitude))


def test_the_top_level_sum_of_magnitude_mode_is_not_checked():
    p = Point((0.0,), (0.0,))
    e = Add((Const(1.0), Const(math.inf)))
    with pytest.raises(EvalDomainError, match="sum produced a non-finite value"):
        compile_evaluate((e,), None)(p)
    assert (compile_evaluate_with_magnitude((e,), None)(p)
            == (evaluate_with_magnitude(e, p),) == ((math.inf, math.inf),))


def test_compiled_callables_are_memoised_until_clear_caches():
    exprs = (parse("x1*y2 + g(x2)", CTX), parse("f(x1)/y1", CTX))
    first = compile_evaluate(exprs, CTX)
    assert compile_evaluate(list(exprs), CTX) is first
    assert compile_evaluate_with_magnitude(exprs, CTX) is not first
    other = Context(dim=2, params=dict(CTX.params), funcs=dict(CTX.funcs))
    assert compile_evaluate(exprs, other) is not first
    clear_caches()
    assert compile_evaluate(exprs, CTX) is not first


def test_a_redeclared_body_is_compiled_afresh():
    ctx = Context(dim=1)
    ctx.declare_function("k")
    e = parse("k(x1)", ctx)
    p = Point((0.5,), (0.0,))
    assert compile_evaluate((e,), ctx)(p) == (formal_value("k", 0, 0.5),)
    ctx.declare_function("k", parse("x1 + 1", Context(1)))
    assert compile_evaluate((e,), ctx)(p) == (evaluate(e, p, ctx),) == (1.5,)
