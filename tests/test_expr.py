"""Expression kernel: grammar, canonical form, calculus, zero testing."""

import math
from fractions import Fraction

import numpy as np
import pytest

from spraydirac.errors import EvalDomainError, ParseError
from spraydirac import expr
from spraydirac.expr import (
    MAX_NESTING, Const, Context, Point, SampleConfig, Tri, Var, _clear_draws, _iroot,
    clear_caches, compile_exprs, compile_rk4_step, diff, evaluate,
    evaluate_points, evaluate_points_with_magnitude, evaluate_with_magnitude,
    format_expr, is_zero, parse, simplify,
)


CTX2 = Context(dim=2)
CTX3 = Context(dim=3)

ROUND_TRIP = [
    "y2^2",
    "x1 + 2*x2",
    "-(2*y2*x1 - y1)/(y1*y2)",
    "x2 - (1/2)*ln(y1/y2)",
    "sin(x1)*cos(x2) + exp(y1)",
    "sqrt(x1^2 + 1)",
    "y1^3/2",
    "1/y2 - 2*x1/y1",
]


@pytest.mark.parametrize("text", ROUND_TRIP)
def test_parse_format_round_trip(text):
    e = parse(text, CTX2)
    printed = format_expr(e)
    again = parse(printed, CTX2)
    assert simplify(again) == simplify(e)
    # printing is a fixed point after one pass
    assert format_expr(again) == printed


def test_simplify_idempotent():
    for text in ROUND_TRIP:
        e = simplify(parse(text, CTX2))
        assert simplify(e) == e


def test_exponent_lexing_is_maximal_munch():
    # y1^2/2 reads as y1^(2/2); parenthesize to divide a square by two
    assert simplify(parse("y1^2/2", CTX2)) == simplify(parse("y1", CTX2))
    assert format_expr(parse("y1^1/2", CTX2)) == "y1^1/2"
    with pytest.raises(ParseError):
        parse("y1^(1/2)", CTX2)  # exponents are bare rationals, no parens
    half_square = simplify(parse("(y1^2)/2", CTX2))
    assert half_square != simplify(parse("y1", CTX2))
    p = Point((0.0, 0.0), (3.0, 1.0), {})
    assert evaluate(half_square, p, CTX2) == pytest.approx(4.5)


def test_coordinates_are_built_once_per_dimension():
    coords = expr.coordinates(3)
    assert coords == tuple(Var(axis, i) for axis in "xy" for i in (1, 2, 3))
    assert expr.coordinates(3) is coords
    assert parse("y2", CTX3) is coords[4]
    assert parse("x3", CTX3) is coords[2]


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse("y1 +* 2", CTX2)
    assert err.value.position == 4
    with pytest.raises(ParseError):
        parse("x3", CTX2)  # coordinate index beyond the dimension
    with pytest.raises(ParseError):
        parse("foo(x1)", CTX2)  # undeclared function
    with pytest.raises(ParseError):
        parse("x1 + ", CTX2)
    with pytest.raises(ParseError):
        parse("(x1", CTX2)


def test_opaque_function_round_trip_and_derivative_symbols():
    ctx = Context(dim=2)
    ctx.declare_function("f")
    e = parse("f''(x1)*f(x1) + f'(x1)^2", ctx)
    assert format_expr(parse(format_expr(e), ctx)) == format_expr(e)
    with pytest.raises(ParseError):
        parse("f'(x1)", CTX2)  # apostrophes need a declared function


def test_evaluate_fixtures():
    p = Point((0.0, 5.0), (1.0, 1.0), {})
    v3 = parse("x2 - (1/2)*ln(y1/y2)", CTX2)
    assert evaluate(v3, p, CTX2) == pytest.approx(5.0)

    e = parse("1/y3", CTX3)
    bad = Point((0.0, 0.0, 0.0), (1.0, 1.0, 0.0), {})
    with pytest.raises(EvalDomainError):
        evaluate(e, bad, CTX3)
    with pytest.raises(EvalDomainError):
        evaluate(parse("ln(x1)", CTX2), Point((-1.0, 0.0), (0.0, 0.0), {}), CTX2)
    with pytest.raises(EvalDomainError):
        evaluate(parse("sqrt(x1)", CTX2), Point((-4.0, 0.0), (0.0, 0.0), {}), CTX2)


def test_evaluate_uses_bound_params_and_functions():
    ctx = Context(dim=1, params={"A": 0.25})
    assert evaluate(parse("4*A*x1", ctx), Point((2.0,), (0.0,), {}), ctx) == 2.0
    ctx2 = Context(dim=1)
    ctx2.declare_function("f", parse("x1^2 + 1", Context(dim=1)))
    p = Point((3.0,), (0.0,), {})
    assert evaluate(parse("f(x1)", ctx2), p, ctx2) == 10.0
    assert evaluate(parse("f'(x1)", ctx2), p, ctx2) == 6.0


def test_a_redeclared_function_is_evaluated_with_its_new_body():
    ctx = Context(dim=1)
    ctx.declare_function("f", parse("x1^2", Context(dim=1)))
    e, p = parse("f(x1) + f'(x1)", ctx), Point((3.0,), (0.0,))
    assert [(evaluate(e, p, ctx),)] == list(evaluate_points((e,), [p], ctx)) == [(15.0,)]
    ctx.declare_function("f", parse("x1^3", Context(dim=1)))
    assert [(evaluate(e, p, ctx),)] == list(evaluate_points((e,), [p], ctx)) == [(54.0,)]
    assert compile_exprs((e,), ctx)((3.0, 0.0)) == (54.0,)


DIFF_CASES = [
    ("x1^3 + 2*x1*x2", "x1"),
    ("sin(x1)*cos(x1)", "x1"),
    ("exp(x1*y1)", "y1"),
    ("ln(x1^2 + 1)", "x1"),
    ("sqrt(y1^2 + y2^2)", "y2"),
    ("1/(x1 + 3)", "x1"),
    ("y1^5/2", "y1"),
    ("x1*sin(x2)/(y1 + 2)", "y1"),
]


@pytest.mark.parametrize("text,wrt", DIFF_CASES)
def test_diff_against_finite_differences(text, wrt):
    e = parse(text, CTX2)
    de = diff(e, parse(wrt, CTX2))
    rng = np.random.default_rng(7)
    h = 1e-6
    checked = 0
    while checked < 10:
        vals = rng.uniform(0.4, 1.6, size=4)
        axis, idx = wrt[0], int(wrt[1]) - 1
        def at(shift):
            x, y = list(vals[:2]), list(vals[2:])
            (x if axis == "x" else y)[idx] += shift
            return Point(tuple(x), tuple(y), {})
        num = (evaluate(e, at(h), CTX2) - evaluate(e, at(-h), CTX2)) / (2 * h)
        sym = evaluate(de, at(0.0), CTX2)
        assert abs(num - sym) <= 1e-7 * max(1.0, abs(sym))
        checked += 1


def test_mixed_partials_commute():
    x1, y2 = parse("x1", CTX2), parse("y2", CTX2)
    for text in ("x1^2*y2^3", "sin(x1*y2)", "exp(x1)/(y2 + 2)"):
        e = parse(text, CTX2)
        ab = simplify(diff(diff(e, x1), y2))
        ba = simplify(diff(diff(e, y2), x1))
        assert ab == ba


def test_diff_fixture_power():
    # d/dy2 y2^2 = 2 y2
    assert simplify(diff(parse("y2^2", CTX2), parse("y2", CTX2))) \
        == simplify(parse("2*y2", CTX2))


def test_is_zero_structural_and_cleared_denominators():
    ctx = Context(dim=2)
    ctx.declare_function("f")
    # numerator cancels after clearing f from the denominator
    e = parse("2*f'(x1)*y1^2 - (y1^2*f'(x1)/f(x1))*2*f(x1)", ctx)
    assert is_zero(e, ctx) is Tri.PROVEN_ZERO
    assert is_zero(parse("4*f'(x1)*x2*y1", ctx), ctx) is Tri.PROVEN_NONZERO
    assert is_zero(parse("x1 - x1", CTX2), CTX2) is Tri.PROVEN_ZERO
    assert is_zero(parse("x1*x2 - x2*x1", CTX2), CTX2) is Tri.PROVEN_ZERO
    assert is_zero(Const(0), CTX2) is Tri.PROVEN_ZERO
    assert is_zero(parse("y1 + 1", CTX2), CTX2) is Tri.PROVEN_NONZERO


def test_is_zero_proves_zero_by_clearing_denominators():
    # not zero as it stands: x1 cancels only once (y1 + 1) is cleared too
    e = parse("x1/(x1*y1 + x1) - 1/(y1 + 1)", CTX2)
    assert expr._nf(e)
    assert is_zero(e, CTX2) is Tri.PROVEN_ZERO


def test_is_zero_sampling_respects_loci():
    # 1/y3 never evaluates on the excluded slab, verdict still lands
    e = parse("x1/y3 - x1/y3", CTX3)
    assert is_zero(e, CTX3, loci=(parse("y3", CTX3),)) is Tri.PROVEN_ZERO
    e2 = parse("1/y3", CTX3)
    assert is_zero(e2, CTX3, loci=(parse("y3", CTX3),)) is Tri.PROVEN_NONZERO


def test_is_zero_is_deterministic_per_seed():
    e = parse("sin(x1)^2 + cos(x1)^2 - 1", CTX2)
    cfg = SampleConfig(seed=99)
    first = is_zero(e, CTX2, cfg)
    assert all(is_zero(e, CTX2, SampleConfig(seed=99)) is first for _ in range(3))
    # identically zero numerically but not structurally: never "nonzero"
    assert first is not Tri.PROVEN_NONZERO


def test_nested_formal_functions_are_drawn_inside_out():
    ctx = Context(dim=1)
    ctx.declare_function("f")
    ctx.declare_function("h")
    for text in ("f(h(x1))", "h(f(x1))"):
        e = parse(text, ctx)
        assert is_zero(e, ctx) is Tri.PROVEN_NONZERO


@pytest.mark.parametrize("seed", [0, 1, 20260823])
def test_a_point_is_drawn_as_the_scalar_uniform_stream(seed):
    ctx = Context(dim=3, params={"A": 0.5, "B": None, "C": None})
    cfg = SampleConfig(box=(-1.5, 2.5), coord_boxes={"x2": (0.25, 0.75), "y3": (-9.0, -8.0)},
                       seed=seed)
    ref = np.random.default_rng(seed)
    clear_caches()
    # want=1 draws rows 8 at a time, so the 50 draws cross six batch boundaries
    points = list(_clear_draws(ctx, cfg, (), 50, 1))
    assert len(points) == 50
    for p in points:
        x = [float(ref.uniform(*cfg.coord_boxes.get(f"x{i}", cfg.box))) for i in (1, 2, 3)]
        y = [float(ref.uniform(*cfg.coord_boxes.get(f"y{i}", cfg.box))) for i in (1, 2, 3)]
        params = {"A": 0.5, "B": float(ref.uniform(*cfg.box)),
                  "C": float(ref.uniform(*cfg.box))}
        assert (p.x, p.y, p.params) == (tuple(x), tuple(y), params)
        assert list(p.params) == ["A", "B", "C"]
    # a longer limit continues the memoised stream where the batches stopped
    more = list(_clear_draws(ctx, cfg, (), 60, 60))
    assert more[:50] == points
    for p in more[50:]:
        assert p.x[0] == float(ref.uniform(*cfg.box))
        ref.random(7)     # the rest of the row
    clear_caches()


def test_constant_folding():
    assert simplify(parse("2 + 3", CTX2)) == Const(5)
    assert evaluate(simplify(parse("2^1/2", CTX2)),
                    Point((0.0, 0.0), (0.0, 0.0), {}), CTX2) \
        == pytest.approx(math.sqrt(2))
    assert simplify(parse("0*x1 + y1", CTX2)) == Var("y", 1)


def test_a_product_that_underflows_leaves_no_term():
    # scaling the sum by 1/1e200 takes 1e-200*x2 to 0.0*x2
    assert format_expr(simplify(parse("1/(1e200*x1 + 1e-200*x2)", CTX2))) == "1e-200/x1"
    assert format_expr(simplify(parse("(1e200*x1 + 1e-200*x2)^50", CTX2))) == "inf*x1^50"


def test_exact_roots_of_huge_integers():
    # 10^400 is past the float range: a float root would overflow
    assert simplify(parse("(10^400)^1/2", CTX2)) == Const(10 ** 200)
    assert simplify(parse("(8/27)^2/3", CTX2)) == Const(Fraction(4, 9))
    big = 3 ** 500 + 1
    assert _iroot(big ** 7, 7) == big
    assert _iroot(big ** 7 + 1, 7) is None
    assert _iroot(2, 10 ** 9) is None


# -- the nesting bound ----------------------------------------------------------

_DEEPEST = MAX_NESTING - 1   # levels inside the outermost one
NESTED = {
    "parentheses": "(" * _DEEPEST + "y1" + ")" * _DEEPEST + "^2",
    "minus signs": "-" * _DEEPEST + "y1^2",
    "calls": "sin(" * _DEEPEST + "x1" + ")" * _DEEPEST,
    "a product": "y1^2" + "*x1" * _DEEPEST,
    "a quotient": "y1^2" + "/(x1 + 2)" * (_DEEPEST - 1),
    # a sum and a root at each level: the tree is twice as deep as the text
    "roots": "(" * _DEEPEST + "x1 + 2" + ")^1/2 + 1" * _DEEPEST,
    "mixed": "(" + "(-(" * (_DEEPEST // 3) + "x1 + 2" + ")^1/2 + 1)*x1" * (_DEEPEST // 3) + ")",
}


def _value_or_error(fn):
    try:
        return fn()
    except EvalDomainError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("text", NESTED.values(), ids=NESTED.keys())
def test_the_deepest_expressions_stay_inside_the_recursion_limit(text):
    ctx = Context(dim=1)
    e = parse(text, ctx)
    s = simplify(e)
    for v in (Var("x", 1), Var("y", 1)):
        diff(e, v)
        simplify(diff(s, v))
    expr._nf(e)
    compile_exprs((e, s), ctx)
    compile_rk4_step((e,), (s,), ctx, 0.01)
    p = Point((0.5,), (0.75,))
    for batch, one in ((evaluate_points, evaluate),
                       (evaluate_points_with_magnitude, evaluate_with_magnitude)):
        # "mixed" takes a root of a negative value, at a node the pass
        # reaches at its full depth
        assert (_value_or_error(lambda: list(batch((e, s), [p], ctx)))
                == _value_or_error(lambda: [(one(e, p, ctx), one(s, p, ctx))]))
    format_expr(e)
    format_expr(s)
    clear_caches()
    # one level more is refused
    deeper = "(" + text + ")" if text[0] != "-" else "-" + text
    with pytest.raises(ParseError, match=f"nested deeper than {MAX_NESTING} levels"):
        parse(deeper, ctx)


def test_an_applied_body_counts_as_deep_as_it_nests():
    ctx = Context(dim=1)
    ctx.declare_function("f", parse("sin(" * 20 + "x1" + ")" * 20, Context(1)))
    assert ctx.funcs["f"].nesting == 21
    # f(x1) inside 29 factors: 29 + 21 levels
    e = parse("(" * 28 + "f(x1)" + ")" * 28, ctx)
    compile_exprs((e,), ctx)
    with pytest.raises(ParseError, match="nested deeper"):
        parse("(" * 29 + "f(x1)" + ")" * 29, ctx)
    # chained bodies add up: g inlines f beside each of its arguments
    ctx.declare_function("g", parse("f(f(x1))", Context(1, funcs=dict(ctx.funcs))))
    assert ctx.funcs["g"].nesting == 23
    with pytest.raises(ParseError, match="nested deeper"):
        parse("(" * 27 + "g(x1)" + ")" * 27, ctx)
