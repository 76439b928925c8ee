"""Expression kernel: grammar, canonical form, calculus, zero testing."""

import math
from fractions import Fraction

import numpy as np
import pytest

from spraydirac.errors import EvalDomainError, ParseError
from spraydirac.expr import (
    Const, Context, Point, SampleConfig, Tri, Var, _iroot, diff, evaluate,
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


def test_constant_folding():
    assert simplify(parse("2 + 3", CTX2)) == Const(5)
    assert evaluate(simplify(parse("2^1/2", CTX2)),
                    Point((0.0, 0.0), (0.0, 0.0), {}), CTX2) \
        == pytest.approx(math.sqrt(2))
    assert simplify(parse("0*x1 + y1", CTX2)) == Var("y", 1)


def test_exact_roots_of_huge_integers():
    # 10^400 is past the float range: a float root would overflow
    assert simplify(parse("(10^400)^1/2", CTX2)) == Const(10 ** 200)
    assert simplify(parse("(8/27)^2/3", CTX2)) == Const(Fraction(4, 9))
    big = 3 ** 500 + 1
    assert _iroot(big ** 7, 7) == big
    assert _iroot(big ** 7 + 1, 7) is None
    assert _iroot(2, 10 ** 9) is None
