"""Expr's operator overloads, and a bound body that reads a coordinate past
x1, which every evaluation path refuses with evaluate's message."""

from fractions import Fraction

import numpy as np
import pytest

from spraydirac.errors import EvalDomainError
from spraydirac.expr import (
    Context, Point, compile_exprs, evaluate, evaluate_points, format_expr, parse,
)

MESSAGE = "^coordinate x2 out of range for point of dimension 1$"


def _past_x1():
    ctx = Context(dim=1)
    ctx.declare_function("f", parse("x2", Context(2)))
    return ctx, parse("f(x1)", ctx)


def test_a_body_past_x1_is_refused_by_every_path():
    ctx, e = _past_x1()
    p = Point((0.5,), (0.25,))
    with pytest.raises(EvalDomainError, match=MESSAGE):
        evaluate(e, p, ctx)
    with pytest.raises(EvalDomainError, match=MESSAGE):
        list(evaluate_points([e], [p, p], ctx))
    with pytest.raises(EvalDomainError, match=MESSAGE):
        compile_exprs([e], ctx)(np.array([0.5, 0.25]))


def test_operator_overloads_print_as_parsed():
    x = parse("x1", Context(dim=1))
    got = [1 + x, 2 * x, 1 - x, 1 / x, -x, x ** 2, x ** Fraction(1, 2)]
    assert list(map(format_expr, got)) == [
        "1 + x1", "2*x1", "1 - x1", "1/x1", "-x1", "x1^2", "x1^1/2"]
    with pytest.raises(TypeError):
        x ** 0.5
