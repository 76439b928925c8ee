"""One finiteness rule for both float fast paths: a float run can turn a
non-finite value finite only at four operands (the base of a power whose
exponent is <= 0, a quotient's denominator, exp's argument and a function's
argument), so the generated code and the columnar pass test each constant,
each output and each of those operands that is computed, and nothing else.

Here trees whose computed operands overflow (products of coordinates at
+-1e80 to 1e300) give evaluate's outcome on every fast path: compile_exprs,
compile_rk4_step (or None, which leaves the step to evaluate) and
evaluate_points, bit for bit or error for error.  A state that is not
finite is refused with one signal, expr._NonFinite."""

import json
import math
import struct
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from spraydirac import cli, expr  # noqa: E402
from spraydirac.errors import EvalDomainError  # noqa: E402
from spraydirac.expr import (  # noqa: E402
    Add, Call, Const, Context, Div, FuncApp, Mul, Neg, Point, Pow, Var, _NonFinite,
    _evaluated, compile_exprs, compile_rk4_step, evaluate, evaluate_points, parse,
)
from spraydirac.geometry import SemiSpray  # noqa: E402
from spraydirac.motion import integrate_sode  # noqa: E402

from evaluate_ref import evaluate_values, evaluated, rk4_array_step  # noqa: E402

X1, X2, Y1, Y2 = Var("x", 1), Var("x", 2), Var("y", 1), Var("y", 2)


def _ctx():
    """Dimension 2; f, g and h have the bodies 2, 1/(x1^2 + 1) and x1, and
    k has none (the columnar pass gives it its formal value)."""
    ctx = Context(dim=2)
    for name, body in (("f", "x1^0 + 1"), ("g", "1/(x1^2 + 1)"), ("h", "x1")):
        ctx.declare_function(name, parse(body, Context(1)))
    return ctx


CTX = _ctx()


def _bits(v):
    if isinstance(v, (tuple, list)):
        return tuple(_bits(u) for u in v)
    # an int body value (f's 2) has evaluate's float value
    return struct.pack("<d", v) if isinstance(v, (int, float)) else v


def _outcome(fn, *args):
    try:
        return "value", _bits(fn(*args))
    except Exception as exc:  # noqa: BLE001 -- compared, not handled
        return type(exc), str(exc)


# -- trees whose computed operands overflow ------------------------------------

COORDS = st.one_of(
    st.tuples(st.sampled_from([1.0, -1.0]), st.sampled_from([1e80, 1e100, 1e160, 1e200, 1e300]))
    .map(lambda t: t[0] * t[1]),
    st.sampled_from([0.5, -2.0, 0.0]))
STATES = st.tuples(COORDS, COORDS, COORDS, COORDS)
PRODUCTS = st.lists(st.sampled_from([X1, X2, Y1, Y2]), min_size=2, max_size=4).map(
    lambda cs: Mul(tuple(cs)))
EXPONENTS = st.sampled_from([Fraction(0), Fraction(-1), Fraction(-2), Fraction(-1, 2)])


def _operands(p):
    """The four operands of the rule, each holding the product p."""
    return st.one_of(
        EXPONENTS.map(lambda r: Pow(p, r)),
        st.sampled_from([Div(Const(1), Add((p, Const(1)))), Div(Y1, p)]),
        st.sampled_from([Call("exp", Neg(p)), Call("exp", Mul((Const(-1), p)))]),
        st.sampled_from(["f", "g", "h"]).map(lambda name: FuncApp(name, 0, p)),
    )


TREES = PRODUCTS.flatmap(_operands).flatmap(
    lambda op: st.sampled_from([op, Add((Neg(Y1), op)), Mul((X2, op))]))

MASKED = parse("-y1 + 1/(x1*x2*x1*x2 + 1)", CTX)


def _unsigned_zero(fn):
    """fn with each value + 0.0: the generated code's plain + and evaluate's
    math.fsum differ on the sign of a zero sum (-0.0 + -0.0), and on
    nothing else in a sum of two terms."""
    return lambda *args: tuple(v + 0.0 for v in fn(*args))


def _generated_outcomes(tree, z):
    """What compile_exprs and compile_rk4_step give at the state z, beside
    evaluate's outcome on the simplified tree they compile."""
    want = _outcome(_unsigned_zero(evaluated), (tree,), z, {}, CTX)
    assert _outcome(_unsigned_zero(compile_exprs((tree,), CTX)), z) == want
    # a step that floats finish is the step on evaluate's values, and one
    # they cannot finish is left to evaluate (None)
    G = (tree, Const(0))
    step = compile_rk4_step(G, (), CTX, 0.01)(z, {}, ())
    if step is not None:
        values = _unsigned_zero(evaluate_values(G, {}, CTX))
        with np.errstate(all="ignore"):
            ref = rk4_array_step(values, np.array(z), 0.01)
        assert _bits(step) == _bits(ref.tolist())


@settings(max_examples=500, deadline=None, derandomize=True)
@given(TREES, STATES)
@example(MASKED, (1e80, 1e80, 0.0, 0.0))
@example(Call("exp", Neg(Mul((X1, X2)))), (1e200, 1e200, 0.5, 0.5))
@example(FuncApp("f", 0, Mul((X1, X2))), (1e200, 1e200, 0.5, 0.5))
@example(FuncApp("g", 0, Mul((X1, X2))), (1e200, 1e200, 0.5, 0.5))
@example(FuncApp("h", 0, Mul((X1, X2))), (1e200, -1e200, 0.5, 0.5))
@example(Pow(Mul((X1, Y1)), Fraction(-1)), (1e200, 0.5, 1e200, 0.5))
def test_the_generated_code_gives_evaluates_outcome(tree, z):
    _generated_outcomes(tree, z)


def _one_by_one(exprs, points, ctx):
    for p in points:
        yield tuple(evaluate(e, p, ctx) for e in exprs)


def _rows(rows):
    out = []
    try:
        for row in rows:
            out.append(_bits(row))
    except Exception as exc:  # noqa: BLE001 -- compared, not handled
        out.append((type(exc), str(exc)))
    return out


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.lists(st.one_of(TREES, PRODUCTS.map(lambda p: FuncApp("k", 0, p))),
                min_size=1, max_size=3),
       st.lists(STATES, min_size=1, max_size=3))
@example([Pow(Mul((X1, Y1)), Fraction(0))], [(1e200, 0.5, 1e200, 0.5)])
@example([MASKED], [(0.5, 0.5, 0.0, 0.0), (1e80, 1e80, 0.0, 0.0)])
@example([Call("exp", Neg(Mul((X1, X2))))], [(1e200, 1e200, 0.5, 0.5)])
@example([FuncApp("f", 0, Mul((X1, X2)))], [(1e200, 1e200, 0.5, 0.5)])
@example([FuncApp("k", 0, Mul((X1, X2)))], [(1e200, 1e200, 0.5, 0.5)])
def test_the_columnar_pass_gives_evaluates_outcome(exprs, states):
    points = [Point(z[:2], z[2:]) for z in states]
    assert (_rows(evaluate_points(exprs, points, CTX))
            == _rows(_one_by_one(exprs, points, CTX)))


def test_a_power_of_zero_is_tested_in_the_columnar_pass():
    # raw trees reach the columnar pass, and inf**0 is 1.0 on floats
    tree = Pow(Mul((X1, Y1)), Fraction(0))
    p = Point((1e200, 0.5), (1e200, 0.5))
    with pytest.raises(EvalDomainError, match="^product produced a non-finite value$"):
        next(evaluate_points([tree], [p], CTX))


def test_the_generated_code_tests_the_argument_and_not_the_body_value(monkeypatch):
    src = []
    exec_def = expr._exec_def
    monkeypatch.setattr(expr, "_exec_def", lambda lines, **names:
                        src.append("\n".join(lines)) or exec_def(lines, **names))
    ctx = Context(dim=1)
    ctx.declare_function("f", parse("x1^2 + 1", Context(1)))
    expr.clear_caches()
    compile_exprs((parse("f(x1*y1)", ctx),), ctx)
    expr.clear_caches()
    assert "_isfinite(" not in src[0] and "_f1" not in src[0]
    assert "(_a1 := _fin(" in src[0]


# -- one signal for a state that is not finite ---------------------------------

def test_a_state_that_is_not_finite_is_refused_with_one_signal():
    for exprs in ((), (X1,)):
        with pytest.raises(_NonFinite, match="^non-finite value in compiled evaluation$"):
            _evaluated(exprs, [math.inf, 0.0, 0.0, 0.0], {}, CTX)
    # a library caller sees an EvalDomainError with evaluate's message
    g = compile_exprs((Div(Const(1), X1),), CTX)
    with pytest.raises(EvalDomainError, match="^non-finite value in compiled evaluation$"):
        g((math.nan, 0.0, 0.0, 0.0))


@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_a_field_that_overflows_ends_the_run_as_non_finite(method):
    # -2.0*(10^308 + y1) is -inf on floats, so the next stage state (rk4)
    # or trial state (rk45) is not finite; _evaluated refuses it before
    # evaluate is asked
    ctx = Context(dim=1)
    S = SemiSpray(1, (parse("10^308 + y1", ctx),))
    traj = integrate_sode(S, Point((1.0,), (0.0,)), 0.01, 50, method, ctx)
    assert (traj.aborted, traj.abort_reason) == (True, "state became non-finite")


# -- the masked run ------------------------------------------------------------

@pytest.mark.parametrize("method, t_final", [("rk4", [89.43, 89.21]),
                                             ("rk45", [89.409667166157, 89.201844578818])])
def test_a_run_through_a_masked_overflow_ends_where_evaluate_says(tmp_path, capsys, method,
                                                                  t_final):
    # the field's 1/(x1*x2*x1*x2 + 1) reads 0.0 on floats once the product
    # overflows; evaluate refuses the product, and the runs end there
    # instead of at t = 130
    f = tmp_path / "masked.sdp"
    f.write_text("dim = 2\nspray G1 = -y1 + 1/(x1*x2*x1*x2 + 1)\nspray G2 = -y2\n"
                 f"integrate t=130 dt=0.01 method={method} seed=3 samples=2\n")
    assert cli.main(["integrate", str(f), "--json"]) == 0
    runs = json.loads(capsys.readouterr().out)["trajectories"]
    assert [(r["t_final"], r["aborted"], r["abort_reason"]) for r in runs] == [
        (t, True, "evaluation failed: product produced a non-finite value") for t in t_final]
