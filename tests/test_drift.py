"""conservation_drift runs H on plain floats over all rows and falls back to
the checked H row by row: it gives what H gives on each row, on plain floats
or, where they cannot finish, as evaluate decides, bit for bit or error for
error."""

import struct
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from spraydirac import expr  # noqa: E402
from spraydirac.errors import EvalDomainError  # noqa: E402
from spraydirac.expr import (  # noqa: E402
    Add, Call, Const, Context, Div, Mul, Neg, Param, Pow, Var, compile_exprs, parse,
)
from spraydirac.motion import Trajectory, _kept_drift, conservation_drift  # noqa: E402

from evaluate_ref import floats_then_evaluate  # noqa: E402


def _numpy_rows_drift(traj, H, ctx):
    """The drift as H on each row of the trajectory, on plain floats where
    they finish and evaluate's value otherwise."""
    hfun = floats_then_evaluate(compile_exprs((H,), ctx).raw, (H,), ctx)
    vals = np.array([hfun(row, traj.params)[0] for row in traj.states], dtype=float)
    return float(np.max(np.abs(vals - vals[0])))


def _outcome(fn, *args):
    try:
        return "value", struct.pack("<d", fn(*args))
    except Exception as exc:  # noqa: BLE001 -- compared, not handled
        return type(exc), str(exc)


X1, Y1 = Var("x", 1), Var("y", 1)
# A is exact, B a float, C declared without a value, D not in the params
PARAMS = {"A": Fraction(3, 7), "B": 0.75, "C": None}
LEAVES = st.sampled_from([X1, Y1, X1, Y1, Param("A"), Param("B"), Param("C"), Param("D"),
                          Const(0), Const(Fraction(1, 3)), Const(2.5), Const(1e300)])
# overflowing powers (x1^400), division by zero, exp overflow, ln and sqrt
# of negative values
EXPONENTS = st.sampled_from([Fraction(k) for k in (-2, -1, 2, 3, 400)] + [Fraction(1, 2)])


def _nodes(children):
    terms = st.lists(children, min_size=2, max_size=3).map(tuple)
    return st.one_of(
        terms.map(Add), terms.map(Mul), children.map(Neg),
        st.tuples(children, children).map(lambda t: Div(*t)),
        st.tuples(children, EXPONENTS).map(lambda t: Pow(*t)),
        st.tuples(st.sampled_from(["exp", "ln", "sqrt", "sin"]), children).map(
            lambda t: Call(*t)),
    )


H_TREES = st.recursive(LEAVES, _nodes, max_leaves=6)
COORDS = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, -0.0, -1.0, 800.0, 1e200]))
STATES = st.lists(st.tuples(COORDS, COORDS), min_size=1, max_size=8)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(H_TREES, STATES)
@example(Div(Y1, X1), [(1.0, 1.0), (0.0, 1.0)])
@example(Pow(X1, Fraction(400)), [(0.5, 1.0), (800.0, 1.0)])
@example(Call("exp", X1), [(0.5, 1.0), (800.0, 1.0)])
@example(Call("ln", X1), [(0.5, 1.0), (-1.0, 1.0)])
@example(Call("sqrt", X1), [(0.5, 1.0), (-1.0, 1.0)])
@example(Mul((Param("D"), X1)), [(0.5, 1.0)])
@example(Mul((Param("C"), X1)), [(0.5, 1.0)])
@example(Add((Mul((Param("A"), X1)), Param("A"))), [(0.5, 1.0), (1.5, -2.0)])
@example(Mul((Const(1e300), X1, X1)), [(0.5, 1.0), (1e200, 1.0)])
def test_float_drift_matches_numpy_rows(H, states):
    ctx = Context(dim=1, params=dict(PARAMS))
    traj = Trajectory(1, 0.1 * np.arange(len(states)), np.array(states), "rk4", 0.1,
                      dict(PARAMS))
    assert _outcome(conservation_drift, traj, H, ctx) == _outcome(_numpy_rows_drift,
                                                                  traj, H, ctx)


def _evaluated_rows(monkeypatch) -> list:
    """Each state at which evaluate decides the values of H."""
    rows = []
    evaluated = expr._evaluated
    monkeypatch.setattr(expr, "_evaluated",
                        lambda exprs, zl, *args: rows.append(list(zl)) or evaluated(exprs, zl, *args))
    return rows


def test_numpy_rows_run_only_where_floats_fail(monkeypatch):
    rows = _evaluated_rows(monkeypatch)
    ctx = Context(dim=1)
    traj = Trajectory(1, [0.0, 0.1, 0.2], [[1.0, 2.0], [0.5, 2.5], [0.0, 3.0]], "rk4", 0.1, {})
    assert conservation_drift(traj, parse("x1*y1^2", ctx), ctx) == 4.0
    assert rows == []
    # floats divide by zero on the last row: the rows go one by one, and
    # evaluate decides on the last
    with pytest.raises(EvalDomainError, match="^zero raised to a negative power$"):
        conservation_drift(traj, parse("y1/x1", ctx), ctx)
    assert rows == [[0.0, 3.0]]


def test_an_infinity_that_floats_would_mask_fails_the_drift():
    # numpy scalars read y1/(1 + inf) as 0.0 at x1 = 0, a drift of 0.5
    ctx = Context(dim=1)
    traj = Trajectory(1, [0.0, 0.1], [[1.0, 1.0], [0.0, 1.0]], "rk4", 0.1, {})
    with pytest.raises(EvalDomainError, match="^zero raised to a negative power$"):
        conservation_drift(traj, parse("y1/(1 + x1^-1)", ctx), ctx)


def test_a_failure_after_the_start_keeps_the_drift_of_the_rows_before_it():
    ctx = Context(dim=1)
    traj = Trajectory(1, [0.0, 0.1, 0.2, 0.3], [[1.0, 1.0], [1.0, 3.0], [0.0, 2.0], [1.0, 9.0]],
                      "rk4", 0.1, {})
    H = parse("y1/x1", ctx)
    assert _kept_drift(traj, H, ctx) == (2.0, "row 2: zero raised to a negative power")
    assert _kept_drift(traj, parse("x1*y1", ctx), ctx) == (8.0, None)
    # at the start no drift is defined: the error stands
    start = Trajectory(1, [0.0, 0.1], [[0.0, 1.0], [1.0, 1.0]], "rk4", 0.1, {})
    with pytest.raises(EvalDomainError, match="^zero raised to a negative power$"):
        _kept_drift(start, H, ctx)
