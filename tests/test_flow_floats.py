"""The flow pipeline's float paths give what the bodies they replaced gave:
the rk4 march kept in one flat list gives the list-of-tuples arrays, the
rk45 field on compile_exprs's G gives the checked-G field, and the checked
rows give the checked callable on each row, bit for bit or error for error.
Where floats cannot finish, each reference takes evaluate's values."""

import contextlib
import math
import struct
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from spraydirac.errors import EvalDomainError  # noqa: E402
from spraydirac.expr import (  # noqa: E402
    FLOAT_FALLBACK_ERRORS, Add, Call, Const, Context, Div, Mul, Neg, Param, Point, Pow,
    Var, _NonFinite, compile_exprs, compile_rk4_step, parse,
)
from spraydirac.geometry import SemiSpray  # noqa: E402
from spraydirac.motion import (  # noqa: E402
    Trajectory, _near_locus, _rk45_field, conservation_drift, integrate_sode,
)
from spraydirac.problemfile import parse_problem_file  # noqa: E402

from evaluate_ref import (  # noqa: E402
    evaluate_values, evaluated, floats_then_evaluate, rk4_array_step,
)


# -- the bodies that built what the next stage converted back -----------------

def _old_field(G, ctx):
    """The array field on the checked G: y copied, -2.0*G multiplied after;
    G on plain floats, or evaluate's where they cannot finish."""
    n = ctx.dim
    g = floats_then_evaluate(compile_exprs(G, ctx).raw, G, ctx)

    def field(z, params):
        out = np.empty(2 * n)
        out[:n] = z[n:]
        out[n:] = [-2.0 * gi for gi in g(z, params)]
        return out

    return field


def _old_rk4(S, p0, dt, steps, ctx):
    """integrate_sode's rk4 march keeping a list of state tuples, with the
    steps that floats cannot finish done on arrays with evaluate's values."""
    step = compile_rk4_step(S.G, S.singular_loci, ctx, dt)
    params = dict(ctx.params)
    params.update(p0.params)
    z0 = np.concatenate([np.asarray(p0.x, float), np.asarray(p0.y, float)])
    vals = evaluated(S.singular_loci, z0, params, ctx)
    z = tuple(z0.tolist())
    times = [0.0]
    states = [z]
    below = tuple(v < 0 for v in vals)
    aborted = False
    reason = None
    for k in range(steps):
        z_next = step(z, params, below)
        if z_next is None:
            with np.errstate(all="ignore"):
                try:
                    z_arr = rk4_array_step(evaluate_values(S.G, params, ctx), np.array(z), dt)
                    if np.all(np.isfinite(z_arr)):
                        vals = evaluate_values(S.singular_loci, params, ctx)(z_arr)
                        entered = (_near_locus(vals)
                                   or tuple(v < 0 for v in vals) != below)
                        z_next = () if entered else tuple(z_arr.tolist())
                except EvalDomainError as exc:
                    aborted, reason = True, f"evaluation failed: {exc}"
                    break
            if z_next is None:
                aborted, reason = True, "state became non-finite"
                break
        if not z_next:
            aborted, reason = True, "state entered a singular locus"
            break
        z = z_next
        times.append((k + 1) * dt)
        states.append(z)
    return Trajectory(S.n, np.array(times), np.array(states), "rk4", dt,
                      params, aborted, reason)


def _old_drift(traj, H, ctx):
    """conservation_drift calling H once per row of states.tolist(); where
    floats cannot finish every row, each row runs on floats first and on
    evaluate where they cannot finish it."""
    hfun = compile_exprs((H,), ctx)
    with contextlib.suppress(*FLOAT_FALLBACK_ERRORS):
        vals = [hfun.raw(row, traj.params or {})[0] for row in traj.states.tolist()]
        if math.isfinite(sum(vals)):
            return float(max(abs(v - vals[0]) for v in vals))
    checked = floats_then_evaluate(hfun.raw, (H,), ctx)
    vals = np.array([checked(row, traj.params)[0] for row in traj.states], dtype=float)
    return float(np.max(np.abs(vals - vals[0])))


# -- outcomes -----------------------------------------------------------------

def _bits(v):
    if isinstance(v, (float, np.floating)):
        return struct.pack("<d", v)
    return type(v), v


def _outcome(fn, *args):
    """What fn gives: arrays by shape, dtype and bytes, floats by bits, and
    an error by type and message."""
    try:
        with np.errstate(all="ignore"):
            out = fn(*args)
    except Exception as exc:  # noqa: BLE001 -- compared, not handled
        return type(exc), str(exc)
    if isinstance(out, Trajectory):
        return ("trajectory", _outcome(lambda: out.times), _outcome(lambda: out.states),
                out.aborted, out.abort_reason)
    if isinstance(out, np.ndarray):
        return out.shape, out.dtype, out.tobytes()
    if isinstance(out, list):
        return [tuple(map(_bits, row)) for row in out]
    return _bits(out)


X1, Y1 = Var("x", 1), Var("y", 1)
# A is exact, B a float, C declared without a value, D not in the params
PARAMS = {"A": Fraction(3, 7), "B": 0.75, "C": None}
LEAVES = st.sampled_from([X1, Y1, X1, Y1, Param("A"), Param("B"), Param("C"), Param("D"),
                          Const(0), Const(Fraction(1, 3)), Const(2.5), Const(1e300)])
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


TREES = st.recursive(LEAVES, _nodes, max_leaves=6)
COORDS = st.one_of(st.floats(-3.0, 3.0),
                   st.sampled_from([0.0, -0.0, -1.0, 800.0, 1e200, 1e308]))
# y may also hold an infinity or a nan, as an rk45 stage state may
FIELD_COORDS = st.one_of(COORDS, st.sampled_from([math.inf, -math.inf, math.nan]))
STATES = st.lists(st.tuples(COORDS, COORDS), min_size=1, max_size=8)


def _ctx():
    ctx = Context(dim=1, params=dict(PARAMS))
    ctx.declare_function("f", parse("x1^2 + 1", Context(1)))
    return ctx


F_OF_X1 = parse("f(x1)*y1", _ctx())


# -- rk4 ----------------------------------------------------------------------

# a file and the start velocity, from x = 0.5
RK4_FILES = {
    "free": ("dim = 1\nspray G1 = 0\n", 1.0),
    "decay": ("dim = 2\nparam A = 1/3\nspray G1 = A*y1*y2\nspray G2 = y2^2/(x1 + 3)\n"
              "exclude x1 + 3\n", 1.0),
    "body": ("dim = 1\nparam f = fn(x1^2 + 1)\nspray G1 = f(x1)*y1^2*(1/10)\n", 1.0),
    # the locus x1 = 1 is reached from x1 = 0.5
    "locus": ("dim = 1\nexclude x1 - 1\nspray G1 = 0\n", 1.0),
    # x'' = 2y^2 blows up in finite time, past the double range
    "blow-up": ("dim = 1\nspray G1 = -y1^2\n", 1.0),
    # x1 falls below 0, where floats raise for ln and numpy gives nan
    "domain": ("dim = 1\nspray G1 = ln(x1)*y1\n", -1.0),
    # x1 steps across 0, where 1/x1 is large
    "division": ("dim = 1\nspray G1 = 1/x1\n", -1.0),
}


def _rk4_case(name):
    text, y = RK4_FILES[name]
    pf = parse_problem_file(text)
    S = pf.semispray()
    return S, Point((0.5,) * S.n, (y,) * S.n), pf.context


@pytest.mark.parametrize("steps", [0, 1, 40, 400])
@pytest.mark.parametrize("name", RK4_FILES)
def test_flat_rk4_states_equal_the_list_of_tuples(name, steps):
    S, p0, ctx = _rk4_case(name)
    new = _outcome(integrate_sode, S, p0, 0.01, steps, "rk4", ctx)
    assert new == _outcome(_old_rk4, S, p0, 0.01, steps, ctx)
    assert new[0] == "trajectory"
    assert new[2][1] == np.float64 and new[2][0] == (len(new[1][2]) // 8, 2 * S.n)


def test_the_rk4_cases_abort():
    reasons = {}
    for name in RK4_FILES:
        S, p0, ctx = _rk4_case(name)
        reasons[name] = integrate_sode(S, p0, 0.01, 400, "rk4", ctx).abort_reason
    assert reasons == {
        "free": None, "decay": None, "body": None,
        "locus": "state entered a singular locus",
        "blow-up": "evaluation failed: overflow in power",
        "domain": "evaluation failed: ln of a nonpositive value",
        "division": None,
    }


@settings(max_examples=150, deadline=None, derandomize=True)
@given(TREES, COORDS, COORDS, st.sampled_from([0.01, 0.5]), st.integers(0, 6))
@example(Mul((Const(1e300), Y1, Y1)), 0.5, 1e5, 0.5, 3)
@example(Pow(X1, Fraction(400)), 0.5, 1.0, 0.5, 6)
# -2.0*G overflows at the start: no infinite stage state reaches evaluate
@example(Add((X1, Y1)), 0.0, 1e308, 0.01, 1)
# the builtins' edges: ln at 0.0, -0.0 and a subnormal, sqrt at -0.0, exp on
# either side of its overflow, sin of a product that overflows to inf, and
# ln of an exact parameter
@example(Call("ln", X1), 0.0, 1.0, 0.01, 2)
@example(Call("ln", X1), -0.0, 1.0, 0.01, 2)
@example(Call("ln", X1), 5e-324, 1.0, 0.01, 1)
@example(Call("sqrt", X1), -0.0, -1.0, 0.01, 2)
@example(Call("exp", X1), 709.78, 1.0, 0.01, 3)
@example(Call("exp", X1), 710.0, 1.0, 0.01, 1)
@example(Call("sin", Mul((Const(1e300), X1))), 1e200, 1.0, 0.01, 1)
@example(Call("ln", Param("A")), 0.5, 1.0, 0.01, 2)
def test_rk4_on_random_coefficients_equals_the_list_of_tuples(G, x, y, dt, steps):
    ctx = _ctx()
    S = SemiSpray(1, (G,))
    p0 = Point((x,), (y,))
    assert (_outcome(integrate_sode, S, p0, dt, steps, "rk4", ctx)
            == _outcome(_old_rk4, S, p0, dt, steps, ctx))


# -- the rk45 field ----------------------------------------------------------

@settings(max_examples=300, deadline=None, derandomize=True)
@given(TREES, FIELD_COORDS, FIELD_COORDS)
# -2.0*G overflows where G does not
@example(Mul((Const(1e300), Y1, Y1)), 0.5, 1e4)
@example(Mul((Const(1e308), Y1)), 0.5, 1.0)
# y holds an infinity or a nan
@example(Y1, 0.5, math.inf)
@example(X1, 0.5, math.nan)
# a division by zero, on floats and on numpy scalars
@example(Div(Y1, X1), 0.0, 1.0)
@example(Div(Y1, X1), -0.0, 1.0)
# an exact parameter stays a Fraction until -2.0 multiplies it
@example(Mul((Param("A"), X1)), 0.5, 1.0)
@example(Param("A"), 0.5, 1.0)
# a parameter without a value, and one not in the params
@example(Param("C"), 0.5, 1.0)
@example(Param("D"), 0.5, 1.0)
@example(F_OF_X1, 1e200, 1.0)
def test_the_generated_field_equals_the_checked_g_field(G, x, y):
    ctx = _ctx()
    z = np.array([x, y])
    want = _outcome(lambda: _old_field((G,), ctx)(z, dict(PARAMS)))
    try:
        g = compile_exprs((G,), ctx)
    except EvalDomainError as exc:
        # simplify refuses G before any state
        assert (type(exc), str(exc)) == want
        return
    # where the state is not finite and the checked G refuses it, the field
    # raises the non-finite state's signal, with evaluate's message
    if not np.isfinite(z).all() and want[0] is EvalDomainError:
        want = _NonFinite, want[1]
    assert _outcome(lambda: _rk45_field(g, 1, dict(PARAMS))(z)) == want


def test_the_generated_field_keeps_the_component_order():
    ctx = Context(dim=2)
    G = (parse("x1*y2", ctx), parse("y1 - x2", ctx))
    field = _rk45_field(compile_exprs(G, ctx), 2, {})
    z = np.array([0.5, 1.5, -2.0, 3.0])
    assert field(z).tolist() == [-2.0, 3.0, -2.0 * 1.5, -2.0 * (-2.0 - 1.5)]


# -- the drift rows ----------------------------------------------------------

@settings(max_examples=300, deadline=None, derandomize=True)
@given(TREES, STATES)
@example(F_OF_X1, [(0.5, 1.0), (1e200, 1.0)])
@example(Div(Y1, X1), [(1.0, 1.0), (0.0, 1.0)])
@example(Param("A"), [(1.0, 1.0), (0.0, 1.0)])
@example(Mul((Param("D"), X1)), [(0.5, 1.0)])
def test_drift_rows_equal_the_per_row_values(H, states):
    ctx = _ctx()
    traj = Trajectory(1, 0.1 * np.arange(len(states)), np.array(states), "rk4", 0.1,
                      dict(PARAMS))
    assert (_outcome(lambda: compile_exprs((H,), ctx).rows(traj.states, dict(PARAMS)))
            == _outcome(lambda: [compile_exprs((H,), ctx)(row, dict(PARAMS))
                                 for row in traj.states.tolist()]))
    assert _outcome(conservation_drift, traj, H, ctx) == _outcome(_old_drift, traj, H, ctx)


def test_drift_over_rows_wider_than_the_context_reads_the_first_columns():
    ctx = Context(dim=1)
    traj = Trajectory(1, [0.0, 0.1], [[1.0, 2.0, 9.0, 9.0], [0.5, 2.5, 9.0, 9.0]], "rk4",
                      0.1, {})
    H = parse("x1*y1", ctx)
    assert conservation_drift(traj, H, ctx) == _old_drift(traj, H, ctx) == 0.75


# -- the checked rows ----------------------------------------------------------

# rows may hold infinities and nans, and may be wider than 2 * ctx.dim
ROW_COORDS = st.one_of(COORDS, st.sampled_from([math.inf, -math.inf, math.nan]))
ROWS = st.integers(2, 4).flatmap(lambda width: st.lists(
    st.lists(ROW_COORDS, min_size=width, max_size=width), min_size=1, max_size=6))
# the second row's sum overflows, so the call on it goes to evaluate, which
# refuses the product x1*y1 that floats read as inf under 1/(... + 1); the
# sum over every value of both rows stays finite
OFFSET_SUMS = [X1, X1, Div(Const(1), Add((Mul((X1, Y1)), Const(1))))]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(TREES, min_size=1, max_size=3), ROWS)
@example(OFFSET_SUMS, [[-5e307, 10.0], [1e308, 10.0]])
@example([X1, Y1], [[0.5, 1.0, 9.0], [0.5, math.nan, 9.0]])
@example([Y1], [[0.5, 1.0], [0.5, math.inf]])
@example([Div(Y1, X1)], [[1.0, 1.0], [0.0, 1.0]])
@example([Call("ln", X1)], [[1.0, 1.0], [-1.0, 1.0]])
@example([Mul((Param("A"), X1)), Param("A")], [[0.5, 1.0]])
@example([Param("C")], [[0.5, 1.0]])
@example([Param("D")], [[0.5, 1.0, 2.0]])
@example([F_OF_X1], [[0.5, 1.0], [1e200, 1.0]])
# the builtins' edges, as for rk4 above
@example([Call("ln", X1), Call("sqrt", Y1)], [[0.0, -0.0], [-0.0, -1.0], [5e-324, 1.0]])
@example([Call("exp", X1)], [[709.78, 1.0], [710.0, 1.0]])
@example([Call("cos", Mul((Const(1e300), X1)))], [[1.0, 1.0], [1e200, 1.0]])
def test_checked_rows_equal_the_call_on_each_row(exprs, states):
    ctx = _ctx()
    states = np.array(states, dtype=float)
    assert (_outcome(lambda: compile_exprs(exprs, ctx).rows(states, dict(PARAMS)))
            == _outcome(lambda: [compile_exprs(exprs, ctx)(row, dict(PARAMS))
                                 for row in states.tolist()]))
