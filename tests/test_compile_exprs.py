"""compile_exprs inlines bound function bodies: it gives what compiling each
body on its own gives, bit for bit, where plain floats finish, and
evaluate's outcome where they cannot; chained bodies compile."""

import math
import struct
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from spraydirac import expr  # noqa: E402
from spraydirac.errors import EvalDomainError, UnboundParameterError  # noqa: E402
from spraydirac.expr import (  # noqa: E402
    Add, Call, Const, Context, Div, FuncApp, Mul, Neg, Param, Point, Pow, Var,
    _fpow, clear_caches, compile_exprs, compile_rk4_step,
    evaluate, format_expr, parse, simplify,
)

from evaluate_ref import evaluated, floats_then_evaluate  # noqa: E402


# -- the body-table compile: every body compiled on its own ------------------

def _ln(v):
    if v <= 0.0:
        raise EvalDomainError("ln of a nonpositive value")
    return math.log(v)


def _sqrt(v):
    if v < 0.0:
        raise EvalDomainError("sqrt of a negative value")
    return math.sqrt(v)


def _table_src(e, ctx):
    if isinstance(e, Const):
        v = e.value
        try:
            finite = math.isfinite(v)
        except OverflowError:
            finite = False
        if not finite:    # evaluate decides
            return "_refuse()"
        if isinstance(v, Fraction):
            return f"({v.numerator}/{v.denominator})" if v.denominator != 1 else f"({v.numerator})"
        return f"({v!r})"
    if isinstance(e, Var):
        return f"_v_{e.axis}{e.index}"
    if isinstance(e, Param):
        return f"_p[{e.name!r}]"
    if isinstance(e, Add):
        return "(" + "+".join(_table_src(c, ctx) for c in e.children) + ")"
    if isinstance(e, Mul):
        return "(" + "*".join(_table_src(c, ctx) for c in e.children) + ")"
    if isinstance(e, Pow):
        r = e.exponent
        if r.denominator == 1:
            return f"({_table_src(e.base, ctx)}**({int(r)}))"
        return f"_fpow({_table_src(e.base, ctx)}, {float(r)!r})"
    if isinstance(e, Call):
        fn = {"sin": "math.sin", "cos": "math.cos", "exp": "math.exp",
              "ln": "_ln", "sqrt": "_sqrt"}[e.fname]
        return f"{fn}({_table_src(e.arg, ctx)})"
    if isinstance(e, FuncApp):
        return f"_fn[({e.fname!r}, {e.order})]({_table_src(e.arg, ctx)}, _p)"
    raise TypeError(f"cannot compile {e!r}")


def _funcapps(exprs):
    """Every opaque-function application in exprs, nested ones included."""
    found = set()
    todo = list(exprs)
    while todo:
        e = todo.pop()
        if isinstance(e, FuncApp):
            found.add(e)
        if isinstance(e, (FuncApp, Call)):
            todo.append(e.arg)
        elif isinstance(e, (Add, Mul)):
            todo.extend(e.children)
        elif isinstance(e, Pow):
            todo.append(e.base)
    return found


def _body_table(exprs, ctx):
    fn_table = {}
    for app in _funcapps(exprs):
        key = (app.fname, app.order)
        if key in fn_table:
            continue
        body = ctx.func_derivative(app.fname, app.order)
        if body is None:
            raise UnboundParameterError(
                f"opaque function {app.fname!r} needs a bound body to compile")
        inner = _table_compile([simplify(body)], Context(1, params=dict(ctx.params)))
        fn_table[key] = (lambda f: (lambda t, p: f((t, 0.0), p)[0]))(inner)
    return fn_table


def _table_compile(exprs, ctx):
    n = ctx.dim
    fn_table = _body_table(exprs, ctx)
    lines = ["def _compiled(_z, _p, _fn):"]
    lines += [f"    _v_x{i} = _z[{i - 1}]" for i in range(1, n + 1)]
    lines += [f"    _v_y{a} = _z[{n + a - 1}]" for a in range(1, n + 1)]
    srcs = []
    for e in map(simplify, exprs):
        # an output or body that is a bare parameter or constant is a float,
        # as evaluate gives it
        bare = isinstance(e, (Param, Const))
        srcs.append(f"float({_table_src(e, ctx)})" if bare else _table_src(e, ctx))
    lines.append(f"    return ({', '.join(srcs)},)")
    ns = {"math": math, "_fpow": _fpow, "_ln": _ln, "_sqrt": _sqrt,
          "_refuse": lambda: 1 / 0}
    exec("\n".join(lines), ns)
    raw = ns["_compiled"]
    return floats_then_evaluate(lambda z, p: raw(z, p, fn_table), exprs, ctx)


# -- generated bodies and expressions -----------------------------------------

X1, X2, Y1, Y2 = Var("x", 1), Var("x", 2), Var("y", 1), Var("y", 2)
# A is exact, B is a float some points leave out, C is never given
PARAMS = [Param("A"), Param("B"), Param("C")]
CONSTS = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=4).map(Const),
    st.sampled_from([Const(0.5), Const(-2.5), Const(1e300), Const(Fraction(10 ** 400, 3))]),
)
EXPONENTS = st.sampled_from([Fraction(k) for k in range(-3, 4)]
                            + [Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2)])


def _nodes(children, apps=False):
    terms = st.lists(children, min_size=2, max_size=3).map(tuple)
    out = [
        terms.map(Add), terms.map(Mul), children.map(Neg),
        st.tuples(children, children).map(lambda t: Div(*t)),
        st.tuples(children, EXPONENTS).map(lambda t: Pow(*t)),
        st.tuples(st.sampled_from(["sin", "exp", "ln", "sqrt"]), children).map(
            lambda t: Call(*t)),
    ]
    if apps:
        out.append(st.tuples(st.sampled_from(["f", "g"]), st.integers(0, 2), children).map(
            lambda t: FuncApp(*t)))
    return st.one_of(*out)


BODIES = st.recursive(st.one_of(st.sampled_from([X1, X1, Y1, *PARAMS]), CONSTS),
                      _nodes, max_leaves=5)
TREES = st.recursive(st.one_of(st.sampled_from([X1, X2, Y1, Y2, *PARAMS[:2]]), CONSTS),
                     lambda c: _nodes(c, apps=True), max_leaves=6)
# most expressions apply f or g at the top, where simplify keeps them
APPS = st.tuples(st.sampled_from(["f", "g"]), st.integers(0, 2), TREES).map(
    lambda t: FuncApp(*t))
EXPRS = st.lists(st.one_of(TREES, APPS), min_size=1, max_size=3)
COORDS = st.one_of(st.floats(-3.0, 3.0, allow_nan=False),
                   st.sampled_from([0.0, 1.0, -1.0, 1e5]))
STATES = st.tuples(COORDS, COORDS, COORDS, COORDS)


def _bits(v):
    if isinstance(v, tuple):
        return tuple(_bits(u) for u in v)
    return struct.pack("<d", v) if isinstance(v, float) else v


def _outcome(fn, *args):
    try:
        return "value", _bits(fn(*args))
    except Exception as exc:  # noqa: BLE001 -- compared, not handled
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(BODIES, BODIES, EXPRS, STATES, st.booleans())
# bodies at the builtins' edges: ln at 0.0, sqrt at -0.0 and below 0
@example(Call("ln", X1), Call("sqrt", X1), [FuncApp("f", 0, X2), FuncApp("g", 0, Y1)],
         (0.5, 0.0, -0.0, 1.0), True)
@example(Call("ln", X1), Call("sqrt", X1), [FuncApp("f", 0, X1), FuncApp("g", 0, Y2)],
         (-0.0, 1.0, 1.0, -1.0), True)
def test_inlined_bodies_match_the_body_table(f_body, g_body, trees, z, with_b):
    ctx = Context(dim=2, params={"A": Fraction(3, 7), "B": None, "C": None})
    ctx.declare_function("f", f_body)
    ctx.declare_function("g", g_body)
    params = {"A": Fraction(3, 7), **({"B": 0.75} if with_b else {})}
    old = _outcome(_table_compile, trees, ctx)
    new = _outcome(compile_exprs, trees, ctx)
    assert (old[0] == "value") == (new[0] == "value")
    if old[0] != "value":
        assert new == old
        return
    old, new = _table_compile(trees, ctx), compile_exprs(trees, ctx)
    for state in (z, np.array(z)):
        assert _outcome(new, state, params) == _outcome(old, state, params)


# -- floats first, evaluate where floats cannot finish ------------------------

# zeros to divide by, powers that overflow a double, subnormals
EDGE_COORDS = st.one_of(st.floats(-3.0, 3.0, allow_nan=False),
                        st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e5, 1e160, 1e300, 5e-324]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(BODIES, BODIES, EXPRS, st.tuples(*[EDGE_COORDS] * 4), st.booleans(), st.booleans())
@example(X1, X1, [Div(Y1, X1)], (0.0, 1.0, 1.0, 1.0), True, True)   # division by zero
@example(X1, X1, [Pow(X1, Fraction(3))], (1e160, 1.0, 1.0, 1.0), True, True)   # ** overflows
@example(X1, X1, [Call("ln", X1), Y1], (-1.0, 1.0, 1.0, 1.0), True, True)   # out of the domain
@example(X1, X1, [Add((PARAMS[2], X1))], (1.0, 1.0, 1.0, 1.0), True, True)   # C is unbound
@example(X1, X1, [Mul((Const(3), PARAMS[0], X1))], (0.1, 1.0, 1.0, 1.0), True, False)
# numpy scalars gave y1^2/(2 + inf) = 0.0 here, where evaluate refuses 0^-1
@example(X1, X1, [Div(Pow(Y1, Fraction(2)), Add((Const(2), Pow(X1, Fraction(-1)))))],
         (0.0, 1.0, 1.0, 1.0), True, True)
# the builtins' edges: ln at 0.0, -0.0 and a subnormal, sqrt at -0.0 and
# below 0, exp on either side of its overflow, sin of a product that
# overflows to inf, ln of an exact parameter and cos of a huge constant
@example(X1, X1, [Call("ln", X1), Call("ln", Y1)], (0.0, 1.0, -0.0, 1.0), True, True)
@example(X1, X1, [Call("ln", X1)], (5e-324, 1.0, 1.0, 1.0), True, True)
@example(X1, X1, [Call("sqrt", X1), Call("sqrt", Y1)], (-0.0, 1.0, -1.0, 1.0), True, True)
@example(X1, X1, [Call("exp", X1), Call("exp", Y1)], (709.78, 1.0, 710.0, 1.0), True, True)
@example(X1, X1, [Call("sin", Mul((Const(1e300), X1)))], (1e10, 1.0, 1.0, 1.0), True, True)
@example(X1, X1, [Call("ln", PARAMS[0]), Call("cos", Const(Fraction(10 ** 400, 3)))],
         (0.5, 1.0, 1.0, 1.0), True, True)
def test_floats_first_give_the_ndarray_outcome(f_body, g_body, trees, z, exact_a, with_b):
    # an ndarray state runs on plain floats, and where they cannot finish
    # evaluate decides, as for a tuple
    ctx = Context(dim=2, params={"A": Fraction(3, 7), "B": None, "C": None})
    ctx.declare_function("f", f_body)
    ctx.declare_function("g", g_body)
    if _outcome(compile_exprs, trees, ctx)[0] != "value":
        return
    fn = compile_exprs(trees, ctx)
    params = {"A": Fraction(3, 7) if exact_a else 3 / 7, **({"B": 0.75} if with_b else {})}
    new = _outcome(fn, np.array(z), params)
    assert new == _outcome(floats_then_evaluate(fn.raw, trees, ctx), np.array(z), params)
    assert new == _outcome(fn, z, params)
    if new[0] == "value":
        assert not any(isinstance(v, np.generic) for v in fn(np.array(z), params))


def test_an_ndarray_state_gives_python_floats():
    ctx = Context(dim=2)
    fn = compile_exprs((parse("x1*y2 + sin(x2)", ctx), parse("y1^2/x1", ctx)), ctx)
    assert [type(v) for v in fn(np.array([0.5, 1.5, -2.0, 3.0]))] == [float, float]
    # at x1 = 0 floats raise: evaluate decides on the simplified y1^2*x1^-1
    with pytest.raises(EvalDomainError, match="^zero raised to a negative power$"):
        fn(np.array([0.0, 1.5, -2.0, 3.0]))


def test_a_non_finite_state_is_refused_before_evaluate():
    # evaluate would read the state as it is, and its fsum of +inf and -inf
    # raise ValueError
    ctx = Context(dim=1)
    fn = compile_exprs((parse("x1 + y1", ctx),), ctx)
    for z in ((math.inf, -math.inf), np.array([math.inf, -math.inf]), (math.nan, 1.0)):
        with pytest.raises(EvalDomainError, match="^non-finite value in compiled evaluation$"):
            fn(z)


# bodies a random draw seldom makes: one whose value overflows where the
# expression around it would hide that, and one with a sum at a negative
# power (the outcome at x1 = 1e5)
HAND_PICKED = [("10^300*x1^2", "y1^2/(1 + f(x1))", EvalDomainError),
               ("x1/(x1 + 1/3)^-1 + y1", "f(x2) + f'(x1)*y1 - f(x1)", "value")]


@pytest.mark.parametrize("body, text, at_1e5", HAND_PICKED)
def test_hand_picked_bodies_match_the_body_table(body, text, at_1e5):
    ctx = Context(dim=2)
    ctx.declare_function("f", parse(body, Context(1)))
    e = parse(text, ctx)
    old, new = _table_compile((e,), ctx), compile_exprs((e,), ctx)
    for x in [*np.linspace(-2.0, 2.0, 41), 1e5, 1e200]:
        for state in ((x, 0.3, 0.7, -1.1), np.array([x, 0.3, 0.7, -1.1])):
            assert _outcome(new, state) == _outcome(old, state)
    assert _outcome(new, (1e5, 0.0, 1.0, 0.0))[0] == at_1e5


def test_chained_bodies_compile_as_evaluate_applies_them():
    ctx = Context(dim=1)
    body_ctx = Context(1, funcs=ctx.funcs)
    ctx.declare_function("f", parse("x1^2 + 1", body_ctx))
    ctx.declare_function("g", parse("f(x1) + 1", body_ctx))
    e = parse("g(x1)", ctx)
    fn = compile_exprs((e,), ctx)
    for x in (0.0, 0.7, -3.25, 1e100):
        assert fn((x, 0.5)) == (evaluate(e, Point((x,), (0.5,)), ctx),)
    # f's x1^2 overflows a double: evaluate decides, for either state
    for state in (np.array([1e200, 0.5]), (1e200, 0.5)):
        with pytest.raises(EvalDomainError, match="^overflow in power$"):
            fn(state)


def test_a_body_value_is_tested_finite_in_the_generated_code(monkeypatch):
    # the body's value is not tested on its own: it reaches the power's
    # base, one of the finiteness rule's operands, which is read through
    # _fin, and a value that the power masks still fails
    sources = []
    exec_def = expr._exec_def
    monkeypatch.setattr(expr, "_exec_def", lambda lines, **names:
                        sources.append("\n".join(lines)) or exec_def(lines, **names))
    ctx = Context(dim=1)
    ctx.declare_function("f", parse("10^300*x1^2", Context(1)))
    e = parse("y1^2/(1 + f(x1))", ctx)
    clear_caches()
    fn = compile_exprs((e,), ctx)
    step = compile_rk4_step((e,), (), ctx, 0.01)
    clear_caches()
    assert len(sources) == 2
    # the base is tested, and the argument, a coordinate, is not
    assert all("_fin(((1)+(_a1 := _v_x1, " in src for src in sources)
    assert "_isfinite(" not in sources[0]
    assert fn((0.5, 2.0)) == (evaluate(e, Point((0.5,), (2.0,)), ctx),)
    # f(1e5) is inf on floats, and y1^2/(1 + inf) is 0.0; evaluate refuses
    # the product 10^300*x1^2
    with pytest.raises(EvalDomainError, match="^product produced a non-finite value$"):
        fn((1e5, 1.0))
    assert step((1e5, 1.0), {}, ()) is None


def test_a_bare_exact_parameter_or_constant_output_is_a_float():
    # evaluate gives a float; the Fraction or int the generated code read
    # the output as made each consumer's sum and -2.0*v run on Fractions,
    # whose reflected operators compute float(a) op float(b): no bit moves
    A = Fraction(1, 3)
    ctx = Context(dim=1, params={"A": A})
    fn = compile_exprs((Param("A"), Const(Fraction(2)), Var("x", 1)), ctx)
    for out in (fn((0.5, 1.0), {"A": A}), *fn.rows(np.array([[0.5, 1.0]]), {"A": A})):
        assert [type(v) for v in out] == [float, float, float]
        assert _bits(out) == _bits((float(A), 2.0, 0.5))
        assert _bits(tuple(-2.0 * v for v in out[:2])) == _bits((-2.0 * A, -2.0 * 2))


def test_a_bare_exact_parameter_or_constant_body_is_a_float():
    # f's body A and g's derivative body 1 gave Fraction(1, 3) and 1 where
    # evaluate gives floats
    A = Fraction(1, 3)
    ctx = Context(dim=1, params={"A": A})
    ctx.declare_function("f", Param("A"))
    ctx.declare_function("g", Var("x", 1))
    trees = (parse("f(x1)", ctx), parse("g'(x1)", ctx))
    assert [format_expr(simplify(t)) for t in trees] == ["f(x1)", "g'(x1)"]
    p = Point((0.5,), (1.0,), {"A": A})
    want = tuple(evaluate(simplify(t), p, ctx) for t in trees)
    assert want == (0.3333333333333333, 1.0)
    fn = compile_exprs(trees, ctx)
    for out in (fn((0.5, 1.0), {"A": A}), fn.raw((0.5, 1.0), {"A": A}),
                *fn.rows(np.array([[0.5, 1.0]]), {"A": A})):
        assert [type(v) for v in out] == [float, float]
        assert _bits(out) == _bits(want)


def test_an_application_without_a_body_is_refused_when_compiling():
    ctx = Context(dim=1)
    ctx.declare_function("f")
    with pytest.raises(UnboundParameterError, match="'f' needs a bound body"):
        compile_exprs((parse("y1 + f(x1)", ctx),), ctx)
    # simplify cancels this one, so there is nothing to refuse
    assert compile_exprs((parse("y1 + f(x1) - f(x1)", ctx),), ctx)((0.0, 2.0)) == (2.0,)


@pytest.mark.parametrize("coord", [Var("x", 3), Var("y", 2)], ids=["x3", "y2"])
def test_a_coordinate_past_the_dimension_is_refused_when_compiling(coord):
    # evaluate's error and message, not a NameError when the code runs
    ctx = Context(dim=1)
    message = f"^coordinate {coord.name} out of range for point of dimension 1$"
    with pytest.raises(EvalDomainError, match=message):
        evaluate(coord, Point((0.5,), (1.0,)), ctx)
    e = Add((X1, coord))
    for build in (lambda: compile_exprs((e,), ctx),
                  lambda: compile_rk4_step((e,), (), ctx, 0.01),
                  lambda: compile_rk4_step((X1,), (e,), ctx, 0.01)):
        with pytest.raises(EvalDomainError, match=message):
            build()
    # the memo keeps no module for a refused tree
    with pytest.raises(EvalDomainError, match=message):
        compile_exprs((e,), ctx)


# constants that simplify keeps and evaluate refuses; plain floats read
# exp(-inf*x1^2) and 1/(inf + x1) as 0.0, and 10^400*x1^2 raises OverflowError
REFUSED_CONSTANTS = [
    (Call("exp", Neg(Mul((Const(math.inf), X1, X1)))), "non-finite constant"),
    (Add((X1, Div(Const(1), Add((Const(math.inf), X1))))), "non-finite constant"),
    (Call("exp", Neg(Mul((Const(10 ** 400), X1, X1)))), "constant out of double range"),
]


@pytest.mark.parametrize("e, message", REFUSED_CONSTANTS)
def test_the_generated_code_refuses_what_evaluate_refuses_in_a_constant(e, message):
    ctx = Context(dim=1)
    with pytest.raises(EvalDomainError, match=f"^{message}$"):
        evaluate(simplify(e), Point((0.5,), (1.0,)), ctx)
    for z in ((0.5, 1.0), np.array([0.5, 1.0])):
        with pytest.raises(EvalDomainError, match=f"^{message}$"):
            compile_exprs((e,), ctx)(z)
    step = compile_rk4_step((e,), (), ctx, 0.01)
    assert step((0.5, 1.0), {}, ()) is None


def test_a_constant_that_simplify_folds_away_is_not_compiled():
    # simplify folds 1/inf to 0 before any source is generated, so floats
    # and evaluate both read x1 here
    ctx = Context(dim=1)
    e = Add((X1, Pow(Const(math.inf), Fraction(-1))))
    assert simplify(e) == X1
    assert compile_exprs((e,), ctx)((0.5, 1.0)) == (0.5,)
    assert compile_rk4_step((e,), (), ctx, 0.01)((0.5, 1.0), {}, ()) is not None
