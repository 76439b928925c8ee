"""One table for the builtin functions: expr._MATH maps each name to its
math function, and evaluate, the constant folder, the generated code and the
columnar pass all call it.  evaluate alone keeps the builtins' guards and
messages; both fast paths call math directly and leave every value math
refuses (ValueError, OverflowError) to evaluate.

Here evaluate's Call branch gives what the branch that listed each builtin
by hand gave, bit for bit or error for error, and the fast paths give
evaluate's outcome at the builtins' edges: 0.0 and -0.0, negatives,
subnormals, exp's overflow threshold, infinities from overflowing products,
and exact and huge Fraction parameters."""

import ast
import inspect
import math
import struct
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from spraydirac import expr  # noqa: E402
from spraydirac.errors import EvalDomainError, ValidationError  # noqa: E402
from spraydirac.expr import (  # noqa: E402
    BUILTIN_FUNCTIONS, Add, Call, Const, Context, Mul, Param, Point, Pow, Var,
    compile_exprs, compile_rk4_step, evaluate, evaluate_points,
)

from evaluate_ref import evaluate_values, evaluated, rk4_array_step  # noqa: E402

X1, Y1 = Var("x", 1), Var("y", 1)


def _listed_call(fname, a):
    """evaluate's Call branch as it listed each builtin, at the value a."""
    try:
        if fname == "sin":
            return math.sin(a)
        if fname == "cos":
            return math.cos(a)
        if fname == "exp":
            v = math.exp(a)
            if not math.isfinite(v):
                raise EvalDomainError("exp produced a non-finite value")
            return v
        if fname == "ln":
            if a <= 0.0:
                raise EvalDomainError("ln of a nonpositive value")
            return math.log(a)
        if fname == "sqrt":
            if a < 0.0:
                raise EvalDomainError("sqrt of a negative value")
            return math.sqrt(a)
    except OverflowError as exc:
        raise EvalDomainError(f"overflow in {fname}") from exc
    except ValueError as exc:
        raise EvalDomainError(f"domain error in {fname}") from exc
    raise ValidationError(f"cannot evaluate {fname!r}")


def _bits(v):
    if isinstance(v, (tuple, list)):
        return tuple(_bits(u) for u in v)
    return struct.pack("<d", v) if isinstance(v, float) else v


def _outcome(fn, *args):
    try:
        return "value", _bits(fn(*args))
    except Exception as exc:  # noqa: BLE001 -- compared, not handled
        return type(exc), str(exc)


# -- the edges ---------------------------------------------------------------

EDGES = [0.0, -0.0, -1.0, -1e-300, 5e-324, -5e-324, 1e-310, 709.78, 710.0, -745.2,
         -746.0, 1e308, -1e308, math.pi, math.inf, -math.inf]
FRACTIONS = [Fraction(0), Fraction(3, 7), Fraction(-3, 7), Fraction(710),
             Fraction(70978, 100), Fraction(1, 10 ** 400), Fraction(10 ** 400),
             Fraction(-(10 ** 400), 3)]
# A is exact, B a float, C declared without a value
CTX = Context(dim=1, params={"A": Fraction(3, 7), "B": None, "C": None})

# (argument, x1, params): a coordinate, a product that overflows to an
# infinity on floats, or a parameter given exactly
COORD_ARGS = st.one_of(st.floats(), st.sampled_from(EDGES)).map(lambda x: (X1, x, {}))
PRODUCT_ARGS = st.tuples(st.sampled_from([1e300, -1e300, 1e-300]),
                         st.sampled_from([1e10, -1e10, 1.0, 0.0, -0.0])).map(
    lambda t: (Mul((Const(t[0]), X1)), t[1], {}))
PARAM_ARGS = st.one_of(st.fractions(), st.sampled_from(FRACTIONS)).map(
    lambda q: (Param("A"), 0.5, {"A": q}))
ARGS = st.one_of(COORD_ARGS, PRODUCT_ARGS, PARAM_ARGS)


# -- evaluate's Call branch ----------------------------------------------------

@settings(max_examples=600, deadline=None, derandomize=True)
@given(st.sampled_from(BUILTIN_FUNCTIONS), ARGS)
@example("ln", (X1, 0.0, {}))
@example("ln", (X1, -0.0, {}))
@example("ln", (X1, 5e-324, {}))
@example("sqrt", (X1, -0.0, {}))
@example("sqrt", (X1, -5e-324, {}))
@example("exp", (X1, 709.78, {}))
@example("exp", (X1, 710.0, {}))
@example("sin", (X1, math.inf, {}))
@example("cos", (X1, -math.inf, {}))
@example("exp", (X1, math.inf, {}))
@example("cos", (Mul((Const(1e300), X1)), 1e10, {}))
@example("ln", (Param("A"), 0.5, {"A": Fraction(1, 10 ** 400)}))
@example("exp", (Param("A"), 0.5, {"A": Fraction(10 ** 400)}))
def test_evaluate_gives_what_the_listed_branch_gave(fname, arg):
    e, x, params = arg
    p = Point((x,), (0.0,), params)
    want = _outcome(evaluate, e, p, CTX)
    if want[0] == "value":
        want = _outcome(_listed_call, fname, evaluate(e, p, CTX))
    assert _outcome(evaluate, Call(fname, e), p, CTX) == want


def test_evaluate_refuses_a_name_outside_the_table():
    e = object.__new__(Call)
    e.fname, e.arg = "tan", X1
    with pytest.raises(ValidationError, match="^cannot evaluate 'tan'$"):
        evaluate(e, Point((0.5,), (0.0,)), CTX)


# -- the fast paths ------------------------------------------------------------

# beside the builtins, -inf under a power of -1/2, where math.pow gives 0.0
# and _fpow refuses the negative base: a sum that overflows, in the
# generated code, and a coordinate, in the columnar pass
PROBES = [*(Call(f, X1) for f in BUILTIN_FUNCTIONS), Pow(Add((X1, Y1)), Fraction(-1, 2))]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.sampled_from(BUILTIN_FUNCTIONS), ARGS, st.sampled_from([1.0, -1e308]))
@example("ln", (X1, -0.0, {}), 1.0)
@example("sqrt", (X1, -0.0, {}), 1.0)
@example("exp", (X1, 710.0, {}), 1.0)
@example("sin", (Mul((Const(1e300), X1)), 1e10, {}), 1.0)
@example("ln", (Param("A"), 0.5, {"A": Fraction(10 ** 400)}), 1.0)
@example("sqrt", (X1, -1e308, {}), -1e308)
def test_the_generated_code_gives_evaluates_outcome(fname, arg, y):
    # evaluate is never asked at a non-finite state
    e, x, params = arg
    if not math.isfinite(x):
        return
    for tree in (*PROBES, Call(fname, e)):
        # where plain floats finish, their value is evaluate's, bit for bit;
        # elsewhere evaluate decides
        assert (_outcome(compile_exprs((tree,), CTX), (x, y), params)
                == _outcome(evaluated, (tree,), (x, y), params, CTX))
        # a step that floats finish is the step on evaluate's values, and
        # one they cannot finish is left to evaluate (None)
        step = compile_rk4_step((tree,), (), CTX, 0.01)((x, y), params, ())
        if step is not None:
            with np.errstate(all="ignore"):
                want = rk4_array_step(evaluate_values((tree,), params, CTX),
                                      np.array([x, y]), 0.01)
            assert _bits(step) == _bits(want.tolist())


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.sampled_from(BUILTIN_FUNCTIONS), st.lists(ARGS, min_size=1, max_size=4))
@example("ln", [(X1, 1.0, {}), (X1, -0.0, {})])
@example("sqrt", [(X1, -0.0, {}), (X1, -1.0, {})])
@example("exp", [(X1, 709.78, {}), (X1, 710.0, {})])
@example("cos", [(X1, 0.5, {}), (X1, math.inf, {})])
@example("exp", [(Param("A"), 0.5, {"A": Fraction(3, 7)})])
@example("sqrt", [(X1, 0.25, {}), (X1, -math.inf, {})])
def test_the_columnar_pass_gives_evaluates_outcome(fname, args):
    calls = [Call(fname, e) for e in dict.fromkeys(e for e, _, _ in args)]
    calls.append(Pow(X1, Fraction(-1, 2)))
    points = [Point((x,), (0.0,), params) for _, x, params in args]

    def one_by_one():
        for p in points:
            yield tuple(evaluate(c, p, CTX) for c in calls)

    outcomes = []
    for rows in (evaluate_points(calls, points, CTX), one_by_one()):
        out = []
        try:
            for row in rows:
                out.append(_bits(row))
        except Exception as exc:  # noqa: BLE001 -- compared, not handled
            out.append((type(exc), str(exc)))
        outcomes.append(out)
    assert outcomes[0] == outcomes[1]


# -- the table -----------------------------------------------------------------

def test_each_builtin_is_named_once_in_the_table():
    tree = ast.parse(inspect.getsource(expr))
    table = next(node for node in ast.walk(tree) if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["_MATH"])
    in_table = {id(node) for node in ast.walk(table)}
    named = [node for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id == "math" and node.attr in ("sin", "cos", "exp", "log", "sqrt")]
    assert sorted(node.attr for node in named) == ["cos", "exp", "log", "sin", "sqrt"]
    assert all(id(node) in in_table for node in named)
    assert BUILTIN_FUNCTIONS == tuple(expr._MATH) == ("sin", "cos", "exp", "ln", "sqrt")
    # the generated code calls the table's functions by their names, and
    # names nothing else of math
    ns = expr._exec_def([])
    assert "math" not in ns
    assert all(ns[name] is fn for name, fn in expr._MATH.items())
