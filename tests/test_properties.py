"""Generated-input invariants of the expression kernel, the curvature, the
file parser and the trajectory rows of a report."""

import contextlib
import io
import math
import struct
import sys
import tempfile
from datetime import timedelta
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from spraydirac import ansatz, cli, expr  # noqa: E402
from spraydirac.errors import EvalDomainError, ParseError, ValidationError  # noqa: E402
from spraydirac.expr import (  # noqa: E402
    BUILTIN_FUNCTIONS, ZERO, Add, Call, Const, Context, Div, FuncApp, Mul, Neg,
    Param, Pow, Var, clear_caches, diff, format_expr, parse, simplify,
)
from spraydirac.geometry import (  # noqa: E402
    SemiSpray, berwald_frame, curvature, lie_bracket,
)
from spraydirac.problemfile import load_problem_file, parse_problem_file  # noqa: E402


CTX2 = Context(dim=2)

ATOMS = st.one_of(
    st.sampled_from([Var("x", 1), Var("x", 2), Var("y", 1), Var("y", 2)]),
    st.fractions(min_value=-5, max_value=5, max_denominator=4).map(Const),
)


def _polynomial_nodes(children, exponents=st.integers(0, 3)):
    terms = st.lists(children, min_size=2, max_size=3).map(tuple)
    return st.one_of(
        terms.map(Add),
        terms.map(Mul),
        children.map(Neg),
        st.tuples(children, exponents).map(lambda t: Pow(*t)),
    )


def _rational_nodes(children):
    return st.one_of(
        _polynomial_nodes(children, st.integers(-2, 3)),
        st.tuples(children, children).map(lambda t: Div(*t)),
    )


def _exact_nodes(children):
    return st.one_of(
        _polynomial_nodes(children, st.builds(Fraction, st.integers(-4, 4),
                                              st.integers(1, 3))),
        st.tuples(children, children).map(lambda t: Div(*t)),
        st.tuples(st.sampled_from(BUILTIN_FUNCTIONS), children).map(lambda t: Call(*t)),
    )


POLYNOMIALS = st.recursive(ATOMS, _polynomial_nodes, max_leaves=8)
RATIONALS = st.recursive(ATOMS, _rational_nodes, max_leaves=8)
# exact constants, exponents k/d with |k| <= 4 and d <= 3, and the builtins
EXACT = st.recursive(ATOMS, _exact_nodes, max_leaves=8)

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)

X1, X2 = Var("x", 1), Var("x", 2)
EX4 = str(Path(__file__).resolve().parents[1] / "demos" / "problems" / "ex4.sdp")


def _canonical(e):
    try:
        return simplify(e)
    except EvalDomainError:
        # a denominator that simplifies to zero: outside the domain
        assume(False)


@PROPERTY
@given(POLYNOMIALS)
def test_simplify_is_idempotent_on_polynomials(e):
    s = _canonical(e)
    clear_caches()   # a seeded _nf(s) would answer the second call
    assert simplify(s) == s


@PROPERTY
@given(RATIONALS)
@example(Div(X1, Pow(Add((X1, X2)), -1)))   # x1*(x1 + x2), then x1*x2 + x1^2
def test_simplify_is_idempotent_on_rationals(e):
    s = _canonical(e)
    clear_caches()   # a seeded _nf(s) would answer the second call
    assert simplify(s) == s


@PROPERTY
@given(EXACT)
# a sum, a power and a product base that a product of fractional powers
# brings to an integer power
@example(parse("1/(1/(x1 + 1))^2", CTX2))
@example(parse("(x1 + 1)^1/2*(x1 + 1)^1/2*y1", CTX2))
@example(parse("(x1*y1)^1/2*(x1*y1)^1/2*x2", CTX2))
@example(parse("(x1*y1)^1/2*(x1*y1)^-3/2*x2", CTX2))
@example(parse("(x1^2)^1/2*(x1^2)^1/2*x2", CTX2))
@example(parse("(1/(x1 + x2))^1/2*(1/(x1 + x2))^3/2*y1", CTX2))
# a sum led by -1 at a negative power and past the expansion cap
@example(parse("(-x1 - x2)^1/3*(-x1 - x2)^-4/3*y1", CTX2))
@example(parse("(-x1 - x2)^1/2*(-x1 - x2)^33/2*y1", CTX2))
@example(parse("sin(x1/(x1 + x2)^-1)", CTX2))
def test_simplify_is_a_projection_on_exact_trees(e):
    s = _canonical(e)
    clear_caches()   # a seeded _nf(s) would answer the second call
    assert simplify(s) == s


@PROPERTY
@given(st.one_of(POLYNOMIALS, RATIONALS, EXACT))
@example(Mul((X1, Add((X2, Const(0.5))))))             # a float coefficient
@example(Mul((Add((X1, Const(1))), Call("sin", X2))))  # a base that is not a Var
@example(Add((X2, X1, Const(Fraction(3, 2)))))
def test_simplify_seeds_what_a_cold_rebuild_gives(e):
    clear_caches()
    try:
        nf = expr._nf(e)
    except EvalDomainError:
        assume(False)
    before = set(expr._NF_MEMO)
    s = simplify(e)
    seeded = {k: v for k, v in expr._NF_MEMO.items() if k not in before}
    exact = all(not isinstance(c, float) and all(isinstance(b, (Var, Param)) for b, _ in m)
                for m, c in nf.items())
    assert list(seeded) == ([s] if exact and s not in before else [])
    clear_caches()
    for key, entry in seeded.items():
        assert list(entry.items()) == list(expr._nf(key).items())


@pytest.mark.xfail(strict=True, reason=(
    "known defects: format_expr prints (x1^2)/2 as x1^2/2, which parse reads "
    "as x1^(2/2); and (x1 + x2)^-2 and 1/(x1 + x2)^2 get different normal "
    "forms"))
@PROPERTY
@given(st.one_of(POLYNOMIALS, RATIONALS))
@example(Mul((X1, X1, Const(Fraction(1, 2)))))
@example(Neg(Pow(Add((X1, X2)), -2)))
def test_printed_canonical_form_parses_back(e):
    s = _canonical(e)
    assert simplify(parse(format_expr(s), CTX2)) == s


@PROPERTY
@given(st.one_of(POLYNOMIALS, RATIONALS),
       st.sampled_from([X1, X2, Var("y", 1), Var("y", 2)]))
def test_memoised_kernel_agrees_with_a_cold_one(e, v):
    # warm: the tables still hold the previous example's entries
    warm = _canonical(e), diff(e, v)
    clear_caches()
    cold = simplify(e), diff(e, v)
    assert warm == cold


def test_no_command_mutates_a_memoised_normal_form():
    clear_caches()
    for command in (cli.cmd_analyze, cli.cmd_verify, cli.cmd_search):
        command(EX4, load_problem_file(EX4), None)
    memo = dict(expr._NF_MEMO)
    assert memo
    clear_caches()
    for e, nf in memo.items():
        fresh = expr._nf(e)
        assert fresh == nf, format_expr(e)
        assert [type(c) for c in fresh.values()] == [type(c) for c in nf.values()]
    clear_caches()


# float constants whose products and quotients underflow or overflow
EXTREME = st.recursive(
    st.one_of(ATOMS, st.sampled_from([1e200, 1e-200, 1e300, 1e-300, 1e-160, 5e-324]).map(Const)),
    _rational_nodes, max_leaves=8)


def _nodes(e):
    """Every node in the tree e."""
    yield e
    children = (e.children if isinstance(e, (Add, Mul)) else (e.base,) if isinstance(e, Pow)
                else (e.arg,) if isinstance(e, (Call, FuncApp)) else ())
    for child in children:
        yield from _nodes(child)


@PROPERTY
@given(st.one_of(EXTREME, EXACT))
@example(Div(Const(1), Add((Mul((Const(1e200), X1)), Mul((Const(1e-200), X2))))))
@example(Pow(Add((Mul((Const(1e200), X1)), Mul((Const(1e-200), X2)))), 50))
@example(Pow(Mul((Const(1e-200), X1)), 2))
# leads whose inverse overflows or is 0.0
@example(Div(Pow(Var("y", 1), 2), Add((X1, Const(5e-324)))))
@example(Div(X2, Add((Mul((Const(1e300), Const(1e300), X1)), X2))))
def test_no_coefficient_of_a_normal_form_is_zero(e):
    # a zero coefficient anywhere, inside an atomic sum base too, is a term
    # the normal form should have dropped
    s = _canonical(e)
    assert all(c != 0 for c in expr._nf(e).values())
    if s != ZERO:
        assert all(c.value != 0 for c in _nodes(s) if isinstance(c, Const)), format_expr(s)
    # nor does a canonical form hold a term that cannot be normalised again
    clear_caches()
    simplify(s)


def _values(e):
    """Every constant's value and every power's exponent in the tree e."""
    return [n.value if isinstance(n, Const) else n.exponent
            for n in _nodes(e) if isinstance(n, (Const, Pow))]


@PROPERTY
@given(st.one_of(POLYNOMIALS, RATIONALS, EXACT))
# fractional exponents that add up, or multiply out, to whole ones
@example(parse("(x1 + 1)^1/2*(x1 + 1)^1/2*y1", CTX2))
@example(parse("(x1^2/3)^3/2*(x2*y1)^1/2*(x2*y1)^3/2", CTX2))
@example(parse("1/(x1 + x2)*y1^-1/2", CTX2))
# int bases at negative and fractional powers, and whole Fractions
@example(parse("2^-1*x1 + 8^-2/3*y1 + (1/8)^-1/3 + 3^1/2*x2", CTX2))
@example(Mul((Const(Fraction(6, 3)), Pow(X1, Fraction(4, 2)))))
# a float is built from one and stays one
@example(Mul((X1, Add((X2, Const(0.5))))))
def test_exact_values_are_ints_where_integral_and_fractions_otherwise(e):
    s = _canonical(e)
    exps = [r for mono in expr._nf(e) for _, r in mono]
    assert all(type(r) is (int if r.denominator == 1 else Fraction) for r in exps), exps
    built_float = any(isinstance(v, float) for v in _values(e))
    for tree in (e, parse(format_expr(e), CTX2), s, diff(e, X1)):
        for v in _values(tree):
            assert (type(v) is float and built_float
                    or type(v) is (int if v.denominator == 1 else Fraction)), (v, format_expr(tree))


def _snap_by_fractions(v):
    """ansatz._snap_vector with every entry through limit_denominator."""
    scale = np.max(np.abs(v))
    if scale == 0:
        return None
    snapped = []
    for r in v / scale:
        fr = Fraction(float(r)).limit_denominator(ansatz.SNAP_MAX_DEN)
        if abs(float(fr) - r) > 1e-6:
            return None
        snapped.append(fr)
    return snapped


def _around(x):
    return [x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf)]


# entries past and on the shortcut's 1e-6 bound and limit_denominator's
# 1/48 bound to 0, the subnormals, zeros, and plain small rationals
SNAP_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 0.5,
                     -1 / 3, 0.25 + 1e-9]
                    + [s * x for x in _around(1e-6) + _around(1 / 48) for s in (1, -1)]),
    st.floats(-1, 1),
)


@PROPERTY
@given(st.lists(SNAP_ENTRIES, min_size=1, max_size=6), st.sampled_from([1.0, -1.0, 2.5, None]))
@example([1e-6, math.nextafter(1e-6, 1)], 1.0)
@example([math.nextafter(1 / 48, 0), 1 / 48], 1.0)
def test_snapping_a_zero_entry_matches_limit_denominator(entries, lead):
    v = np.array(entries if lead is None else [lead, *entries])
    assert ansatz._snap_vector(v) == _snap_by_fractions(v)
    # entry by entry: beside a leading 1.0 each keeps its value
    for r in entries:
        one = np.array([1.0, r])
        assert ansatz._snap_vector(one) == _snap_by_fractions(one)


def test_snapping_nan_raises_as_limit_denominator_does():
    v = np.array([1.0, math.nan])
    with pytest.raises(ValueError) as fast:
        ansatz._snap_vector(v)
    with pytest.raises(ValueError) as slow:
        _snap_by_fractions(v)
    assert str(fast.value) == str(slow.value)


# -- curvature ----------------------------------------------------------------

# Semisprays of dim 2-3 with polynomial or rational coefficients over the
# coordinates, a parameter, the builtins, a function f with a body and a
# function g without one.  A body only supplies numbers, so both stay opaque
# FuncApp atoms to simplify and diff.
CURVATURE_CTX = Context(dim=3, params={"A": 0.7})
CURVATURE_CTX.declare_function("f", parse("x1^2 + 1", Context(dim=1)))
CURVATURE_CTX.declare_function("g")


def _semisprays(n):
    coords = [Var(axis, i) for axis in "xy" for i in range(1, n + 1)]
    atoms = st.one_of(
        st.sampled_from(coords + [Param("A")]),
        st.fractions(min_value=-3, max_value=3, max_denominator=3).map(Const),
        st.builds(Call, st.sampled_from(BUILTIN_FUNCTIONS), st.sampled_from(coords)),
        st.builds(FuncApp, st.sampled_from(["f", "g"]), st.integers(0, 1),
                  st.sampled_from(coords)),
    )
    coefficient = st.one_of(st.recursive(atoms, _polynomial_nodes, max_leaves=5),
                            st.recursive(atoms, _rational_nodes, max_leaves=5))
    # a fiber factor keeps most connections N = dG/dy away from zero
    fibered = st.builds(lambda c, y: Mul((c, y)), coefficient, st.sampled_from(coords[n:]))
    return st.lists(st.one_of(coefficient, fibered), min_size=n, max_size=n).map(
        lambda G: SemiSpray(n, tuple(G)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from([2, 3]).flatmap(_semisprays))
@example(SemiSpray(3, tuple(parse(t, CURVATURE_CTX) for t in ("A*y1/y3", "A*y2/y3", "A"))))
@example(SemiSpray(2, tuple(parse(t, CURVATURE_CTX)
                            for t in ("(y1^2)*g'(x1)/(2*g(x1))", "f(x2)*y1*y2"))))
def test_curvature_is_the_fiber_part_of_the_horizontal_bracket(S):
    """[delta_i, delta_j] = sum_a R^a_ij d/dy_a, exactly after simplify."""
    try:
        fr = berwald_frame(S)
        R = curvature(S, fr).R
        brackets = {(i, j): lie_bracket(fr.horizontal[i], fr.horizontal[j])
                    for i in range(S.n) for j in range(i + 1, S.n)}
        residuals = {(a, i, j): simplify(Add((br.fiber[a], Neg(R[a][i][j]))))
                     for (i, j), br in brackets.items() for a in range(S.n)}
    except EvalDomainError:
        # a denominator that simplifies to zero: outside the domain
        assume(False)
    for (i, j), br in brackets.items():
        assert br.base == (ZERO,) * S.n, (i, j)
    for key, residual in residuals.items():
        assert residual == ZERO, (key, format_expr(residual))


# Signed decimals with exponents (including ones far outside a double),
# ratios (including /0), and free text over the characters literals use.
LITERALS = st.one_of(
    st.from_regex(r"[+-]?[0-9]{1,4}(\.[0-9]{0,3})?([eE][+-]?[0-9]{1,4})?",
                  fullmatch=True),
    st.from_regex(r"[+-]?[0-9]{1,3}/[0-9]{1,3}", fullmatch=True),
    st.text(alphabet="0123456789.eE+-/_infa", min_size=1, max_size=8),
)
FILES = (
    ("dim = 1\nparam A = {}\nspray G1 = A*y1^2\n",
     lambda pf: pf.context.params["A"]),
    ("dim = 1\nintegrate t={} dt=0.01 method=rk4 seed=1 samples=1\n",
     lambda pf: pf.integrate.t),
    ("dim = 1\nansatz degree=1 points=0 box={} seed=1\n",
     lambda pf: pf.ansatz.box),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(LITERALS, st.sampled_from(FILES))
def test_numeric_literals_parse_to_finite_doubles_or_fail_cleanly(text, file):
    template, read = file
    try:
        pf = parse_problem_file(template.format(text))
    except (ParseError, ValidationError):
        return
    assert math.isfinite(float(read(pf)))


# Edge values of the problem-file format: negative and huge seeds, step
# counts t/dt past a double, exact constants past Python's int-to-text limit,
# the sine of an overflowing constant and collocation plans past the bound.
DEMOS = [p.name for p in sorted(Path(EX4).parent.glob("*.sdp"))]
STEPS = ["t=0.01 dt=0.01", "t=1 dt=0.001", "t=1e300 dt=1e-300", "t=1e308 dt=1e-308",
         "t=1e-300 dt=1e300", "t=1.7e308 dt=1e308", "t=1e-300 dt=1e-300"]
SEEDS = ["0", "1", "-1", "-5", str(2**64 + 1), "9" * 5000]
# collocation sizes far past ansatz.MAX_COLLOCATION_CELLS, and small ones
DEGREES = ["0", "1", "400", str(10 ** 9)]
POINTS = ["0", "1", "40", str(10 ** 9)]
CONSTANTS = ["1", "-343", "3^9100", "2^100000", "3^10000000", "(10^400)^1/2",
             "*".join(["7" * 301] * 15), "sin(1e300*1e300)", "(1e300)^2"]
WIDE_SUM = "(" + " + ".join(f"x1^{k}" for k in range(1, 10001)) + ")"
MANY_LOCI = "\n".join(f"exclude x1 - {k}" for k in range(10, 10010))
# a finite G past about 9e307, whose -2.0*G overflows into the next stage state
OVERFLOWING_FIELD = ["dim = 2", "spray G1 = 10^308*x1 + y1 + y2",
                     "spray G2 = -10^308*x1 + y1 + y2"]
# sums of coordinates with exact, float and past-the-double-range
# coefficients, powered (within and past expr._EXPAND_CAP, and to negative
# and fractional powers) and multiplied
SUMS = ["(x1 + y1 + 1)", "(x1 - 2*y1 + 1/3)", "(0.5*x1 + y1 - 2.5)", "(2^2000*x1 + 0.5*y1)",
        "(1e300*x1 + 1e-300*y1)"]
SUM_POWERS = ["2", "5", "17", "-1", "-2", "1/2", "-3/2"]
EDITS = st.one_of(
    st.builds("spray G1 = {}*y1^2".format, st.sampled_from(CONSTANTS)),
    st.builds("spray G1 = {}*y1".format, st.sampled_from(CONSTANTS)),
    st.builds("H = {}*y1".format, st.sampled_from(CONSTANTS)),
    st.builds("ansatz degree=1 points=0 box=1 seed={}".format, st.sampled_from(SEEDS)),
    st.builds("ansatz degree={} points={} box=1 seed=1".format,
              st.sampled_from(DEGREES), st.sampled_from(POINTS)),
    # nesting at, just past and far past expr.MAX_NESTING, and dims around
    # problemfile.MAX_DIM
    st.builds(lambda d: "spray G1 = " + "(" * d + "y1" + ")" * d + "^2",
              st.sampled_from([49, 50, 300])),
    st.builds("dim = {}".format, st.sampled_from(["16", "17", "60"])),
    st.builds("spray G1 = {}^{}*y1^2".format, st.sampled_from(SUMS), st.sampled_from(SUM_POWERS)),
    st.builds("spray G1 = {}*{}*y1".format, st.sampled_from(SUMS), st.sampled_from(SUMS)),
    st.builds("H = {}^{}*{}".format, st.sampled_from(SUMS), st.sampled_from(SUM_POWERS),
              st.sampled_from(SUMS)),
)


def _key(line: str) -> str:
    words = line.split()
    return " ".join(words[:2]) if words[0] == "spray" else words[0]


# the limit a command runs under from the shell: hypothesis raises it while
# a test runs, which would hide a RecursionError the CLI meets
DEFAULT_RECURSION_LIMIT = sys.getrecursionlimit()


def _edited(demo: str, lines) -> str:
    """The demo file with each line in place of the first of its kind, or
    appended when the file has none."""
    out = (Path(EX4).parent / demo).read_text().splitlines()
    for line in lines:
        at = [i for i, old in enumerate(out) if old.strip() and _key(old) == _key(line)]
        if at:
            out[at[0]] = line
        else:
            out.append(line)
    return "\n".join(out) + "\n"


@settings(max_examples=30, deadline=timedelta(seconds=10), derandomize=True)
@given(st.sampled_from(DEMOS), st.sampled_from(STEPS), st.sampled_from(["rk4", "rk45"]),
       st.sampled_from(SEEDS), st.lists(EDITS, max_size=2),
       st.sampled_from(["analyze", "verify", "integrate", "search", "dirac-check"]),
       st.sampled_from([None, "-1", "3"]))
@example("ex3.sdp", "t=0.01 dt=0.01", "rk4", "1", [], "verify", "-1")
@example("ex4.sdp", "t=0.01 dt=0.01", "rk4", "1", [], "search", "-1")
@example("ex3.sdp", "t=0.01 dt=0.01", "rk4", "1", [], "integrate", "-1")
@example("ex3.sdp", "t=0.01 dt=0.01", "rk4", "1", [], "dirac-check", "-1")
@example("free.sdp", "t=0.01 dt=0.01", "rk4", "-5", [], "verify", None)
@example("free.sdp", "t=0.01 dt=0.01", "rk4", "-5", [], "integrate", None)
@example("free.sdp", "t=0.01 dt=0.01", "rk4", "1",
         ["spray G1 = 1*y1^2", "ansatz degree=1 points=0 box=1 seed=-1"], "search", None)
@example("free.sdp", "t=1e300 dt=1e-300", "rk4", "1", [], "verify", None)
@example("free.sdp", "t=1e300 dt=1e-300", "rk4", "1", [], "integrate", None)
@example("free.sdp", "t=0.01 dt=0.01", "rk4", "1", ["spray G1 = 3^9100*y1^2"], "analyze", None)
@example("free.sdp", "t=0.01 dt=0.01", "rk4", "1",
         ["spray G1 = 1*y1^2", "H = 2^100000*y1"], "verify", None)
@example("free.sdp", "t=0.01 dt=0.01", "rk4", "1",
         ["spray G1 = 1*y1^2", "H = " + CONSTANTS[6] + "*y1"], "verify", None)
@example("free.sdp", "t=0.01 dt=0.01", "rk4", "1", ["spray G1 = 3^10000000*y1^2"],
         "analyze", None)
@example("free.sdp", "t=1 dt=0.001", "rk4", "1", ["spray G1 = -343*y1"], "integrate", None)
@example("free.sdp", "t=1 dt=0.001", "rk4", "1", ["spray G1 = sin(1e300*1e300)*y1^2"],
         "integrate", None)
@example("free.sdp", "t=1e6 dt=1e-6", "rk4", "1", ["spray G1 = y1^2"], "integrate", None)
@example("free.sdp", "t=0.01 dt=0.01", "rk4", "1",
         ["spray G1 = y1^2", "integrate t=1 dt=0.01 method=rk4 seed=1 samples=100000000"],
         "integrate", None)
@example("free.sdp", "t=0.01 dt=0.01", "rk4", "1",
         ["spray G1 = y1^2", "ansatz degree=400 points=0 box=2 seed=1"], "search", None)
@example("ex4.sdp", "t=0.01 dt=0.01", "rk4", "1",
         ["ansatz degree=1 points=1000000000 box=1 seed=1"], "search", None)
@example("free.sdp", "t=0.01 dt=0.01", "rk4", "1", ["spray G1 = y1^2/(1e-200*x1)^2"],
         "analyze", None)
# nesting past the parser's recursion, and a dim whose analyze runs for minutes
@example("free.sdp", "t=0.01 dt=0.01", "rk4", "1",
         ["spray G1 = " + "(" * 300 + "y1" + ")" * 300 + "^2"], "analyze", None)
@example("free.sdp", "t=0.01 dt=0.01", "rk4", "1",
         ["spray G1 = y1^2*" + "sin(x1*" * 400 + "x1" + ")" * 400], "analyze", None)
@example("free.sdp", "t=0.01 dt=0.01", "rk4", "1",
         ["spray G1 = y1^2" + "*x1" * 1000], "integrate", None)
@example("free.sdp", "t=0.01 dt=0.01", "rk4", "1", ["dim = 60"], "analyze", None)
# sums of 10,000 terms, and 10,000 loci whose values the rk4 step adds up: a
# + chain this long overflows CPython's compiler even at the raised
# recursion limit that hypothesis runs a test under
@example("free.sdp", "t=0.01 dt=0.01", "rk4", "1", ["H = " + WIDE_SUM + "*y1"], "integrate",
         None)
@example("free.sdp", "t=0.01 dt=0.01", "rk4", "1", ["spray G1 = " + WIDE_SUM], "integrate",
         None)
@example("free.sdp", "t=0.01 dt=0.01", "rk4", "1", [MANY_LOCI], "integrate", None)
# finite terms whose fsum overflows, and a product that folds to the constant inf
@example("ex4.sdp", "t=0.01 dt=0.01", "rk4", "1", ["H = 1e308*x1 + 1e308*x2"], "verify", "1")
@example("ex4.sdp", "t=0.01 dt=0.01", "rk4", "1", ["omega dx1^dy1 = 1e308*10"], "dirac-check",
         None)
# a power and a product of sums past expr.MAX_TERMS, each of which ran for
# minutes before the bound
@example("free.sdp", "t=0.01 dt=0.01", "rk4", "1",
         ["dim = 2", "spray G1 = ((x1 + x2 + 1)^16)^16*y1^2"], "analyze", None)
@example("free.sdp", "t=0.01 dt=0.01", "rk4", "1",
         ["dim = 2", "spray G1 = (x1 + x2 + y1 + y2 + 1)^12*(x1 - x2 + y1 - y2 + 3)^12"],
         "analyze", None)
# infinite stage states of rk4, and infinite trial states of rk45, once
# reached evaluate, whose fsum of +inf and -inf raised ValueError
@example("free.sdp", "t=0.01 dt=0.01", "rk4", "1", OVERFLOWING_FIELD, "integrate", "3")
@example("free.sdp", "t=0.01 dt=0.01", "rk45", "1", OVERFLOWING_FIELD, "integrate", "6")
# a field of +-10^308 * x1, on which rk45 took ever smaller steps without
# end until rk45.MAX_STEPS bounded its work
@example("free.sdp", "t=0.01 dt=0.01", "rk45", "1",
         ["dim = 2", "spray G1 = 10^308*x1 + y1 + y2", "spray G2 = -10^308*x1 + y1 + y2"],
         "integrate", None)
# a flow field of 10^200*y1^2, whose norms overflow in the span-membership
# test, and a generator entry of 10^200, which overflowed in the pointwise
# isotropy and kernel tests
@example("ex1.sdp", "t=0.01 dt=0.01", "rk4", "0", ["spray G1 = (10^400)^1/2*y1^2"], "verify",
         None)
@example("free.sdp", "t=0.01 dt=0.01", "rk4", "1", ["dist X1 = (10^200; 0)"], "dirac-check",
         None)
# an exact coefficient past the double range met by a float in a product, in
# a sum, and in a product that comes back into range, each of which once
# raised OverflowError
@example("free.sdp", "t=0.01 dt=0.01", "rk4", "1", ["spray G1 = 2^2000*y1^2*0.5", "H = y1^2"],
         "verify", None)
@example("free.sdp", "t=0.01 dt=0.01", "rk4", "1",
         ["spray G1 = (2^2000)*x1*y1 + 0.5*x1*y1", "H = y1^2"], "analyze", None)
@example("free.sdp", "t=0.01 dt=0.01", "rk4", "1", ["spray G1 = 2^1030*x1*y1^2*1e-300", "H = y1^2"],
         "search", None)
def test_no_problem_file_exits_4(demo, steps, method, seed, edits, command, seed_arg):
    text = _edited(demo, [f"integrate {steps} method={method} seed={seed} samples=1", *edits])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / demo
        path.write_text(text)
        argv = [command, str(path)] + (["--seed", seed_arg] if seed_arg else [])
        err = io.StringIO()
        raised = sys.getrecursionlimit()
        sys.setrecursionlimit(DEFAULT_RECURSION_LIMIT)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        finally:
            sys.setrecursionlimit(raised)
    assert rc in (0, 1, 2, 3), err.getvalue()
    assert "internal error" not in err.getvalue()


# -- trajectory rows ----------------------------------------------------------

# the largest double, subnormals, values whose v * 1e12 overflows (past about
# 1.8e296), values near 1e-12, and halves of 1e-12 where round breaks a tie
EXTREME_FLOATS = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e296,
                     1.8e296, 1.79e308, 1.7976931348623157e308, 1e-12, 5e-13]),
    st.floats(1e296, 1.79e308).flatmap(lambda v: st.sampled_from([v, -v])),
    st.floats(-1e-11, 1e-11),
    st.integers(-10 ** 9, 10 ** 9).map(lambda k: (k + 0.5) / 1e12).flatmap(
        lambda v: st.sampled_from([v, math.nextafter(v, -math.inf),
                                   math.nextafter(v, math.inf)])),
)
TRAJECTORIES = st.integers(1, 3).flatmap(lambda dim: st.lists(
    st.lists(EXTREME_FLOATS, min_size=dim + 1, max_size=dim + 1),
    min_size=1, max_size=60))


def _rows_by_element(traj) -> list:
    """The rows of cli._trajectory_rows, each value rounded on its own."""
    last = len(traj.times) - 1
    stride = max(1, last // 20)
    ks = list(range(0, last + 1, stride)) + ([last] if last % stride else [])
    return [[cli._round12(v) for v in (traj.times[k], *traj.states[k])] for k in ks]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(TRAJECTORIES)
def test_trajectory_rows_round_as_round12_does_on_each_value(rows):
    M = np.array(rows)
    traj = SimpleNamespace(times=M[:, 0], states=M[:, 1:])
    bits = [[struct.pack("<d", float(v)) for v in row] for row in cli._trajectory_rows(traj)]
    assert bits == [[struct.pack("<d", float(v)) for v in row]
                    for row in _rows_by_element(traj)]
