"""Generated-input invariants of the expression kernel and the file parser."""

import contextlib
import io
import math
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from spraydirac import cli, expr  # noqa: E402
from spraydirac.errors import EvalDomainError, ParseError, ValidationError  # noqa: E402
from spraydirac.expr import (  # noqa: E402
    BUILTIN_FUNCTIONS, Add, Call, Const, Context, Div, Mul, Neg, Pow, Var,
    clear_caches, diff, format_expr, parse, simplify,
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
    assert simplify(s) == s


@PROPERTY
@given(RATIONALS)
@example(Div(X1, Pow(Add((X1, X2)), -1)))   # x1*(x1 + x2), then x1*x2 + x1^2
def test_simplify_is_idempotent_on_rationals(e):
    s = _canonical(e)
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
    assert simplify(s) == s


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
# counts t/dt past a double, exact constants past Python's int-to-text limit
# and the sine of an overflowing constant.
DEMOS = [p.name for p in sorted(Path(EX4).parent.glob("*.sdp"))]
STEPS = ["t=0.01 dt=0.01", "t=1 dt=0.001", "t=1e300 dt=1e-300", "t=1e308 dt=1e-308",
         "t=1e-300 dt=1e300", "t=1.7e308 dt=1e308", "t=1e-300 dt=1e-300"]
SEEDS = ["0", "1", "-1", "-5", str(2**64 + 1), "9" * 5000]
CONSTANTS = ["1", "-343", "3^9100", "2^100000", "3^10000000", "(10^400)^1/2",
             "*".join(["7" * 301] * 15), "sin(1e300*1e300)", "(1e300)^2"]
EDITS = st.one_of(
    st.builds("spray G1 = {}*y1^2".format, st.sampled_from(CONSTANTS)),
    st.builds("spray G1 = {}*y1".format, st.sampled_from(CONSTANTS)),
    st.builds("H = {}*y1".format, st.sampled_from(CONSTANTS)),
    st.builds("ansatz degree=1 points=0 box=1 seed={}".format, st.sampled_from(SEEDS)),
)


def _key(line: str) -> str:
    words = line.split()
    return " ".join(words[:2]) if words[0] == "spray" else words[0]


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


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.sampled_from(DEMOS), st.sampled_from(STEPS), st.sampled_from(["rk4", "rk45"]),
       st.sampled_from(SEEDS), st.lists(EDITS, max_size=2),
       st.sampled_from(["analyze", "verify", "integrate"]),
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
def test_no_problem_file_exits_4(demo, steps, method, seed, edits, command, seed_arg):
    text = _edited(demo, [f"integrate {steps} method={method} seed={seed} samples=1", *edits])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / demo
        path.write_text(text)
        argv = [command, str(path)] + (["--seed", seed_arg] if seed_arg else [])
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    assert rc in (0, 1, 2, 3), err.getvalue()
    assert "internal error" not in err.getvalue()
