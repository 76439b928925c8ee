"""The two text edges of the kernel against their references: the one-pass
scanner and parser against the token-by-token ones (tests/parse_ref.py),
the stack-walking printer against the printer of nested closures below,
and both against the garbage collector."""

import contextlib
import gc
import importlib.util
import io
import sys
from fractions import Fraction
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import parse_ref  # noqa: E402
from spraydirac import cli, expr, forms, problemfile  # noqa: E402
from spraydirac.errors import EvalDomainError, SprayDiracError  # noqa: E402
from spraydirac.expr import (  # noqa: E402
    MAX_NESTING, Add, Call, Const, Context, Div, FuncApp, Mul, Neg, Param, Pow, Var,
    _needs_parens_as_base, _rat_str, format_expr, parse, simplify,
)
from spraydirac.problemfile import parse_problem_file  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
PROBLEMS = ROOT / "demos" / "problems"
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True)


def _context() -> Context:
    """dim 2, two params, f with a body, g without one, h with a deep body."""
    ctx = Context(dim=2, params={"a": Fraction(1, 2), "c": Fraction(3)})
    ctx.declare_function("f", parse("sin(x1)^2 + 1", Context(1)))
    ctx.declare_function("g")
    ctx.declare_function("h", parse("exp(" * 20 + "x1" + ")" * 20, Context(1)))
    return ctx


CTX = _context()


def _outcome(parse_fn, text, ctx):
    """The tree, or the type, text and offset of the error."""
    try:
        return parse_fn(text, ctx)
    except (SprayDiracError, ValueError) as e:
        return type(e).__name__, str(e), getattr(e, "position", None)


def _same_parse(text, ctx=CTX):
    got, want = _outcome(parse, text, ctx), _outcome(parse_ref.parse, text, ctx)
    assert type(got) is type(want) and got == want, (text, got, want)


# -- the parser ----------------------------------------------------------------

LITERALS = st.one_of(
    st.integers(0, 10 ** 6).map(str),
    st.sampled_from(["0", "1", "007", "2.5", "0.125", "1e3", "2.5E-4", "1e+2", "3e400",
                     "1e-400", "9" * 401, "1" + "0" * 308, "1" + "0" * 309]),
    st.integers(300, 420).map(lambda k: "7" * k),
)
NAMES = st.sampled_from([
    "x1", "x2", "y1", "y2", "x3", "y3", "x0", "x01",               # coordinates, in and out of range
    "a", "c", "b",                                                 # params and an unknown name
    "sin", "cos", "exp", "ln", "sqrt", "sin'",                     # builtins
    "f", "f'", "f''", "g", "g'''", "h", "h'",                      # fns with and without bodies
    "x1'", "a'", "zeta", "_u",
])
OPS = st.sampled_from(list("+-*/^()"))
EXPONENTS = st.sampled_from([
    "^2", "^-1", "^1/2", "^-3/4", "^2/3", "^2/x1", "^2/3.5", "^1/0", "^0/0", "^-0",
    "^2.5", "^x1", "^(2)", "^--1", "^1/(2)", "^" + "9" * 5000, "^1/" + "9" * 5000,
])
NOISE = st.sampled_from(["\t", " ", "  ", ".", "\u00b2", "\ufeff", "\n", "\u00a0", "\u2003",
                         "#", "\u00e9", "0x", ","])
TOKENS = st.one_of(LITERALS, NAMES, OPS, EXPONENTS, NOISE)
SEPARATORS = st.sampled_from(["", "", " ", "\t"])


@st.composite
def token_soup(draw):
    """Tokens and noise, joined by nothing, spaces or tabs."""
    parts = draw(st.lists(st.tuples(TOKENS, SEPARATORS), max_size=14))
    return "".join(t + s for t, s in parts)


def _wellformed():
    atoms = st.one_of(LITERALS.filter(lambda s: len(s) < 12), NAMES.filter(
        lambda s: s in ("x1", "x2", "y1", "y2", "a", "c")))

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from([" + ", "-", " * ", "/", "*"]), inner)
            .map("".join),
            inner.map(lambda s: f"({s})"),
            inner.map(lambda s: f"-{s}"),
            st.tuples(inner, EXPONENTS).map(lambda p: f"({p[0]}){p[1]}"),
            st.tuples(st.sampled_from(["sin", "sqrt", "f", "f'", "g''", "h"]), inner)
            .map(lambda p: f"{p[0]}({p[1]})"),
        )
    return st.recursive(atoms, extend, max_leaves=12)


@st.composite
def noisy(draw):
    """A well-formed text with a few characters of noise put in."""
    text = draw(_wellformed())
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.one_of(NOISE, OPS, EXPONENTS)) + text[i:]
    return text


@PROPERTY
@given(st.one_of(token_soup(), _wellformed(), noisy()))
@example("y1^2/3")
@example("y1^2/x1")
@example("y1^2/3.5")
@example("y1^1/0")
@example("\ty1\t*\tx1 ")
@example("x1 . 2")
@example("x1\u00b2")
@example("\ufeffx1")
@example("9" * 401)
@example("1e309 + \ufeff")
@example("")
@example("   ")
def test_parse_matches_the_reference(text):
    _same_parse(text)


# nesting at, one short of and one past the bound, for each kind of level
_K = MAX_NESTING
NESTINGS = {
    "parentheses": lambda k: "(" * (k - 1) + "y1" + ")" * (k - 1),
    "a product": lambda k: "y1" + "*x1" * (k - 1),
    "a quotient": lambda k: "y1" + "/x1" * (k - 1),
    "minus signs": lambda k: "-" * (k - 1) + "y1",
    "calls": lambda k: "sin(" * (k - 1) + "x1" + ")" * (k - 1),
    # h's body nests 21 deep, beside its argument
    "an applied body": lambda k: "(" * (k - 22) + "h(x1)" + ")" * (k - 22),
    "a body in a product": lambda k: "x1" + "*x1" * (k - 22) + "*h(y1)",
}


@pytest.mark.parametrize("depth", [_K - 1, _K, _K + 1])
@pytest.mark.parametrize("kind", NESTINGS)
def test_nesting_around_the_bound_matches_the_reference(kind, depth):
    text = NESTINGS[kind](depth)
    _same_parse(text)
    _same_parse(text + "^2")
    _same_parse("(" + text + ")*y2 + 1")


def _expression_texts(files):
    """(text, ctx) of every expression that parse_problem_file parses in files."""
    seen = []
    real = problemfile.parse

    def record(text, ctx):
        seen.append((text, ctx))
        return real(text, ctx)

    problemfile.parse = record
    try:
        for text in files:
            with contextlib.suppress(SprayDiracError):
                parse_problem_file(text)
    finally:
        problemfile.parse = real
    return seen


def _pools(monkeypatch):
    # load without writing bytecode next to the benchmark's files
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_gen", gen)
    spec.loader.exec_module(gen)
    demos = gen.read_demos(PROBLEMS)
    return [text for w in ("symbolic", "flow", "certify") for text in gen.pool(w, demos).values()]


def test_every_demo_and_pool_expression_matches_the_reference(monkeypatch):
    demos = [p.read_text(encoding="utf-8") for p in sorted(PROBLEMS.glob("*.sdp"))]
    texts = _expression_texts(demos + _pools(monkeypatch))
    assert len(texts) > 5000
    for text, ctx in texts:
        _same_parse(text, ctx)


# -- problem files ---------------------------------------------------------------

SPACED = """\
dim = 2
param A = 1/2
param f = fn(x1^2)
spray G1 = A*y1^2
exclude y2
dist X1 = (1, 0; 0, y2)
ann A1 = (0, 1; 0, 0)
omega dx1^dy1 = 1
H = y1^2 + f(x1)
integrate t=1 dt=0.1 method=rk4 seed=1 samples=2
ansatz degree=1 points=10 box=2 seed=3
"""


def _same_problem(got, want):
    for name in ("n", "G", "singular_loci", "omega_terms", "H", "integrate", "ansatz"):
        assert getattr(got, name) == getattr(want, name), name
    assert [v.comps for v in got.dist] == [v.comps for v in want.dist]
    assert [w.comps for w in got.ann] == [w.comps for w in want.ann]
    assert got.context.params == want.context.params
    assert got.context.funcs["f"].body == want.context.funcs["f"].body


def test_a_tab_may_separate_a_directive_from_its_body():
    tabbed = "\n".join(line.replace(" ", "\t", 1) for line in SPACED.splitlines())
    assert "dim\t= 2" in tabbed and "integrate\tt=1" in tabbed
    _same_problem(parse_problem_file(tabbed), parse_problem_file(SPACED))


@pytest.mark.parametrize("dim,H", [("dim=", "H="), ("dim =", "H= "), ("dim=", "H= "),
                                   ("dim =", "H=")])
def test_an_equals_sign_may_follow_a_directive_name(dim, H):
    glued = SPACED.replace("dim = ", dim).replace("H = ", H)
    assert glued.startswith(f"{dim}2\n") and f"\n{H}y1^2" in glued
    _same_problem(parse_problem_file(glued), parse_problem_file(SPACED))


def test_an_equals_sign_after_param_is_still_a_parse_error(tmp_path, capsys):
    f = tmp_path / "p.sdp"
    f.write_text("dim = 1\nparam=A = 1\nH = A*y1^2\n")
    assert cli.main(["analyze", str(f)]) == 1
    assert capsys.readouterr().err.strip() == "parse error: bad parameter name '' (line 2)"


def test_a_repeated_text_is_parsed_once_per_file(monkeypatch):
    calls = []
    real = problemfile.parse
    monkeypatch.setattr(problemfile, "parse", lambda t, c: calls.append(t) or real(t, c))
    pf = parse_problem_file("dim = 2\nparam f = fn(0)\ndist X1 = (0, 0; 0, 0)\n"
                            "dist X2 = (1, 0; 0, 0)\nH = 0\n")
    assert sorted(calls) == ["0", "0", "1"]   # f's body has its own context
    assert pf.H is pf.dist[0].comps[0] and pf.G == (expr.ZERO, expr.ZERO)


# -- the printer ------------------------------------------------------------------

def _ref_fmt_base(e):
    s = _ref_format(e)
    return f"({s})" if _needs_parens_as_base(e) else s


def _ref_fmt_powered(base, exp):
    if exp == 1:
        return _ref_fmt_base(base)
    return f"{_ref_fmt_base(base)}^{_rat_str(exp)}"


def _ref_term_parts(e):
    """Split a product-like node into (sign, numerator parts, denominator parts)."""
    sign = 1
    num: list[str] = []
    den: list[str] = []

    def feed_const(v):
        nonlocal sign
        if isinstance(v, Fraction):
            if v < 0:
                sign = -sign
                v = -v
            if v.numerator != 1:
                num.insert(0, str(v.numerator))
            if v.denominator != 1:
                den.append(str(v.denominator))
        else:
            if v < 0:
                sign = -sign
                v = -v
            num.insert(0, repr(v))

    def feed(f):
        nonlocal sign
        if isinstance(f, Const):
            feed_const(f.value)
        elif isinstance(f, Neg):
            sign = -sign
            feed(f.child)
        elif isinstance(f, Pow) and f.exponent < 0:
            den.append(_ref_fmt_powered(f.base, -f.exponent))
        elif isinstance(f, Div):
            feed(f.num)
            s = _ref_format(f.den)
            den.append(f"({s})" if _needs_parens_as_base(f.den) else s)
        elif isinstance(f, Mul):
            for c in f.children:
                feed(c)
        elif isinstance(f, Pow):
            num.append(_ref_fmt_powered(f.base, f.exponent))
        else:
            src = _ref_format(f)
            num.append(f"({src})" if isinstance(f, Add) else src)

    feed(e)
    return sign, num, den


def _ref_fmt_term(e):
    sign, num, den = _ref_term_parts(e)
    head = "*".join(num) if num else "1"
    for d in den:
        head += f"/{d}"
    return sign, head


def _ref_format(e):
    if isinstance(e, Add):
        sign, head = _ref_fmt_term(e.children[0])
        out = ("-" if sign < 0 else "") + head
        for c in e.children[1:]:
            sign, part = _ref_fmt_term(c)
            out += (" - " if sign < 0 else " + ") + part
        return out
    if isinstance(e, (Mul, Div, Neg, Const)) or (isinstance(e, Pow) and e.exponent < 0):
        sign, head = _ref_fmt_term(e)
        return ("-" if sign < 0 else "") + head
    if isinstance(e, Pow):
        return _ref_fmt_powered(e.base, e.exponent)
    if isinstance(e, (Var, Param)):
        return e.name
    if isinstance(e, Call):
        return f"{e.fname}({_ref_format(e.arg)})"
    if isinstance(e, FuncApp):
        return e.fname + "'" * e.order + "(" + _ref_format(e.arg) + ")"
    raise TypeError(f"cannot format {e!r}")


CONSTS = st.one_of(
    st.sampled_from([0, 1, -1, 2, -7, Fraction(1, 2), Fraction(-3, 4), Fraction(22, 7),
                     Fraction(-1, 3), 10 ** 20]),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -3.25, 1e-05, -1e-05, 1e+16, -1e+16,
                     1.5e300, 0.1]),
).map(Const)
LEAVES = st.one_of(
    CONSTS,
    st.sampled_from([Var("x", 1), Var("x", 2), Var("y", 1), Var("y", 2), Param("a")]),
)
EXPONENT_VALUES = st.sampled_from([Fraction(k) for k in (2, 3, -1, -2, 1)]
                                  + [Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3)])


def _trees():
    def extend(inner):
        return st.one_of(
            st.lists(inner, min_size=2, max_size=4).map(lambda cs: Add(tuple(cs))),
            st.lists(inner, min_size=2, max_size=4).map(lambda cs: Mul(tuple(cs))),
            st.tuples(CONSTS, st.lists(inner, min_size=1, max_size=3))
            .map(lambda p: Mul((p[0], *p[1]))),                       # led by a constant
            st.tuples(inner, inner).map(lambda p: Div(*p)),
            inner.map(Neg),
            inner.map(lambda e: Neg(Neg(e))),
            st.tuples(inner, EXPONENT_VALUES).map(lambda p: Pow(*p)),
            inner.map(lambda e: Call("sin", e)),
            st.tuples(inner, st.integers(0, 2)).map(lambda p: FuncApp("g", p[1], p[0])),
        )
    return st.recursive(LEAVES, extend, max_leaves=10)


@PROPERTY
@given(_trees())
@example(Const(0))
@example(Const(-0.0))
@example(Mul((Const(-1), Var("x", 1))))
@example(Mul((Const(Fraction(-3, 2)), Pow(Var("y", 1), Fraction(-2)), Var("x", 1))))
@example(Div(Neg(Const(2.5)), Neg(Var("x", 1))))
def test_format_matches_the_reference(tree):
    assert format_expr(tree) == _ref_format(tree)
    try:
        canonical = simplify(tree)
    except (EvalDomainError, ZeroDivisionError, OverflowError):
        return
    assert format_expr(canonical) == _ref_format(canonical)


def test_parsing_and_printing_leave_no_garbage_cycles(monkeypatch):
    printed = []
    real = expr.format_expr

    def record(e):
        printed.append(e)
        return real(e)

    for module in (expr, cli, forms):
        monkeypatch.setattr(module, "format_expr", record)
    ex3 = str(PROBLEMS / "ex3.sdp")
    for command in ("analyze", "dirac-check"):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([command, ex3]) == 0
    monkeypatch.undo()
    assert len(printed) > 100
    demos = [p.read_text(encoding="utf-8") for p in sorted(PROBLEMS.glob("*.sdp"))]
    texts = _expression_texts(demos)
    gc.collect()
    gc.disable()
    try:
        for text, ctx in texts:
            parse(text, ctx)
        for e in printed:
            format_expr(e)
        assert gc.collect() == 0
    finally:
        gc.enable()
