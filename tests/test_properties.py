"""Generated-input invariants of the expression kernel and the file parser."""

import math
from fractions import Fraction
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from spraydirac import cli, expr  # noqa: E402
from spraydirac.errors import EvalDomainError, ParseError, ValidationError  # noqa: E402
from spraydirac.expr import (  # noqa: E402
    Add, Const, Context, Div, Mul, Neg, Pow, Var, clear_caches, diff,
    format_expr, parse, simplify,
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


POLYNOMIALS = st.recursive(ATOMS, _polynomial_nodes, max_leaves=8)
RATIONALS = st.recursive(ATOMS, _rational_nodes, max_leaves=8)

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


@pytest.mark.xfail(strict=True, reason=(
    "known defect: dividing by a sum under a negative power leaves the sum "
    "atomic with a positive exponent, which a second simplify expands"))
@PROPERTY
@given(RATIONALS)
@example(Div(X1, Pow(Add((X1, X2)), -1)))   # x1*(x1 + x2), then x1*x2 + x1^2
def test_simplify_is_idempotent_on_rationals(e):
    s = _canonical(e)
    assert simplify(s) == s


@pytest.mark.xfail(strict=True, reason=(
    "known defects: format_expr prints (x1^2)/2 as x1^2/2, which parse reads "
    "as x1^(2/2); and (x1 + x2)^-2 keeps the sum atomic while "
    "1/(x1 + x2)^2 expands it"))
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
