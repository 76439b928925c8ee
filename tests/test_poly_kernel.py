"""The polynomial kernel: an exact coefficient is an int where it is
integral, diff of a polynomial is taken on its terms, and an exact
coefficient past the double range meets a float by one rule.  Each gives
the items, trees and derivatives of the reference kernel (tests/kernel_ref.py),
whose exact coefficients are all Fractions and whose diff runs the product
rule on every tree."""

import math
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import kernel_ref  # noqa: E402
from spraydirac import cli, expr  # noqa: E402
from spraydirac.errors import EvalDomainError, ValidationError  # noqa: E402
from spraydirac.expr import (  # noqa: E402
    Add, Call, Const, Context, Div, Expr, FuncApp, Mul, Neg, Param, Pow, Var, parse,
)

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True)

X1, X2, Y1, Y2 = Var("x", 1), Var("x", 2), Var("y", 1), Var("y", 2)
A = Param("a")

LEAVES = st.one_of(
    st.sampled_from([X1, X2, Y1, Y2, A]),
    st.sampled_from([0, 1, -1, 2, -3, 7, Fraction(1, 2), Fraction(-2, 3),
                     0.0, 0.1, -2.5, 1e-3, 3.0, 1e-300, 1e300, 5e-324,
                     np.float64(0.25)]).map(Const),
)
# whole, negative and fractional exponents
EXPONENTS = st.sampled_from([Fraction(k) for k in (2, 3, -1, -2)]
                            + [Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3)])


def _polynomial(inner):
    terms = st.lists(inner, min_size=2, max_size=3).map(tuple)
    return st.one_of(terms.map(Add), terms.map(Mul), inner.map(Neg),
                     st.tuples(inner, EXPONENTS).map(lambda p: Pow(*p)))


def _general(inner):
    return st.one_of(
        _polynomial(inner),
        st.tuples(inner, inner).map(lambda p: Div(*p)),
        st.tuples(st.sampled_from(expr.BUILTIN_FUNCTIONS), inner).map(lambda p: Call(*p)),
        st.tuples(st.integers(0, 2), inner).map(lambda p: FuncApp("f", *p)),
    )


TREES = st.one_of(st.recursive(LEAVES, _polynomial, max_leaves=7),
                  st.recursive(LEAVES, _general, max_leaves=7))
KERNEL_ERRORS = (EvalDomainError, ValidationError, ZeroDivisionError)


def _outcome(run):
    """run()'s value, or the type of the kernel error it raises."""
    try:
        return run()
    except KERNEL_ERRORS as exc:
        return type(exc)


def _items(nf):
    """Normal-form items, in order, with each exponent's type and whether
    the coefficient is exact; a float coefficient by its repr, so that a nan
    compares."""
    return [(tuple((b, r, type(r)) for b, r in mono),
             repr(c) if isinstance(c, float) else c, isinstance(c, float))
            for mono, c in nf.items()]


def _kernel(e):
    """The items of _nf(e), simplify(e), and for x1 and y2 diff(e, v) and
    the items of its normal form, from empty caches, through whatever
    functions expr holds."""
    expr.clear_caches()
    out = [_outcome(lambda: _items(expr._nf(e))), _outcome(lambda: expr.simplify(e))]
    for v in (X1, Y2):
        d = _outcome(lambda: expr.diff(e, v))
        out += [d, _outcome(lambda: _items(expr._nf(d))) if isinstance(d, Expr) else d]
    expr.clear_caches()
    return out


def _exact_coefficients(e):
    expr.clear_caches()
    try:
        nfs = [expr._nf(e)] + [expr._nf(expr.diff(e, v)) for v in (X1, Y2)]
    except KERNEL_ERRORS:
        return []
    finally:
        expr.clear_caches()
    return [c for nf in nfs for c in nf.values() if not isinstance(c, float)]


@PROPERTY
@given(TREES)
@example(Pow(Const(2), -3))                      # an int to a negative power
@example(Pow(Mul((Const(3), X1)), -2))
@example(Mul((Const(np.float64(0.25)), Pow(X1, 3), Y2)))
# 5e-324/3 underflows to 0.0, so the derivative has no x1 term
@example(Add((Mul((Const(5e-324), Pow(X1, Fraction(1, 3)))), Y1)))
@example(Mul((Const(Fraction(2, 3)), Pow(X1, Fraction(3, 2)), Pow(A, -1), Y2)))
@example(Add((Mul((Const(0.1), Pow(X1, 3))), Neg(Mul((X1, Y2))), Const(7))))
def test_the_kernel_gives_what_the_reference_gives(e):
    with kernel_ref.parent_kernel():
        ref = _kernel(e)
    assert _kernel(e) == ref
    assert all(type(c) is int for c in _exact_coefficients(e) if c.denominator == 1)


def test_a_polynomial_is_differentiated_on_its_terms():
    ctx = Context(2, params={"a": Fraction(1, 2)})
    poly = expr.simplify(parse("a*x1^3*y1 - x1^1/2/3 + 0.5*x1*y2^-2 + y1", ctx))
    items = expr._term_derivative(poly, X1)
    assert items == [(((X1, Fraction(-1, 2)),), Fraction(-1, 6)),
                     (((X1, 2), (Y1, 1), (A, 1)), 3),
                     (((Y2, -2),), 0.5)]
    assert [type(c) for _, c in items] == [Fraction, int, float]
    for text in ("sin(x1)*y1", "1/(x1 + 1)", "2^1/2*x1"):
        assert expr._term_derivative(expr.simplify(parse(text, ctx)), X1) is None


def test_an_exact_power_is_an_int_where_it_is_integral():
    # an int to a negative power would be a float
    assert [(c, type(c)) for c in (expr._cpow(2, -3), expr._cpow(Fraction(1, 2), -3),
                                   expr._cpow(-3, 3), expr._cinv(Fraction(-1, 4)),
                                   expr._cinv(4))] == [
        (Fraction(1, 8), Fraction), (8, int), (-27, int), (-4, int), (Fraction(1, 4), Fraction)]


def _typed(v):
    return v, type(v)


# 2^-1, 8^(-2/3), 4^(1/2) and (1/8)^(-1/3): int bases, and a Fraction base
# whose power is an int, all exact
CONSTANT_BASES = [(2, -1, Fraction(1, 2)), (8, Fraction(-2, 3), Fraction(1, 4)),
                  (4, Fraction(1, 2), 2), (Fraction(1, 8), Fraction(-1, 3), 2)]


def test_an_int_to_a_negative_power_is_exact():
    assert _typed(expr._exact_pow(2, -1)) == (Fraction(1, 2), Fraction)
    assert _typed(expr._exact_pow(-2, -3)) == (Fraction(-1, 8), Fraction)
    assert _typed(expr._exact_pow(Fraction(1, 2), -2)) == (4, int)
    assert _typed(expr._exact_pow(3, 2)) == (9, int)


@pytest.mark.parametrize("c, r, want", CONSTANT_BASES)
def test_a_constant_base_folds_exactly(c, r, want):
    assert _typed(expr._frac_pow_exact(c, r)) == _typed(want)
    mono, coeff = expr._normalize_pairs({Const(c): r, X1: 1}, 3)
    assert mono == ((X1, 1),) and _typed(coeff) == _typed(3 * want)
    folded = expr.simplify(Pow(Const(c), r))
    assert isinstance(folded, Const) and _typed(folded.value) == _typed(want)


BIG = 2 ** 2000


@pytest.mark.parametrize("a, b, add, want", [
    (BIG, 0.5, False, math.inf),
    (-BIG, 0.5, False, -math.inf),
    (BIG, 0.5, True, math.inf),
    (-BIG, 0.5, True, -math.inf),
    (2 ** 1030, 1e-300, False, float(Fraction(2 ** 1030) * Fraction(1e-300))),
    (Fraction(BIG, 3), 2.0 ** -1000, False, float(Fraction(BIG, 3) * Fraction(2.0 ** -1000))),
    (-BIG, 1e308, True, -math.inf),
    (BIG, 0.0, False, 0.0),
    (BIG, -math.inf, True, -math.inf),
    (BIG, -math.inf, False, -math.inf),
    (-BIG, math.inf, False, -math.inf),
])
def test_an_exact_coefficient_past_the_double_range_meets_a_float(a, b, add, want):
    c = expr._cadd if add else expr._cmul
    assert c(a, b) == want and c(b, a) == want


def test_a_nan_takes_an_exact_coefficient_past_the_double_range():
    for c in (expr._cadd, expr._cmul):
        assert math.isnan(c(BIG, math.nan)) and math.isnan(c(math.nan, -BIG))


# an exact coefficient past the double range met by a float in a product, in
# a sum, and in a product that comes back into range: each once exited 4
OVERFLOWING_COEFFICIENTS = {
    "2^2000*y1^2*0.5": (0, 3, 0, 3, 0),
    "(2^2000)*x1*y1 + 0.5*x1*y1": (0, 3, 0, 3, 0),
    "2^1030*x1*y1^2*1e-300": (0, 0, 0, 0, 0),
}
COMMANDS = ("analyze", "verify", "integrate", "search", "dirac-check")


@pytest.mark.parametrize("spray", sorted(OVERFLOWING_COEFFICIENTS))
def test_an_exact_coefficient_past_the_double_range_exits_no_command_4(spray, tmp_path, capsys):
    path = tmp_path / "overflow.sdp"
    path.write_text(f"dim = 1\nspray G1 = {spray}\ndist X1 = (1; 0)\ndist X2 = (0; 1)\n"
                    "H = y1^2\nintegrate t=0.1 dt=0.01 method=rk4 seed=1 samples=1\n")
    codes = []
    for command in COMMANDS:
        codes.append(cli.main([command, str(path)]))
        assert "internal error" not in capsys.readouterr().err
    assert tuple(codes) == OVERFLOWING_COEFFICIENTS[spray]
