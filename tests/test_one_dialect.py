"""Every tree is built in one dialect: -a is (-1)*a and a/b is a*b^-1, so no
tree holds a negation or a quotient node.  A tree with such nodes
(tests/dialect_ref.py) prints, normalizes, simplifies, differentiates and,
without a quotient, evaluates as its image in the one dialect."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import dialect_ref  # noqa: E402
from dialect_ref import Div, Neg  # noqa: E402
from spraydirac import cli, expr  # noqa: E402
from spraydirac.errors import EvalDomainError, ParseError, ValidationError  # noqa: E402
from spraydirac.expr import (  # noqa: E402
    Add, Call, Const, Context, FuncApp, Mul, Param, Point, Pow, Var,
    diff, format_expr, parse, simplify,
)

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True)

X1, X2, Y1, Y2 = Var("x", 1), Var("x", 2), Var("y", 1), Var("y", 2)
CTX = Context(2, params={"a": Fraction(3, 4)})
# a bound body: f, f' and f'' each have one
CTX.declare_function("f", Add((Mul((Const(3), Pow(X1, 2))), expr.Neg(X1), Const(Fraction(1, 2)))))
POINTS = [Point((0.5, -1.25), (2.0, 0.0), {"a": 0.75}),
          Point((0.0, 3.0), (-0.5, 1e-3), {"a": 0.75}),
          Point((-2.0, 0.1), (1.5, -3.0), {"a": 0.75})]
KERNEL_ERRORS = (EvalDomainError, ValidationError, ZeroDivisionError, OverflowError)

LEAVES = st.one_of(
    st.sampled_from([X1, X2, Y1, Y2, Param("a")]),
    st.sampled_from([0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3),
                     0.0, 0.1, -2.5, 1e-3, 3.0]).map(Const),
)
EXPONENTS = st.sampled_from([Fraction(k) for k in (2, 3, -1, -2)]
                            + [Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3)])


def _extend(inner):
    return st.one_of(
        st.lists(inner, min_size=2, max_size=3).map(lambda cs: Add(tuple(cs))),
        st.lists(inner, min_size=2, max_size=3).map(lambda cs: Mul(tuple(cs))),
        st.tuples(inner, EXPONENTS).map(lambda p: Pow(*p)),
        st.tuples(st.sampled_from(expr.BUILTIN_FUNCTIONS), inner).map(lambda p: Call(*p)),
        st.tuples(st.integers(0, 2), inner).map(lambda p: FuncApp("f", *p)),
        inner.map(Neg),
        st.tuples(inner, inner).map(lambda p: Div(*p)),
    )


class Drawn:
    """A drawn tree, shown by its printed text: expr's repr of a node cannot
    print a Neg or Div below it."""

    def __init__(self, tree):
        self.tree = tree

    def __repr__(self) -> str:
        return f"<Drawn {dialect_ref.format_expr(self.tree)}>"


TREES = st.recursive(LEAVES, _extend, max_leaves=7).map(Drawn)


def _nodes(e):
    yield e
    for child in ((e.child,) if isinstance(e, Neg) else (e.num, e.den) if isinstance(e, Div)
                  else e.children if isinstance(e, (Add, Mul)) else (e.base,)
                  if isinstance(e, Pow) else (e.arg,) if isinstance(e, (Call, FuncApp)) else ()):
        yield from _nodes(child)


def _outcome(run):
    """run()'s value, or the type of the kernel error it raises."""
    try:
        return run()
    except KERNEL_ERRORS as exc:
        return type(exc)


def _typed(items):
    """Normal-form items with each exponent's type and whether the
    coefficient is exact (an int or a Fraction) or a float; a float
    coefficient by its repr, so that a nan compares."""
    return [(tuple((b, r, type(r)) for b, r in mono),
             repr(c) if isinstance(c, float) else c, isinstance(c, float)) for mono, c in items]


def _value(e, p, evaluate):
    try:
        return evaluate(e, p, CTX).hex()
    except (EvalDomainError, ValidationError) as exc:
        return type(exc), str(exc)


@PROPERTY
@given(TREES)
@example(Drawn(Div(Neg(Const(2.5)), Neg(X1))))
@example(Drawn(Div(Y1, Pow(Mul((Const(1e-200), X1)), 2))))   # the denominator has no term left
@example(Drawn(Div(X1, Pow(Add((X1, X2)), -2))))    # the inverse is a power that expands
@example(Drawn(Neg(Call("cos", Div(X1, Call("ln", Add((X2, Const(3)))))))))
@example(Drawn(Mul((Const(0.1), Neg(FuncApp("f", 1, Div(X1, Const(3.0))))))))
def test_a_tree_with_negation_and_quotient_nodes_is_its_image(drawn):
    tree = drawn.tree
    image = dialect_ref.to_dialect(tree)
    assert not any(isinstance(n, (Neg, Div)) for n in _nodes(image))
    assert format_expr(image) == dialect_ref.format_expr(tree)

    with dialect_ref.term_by_term_products():
        ref_items = _outcome(lambda: _typed(dialect_ref.nf(tree).items()))
        ref_simplified = _outcome(lambda: format_expr(dialect_ref.simplify(tree)))
        ref_diffs = [_outcome(lambda v=v: format_expr(dialect_ref.diff(tree, v)))
                     for v in (X1, Y2)]
    try:
        assert _typed(expr._nf(image).items()) == ref_items
        assert format_expr(simplify(image)) == ref_simplified
        assert [_outcome(lambda v=v: format_expr(diff(image, v))) for v in (X1, Y2)] == ref_diffs
    except KERNEL_ERRORS as exc:
        assert ref_items is type(exc)
    finally:
        expr.clear_caches()

    if not any(isinstance(n, Div) for n in _nodes(tree)):
        for p in POINTS:
            assert _value(image, p, expr.evaluate) == _value(tree, p, dialect_ref.evaluate)


def _texts():
    leaves = st.sampled_from(["x1", "x2", "y1", "a", "3", "0.25", "f(x2)", "f'(y1)"])

    def extend(inner):
        pair = st.tuples(inner, inner)
        return st.one_of(
            pair.map("{0[0]} + {0[1]}".format), pair.map("{0[0]} - {0[1]}".format),
            pair.map("{0[0]}*{0[1]}".format), pair.map("{0[0]}/{0[1]}".format),
            inner.map("-{}".format), inner.map("({})".format), inner.map("-({})".format),
            st.tuples(inner, st.sampled_from(["2", "-1", "1/2", "-3/2"]))
            .map("({0[0]})^{0[1]}".format),
            st.tuples(st.sampled_from(expr.BUILTIN_FUNCTIONS), inner).map("{0[0]}({0[1]})".format),
        )
    return st.recursive(leaves, extend, max_leaves=12)


@PROPERTY
@given(_texts())
@example("-x1/(2*x2 - 1) - 3")
@example("--x1/-(y1/x2)/a")
def test_parse_builds_only_the_node_types_of_canonical_trees(text):
    kinds = (Const, Var, Param, Call, FuncApp, Add, Mul, Pow)
    stack = [parse(text, CTX)]
    while stack:
        e = stack.pop()
        assert type(e) in kinds
        stack += (e.children if isinstance(e, (Add, Mul)) else (e.base,) if isinstance(e, Pow)
                  else (e.arg,) if isinstance(e, (Call, FuncApp)) else ())


def _quotient_body(depth: int) -> str:
    return "1/(" * depth + "x1 + 2" + ")" * depth


@pytest.mark.parametrize("depth, code", [(23, 0), (24, 1)])
def test_a_quotient_denominator_in_a_body_counts_one_level_below_it(tmp_path, capsys,
                                                                    depth, code):
    path = tmp_path / "deep.sdp"
    path.write_text(f"dim = 1\nparam f = fn({_quotient_body(depth)})\nspray G1 = f(x1)\n")
    assert cli.main(["analyze", str(path)]) == code
    err = capsys.readouterr().err
    if code:
        assert err == (f"parse error: in expression 'f(x1)': expression nested deeper than "
                       f"{expr.MAX_NESTING} levels (at offset 1) (line 3)\n")
    else:
        assert err == ""


def test_a_quotient_body_nests_one_level_per_denominator():
    ctx = Context(1)
    ctx.declare_function("g", parse(_quotient_body(24), ctx))
    # each quotient is a product, and its denominator a power below it
    assert ctx.funcs["g"].nesting == 2 * 24 + 2
    with pytest.raises(ParseError, match="nested deeper"):
        parse("g(x1)", ctx)


@pytest.mark.parametrize("text, x, message", [
    ("ln(x1 - 1)/x2", (0.0, 0.0), "ln of a nonpositive value"),   # the numerator comes first
    ("1/x1", (0.0, 1.0), "zero raised to a negative power"),
    ("1/x1", (5e-324, 1.0), "overflow in power"),
    ("y1/x1^3/2", (1e300, 1.0), "domain error in power"),
    ("1e300/x1", (1e-10, 1.0), "product produced a non-finite value"),
])
def test_a_quotient_evaluates_its_numerator_then_its_denominator_as_a_power(text, x, message):
    with pytest.raises(EvalDomainError, match=f"^{message}$"):
        expr.evaluate(parse(text, CTX), Point(x, (1.0, 1.0)))
