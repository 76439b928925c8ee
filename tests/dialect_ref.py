"""The reference of the one tree dialect: the negation and quotient node
classes that trees once held, the branches for them in the normal form, the
printer and evaluate, and the map of such a tree onto the dialect every tree
is now built in, where -a is (-1)*a and a/b is a*b^-1."""

import contextlib
import math
from fractions import Fraction

from spraydirac import expr
from spraydirac.errors import EvalDomainError, ValidationError
from spraydirac.expr import (
    Add, Call, Const, Expr, FuncApp, Mul, Param, Point, Pow, Var,
    _check_finite, _fsum, _MATH, _resolve_param, formal_value,
)


class _Node(Expr):
    __slots__ = ()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {format_expr(self)}>"


class Neg(_Node):
    __slots__ = ("child",)

    def __init__(self, child: Expr):
        self.child = child
        self._set_key(("neg", child._key))

    def sortkey(self) -> tuple:
        return (6, self.child.sortkey())


class Div(_Node):
    __slots__ = ("num", "den")

    def __init__(self, num: Expr, den: Expr):
        self.num = num
        self.den = den
        self._set_key(("div", num._key, den._key))

    def sortkey(self) -> tuple:
        return (9, self.num.sortkey(), self.den.sortkey())


def _value(c: Const):
    """c's value, read as a Fraction where it is exact (not a float)."""
    return c.value if isinstance(c.value, float) else Fraction(c.value)


def to_dialect(e: Expr) -> Expr:
    """e with each Neg built by expr.Neg and each Div by expr.Div."""
    if isinstance(e, Neg):
        return expr.Neg(to_dialect(e.child))
    if isinstance(e, Div):
        return expr.Div(to_dialect(e.num), to_dialect(e.den))
    if isinstance(e, Add):
        return Add(tuple(map(to_dialect, e.children)))
    if isinstance(e, Mul):
        return Mul(tuple(map(to_dialect, e.children)))
    if isinstance(e, Pow):
        return Pow(to_dialect(e.base), e.exponent)
    if isinstance(e, Call):
        return Call(e.fname, to_dialect(e.arg))
    if isinstance(e, FuncApp):
        return FuncApp(e.fname, e.order, to_dialect(e.arg))
    return e


# ---------------------------------------------------------------------------
# normal form


def _nf_mul(a, b):
    """The product of two normal forms term by term, a constant factor too."""
    if len(a) * len(b) > expr.MAX_TERMS:
        raise ValidationError(
            f"a product of {len(a)} by {len(b)} terms exceeds the bound "
            f"MAX_TERMS = {expr.MAX_TERMS} term pairs")
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m, c = expr._mono_mul(m1, m2, expr._cmul(c1, c2))
            expr._acc(out, m, c)
    return out


@contextlib.contextmanager
def term_by_term_products():
    """expr's kernel with _nf_mul multiplying a constant factor term by term,
    on empty caches, which are emptied again on exit."""
    saved = expr._nf_mul
    expr.clear_caches()
    expr._nf_mul = _nf_mul
    try:
        yield
    finally:
        expr._nf_mul = saved
        expr.clear_caches()


def _nf_invert(nf):
    if not nf:
        raise EvalDomainError("division by an expression that simplifies to zero")
    return expr._nf_invert(nf)


def nf(e: Expr):
    """The normal form of a tree that may hold Neg and Div, unmemoised."""
    out = _build_nf(e)
    while (isinstance(e, (Mul, Div, Pow, Call))
           and any(expr._distributes(b, r) for mono in out for b, r in mono)):
        out = expr._nf_expand_sums(out)
    return out


def _build_nf(e: Expr):
    if isinstance(e, Const):
        return {} if e.value == 0 else {(): _value(e)}
    if isinstance(e, (Var, Param)):
        return expr._atom(e)
    if isinstance(e, Neg):
        return expr._nf_scale(nf(e.child), Fraction(-1))
    if isinstance(e, Add):
        out = {}
        for c in e.children:
            out = expr._nf_add(out, nf(c))
        return out
    if isinstance(e, Mul):
        out = {(): Fraction(1)}
        for c in e.children:
            out = expr._nf_mul(out, nf(c))
        return out
    if isinstance(e, Div):
        return expr._nf_mul(nf(e.num), _nf_invert(nf(e.den)))
    if isinstance(e, Pow):
        return expr._nf_pow(nf(e.base), e.exponent)
    if isinstance(e, Call):
        if e.fname == "sqrt":
            return expr._nf_pow(nf(e.arg), Fraction(1, 2))
        arg = expr._emit(nf(e.arg))
        folded = expr._fold_call(e.fname, arg)
        if folded is not None:
            return nf(folded)
        return expr._atom(Call(e.fname, arg))
    if isinstance(e, FuncApp):
        return expr._atom(FuncApp(e.fname, e.order, expr._emit(nf(e.arg))))
    raise TypeError(f"cannot normalize {e!r}")


def simplify(e: Expr) -> Expr:
    return expr._emit(nf(e))


def diff(e: Expr, v: Var) -> Expr:
    """The derivative of e, whose negations and quotients are nodes."""
    return simplify(_diff(simplify(e), v))


def _diff(e: Expr, v: Var) -> Expr:
    """The derivative of a canonical tree: no negation, quotient or sqrt."""
    if isinstance(e, (Const, Param)):
        return expr.ZERO
    if isinstance(e, Var):
        return expr.ONE if e == v else expr.ZERO
    if isinstance(e, Add):
        return Add(tuple(_diff(c, v) for c in e.children))
    if isinstance(e, Mul):
        parts = []
        for i, c in enumerate(e.children):
            rest = e.children[:i] + e.children[i + 1:]
            parts.append(Mul((_diff(c, v), *rest)) if rest else _diff(c, v))
        return Add(tuple(parts)) if len(parts) > 1 else parts[0]
    if isinstance(e, Pow):
        r = e.exponent
        return Mul((Const(r), Pow(e.base, r - 1), _diff(e.base, v)))
    if isinstance(e, Call):
        u = e.arg
        du = _diff(u, v)
        if e.fname == "sin":
            return Mul((Call("cos", u), du))
        if e.fname == "cos":
            return Neg(Mul((Call("sin", u), du)))
        if e.fname == "exp":
            return Mul((Call("exp", u), du))
        if e.fname == "ln":
            return Div(du, u)
    if isinstance(e, FuncApp):
        return Mul((FuncApp(e.fname, e.order + 1, e.arg), _diff(e.arg, v)))
    raise TypeError(f"cannot differentiate {e!r}")


# ---------------------------------------------------------------------------
# printing


def _needs_parens_as_base(e: Expr) -> bool:
    if isinstance(e, (Add, Mul, Div, Neg, Pow)):
        return True
    if isinstance(e, Const):
        v = _value(e)
        if isinstance(v, Fraction):
            return v < 0 or v.denominator != 1
        return v < 0
    return False


def _fmt_base(e: Expr) -> str:
    s = format_expr(e)
    return f"({s})" if _needs_parens_as_base(e) else s


def _fmt_powered(base: Expr, exp: Fraction) -> str:
    if exp == 1:
        return _fmt_base(base)
    return f"{_fmt_base(base)}^{expr._rat_str(exp)}"


def _term_parts(e: Expr):
    """(sign, numerator parts, denominator parts) of a product-like node; the
    text of a divisor waits on the stack until its numerator is done."""
    sign, num, den = 1, [], []
    todo = [e]
    while todo:
        f = todo.pop()
        if isinstance(f, str):
            den.append(f)
        elif isinstance(f, Const):
            v = _value(f)
            if v < 0:
                sign, v = -sign, -v
            if isinstance(v, Fraction):
                if v.numerator != 1:
                    num.insert(0, str(v.numerator))
                if v.denominator != 1:
                    den.append(str(v.denominator))
            else:
                num.insert(0, repr(v))
        elif isinstance(f, Neg):
            sign = -sign
            todo.append(f.child)
        elif isinstance(f, Pow) and f.exponent < 0:
            den.append(_fmt_powered(f.base, -f.exponent))
        elif isinstance(f, Div):
            todo += (_fmt_base(f.den), f.num)
        elif isinstance(f, Mul):
            todo += reversed(f.children)
        elif isinstance(f, Pow):
            num.append(_fmt_powered(f.base, f.exponent))
        else:
            src = format_expr(f)
            num.append(f"({src})" if isinstance(f, Add) else src)
    return sign, num, den


def _fmt_term(e: Expr) -> tuple[int, str]:
    sign, num, den = _term_parts(e)
    head = "*".join(num) if num else "1"
    for d in den:
        head += f"/{d}"
    return sign, head


def format_expr(e: Expr) -> str:
    if isinstance(e, Const):
        v = _value(e)
        return str(v) if isinstance(v, Fraction) else repr(v)
    if isinstance(e, Add):
        sign, head = _fmt_term(e.children[0])
        out = ("-" if sign < 0 else "") + head
        for c in e.children[1:]:
            sign, part = _fmt_term(c)
            out += (" - " if sign < 0 else " + ") + part
        return out
    if isinstance(e, (Mul, Div, Neg)) or (isinstance(e, Pow) and e.exponent < 0):
        sign, head = _fmt_term(e)
        return ("-" if sign < 0 else "") + head
    if isinstance(e, Pow):
        return _fmt_powered(e.base, e.exponent)
    if isinstance(e, (Var, Param)):
        return e.name
    if isinstance(e, Call):
        return f"{e.fname}({format_expr(e.arg)})"
    if isinstance(e, FuncApp):
        return e.fname + "'" * e.order + "(" + format_expr(e.arg) + ")"
    raise TypeError(f"cannot format {e!r}")


# ---------------------------------------------------------------------------
# evaluation


def evaluate(e: Expr, p: Point, ctx=None) -> float:
    """expr.evaluate's value or error, with a negation and a quotient node."""
    if isinstance(e, Const):
        try:
            v = float(e.value)
        except OverflowError as exc:
            raise EvalDomainError("constant out of double range") from exc
        if math.isfinite(v):
            return v
        raise EvalDomainError("non-finite constant")
    if isinstance(e, Var):
        seq = p.x if e.axis == "x" else p.y
        if e.index > len(seq):
            raise EvalDomainError(f"coordinate {e.name} out of range for point of dimension {p.n}")
        return seq[e.index - 1]
    if isinstance(e, Param):
        return _resolve_param(e.name, p, ctx)
    if isinstance(e, Neg):
        return -evaluate(e.child, p, ctx)
    if isinstance(e, Add):
        return _check_finite(_fsum(evaluate(c, p, ctx) for c in e.children), "sum")
    if isinstance(e, Mul):
        out = 1.0
        for c in e.children:
            out *= evaluate(c, p, ctx)
        return _check_finite(out, "product")
    if isinstance(e, Div):
        den = evaluate(e.den, p, ctx)
        if den == 0.0:
            raise EvalDomainError("division by zero")
        return _check_finite(evaluate(e.num, p, ctx) / den, "quotient")
    if isinstance(e, Pow):
        b = evaluate(e.base, p, ctx)
        r = e.exponent
        if r.denominator == 1:
            k = int(r)
            if b == 0.0 and k < 0:
                raise EvalDomainError("zero raised to a negative power")
            try:
                return _check_finite(b ** k, "power")
            except OverflowError as exc:
                raise EvalDomainError("overflow in power") from exc
        if b < 0.0:
            raise EvalDomainError("fractional power of a negative base")
        if b == 0.0 and r < 0:
            raise EvalDomainError("zero raised to a negative power")
        try:
            return _check_finite(math.pow(b, float(r)), "power")
        except (ValueError, OverflowError) as exc:
            raise EvalDomainError("domain error in power") from exc
    if isinstance(e, Call):
        a = evaluate(e.arg, p, ctx)
        if e.fname == "ln" and a <= 0.0:
            raise EvalDomainError("ln of a nonpositive value")
        if e.fname == "sqrt" and a < 0.0:
            raise EvalDomainError("sqrt of a negative value")
        try:
            v = _MATH[e.fname](a)
        except OverflowError as exc:
            raise EvalDomainError(f"overflow in {e.fname}") from exc
        except ValueError as exc:
            raise EvalDomainError(f"domain error in {e.fname}") from exc
        return _check_finite(v, "exp") if e.fname == "exp" else v
    if isinstance(e, FuncApp):
        a = evaluate(e.arg, p, ctx)
        body = ctx.func_derivative(e.fname, e.order) if ctx is not None else None
        if body is None:
            return formal_value(e.fname, e.order, a)
        return evaluate(body, Point((a,), (0.0,), dict(p.params)), ctx)
    raise TypeError(f"cannot evaluate {e!r}")
