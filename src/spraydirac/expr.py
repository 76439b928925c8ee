"""Symbolic expression kernel.

Everything downstream (frames, curvature, brackets, residuals) is built from
the small expression language implemented here: exact rational and floating
constants, tangent-bundle coordinates x1..xn / y1..yn, scalar parameters,
opaque unary functions with formal derivatives (f, f', f''), the unary
functions sin / cos / exp / ln / sqrt, and +, -, *, /, ^ with rational
exponents.

The design is deliberately closer to a normal-form calculator than to a full
CAS.  ``simplify`` rewrites any tree into a canonical sum of terms, where each
term is a rational (or float) coefficient times a product of atomic bases
raised to rational exponents.  Products and integer powers of sums are
expanded, structurally equal bases have their exponents combined (so f/f
cancels), and sums appearing under a negative or fractional power are kept as
atomic bases after content normalization.  Trigonometric and log identities
are out of scope on purpose; what the canonical form cannot settle is handed
to the numeric sampler behind the tri-state ``is_zero``.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import EvalDomainError, ParseError, UnboundParameterError, ValidationError

__all__ = [
    "Expr", "Const", "Var", "Param", "Call", "FuncApp", "Neg", "Add", "Mul", "Div", "Pow",
    "Tri", "Context", "Point", "SampleConfig",
    "parse", "simplify", "diff", "evaluate", "is_zero", "format_expr",
    "as_expr", "sum_exprs", "tri_all", "sample_points", "clear_caches",
    "compile_exprs", "compile_rk4_step", "compile_evaluate",
    "compile_evaluate_with_magnitude", "formal_value", "opaque_assignments",
]

BUILTIN_FUNCTIONS = ("sin", "cos", "exp", "ln", "sqrt")

# Most bits in the numerator or denominator of an exact constant: below the
# 4300 decimal digits past which Python refuses to print an int.
MAX_EXACT_BITS = 14_000

_COORD_RE = re.compile(r"^([xy])([1-9][0-9]*)$")


class Tri(Enum):
    """Verdict of a zero test: proven zero, proven nonzero, or undecided."""

    PROVEN_ZERO = "proven_zero"
    PROVEN_NONZERO = "proven_nonzero"
    UNKNOWN = "unknown"

    def __str__(self) -> str:
        return self.value


def tri_all(verdicts: Iterable[Tri]) -> Tri:
    """Combine componentwise verdicts: any nonzero wins, else unknown taints."""
    out = Tri.PROVEN_ZERO
    for v in verdicts:
        if v is Tri.PROVEN_NONZERO:
            return Tri.PROVEN_NONZERO
        if v is Tri.UNKNOWN:
            out = Tri.UNKNOWN
    return out


# ---------------------------------------------------------------------------
# nodes


class Expr:
    """Immutable expression node. Subclasses set _key in __init__.

    Equality and hashing are structural (on _key), and the memo of _nf,
    simplify and diff keys on them.  The normal-form dicts that _nf memoises
    are shared by every caller and must never be mutated.
    """

    __slots__ = ("_key", "_hash")

    def _set_key(self, key: tuple) -> None:
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __eq__(self, other) -> bool:
        return isinstance(other, Expr) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return format_expr(self)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {format_expr(self)}>"

    def sortkey(self) -> tuple:
        raise NotImplementedError

    # operator sugar; results are raw trees, canonicalize with simplify()
    def __add__(self, other):
        return Add((self, as_expr(other)))

    def __radd__(self, other):
        return Add((as_expr(other), self))

    def __sub__(self, other):
        return Add((self, Neg(as_expr(other))))

    def __rsub__(self, other):
        return Add((as_expr(other), Neg(self)))

    def __mul__(self, other):
        return Mul((self, as_expr(other)))

    def __rmul__(self, other):
        return Mul((as_expr(other), self))

    def __truediv__(self, other):
        return Div(self, as_expr(other))

    def __rtruediv__(self, other):
        return Div(as_expr(other), self)

    def __neg__(self):
        return Neg(self)

    def __pow__(self, r):
        if isinstance(r, int):
            r = Fraction(r)
        if not isinstance(r, Fraction):
            raise TypeError("exponent must be an int or Fraction")
        return Pow(self, r)


class Const(Expr):
    """Exact rational (Fraction) or floating literal."""

    __slots__ = ("value",)

    def __init__(self, value):
        if isinstance(value, int):
            value = Fraction(value)
        if not isinstance(value, (Fraction, float)):
            raise TypeError(f"bad constant {value!r}")
        object.__setattr__(self, "value", value)
        if isinstance(value, Fraction):
            num, den = value.numerator, value.denominator
            if num.bit_length() > MAX_EXACT_BITS or den.bit_length() > MAX_EXACT_BITS:
                raise EvalDomainError("exact constant too large")
            self._set_key(("const", "q", num, den))
        else:
            self._set_key(("const", "f", repr(value)))

    def sortkey(self) -> tuple:
        tag = 0 if isinstance(self.value, Fraction) else 1
        try:
            v = float(self.value)
        except OverflowError:   # a rational past the double range sorts as +-inf
            v = math.inf if self.value > 0 else -math.inf
        return (0, v, tag, str(self.value))


def _exact_pow(c: Fraction, k: int) -> Fraction:
    """c**k, refused before it is built when it must pass MAX_EXACT_BITS."""
    bits = max(c.numerator.bit_length(), c.denominator.bit_length())
    if (bits - 1) * abs(k) >= MAX_EXACT_BITS:
        raise EvalDomainError("exact constant too large")
    return c ** k


ZERO = Const(0)
ONE = Const(1)


class Var(Expr):
    """A coordinate: axis 'x' (base) or 'y' (fiber), 1-based index."""

    __slots__ = ("axis", "index")

    def __init__(self, axis: str, index: int):
        if axis not in ("x", "y") or index < 1:
            raise ValueError(f"bad coordinate {axis}{index}")
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "index", index)
        self._set_key(("var", axis, index))

    @property
    def name(self) -> str:
        return f"{self.axis}{self.index}"

    def sortkey(self) -> tuple:
        return (1, 0 if self.axis == "x" else 1, self.index)


class Param(Expr):
    """Declared scalar parameter, referenced by name."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)
        self._set_key(("param", name))

    def sortkey(self) -> tuple:
        return (2, self.name)


class Call(Expr):
    """Builtin unary function application."""

    __slots__ = ("fname", "arg")

    def __init__(self, fname: str, arg: Expr):
        if fname not in BUILTIN_FUNCTIONS:
            raise ValueError(f"unsupported function {fname!r}")
        object.__setattr__(self, "fname", fname)
        object.__setattr__(self, "arg", arg)
        self._set_key(("call", fname, arg._key))

    def sortkey(self) -> tuple:
        return (3, self.fname, self.arg.sortkey())


class FuncApp(Expr):
    """Opaque function application f(arg); order counts formal primes."""

    __slots__ = ("fname", "order", "arg")

    def __init__(self, fname: str, order: int, arg: Expr):
        object.__setattr__(self, "fname", fname)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "arg", arg)
        self._set_key(("funcapp", fname, order, arg._key))

    def sortkey(self) -> tuple:
        return (4, self.fname, self.order, self.arg.sortkey())


class Pow(Expr):
    """base raised to an exact rational exponent."""

    __slots__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent):
        if isinstance(exponent, int):
            exponent = Fraction(exponent)
        if not isinstance(exponent, Fraction):
            raise TypeError("exponent must be an int or Fraction")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", exponent)
        self._set_key(("pow", base._key, exponent.numerator, exponent.denominator))

    def sortkey(self) -> tuple:
        return (5, self.base.sortkey(), float(self.exponent))


class Neg(Expr):
    __slots__ = ("child",)

    def __init__(self, child: Expr):
        object.__setattr__(self, "child", child)
        self._set_key(("neg", child._key))

    def sortkey(self) -> tuple:
        return (6, self.child.sortkey())


class Add(Expr):
    """n-ary sum; canonical forms keep terms sorted and flattened."""

    __slots__ = ("children",)

    def __init__(self, children: Sequence[Expr]):
        children = tuple(children)
        if len(children) < 2:
            raise ValueError("Add needs at least two children")
        object.__setattr__(self, "children", children)
        self._set_key(("add",) + tuple(c._key for c in children))

    def sortkey(self) -> tuple:
        return (7, tuple(c.sortkey() for c in self.children))


class Mul(Expr):
    """n-ary product; canonical forms put an optional constant first."""

    __slots__ = ("children",)

    def __init__(self, children: Sequence[Expr]):
        children = tuple(children)
        if len(children) < 2:
            raise ValueError("Mul needs at least two children")
        object.__setattr__(self, "children", children)
        self._set_key(("mul",) + tuple(c._key for c in children))

    def sortkey(self) -> tuple:
        return (8, tuple(c.sortkey() for c in self.children))


class Div(Expr):
    __slots__ = ("num", "den")

    def __init__(self, num: Expr, den: Expr):
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        self._set_key(("div", num._key, den._key))

    def sortkey(self) -> tuple:
        return (9, self.num.sortkey(), self.den.sortkey())


def as_expr(v) -> Expr:
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, Fraction, float)):
        return Const(v)
    raise TypeError(f"cannot coerce {v!r} to Expr")


def sum_exprs(parts) -> Expr:
    """Sum that tolerates zero or one summand."""
    parts = tuple(parts)
    if not parts:
        return ZERO
    if len(parts) == 1:
        return parts[0]
    return Add(parts)


# ---------------------------------------------------------------------------
# declaration context and evaluation points


@dataclass
class FunctionDecl:
    """An opaque unary function. body, when given, is an Expr in x1 alone."""

    name: str
    body: Expr | None = None


@dataclass
class Context:
    """Declared dimension, scalar parameters, opaque functions.

    Scalar parameters may carry a bound numeric value (used by samplers and
    as an evaluation fallback).  Opaque functions may carry a concrete body,
    written in terms of the formal argument x1; without one they stay formal
    and evaluate to formal_value.
    """

    dim: int
    params: dict[str, float | None] = field(default_factory=dict)
    funcs: dict[str, FunctionDecl] = field(default_factory=dict)

    def __post_init__(self):
        if self.dim < 1:
            raise ValidationError(f"dimension must be positive, got {self.dim}")
        for name in list(self.params) + list(self.funcs):
            if _COORD_RE.match(name) or name in BUILTIN_FUNCTIONS:
                raise ValidationError(f"parameter name {name!r} is reserved")

    def declare_function(self, name: str, body: Expr | None = None) -> None:
        self.funcs[name] = FunctionDecl(name, body)

    def func_derivative(self, name: str, order: int) -> Expr | None:
        """order-th derivative of a bound function body, or None if unbound;
        diff's memo keeps each derivative."""
        decl = self.funcs.get(name)
        if decl is None or decl.body is None:
            return None
        e = decl.body
        for _ in range(order):
            e = diff(e, Var("x", 1))
        return e


def context_key(ctx: Context | None) -> tuple:
    """id(ctx) and its function declarations, for memo entries that hold ctx."""
    return id(ctx), ctx and tuple((k, d.body) for k, d in ctx.funcs.items())


@dataclass
class Point:
    """Numeric state: base coords, fiber coords, scalar parameter values."""

    x: tuple[float, ...]
    y: tuple[float, ...]
    params: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        self.x = tuple(float(v) for v in self.x)
        self.y = tuple(float(v) for v in self.y)
        if len(self.x) != len(self.y):
            raise ValidationError("x and y must have the same length")

    @property
    def n(self) -> int:
        return len(self.x)


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(
    r"(?P<num>[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*'*)"
    r"|(?P<op>[-+*/^()])"
)


@dataclass
class _Token:
    kind: str   # num | ident | op | end
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    out: list[_Token] = []
    i = 0
    while i < len(text):
        if text[i].isspace():
            i += 1
            continue
        m = _TOKEN_RE.match(text, i)
        if not m:
            raise ParseError(f"unexpected character {text[i]!r}", position=i)
        kind = m.lastgroup
        out.append(_Token(kind, m.group(), i))
        i = m.end()
    out.append(_Token("end", "", len(text)))
    return out


class _Parser:
    """Recursive-descent parser for the expression grammar.

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := base ("^" signed_rational)?
    base   := number | ident | ident "(" expr ")" | "(" expr ")" | "-" factor

    "^" binds tighter than unary minus.  The exponent is lexed with maximal
    munch, so y1^1/2 is y1^(1/2); divide by a parenthesized 2 to get the
    other reading.
    """

    def __init__(self, text: str, ctx: Context):
        self.text = text
        self.ctx = ctx
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self, ahead: int = 0) -> _Token:
        j = min(self.i + ahead, len(self.toks) - 1)
        return self.toks[j]

    def next(self) -> _Token:
        t = self.toks[self.i]
        if t.kind != "end":
            self.i += 1
        return t

    def expect_op(self, op: str) -> None:
        t = self.next()
        if t.kind != "op" or t.text != op:
            raise ParseError(f"expected {op!r}, found {t.text!r}", position=t.pos)

    def parse(self) -> Expr:
        e = self.expr()
        t = self.peek()
        if t.kind != "end":
            raise ParseError(f"unexpected trailing input {t.text!r}", position=t.pos)
        return e

    def expr(self) -> Expr:
        terms = [self.term()]
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.next().text
            t = self.term()
            terms.append(t if op == "+" else Neg(t))
        return terms[0] if len(terms) == 1 else Add(tuple(terms))

    def term(self) -> Expr:
        e = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.next().text
            rhs = self.factor()
            e = Mul((e, rhs)) if op == "*" else Div(e, rhs)
        return e

    def factor(self) -> Expr:
        e = self.base()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.next()
            e = Pow(e, self.signed_rational())
        return e

    def signed_rational(self) -> Fraction:
        sign = 1
        t = self.peek()
        if t.kind == "op" and t.text == "-":
            self.next()
            sign = -1
        t = self.next()
        if t.kind != "num" or not t.text.isdigit():
            raise ParseError("exponent must be an integer or rational", position=t.pos)
        num, den = t.text, "1"
        if (self.peek().kind == "op" and self.peek().text == "/"
                and self.peek(1).kind == "num" and self.peek(1).text.isdigit()):
            self.next()
            den = self.next().text
        try:
            return Fraction(sign * int(num), int(den))
        except ZeroDivisionError:
            raise ParseError("zero denominator in exponent", position=t.pos) from None
        except ValueError:   # past Python's int conversion limit
            raise ParseError("exponent has too many digits", position=t.pos) from None

    def base(self) -> Expr:
        t = self.next()
        if t.kind == "num":
            value = float(t.text)
            if not math.isfinite(value):
                raise ParseError(f"numeric literal {t.text!r} does not fit in a double",
                                 position=t.pos)
            return Const(Fraction(int(t.text)) if t.text.isdigit() else value)
        if t.kind == "op" and t.text == "-":
            return Neg(self.factor())
        if t.kind == "op" and t.text == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        if t.kind == "ident":
            return self.ident(t)
        raise ParseError(f"unexpected token {t.text!r}", position=t.pos)

    def ident(self, t: _Token) -> Expr:
        name = t.text.rstrip("'")
        order = len(t.text) - len(name)
        m = _COORD_RE.match(name)
        if m:
            if order:
                raise ParseError(f"cannot take a prime of coordinate {name!r}", position=t.pos)
            axis, idx = m.group(1), int(m.group(2))
            if idx > self.ctx.dim:
                raise ParseError(
                    f"coordinate {name!r} out of range for dimension {self.ctx.dim}",
                    position=t.pos)
            return Var(axis, idx)
        if name in BUILTIN_FUNCTIONS:
            if order:
                raise ParseError(f"primes are not allowed on {name!r}", position=t.pos)
            self.expect_op("(")
            arg = self.expr()
            self.expect_op(")")
            return Call(name, arg)
        if name in self.ctx.funcs:
            self.expect_op("(")
            arg = self.expr()
            self.expect_op(")")
            return FuncApp(name, order, arg)
        if name in self.ctx.params:
            if order:
                raise ParseError(f"cannot take a prime of scalar parameter {name!r}", position=t.pos)
            return Param(name)
        raise ParseError(f"unknown identifier {name!r}", position=t.pos)


def parse(text: str, ctx: Context) -> Expr:
    """Parse DSL text into a raw expression tree (not yet canonical)."""
    return _Parser(text, ctx).parse()


# ---------------------------------------------------------------------------
# canonical simplification
#
# Normal form: dict mapping a monomial (sorted tuple of (base, exponent)
# pairs) to a coefficient.  Coefficients are Fractions unless a float has
# contaminated the term.  Bases are canonical Exprs: Var, Param, Call,
# FuncApp, Const (for things like 2^(1/2)), or a canonical Add/Mul/Pow kept
# atomic because expanding it is unsound or unhelpful.

_Mono = tuple  # tuple[tuple[Expr, Fraction], ...]
_NF = dict     # dict[_Mono, Fraction | float]

_EXPAND_CAP = 16


def _cmul(a, b):
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a * b
    return float(a) * float(b)


def _cadd(a, b):
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a + b
    return float(a) + float(b)


def _cpow(c, k):
    """c**k for a Fraction c and an int k, or a float c and an exponent k that
    is whole or has c > 0; a float overflows to +-inf, as a float product does."""
    if isinstance(c, Fraction):
        return _exact_pow(c, k)
    try:
        return float(c) ** float(k)
    except OverflowError:
        return -math.inf if c < 0 and k % 2 else math.inf


def _cinv(a):
    if isinstance(a, Fraction):
        return Fraction(a.denominator, a.numerator)
    return 1.0 / a


def _acc(nf: _NF, mono: _Mono, coeff) -> None:
    cur = nf.get(mono)
    if cur is None:
        if coeff != 0:
            nf[mono] = coeff
        return
    s = _cadd(cur, coeff)
    if s == 0:
        del nf[mono]
    else:
        nf[mono] = s


def _iroot(v: int, q: int) -> int | None:
    """Exact integer q-th root of v >= 0, or None."""
    if v < 0:
        return None
    if v in (0, 1):
        return v
    if q >= v.bit_length():
        return None     # 1 < v < 2**q, so 1 < root < 2
    # Newton's method on integers, falling from 2**ceil(bits/q) >= root
    # to floor(root); exact however large v is
    r = 1 << -(-v.bit_length() // q)
    while True:
        nxt = ((q - 1) * r + v // r ** (q - 1)) // q
        if nxt >= r:
            break
        r = nxt
    return r if r ** q == v else None


def _frac_pow_exact(c: Fraction, r: Fraction):
    """c**r as an exact Fraction, or None when no exact value exists."""
    if r.denominator == 1:
        if c == 0 and r < 0:
            raise EvalDomainError("zero raised to a negative power")
        return _exact_pow(c, int(r))
    sign = 1
    num, den = c.numerator, c.denominator
    if num < 0:
        if r.denominator % 2 == 0:
            return None
        sign, num = -1, -num
    rn = _iroot(num, r.denominator)
    rd = _iroot(den, r.denominator)
    if rn is None or rd is None:
        return None
    root = Fraction(sign * rn, rd)
    return _frac_pow_exact(root, Fraction(r.numerator))


def _normalize_pairs(pairs: dict, coeff):
    """Fold constant bases into the coefficient, drop zero exponents, sort."""
    kept = []
    for base, exp in pairs.items():
        if exp == 0:
            continue
        if isinstance(base, Const):
            v = base.value
            if isinstance(v, Fraction):
                folded = _frac_pow_exact(v, exp)
                if folded is not None:
                    coeff = _cmul(coeff, folded)
                    continue
            else:
                if v > 0 or exp.denominator == 1:
                    coeff = _cmul(coeff, _cpow(v, exp))
                    continue
        kept.append((base, exp))
    kept.sort(key=lambda be: be[0].sortkey())
    return tuple(kept), coeff


def _pairs_add(pairs: dict, base: Expr, exp: Fraction) -> None:
    cur = pairs.get(base)
    pairs[base] = exp if cur is None else cur + exp


def _mono_mul(m1: _Mono, m2: _Mono, c):
    merged: dict = {}
    for base, exp in m1 + m2:
        _pairs_add(merged, base, exp)
    return _normalize_pairs(merged, c)


def _nf_scale(nf: _NF, c) -> _NF:
    if c == 0:
        return {}
    return {m: _cmul(v, c) for m, v in nf.items()}


def _nf_add(a: _NF, b: _NF) -> _NF:
    out = dict(a)
    for m, c in b.items():
        _acc(out, m, c)
    return out


def _nf_mul(a: _NF, b: _NF) -> _NF:
    out: _NF = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m, c = _mono_mul(m1, m2, _cmul(c1, c2))
            _acc(out, m, c)
    return out


def _mono_sortkey(m: _Mono) -> tuple:
    return tuple((base.sortkey(), (exp.numerator, exp.denominator)) for base, exp in m)


def _content_split(nf: _NF):
    """Split off the leading coefficient so the remaining sum leads with 1."""
    lead = min(nf, key=_mono_sortkey)
    c = nf[lead]
    return c, _nf_scale(nf, _cinv(c))


def _nf_invert(nf: _NF) -> _NF:
    if not nf:
        raise EvalDomainError("division by an expression that simplifies to zero")
    if len(nf) == 1:
        (mono, c), = nf.items()
        pairs = {base: -exp for base, exp in mono}
        m, cc = _normalize_pairs(pairs, _cinv(c))
        return {m: cc}
    c, unit = _content_split(nf)
    base = _emit(unit)
    return {((base, Fraction(-1)),): _cinv(c)}


def _nf_pow(nf: _NF, r: Fraction) -> _NF:
    if r == 0:
        return {(): Fraction(1)}
    if not nf:
        if r < 0:
            raise EvalDomainError("zero raised to a negative power")
        return {}
    if r.denominator == 1:
        k = int(r)
        if k < 0:
            return _nf_pow(_nf_invert(nf), Fraction(-k))
        if len(nf) == 1:
            (mono, c), = nf.items()
            pairs = {base: exp * k for base, exp in mono}
            m, cc = _normalize_pairs(pairs, _cpow(c, k))
            return {m: cc}
        if k <= _EXPAND_CAP:
            out = {(): Fraction(1)}
            b = nf
            e = k
            while e:
                if e & 1:
                    out = _nf_mul(out, b)
                e >>= 1
                if e:
                    b = _nf_mul(b, b)
            return out
        c, unit = _content_split(nf)
        base = _emit(unit)
        return {((base, Fraction(k)),): _cpow(c, k)}
    # fractional exponent
    if len(nf) == 1:
        (mono, c), = nf.items()
        if not mono:
            m, cc = _normalize_pairs({Const(c): r}, Fraction(1))
            return {m: cc}
        if c < 0:
            # keep the sign inside an atomic base; splitting it is unsound
            base = _emit({mono: c})
            return {((base, r),): Fraction(1)}
        # a positive constant factor splits off soundly; a lone base with
        # exponent 1 (or an already-fractional exponent, which forces the
        # base nonnegative) combines; anything else stays atomic because
        # (x^2)^(1/2) is |x|, not x
        pairs: dict = {}
        if len(mono) == 1 and (mono[0][1] == 1 or mono[0][1].denominator > 1):
            _pairs_add(pairs, mono[0][0], mono[0][1] * r)
        else:
            _pairs_add(pairs, _emit({mono: Fraction(1)}), r)
        if c != 1:
            _pairs_add(pairs, Const(c), r)
        m, cc = _normalize_pairs(pairs, Fraction(1))
        return {m: cc}
    c, unit = _content_split(nf)
    mag = abs(c)
    if mag != c:
        unit = _nf_scale(unit, Fraction(-1) if isinstance(c, Fraction) else -1.0)
    base = _emit(unit)
    pairs = {}
    _pairs_add(pairs, base, r)
    if mag != 1:
        _pairs_add(pairs, Const(mag), r)
    m, cc = _normalize_pairs(pairs, Fraction(1))
    return {m: cc}


def _fold_call(fname: str, arg: Expr) -> Expr | None:
    if not isinstance(arg, Const):
        return None
    v = arg.value
    if isinstance(v, Fraction):
        table = {
            ("sin", Fraction(0)): ZERO, ("cos", Fraction(0)): ONE,
            ("exp", Fraction(0)): ONE, ("ln", Fraction(1)): ZERO,
        }
        return table.get((fname, v))
    try:
        fn = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "ln": math.log}[fname]
        return Const(fn(float(v)))
    except (ValueError, OverflowError, KeyError):
        return None


def _atom(base: Expr) -> _NF:
    return {((base, Fraction(1)),): Fraction(1)}


# Per-command memo: _nf, simplify and diff are pure functions of their
# structurally hashed inputs, so each distinct input is computed once until
# clear_caches() empties the tables; cli.main does so after every command,
# which bounds the memo by one problem file.
_NF_MEMO: dict[Expr, _NF] = {}
_SIMPLIFY_MEMO: dict[Expr, Expr] = {}
_DIFF_MEMO: dict[tuple[Expr, Var], Expr] = {}
# compiled evaluations, keyed on the expressions and the context; each entry
# holds its context, so the id in the key stays unique
_EVALUATION_MEMO: dict[tuple, tuple] = {}


def clear_caches() -> None:
    """Forget every memoised normal form, simplification, derivative and
    compiled evaluation."""
    _NF_MEMO.clear()
    _SIMPLIFY_MEMO.clear()
    _DIFF_MEMO.clear()
    _EVALUATION_MEMO.clear()


def _nf(e: Expr) -> _NF:
    """Normal form of e, memoised: the dict is shared, so never mutate it.
    No pair is left that _distributes names; each pass makes such bases smaller.
    Only products, quotients, powers and roots of normal forms can make one."""
    nf = _NF_MEMO.get(e)
    if nf is None:
        nf = _build_nf(e)
        while (isinstance(e, (Mul, Div, Pow, Call))
               and any(_distributes(b, r) for mono in nf for b, r in mono)):
            nf = _nf_expand_sums(nf)
        _NF_MEMO[e] = nf
    return nf


def _build_nf(e: Expr) -> _NF:
    if isinstance(e, Const):
        return {} if e.value == 0 else {(): e.value}
    if isinstance(e, (Var, Param)):
        return _atom(e)
    if isinstance(e, Neg):
        return _nf_scale(_nf(e.child), Fraction(-1))
    if isinstance(e, Add):
        out: _NF = {}
        for c in e.children:
            out = _nf_add(out, _nf(c))
        return out
    if isinstance(e, Mul):
        out = {(): Fraction(1)}
        for c in e.children:
            out = _nf_mul(out, _nf(c))
        return out
    if isinstance(e, Div):
        return _nf_mul(_nf(e.num), _nf_invert(_nf(e.den)))
    if isinstance(e, Pow):
        return _nf_pow(_nf(e.base), e.exponent)
    if isinstance(e, Call):
        if e.fname == "sqrt":
            return _nf_pow(_nf(e.arg), Fraction(1, 2))
        arg = _emit(_nf(e.arg))
        folded = _fold_call(e.fname, arg)
        if folded is not None:
            return _nf(folded)
        return _atom(Call(e.fname, arg))
    if isinstance(e, FuncApp):
        return _atom(FuncApp(e.fname, e.order, _emit(_nf(e.arg))))
    raise TypeError(f"cannot normalize {e!r}")


def _emit_term(mono: _Mono, coeff) -> Expr:
    factors = [base if exp == 1 else Pow(base, exp) for base, exp in mono]
    if not factors:
        return Const(coeff)
    if coeff == 1:
        return factors[0] if len(factors) == 1 else Mul(tuple(factors))
    return Mul((Const(coeff), *factors))


def _emit(nf: _NF) -> Expr:
    if not nf:
        return ZERO
    items = sorted(nf.items(), key=lambda mc: _mono_sortkey(mc[0]))
    terms = [_emit_term(m, c) for m, c in items]
    return terms[0] if len(terms) == 1 else Add(tuple(terms))


def simplify(e: Expr) -> Expr:
    """Rewrite into the canonical form; deterministic, memoised per input.

    A projection on exact trees: simplify(simplify(e)) == simplify(e) when
    every constant is a Fraction.  A float coefficient may still move on a
    second call, so no result is memoised as its own simplification.
    """
    s = _SIMPLIFY_MEMO.get(e)
    if s is None:
        s = _SIMPLIFY_MEMO[e] = _emit(_nf(e))
    return s


# ---------------------------------------------------------------------------
# differentiation


def diff(e: Expr, v: Var) -> Expr:
    """Partial derivative with respect to a coordinate, canonicalized; memoised."""
    d = _DIFF_MEMO.get((e, v))
    if d is None:
        d = _DIFF_MEMO[e, v] = simplify(_diff(simplify(e), v))
    return d


def _diff(e: Expr, v: Var) -> Expr:
    if isinstance(e, Const) or isinstance(e, Param):
        return ZERO
    if isinstance(e, Var):
        return ONE if e == v else ZERO
    if isinstance(e, Neg):
        return Neg(_diff(e.child, v))
    if isinstance(e, Add):
        return Add(tuple(_diff(c, v) for c in e.children))
    if isinstance(e, Mul):
        parts = []
        for i, c in enumerate(e.children):
            rest = e.children[:i] + e.children[i + 1:]
            parts.append(Mul((_diff(c, v), *rest)) if rest else _diff(c, v))
        return Add(tuple(parts)) if len(parts) > 1 else parts[0]
    if isinstance(e, Div):
        u, w = e.num, e.den
        return Div(Add((Mul((_diff(u, v), w)), Neg(Mul((u, _diff(w, v)))))), Pow(w, Fraction(2)))
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
        if e.fname == "sqrt":
            return Mul((Const(Fraction(1, 2)), Pow(u, Fraction(-1, 2)), du))
        raise ValidationError(f"cannot differentiate through {e.fname!r}")
    if isinstance(e, FuncApp):
        return Mul((FuncApp(e.fname, e.order + 1, e.arg), _diff(e.arg, v)))
    raise TypeError(f"cannot differentiate {e!r}")


# ---------------------------------------------------------------------------
# numeric evaluation


def _resolve_param(name: str, p: Point, ctx: Context | None) -> float:
    if name in p.params:
        return float(p.params[name])
    if ctx is not None:
        bound = ctx.params.get(name)
        if bound is not None:
            return float(bound)
    raise UnboundParameterError(f"parameter {name!r} has no bound value")


def _check_finite(v: float, what: str) -> float:
    if not math.isfinite(v):
        raise EvalDomainError(f"{what} produced a non-finite value")
    return v


def formal_value(name: str, order: int, a: float) -> float:
    """The value of name's order-th derivative at a, for a function without
    a body.

    It depends on (name, order, a rounded to 9 decimals) alone, through
    blake2b rather than hash(), which PYTHONHASHSEED changes; so a formal
    function is one function, and a point fixes every value an expression
    takes there.  Distinct keys get independent-looking values, so a nonzero
    sample means nonzero for some admissible choice of the formal functions.
    Each lies in [0.25, 2) in magnitude, with either sign, so that a sample
    does not annihilate an expression like f'(x1)*x2 by itself.
    """
    key = repr((name, order, round(float(a), 9) + 0.0))    # + 0.0: -0.0 is 0.0
    h = int.from_bytes(hashlib.blake2b(key.encode(), digest_size=8).digest(), "little")
    mag = 0.25 + 1.75 * ((h >> 11) * 2.0 ** -53)
    return -mag if h & 1 else mag


def evaluate(e: Expr, p: Point, ctx: Context | None = None) -> float:
    """Evaluate at a point in IEEE double precision.

    Domain violations raise EvalDomainError instead of returning nan or inf.
    An opaque function without a bound body in ctx takes its formal_value.
    """
    if isinstance(e, Const):
        try:
            return float(e.value)
        except OverflowError as exc:
            raise EvalDomainError("constant out of double range") from exc
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
        return _check_finite(math.fsum(evaluate(c, p, ctx) for c in e.children), "sum")
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
        try:
            if e.fname == "sin":
                return math.sin(a)
            if e.fname == "cos":
                return math.cos(a)
            if e.fname == "exp":
                return _check_finite(math.exp(a), "exp")
            if e.fname == "ln":
                if a <= 0.0:
                    raise EvalDomainError("ln of a nonpositive value")
                return math.log(a)
            if e.fname == "sqrt":
                if a < 0.0:
                    raise EvalDomainError("sqrt of a negative value")
                return math.sqrt(a)
        except OverflowError as exc:
            raise EvalDomainError(f"overflow in {e.fname}") from exc
        except ValueError as exc:   # sin or cos of an infinity
            raise EvalDomainError(f"domain error in {e.fname}") from exc
        raise ValidationError(f"cannot evaluate {e.fname!r}")
    if isinstance(e, FuncApp):
        a = evaluate(e.arg, p, ctx)
        body = ctx.func_derivative(e.fname, e.order) if ctx is not None else None
        if body is None:
            return formal_value(e.fname, e.order, a)
        return evaluate(body, Point((a,), (0.0,), dict(p.params)), ctx)
    raise TypeError(f"cannot evaluate {e!r}")


def evaluate_with_magnitude(e: Expr, p: Point,
                            ctx: Context | None = None) -> tuple[float, float]:
    """Value plus a cancellation scale (sum of |term| over top-level terms)."""
    if isinstance(e, Add):
        vals = [evaluate(c, p, ctx) for c in e.children]
        return math.fsum(vals), math.fsum(abs(v) for v in vals)
    v = evaluate(e, p, ctx)
    return v, abs(v)


# ---------------------------------------------------------------------------
# sampling and the tri-state zero test

# Seed of every sampler, search and integration batch given none.
DEFAULT_SEED = 20260823
# Draws closer than this to a declared singular locus (measured by the locus
# expression's value) are rejected and redrawn.
SAMPLE_LOCUS_GUARD = 0.5
# is_zero's nonzero threshold, relative to the sample's term magnitude.
ZERO_TOL = 1e-9
# Fewest draws a sampler spends before it gives up.
SAMPLE_MAX_TRIES = 400


@dataclass
class SampleConfig:
    """Controls for numeric sampling.

    box is the closed interval used for every coordinate and for unbound
    scalar parameters; coord_boxes overrides it per coordinate name.
    """

    points: int = 32
    box: tuple[float, float] = (-2.0, 2.0)
    coord_boxes: dict[str, tuple[float, float]] = field(default_factory=dict)
    seed: int = DEFAULT_SEED


def _draw_point(ctx: Context, rng: np.random.Generator, cfg: SampleConfig) -> Point:
    """One rng.random call per point: the coordinates, then the unbound
    parameters in ctx.params order, each u mapped to lo + (hi - lo) * u,
    which is the stream of one rng.uniform(lo, hi) call per value."""
    n = ctx.dim
    names = [f"x{i}" for i in range(1, n + 1)] + [f"y{a}" for a in range(1, n + 1)]
    boxes = [cfg.coord_boxes.get(name, cfg.box) for name in names]
    boxes += [cfg.box for bound in ctx.params.values() if bound is None]
    vals = [float(lo) + (float(hi) - float(lo)) * u
            for (lo, hi), u in zip(boxes, rng.random(len(boxes)).tolist())]
    free = iter(vals[2 * n:])
    params = {name: float(bound) if bound is not None else next(free)
              for name, bound in ctx.params.items()}
    return Point(vals[:n], vals[n:2 * n], params)


def _clear_draws(ctx: Context, cfg: SampleConfig, loci: Sequence[Expr],
                 rng: np.random.Generator, limit: int) -> Iterator[Point]:
    """Make up to `limit` draws; yield each one that keeps clear of the loci.
    Drawing is lazy, so a consumer that stops early draws no more."""
    for _ in range(limit):
        p = _draw_point(ctx, rng, cfg)
        try:
            near = any(abs(evaluate(g, p, ctx)) < SAMPLE_LOCUS_GUARD for g in loci)
        except EvalDomainError:
            near = True
        if not near:
            yield p


def sample_points(ctx: Context, cfg: SampleConfig | None = None,
                  loci: Sequence[Expr] = (), count: int | None = None) -> list[Point]:
    """Draw points from the box with a cfg.seed stream, rejecting any too
    close to a singular locus."""
    cfg = cfg or SampleConfig()
    want = count if count is not None else cfg.points
    limit = max(SAMPLE_MAX_TRIES, 10 * want)
    draws = _clear_draws(ctx, cfg, loci, np.random.default_rng(cfg.seed), limit)
    # zip stops without another draw once range(want) runs out
    out = [p for _, p in zip(range(want), draws)]
    if len(out) < want:
        raise ValidationError(
            f"could not draw {want} sample points clear of the singular loci "
            f"in {limit} tries")
    return out


def opaque_assignments(apps: Sequence[FuncApp], p: Point, ctx: Context) -> dict:
    """formal_value of each application in apps at p, keyed by (name, order,
    rounded argument); an application whose argument fails to evaluate is
    left out.  Nothing in the package calls it: evaluate applies
    formal_value itself, so a point alone reproduces a sampled verdict.
    """
    out: dict = {}
    for app in apps:
        try:
            a = evaluate(app.arg, p, ctx)
        except EvalDomainError:
            continue
        out[app.fname, app.order, round(a, 9)] = formal_value(app.fname, app.order, a)
    return out


def _distributes(base: Expr, exp: Fraction) -> bool:
    """Whether _nf_pow(_nf(base), exp) rewrites the pair: a product or power at
    an integer power, or a sum at one up to _EXPAND_CAP or not led by exact 1."""
    if not isinstance(base, (Add, Mul, Pow)) or exp.denominator != 1:
        return False
    if not isinstance(base, Add) or 0 < exp <= _EXPAND_CAP:
        return True
    # _emit puts the leading term first, and its coefficient first in it
    lead = base.children[0].children[0] if isinstance(base.children[0], Mul) else base.children[0]
    return isinstance(lead, Const) and isinstance(lead.value, Fraction) and lead.value != 1


def _nf_expand_sums(nf: _NF) -> _NF:
    """Replace each pair that _distributes names by the normal form of its power."""
    out: _NF = {}
    for mono, c in nf.items():
        atoms = []
        parts = []
        for base, exp in mono:
            if _distributes(base, exp):
                parts.append(_nf_pow(_nf(base), exp))
            else:
                atoms.append((base, exp))
        term_nf: _NF = {tuple(atoms): c}
        for part in parts:
            term_nf = _nf_mul(term_nf, part)
        out = _nf_add(out, term_nf)
    return out


def _cleared_denominators(nf: _NF) -> _NF:
    """Multiply through by enough of each negative-exponent base to clear it."""
    min_exp: dict = {}
    for mono in nf:
        for base, exp in mono:
            if exp < 0:
                cur = min_exp.get(base)
                if cur is None or exp < cur:
                    min_exp[base] = exp
    if not min_exp:
        return nf
    clear_mono, cc = _normalize_pairs({b: -e for b, e in min_exp.items()}, Fraction(1))
    return _nf_expand_sums(_nf_mul(nf, {clear_mono: cc}))


def is_zero(e: Expr, ctx: Context, cfg: SampleConfig | None = None,
            loci: Sequence[Expr] = ()) -> Tri:
    """Tri-state zero test.

    Proven zero comes only from canonical simplification (directly, or after
    clearing shared denominators, which is sound because the cleared factors
    vanish only on excluded loci).  Proven nonzero needs a sampled point
    where |value| exceeds the tolerance relative to the term magnitude.
    Anything else stays unknown.
    """
    nf = _nf(e)
    if not nf:
        return Tri.PROVEN_ZERO
    if not _cleared_denominators(nf):
        return Tri.PROVEN_ZERO
    cfg = cfg or SampleConfig()
    s = _emit(nf)
    draws = _clear_draws(ctx, cfg, loci, np.random.default_rng(cfg.seed),
                         max(SAMPLE_MAX_TRIES, 4 * cfg.points))
    good = 0
    while good < cfg.points:
        p = next(draws, None)
        if p is None:
            break
        try:
            v, mag = evaluate_with_magnitude(s, p, ctx)
        except EvalDomainError:
            continue
        good += 1
        if abs(v) > ZERO_TOL * max(1.0, mag):
            return Tri.PROVEN_NONZERO
    return Tri.UNKNOWN


# ---------------------------------------------------------------------------
# printing


def _rat_str(r: Fraction) -> str:
    return str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"


def _needs_parens_as_base(e: Expr) -> bool:
    if isinstance(e, (Add, Mul, Div, Neg, Pow)):
        return True
    if isinstance(e, Const):
        v = e.value
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
    return f"{_fmt_base(base)}^{_rat_str(exp)}"


def _term_parts(e: Expr):
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

    def feed(f: Expr):
        nonlocal sign
        if isinstance(f, Const):
            feed_const(f.value)
        elif isinstance(f, Neg):
            sign = -sign
            feed(f.child)
        elif isinstance(f, Pow) and f.exponent < 0:
            den.append(_fmt_powered(f.base, -f.exponent))
        elif isinstance(f, Div):
            feed(f.num)
            s = format_expr(f.den)
            den.append(f"({s})" if _needs_parens_as_base(f.den) else s)
        elif isinstance(f, Mul):
            for c in f.children:
                feed(c)
        elif isinstance(f, Pow):
            num.append(_fmt_powered(f.base, f.exponent))
        else:
            src = format_expr(f)
            num.append(f"({src})" if isinstance(f, Add) else src)

    feed(e)
    return sign, num, den


def _fmt_term(e: Expr) -> tuple[int, str]:
    sign, num, den = _term_parts(e)
    head = "*".join(num) if num else "1"
    for d in den:
        head += f"/{d}"
    return sign, head


def format_expr(e: Expr) -> str:
    """Deterministic text form.

    Canonical trees do not always re-parse to themselves: (x1^2)/2 prints as
    x1^2/2, which parse reads as x1^(2/2) (the strict xfail
    test_printed_canonical_form_parses_back).
    """
    if isinstance(e, Add):
        sign, head = _fmt_term(e.children[0])
        out = ("-" if sign < 0 else "") + head
        for c in e.children[1:]:
            sign, part = _fmt_term(c)
            out += (" - " if sign < 0 else " + ") + part
        return out
    if isinstance(e, (Mul, Div, Neg, Const)) or (isinstance(e, Pow) and e.exponent < 0):
        sign, head = _fmt_term(e)
        return ("-" if sign < 0 else "") + head
    if isinstance(e, Pow):
        return _fmt_powered(e.base, e.exponent)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Param):
        return e.name
    if isinstance(e, Call):
        return f"{e.fname}({format_expr(e.arg)})"
    if isinstance(e, FuncApp):
        primes = "'" * e.order
        return e.fname + primes + "(" + format_expr(e.arg) + ")"
    raise TypeError(f"cannot format {e!r}")


# ---------------------------------------------------------------------------
# compilation to plain Python for hot loops


def _py_src(e: Expr, ctx: Context, depth: int) -> str:
    """Source of e on floats or numpy scalars, parameters as given.  A bound
    function body is inlined as evaluate applies it, at depth + 1: its x1 is
    the argument's value, computed once into _a{depth + 1}, and its y1 is 0.0."""
    if isinstance(e, Const):
        v = e.value
        if isinstance(v, Fraction):
            return f"({v.numerator}/{v.denominator})" if v.denominator != 1 else f"({v.numerator})"
        return f"({v!r})"
    if isinstance(e, Var):
        if not depth:
            return f"_v_{e.axis}{e.index}"
        if e.index == 1:
            return f"_a{depth}" if e.axis == "x" else "0.0"
        raise EvalDomainError(f"coordinate {e.name} out of range for point of dimension 1")
    if isinstance(e, Param):
        return f"_p[{e.name!r}]"
    if isinstance(e, Neg):
        return f"(-{_py_src(e.child, ctx, depth)})"
    if isinstance(e, Add):
        return "(" + "+".join(_py_src(c, ctx, depth) for c in e.children) + ")"
    if isinstance(e, Mul):
        return "(" + "*".join(_py_src(c, ctx, depth) for c in e.children) + ")"
    if isinstance(e, Div):
        return f"({_py_src(e.num, ctx, depth)}/{_py_src(e.den, ctx, depth)})"
    if isinstance(e, Pow):
        r = e.exponent
        if r.denominator == 1:
            return f"({_py_src(e.base, ctx, depth)}**({int(r)}))"
        return f"_fpow({_py_src(e.base, ctx, depth)}, {float(r)!r})"
    if isinstance(e, Call):
        fn = {"sin": "_sin", "cos": "_cos", "exp": "math.exp",
              "ln": "_ln", "sqrt": "_sqrt"}[e.fname]
        return f"{fn}({_py_src(e.arg, ctx, depth)})"
    if isinstance(e, FuncApp):
        body = ctx.func_derivative(e.fname, e.order)
        if body is None:
            raise UnboundParameterError(
                f"opaque function {e.fname!r} needs a bound body to compile")
        # the body's value must be finite, as evaluate's is
        inner = _py_src(simplify(body), ctx, depth + 1)
        return f"_fin((_a{depth + 1} := {_py_src(e.arg, ctx, depth)}, {inner})[1])"
    raise TypeError(f"cannot compile {e!r}")


def _fpow(b: float, r: float) -> float:
    if b < 0.0:
        raise EvalDomainError("fractional power of a negative base")
    return math.pow(b, r)


def _sin(v: float) -> float:
    if math.isinf(v):
        raise EvalDomainError("domain error in sin")
    return math.sin(v)


def _cos(v: float) -> float:
    if math.isinf(v):
        raise EvalDomainError("domain error in cos")
    return math.cos(v)


def _ln(v: float) -> float:
    if v <= 0.0:
        raise EvalDomainError("ln of a nonpositive value")
    return math.log(v)


def _sqrt(v: float) -> float:
    if v < 0.0:
        raise EvalDomainError("sqrt of a negative value")
    return math.sqrt(v)


def _fin(v: float) -> float:
    if not math.isfinite(v):
        raise EvalDomainError("non-finite value in compiled evaluation")
    return v


def _exec_def(lines: list[str], **names) -> dict:
    """The namespace of the generated definitions, once run; inf and nan name
    the non-finite constants that _py_src prints with repr."""
    ns = {"math": math, "inf": math.inf, "nan": math.nan,
          "_fpow": _fpow, "_sin": _sin, "_cos": _cos, "_ln": _ln, "_sqrt": _sqrt,
          "_fin": _fin, **names}
    exec("\n".join(lines), ns)
    return ns


def _def_lines(name: str, srcs: Sequence[str], n: int) -> list[str]:
    """def name(_z, _p) giving the tuple of srcs at a state of dimension n."""
    return ([f"def {name}(_z, _p):"]
            + [f"    _v_x{i} = _z[{i - 1}]" for i in range(1, n + 1)]
            + [f"    _v_y{a} = _z[{n + a - 1}]" for a in range(1, n + 1)]
            + [f"    return ({''.join(s + ', ' for s in srcs)})"])


def _checked(raw: Callable) -> Callable[[np.ndarray, Mapping[str, float] | None], tuple]:
    """raw(z, params), its float errors raised as EvalDomainError and its
    values checked finite."""

    def call(z: np.ndarray, params: Mapping[str, float] | None = None) -> tuple:
        try:
            out = raw(z, params or {})
        except ZeroDivisionError as exc:
            raise EvalDomainError("division by zero") from exc
        except OverflowError as exc:
            raise EvalDomainError("overflow") from exc
        except ValueError as exc:
            raise EvalDomainError(str(exc)) from exc
        except KeyError as exc:
            raise UnboundParameterError(f"parameter {exc.args[0]!r} has no bound value") from exc
        for v in out:
            _fin(v)
        return out

    return call


def compile_exprs(exprs: Sequence[Expr], ctx: Context) -> Callable[[np.ndarray, Mapping[str, float]], tuple]:
    """Compile expressions into one fast callable (state_array, params) -> tuple.
    Raised float errors become EvalDomainError and a non-finite value is
    refused.  Bound function bodies are inlined; applying a function without
    one raises UnboundParameterError here."""
    srcs = [_py_src(simplify(e), ctx, 0) for e in exprs]
    return _checked(_exec_def(_def_lines("_compiled", srcs, ctx.dim))["_compiled"])


def compile_rk4_step(G: Sequence[Expr], loci: Sequence[Expr], ctx: Context,
                     dt: float) -> tuple[Callable, Callable, Callable]:
    """One classic RK4 step of z' = (y, -2G(z)) on a tuple of floats, and the
    array field and locus values of the array step and rk45, as one
    generated module: (step, field, locus_values).

    step(z, params) returns (z_next, locus values at z_next).  The four
    stages k = (y, -2.0*G), the stage states z + (0.5*dt)*k and z + dt*k3 and
    the update z + (dt/6.0)*(((k1 + 2.0*k2) + 2.0*k3) + k4) are done in the
    order numpy does them elementwise, so z_next is bit for bit the array
    step's.  Parameters enter exactly as given (Fractions stay exact).

    It returns None when plain floats cannot finish the step: where numpy
    scalars give inf or nan, floats raise (division by zero, overflow, a math
    domain error), and the caller must redo the step on arrays to get the
    array step's outcome.  Every stage value enters z_next with a positive
    weight, so a non-finite G at any stage leaves z_next non-finite; that
    one check, and one on the locus values, stand in for the per-stage
    checks of field and also return None.  field(z, params), the array z',
    and locus_values(z, params) raise as compile_exprs does.
    """
    n = ctx.dim
    g_src = [_py_src(simplify(e), ctx, 0) for e in G]
    l_src = [_py_src(simplify(e), ctx, 0) for e in loci]
    state = ([f"_v_x{i}" for i in range(1, n + 1)]
             + [f"_v_y{a}" for a in range(1, n + 1)])
    base = [f"_s{j}" for j in range(2 * n)]
    body = [f"{', '.join(base)}, = _z", f"{', '.join(state)}, = _z"]
    for s in range(1, 5):
        if s > 1:
            h = "_dt" if s == 4 else "_h"
            body += [f"{v} = {b} + {h}*_k{s - 1}_{j}"
                     for j, (v, b) in enumerate(zip(state, base))]
        body += [f"_k{s}_{j} = {state[n + j]}" for j in range(n)]
        body += [f"_k{s}_{n + a} = -2.0*{src}" for a, src in enumerate(g_src)]
    body += [f"{v} = {b} + _d6*(((_k1_{j} + 2.0*_k2_{j}) + 2.0*_k3_{j}) + _k4_{j})"
             for j, (v, b) in enumerate(zip(state, base))]
    # a non-finite term makes the sum non-finite; a sum that merely
    # overflows only sends the step to the array path
    body.append(f"if not _isfinite({' + '.join(state)}): return None")
    locs = [f"_l{j}" for j in range(len(loci))]
    body += [f"{v} = {src}" for v, src in zip(locs, l_src)]
    if locs:
        body.append(f"if not _isfinite({' + '.join(locs)}): return None")
    body.append(f"return ({', '.join(state)},), ({''.join(v + ',' for v in locs)})")
    lines = (["def _step(_z, _p):", "    try:"]
             + [f"        {line}" for line in body]
             + ["    except (ArithmeticError, ValueError, LookupError, EvalDomainError):",
                "        return None"]
             + _def_lines("_g", g_src, n) + _def_lines("_loci", l_src, n))
    ns = _exec_def(lines, _h=0.5 * dt, _dt=dt, _d6=dt / 6.0, _isfinite=math.isfinite,
                   EvalDomainError=EvalDomainError)
    g = _checked(ns["_g"])

    def field(z: np.ndarray, params: Mapping) -> np.ndarray:
        out = np.empty(2 * n)
        out[:n] = z[n:]
        out[n:] = [-2.0 * gi for gi in g(z, params)]
        return out

    return ns["_step"], field, _checked(ns["_loci"])


# ---------------------------------------------------------------------------
# compiled evaluation: evaluate's semantics as straight-line Python


def _out_of_range(name: str, p: Point):
    raise EvalDomainError(f"coordinate {name} out of range for point of dimension {p.n}")


def _first_non_finite(values: tuple, msgs: tuple) -> None:
    for v, msg in zip(values, msgs):
        if not math.isfinite(v):
            raise EvalDomainError(msg)


_EVAL_NAMES = {
    "_E": EvalDomainError, "_rp": _resolve_param, "_fv": formal_value,
    "_oor": _out_of_range, "_first_non_finite": _first_non_finite,
    "_fsum": math.fsum, "_isf": math.isfinite, "_pow": math.pow,
    "sin": math.sin, "cos": math.cos, "exp": math.exp, "ln": math.log, "sqrt": math.sqrt,
}
# the guard evaluate puts on a builtin's argument
_CALL_GUARDS = {"ln": ("<=", "ln of a nonpositive value"),
                "sqrt": ("<", "sqrt of a negative value")}


class _EvalEmitter:
    """Writes the body of a function (_pt) that computes what
    evaluate(e, _pt, ctx) computes, value for value and error for error.

    Each distinct node (and guard) gets one statement, where evaluate first
    computes it: a node's value depends only on the point, so only its first
    occurrence can raise.  A bound function body is inlined in a frame where
    x1 is the argument's value and y1 is 0.0.  Compiling costs more than
    running at the tens of points a sampling loop takes, if statements most,
    so the finiteness checks of statements that cannot raise wait for the
    next one that can and are made as one test of their sum (finite only if
    every float term is), and a product leaves out evaluate's leading 1.0.
    """

    def __init__(self, ctx: Context | None):
        self.ctx = ctx
        self.lines: list[str] = []
        self.names: dict = {"_ctx": ctx}
        self.seen: dict = {}
        self.guards: set = set()
        self.pending: list[tuple[str, str]] = []

    def bind(self, value) -> str:
        name = f"_c{len(self.names)}"
        self.names[name] = value
        return name

    def emit(self, *lines: str, raises: bool = True) -> None:
        if raises and self.pending:
            ts = [t for t, _ in self.pending]
            msgs = self.bind(tuple(f"{what} produced a non-finite value"
                                   for _, what in self.pending))
            self.lines.append(f"if not _isf({' + '.join(ts)}): "
                              f"_first_non_finite(({', '.join(ts)},), {msgs})")
            self.pending.clear()
        self.lines += lines

    def new(self, src: str, raises: bool = True, check: str = "",
            exc: str = "", msg: str = "") -> str:
        """A temporary set to src; with exc, one whose error becomes msg's."""
        t = f"t{len(self.lines)}"
        if exc:
            self.emit(f"try: {t} = {src}", f"except {exc} as e: {self.raise_(msg)} from e")
        else:
            self.emit(f"{t} = {src}", raises=raises)
        if check:
            self.pending.append((t, check))
        return t

    def raise_(self, msg: str) -> str:
        return f"raise _E({self.bind(msg)})"

    def guard(self, v: str, op: str, msg: str) -> None:
        if (v, op) not in self.guards:
            self.guards.add((v, op))
            self.emit(f"if {v} {op} 0.0: {self.raise_(msg)}")

    def operand(self, e: Expr, frame: str | None = None) -> str:
        key = (None if isinstance(e, (Const, Param)) else frame, e)
        if key not in self.seen:
            self.seen[key] = self._node(e, frame)
        return self.seen[key]

    def _node(self, e: Expr, frame: str | None) -> str:
        if isinstance(e, Const):
            try:
                v = float(e.value)
            except OverflowError:
                self.emit(self.raise_("constant out of double range"))
                return "None"   # never runs
            return f"({v!r})" if math.isfinite(v) else self.bind(v)
        if isinstance(e, Var):
            if frame is None:
                self.emit(f"{e.name} = _{e.axis}[{e.index - 1}] if {e.index} <= _n "
                          f"else _oor({e.name!r}, _pt)")
                return e.name
            if e.index == 1:
                return frame if e.axis == "x" else "0.0"
            self.emit(self.raise_(f"coordinate {e.name} out of range for point of dimension 1"))
            return "None"   # never runs
        if isinstance(e, Param):
            return self.new(f"_rp({e.name!r}, _pt, _ctx)")
        if isinstance(e, Neg):
            return f"(-{self.operand(e.child, frame)})"
        if isinstance(e, Add):
            terms = ", ".join(self.operand(c, frame) for c in e.children)
            return self.new(f"_fsum(({terms},))", check="sum")
        if isinstance(e, Mul):
            factors = " * ".join(self.operand(c, frame) for c in e.children)
            return self.new(factors, raises=False, check="product")
        if isinstance(e, Div):
            den = self.operand(e.den, frame)
            self.guard(den, "==", "division by zero")
            return self.new(f"{self.operand(e.num, frame)} / {den}", raises=False,
                            check="quotient")
        if isinstance(e, Pow):
            b, r = self.operand(e.base, frame), e.exponent
            if r.denominator == 1:
                if r < 0:
                    self.guard(b, "==", "zero raised to a negative power")
                return self.new(f"{b} ** {int(r)}", check="power", exc="OverflowError",
                                msg="overflow in power")
            self.guard(b, "<", "fractional power of a negative base")
            if r < 0:
                self.guard(b, "==", "zero raised to a negative power")
            return self.new(f"_pow({b}, {float(r)!r})", check="power",
                            exc="(ValueError, OverflowError)", msg="domain error in power")
        if isinstance(e, Call):
            a = self.operand(e.arg, frame)
            if e.fname in _CALL_GUARDS:
                self.guard(a, *_CALL_GUARDS[e.fname])
            if e.fname in ("sin", "cos"):   # of an infinity
                return self.new(f"{e.fname}({a})", exc="ValueError",
                                msg=f"domain error in {e.fname}")
            return self.new(f"{e.fname}({a})", check="exp" if e.fname == "exp" else "",
                            exc="OverflowError", msg=f"overflow in {e.fname}")
        if isinstance(e, FuncApp):
            a = self.operand(e.arg, frame)
            try:
                body = self.ctx and self.ctx.func_derivative(e.fname, e.order)
            except Exception:  # noqa: BLE001 -- the generated code raises it again, here
                self.emit(f"_ctx.func_derivative({e.fname!r}, {e.order})")
                return "None"
            if body is not None:
                return self.operand(body, a)
            return self.new(f"_fv({e.fname!r}, {e.order}, {a})", raises=False)
        raise TypeError(f"cannot evaluate {e!r}")


def _compiled_evaluation(exprs: Sequence[Expr], ctx: Context | None,
                         magnitude: bool) -> Callable:
    exprs = tuple(exprs)
    key = (exprs, context_key(ctx), magnitude)
    if key not in _EVALUATION_MEMO:
        em = _EvalEmitter(ctx)
        outs = []
        for e in exprs:
            if magnitude and isinstance(e, Add):
                # as evaluate_with_magnitude: no finiteness check on this sum
                terms = ", ".join(em.operand(c) for c in e.children)
                outs.append(f"({em.new(f'_fsum(({terms},))')}, "
                            f"{em.new(f'_fsum(map(abs, ({terms},)))')})")
            elif magnitude:
                outs.append(f"({em.operand(e)}, abs({em.operand(e)}))")
            else:
                outs.append(em.operand(e))
        em.emit(f"return ({''.join(f'{s}, ' for s in outs)})")
        lines = ["def _evaluation(_pt):", " _x, _y, _n = _pt.x, _pt.y, len(_pt.x)",
                 *(f" {line}" for line in em.lines)]
        fn = _exec_def(lines, **_EVAL_NAMES, **em.names)["_evaluation"]
        _EVALUATION_MEMO[key] = (ctx, fn)
    return _EVALUATION_MEMO[key][1]


def compile_evaluate(exprs: Sequence[Expr], ctx: Context | None) -> Callable[[Point], tuple]:
    """One function (p) -> tuple of what evaluate(e, p, ctx) gives for each
    e, bit for bit, or the first error it raises.  Memoised until
    clear_caches(); evaluate is the reference it is tested on.
    """
    return _compiled_evaluation(exprs, ctx, False)


def compile_evaluate_with_magnitude(exprs: Sequence[Expr],
                                    ctx: Context | None) -> Callable[[Point], tuple]:
    """compile_evaluate with evaluate_with_magnitude's (value, magnitude)."""
    return _compiled_evaluation(exprs, ctx, True)
