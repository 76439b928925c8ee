"""Symbolic expression kernel.

Everything downstream (frames, curvature, brackets, residuals) is built from
the small expression language implemented here: exact (int where integral,
else Fraction) and floating constants, tangent-bundle coordinates x1..xn /
y1..yn, scalar parameters, opaque unary functions with formal derivatives
(f, f', f''), the unary functions sin / cos / exp / ln / sqrt, and +, -, *,
/, ^ with rational exponents.

The design is deliberately closer to a normal-form calculator than to a full
CAS.  ``simplify`` rewrites any tree into a canonical sum of terms, where each
term is an exact (int where integral, else Fraction) or float coefficient
times a product of atomic bases raised to exact exponents.  Products and
integer powers of sums are expanded, structurally equal bases have their
exponents combined (so f/f cancels), and sums appearing under a negative or
fractional power are kept as atomic bases after content normalization.  Trigonometric and log identities
are out of scope on purpose; what the canonical form cannot settle is handed
to the numeric sampler behind the tri-state ``is_zero``.

Every tree is built in one dialect, the one canonical trees use: ``Neg`` and
``Div`` are builders, so the parser and ``Expr``'s operators read -a as
(-1)*a and a/b as a*b^-1, and no node class stands for either.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import math
import operator
import re
import string
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import EvalDomainError, ParseError, UnboundParameterError, ValidationError

__all__ = [
    "Expr", "Const", "Var", "Param", "Call", "FuncApp", "Neg", "Add", "Mul", "Div", "Pow",
    "Tri", "Context", "Point", "SampleConfig", "coordinates",
    "parse", "simplify", "diff", "evaluate", "is_zero", "format_expr",
    "as_expr", "sum_exprs", "tri_all", "sample_points", "clear_caches",
    "compile_exprs", "compile_rk4_step", "evaluate_points",
    "evaluate_points_with_magnitude", "formal_value", "opaque_assignments",
]

# The one table of the builtin functions, by name.  evaluate, the constant
# folder, the generated code and the columnar pass all call these; evaluate
# alone adds guards and messages (ln at or below 0, sqrt below 0, a finite
# exp).  Where math raises instead (ValueError, OverflowError), the fast
# paths leave the value to evaluate.
_MATH = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "ln": math.log, "sqrt": math.sqrt}
BUILTIN_FUNCTIONS = tuple(_MATH)

# Most bits in the numerator or denominator of an exact constant: below the
# 4300 decimal digits past which Python refuses to print an int.
MAX_EXACT_BITS = 14_000
# Deepest nesting of an expression: a parenthesis, a function argument, a
# unary minus and each further operand of a product or quotient go one level
# down, and an applied function body counts as deep as its tree, where a
# quotient's denominator is one level below the quotient.  Far above
# what a problem needs; at this depth simplify, diff and both compilers stay
# inside Python's recursion and parenthesis limits.
MAX_NESTING = 50
# Most term pairs one product of normal forms may form: a product of sums
# expands term by term, at about 10 microseconds a pair.  Above the 495 x 495
# pairs of the largest squaring in (x1 + x2 + y1 + y2 + 1)^16.
MAX_TERMS = 300_000

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
    """Expression node, immutable by convention: each slot is set once in
    __init__, and subclasses set _key there.

    Equality and hashing are structural (on _key), and the memo of _nf,
    simplify and diff keys on them.  The normal-form dicts that _nf memoises
    are shared by every caller and must never be mutated.
    """

    __slots__ = ("_key", "_hash")

    def _set_key(self, key: tuple) -> None:
        self._key = key
        self._hash = hash(key)

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
        return Pow(self, r)


# The exact number types.  A tree, like a normal form, holds an exact value
# as an int where it is integral and a Fraction otherwise (_exact); every
# exactness test reads "not a float".
_EXACT_TYPES = (int, Fraction)


def _exact(q):
    """An exact value as an int where it is integral."""
    return q if type(q) is int or q.denominator != 1 else q.numerator


class Const(Expr):
    """A literal: exact (int where integral, else Fraction) or a float."""

    __slots__ = ("value",)

    def __init__(self, value):
        if isinstance(value, float):
            self._set_key(("const", "f", repr(value)))
        elif isinstance(value, _EXACT_TYPES):
            value = _exact(value)
            num, den = value.numerator, value.denominator
            if num.bit_length() > MAX_EXACT_BITS or den.bit_length() > MAX_EXACT_BITS:
                raise EvalDomainError("exact constant too large")
            self._set_key(("const", "q", num, den))
        else:
            raise TypeError(f"bad constant {value!r}")
        self.value = value

    def sortkey(self) -> tuple:
        tag = 1 if isinstance(self.value, float) else 0
        try:
            v = float(self.value)
        except OverflowError:   # a rational past the double range sorts as +-inf
            v = math.inf if self.value > 0 else -math.inf
        return (0, v, tag, str(self.value))


def _exact_pow(c, k: int):
    """c**k for an exact c, exact, refused before it is built when it must
    pass MAX_EXACT_BITS.  An int to a negative power goes through Fraction,
    since 2 ** -1 is 0.5."""
    bits = max(c.numerator.bit_length(), c.denominator.bit_length())
    if (bits - 1) * abs(k) >= MAX_EXACT_BITS:
        raise EvalDomainError("exact constant too large")
    return _exact(Fraction(c) ** k if k < 0 else c ** k)


ZERO = Const(0)
ONE = Const(1)
_MINUS_ONE = Const(-1)


class Var(Expr):
    """A coordinate: axis 'x' (base) or 'y' (fiber), 1-based index."""

    __slots__ = ("axis", "index")

    def __init__(self, axis: str, index: int):
        if axis not in ("x", "y") or index < 1:
            raise ValueError(f"bad coordinate {axis}{index}")
        self.axis = axis
        self.index = index
        self._set_key(("var", axis, index))

    @property
    def name(self) -> str:
        return f"{self.axis}{self.index}"

    def sortkey(self) -> tuple:
        return (1, 0 if self.axis == "x" else 1, self.index)


@functools.cache
def coordinates(n: int) -> tuple[Var, ...]:
    """x1..xn, then y1..yn: built once per dimension and shared."""
    return tuple(Var(axis, i) for axis in "xy" for i in range(1, n + 1))


class Param(Expr):
    """Declared scalar parameter, referenced by name."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name
        self._set_key(("param", name))

    def sortkey(self) -> tuple:
        return (2, self.name)


class Call(Expr):
    """Builtin unary function application."""

    __slots__ = ("fname", "arg")

    def __init__(self, fname: str, arg: Expr):
        if fname not in BUILTIN_FUNCTIONS:
            raise ValueError(f"unsupported function {fname!r}")
        self.fname = fname
        self.arg = arg
        self._set_key(("call", fname, arg._key))

    def sortkey(self) -> tuple:
        return (3, self.fname, self.arg.sortkey())


class FuncApp(Expr):
    """Opaque function application f(arg); order counts formal primes."""

    __slots__ = ("fname", "order", "arg")

    def __init__(self, fname: str, order: int, arg: Expr):
        self.fname = fname
        self.order = order
        self.arg = arg
        self._set_key(("funcapp", fname, order, arg._key))

    def sortkey(self) -> tuple:
        return (4, self.fname, self.order, self.arg.sortkey())


class Pow(Expr):
    """base raised to an exact exponent (int where integral, else Fraction)."""

    __slots__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent):
        if not isinstance(exponent, _EXACT_TYPES):
            raise TypeError("exponent must be an int or Fraction")
        self.base = base
        self.exponent = exponent = _exact(exponent)
        self._set_key(("pow", base._key, exponent.numerator, exponent.denominator))

    def sortkey(self) -> tuple:
        return (5, self.base.sortkey(), float(self.exponent))


class Add(Expr):
    """n-ary sum; canonical forms keep terms sorted and flattened."""

    __slots__ = ("children",)

    def __init__(self, children: Sequence[Expr]):
        children = tuple(children)
        if len(children) < 2:
            raise ValueError("Add needs at least two children")
        self.children = children
        self._set_key(("add", *[c._key for c in children]))

    def sortkey(self) -> tuple:
        return (7, tuple(c.sortkey() for c in self.children))


class Mul(Expr):
    """n-ary product; canonical forms put an optional constant first."""

    __slots__ = ("children",)

    def __init__(self, children: Sequence[Expr]):
        children = tuple(children)
        if len(children) < 2:
            raise ValueError("Mul needs at least two children")
        self.children = children
        self._set_key(("mul", *[c._key for c in children]))

    def sortkey(self) -> tuple:
        return (8, tuple(c.sortkey() for c in self.children))


def Neg(e: Expr) -> Expr:
    """-e, built as (-1)*e: no tree holds a negation node."""
    return Mul((_MINUS_ONE, e))


def Div(a: Expr, b: Expr) -> Expr:
    """a/b, built as a*b^-1: no tree holds a quotient node."""
    return Mul((a, Pow(b, -1)))


def as_expr(v) -> Expr:
    """v itself if it is a tree, else the Const of the number v."""
    return v if isinstance(v, Expr) else Const(v)


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
    """An opaque unary function. body, unless None, is an Expr in x1 alone."""

    name: str
    body: Expr | None
    # the depth of body's tree (see _nesting), set by Context.declare_function
    nesting: int = field(init=False, default=0)


def _check_name(name: str) -> None:
    """Refuse a parameter or function name that the parser reads as a
    coordinate or a builtin, where no tree could hold it."""
    if _COORD_RE.match(name) or name in BUILTIN_FUNCTIONS:
        raise ValidationError(f"parameter name {name!r} is reserved")


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
        for name in [*self.params, *self.funcs]:
            _check_name(name)

    def declare_function(self, name: str, body: Expr | None = None) -> None:
        _check_name(name)
        decl = FunctionDecl(name, body)
        if body is not None:
            decl.nesting = _nesting(body, self)
        self.funcs[name] = decl

    def func_derivative(self, name: str, order: int) -> Expr | None:
        """order-th derivative of a bound function body as a canonical tree
        (the body's simplify at order 0), or None if unbound; memoised."""
        decl = self.funcs.get(name)
        if decl is None or decl.body is None:
            return None
        e = decl.body
        for _ in range(order):
            e = diff(e, coordinates(1)[0])
        return e if order else simplify(e)


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

# One scan per text: whitespace, a number, an identifier, an operator, or any
# other single character, which the scan refuses.  Every character falls in
# one match, so the offsets add up the lengths.
_SCAN_RE = re.compile(r"\s+|[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?"
                      r"|[A-Za-z_][A-Za-z0-9_]*'*|[-+*/^()]|.", re.S)
# A token's kind, told by its first character.
_KIND = {**dict.fromkeys(string.digits, "num"), **dict.fromkeys("+-*/^()", "op"),
         **dict.fromkeys(string.ascii_letters + "_", "ident")}


def _scan(text: str) -> list[tuple[str, str, int]]:
    """The (kind, text, offset) tokens of text, kind num, ident or op, then an
    ("end", "", len(text)) sentinel."""
    toks, pos = [], 0
    for s in _SCAN_RE.findall(text):
        kind = _KIND.get(s[0])
        if kind is not None:
            toks.append((kind, s, pos))
        elif not s.isspace():
            raise ParseError(f"unexpected character {s!r}", position=pos)
        pos += len(s)
    toks.append(("end", "", pos))
    return toks


def _nesting(e: Expr, ctx: Context) -> int:
    """The depth of e's tree, an applied body counted beside its argument as
    compile_exprs inlines it; walked without recursion."""
    deepest, todo = 0, [(e, 1)]
    while todo:
        node, d = todo.pop()
        deepest = max(deepest, d)
        if isinstance(node, FuncApp) and node.fname in ctx.funcs:
            deepest = max(deepest, d + ctx.funcs[node.fname].nesting)
        kids = (node.children if isinstance(node, (Add, Mul))
                else (node.base,) if isinstance(node, Pow)
                else (node.arg,) if isinstance(node, (Call, FuncApp)) else ())
        todo += [(k, d + 1) for k in kids]
    return deepest


class _Parser:
    """Recursive-descent parser for the expression grammar.

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := base ("^" signed_rational)?
    base   := number | ident | ident "(" expr ")" | "(" expr ")" | "-" factor

    "^" binds tighter than unary minus.  The exponent is lexed with maximal
    munch, so y1^1/2 is y1^(1/2); divide by a parenthesized 2 to get the
    other reading.

    It reads _scan's tokens by index.  An operator is told by its text alone,
    which no other token shares.  A token read past is never the end
    sentinel unless a ParseError follows at once, so the index stays inside
    the list wherever it is read.
    """

    def __init__(self, text: str, ctx: Context):
        self.ctx = ctx
        self.toks = _scan(text)
        self.i = 0
        self.depth = 0

    def next(self) -> tuple[str, str, int]:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect_op(self, op: str) -> None:
        _, text, pos = self.next()
        if text != op:
            raise ParseError(f"expected {op!r}, found {text!r}", position=pos)

    def parse(self) -> Expr:
        e = self.expr()
        kind, text, pos = self.toks[self.i]
        if kind != "end":
            raise ParseError(f"unexpected trailing input {text!r}", position=pos)
        return e

    def expr(self) -> Expr:
        terms = [self.term()]
        while (op := self.toks[self.i][1]) in ("+", "-"):
            self.i += 1
            t = self.term()
            terms.append(t if op == "+" else Neg(t))
        return terms[0] if len(terms) == 1 else Add(tuple(terms))

    def term(self) -> Expr:
        e = self.factor()
        depth = self.depth
        while (op := self.toks[self.i][1]) in ("*", "/"):
            self.i += 1
            self.depth += 1   # the chain nests to the left
            rhs = self.factor()
            e = Mul((e, rhs)) if op == "*" else Div(e, rhs)
        self.depth = depth
        return e

    def check_depth(self, depth: int) -> None:
        if depth > MAX_NESTING:
            raise ParseError(f"expression nested deeper than {MAX_NESTING} levels",
                             position=self.toks[self.i][2])

    def factor(self) -> Expr:
        self.depth += 1
        self.check_depth(self.depth)
        e = self.base()
        if self.toks[self.i][1] == "^":
            self.i += 1
            e = Pow(e, self.signed_rational())
        self.depth -= 1
        return e

    def signed_rational(self) -> Fraction:
        sign = 1
        if self.toks[self.i][1] == "-":
            self.i += 1
            sign = -1
        kind, num, pos = self.next()
        if kind != "num" or not num.isdigit():
            raise ParseError("exponent must be an integer or rational", position=pos)
        den = "1"
        if self.toks[self.i][1] == "/":
            kind, text, _ = self.toks[self.i + 1]
            if kind == "num" and text.isdigit():
                self.i += 2
                den = text
        try:
            return Fraction(sign * int(num), int(den))
        except ZeroDivisionError:
            raise ParseError("zero denominator in exponent", position=pos) from None
        except ValueError:   # past Python's int conversion limit
            raise ParseError("exponent has too many digits", position=pos) from None

    def base(self) -> Expr:
        kind, text, pos = self.next()
        if kind == "num":
            value = float(text)
            if not math.isfinite(value):
                raise ParseError(f"numeric literal {text!r} does not fit in a double",
                                 position=pos)
            return Const(int(text) if text.isdigit() else value)
        if kind == "ident":
            return self.ident(text, pos)
        if text == "-":
            return Neg(self.factor())
        if text == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ParseError(f"unexpected token {text!r}", position=pos)

    def ident(self, text: str, pos: int) -> Expr:
        name = text.rstrip("'")
        order = len(text) - len(name)
        m = _COORD_RE.match(name)
        if m:
            if order:
                raise ParseError(f"cannot take a prime of coordinate {name!r}", position=pos)
            axis, idx, n = m.group(1), int(m.group(2)), self.ctx.dim
            if idx > n:
                raise ParseError(f"coordinate {name!r} out of range for dimension {n}",
                                 position=pos)
            return coordinates(n)[idx - 1 if axis == "x" else n + idx - 1]
        if name in BUILTIN_FUNCTIONS:
            if order:
                raise ParseError(f"primes are not allowed on {name!r}", position=pos)
            self.expect_op("(")
            arg = self.expr()
            self.expect_op(")")
            return Call(name, arg)
        if name in self.ctx.funcs:
            # the body is inlined beside the argument
            self.check_depth(self.depth + self.ctx.funcs[name].nesting)
            self.expect_op("(")
            arg = self.expr()
            self.expect_op(")")
            return FuncApp(name, order, arg)
        if name in self.ctx.params:
            if order:
                raise ParseError(f"cannot take a prime of scalar parameter {name!r}", position=pos)
            return Param(name)
        raise ParseError(f"unknown identifier {name!r}", position=pos)


def parse(text: str, ctx: Context) -> Expr:
    """Parse DSL text into a raw expression tree (not yet canonical): one
    scan of the text into tokens, then one descent over them."""
    return _Parser(text, ctx).parse()


# ---------------------------------------------------------------------------
# canonical simplification
#
# Normal form: dict mapping a monomial (sorted tuple of (base, exponent)
# pairs) to a coefficient.  Coefficients are exact unless a float has
# contaminated the term; "exact" means "not a float" (a numpy float64 is a
# float).  An exponent or exact coefficient is exact (int where integral,
# else Fraction), as a Const's value and a Pow's exponent are: equal ints and
# Fractions compare, hash and print alike, and int arithmetic runs in C.
# Bases are canonical Exprs: Var, Param, Call, FuncApp, Const (for things
# like 2^(1/2)), or a canonical Add/Mul/Pow kept atomic because expanding it
# is unsound or unhelpful.

_Mono = tuple  # tuple[tuple[Expr, int | Fraction], ...]
_NF = dict     # dict[_Mono, int | Fraction | float]

_EXPAND_CAP = 16


def _past_range(op, a, b) -> float:
    """op(a, b), operator.add or mul, for a float and an exact value past the
    double range.  A non-finite float takes it as it takes any finite value
    of its sign; otherwise the two combine exactly and convert once, to
    +-inf past the range, as in _cpow."""
    f, q = (a, b) if isinstance(a, float) else (b, a)
    if not math.isfinite(f):
        return f if op is operator.add else f * (1.0 if q > 0 else -1.0)
    exact = op(Fraction(f), q)
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


def _cmul(a, b):
    if isinstance(a, float) or isinstance(b, float):
        try:
            return float(a) * float(b)
        except OverflowError:   # an exact operand past the double range
            return _past_range(operator.mul, a, b)
    return _exact(a * b)


def _cadd(a, b):
    if isinstance(a, float) or isinstance(b, float):
        try:
            return float(a) + float(b)
        except OverflowError:   # an exact operand past the double range
            return _past_range(operator.add, a, b)
    return _exact(a + b)


def _cpow(c, k):
    """c**k for an exact c and an int k, or a float c and an exponent k that
    is whole or has c > 0; a float overflows to +-inf, as a float product does."""
    if not isinstance(c, float):
        return _exact_pow(c, k)
    try:
        return float(c) ** float(k)
    except OverflowError:
        return -math.inf if c < 0 and k % 2 else math.inf


def _cinv(a):
    if isinstance(a, float):
        return 1.0 / a
    return _exact(Fraction(a.denominator, a.numerator))


def _term(mono: _Mono, coeff) -> _NF:
    """The normal form coeff*mono; a power that underflowed to 0.0 leaves
    no term, as _acc drops a zero sum."""
    return {mono: coeff} if coeff != 0 else {}


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


def _frac_pow_exact(c, r):
    """c**r for exact c and r, exact, or None when no exact value exists."""
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
    return _frac_pow_exact(Fraction(sign * rn, rd), r.numerator)


def _normalize_pairs(pairs: dict, coeff):
    """Fold constant bases into the coefficient, drop zero exponents, sort."""
    kept = []
    for base, exp in pairs.items():
        if exp == 0:
            continue
        if type(exp) is not int and exp.denominator == 1:
            exp = exp.numerator
        if isinstance(base, Const):
            v = base.value
            if not isinstance(v, float):
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
    """c*nf without the products that underflowed to 0.0, as _term drops them."""
    if c == 0:
        return {}
    return {m: p for m, v in nf.items() if (p := _cmul(v, c)) != 0}


def _nf_add(a: _NF, b: _NF) -> _NF:
    out = dict(a)
    for m, c in b.items():
        _acc(out, m, c)
    return out


def _nf_mul(a: _NF, b: _NF) -> _NF:
    # a constant factor, as in (-1)*e, scales: the same dict as the loop's
    if len(a) == 1 and () in a:
        return _nf_scale(b, a[()])
    if len(b) == 1 and () in b:
        return _nf_scale(a, b[()])
    if len(a) * len(b) > MAX_TERMS:
        raise ValidationError(
            f"a product of {len(a)} by {len(b)} terms exceeds the bound "
            f"MAX_TERMS = {MAX_TERMS} term pairs")
    out: _NF = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m, c = _mono_mul(m1, m2, _cmul(c1, c2))
            _acc(out, m, c)
    return out


def _mono_sortkey(m: _Mono) -> tuple:
    return tuple((base.sortkey(), (exp.numerator, exp.denominator)) for base, exp in m)


def _content_split(nf: _NF):
    """Split off the leading coefficient so the remaining sum leads with 1.
    Where the inverse of that coefficient overflows (a subnormal lead) or is
    0.0 (an infinite one), the sum stays as it is, with content 1."""
    lead = min(nf, key=_mono_sortkey)
    c = nf[lead]
    inv = _cinv(c)
    if isinstance(inv, float) and not 0.0 < abs(inv) < math.inf:
        return 1, nf
    return c, _nf_scale(nf, inv)


def _nf_invert(nf: _NF) -> _NF:
    if len(nf) == 1:
        (mono, c), = nf.items()
        pairs = {base: -exp for base, exp in mono}
        m, cc = _normalize_pairs(pairs, _cinv(c))
        return {m: cc}
    c, unit = _content_split(nf)
    base = _emit(unit)
    return {((base, -1),): _cinv(c)}


def _nf_pow(nf: _NF, r: int | Fraction) -> _NF:
    if r == 0:
        return {(): 1}
    if not nf:
        if r < 0:
            raise EvalDomainError("zero raised to a negative power")
        return {}
    if r.denominator == 1:
        k = int(r)
        if k < 0:
            return _nf_pow(_nf_invert(nf), -k)
        if len(nf) == 1:
            (mono, c), = nf.items()
            pairs = {base: exp * k for base, exp in mono}
            return _term(*_normalize_pairs(pairs, _cpow(c, k)))
        if k <= _EXPAND_CAP:
            out = {(): 1}
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
        return _term(((base, k),), _cpow(c, k))
    # fractional exponent
    if len(nf) == 1:
        (mono, c), = nf.items()
        if not mono:
            return _term(*_normalize_pairs({Const(c): r}, 1))
        if c < 0:
            # keep the sign inside an atomic base; splitting it is unsound
            base = _emit({mono: c})
            return {((base, r),): 1}
        # a positive constant factor splits off soundly; a lone base with
        # exponent 1 (or an already-fractional exponent, which forces the
        # base nonnegative) combines; anything else stays atomic because
        # (x^2)^(1/2) is |x|, not x
        pairs: dict = {}
        if len(mono) == 1 and (mono[0][1] == 1 or mono[0][1].denominator > 1):
            _pairs_add(pairs, mono[0][0], mono[0][1] * r)
        else:
            _pairs_add(pairs, _emit({mono: 1}), r)
        if c != 1:
            _pairs_add(pairs, Const(c), r)
        return _term(*_normalize_pairs(pairs, 1))
    c, unit = _content_split(nf)
    mag = abs(c)
    if mag != c:
        unit = _nf_scale(unit, -1.0 if isinstance(c, float) else -1)
    base = _emit(unit)
    pairs = {}
    _pairs_add(pairs, base, r)
    if mag != 1:
        _pairs_add(pairs, Const(mag), r)
    return _term(*_normalize_pairs(pairs, 1))


def _fold_call(fname: str, arg: Expr) -> Expr | None:
    if not isinstance(arg, Const):
        return None
    v = arg.value
    if not isinstance(v, float):
        table = {("sin", 0): ZERO, ("cos", 0): ONE, ("exp", 0): ONE, ("ln", 1): ZERO}
        return table.get((fname, v))
    try:
        return Const(_MATH[fname](float(v)))
    except (ValueError, OverflowError):
        return None


def _atom(base: Expr) -> _NF:
    return {((base, 1),): 1}


# Per-command memo: _nf, simplify and diff are pure functions of their
# structurally hashed inputs, so each distinct input is computed once until
# clear_caches() empties the tables; cli.main does so after every command,
# which bounds the memo by one problem file.  simplify and diff also seed
# _NF_MEMO with the normal form of their result s when every coefficient is
# exact and every base a Var or Param: then a cold _nf(s) builds the same dict,
# item for item in _emit's sorted order (the order _nf_mul adds float
# partners in), so a sum of canonical results is not normalised again.
# Other results are left to a cold build, which need not agree.
_NF_MEMO: dict[Expr, _NF] = {}
_SIMPLIFY_MEMO: dict[Expr, Expr] = {}
_DIFF_MEMO: dict[tuple[Expr, Var], Expr] = {}
# generated modules (compile_exprs, compile_rk4_step), keyed on what they
# are built from and the context; each entry holds its context, so the id in
# the key stays unique
_COMPILE_MEMO: dict[tuple, tuple] = {}
# sampler streams, keyed on all a stream depends on (_clear_draws); each
# entry is [ctx, rng, rows drawn but not yet tested, tested draws (a Point,
# or None where the loci rejected it)] and holds its context, as above
_DRAW_MEMO: dict[tuple, list] = {}


def clear_caches() -> None:
    """Forget every memoised normal form, simplification, derivative,
    generated module and sampler stream.  The coordinates tuples stay: they
    are constants."""
    _NF_MEMO.clear()
    _SIMPLIFY_MEMO.clear()
    _DIFF_MEMO.clear()
    _COMPILE_MEMO.clear()
    _DRAW_MEMO.clear()


def _memo_compile(key: tuple, ctx: Context | None, build: Callable):
    """build(), memoised under key and context_key(ctx) until clear_caches()."""
    key = (*key, context_key(ctx))
    if key not in _COMPILE_MEMO:
        _COMPILE_MEMO[key] = (ctx, build())
    return _COMPILE_MEMO[key][1]


def _nf(e: Expr) -> _NF:
    """Normal form of e, memoised: the dict is shared, so never mutate it.
    No pair is left that _distributes names; each pass makes such bases smaller.
    Only products, powers and roots of normal forms can make one."""
    nf = _NF_MEMO.get(e)
    if nf is None:
        nf = _build_nf(e)
        while (isinstance(e, (Mul, Pow, Call))
               and any(_distributes(b, r) for mono in nf for b, r in mono)):
            nf = _nf_expand_sums(nf)
        _NF_MEMO[e] = nf
    return nf


def _build_nf(e: Expr) -> _NF:
    if isinstance(e, Const):
        v = e.value
        return {} if v == 0 else {(): v}
    if isinstance(e, (Var, Param)):
        return _atom(e)
    if isinstance(e, Add):
        out: _NF = {}
        for c in e.children:
            out = _nf_add(out, _nf(c))
        return out
    if isinstance(e, Mul):
        out = {(): 1}
        for c in e.children:
            out = _nf_mul(out, _nf(c))
        return out
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


def _sorted_items(nf: _NF) -> list:
    return sorted(nf.items(), key=lambda mc: _mono_sortkey(mc[0]))


def _emit(nf: _NF) -> Expr:
    return _emit_sorted(_sorted_items(nf))


def _emit_sorted(items: list) -> Expr:
    if not items:
        return ZERO
    terms = [_emit_term(m, c) for m, c in items]
    return terms[0] if len(terms) == 1 else Add(tuple(terms))


def simplify(e: Expr) -> Expr:
    """Rewrite into the canonical form; deterministic, memoised per input.

    A projection on exact trees: simplify(simplify(e)) == simplify(e) when
    every constant is exact.  A float coefficient may still move on a
    second call, so no result is memoised as its own simplification.
    """
    s = _SIMPLIFY_MEMO.get(e)
    if s is None:
        s = _SIMPLIFY_MEMO[e] = _emit_seeded(_sorted_items(_nf(e)))
    return s


def _emit_seeded(items: list) -> Expr:
    """_emit_sorted(items), with _NF_MEMO seeded as the memo comment says."""
    s = _emit_sorted(items)
    if s not in _NF_MEMO and all(
            not isinstance(c, float) and all(isinstance(b, (Var, Param)) for b, _ in m)
            for m, c in items):
        _NF_MEMO[s] = dict(items)
    return s


# ---------------------------------------------------------------------------
# differentiation


def diff(e: Expr, v: Var) -> Expr:
    """Partial derivative with respect to a coordinate, canonicalized; memoised.
    A polynomial is differentiated on its terms, any other tree by _diff's
    product rule and a new normal form."""
    d = _DIFF_MEMO.get((e, v))
    if d is None:
        s = simplify(e)
        items = _term_derivative(s, v)
        d = _DIFF_MEMO[e, v] = simplify(_diff(s, v)) if items is None else _emit_seeded(items)
    return d


def _term_derivative(s: Expr, v: Var) -> list | None:
    """The sorted normal-form items of ds/dv for a canonical tree s whose
    every factor is a Var or a Param, or a power of one; None for any other
    tree.  Each term c*v^k*m gives (c*k)*v^(k-1)*m, and these monomials are
    distinct.  A term without v gives none, and neither does one whose
    product underflows to 0.0, as _nf_scale drops it."""
    out: _NF = {}
    for term in s.children if isinstance(s, Add) else (s,):
        factors = term.children if isinstance(term, Mul) else (term,)
        lead = isinstance(factors[0], Const)
        mono = [(f.base, f.exponent) if isinstance(f, Pow) else (f, 1)
                for f in factors[lead:]]
        if not all(isinstance(base, (Var, Param)) for base, _ in mono):
            return None
        for i, (base, k) in enumerate(mono):
            if base == v:
                c = _cmul(factors[0].value if lead else 1, k)
                if c != 0:
                    out[tuple(mono[:i] + ([(v, k - 1)] if k != 1 else []) + mono[i + 1:])] = c
                break
    return _sorted_items(out)


def _diff(e: Expr, v: Var) -> Expr:
    if isinstance(e, Const) or isinstance(e, Param):
        return ZERO
    if isinstance(e, Var):
        return ONE if e == v else ZERO
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
    if isinstance(e, Call):   # sin, cos, exp or ln: diff reads canonical trees only
        u = e.arg
        du = _diff(u, v)
        if e.fname == "sin":
            return Mul((Call("cos", u), du))
        if e.fname == "cos":
            return Neg(Mul((Call("sin", u), du)))
        if e.fname == "exp":
            return Mul((Call("exp", u), du))
        return Div(du, u)
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


def _fsum(vals) -> float:
    """math.fsum, with an intermediate overflow refused as a non-finite sum."""
    try:
        return math.fsum(vals)
    except OverflowError:
        raise EvalDomainError("sum produced a non-finite value") from None


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
    if isinstance(e, Add):
        return _check_finite(_fsum(evaluate(c, p, ctx) for c in e.children), "sum")
    if isinstance(e, Mul):
        out = 1.0
        for c in e.children:
            out *= evaluate(c, p, ctx)
        return _check_finite(out, "product")
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
        fn = _MATH.get(e.fname)
        if fn is None:
            raise ValidationError(f"cannot evaluate {e.fname!r}")
        if e.fname == "ln" and a <= 0.0:
            raise EvalDomainError("ln of a nonpositive value")
        if e.fname == "sqrt" and a < 0.0:
            raise EvalDomainError("sqrt of a negative value")
        try:
            v = fn(a)
        except OverflowError as exc:
            raise EvalDomainError(f"overflow in {e.fname}") from exc
        except ValueError as exc:   # sin or cos of an infinity
            raise EvalDomainError(f"domain error in {e.fname}") from exc
        return _check_finite(v, "exp") if e.fname == "exp" else v
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
        return _fsum(vals), _fsum(abs(v) for v in vals)
    v = evaluate(e, p, ctx)
    return v, abs(v)


# ---------------------------------------------------------------------------
# sampling and the tri-state zero test

# Seed of every sampler, search and integration batch given none.
DEFAULT_SEED = 20260823
# Draws closer than this to a declared singular locus (measured by the locus
# expression's value) are rejected and redrawn.
SAMPLE_LOCUS_GUARD = 0.5
# Integration aborts when a declared singular-locus expression gets this
# close to zero; small enough to keep the usable trajectory long, large
# enough that coefficient evaluation stays finite.
LOCUS_GUARD = 1e-3
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


def _clear_draws(ctx: Context, cfg: SampleConfig, loci: Sequence[Expr],
                 limit: int, want: int) -> Iterator[Point]:
    """Yield each of the first `limit` draws of the cfg.seed stream that keeps
    clear of the loci.  A draw is one row of rng.random((k, width)): the
    coordinates, then the unbound parameters in ctx.params order, each u
    mapped to lo + (hi - lo) * u, which is the stream of one
    rng.uniform(lo, hi) call per value.  Rows come in batches of what is
    still wanted (at least 8) and each is tested only when reached; the
    tested draws stay in _DRAW_MEMO, so every call on a stream takes a prefix
    of them.  An error other than EvalDomainError drops the stream, so the
    next call raises it again."""
    n, params, loci = ctx.dim, tuple(ctx.params.items()), tuple(loci)
    key = (context_key(ctx), params, cfg.seed, tuple(cfg.box),
           tuple((k, tuple(b)) for k, b in sorted(cfg.coord_boxes.items())), loci)
    # one lookup: hashing the key hashes the Fractions of ctx.params
    entry = _DRAW_MEMO.get(key)
    if entry is None:
        entry = _DRAW_MEMO[key] = [ctx, np.random.default_rng(cfg.seed), [], []]
    _, rng, rows, tested = entry
    got = 0
    for i in range(limit):
        if i == len(tested):
            try:
                if not rows:
                    boxes = [cfg.coord_boxes.get(f"{axis}{j}", cfg.box)
                             for axis in "xy" for j in range(1, n + 1)]
                    boxes += [cfg.box for _, bound in params if bound is None]
                    lo = np.array([float(a) for a, _ in boxes])
                    span = np.array([float(b) - float(a) for a, b in boxes])
                    u = rng.random((min(limit - i, max(want - got, 8)), len(boxes)))
                    # a box past the double range gives inf and nan quietly,
                    # as the Python floats of one draw per call did
                    with np.errstate(all="ignore"):
                        rows[:] = (lo + span * u).tolist()[::-1]
                row = rows.pop()
                free = iter(row[2 * n:])
                p = Point(row[:n], row[n:2 * n], {
                    name: float(bound) if bound is not None else next(free)
                    for name, bound in params})
                try:
                    near = any(abs(evaluate(g, p, ctx)) < SAMPLE_LOCUS_GUARD for g in loci)
                except EvalDomainError:
                    near = True
            except BaseException:
                _DRAW_MEMO.pop(key, None)
                raise
            tested.append(None if near else p)
        if tested[i] is not None:
            got += 1
            yield tested[i]


def sample_points(ctx: Context, cfg: SampleConfig | None = None,
                  loci: Sequence[Expr] = (), count: int | None = None) -> list[Point]:
    """Draw points from the box with a cfg.seed stream, rejecting any too
    close to a singular locus."""
    cfg = cfg or SampleConfig()
    want = count if count is not None else cfg.points
    limit = max(SAMPLE_MAX_TRIES, 10 * want)
    draws = _clear_draws(ctx, cfg, loci, limit, want)
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
    return isinstance(lead, Const) and not isinstance(lead.value, float) and lead.value != 1


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
    clear_mono, cc = _normalize_pairs({b: -e for b, e in min_exp.items()}, 1)
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
    return _zero_test(e, ctx, cfg or SampleConfig(), loci)[0]


def _zero_test(e: Expr, ctx: Context, cfg: SampleConfig,
               loci: Sequence[Expr]) -> tuple[Tri, Point | None, float | None]:
    """is_zero's verdict, with the witness point and the value there of a
    proven-nonzero one (None and None otherwise)."""
    nf = _nf(e)
    if not nf or not _cleared_denominators(nf):
        return Tri.PROVEN_ZERO, None, None
    s = _emit(nf)
    draws = _clear_draws(ctx, cfg, loci, max(SAMPLE_MAX_TRIES, 4 * cfg.points), cfg.points)
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
            return Tri.PROVEN_NONZERO, p, v
    return Tri.UNKNOWN, None, None


# ---------------------------------------------------------------------------
# printing


def _rat_str(r: Fraction) -> str:
    return str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"


def _needs_parens_as_base(e: Expr) -> bool:
    if isinstance(e, (Add, Mul, Pow)):
        return True
    if isinstance(e, Const):
        v = e.value
        return v < 0 or (not isinstance(v, float) and v.denominator != 1)
    return False


def _fmt_base(e: Expr) -> str:
    s = format_expr(e)
    return f"({s})" if _needs_parens_as_base(e) else s


def _fmt_powered(base: Expr, exp: Fraction) -> str:
    if exp == 1:
        return _fmt_base(base)
    return f"{_fmt_base(base)}^{_rat_str(exp)}"


def _term_parts(e: Expr):
    """Split a product-like node into (sign, numerator parts, denominator parts),
    its factors taken from a stack in printing order."""
    sign, num, den = 1, [], []
    todo = [e]
    while todo:
        f = todo.pop()
        if isinstance(f, Const):
            v = f.value
            if v < 0:
                sign, v = -sign, -v
            if not isinstance(v, float):
                if v.numerator != 1:
                    num.insert(0, str(v.numerator))
                if v.denominator != 1:
                    den.append(str(v.denominator))
            else:
                num.insert(0, repr(v))
        elif isinstance(f, Pow) and f.exponent < 0:
            den.append(_fmt_powered(f.base, -f.exponent))
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
    """Deterministic text form.

    Canonical trees do not always re-parse to themselves: (x1^2)/2 prints as
    x1^2/2, which parse reads as x1^(2/2) (the strict xfail
    test_printed_canonical_form_parses_back).
    """
    if isinstance(e, Const):   # the text _fmt_term would build, sign included
        return repr(e.value) if isinstance(e.value, float) else str(e.value)
    if isinstance(e, Add):
        sign, head = _fmt_term(e.children[0])
        out = ("-" if sign < 0 else "") + head
        for c in e.children[1:]:
            sign, part = _fmt_term(c)
            out += (" - " if sign < 0 else " + ") + part
        return out
    if isinstance(e, Mul) or (isinstance(e, Pow) and e.exponent < 0):
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


# A sum of more terms is compiled as a reduce: CPython's compiler recurses
# once per operand of a + chain and overflows at a few thousand.
_WIDE_SUM = 256


def _plus(terms: Sequence[str]) -> str:
    """Source of the sum of terms, added left to right."""
    if len(terms) > _WIDE_SUM:
        return f"_reduce(_add, ({', '.join(terms)}))"
    return "(" + "+".join(terms) + ")"


# What a plain-float run raises where evaluate decides the outcome instead:
# a division by zero, an overflow, a math domain error (a builtin of _MATH
# out of its domain), a missing or unset parameter, _fpow's guard, or
# _nonfinite().  Both fast paths, the generated code and the columnar pass,
# say "floats cannot finish" with these alone.
FLOAT_FALLBACK_ERRORS = (ArithmeticError, ValueError, LookupError, TypeError, EvalDomainError)

# The finiteness rule of both fast paths.  Where evaluate refuses a value, a
# float run raises or carries an inf or a nan up (0*inf is nan; fsum, **,
# math.pow and exp raise OverflowError on finite operands; sin and cos raise
# on an inf, ln and sqrt pass one on), except at three operands that can turn
# one finite: a power's base where its exponent is <= 0 (inf**0 is 1.0, and
# inf**-1 is 0.0), exp's argument and a function's argument (a formal value
# is finite, a body may drop x1).  So a fast path tests each constant, output
# and such operand that is _computed: not a coordinate, parameter or constant.
# No tree holds a quotient: a denominator is always such a power's base.
def _computed(e: Expr) -> bool:
    return not isinstance(e, (Const, Var, Param))


def _py_src(e: Expr, ctx: Context, depth: int) -> str:
    """Source of the canonical tree e on plain floats, parameters as given,
    the rule's operands through _fin.  A bound function body is inlined as
    evaluate applies it, at depth + 1: its x1 is the argument's value,
    computed once into _a{depth + 1}, and its y1 is 0.0."""
    def operand(c: Expr) -> str:
        return f"_fin({_py_src(c, ctx, depth)})" if _computed(c) else _py_src(c, ctx, depth)
    if isinstance(e, Const):
        v = e.value
        # evaluate refuses a constant that is non-finite or out of double range
        with contextlib.suppress(OverflowError):
            if math.isfinite(v):
                if isinstance(v, float):
                    return f"({v!r})"
                return f"({v.numerator}/{v.denominator})" if v.denominator != 1 else f"({v})"
        return "_nonfinite()"
    if isinstance(e, Var):
        # evaluate refuses a coordinate past the point's dimension
        dim = 1 if depth else ctx.dim
        if e.index > dim:
            raise EvalDomainError(
                f"coordinate {e.name} out of range for point of dimension {dim}")
        if not depth:
            return f"_v_{e.axis}{e.index}"
        return f"_a{depth}" if e.axis == "x" else "0.0"
    if isinstance(e, Param):
        return f"_p[{e.name!r}]"
    if isinstance(e, Add):
        return _plus([_py_src(c, ctx, depth) for c in e.children])
    if isinstance(e, Mul):
        return "(" + "*".join(_py_src(c, ctx, depth) for c in e.children) + ")"
    if isinstance(e, Pow):
        r = e.exponent
        base = operand(e.base) if r <= 0 else _py_src(e.base, ctx, depth)
        if r.denominator == 1:
            return f"({base}**({int(r)}))"
        return f"_fpow({base}, {float(r)!r})"
    if isinstance(e, Call):   # _MATH's function, bound under its name
        arg = operand(e.arg) if e.fname == "exp" else _py_src(e.arg, ctx, depth)
        return f"{e.fname}({arg})"
    if isinstance(e, FuncApp):
        body = ctx.func_derivative(e.fname, e.order)
        if body is None:
            raise UnboundParameterError(
                f"opaque function {e.fname!r} needs a bound body to compile")
        inner = _float_src(simplify(body), ctx, depth + 1)
        return f"(_a{depth + 1} := {operand(e.arg)}, {inner})[1]"
    raise TypeError(f"cannot compile {e!r}")


def _float_src(e: Expr, ctx: Context, depth: int) -> str:
    """_py_src of a canonical tree; a bare parameter or constant is made a
    float, as evaluate gives it."""
    src = _py_src(e, ctx, depth)
    return f"float({src})" if isinstance(e, (Param, Const)) else src


def _fpow(b: float, r: float) -> float:
    # the one guard math lacks: math.pow(-inf, -0.5) is 0.0, where evaluate
    # refuses a negative base
    if b < 0.0:
        raise EvalDomainError("fractional power of a negative base")
    return math.pow(b, r)


def _nonfinite():
    raise EvalDomainError("non-finite value in compiled evaluation")


class _NonFinite(EvalDomainError):
    """_evaluated's refusal of a state that is not finite."""


def _fin(v: float) -> float:
    if not math.isfinite(v):
        _nonfinite()
    return v


def _exec_def(lines: list[str], **names) -> dict:
    """The namespace of the generated definitions, once run."""
    ns = {**_MATH, "_fpow": _fpow, "_fin": _fin, "_isfinite": math.isfinite,
          "_nonfinite": _nonfinite, "_reduce": functools.reduce, "_add": operator.add, **names}
    exec("\n".join(lines), ns)
    return ns


def _state_names(n: int) -> list[str]:
    return [f"_v_x{i}" for i in range(1, n + 1)] + [f"_v_y{a}" for a in range(1, n + 1)]


def _evaluated(exprs: Sequence[Expr], zl: Sequence, params: Mapping, ctx: Context) -> tuple:
    """evaluate's value of each of exprs, simplified as the generated code
    is, at the flat state zl (its first 2 * ctx.dim entries); both checked finite."""
    n = ctx.dim
    if not all(map(math.isfinite, zl[:2 * n])):
        raise _NonFinite("non-finite value in compiled evaluation")
    p = Point(zl[:n], zl[n:2 * n], params)
    return tuple(_fin(evaluate(simplify(e), p, ctx)) for e in exprs)


def compile_exprs(exprs: Sequence[Expr], ctx: Context) -> Callable[[np.ndarray, Mapping[str, float]], tuple]:
    """Compile expressions into one fast callable (state, params) -> tuple.
    The state, an array or a sequence, runs on plain floats; where they raise
    or give values whose sum is not finite, evaluate decides each value,
    error and message.  .raw is the generated function without that check.
    .rows(states, params) is the list of the callable's tuples at the rows of
    the 2-D array states: .raw mapped over all rows and tested once where
    each row's sum is finite, else the callable row by row.  Bound function
    bodies are inlined; an application without one raises
    UnboundParameterError here.  Memoised until clear_caches()."""
    exprs = tuple(exprs)

    def build():
        width = 2 * ctx.dim
        srcs = [_float_src(t, ctx, 0) for t in map(simplify, exprs)]
        raw = _exec_def(["def _compiled(_z, _p):",
                         f"    {''.join(v + ', ' for v in _state_names(ctx.dim))}= _z[:{width}]",
                         f"    return ({''.join(s + ', ' for s in srcs)})"])["_compiled"]
        # each row's sum, which call tests (a row of one value is its sum)
        row_sums = functools.partial(map, operator.itemgetter(0) if len(exprs) == 1 else sum)

        def call(z: np.ndarray | Sequence[float], params: Mapping[str, float] | None = None) -> tuple:
            params = params or {}
            zl = z.tolist() if isinstance(z, np.ndarray) else z
            try:
                out = raw(zl, params)
                # a non-finite value makes the sum non-finite
                if math.isfinite(sum(out)):
                    return out
            except FLOAT_FALLBACK_ERRORS:
                pass   # evaluate decides
            return _evaluated(exprs, zl, params, ctx)

        def rows(states: np.ndarray, params: Mapping[str, float] | None) -> list[tuple]:
            if states.shape[1] == width:
                flat = iter(states.ravel().tolist())
                try:
                    # each row a tuple, which _z[:width] does not copy
                    out = [raw(z, params) for z in zip(*[flat] * width)]
                    # a non-finite row sum makes the sum of all non-finite
                    if math.isfinite(sum(row_sums(out))):
                        return out
                except FLOAT_FALLBACK_ERRORS:
                    pass
            return [call(row, params) for row in states.tolist()]

        call.raw, call.rows = raw, rows
        return call

    return _memo_compile(("exprs", exprs), ctx, build)


def compile_rk4_step(G: Sequence[Expr], loci: Sequence[Expr], ctx: Context,
                     dt: float) -> Callable:
    """One classic RK4 step of z' = (y, -2G(z)) on a tuple of floats, with
    the singular-locus test, as one generated function.

    step(z, params, below) returns z_next, or () when z_next entered a
    singular locus: some locus value l has abs(l) <= LOCUS_GUARD, or its sign
    (l < 0) differs from below, the tuple of the start's signs.  The four
    stages k = (y, -2.0*G), the stage states z + (0.5*dt)*k and z + dt*k3 and
    the update z + (dt/6.0)*(((k1 + 2.0*k2) + 2.0*k3) + k4) are done in
    that order.  Parameters enter exactly as given (Fractions stay exact).

    It returns None when plain floats cannot finish the step, for the caller
    to redo it with evaluate: they raise one of FLOAT_FALLBACK_ERRORS, or
    the sum of z_next or of the locus values is not finite (every stage
    value enters z_next with a positive weight, so one test stands in for
    one per stage).  Memoised until clear_caches().
    """
    G, loci = tuple(G), tuple(loci)
    return _memo_compile(("rk4", G, loci, dt), ctx,
                         lambda: _rk4_module(G, loci, ctx, dt))


def _rk4_module(G: tuple, loci: tuple, ctx: Context, dt: float) -> Callable:
    n = ctx.dim
    g_src = [_py_src(simplify(e), ctx, 0) for e in G]
    l_src = [_py_src(simplify(e), ctx, 0) for e in loci]
    state = _state_names(n)
    base = [f"_s{j}" for j in range(2 * n)]
    body = [f"{', '.join(base)}, = _z", f"{', '.join(state)}, = _z"]

    def k(s: int, j: int) -> str:
        # a stage's x-part is the y of its stage state: stage 1's is z's
        return f"_s{n + j}" if s == 1 and j < n else f"_k{s}_{j}"

    for s in range(1, 5):
        if s > 1:
            h = "_dt" if s == 4 else "_h"
            body += [f"{v} = {b} + {h}*{k(s - 1, j)}"
                     if j < n else f"_k{s}_{j - n} = {v} = {b} + {h}*{k(s - 1, j)}"
                     for j, (v, b) in enumerate(zip(state, base))]
        body += [f"_k{s}_{n + a} = -2.0*{src}" for a, src in enumerate(g_src)]
    body += [f"{v} = {b} + _d6*((({k(1, j)} + 2.0*{k(2, j)}) + 2.0*{k(3, j)}) + {k(4, j)})"
             for j, (v, b) in enumerate(zip(state, base))]
    # a non-finite term makes the sum non-finite; a sum that merely
    # overflows only sends the step to evaluate
    body.append(f"if not _isfinite({_plus(state)}): return None")
    locs = [f"_l{j}" for j in range(len(loci))]
    body += [f"{v} = {src}" for v, src in zip(locs, l_src)]
    if locs:
        body.append(f"if not _isfinite({_plus(locs)}): return None")
        near = " or ".join(f"abs({v}) <= _guard" for v in locs)
        signs = "".join(f"{v} < 0, " for v in locs)
        body.append(f"if {near} or ({signs}) != _below: return ()")
    body.append(f"return ({', '.join(state)},)")
    lines = (["def _step(_z, _p, _below):", "    try:"]
             + [f"        {line}" for line in body]
             + ["    except _fallback:", "        return None"])
    ns = _exec_def(lines, _h=0.5 * dt, _dt=dt, _d6=dt / 6.0, _guard=LOCUS_GUARD,
                   _fallback=FLOAT_FALLBACK_ERRORS)
    return ns["_step"]


# ---------------------------------------------------------------------------
# evaluation over a list of points: a columnar pass, with evaluate deciding
# every failure


def _finite(col: list) -> list:
    # a non-finite value makes the sum non-finite
    if not math.isfinite(sum(col)):
        _nonfinite()
    return col


class _Columns:
    """What evaluate(e, p, ctx) computes at each of some points, bit for bit,
    wherever evaluate returns at all of them, as one column (a list with a
    value per point) per distinct node.

    Each node is computed once, over every point, with evaluate's own float
    operation, which raises one of FLOAT_FALLBACK_ERRORS where evaluate's
    guards raise; the finiteness rule's values are tested once per column,
    and a node evaluate refuses at every point raises through _nonfinite(),
    as the generated code does.  A bound function body (func_derivative's
    canonical tree) is computed in a frame where x1 is the argument's column
    and y1 is 0.0; a frame is the key of its argument's column.
    """

    def __init__(self, points: Sequence[Point], ctx: Context | None):
        self.points, self.ctx = points, ctx
        self.seen: dict = {}

    def key(self, e: Expr, frame: tuple | None) -> tuple:
        """The key of e's column, computed on first use; constants and
        parameters are the same in every frame."""
        key = (None if isinstance(e, (Const, Param)) else frame, e)
        if key not in self.seen:
            self.seen[key] = self._node(e, frame)
        return key

    def column(self, e: Expr, frame: tuple | None = None) -> list:
        return self.seen[self.key(e, frame)]

    def operand(self, e: Expr, frame: tuple | None) -> list:   # tested where _computed
        return _finite(self.column(e, frame)) if _computed(e) else self.column(e, frame)

    def _node(self, e: Expr, frame: tuple | None) -> list:
        n = len(self.points)
        if isinstance(e, Const):
            # evaluate refuses a constant out of double range (float raises
            # OverflowError) or non-finite at every point
            return [_fin(float(e.value))] * n
        if isinstance(e, Var):
            if frame is None:   # an IndexError past a point's dimension
                return [(p.x if e.axis == "x" else p.y)[e.index - 1] for p in self.points]
            if e.index != 1:    # out of range for the body's point
                _nonfinite()
            return self.seen[frame] if e.axis == "x" else [0.0] * n
        if isinstance(e, Param):
            return [_resolve_param(e.name, p, self.ctx) for p in self.points]
        if isinstance(e, Add):
            return list(map(math.fsum, zip(*[self.column(c, frame) for c in e.children])))
        if isinstance(e, Mul):
            out, *rest = [self.column(c, frame) for c in e.children]
            for col in rest:    # left to right, as evaluate multiplies
                out = list(map(operator.mul, out, col))
            return out
        if isinstance(e, Pow):   # raw trees reach this pass, and inf**0 is 1.0
            r = e.exponent
            b = (self.operand if r <= 0 else self.column)(e.base, frame)
            if r.denominator == 1:
                k = int(r)
                return [v ** k for v in b]
            rf = float(r)
            return [_fpow(v, rf) for v in b]
        if isinstance(e, Call):   # a KeyError for a name that is no builtin
            arg = (self.operand if e.fname == "exp" else self.column)(e.arg, frame)
            return list(map(_MATH[e.fname], arg))
        if isinstance(e, FuncApp):
            arg = self.operand(e.arg, frame)
            try:
                body = self.ctx and self.ctx.func_derivative(e.fname, e.order)
            except Exception:  # noqa: BLE001 -- evaluate raises it again
                _nonfinite()
            if body is not None:
                return self.column(body, self.key(e.arg, frame))
            return [formal_value(e.fname, e.order, v) for v in arg]
        _nonfinite()

    def rows(self, exprs: tuple, magnitude: bool) -> list[tuple]:
        """One tuple per point: evaluate's value of each e, or
        evaluate_with_magnitude's (value, magnitude)."""
        outs = []
        for e in exprs:
            if magnitude and isinstance(e, Add):
                # evaluate_with_magnitude checks each term, not their sum
                terms = list(zip(*(_finite(self.column(c)) for c in e.children)))
                outs.append(list(zip(map(math.fsum, terms),
                                     [math.fsum(map(abs, t)) for t in terms])))
            else:
                col = _finite(self.column(e))
                outs.append(list(zip(col, map(abs, col))) if magnitude else col)
        return list(zip(*outs)) if outs else [()] * len(self.points)


def _evaluations(exprs: Sequence[Expr], points: Sequence[Point], ctx: Context | None,
                 magnitude: bool) -> Iterator[tuple]:
    exprs, points = tuple(exprs), list(points)
    try:
        rows = _Columns(points, ctx).rows(exprs, magnitude)
    except FLOAT_FALLBACK_ERRORS:
        one = evaluate_with_magnitude if magnitude else evaluate
        rows = (tuple(one(e, p, ctx) for e in exprs) for p in points)
    yield from rows


def evaluate_points(exprs: Sequence[Expr], points: Sequence[Point],
                    ctx: Context | None) -> Iterator[tuple]:
    """For each point in order, the tuple of what evaluate(e, p, ctx) gives
    for each e, bit for bit, or the first error it raises, yielded lazily:
    one columnar pass over all the points where evaluate returns at every
    one, and evaluate itself, point by point, where the pass cannot finish.
    Nothing runs before the first tuple is asked for, so an error a caller
    raises at an earlier point comes first.
    """
    return _evaluations(exprs, points, ctx, False)


def evaluate_points_with_magnitude(exprs: Sequence[Expr], points: Sequence[Point],
                                   ctx: Context | None) -> Iterator[tuple]:
    """evaluate_points with evaluate_with_magnitude's (value, magnitude)."""
    return _evaluations(exprs, points, ctx, True)
