"""The reference of the one-pass scanner: the token-by-token tokenizer and
the recursive-descent parser that read its tokens as dataclasses."""

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from spraydirac.errors import ParseError
from spraydirac.expr import (
    _COORD_RE, BUILTIN_FUNCTIONS, MAX_NESTING, Add, Call, Const, Context, Div, Expr,
    FuncApp, Mul, Neg, Param, Pow, coordinates,
)

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
        self.depth = 0

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
        depth = self.depth
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.next().text
            self.depth += 1   # the chain nests to the left
            rhs = self.factor()
            e = Mul((e, rhs)) if op == "*" else Div(e, rhs)
        self.depth = depth
        return e

    def check_depth(self, depth: int) -> None:
        if depth > MAX_NESTING:
            raise ParseError(f"expression nested deeper than {MAX_NESTING} levels",
                             position=self.peek().pos)

    def factor(self) -> Expr:
        self.depth += 1
        self.check_depth(self.depth)
        e = self.base()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.next()
            e = Pow(e, self.signed_rational())
        self.depth -= 1
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
            axis, idx, n = m.group(1), int(m.group(2)), self.ctx.dim
            if idx > n:
                raise ParseError(f"coordinate {name!r} out of range for dimension {n}",
                                 position=t.pos)
            return coordinates(n)[idx - 1 if axis == "x" else n + idx - 1]
        if name in BUILTIN_FUNCTIONS:
            if order:
                raise ParseError(f"primes are not allowed on {name!r}", position=t.pos)
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
                raise ParseError(f"cannot take a prime of scalar parameter {name!r}", position=t.pos)
            return Param(name)
        raise ParseError(f"unknown identifier {name!r}", position=t.pos)


def parse(text: str, ctx: Context) -> Expr:
    """Parse DSL text into a raw expression tree (not yet canonical)."""
    return _Parser(text, ctx).parse()
