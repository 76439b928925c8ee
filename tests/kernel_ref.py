"""The reference of the polynomial kernel: the coefficient helpers that held
every exact coefficient as a Fraction, and diff by _diff's product rule and
a new normal form for every tree, polynomials too.  parent_kernel() runs
expr with them in place of its own."""

import contextlib
import math
from fractions import Fraction

from spraydirac import expr
from spraydirac.errors import EvalDomainError
from spraydirac.expr import Add, Call, Const, FuncApp, Mul, Param, Pow, Var


def _fraction(v):
    """v, read as a Fraction where it is exact (not a float)."""
    return v if isinstance(v, float) else Fraction(v)


def _cmul(a, b):
    a, b = _fraction(a), _fraction(b)
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a * b
    return float(a) * float(b)


def _cadd(a, b):
    a, b = _fraction(a), _fraction(b)
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a + b
    return float(a) + float(b)


def _cpow(c, k):
    if isinstance(c, Fraction):
        return _fraction(expr._exact_pow(c, k))
    try:
        return float(c) ** float(k)
    except OverflowError:
        return -math.inf if c < 0 and k % 2 else math.inf


def _cinv(a):
    if isinstance(a, Fraction):
        return Fraction(a.denominator, a.numerator)
    return 1.0 / a


def _content_split(nf):
    lead = min(nf, key=expr._mono_sortkey)
    c = nf[lead]
    inv = _cinv(c)
    if isinstance(inv, float) and not 0.0 < abs(inv) < math.inf:
        return Fraction(1), nf
    return c, expr._nf_scale(nf, inv)


def _nf_pow(nf, r):
    if r == 0:
        return {(): Fraction(1)}
    if not nf:
        if r < 0:
            raise EvalDomainError("zero raised to a negative power")
        return {}
    if r.denominator == 1:
        k = int(r)
        if k < 0:
            return _nf_pow(expr._nf_invert(nf), -k)
        if len(nf) == 1:
            (mono, c), = nf.items()
            pairs = {base: exp * k for base, exp in mono}
            return expr._term(*expr._normalize_pairs(pairs, _cpow(c, k)))
        if k <= expr._EXPAND_CAP:
            out = {(): Fraction(1)}
            b = nf
            e = k
            while e:
                if e & 1:
                    out = expr._nf_mul(out, b)
                e >>= 1
                if e:
                    b = expr._nf_mul(b, b)
            return out
        c, unit = _content_split(nf)
        base = expr._emit(unit)
        return expr._term(((base, k),), _cpow(c, k))
    if len(nf) == 1:
        (mono, c), = nf.items()
        if not mono:
            return expr._term(*expr._normalize_pairs({Const(c): r}, Fraction(1)))
        if c < 0:
            base = expr._emit({mono: c})
            return {((base, r),): Fraction(1)}
        pairs: dict = {}
        if len(mono) == 1 and (mono[0][1] == 1 or mono[0][1].denominator > 1):
            expr._pairs_add(pairs, mono[0][0], mono[0][1] * r)
        else:
            expr._pairs_add(pairs, expr._emit({mono: Fraction(1)}), r)
        if c != 1:
            expr._pairs_add(pairs, Const(c), r)
        return expr._term(*expr._normalize_pairs(pairs, Fraction(1)))
    c, unit = _content_split(nf)
    mag = abs(c)
    if mag != c:
        unit = expr._nf_scale(unit, Fraction(-1) if isinstance(c, Fraction) else -1.0)
    base = expr._emit(unit)
    pairs = {}
    expr._pairs_add(pairs, base, r)
    if mag != 1:
        expr._pairs_add(pairs, Const(mag), r)
    return expr._term(*expr._normalize_pairs(pairs, Fraction(1)))


def _atom(base):
    return {((base, 1),): Fraction(1)}


def _build_nf(e):
    if isinstance(e, Const):
        return {} if e.value == 0 else {(): _fraction(e.value)}
    if isinstance(e, (Var, Param)):
        return _atom(e)
    if isinstance(e, Add):
        out = {}
        for c in e.children:
            out = expr._nf_add(out, expr._nf(c))
        return out
    if isinstance(e, Mul):
        out = {(): Fraction(1)}
        for c in e.children:
            out = expr._nf_mul(out, expr._nf(c))
        return out
    if isinstance(e, Pow):
        return _nf_pow(expr._nf(e.base), e.exponent)
    if isinstance(e, Call):
        if e.fname == "sqrt":
            return _nf_pow(expr._nf(e.arg), Fraction(1, 2))
        arg = expr._emit(expr._nf(e.arg))
        folded = expr._fold_call(e.fname, arg)
        if folded is not None:
            return expr._nf(folded)
        return _atom(Call(e.fname, arg))
    if isinstance(e, FuncApp):
        return _atom(FuncApp(e.fname, e.order, expr._emit(expr._nf(e.arg))))
    raise TypeError(f"cannot normalize {e!r}")


def simplify(e):
    s = expr._SIMPLIFY_MEMO.get(e)
    if s is None:
        items = expr._sorted_items(expr._nf(e))
        s = expr._SIMPLIFY_MEMO[e] = expr._emit_sorted(items)
        if s not in expr._NF_MEMO and all(
                isinstance(c, Fraction) and all(isinstance(b, (Var, Param)) for b, _ in m)
                for m, c in items):
            expr._NF_MEMO[s] = dict(items)
    return s


def diff(e, v):
    """The derivative by the product rule on every tree."""
    d = expr._DIFF_MEMO.get((e, v))
    if d is None:
        d = expr._DIFF_MEMO[e, v] = simplify(expr._diff(simplify(e), v))
    return d


PARENT = {f.__name__: f for f in (_cmul, _cadd, _cpow, _cinv, _content_split, _nf_pow,
                                  _atom, _build_nf, simplify, diff)}


@contextlib.contextmanager
def parent_kernel():
    """expr with the reference helpers, simplify and diff in place of its
    own, on empty caches, which are emptied again on exit."""
    saved = {name: getattr(expr, name) for name in PARENT}
    expr.clear_caches()
    for name, f in PARENT.items():
        setattr(expr, name, f)
    try:
        yield
    finally:
        for name, f in saved.items():
            setattr(expr, name, f)
        expr.clear_caches()
