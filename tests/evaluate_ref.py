"""The references of the float-first tests, with evaluate deciding wherever
plain floats cannot finish: a compiled callable (floats first, then
evaluate's value of each simplified tree at the state, x and y read from
its first 2n entries, each checked finite, or evaluate's error), and an RK4
step on numpy arrays with a given G.  evaluate is never asked at a
non-finite state."""

import math

import numpy as np

from spraydirac.errors import EvalDomainError
from spraydirac.expr import FLOAT_FALLBACK_ERRORS, Point, evaluate, simplify


def evaluated(exprs, z, params, ctx):
    """evaluate's values of exprs at the flat state z, in order, each
    checked finite; a non-finite state is refused."""
    z, n = list(z), ctx.dim
    if not all(math.isfinite(v) for v in z[:2 * n]):
        raise EvalDomainError("non-finite value in compiled evaluation")
    p = Point(z[:n], z[n:2 * n], params or {})
    out = []
    for e in exprs:
        v = evaluate(simplify(e), p, ctx)
        if not math.isfinite(v):
            raise EvalDomainError("non-finite value in compiled evaluation")
        out.append(v)
    return tuple(out)


def floats_then_evaluate(raw, exprs, ctx):
    """raw(z, params) on plain floats where it gives values with a finite
    sum, and evaluated(exprs, ...) otherwise."""

    def call(z, params=None):
        z = z.tolist() if isinstance(z, np.ndarray) else list(z)
        try:
            out = raw(z, params or {})
            if math.isfinite(sum(out)):
                return out
        except FLOAT_FALLBACK_ERRORS:
            pass
        return evaluated(exprs, z, params, ctx)

    return call


def evaluate_values(exprs, params, ctx):
    """s -> evaluate's values of exprs at the flat state s, unchecked, or
    nans where s is not finite: a stage state that is not finite makes the
    step non-finite."""
    n = ctx.dim

    def values(s):
        if not np.all(np.isfinite(s)):
            return [math.nan] * len(exprs)
        p = Point(s[:n], s[n:2 * n], params)
        return [evaluate(simplify(e), p, ctx) for e in exprs]

    return values


def rk4_array_step(g_values, z, dt):
    """One classic RK4 step of z' = (y, -2.0*G) on numpy arrays, where
    g_values(s) gives G at the state s."""
    n = len(z) // 2

    def f(s):
        return np.concatenate([s[n:], [-2.0 * g for g in g_values(s)]])

    k1 = f(z)
    k2 = f(z + 0.5 * dt * k1)
    k3 = f(z + 0.5 * dt * k2)
    k4 = f(z + dt * k3)
    return z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
