"""The Dormand-Prince 5(4) pair with terminal events, as scipy runs it.

A port of scipy 1.17.1's ``solve_ivp(method="RK45")`` limited to what
``motion._integrate_rk45`` asks of it: scalar tolerances, a ``max_step``,
no ``t_eval`` and no dense output, and events that are all terminal with
direction 0.  The tableau, the step (``rk_step``), the initial step, the
step-size control, the dense output of the last step and solve_ivp's event
loop are written with the same BLAS reductions and IEEE operations in the
same order (scalars as Python floats, the same doubles), so the accepted
times and states, the status and the message are scipy's bit for bit.  Event
roots are found by Brent's method (Brent, Algorithms for Minimization
without Derivatives, 1973) as scipy.optimize.brentq runs it, ported from its
C algorithm onto Python floats.

Dormand and Prince, "A family of embedded Runge-Kutta formulae", J. Comput.
Appl. Math. 6 (1980); the dense output uses Shampine's optimum c_6, Math.
Comp. 46 (1986).
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

__all__ = ["IvpResult", "solve_ivp", "brentq"]

EPS = np.finfo(float).eps

# Multiply steps computed from asymptotic behaviour of errors by this.
SAFETY = 0.9
MIN_FACTOR = 0.2  # Minimum allowed decrease in a step size.
MAX_FACTOR = 10  # Maximum allowed increase in a step size.
ERROR_EXPONENT = -1 / (4 + 1)  # the error estimator is of order 4
BRENT_MAXITER = 100

C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]
])
B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525,
              1/40])
P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608,
     -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933,
     87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304,
     -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])

TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
MESSAGES = {0: "The solver successfully reached the end of the integration interval.",
            1: "A termination event occurred."}


class IvpResult(NamedTuple):
    """t of shape (k,) and y of shape (n, k), as solve_ivp returns them;
    status 0 (end reached), 1 (an event ended the run) or -1 (step too
    small), with scipy's message for it."""

    t: np.ndarray
    y: np.ndarray
    status: int
    message: str


# each stage s after the first: s, its row of A and its node
_STAGES = [(s, A[s, :s], float(C[s])) for s in range(1, len(C))]


def _norm(x: np.ndarray) -> float:
    """RMS norm, by np.linalg.norm's route for a 1-D array."""
    return math.sqrt(x.dot(x)) / x.size ** 0.5


def _rk_step(fun, t, y, f, h, K):
    """One step of the pair; K receives the stages, its last row f_new."""
    K[0] = f
    for s, a, c in _STAGES:
        dy = np.dot(K[:s].T, a) * h
        K[s] = fun(t + c * h, y + dy)

    y_new = y + h * np.dot(K[:-1].T, B)
    f_new = fun(t + h, y_new)

    K[-1] = f_new

    return y_new, f_new


def _select_initial_step(fun, t0, y0, t_bound, max_step, f0, direction, rtol, atol):
    """Hairer, Norsett and Wanner's starting step, for an error estimator of
    order 4."""
    interval_length = abs(t_bound - t0)
    if interval_length == 0.0:
        return 0.0

    scale = atol + np.abs(y0) * rtol
    d0 = _norm(y0 / scale)
    # a numpy scalar: where d1 overflows, h0 is 0 and d2 divides to inf
    d1 = np.float64(_norm(f0 / scale))
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)

    y1 = y0 + h0 * direction * f0
    f1 = fun(t0 + h0 * direction, y1)
    d2 = _norm((f1 - f0) / scale) / h0

    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (4 + 1))

    return min(100 * h0, h1, interval_length, max_step)


def _dense_output(t_old, t, y_old, y, K) -> Callable:
    """The interpolant of the step from t_old to t."""
    if t == t_old:
        return lambda s: y
    Q = K.T.dot(P)
    h = t - t_old

    def sol(s):
        x = (np.asarray(s) - t_old) / h
        p = np.cumprod(np.tile(x, Q.shape[1]))
        out = h * np.dot(Q, p)
        out += y_old
        return out

    return sol


def _event_root(events, sol, index, t_old, t) -> float:
    return brentq(lambda s: events(s, sol(s))[index], t_old, t,
                  4 * EPS, 4 * EPS, BRENT_MAXITER)


def solve_ivp(fun: Callable, t_span: tuple[float, float], y0: np.ndarray,
              rtol: float, atol: float, max_step: float,
              events: Callable | None) -> IvpResult:
    """Integrate y' = fun(t, y) over t_span from y0 with the RK45 pair.

    events(t, y), when given, returns the values of the event functions;
    each is terminal, and a sign change of any of them ends the run at its
    first root (found on the step's interpolant).  rtol must be at least
    100 * EPS, as scipy would otherwise raise it.
    """
    t0, tf = map(float, t_span)
    y0 = np.asarray(y0).astype(float, copy=False)
    if not np.isfinite(y0).all():
        raise ValueError("All components of the initial state `y0` must be finite.")
    if max_step <= 0:
        raise ValueError("`max_step` must be positive.")

    def f(t, y):
        return np.asarray(fun(t, y), dtype=float)

    direction = float(np.sign(tf - t0)) if tf != t0 else 1
    atol = np.asarray(atol)
    t, y = t0, y0
    f_cur = f(t, y)
    h_abs = float(_select_initial_step(f, t, y, tf, max_step, f_cur, direction, rtol, atol))
    K = np.empty((7, y.size), dtype=y.dtype)

    ts, ys = [t0], [y0]
    g = None if events is None else events(t0, y0)
    status = None
    message = None
    while status is None:
        t_old, y_old = t, y
        if t == tf:
            status = 0
        else:
            min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
            if h_abs > max_step:
                h_abs = max_step
            elif h_abs < min_step:
                h_abs = min_step

            step_accepted = False
            step_rejected = False
            while not step_accepted:
                if h_abs < min_step:
                    message = TOO_SMALL_STEP
                    break

                h = h_abs * direction
                t_new = t + h
                if direction * (t_new - tf) > 0:
                    t_new = tf
                h = t_new - t
                h_abs = abs(h)

                y_new, f_new = _rk_step(f, t, y, f_cur, h, K)
                scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
                error_norm = _norm(np.dot(K.T, E) * h / scale)

                if error_norm < 1:
                    if error_norm == 0:
                        factor = MAX_FACTOR
                    else:
                        factor = min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
                    if step_rejected:
                        factor = min(1, factor)
                    h_abs *= factor
                    step_accepted = True
                else:
                    h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
                    step_rejected = True
            if not step_accepted:
                status = -1
                break
            t, y, f_cur = t_new, y_new, f_new
            if direction * (t - tf) >= 0:
                status = 0

        if events is not None:
            g_new = events(t, y)
            # the events whose value went up to or down to zero
            active = [i for i, (a, b) in enumerate(zip(g, g_new))
                      if (a <= 0 and b >= 0) or (a >= 0 and b <= 0)]
            if active:
                sol = _dense_output(t_old, t, y_old, y, K)
                roots = np.asarray([_event_root(events, sol, i, t_old, t)
                                    for i in active])
                order = np.argsort(roots) if t > t_old else np.argsort(-roots)
                status = 1
                t = roots[order][0]
                y = sol(t)
            g = g_new

        ts.append(t)
        ys.append(y)

    return IvpResult(np.array(ts), np.vstack(ys).T, status,
                     MESSAGES.get(status, message))


def _signbit(x: float) -> bool:
    return math.copysign(1.0, x) < 0


def _cdiv(a: float, b: float) -> float:
    """a / b as C divides doubles: inf or nan where Python raises."""
    if b != 0:
        return a / b
    if a == 0 or math.isnan(a):
        return math.nan
    return math.inf if _signbit(a) == _signbit(b) else -math.inf


def brentq(f: Callable[[float], float], a: float, b: float, xtol: float,
           rtol: float, maxiter: int) -> float:
    """A root of f in [a, b] by Brent's method, as scipy.optimize.brentq
    finds it: the same points, in the same order, and the same errors (a
    ValueError for f(a), f(b) of one sign or a NaN value, a RuntimeError
    after maxiter iterations)."""
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < 4 * EPS:
        raise ValueError(f"rtol too small ({rtol:g} < {4 * EPS:g})")

    def value(x: float) -> float:
        fx = f(x)
        if np.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return float(fx)

    xtol, rtol = float(xtol), float(rtol)
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if _signbit(fpre) == _signbit(fcur):
        raise ValueError("f(a) and f(b) must have different signs")

    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and _signbit(fpre) != _signbit(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = _cdiv(-fcur * (xcur - xpre), fcur - fpre)
            else:
                # extrapolate
                dpre = _cdiv(fpre - fcur, xpre - xcur)
                dblk = _cdiv(fblk - fcur, xblk - xcur)
                stry = _cdiv(-fcur * (fblk * dblk - fpre * dpre),
                             dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")
