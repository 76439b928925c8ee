"""The Dormand-Prince 5(4) pair with terminal events, as scipy runs it.

A port of scipy 1.17.1's ``solve_ivp(method="RK45")`` limited to what
``motion._integrate_rk45`` asks of it: an autonomous system run forward
from t = 0 with the fixed tolerances RTOL and ATOL and a ``max_step``, no
``t_eval`` and no dense output, and events that are all terminal with
direction 0.  It checks none of its inputs: motion passes a finite start,
a horizon tf >= 0 and a positive max_step.  The tableau, the step
(``rk_step``), the initial step, the step-size control, the dense output of
the last step and solve_ivp's event loop are written with the same BLAS
reductions and IEEE operations in the same order (scalars as Python floats,
the same doubles), so the accepted times and states, the status and the
message are scipy's bit for bit.  Event roots are found by Brent's method
(Brent, Algorithms for Minimization without Derivatives, 1973) as
scipy.optimize.brentq runs it, ported from its C algorithm onto Python
floats, with the tolerances solve_ivp gives it (BRENT_TOL).

Dormand and Prince, "A family of embedded Runge-Kutta formulae", J. Comput.
Appl. Math. 6 (1980); the dense output uses Shampine's optimum c_6, Math.
Comp. 46 (1986).
"""

from __future__ import annotations

import math
import sys
from typing import Callable, NamedTuple

import numpy as np

from .errors import ValidationError

__all__ = ["IvpResult", "solve_ivp", "brentq"]

# Relative and absolute error tolerances of a step.
RTOL = 1e-9
ATOL = 1e-12

# Multiply steps computed from asymptotic behaviour of errors by this.
SAFETY = 0.9
MIN_FACTOR = 0.2  # Minimum allowed decrease in a step size.
MAX_FACTOR = 10  # Maximum allowed increase in a step size.
ERROR_EXPONENT = -1 / (4 + 1)  # the error estimator is of order 4
BRENT_MAXITER = 100
BRENT_TOL = 4 * sys.float_info.epsilon   # brentq's xtol and rtol
# steps of one run, accepted and rejected, far above any real problem
MAX_STEPS = 20_000

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


# each stage s after the first: s and its row of A
_STAGES = [(s, A[s, :s]) for s in range(1, len(C))]


def _norm(x: np.ndarray) -> float:
    """RMS norm, by np.linalg.norm's route for a 1-D array."""
    return math.sqrt(x.dot(x)) / x.size ** 0.5


def _rk_step(fun, y, f, h, K):
    """One step of the pair; K receives the stages, its last row f_new."""
    K[0] = f
    for s, a in _STAGES:
        dy = np.dot(K[:s].T, a) * h
        K[s] = fun(y + dy)

    y_new = y + h * np.dot(K[:-1].T, B)
    f_new = fun(y_new)

    K[-1] = f_new

    return y_new, f_new


def _select_initial_step(fun, y0, interval_length, max_step, f0):
    """Hairer, Norsett and Wanner's starting step, for an error estimator of
    order 4."""
    if interval_length == 0.0:
        return 0.0

    scale = ATOL + np.abs(y0) * RTOL
    d0 = _norm(y0 / scale)
    # a numpy scalar: where d1 overflows, h0 is 0 and d2 divides to inf
    d1 = np.float64(_norm(f0 / scale))
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)

    y1 = y0 + h0 * f0
    f1 = fun(y1)
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
    return brentq(lambda s: events(sol(s))[index], t_old, t)


def solve_ivp(fun: Callable, tf: float, y0: np.ndarray, max_step: float,
              events: Callable | None) -> IvpResult:
    """Integrate y' = fun(y) from y0 at t = 0 to tf >= 0 with the RK45 pair.

    y0 is a finite float array and max_step is positive.  events(y), when
    given, returns the values of the event functions; each is terminal, and
    a sign change of any of them ends the run at its first root (found on
    the step's interpolant).  A run that takes more than MAX_STEPS steps,
    accepted and rejected, raises ValidationError.
    """
    t, y = 0.0, y0
    f_cur = fun(y)
    h_abs = float(_select_initial_step(fun, y, tf, max_step, f_cur))
    K = np.empty((7, y.size))

    ts, ys = [t], [y]
    g = None if events is None else events(y)
    status = None
    message = None
    steps = 0
    while status is None:
        t_old, y_old = t, y
        if t == tf:
            status = 0
        else:
            min_step = 10 * abs(math.nextafter(t, math.inf) - t)
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

                t_new = t + h_abs
                if t_new > tf:
                    t_new = tf
                h = t_new - t
                h_abs = abs(h)

                steps += 1
                if steps > MAX_STEPS:
                    raise ValidationError(f"the rk45 run needs more than "
                                          f"MAX_STEPS = {MAX_STEPS} steps")
                y_new, f_new = _rk_step(fun, y, f_cur, h, K)
                scale = ATOL + np.maximum(np.abs(y), np.abs(y_new)) * RTOL
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
            if t >= tf:
                status = 0

        if events is not None:
            g_new = events(y)
            # the events whose value went up to or down to zero
            active = [i for i, (a, b) in enumerate(zip(g, g_new))
                      if (a <= 0 and b >= 0) or (a >= 0 and b <= 0)]
            if active:
                sol = _dense_output(t_old, t, y_old, y, K)
                status = 1
                t = min(_event_root(events, sol, i, t_old, t) for i in active)
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


def brentq(f: Callable[[float], float], a: float, b: float) -> float:
    """A root of f in [a, b] by Brent's method, as scipy.optimize.brentq
    finds it with xtol = rtol = BRENT_TOL: the same points, in the same
    order, and the same errors (a ValueError for f(a), f(b) of one sign or a
    NaN value, a RuntimeError after BRENT_MAXITER iterations)."""

    def value(x: float) -> float:
        fx = f(x)
        if np.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return float(fx)

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

    for _ in range(BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and _signbit(fpre) != _signbit(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (BRENT_TOL + BRENT_TOL * abs(xcur)) / 2
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
    raise RuntimeError(f"Failed to converge after {BRENT_MAXITER} iterations.")
