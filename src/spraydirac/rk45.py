"""The Dormand-Prince 5(4) pair, as scipy runs it, with a stop test.

A port of scipy 1.17.1's ``solve_ivp(method="RK45")`` limited to what
``motion._integrate_rk45`` asks of it: an autonomous system run forward
from t = 0 with the fixed tolerances RTOL and ATOL and a ``max_step``, no
``t_eval`` and no dense output.  It checks none of its inputs: motion
passes a finite start, a horizon tf >= 0 and a positive max_step.  The
tableau, the step (``rk_step``), the initial step and the step-size control
are written with the same BLAS reductions and IEEE operations in the same
order (scalars as Python floats, the same doubles), so a run without a stop
test has scipy's accepted times and states, status and message bit for bit.

In place of scipy's events, a stop test is asked at each accepted state
before it is kept.  It ends the run without that state, with the status
and message of scipy's terminal event; where scipy ends on the root of a
sign change, a stop test on that sign change keeps scipy's rows but the
root row.  It sees only the accepted states, as step-based event location
does (Hairer, Norsett and Wanner, Solving Ordinary Differential Equations
I, II.6), and looks for no root inside a step.

Dormand and Prince, "A family of embedded Runge-Kutta formulae", J. Comput.
Appl. Math. 6 (1980).
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import ValidationError

__all__ = ["IvpResult", "solve_ivp"]

# Relative and absolute error tolerances of a step.
RTOL = 1e-9
ATOL = 1e-12

# Multiply steps computed from asymptotic behaviour of errors by this.
SAFETY = 0.9
MIN_FACTOR = 0.2  # Minimum allowed decrease in a step size.
MAX_FACTOR = 10  # Maximum allowed increase in a step size.
ERROR_EXPONENT = -1 / (4 + 1)  # the error estimator is of order 4
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

TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
MESSAGES = {0: "The solver successfully reached the end of the integration interval.",
            1: "A termination event occurred."}


class IvpResult(NamedTuple):
    """t of shape (k,) and y of shape (n, k), as solve_ivp returns them;
    status 0 (end reached), 1 (the stop test ended the run) or -1 (step
    too small), with scipy's message for it."""

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


def solve_ivp(fun: Callable, tf: float, y0: np.ndarray, max_step: float,
              stop: Callable[[np.ndarray], bool] | None) -> IvpResult:
    """Integrate y' = fun(y) from y0 at t = 0 to tf >= 0 with the RK45 pair.

    y0 is a finite float array and max_step is positive.  stop(y), when
    given, is asked at each accepted state before it is kept; True ends the
    run without it, with status 1.  A run that takes more than MAX_STEPS
    steps, accepted and rejected, raises ValidationError.
    """
    t, y = 0.0, y0
    f_cur = fun(y)
    h_abs = float(_select_initial_step(fun, y, tf, max_step, f_cur))
    K = np.empty((7, y.size))

    ts, ys = [t], [y]
    status = None
    message = None
    steps = 0
    while status is None:
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
            if stop is not None and stop(y_new):
                status = 1
                break
            t, y, f_cur = t_new, y_new, f_new
            if t >= tf:
                status = 0

        ts.append(t)
        ys.append(y)

    return IvpResult(np.array(ts), np.vstack(ys).T, status,
                     MESSAGES.get(status, message))
