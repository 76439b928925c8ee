"""The references of the rk45 locus rule: the event machinery it replaced,
as it stood.

- solve_ivp: scipy's terminal events, each locus value's sign change ended
  the run on the root of the step's interpolant (_dense_output), found by
  Brent's method (brentq), and appended that root row;
- _integrate_rk45: motion's rk45 run on those events (this solve_ivp), whose post-filter
  evaluated the loci again on every row and cut the first non-finite row or
  row within LOCUS_GUARD of a locus.

The tableau, the step and the step-size control are the package's.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import Callable

import numpy as np

from spraydirac.errors import EvalDomainError, ValidationError
from spraydirac.motion import Trajectory, _near_locus
from spraydirac.rk45 import (
    ATOL, E, ERROR_EXPONENT, MAX_FACTOR, MAX_STEPS, MESSAGES, MIN_FACTOR, RTOL, SAFETY,
    TOO_SMALL_STEP, IvpResult, _norm, _rk_step, _select_initial_step,
)

BRENT_MAXITER = 100
BRENT_TOL = 4 * sys.float_info.epsilon   # brentq's xtol and rtol
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


def _integrate_rk45(S, f, loci, z0, params, dt, steps) -> Trajectory:
    T = dt * steps
    aborted = False
    reason = None
    # A terminal event on each locus's signed value: a sign change is
    # root-findable, unlike the |value| - guard dip, which a coarse step
    # can hop over entirely.
    events = functools.partial(loci, params=params) if S.singular_loci else None
    try:
        # numpy warns where the field overflows; the abort reason says it
        with np.errstate(all="ignore"):
            sol = solve_ivp(f, T, z0, max(dt, T / 50.0), events)
    except EvalDomainError as exc:
        return Trajectory(S.n, np.array([0.0]), np.array([z0]), "rk45", dt,
                          params, True, f"evaluation failed: {exc}")
    times = sol.t
    states = sol.y.T
    if sol.status == 1:
        aborted, reason = True, "state entered a singular locus"
    elif sol.status < 0:
        aborted, reason = True, f"integrator failure: {sol.message}"
    finite = np.isfinite(states).all(axis=1).tolist()
    bad = [i for i, (ok, row) in enumerate(zip(finite, states))
           if not ok or _near_locus(loci(row, params))]
    if bad:
        cut = bad[0]
        times, states = times[:cut], states[:cut]
        aborted, reason = True, "state entered a singular locus"
    # row 0 is z0, which is finite and clear of the loci, so no cut drops it
    keep = np.concatenate([[True], np.diff(times) > 0])
    return Trajectory(S.n, times[keep], states[keep], "rk45", dt, params,
                      aborted, reason)
