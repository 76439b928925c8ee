"""The in-package RK45 integrator and null space against the scipy functions
they replace.  Where scipy's terminal events end a run on the root of a sign
change, a stop test on the same sign change ends ours on the state before.

bench/expected.json was recorded with scipy 1.17.1 and numpy 2.4.6; with
those versions the ports must agree bit for bit.  With any other scipy the
comparison is to a relative tolerance.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

scipy = pytest.importorskip("scipy")
import scipy.linalg  # noqa: E402
from scipy.integrate import solve_ivp as scipy_solve_ivp  # noqa: E402

from spraydirac import rk45  # noqa: E402
from spraydirac.errors import ValidationError  # noqa: E402
from spraydirac.dirac import POINTWISE_TOL, _matrix_rank, _null_space  # noqa: E402

RECORDED = scipy.__version__ == "1.17.1"
# the SVD bits also depend on the LAPACK that numpy links
RECORDED_SVD = RECORDED and np.__version__ == "2.4.6"

COEFF = st.floats(-2, 2, allow_nan=False)


@st.composite
def systems(draw):
    """z' = W z + c * sin(z) (no blow-up), 0-2 linear event functions, a
    horizon of 0, a fraction of a step or several time units."""
    m = 2 * draw(st.integers(1, 3))
    W = np.array(draw(st.lists(COEFF, min_size=m * m, max_size=m * m))).reshape(m, m)
    c = draw(st.floats(-1, 1))
    z0 = np.array(draw(st.lists(COEFF, min_size=m, max_size=m)))
    k = draw(st.integers(0, 2))
    ev = np.array(draw(st.lists(COEFF, min_size=k * m, max_size=k * m))).reshape(k, m)
    # each event starts a little off zero, so that most runs cross one; a
    # stop test is asked only at states after the start, as motion starts
    # clear of its loci
    start = np.array(draw(st.lists(st.floats(-0.05, 0.05).filter(lambda v: abs(v) >= 1e-3),
                                   min_size=k, max_size=k)))
    ev = np.column_stack([ev, start - ev @ z0])
    T = draw(st.sampled_from([4.0, 0.37, 1e-3, 0.0]))
    dt = draw(st.sampled_from([0.001, 0.01, 0.1]))
    return W, c, z0, ev, T, dt


def _sign_change_stop(events, z0):
    """A stop test that holds where some event value reached or crossed zero
    since the last state kept, scipy's test for an active event."""
    g = events(z0)

    def stop(z):
        nonlocal g
        g_new = events(z)
        if any(a <= 0 <= b or b <= 0 <= a for a, b in zip(g, g_new)):
            return True
        g = g_new
        return False

    return stop


def _solve_both(fun, T, z0, dt, events):
    """(t, y, status, message) or the exception, from scipy with a terminal
    event for each of events(z) and from the port with their sign-change
    stop test, for the autonomous fun(z)."""
    scipy_events = []
    for i in range(len(events(z0)) if events else 0):
        def ev(t, z, i=i):
            return events(z)[i]
        ev.terminal = True
        ev.direction = 0
        scipy_events.append(ev)
    stop = _sign_change_stop(events, z0) if events else None
    out = []
    for solve in (
            lambda: scipy_solve_ivp(lambda t, z: fun(z), (0.0, T), z0, method="RK45",
                                    rtol=rk45.RTOL, atol=rk45.ATOL, events=scipy_events,
                                    max_step=max(dt, T / 50.0)),
            lambda: rk45.solve_ivp(fun, T, z0, max(dt, T / 50.0), stop)):
        try:
            sol = solve()
            out.append((sol.t, sol.y, sol.status, sol.message))
        except (ValueError, RuntimeError) as exc:
            out.append((type(exc), str(exc)))
    return out


def _assert_same_run(ours, theirs):
    if len(theirs) == 2:
        assert ours == theirs
        return
    t, y, status, message = ours
    their_t, their_y = theirs[:2]
    if theirs[2] == 1:
        # scipy appends the event's root; the stop test keeps the states
        # before the one that crossed
        their_t, their_y = their_t[:-1], their_y[:, :-1]
    assert (status, message) == theirs[2:]
    if RECORDED:
        assert t.tobytes() == their_t.tobytes()
        assert y.shape == their_y.shape and y.tobytes() == their_y.tobytes()
    else:
        assert t[-1] == pytest.approx(their_t[-1], rel=1e-6, abs=1e-9)
        np.testing.assert_allclose(y[:, -1], their_y[:, -1], rtol=1e-5, atol=1e-8)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(systems())
def test_rk45_port_runs_as_solve_ivp(system):
    W, c, z0, ev, T, dt = system

    def fun(z):
        return W @ z + c * np.sin(z)

    def events(z):
        return tuple(ev[:, :-1] @ z + ev[:, -1])

    theirs, ours = _solve_both(fun, T, z0, dt, events if len(ev) else None)
    _assert_same_run(ours, theirs)


@pytest.mark.parametrize("z0", [0.5, 1.0, 2.0])
def test_a_blow_up_fails_with_scipy_message(z0):
    # x'' = 3 x^2 blows up before t = 3: the step falls below the spacing of
    # the floats near the pole, and both end with status -1
    def fun(z):
        return np.array([z[1], 3.0 * z[0] ** 2])

    with np.errstate(all="ignore"):
        theirs, ours = _solve_both(fun, 3.0, np.array([z0, 0.0]), 0.06, None)
    assert ours[2] == -1
    _assert_same_run(ours, theirs)


def test_a_run_past_max_steps_raises_validation_error():
    # an oscillator with max_step 0.05: the steps it takes, accepted and
    # rejected, are the calls of the step function
    def run():
        return rk45.solve_ivp(lambda z: np.array([z[1], -z[0]]), 4.0,
                              np.array([1.0, 0.0]), 0.05, None)

    calls = []
    step = rk45._rk_step
    with mock.patch.object(rk45, "_rk_step", lambda *a: calls.append(1) or step(*a)):
        whole = run()
    # some are rejected, so a count of the accepted ones alone stays under
    # the lowered bound below
    assert len(calls) - 1 > len(whole.t) - 1 > 50
    with mock.patch.object(rk45, "MAX_STEPS", len(calls)):
        at_bound = run()
    assert at_bound.t.tobytes() == whole.t.tobytes()
    assert at_bound.y.tobytes() == whole.y.tobytes()
    with mock.patch.object(rk45, "MAX_STEPS", len(calls) - 1):
        with pytest.raises(ValidationError, match=f"MAX_STEPS = {len(calls) - 1} steps$"):
            run()


def test_a_terminal_event_ends_on_the_root_of_its_sign_change():
    def fun(z):
        return np.array([z[1], -z[0]])

    # the first two change sign in the same step, the second one first
    def events(z):
        return (z[0] - 0.4999, z[0] - 0.5, z[1] + 2.0)

    theirs, ours = _solve_both(fun, 5.0, np.array([1.0, 0.0]), 0.01, events)
    assert ours[2:] == (1, "A termination event occurred.")
    # x = cos t crosses 1/2 at t = pi/3: scipy ends on that root, the port
    # on the last state before it
    assert theirs[0][-1] == pytest.approx(math.pi / 3, rel=1e-9)
    assert ours[0][-1] < math.pi / 3
    _assert_same_run(ours, theirs)


# -- null spaces and ranks ----------------------------------------------------

@st.composite
def matrices(draw):
    """A product of an r x k and a k x c factor (rank <= k), sometimes
    scaled far up or down, with empty shapes included."""
    r, k, c = draw(st.integers(0, 7)), draw(st.integers(0, 7)), draw(st.integers(0, 7))
    left = draw(st.lists(COEFF, min_size=r * k, max_size=r * k))
    right = draw(st.lists(COEFF, min_size=k * c, max_size=k * c))
    M = np.reshape(left, (r, k)) @ np.reshape(right, (k, c))
    return M * draw(st.sampled_from([1.0, 1e-12, 1e8]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(matrices())
# a singular value between eps * min(M, N) and eps * max(M, N) of the largest
@example(np.array([[1.0, 0, 0, 0, 0, 0, 0], [0, 1e-15, 0, 0, 0, 0, 0]]))
def test_null_space_and_rank_match_scipy_linalg(M):
    ours, theirs = _null_space(M), scipy.linalg.null_space(M)
    assert ours.shape == theirs.shape
    old_rank = (0 if M.size == 0 else int(np.sum(
        scipy.linalg.svdvals(M) > POINTWISE_TOL * max(1.0, float(np.max(np.abs(M)))))))
    assert _matrix_rank(M) == old_rank
    if RECORDED_SVD:
        assert ours.tobytes() == theirs.tobytes()
    else:
        # a basis is fixed only up to rotation: compare the projectors
        np.testing.assert_allclose(ours @ ours.T, theirs @ theirs.T, atol=1e-8)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_a_non_finite_matrix_raises_scipy_error(bad):
    M = np.array([[1.0, bad], [0.0, 1.0]])
    for ours, theirs in ((_null_space, scipy.linalg.null_space),
                         (_matrix_rank, scipy.linalg.svdvals)):
        with pytest.raises(ValueError) as expected:
            theirs(M)
        with pytest.raises(ValueError, match=str(expected.value)):
            ours(M)
