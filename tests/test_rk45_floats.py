"""The rk45 port's scalar bookkeeping on Python floats, at a start where a
float would raise where scipy's numpy scalar gives inf."""

import numpy as np
import pytest

from spraydirac import rk45


def test_an_overflowing_first_norm_starts_as_in_scipy():
    sp = pytest.importorskip("scipy.integrate")

    # f0/scale overflows the norm d1 of the initial-step guess: its h0 is 0,
    # and d2 = norm/h0 must be inf, not a ZeroDivisionError
    def fun(z):
        return np.array([z[1], -1e200])

    z0 = np.array([0.0, 1.0])
    with np.errstate(all="ignore"):
        want = sp.solve_ivp(lambda t, z: fun(z), (0.0, 1.0), z0, method="RK45",
                            rtol=rk45.RTOL, atol=rk45.ATOL, max_step=0.02)
        got = list(rk45.accepted(fun, 1.0, z0, 0.02))
    assert want.status == 0
    assert np.array_equal([t for t, _ in got], want.t[1:])
    assert np.array_equal(np.array([y for _, y in got]).T, want.y[:, 1:])
