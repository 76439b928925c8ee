"""The rk4 step that plain floats cannot finish is redone with evaluate, and
the redone step can enter a singular locus; an unknown method is refused."""

import pytest

from spraydirac import motion
from spraydirac.errors import ValidationError
from spraydirac.expr import ZERO, Context, Point, parse
from spraydirac.geometry import SemiSpray
from spraydirac.motion import integrate_sode


def _edge():
    ctx = Context(dim=1)
    return ctx, SemiSpray(1, (ZERO,), (parse("x1 - 1.7905e308", ctx),))


def test_a_redone_step_that_enters_a_locus_aborts(monkeypatch):
    ctx, S = _edge()
    redone = []
    real = motion._exact_step

    def spy(*args):
        redone.append(real(*args))
        return redone[-1]

    monkeypatch.setattr(motion, "_exact_step", spy)
    # the state sum overflows, so floats cannot finish the first step; the
    # redone step crosses x1 = 1.7905e308, where the locus value changes sign
    traj = integrate_sode(S, Point((1.79e308,), (1e307,)), 0.01, 3, ctx=ctx)
    assert redone == [()]
    assert traj.aborted
    assert traj.abort_reason == "state entered a singular locus"
    assert len(traj.states) == 1


def test_an_unknown_method_is_refused():
    ctx, S = _edge()
    with pytest.raises(ValidationError, match="^unknown integration method 'euler'$"):
        integrate_sode(S, Point((0.0,), (1.0,)), 0.01, 3, method="euler", ctx=ctx)
