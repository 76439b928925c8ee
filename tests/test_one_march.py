"""One march for both integrators: a run of integrate_sode holds exactly the
states its integrator accepted, up to the end of the run, and the end's
reason is what the integrator's next step does.

For rk4 the integrator is the generated step, with _exact_step where floats
cannot finish it; for rk45 it is rk45.accepted on _rk45_field, whose yields
the run's rows are a prefix of."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from spraydirac import rk45  # noqa: E402
from spraydirac.errors import EvalDomainError, SingularLocusError  # noqa: E402
from spraydirac.expr import (  # noqa: E402
    Context, Point, _NonFinite, compile_exprs, compile_rk4_step, evaluate, parse,
)
from spraydirac.geometry import SemiSpray  # noqa: E402
from spraydirac.motion import _entered, _exact_step, _rk45_field, integrate_sode  # noqa: E402

LOCUS = "state entered a singular locus"
NON_FINITE = "state became non-finite"

# each ends some runs on its own reason: a fractional power below its root,
# a blow-up in finite time, a division by zero, a field that overflows, or
# none at all
FIELDS = ["(x1 - 1/20)^1/2", "(x1 - 1/20)^1/2 + y1", "-y1^2", "-3*y1^2 + x1",
          "y1^2/x1", "10^308 + y1", "-10^307*x1^3", "x1 + y1/2", "0"]
LOCI = [None, "x1 - 1/10", "y1 + 1/2", "x1^3 - 1/100"]


def _system(G, locus, x, y, dt, steps):
    ctx = Context(dim=1)
    S = SemiSpray(1, (parse(G, ctx),),
                  singular_loci=() if locus is None else (parse(locus, ctx),))
    return S, ctx, Point((x,), (y,)), dt, steps


@st.composite
def systems(draw):
    """(S, ctx, p0, dt, steps) in dimension 1, from a start with x1 in
    [-1, 1] and y1 in [-2, 2]."""
    coord = st.integers(-100, 100).map(lambda k: k / 100)
    return _system(draw(st.sampled_from(FIELDS)), draw(st.sampled_from(LOCI)), draw(coord),
                   2 * draw(coord), draw(st.sampled_from([0.01, 0.05])),
                   draw(st.sampled_from([0, 20, 100])))


def _next_state(advance):
    """What the integrator's next step gives: its state as a tuple of
    floats, or the reason it ends the run."""
    try:
        z = advance()
    except _NonFinite:
        return NON_FINITE
    except EvalDomainError as exc:
        return f"evaluation failed: {exc}"
    except rk45.StepSizeError as exc:
        return f"integrator failure: {exc}"
    return LOCUS if z == () else tuple(z)


def _rk4_steps(S, ctx, z0, dt, below):
    """The state after each step of rk4 from z0, or the reason it ends."""
    step = compile_rk4_step(S.G, S.singular_loci, ctx, dt)
    z = tuple(z0)
    while True:
        def advance(z=z):
            z_next = step(z, {}, below)
            return _exact_step(S, z, {}, dt, ctx, below) if z_next is None else z_next
        z = _next_state(advance)
        yield z


def _rk45_steps(S, ctx, z0, T, dt, below):
    """rk45.accepted's states from z0, each refused by the locus rule
    replaced by its reason, then the reason it ends, or None at the horizon."""
    loci = compile_exprs(S.singular_loci, ctx)
    accepted = rk45.accepted(_rk45_field(compile_exprs(S.G, ctx), S.n, {}), T, np.array(z0),
                             max(dt, T / 50.0))

    def advance():
        t, z = next(accepted)
        return () if _entered(loci(z, {}), below) else (t, *z.tolist())

    while True:
        try:
            yield _next_state(advance)
        except StopIteration:
            yield None


PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)


@PROPERTY
@given(systems(), st.sampled_from(["rk4", "rk45"]))
@example(_system("(x1 - 1/20)^1/2", None, 0.5, -1.0, 0.01, 100), "rk45")
@example(_system("-y1^2", None, 1.0, 1.0, 0.01, 200), "rk45")
@example(_system("-y1^2", None, 1.0, 1.0, 0.01, 200), "rk4")
@example(_system("10^308 + y1", None, 1.0, 0.2, 0.01, 20), "rk45")
@example(_system("10^308 + y1", None, 1.0, 0.2, 0.01, 20), "rk4")
@example(_system("x1 + y1/2", "x1 - 1/10", 0.5, -1.0, 0.01, 100), "rk45")
def test_a_run_holds_the_states_its_integrator_accepted(system, method):
    S, ctx, p0, dt, steps = system
    try:
        traj = integrate_sode(S, p0, dt, steps, method, ctx)
    except SingularLocusError:
        assume(False)
    z0 = (*p0.x, *p0.y)
    below = tuple(evaluate(s, p0, ctx) < 0 for s in S.singular_loci)
    with np.errstate(all="ignore"):
        if method == "rk4":
            taken = _rk4_steps(S, ctx, z0, dt, below)
            kept = [(k * dt, *next(taken)) for k in range(1, len(traj.times))]
            end = next(taken) if len(traj.times) <= steps else None
        else:
            taken = _rk45_steps(S, ctx, z0, dt * steps, dt, below)
            kept = [next(taken) for _ in range(len(traj.times) - 1)]
            end = next(taken)
    assert traj.states[0].tolist() == list(z0)
    assert [tuple(r) for r in np.column_stack([traj.times, traj.states])[1:].tolist()] == kept
    assert (traj.aborted, traj.abort_reason) == (end is not None, end)
