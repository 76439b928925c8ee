"""One locus rule for both integrators: motion._entered, a locus value
within LOCUS_GUARD of zero or of another sign than at the start.

integrate_sode asks it at each state rk45.accepted yields, where rk45 once
ran scipy's terminal events, a Brent root search on the step's interpolant
and a post-filter (rk45_ref.py).  Where that reference does not
end at a locus, the runs are equal bit for bit; where it does, the rule
keeps its accepted states (its rows but an event's root row) up to the
first one the rule refuses."""

import math
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from spraydirac.errors import SingularLocusError, ValidationError  # noqa: E402
from spraydirac.expr import LOCUS_GUARD, Context, Point, compile_exprs, parse  # noqa: E402
from spraydirac.geometry import SemiSpray  # noqa: E402
from spraydirac.motion import Trajectory, _entered, _rk45_field, integrate_sode  # noqa: E402

import rk45_ref as ref  # noqa: E402

LOCUS = "state entered a singular locus"
TENTHS = st.integers(-20, 20).map(lambda k: f"({k}/10)")


@st.composite
def systems(draw):
    """(S, ctx, p0, dt, steps): a free, linear or quadratic spray of
    dimension 1 or 2 with one or two loci, each linear, cubic or steep
    (10^k*x1 with k up to 20), from a start on either side of them."""
    n = draw(st.integers(1, 2))
    ctx = Context(dim=n)
    kind = draw(st.sampled_from(["free", "linear", "quadratic"]))
    G = []
    for i in range(1, n + 1):
        if kind == "free":
            G.append("0")
        elif kind == "linear":
            G.append(f"{draw(TENTHS)}*x{i} + {draw(TENTHS)}*y{i}")
        else:
            G.append(f"{draw(TENTHS)}*y{i}^2 + {draw(TENTHS)}*y1*y{n}")
    loci = []
    for _ in range(draw(st.integers(1, 2))):
        shape = draw(st.sampled_from(["linear", "cubic", "steep"]))
        if shape == "linear":
            loci.append(f"{draw(TENTHS)}*x1 + {draw(TENTHS)}*x{n} + {draw(TENTHS)}")
        elif shape == "cubic":
            loci.append(f"x1^3 - {draw(TENTHS)}/10")
        else:
            loci.append(f"10^{draw(st.integers(0, 20))}*x1")
    S = SemiSpray(n, tuple(parse(g, ctx) for g in G),
                  singular_loci=tuple(parse(s, ctx) for s in loci))
    start = st.integers(-100, 100).map(lambda k: k / 100)
    x = tuple(draw(start) for _ in range(n))
    y = [1.5 * draw(start) for _ in range(n)]
    # most runs head for x1 = 0, near which the cubic and steep loci lie
    if draw(st.integers(0, 3)):
        y[0] = -math.copysign(y[0], x[0])
    dt = draw(st.sampled_from([0.01, 0.05]))
    steps = draw(st.sampled_from([0, 20, 80, 400, 400]))
    return S, ctx, Point(x, tuple(y)), dt, steps


def _outcome(run):
    """The trajectory, or the type and text of a ValidationError, or of the
    ValueError and RuntimeError of the reference's root search."""
    try:
        return run()
    except (ValidationError, ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def _reference(S, ctx, p0, dt, steps, solves=None):
    """The parent's rk45 run, from integrate_sode's own start; solves, when
    given, receives the result of its solve_ivp."""
    g, loci = compile_exprs(S.G, ctx), compile_exprs(S.singular_loci, ctx)
    z0 = np.concatenate([np.asarray(p0.x, float), np.asarray(p0.y, float)])

    def solve(*args):
        sol = solve_ivp(*args)
        if solves is not None:
            solves.append(sol)
        return sol

    solve_ivp = ref.solve_ivp
    with mock.patch.object(ref, "solve_ivp", solve):
        return _outcome(lambda: ref._integrate_rk45(S, _rk45_field(g, S.n, {}), loci, z0,
                                                    {}, dt, steps))


def _run(S, ctx, p0, dt, steps, method):
    try:
        return _outcome(lambda: integrate_sode(S, p0, dt, steps, method, ctx))
    except SingularLocusError:
        assume(False)


def _refused(S, ctx, rows):
    """For each row, whether the locus rule refuses it, against the start's
    signs (the rows' first)."""
    loci = compile_exprs(S.singular_loci, ctx)
    vals = [loci(row, {}) for row in rows]
    below = tuple(v < 0 for v in vals[0])
    return [_entered(v, below) for v in vals]


def _kept_rows_clear_the_loci(S, ctx, traj):
    loci = compile_exprs(S.singular_loci, ctx)
    vals = [loci(row, {}) for row in traj.states]
    signs = {tuple(v < 0 for v in row) for row in vals}
    return all(abs(v) > LOCUS_GUARD for row in vals for v in row) and len(signs) == 1


PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)


@PROPERTY
@given(systems())
def test_rk45_keeps_the_reference_rows_up_to_the_first_the_rule_refuses(system):
    S, ctx, p0, dt, steps = system
    ours = _run(S, ctx, p0, dt, steps, "rk45")
    solves = []
    theirs = _reference(S, ctx, p0, dt, steps, solves)
    failed = (isinstance(theirs, tuple)
              or (theirs.abort_reason or "").startswith("evaluation failed"))
    if failed and isinstance(ours, Trajectory) and ours.abort_reason == LOCUS:
        # the reference went on past a row within the guard and failed
        # after it; the rule ends there, as rk4 does
        assert not any(_refused(S, ctx, ours.states))
        return
    if isinstance(theirs, tuple):
        assert ours == theirs
        return
    # the reference's accepted states: all its rows but the root row of a
    # terminal event, where the post-filter kept it
    cut = len(theirs.times)
    if solves and solves[0].status == 1 and cut == len(solves[0].t):
        cut -= 1
    if theirs.abort_reason == LOCUS:
        cut = next((i for i, r in enumerate(_refused(S, ctx, theirs.states[:cut])) if r), cut)
    assert ours.times.tobytes() == theirs.times[:cut].tobytes()
    assert ours.states.tobytes() == theirs.states[:cut].tobytes()
    assert (ours.aborted, ours.abort_reason) == (theirs.aborted, theirs.abort_reason)


def _steep():
    ctx = Context(dim=1)
    S = SemiSpray(1, (parse("0", ctx),), singular_loci=(parse("10^14*x1", ctx),))
    return S, ctx, Point((-0.4,), (0.9,)), 0.01, 400


def test_on_a_steep_locus_rk45_ends_before_the_row_across_it():
    # the reference's root row holds x1 = 1.39e-17, where the locus reads
    # +0.0014: outside the guard, and of the other sign than at the start
    S, ctx, p0, dt, steps = _steep()
    theirs = _reference(S, ctx, p0, dt, steps)
    assert theirs.abort_reason == LOCUS and 0 < theirs.states[-1, 0] < 1e-16
    ours = integrate_sode(S, p0, dt, steps, "rk45", ctx)
    assert ours.abort_reason == LOCUS
    assert ours.states.tobytes() == theirs.states[:-1].tobytes()


def test_a_run_that_failed_past_the_guard_ends_at_the_guard():
    # G1 = (x1 - 1/20)^1/2 is refused below x1 = 1/20, and the locus x1/100
    # is within the guard below x1 = 1/10: the reference stepped on from a
    # row within the guard, a stage state went below 1/20, and evaluate's
    # error left it only the start
    ctx = Context(dim=1)
    S = SemiSpray(1, (parse("(x1 - 1/20)^1/2", ctx),), singular_loci=(parse("x1/100", ctx),))
    p0 = Point((0.5,), (-1.0,))
    theirs = _reference(S, ctx, p0, 0.01, 100)
    assert len(theirs.times) == 1
    assert theirs.abort_reason == "evaluation failed: fractional power of a negative base"
    ours = integrate_sode(S, p0, 0.01, 100, "rk45", ctx)
    assert ours.abort_reason == LOCUS
    assert 0.1 < ours.states[-1, 0] < 0.11


def test_a_flat_root_ends_at_the_locus_where_the_root_search_failed():
    # x1^3 is flat at its root: the reference's Brent search on the step
    # that crossed it ran out of iterations
    ctx = Context(dim=1)
    S = SemiSpray(1, (parse("0", ctx),), singular_loci=(parse("x1^3", ctx),))
    p0 = Point((0.9,), (-1.0,))
    assert (_reference(S, ctx, p0, 0.05, 400)
            == (RuntimeError, "Failed to converge after 100 iterations."))
    ours = integrate_sode(S, p0, 0.05, 400, "rk45", ctx)
    assert ours.abort_reason == LOCUS
    assert ours.states[-1, 0] ** 3 > LOCUS_GUARD


@PROPERTY
@given(systems(), st.sampled_from(["rk4", "rk45"]))
@example(_steep(), "rk45")
def test_every_kept_row_clears_the_guard_with_the_start_signs(system, method):
    S, ctx, p0, dt, steps = system
    traj = _run(S, ctx, p0, dt, steps, method)
    assume(not isinstance(traj, tuple))
    assert _kept_rows_clear_the_loci(S, ctx, traj)
