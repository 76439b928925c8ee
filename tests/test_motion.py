"""Flow invariants, the annihilation residual, and trajectory checks."""

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from spraydirac.errors import (
    DistributionMembershipError, EvalDomainError, SingularLocusError,
    ValidationError,
)
from spraydirac.expr import (
    ONE, ZERO, Const, Context, Point, SampleConfig, Tri, compile_exprs, parse,
    sample_points, simplify,
)
from spraydirac.forms import TwoForm
from spraydirac import motion
from spraydirac.geometry import SemiSpray, berwald_frame
from spraydirac.motion import (
    conservation_drift, hamiltonian_certificate, integrate_sode,
    LOCUS_GUARD, is_constant_of_motion, residual,
)
from spraydirac.problemfile import load_problem_file, parse_problem_file


CTX2 = Context(dim=2)
POS_CFG = SampleConfig(coord_boxes={"y1": (0.5, 2.0), "y2": (0.5, 2.0)})


def _spray2():
    return SemiSpray(2, (parse("0", CTX2), parse("y2^2", CTX2)),
                     (parse("y1", CTX2), parse("y2", CTX2)))


def _semispray3(a_val):
    ctx = Context(dim=3, params={"A": a_val})
    G = tuple(parse(t, ctx) for t in ("A*y1/y3", "A*y2/y3", "A"))
    return ctx, SemiSpray(3, G, (parse("y3", ctx),))


def _opaque2():
    ctx = Context(dim=2)
    ctx.declare_function("f")
    G = (parse("(y1^2)*f'(x1)/(2*f(x1))", ctx), parse("f(x1)", ctx))
    return ctx, SemiSpray(2, G)


INVARIANTS_2D = [
    "y1",
    "-(2*y2*x1 - y1)/(y1*y2)",
    "x2 - (1/2)*ln(y1/y2)",
]


@pytest.mark.parametrize("text", INVARIANTS_2D)
def test_fiber_decay_invariants(text):
    S = _spray2()
    H = parse(text, CTX2)
    assert is_constant_of_motion(S, H, CTX2, POS_CFG) is Tri.PROVEN_ZERO


def test_flow_derivative_detects_nonconstants():
    S = _spray2()
    assert is_constant_of_motion(S, parse("x1", CTX2), CTX2,
                                 POS_CFG) is Tri.PROVEN_NONZERO


def test_opaque_energy_is_conserved():
    ctx, S = _opaque2()
    H = parse("2*f(x1)*y1", ctx)
    assert is_constant_of_motion(S, H, ctx) is Tri.PROVEN_ZERO


def _vertical_drop_data():
    ctx, S = _semispray3(0.3)
    fr = berwald_frame(S)
    D = (fr.horizontal[0], fr.horizontal[1], S.vector_field())
    omega = TwoForm.single(3, 2, 5, 2)
    H = parse("y3^2 + 4*A*x3", ctx)
    cfg = SampleConfig(coord_boxes={"y3": (0.6, 2.0)})
    return ctx, S, D, omega, H, cfg


def test_residual_vanishes_on_distribution():
    ctx, S, D, omega, H, cfg = _vertical_drop_data()
    rep = residual(S, omega, H, D, ctx, cfg)
    assert rep.residual_all_zero
    assert rep.numeric_max_residual <= 1e-9
    assert rep.s_of_h is Tri.PROVEN_ZERO
    assert not rep.trivial


def test_residual_reports_per_generator():
    S = _spray2()
    rep = residual(S, TwoForm.zero(2), parse("x1", CTX2), None, CTX2, POS_CFG)
    assert rep.residual_components[0] == ONE
    assert rep.residual_components[1] == ZERO
    assert rep.residual_verdicts[0] is Tri.PROVEN_NONZERO
    assert rep.residual_verdicts[1] is Tri.PROVEN_ZERO


def test_default_distribution_requires_homogeneity():
    ctx, S = _semispray3(0.3)
    with pytest.raises(ValidationError):
        residual(S, TwoForm.zero(3), parse("y3", ctx), None, ctx)


def test_flow_field_must_lie_in_span():
    S = _spray2()
    fr = berwald_frame(S)
    with pytest.raises(DistributionMembershipError):
        residual(S, TwoForm.zero(2), parse("y1", CTX2), (fr.horizontal[0],),
                 CTX2, POS_CFG)


def test_residual_is_linear_in_energy_and_form():
    S = _spray2()
    fr = berwald_frame(S)
    D = tuple(fr.horizontal)
    w1 = TwoForm.single(2, 0, 2, 1)
    w2 = TwoForm.single(2, 1, 3, parse("x1", CTX2))
    h1, h2 = parse("y1*y2", CTX2), parse("x2*y1", CTX2)
    joint = residual(S, w1 + w2, simplify(h1 + h2), D, CTX2, POS_CFG)
    first = residual(S, w1, h1, D, CTX2, POS_CFG)
    second = residual(S, w2, h2, D, CTX2, POS_CFG)
    for k in range(2):
        gap = simplify(joint.residual_components[k]
                       - first.residual_components[k]
                       - second.residual_components[k])
        assert gap == ZERO


def test_constant_energy_is_flagged_trivial():
    S = _spray2()
    rep = residual(S, TwoForm.zero(2), Const(5), None, CTX2, POS_CFG)
    assert rep.trivial
    assert rep.residual_all_zero


def test_free_particle_trajectory_is_linear():
    ctx = Context(dim=1)
    S = SemiSpray(1, (ZERO,))
    traj = integrate_sode(S, Point((0.0,), (1.0,)), 0.01, 100, "rk4", ctx)
    assert not traj.aborted
    assert traj.states[-1][0] == pytest.approx(1.0, abs=1e-14)
    assert conservation_drift(traj, parse("y1", ctx), ctx) <= 1e-14
    # position itself is not conserved along the same run
    assert conservation_drift(traj, parse("x1", ctx), ctx) > 0.1


def test_uniform_acceleration_matches_closed_form():
    ctx, S = _semispray3(0.3)
    p0 = Point((0.2, -0.4, 1.0), (0.3, 0.1, -1.0), params={"A": 0.3})
    T, dt = 2.0, 0.001
    traj = integrate_sode(S, p0, dt, int(T / dt), "rk4", ctx)
    assert not traj.aborted
    t = traj.times
    want_x3 = 1.0 + (-1.0) * t - 0.3 * t ** 2
    want_y3 = -1.0 - 0.6 * t
    assert np.max(np.abs(traj.states[:, 2] - want_x3)) <= 1e-10
    assert np.max(np.abs(traj.states[:, 5] - want_y3)) <= 1e-10


def test_fiber_decay_matches_closed_form():
    S = _spray2()
    p0 = Point((0.0, 0.0), (1.0, 1.0))
    traj = integrate_sode(S, p0, 0.001, 1000, "rk4", CTX2)
    assert not traj.aborted
    t = traj.times
    want = 1.0 / (1.0 + 2.0 * t)
    assert np.max(np.abs(traj.states[:, 3] - want)) <= 1e-8


@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_integration_stops_at_the_locus(method):
    # the third fiber coordinate decreases linearly and crosses zero
    ctx, S = _semispray3(0.3)
    p0 = Point((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), params={"A": 0.3})
    traj = integrate_sode(S, p0, 0.01, 400, method, ctx)
    assert traj.aborted
    assert "locus" in traj.abort_reason
    assert traj.times[-1] < 2.0
    assert traj.states[-1][5] > 0.0


def test_initial_point_on_locus_rejected():
    S = _spray2()
    with pytest.raises(SingularLocusError):
        integrate_sode(S, Point((0.0, 0.0), (1.0, 0.0)), 0.01, 10, "rk4", CTX2)


@pytest.mark.filterwarnings("ignore:overflow")
def test_blowup_aborts_before_nonfinite_states():
    S = _spray2()
    traj = integrate_sode(S, Point((0.0, 0.0), (1.0, -1.0)), 0.01, 200,
                          "rk4", CTX2)
    assert traj.aborted
    assert np.all(np.isfinite(traj.states))


def test_energy_drift_shrinks_at_fourth_order():
    ctx = Context(dim=1)
    S = SemiSpray(1, (parse("sin(x1)/2", ctx),))
    H = parse("(y1^2)/2 - cos(x1)", ctx)
    p0 = Point((2.2,), (0.4,))
    drifts = []
    for dt in (0.02, 0.01, 0.005):
        traj = integrate_sode(S, p0, dt, int(round(2.0 / dt)), "rk4", ctx)
        assert not traj.aborted
        drifts.append(conservation_drift(traj, H, ctx))
    for coarse, fine in zip(drifts, drifts[1:]):
        assert 11.0 <= coarse / fine <= 21.0


def test_certificate_on_nonintegrable_distribution():
    ctx, S, D, omega, H, cfg = _vertical_drop_data()
    rep = hamiltonian_certificate(S, omega, H, D, None, ctx, cfg)
    assert rep.residual_all_zero
    assert rep.d_integrable is Tri.PROVEN_NONZERO
    assert rep.omega_closed is Tri.PROVEN_ZERO
    assert rep.overall == "no"
    assert rep.structure is not None
    assert rep.structure.gauge_form == omega.to_coordinates()
    # soundness: annihilation on a family containing the flow field forces
    # conservation regardless of the failed closure leg
    assert rep.s_of_h is Tri.PROVEN_ZERO


def test_certificate_accepts_flat_full_tangent_setup():
    ctx = Context(dim=2)
    S = SemiSpray(2, (ZERO, ZERO))
    from spraydirac.geometry import VectorField
    D = tuple(VectorField.coordinate(2, axis, k + 1)
              for axis in ("x", "y") for k in range(2))
    omega = TwoForm.single(2, 0, 2, 1) + TwoForm.single(2, 1, 3, 1)
    H = parse("(y1^2)/2 + (y2^2)/2", ctx)
    rep = hamiltonian_certificate(S, omega, H, D, None, ctx)
    assert rep.overall == "yes"
    assert not rep.trivial


def test_certificate_rejects_nonclosed_form():
    S = _spray2()
    omega_bad = TwoForm.single(2, 1, 2, parse("x1", CTX2))
    rep = hamiltonian_certificate(S, omega_bad, parse("y1", CTX2), None, None,
                                  CTX2, POS_CFG)
    assert rep.omega_closed is Tri.PROVEN_NONZERO
    assert rep.overall == "no"


def test_certificate_with_constant_energy_is_trivial_but_green():
    S = _spray2()
    rep = hamiltonian_certificate(S, TwoForm.zero(2), Const(5), None, None,
                                  CTX2, POS_CFG)
    assert rep.trivial
    assert rep.overall == "yes"


# -- the generated float step against the array RK4 loop it replaced --------

def _array_rk4(S, p0, dt, steps, ctx):
    """The numpy RK4 loop integrate_sode ran before its generated float step."""
    gfun = compile_exprs(S.G, ctx)
    loci_fun = compile_exprs(S.singular_loci, ctx) if S.singular_loci else None
    n = S.n

    def f(z, params):
        out = np.empty(2 * n)
        out[:n] = z[n:]
        out[n:] = [-2.0 * gi for gi in gfun(z, params)]
        return out

    def loci(z, params):
        return loci_fun(z, params) if loci_fun is not None else ()

    params = dict(ctx.params)
    params.update(p0.params)
    z = np.concatenate([np.asarray(p0.x, float), np.asarray(p0.y, float)])
    times, states = [0.0], [z.copy()]
    locus_signs = np.sign(loci(z, params))
    for k in range(steps):
        try:
            k1 = f(z, params)
            k2 = f(z + 0.5 * dt * k1, params)
            k3 = f(z + 0.5 * dt * k2, params)
            k4 = f(z + dt * k3, params)
        except EvalDomainError as exc:
            return times, states, True, f"evaluation failed: {exc}"
        z_next = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(z_next)):
            return times, states, True, "state became non-finite"
        vals = loci(z_next, params)
        signs = np.sign(vals)
        if (min((abs(v) for v in vals), default=np.inf) <= LOCUS_GUARD
                or np.any(signs * locus_signs < 0)):
            return times, states, True, "state entered a singular locus"
        locus_signs = signs
        z = z_next
        times.append((k + 1) * dt)
        states.append(z.copy())
    return times, states, False, None


def _assert_matches_array_loop(S, p0, dt, steps, ctx):
    traj = integrate_sode(S, p0, dt, steps, "rk4", ctx)
    times, states, aborted, reason = _array_rk4(S, p0, dt, steps, ctx)
    assert np.array_equal(traj.times, np.array(times))
    assert np.array_equal(traj.states, np.array(states))
    assert (traj.aborted, traj.abort_reason) == (aborted, reason)
    return traj


PROBLEMS = Path(__file__).resolve().parents[1] / "demos" / "problems"


@pytest.mark.parametrize("name", ["ex2", "ex3", "ex4"])
def test_float_step_matches_array_loop_on_demos(name):
    pf = load_problem_file(str(PROBLEMS / f"{name}.sdp"))
    S, ctx = pf.semispray(), pf.context
    cfg = SampleConfig(box=(-2.0, 2.0), seed=pf.integrate.seed)
    for p in sample_points(ctx, cfg, S.singular_loci, count=3):
        _assert_matches_array_loop(S, p, pf.integrate.dt, 150, ctx)


def test_float_step_matches_array_loop_on_opaque_profile():
    pf = parse_problem_file(
        "dim = 2\nparam g = fn(exp(-x1^2) + x1/3)\n"
        "spray G1 = g'(x1)*y1*y2 + g(x2)\nspray G2 = g''(x2)*y1^2\n")
    S, ctx = pf.semispray(), pf.context
    _assert_matches_array_loop(S, Point((0.3, -0.2), (0.5, 0.7)), 0.01, 200, ctx)


def test_float_step_keeps_parameters_exact():
    # 3*(1/10) is 0.3 exactly; the float 3*0.1 is 0.30000000000000004
    ctx = Context(dim=2, params={"A": Fraction(1, 10)})
    S = SemiSpray(2, (parse("3*A*sin(x1)", ctx), parse("A", ctx)))
    traj = _assert_matches_array_loop(S, Point((0.4, 1.1), (0.2, -0.3)),
                                      0.01, 300, ctx)
    assert not traj.aborted
    ctx3, S3 = _semispray3(Fraction(3, 10))
    _assert_matches_array_loop(S3, Point((0.2, -0.4, 1.0), (0.3, 0.1, 1.0)),
                               0.01, 100, ctx3)


def test_float_step_matches_array_loop_at_locus_crossing():
    ctx, S = _semispray3(0.3)
    p0 = Point((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), params={"A": 0.3})
    traj = _assert_matches_array_loop(S, p0, 0.01, 400, ctx)
    assert traj.abort_reason == "state entered a singular locus"


@pytest.mark.filterwarnings("ignore:overflow")
def test_float_step_matches_array_loop_on_blowup():
    traj = _assert_matches_array_loop(_spray2(), Point((0.0, 0.0), (1.0, -1.0)),
                                      0.01, 200, CTX2)
    assert traj.aborted


@pytest.mark.filterwarnings("ignore:divide by zero")
def test_float_step_falls_back_on_zero_denominator_mid_stage(monkeypatch):
    array_steps = []
    array_step = motion._rk4_array_step
    monkeypatch.setattr(motion, "_rk4_array_step",
                        lambda *a: array_steps.append(1) or array_step(*a))
    # the second stage lands on y1 = 1 exactly: floats raise, numpy gives inf
    ctx = Context(dim=1)
    S = SemiSpray(1, (parse("1/(y1 - 1)", ctx),))
    traj = _assert_matches_array_loop(S, Point((0.0,), (0.5,)), 0.25, 40, ctx)
    assert traj.abort_reason == "evaluation failed: non-finite value in compiled evaluation"
    assert len(array_steps) == 1
    # here numpy's inf turns into exp(-inf) = 0: the array step finishes and
    # the run goes on with the float step
    array_steps.clear()
    S = SemiSpray(1, (parse("exp(-1/(x1 - 1)^2)", ctx),))
    traj = _assert_matches_array_loop(S, Point((0.5,), (4.0,)), 0.25, 40, ctx)
    assert not traj.aborted
    assert len(array_steps) == 1
