"""Flow invariants, the annihilation residual, and trajectory checks."""

import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from spraydirac.errors import (
    DistributionMembershipError, EvalDomainError, SingularLocusError,
    ValidationError,
)
from spraydirac.expr import (
    FLOAT_FALLBACK_ERRORS, ONE, ZERO, Const, Context, Point, SampleConfig, Tri,
    compile_exprs, evaluate, parse, sample_points, simplify,
)
from spraydirac.forms import TwoForm
from spraydirac import expr, motion
from spraydirac.geometry import SemiSpray, berwald_frame
from spraydirac.motion import (
    conservation_drift, hamiltonian_certificate, integrate_sode,
    LOCUS_GUARD, is_constant_of_motion, residual,
)
from spraydirac.problemfile import load_problem_file, parse_problem_file

from evaluate_ref import evaluate_values, floats_then_evaluate, rk4_array_step


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


@pytest.mark.parametrize("method", ["rk4", "rk45"])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_a_non_finite_start_is_refused(method, bad):
    S = _spray2()
    for p0 in (Point((bad, 0.0), (1.0, 1.0)), Point((0.0, 0.0), (1.0, bad))):
        with pytest.raises(ValidationError, match="initial state must be finite"):
            integrate_sode(S, p0, 0.01, 10, method, CTX2)


@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_a_negative_step_count_is_refused(method):
    with pytest.raises(ValidationError, match="step count"):
        integrate_sode(_spray2(), Point((0.0, 0.0), (1.0, 1.0)), 0.01, -1, method, CTX2)


@pytest.mark.parametrize("method", ["rk4", "rk45"])
@pytest.mark.parametrize("dt", [0.0, -0.01, math.inf, math.nan])
def test_a_step_size_not_positive_and_finite_is_refused(method, dt):
    # a nan dt passed dt <= 0: rk4 stamped its start at 0*nan and rk45 ran
    # to MAX_STEPS on a horizon of nan
    with pytest.raises(ValidationError, match="^step size must be positive and finite$"):
        integrate_sode(_spray2(), Point((0.0, 0.0), (1.0, 1.0)), dt, 10, method, CTX2)


def test_a_spray_of_dimension_zero_is_refused():
    # its empty state read as the locus marker (), so rk4 ended at once in a
    # locus, and rk45 divided by zero in its first norm
    with pytest.raises(ValidationError, match="^dimension must be positive, got 0$"):
        SemiSpray(0, ())


@pytest.mark.parametrize("method", ["rk4", "rk45"])
@pytest.mark.parametrize("p0, ctx, what, dim", [
    # a start of dimension 3 integrated silently, reading the wrong slots
    (Point((0.5, 0.5, 0.5), (1.0, 1.0, 1.0)), None, "start", 3),
    (Point((0.5,), (1.0,)), None, "start", 1),
    (Point((0.5, 0.5), (1.0, 1.0)), Context(dim=3), "context", 3),
], ids=["start-3", "start-1", "context-3"])
def test_a_start_or_context_of_another_dimension_is_refused(method, p0, ctx, what, dim):
    S = SemiSpray(2, (parse("y1^2", CTX2), parse("x1", CTX2)))
    message = f"^{what} of dimension {dim} does not match the spray's dimension 2$"
    with pytest.raises(ValidationError, match=message):
        integrate_sode(S, p0, 0.01, 5, method, ctx)


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


# -- the generated float step against an array RK4 loop ---------------------

def _array_rk4(S, p0, dt, steps, ctx):
    """RK4 on numpy arrays.  Each step runs on the values that compile_exprs's
    generated functions (.raw) give for G and the loci on plain floats;
    where those raise, or z_next or the locus values have a non-finite sum,
    the step is redone with evaluate's values."""
    graw = compile_exprs(S.G, ctx).raw
    lraw = compile_exprs(S.singular_loci, ctx).raw
    params = {k: v for k, v in ctx.params.items() if v is not None}
    params.update(p0.params)
    g_evaluated = evaluate_values(S.G, params, ctx)
    loci_evaluated = evaluate_values(S.singular_loci, params, ctx)
    z = np.concatenate([np.asarray(p0.x, float), np.asarray(p0.y, float)])
    times, states = [0.0], [z.copy()]
    locus_signs = np.sign(floats_then_evaluate(lraw, S.singular_loci, ctx)(z, params))
    for k in range(steps):
        with np.errstate(all="ignore"):
            try:
                z_next = rk4_array_step(lambda s: graw(s.tolist(), params), z, dt)
                if not math.isfinite(sum(z_next.tolist())):
                    raise ArithmeticError
                vals = lraw(z_next.tolist(), params)
                if not math.isfinite(sum(vals)):
                    raise ArithmeticError
            except FLOAT_FALLBACK_ERRORS:
                try:
                    z_next = rk4_array_step(g_evaluated, z, dt)
                    if not np.all(np.isfinite(z_next)):
                        return times, states, True, "state became non-finite"
                    vals = loci_evaluated(z_next)
                except EvalDomainError as exc:
                    return times, states, True, f"evaluation failed: {exc}"
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


@pytest.mark.parametrize("y", [(0.7, 1.3), (-0.7, 1.3), (0.7, -1.3), (-0.7, -1.3)])
def test_float_step_matches_array_loop_on_each_side_of_two_loci(y):
    # ex1: the loci y1 and y2, neither reached from any side
    pf = load_problem_file(str(PROBLEMS / "ex1.sdp"))
    S, ctx = pf.semispray(), pf.context
    traj = _assert_matches_array_loop(S, Point((0.2, -0.4), y), pf.integrate.dt, 400, ctx)
    assert not traj.aborted


def test_float_step_matches_array_loop_across_one_of_two_loci():
    # y1 falls at unit rate: the step from 0.0055 to -0.0045 changes its
    # sign without coming within the guard
    pf = parse_problem_file("dim = 2\nspray G1 = 1/2\nspray G2 = y2^2\n"
                            "exclude y1\nexclude y2\n")
    S, ctx = pf.semispray(), pf.context
    traj = _assert_matches_array_loop(S, Point((0.0, 0.0), (0.5055, 1.0)), 0.01, 100, ctx)
    assert traj.abort_reason == "state entered a singular locus"
    assert len(traj.times) == 51 and traj.states[-1][2] > LOCUS_GUARD


def test_float_step_matches_array_loop_at_locus_crossing():
    ctx, S = _semispray3(0.3)
    p0 = Point((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), params={"A": 0.3})
    traj = _assert_matches_array_loop(S, p0, 0.01, 400, ctx)
    assert traj.abort_reason == "state entered a singular locus"


def test_float_step_matches_array_loop_with_an_unbound_parameter():
    # C has no value in the context and none at the start: both loops end
    # on the start with evaluate's reason
    ctx = Context(1, params={"C": None})
    S = SemiSpray(1, (parse("x1 + C", ctx),))
    traj = _assert_matches_array_loop(S, Point((0.1,), (0.2,)), 0.01, 10, ctx)
    assert traj.abort_reason == "evaluation failed: parameter 'C' has no bound value"
    assert len(traj.states) == 1


def test_float_step_matches_array_loop_on_blowup():
    traj = _assert_matches_array_loop(_spray2(), Point((0.0, 0.0), (1.0, -1.0)),
                                      0.01, 200, CTX2)
    assert traj.aborted


def test_float_step_falls_back_on_zero_denominator_mid_stage(monkeypatch):
    exact_steps = []
    exact_step = motion._exact_step
    monkeypatch.setattr(motion, "_exact_step",
                        lambda *a: exact_steps.append(1) or exact_step(*a))
    # the second stage lands on y1 = 1 exactly: floats raise, evaluate decides
    ctx = Context(dim=1)
    S = SemiSpray(1, (parse("1/(y1 - 1)", ctx),))
    traj = _assert_matches_array_loop(S, Point((0.0,), (0.5,)), 0.25, 40, ctx)
    assert traj.abort_reason == "evaluation failed: zero raised to a negative power"
    assert len(exact_steps) == 1
    # numpy scalars turned the inf of 1/0 into exp(-inf) = 0 here and the
    # run went on; evaluate refuses the 1/0
    exact_steps.clear()
    S = SemiSpray(1, (parse("exp(-1/(x1 - 1)^2)", ctx),))
    traj = _assert_matches_array_loop(S, Point((0.5,), (4.0,)), 0.25, 40, ctx)
    assert traj.abort_reason == "evaluation failed: zero raised to a negative power"
    assert len(exact_steps) == 1


def test_rk4_redoes_a_step_whose_state_sum_alone_overflows(monkeypatch):
    # every entry is finite, but x1 + y1 is not: the generated step leaves
    # the step to _exact_step, which completes it in the same float operations
    exact_steps = []
    exact_step = motion._exact_step
    monkeypatch.setattr(motion, "_exact_step",
                        lambda *a: exact_steps.append(1) or exact_step(*a))
    ctx = Context(dim=1)
    traj = integrate_sode(SemiSpray(1, (ZERO,)), Point((1.79e308,), (1e307,)),
                          0.01, 3, "rk4", ctx)
    assert not traj.aborted
    assert len(exact_steps) == 3
    assert traj.states[1:, 0].tolist() == [
        1.7909999999999999e308, 1.7919999999999998e308, 1.7929999999999997e308]
    d6 = 0.01 / 6.0
    x = 1.79e308
    for got in traj.states[1:, 0]:
        x = x + d6 * (((1e307 + 2.0 * 1e307) + 2.0 * 1e307) + 1e307)
        assert got == x


# -- one generated module per integration -------------------------------------

def test_an_overflowing_body_aborts_both_methods():
    # f(1e5) is inf: read unchecked, y1^2/(1 + f) would be 0 and the run go on;
    # evaluate refuses the product 10^300*x1^2
    pf = parse_problem_file("dim = 1\nparam f = fn(10^300*x1^2)\n"
                            "spray G1 = y1^2/(1 + f(x1))\n")
    for method in ("rk4", "rk45"):
        traj = integrate_sode(pf.semispray(), Point((1e5,), (1.0,)), 0.01, 20, method,
                              pf.context)
        assert traj.abort_reason == "evaluation failed: product produced a non-finite value"
    # G is finite at the start and -2.0*G overflows: no infinite stage state
    # of rk4 or trial state of rk45 reaches evaluate, whose fsum of +inf and
    # -inf would raise ValueError, and both end on the one non-finite reason
    pf = parse_problem_file("dim = 2\nspray G1 = 10^308*x1 + y1 + y2\n"
                            "spray G2 = -10^308*x1 + y1 + y2\n")
    for method in ("rk4", "rk45"):
        traj = integrate_sode(pf.semispray(), Point((1.0, 0.3), (0.2, 0.1)), 0.01, 20, method,
                              pf.context)
        assert traj.abort_reason == "state became non-finite"
        assert len(traj.times) == 1


def _root_ahead():
    # (x1 - 1/20)^1/2 is refused below x1 = 1/20, which the run from x1 = 0.5
    # heading down at speed 1 reaches near t = 0.4
    ctx = Context(dim=1)
    return SemiSpray(1, (parse("(x1 - 1/20)^1/2", ctx),)), ctx, Point((0.5,), (-1.0,))


@pytest.mark.parametrize("method, rows, t_final", [("rk4", 38, 0.37),
                                                   ("rk45", 28, 0.3731816923123509)])
def test_a_failed_evaluation_keeps_the_states_before_it(method, rows, t_final):
    S, ctx, p0 = _root_ahead()
    traj = integrate_sode(S, p0, 0.01, 100, method, ctx)
    assert traj.abort_reason == "evaluation failed: fractional power of a negative base"
    assert len(traj.times) == rows and traj.times[-1] == t_final
    assert np.all(traj.states[:, 0] > 0.05)


@pytest.mark.parametrize("method, rows, t_final, reason", [
    ("rk4", 53, 0.52, "evaluation failed: overflow in power"),
    ("rk45", 767, 0.49999999996507366,
     "integrator failure: Required step size is less than spacing between numbers.")])
def test_a_blow_up_ends_each_method_on_its_reason(method, rows, t_final, reason):
    # x1'' = 2 y1^2 blows up at t = 1/2; rk45's steps shrink below the
    # spacing of the doubles before its states overflow
    ctx = Context(dim=1)
    traj = integrate_sode(SemiSpray(1, (parse("-y1^2", ctx),)), Point((1.0,), (1.0,)),
                          0.01, 200, method, ctx)
    assert (traj.aborted, traj.abort_reason) == (True, reason)
    assert len(traj.times) == rows and traj.times[-1] == t_final
    assert np.all(np.isfinite(traj.states))


@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_an_infinity_that_floats_would_mask_aborts_the_run(method):
    # at x1 = 0 floats raise for x1^-1; numpy scalars read y1^2/(2 + inf) as
    # 0.0 and ran on, where evaluate refuses 0^-1
    ctx = Context(dim=1)
    G = parse("y1^2/(2 + x1^-1)", ctx)
    p0 = Point((0.0,), (1.0,))
    with pytest.raises(EvalDomainError) as exc:
        evaluate(simplify(G), p0, ctx)
    assert str(exc.value) == "zero raised to a negative power"
    traj = integrate_sode(SemiSpray(1, (G,)), p0, 0.01, 20, method, ctx)
    assert traj.aborted
    assert traj.abort_reason == f"evaluation failed: {exc.value}"
    assert len(traj.times) == 1


@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_an_integration_runs_one_generated_module(method, monkeypatch):
    # rk4 runs one module, its step; rk45 one per compile_exprs, of G and
    # of the loci
    execs = []
    exec_def = expr._exec_def
    monkeypatch.setattr(expr, "_exec_def", lambda *a, **k: execs.append(1) or exec_def(*a, **k))
    pf = parse_problem_file("dim = 1\nparam f = fn(x1^2 + 1)\nexclude x1 - 5\n"
                            "spray G1 = f(x1)*y1^2*(1/10)\n")
    traj = integrate_sode(pf.semispray(), Point((0.5,), (1.0,)), 0.01, 50, method,
                          pf.context)
    assert not traj.aborted
    assert len(execs) == {"rk4": 1, "rk45": 2}[method]


@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_the_start_is_tested_against_the_loci_with_evaluate(method):
    # floats read x1^2*x2^2 as inf at x1 = x2 = 1e100, which would make the
    # locus 0.0, on the locus; evaluate refuses the product
    ctx = Context(dim=2)
    locus = parse("1/(x1^2*x2^2 + 1)", ctx)
    p0 = Point((1e100, 1e100), (0.0, 0.0))
    S = SemiSpray(2, (ZERO, ZERO), (locus,))
    with pytest.raises(EvalDomainError, match="^product produced a non-finite value$"):
        integrate_sode(S, p0, 0.01, 3, method, ctx)


def test_a_redeclared_body_is_compiled_afresh(monkeypatch):
    execs = []
    exec_def = expr._exec_def
    monkeypatch.setattr(expr, "_exec_def", lambda *a, **k: execs.append(1) or exec_def(*a, **k))

    def flow(ctx):
        S = SemiSpray(1, (parse("f(x1)*y1^2*(1/10)", ctx),))
        traj = integrate_sode(S, Point((0.5,), (1.0,)), 0.01, 30, "rk4", ctx)
        return traj, conservation_drift(traj, parse("f(x1)*y1", ctx), ctx)

    ctx = Context(dim=1)
    ctx.declare_function("f", parse("x1^2 + 1", Context(1)))
    first = flow(ctx)
    assert flow(ctx)[1] == first[1]
    assert len(execs) == 2      # the step module and H, each once
    ctx.declare_function("f", parse("x1^3 + 2", Context(1)))
    second = flow(ctx)
    assert len(execs) == 4
    fresh = Context(dim=1)
    fresh.declare_function("f", parse("x1^3 + 2", Context(1)))
    expected = flow(fresh)
    assert np.array_equal(second[0].states, expected[0].states)
    assert second[1] == expected[1] != first[1]
