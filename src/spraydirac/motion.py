"""Conserved-quantity checks for second-order fields.

The central object is the one-form rho = dH - i_S omega.  When rho kills a
distribution D containing S, the function H is constant along the flow of
S; when D is additionally integrable and omega closed, the pair (H, omega)
upgrades to a certificate that the dynamics is generated through the
gauged structure built from D.  Symbolic verdicts come from is_zero;
numeric confirmation integrates the flow and watches H drift.
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy.integrate import solve_ivp

from .errors import (
    DistributionMembershipError, EvalDomainError, SingularLocusError,
    ValidationError,
)
from .expr import (
    Context, Expr, Point, SampleConfig, Tri, ZERO,
    compile_evaluate, compile_evaluate_with_magnitude, compile_exprs,
    compile_rk4_step, is_zero, sample_points, simplify, tri_all,
)
from .forms import TwoForm, d_scalar, exterior_derivative_2, interior_product
from .geometry import (
    OneForm, SemiSpray, VectorField, berwald_frame, curvature, is_flat, is_spray,
    lie_bracket, span_membership,
)
from .dirac import POINTWISE_TOL, AlmostDirac, from_distribution, gauge_transform

__all__ = [
    "MotionReport", "Trajectory", "residual", "is_constant_of_motion",
    "integrate_sode", "conservation_drift", "hamiltonian_certificate",
    "LOCUS_GUARD",
]

# Integration aborts when a declared singular-locus expression gets this
# close to zero; small enough to keep the usable trajectory long, large
# enough that coefficient evaluation stays finite.
LOCUS_GUARD = 1e-3
# Relative and absolute error tolerances of the adaptive rk45 integrator.
RK45_RTOL = 1e-9
RK45_ATOL = 1e-12


@dataclass
class MotionReport:
    """Outcome of the annihilation test and, optionally, the certificate."""

    residual_components: tuple[Expr, ...]
    residual_verdicts: tuple[Tri, ...]
    numeric_max_residual: float
    s_of_h: Tri
    trivial: bool
    d_integrable: Tri | None = None
    omega_closed: Tri | None = None
    overall: str = "not-evaluated"
    structure: AlmostDirac | None = None

    @property
    def residual_all_zero(self) -> bool:
        return all(v is Tri.PROVEN_ZERO for v in self.residual_verdicts)


@dataclass
class Trajectory:
    """Numerically integrated first-order flow (positions then velocities)."""

    n: int
    times: np.ndarray
    states: np.ndarray
    method: str
    dt: float
    params: dict
    aborted: bool = False
    abort_reason: str | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if len(self.times) != len(self.states):
            raise ValidationError("trajectory time/state length mismatch")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise ValidationError("trajectory times must strictly increase")


def is_constant_of_motion(S: SemiSpray, H: Expr, ctx: Context,
                          cfg: SampleConfig | None = None) -> Tri:
    """Verdict on the derivative of H along the flow field of S."""
    return is_zero(S.vector_field()(H), ctx, cfg, S.singular_loci)


def _rk4_array_step(f, z: np.ndarray, params: dict, dt: float) -> np.ndarray:
    k1 = f(z, params)
    k2 = f(z + 0.5 * dt * k1, params)
    k3 = f(z + 0.5 * dt * k2, params)
    k4 = f(z + dt * k3, params)
    return z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate_sode(S: SemiSpray, p0: Point, dt: float, steps: int,
                   method: str = "rk4", ctx: Context | None = None) -> Trajectory:
    """March the first-order system from p0.

    The fixed-step method is the classic fourth-order scheme; the adaptive
    one delegates to scipy's embedded 4(5) pair.  Hitting a declared
    singular locus or producing a non-finite state stops the run early and
    returns the partial trajectory with the abort flag set.

    Both methods run on one generated module (compile_rk4_step).  rk4 runs
    its step on plain floats, with parameters kept exact.  A step that
    floats cannot finish (they raise where numpy gives inf or nan) is redone
    on arrays with the field rk45 uses, so trajectories and abort reasons
    are the array step's.
    A locus value that fails to evaluate there (say, one that overflows)
    aborts only this trajectory, with an "evaluation failed" reason.
    """
    if dt <= 0:
        raise ValidationError("step size must be positive")
    if method not in ("rk4", "rk45"):
        raise ValidationError(f"unknown integration method {method!r}")
    ctx = ctx or Context(dim=S.n)
    step, f, loci = compile_rk4_step(S.G, S.singular_loci, ctx, dt)
    params = dict(ctx.params)
    params.update(p0.params)
    z0 = np.concatenate([np.asarray(p0.x, float), np.asarray(p0.y, float)])
    if min(map(abs, loci(z0, params)), default=np.inf) <= LOCUS_GUARD:
        raise SingularLocusError("initial state lies on or near a singular locus")

    if method == "rk45":
        return _integrate_rk45(S, f, loci, z0, params, dt, steps)

    z = tuple(z0.tolist())
    times = [0.0]
    states = [z]
    # the initial values clear the guard, so none is zero, and no accepted
    # step changes a sign: comparing with the start is the sign-change test
    below = [v < 0 for v in loci(z0, params)]
    aborted = False
    reason = None
    for k in range(steps):
        out = step(z, params)
        if out is None:
            # numpy warns where floats raised; the abort reason says it
            with np.errstate(all="ignore"):
                try:
                    z_arr = _rk4_array_step(f, np.array(z), params, dt)
                    if np.all(np.isfinite(z_arr)):
                        out = tuple(z_arr.tolist()), loci(z_arr, params)
                except EvalDomainError as exc:
                    aborted, reason = True, f"evaluation failed: {exc}"
                    break
            if out is None:
                aborted, reason = True, "state became non-finite"
                break
        z, vals = out
        if vals and (min(map(abs, vals)) <= LOCUS_GUARD
                     or [v < 0 for v in vals] != below):
            aborted, reason = True, "state entered a singular locus"
            break
        times.append((k + 1) * dt)
        states.append(z)
    return Trajectory(S.n, np.array(times), np.array(states), "rk4", dt,
                      params, aborted, reason)


def _integrate_rk45(S, f, loci, z0, params, dt, steps) -> Trajectory:
    T = dt * steps
    aborted = False
    reason = None

    def rhs(t, z):
        return f(z, params)

    # One terminal event per locus on its signed value: a sign change is
    # root-findable, unlike the |value| - guard dip, which a coarse step
    # can hop over entirely.
    events = []
    for idx in range(len(S.singular_loci)):
        def ev(t, z, idx=idx):
            return loci(z, params)[idx]
        ev.terminal = True
        ev.direction = 0
        events.append(ev)
    try:
        # numpy warns where the field overflows; the abort reason says it
        with np.errstate(all="ignore"):
            sol = solve_ivp(rhs, (0.0, T), z0, method="RK45", rtol=RK45_RTOL,
                            atol=RK45_ATOL, events=events, max_step=max(dt, T / 50.0))
    except EvalDomainError as exc:
        return Trajectory(S.n, np.array([0.0]), np.array([z0]), "rk45", dt,
                          params, True, f"evaluation failed: {exc}")
    times = sol.t
    states = sol.y.T
    if sol.status == 1:
        aborted, reason = True, "state entered a singular locus"
    elif sol.status < 0:
        aborted, reason = True, f"integrator failure: {sol.message}"
    bad = [i for i, row in enumerate(states)
           if not np.all(np.isfinite(row))
           or min(map(abs, loci(row, params)), default=np.inf) <= LOCUS_GUARD]
    if bad:
        cut = bad[0]
        times, states = times[:cut], states[:cut]
        aborted, reason = True, "state entered a singular locus"
    keep = np.concatenate([[True], np.diff(times) > 0]) if len(times) else [True]
    if not len(times):
        times, states = np.array([0.0]), np.array([z0])
    return Trajectory(S.n, times[keep], states[keep], "rk45", dt, params,
                      aborted, reason)


def conservation_drift(traj: Trajectory, H: Expr, ctx: Context) -> float:
    """Max deviation of H along the trajectory from its initial value."""
    hfun = compile_exprs((H,), ctx)
    # numpy scalars warn where floats raise; hfun's check reports it
    with np.errstate(all="ignore"):
        vals = np.array([hfun(row, traj.params)[0] for row in traj.states])
        return float(np.max(np.abs(vals - vals[0])))


def _flow_distribution(S: SemiSpray, D_gens: Sequence[VectorField] | None,
                       ctx: Context, cfg: SampleConfig) -> list[VectorField]:
    """The generators to test on, after checking that S lies in their span.

    With no distribution given the horizontal frame of S is used, which is
    legitimate only when S is a spray; otherwise the caller must supply
    generators whose span contains S.
    """
    if D_gens is None:
        if is_spray(S, ctx, cfg) is not Tri.PROVEN_ZERO:
            raise ValidationError(
                "no distribution given and the coefficients are not "
                "2-homogeneous; supply generators containing the flow field")
        D_gens = berwald_frame(S).horizontal
    D_gens = list(D_gens)
    pts = sample_points(ctx, cfg, S.singular_loci, count=max(8, cfg.points // 4))
    m = 2 * S.n
    # the generators' rows on their own: from_distribution compiles the same
    d_comps = [X.component(i) for X in D_gens for i in range(m)]
    Svec = S.vector_field()
    s_comps = [Svec.component(i) for i in range(m)]
    d_rows, s_row = compile_evaluate(d_comps, ctx), compile_evaluate(s_comps, ctx)
    for p in pts:
        vals = d_rows(p)
        rows = np.array([vals[j:j + m] for j in range(0, len(vals), m)])
        target = np.array(s_row(p))
        sol, *_ = np.linalg.lstsq(rows.T, target, rcond=None)
        gap = np.linalg.norm(rows.T @ sol - target)
        if gap > POINTWISE_TOL * max(1.0, np.linalg.norm(target)):
            raise DistributionMembershipError(
                f"flow field leaves the span of the distribution "
                f"(gap {gap:.3e} at a sampled point)")
    return D_gens


def residual(S: SemiSpray, omega: TwoForm, H: Expr,
             D_gens: Sequence[VectorField] | None, ctx: Context,
             cfg: SampleConfig | None = None) -> MotionReport:
    """Annihilation test: does dH - i_S omega vanish on the distribution.

    D_gens None means the horizontal frame of S (see _flow_distribution).
    """
    cfg = cfg or SampleConfig()
    return _residual(S, omega, H, _flow_distribution(S, D_gens, ctx, cfg), ctx, cfg)


def _residual(S: SemiSpray, omega: TwoForm, H: Expr, D_gens: list[VectorField],
              ctx: Context, cfg: SampleConfig) -> MotionReport:
    """residual on generators that _flow_distribution has returned."""
    loci = S.singular_loci
    omega = omega.to_coordinates()
    rho_form = (d_scalar(H, S.n)
                + interior_product(S.vector_field(), omega).scaled(-1))
    comps = tuple(simplify(rho_form(X)) for X in D_gens)
    verdicts = tuple(is_zero(c, ctx, cfg, loci) for c in comps)

    pts = sample_points(ctx, replace(cfg, seed=cfg.seed + 1), loci,
                        count=max(8, cfg.points // 2))
    worst = 0.0
    evaluation = compile_evaluate_with_magnitude(comps, ctx)
    for p in pts:
        for val, mag in evaluation(p):
            worst = max(worst, abs(val) / max(1.0, mag))

    dH = d_scalar(H, S.n)
    trivial = all(dH.component(k) == ZERO for k in range(2 * S.n))
    return MotionReport(
        residual_components=comps,
        residual_verdicts=verdicts,
        numeric_max_residual=worst,
        s_of_h=is_constant_of_motion(S, H, ctx, cfg),
        trivial=trivial,
    )


def _distribution_integrable(S: SemiSpray, D_gens: Sequence[VectorField] | None,
                             ctx: Context, cfg: SampleConfig) -> Tri:
    """Closure of generator brackets inside the span, or flatness when the
    distribution is the horizontal one."""
    if D_gens is None:
        return is_flat(curvature(S), S.singular_loci, ctx, cfg)
    verdicts = []
    for i in range(len(D_gens)):
        for j in range(i + 1, len(D_gens)):
            br = lie_bracket(D_gens[i], D_gens[j])
            verdicts.append(span_membership(D_gens, br, ctx, cfg, S.singular_loci))
    return tri_all(verdicts)


def hamiltonian_certificate(S: SemiSpray, omega: TwoForm, H: Expr,
                            D_gens: Sequence[VectorField] | None = None,
                            ann_gens: Sequence[OneForm] | None = None,
                            ctx: Context | None = None,
                            cfg: SampleConfig | None = None) -> MotionReport:
    """Full three-part certificate, plus the generating family it implies.

    The verdict is yes only when the residual vanishes on the distribution,
    the distribution is integrable (flat, in the horizontal default), and
    the two-form is closed.  The emitted structure, built after the verdict,
    is the distribution's span-with-annihilator gauged by the two-form,
    whatever the verdict.  search's certificates verify candidates only and
    carry no structure.
    """
    ctx = ctx or Context(dim=S.n)
    cfg = cfg or SampleConfig()
    report = _certifier(S, D_gens, ctx, cfg)(omega, H)
    if D_gens is None:
        frame = berwald_frame(S)
        D_gens = frame.horizontal
        ann_gens = frame.dy_adapted if ann_gens is None else ann_gens
    with contextlib.suppress(ValidationError):
        L = from_distribution(D_gens, ann_gens, ctx, cfg, S.singular_loci)
        report.structure = gauge_transform(L, omega)
    return report


def _certifier(S: SemiSpray, D_gens: Sequence[VectorField] | None,
               ctx: Context, cfg: SampleConfig):
    """The verdict of hamiltonian_certificate as a function of (omega, H).
    The parts that do not depend on them, the checked generators and the
    integrability verdict, are built at their step of the first certificate
    and reused."""

    @functools.cache
    def flow_gens() -> list[VectorField]:
        return _flow_distribution(S, D_gens, ctx, cfg)

    @functools.cache
    def d_integrable() -> Tri:
        return _distribution_integrable(S, D_gens, ctx, cfg)

    def certify(omega: TwoForm, H: Expr) -> MotionReport:
        report = _residual(S, omega, H, flow_gens(), ctx, cfg)
        report.d_integrable = d_integrable()
        closed_comps = exterior_derivative_2(omega).components()
        report.omega_closed = tri_all(
            is_zero(c, ctx, cfg, S.singular_loci) for c in closed_comps)

        all_green = (report.residual_all_zero
                     and report.d_integrable is Tri.PROVEN_ZERO
                     and report.omega_closed is Tri.PROVEN_ZERO)
        any_red = (any(v is Tri.PROVEN_NONZERO for v in report.residual_verdicts)
                   or report.d_integrable is Tri.PROVEN_NONZERO
                   or report.omega_closed is Tri.PROVEN_NONZERO)
        report.overall = "yes" if all_green else ("no" if any_red else "unknown")
        return report

    return certify
