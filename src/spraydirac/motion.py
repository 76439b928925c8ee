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
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import rk45
from .errors import (
    DistributionMembershipError, EvalDomainError, SingularLocusError,
    ValidationError,
)
from .expr import (
    LOCUS_GUARD, Context, Expr, Point, SampleConfig, Tri, ZERO,
    _NonFinite, _evaluated, compile_exprs, compile_rk4_step, evaluate_points,
    evaluate_points_with_magnitude, is_zero, sample_points, simplify, tri_all,
)
from .forms import TwoForm, d_scalar, exterior_derivative_2, interior_product
from .geometry import (
    OneForm, SemiSpray, VectorField, berwald_frame, curvature, is_flat, is_spray,
    lie_bracket, span_membership,
)
from .dirac import AlmostDirac, from_distribution, gauge_transform, span_gaps

__all__ = [
    "MotionReport", "Trajectory", "residual", "is_constant_of_motion",
    "integrate_sode", "conservation_drift", "hamiltonian_certificate",
    "LOCUS_GUARD",
]

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


def _near_locus(vals) -> bool:
    """Whether some locus value lies within LOCUS_GUARD of zero."""
    return min(map(abs, vals), default=math.inf) <= LOCUS_GUARD


def _entered(vals, below: tuple) -> bool:
    """Whether a state with locus values vals entered a singular locus: some
    value lies within LOCUS_GUARD of zero, or its sign (v < 0) differs from
    below, the tuple of the start's signs.  The start clears the guard, so
    none of its values is zero; a state kept by this test changes no sign."""
    return _near_locus(vals) or tuple(v < 0 for v in vals) != below


def _exact_step(S: SemiSpray, z: tuple, params: dict, dt: float, ctx: Context,
                below: tuple) -> tuple:
    """compile_rk4_step's step redone on a tuple of floats in the same float
    operations, with the field (y, -2.0*G) and the locus values taken from
    evaluate: z_next, or () where it entered a singular locus.  evaluate's
    errors propagate, and _evaluated's _NonFinite where a state is not finite."""
    n = S.n

    def field(s: tuple) -> tuple:
        return s[n:] + tuple(-2.0 * g for g in _evaluated(S.G, s, params, ctx))

    ks = [field(z)]
    for h in (0.5 * dt, 0.5 * dt, dt):
        ks.append(field(tuple(b + h * k for b, k in zip(z, ks[-1]))))
    d6 = dt / 6.0
    z_next = tuple(b + d6 * (((k1 + 2.0 * k2) + 2.0 * k3) + k4)
                   for b, k1, k2, k3, k4 in zip(z, *ks))
    if _entered(_evaluated(S.singular_loci, z_next, params, ctx), below):
        return ()
    return z_next


def integrate_sode(S: SemiSpray, p0: Point, dt: float, steps: int,
                   method: str = "rk4", ctx: Context | None = None) -> Trajectory:
    """March the first-order system from p0.

    The fixed-step method is the classic fourth-order scheme (_rk4_march);
    the adaptive one is the Dormand-Prince 5(4) pair of rk45.accepted, a
    bit-for-bit port of scipy's solve_ivp(method="RK45") (_rk45_march).
    Each march yields its accepted states in order and gives the times of
    the rows kept; one loop keeps the states until the march ends: at the
    horizon, or early, with the abort flag set and one of these reasons,
    every state accepted before the end kept:
    - "state entered a singular locus": the locus rule, _entered, refuses
      the next state (a locus value within LOCUS_GUARD of zero, or of
      another sign than at the start);
    - "state became non-finite": a state is not finite (expr._NonFinite);
    - "evaluation failed: <evaluate's message>": evaluate refuses a value
      (say, zero raised to a negative power);
    - "integrator failure: <scipy's message>": rk45's step size fell below
      the spacing of the doubles.
    A non-finite start, a start or a context whose dimension is not S.n,
    a step size that is not positive and finite or a negative step count is
    a ValidationError, and a start on or near a locus a SingularLocusError.

    The start is tested against the loci with evaluate's values.  rk4 runs
    compile_rk4_step's step and locus test on plain floats, one generated
    module, with parameters kept exact; a step that floats cannot finish
    (they raise, or give a non-finite value) is redone with evaluate's field
    and locus values, in the same float operations.  rk45 runs on
    compile_exprs of G and of the loci, where evaluate decides likewise.
    """
    if not 0 < dt < math.inf:
        raise ValidationError("step size must be positive and finite")
    if steps < 0:
        raise ValidationError("step count must be nonnegative")
    if method not in ("rk4", "rk45"):
        raise ValidationError(f"unknown integration method {method!r}")
    ctx = ctx or Context(dim=S.n)
    for what, dim in (("start", p0.n), ("context", ctx.dim)):
        if dim != S.n:
            raise ValidationError(
                f"{what} of dimension {dim} does not match the spray's dimension {S.n}")
    march = (_rk45_march if method == "rk45" else _rk4_march)(S, dt, ctx)
    params = {k: v for k, v in ctx.params.items() if v is not None}
    params.update(p0.params)
    z0 = np.concatenate([np.asarray(p0.x, float), np.asarray(p0.y, float)])
    if not np.isfinite(z0).all():
        raise ValidationError("initial state must be finite")
    vals = _evaluated(S.singular_loci, z0.tolist(), params, ctx)
    if _near_locus(vals):
        raise SingularLocusError("initial state lies on or near a singular locus")
    below = tuple(v < 0 for v in vals)

    states, times_of = march(z0, params, below, steps)
    flat, reason = z0.tolist(), None
    # numpy warns where rk45's field overflows; the abort reason says it.
    # The block holds the loop, not a march: one held open across a yield
    # would leak into the caller.
    with np.errstate(all="ignore"):
        try:
            for z in states:
                if not z:
                    reason = "state entered a singular locus"
                    break
                flat += z
        except _NonFinite:
            reason = "state became non-finite"
        except EvalDomainError as exc:
            reason = f"evaluation failed: {exc}"
        except rk45.StepSizeError as exc:
            reason = f"integrator failure: {exc}"
    rows = np.array(flat).reshape(-1, z0.size)
    return Trajectory(S.n, times_of(len(rows)), rows, method, dt, params,
                      reason is not None, reason)


def _rk4_march(S: SemiSpray, dt: float, ctx: Context) -> Callable:
    """march(z0, params, below, steps) -> (states, times_of): states yields
    z_k for k = 1 to steps, a tuple of floats, or () where z_k entered a
    locus (compile_rk4_step's step, or _exact_step where floats cannot
    finish); times_of(k) is the times of the first k rows, k*dt."""
    step = compile_rk4_step(S.G, S.singular_loci, ctx, dt)

    def march(z0: np.ndarray, params: dict, below: tuple, steps: int):
        def states(z: tuple):
            for _ in range(steps):
                z_next = step(z, params, below)
                z = _exact_step(S, z, params, dt, ctx, below) if z_next is None else z_next
                yield z

        return states(tuple(z0.tolist())), lambda k: np.arange(k) * dt

    return march


def _rk45_march(S: SemiSpray, dt: float, ctx: Context) -> Callable:
    """march(z0, params, below, steps) -> (states, times_of): states yields
    each state rk45.accepted accepts up to the horizon dt*steps, a list of
    floats, or () where it entered a locus (the field _rk45_field and the
    locus values on compile_exprs); times_of(k) is the times of the first k
    rows, the start's 0.0 and those accepted."""
    g, loci = compile_exprs(S.G, ctx), compile_exprs(S.singular_loci, ctx)

    def march(z0: np.ndarray, params: dict, below: tuple, steps: int):
        T, times = dt * steps, [0.0]

        def states():
            for t, z in rk45.accepted(_rk45_field(g, S.n, params), T, z0, max(dt, T / 50.0)):
                times.append(t)
                zl = z.tolist()
                yield () if S.singular_loci and _entered(loci(zl, params), below) else zl

        return states(), lambda k: times[:k]

    return march


def _rk45_field(g: Callable, n: int, params: dict) -> Callable[[np.ndarray], np.ndarray]:
    """rk45's field z' = (y, -2.0*G(z)) on an array state: y copied as it is,
    then -2.0 times each of g(z, params), compile_exprs's checked G (which
    raises _NonFinite at a state that is not finite where floats fail)."""

    def field(z: np.ndarray) -> np.ndarray:
        zl = z.tolist()
        return np.array(zl[n:] + [-2.0 * v for v in g(zl, params)])

    return field


def conservation_drift(traj: Trajectory, H: Expr, ctx: Context) -> float:
    """Max deviation of H along the trajectory from its initial value, from
    compile_exprs's checked rows: plain floats over all rows at once, or row
    by row where they cannot finish (evaluate decides)."""
    vals = [v for v, in compile_exprs((H,), ctx).rows(traj.states, traj.params)]
    return float(max(abs(v - vals[0]) for v in vals))


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
    d_comps = [c for X in D_gens for c in X.comps]
    for vals, s_vals in zip(evaluate_points(d_comps, pts, ctx),
                            evaluate_points(S.vector_field().comps, pts, ctx)):
        rows = np.reshape(vals, (len(D_gens), 2 * S.n))
        (_, gap, outside), = span_gaps(rows.T, [np.array(s_vals)])
        if outside:
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
    dH = d_scalar(H, S.n)
    rho_form = dH + interior_product(S.vector_field(), omega).scaled(-1)
    comps = tuple(simplify(rho_form(X)) for X in D_gens)
    verdicts = tuple(is_zero(c, ctx, cfg, loci) for c in comps)

    pts = sample_points(ctx, replace(cfg, seed=cfg.seed + 1), loci,
                        count=max(8, cfg.points // 2))
    worst = 0.0
    for values in evaluate_points_with_magnitude(comps, pts, ctx):
        for val, mag in values:
            worst = max(worst, abs(val) / max(1.0, mag))

    trivial = all(c == ZERO for c in dH.comps)
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

        overall = tri_all((*report.residual_verdicts, report.d_integrable,
                           report.omega_closed))
        report.overall = {Tri.PROVEN_ZERO: "yes", Tri.PROVEN_NONZERO: "no",
                          Tri.UNKNOWN: "unknown"}[overall]
        return report

    return certify
