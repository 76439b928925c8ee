"""Acceptance gate: one test per shipped criterion, printed pass/fail."""

import time

import numpy as np
import pytest

from spraydirac.ansatz import Ansatz, search
from spraydirac.dirac import (
    AlmostDirac, Section, courant_bracket, from_distribution, gauge_transform,
    involutivity_residual, is_isotropic_at, jacobi_anomaly, kernel_at, pairing,
    span_gaps,
)
from spraydirac.expr import (
    ONE, ZERO, Context, Point, SampleConfig, Tri, parse, simplify,
)
from spraydirac.forms import (
    TwoForm, d_scalar, exterior_derivative_1, exterior_derivative_2,
)
from spraydirac.geometry import (
    OneForm, SemiSpray, VectorField, berwald_frame, curvature, is_flat,
    is_spray,
)
from spraydirac.motion import (
    conservation_drift, hamiltonian_certificate, integrate_sode,
    is_constant_of_motion, residual,
)


def _gate(num: int, body) -> None:
    try:
        body()
    except BaseException:
        print(f"[criterion {num}] FAIL")
        raise
    print(f"[criterion {num}] PASS")


# -- shared fixtures -------------------------------------------------------

CTX2 = Context(dim=2)


def _decay2():
    return SemiSpray(2, (parse("0", CTX2), parse("y2^2", CTX2)),
                     (parse("y1", CTX2), parse("y2", CTX2)))


def _drop3(a_val=0.3):
    ctx = Context(dim=3, params={"A": a_val})
    G = tuple(parse(t, ctx) for t in ("A*y1/y3", "A*y2/y3", "A"))
    return ctx, SemiSpray(3, G, (parse("y3", ctx),))


def _drop3_setup():
    ctx, S = _drop3()
    fr = berwald_frame(S)
    D = (fr.horizontal[0], fr.horizontal[1], S.vector_field())
    omega = TwoForm.single(3, 2, 5, 2)
    H = parse("y3^2 + 4*A*x3", ctx)
    cfg = SampleConfig(coord_boxes={"y3": (0.6, 2.0)})
    return ctx, S, fr, D, omega, H, cfg


def _guarded_states(rng, count):
    out = []
    for _ in range(count):
        x = rng.uniform(-2.0, 2.0, 3)
        y = rng.uniform(-2.0, 2.0, 3)
        y[2] = rng.uniform(0.5, 2.0) * (1.0 if rng.uniform() < 0.5 else -1.0)
        out.append(Point(tuple(x), tuple(y), params={"A": 0.3}))
    return out


def test_criterion_1_conserved_energy_on_vertical_drop():
    def body():
        start = time.perf_counter()
        ctx, S, fr, D, omega, H, cfg = _drop3_setup()
        rep = residual(S, omega, H, D, ctx, cfg)
        assert rep.residual_all_zero
        assert rep.s_of_h is Tri.PROVEN_ZERO
        rng = np.random.default_rng(20260823)
        for p0 in _guarded_states(rng, 10):
            traj = integrate_sode(S, p0, 1e-3, 10_000, "rk4", ctx)
            assert conservation_drift(traj, H, ctx) <= 1e-8
        assert time.perf_counter() - start < 5.0

    _gate(1, body)


def test_criterion_2_opaque_coefficient_energy_and_probe():
    def body():
        ctx = Context(dim=2)
        ctx.declare_function("f", parse("x1^2 + 1", Context(dim=1)))
        G = (parse("(y1^2)*f'(x1)/(2*f(x1))", ctx), parse("f(x1)", ctx))
        S = SemiSpray(2, G)
        H = parse("2*f(x1)*y1", ctx)
        assert is_constant_of_motion(S, H, ctx) is Tri.PROVEN_ZERO
        rng = np.random.default_rng(7)
        for _ in range(5):
            p0 = Point(tuple(rng.uniform(-2, 2, 2)), tuple(rng.uniform(-2, 2, 2)))
            traj = integrate_sode(S, p0, 1e-3, 10_000, "rk4", ctx)
            assert not traj.aborted
            assert conservation_drift(traj, H, ctx) <= 1e-8
        # the quadratic probe 4*G2*x2 + y2^2 is not conserved for this
        # coefficient choice; its flow derivative collapses to a single
        # product and the verdict must not wobble with the sample draw
        v = parse("4*f(x1)*x2 + y2^2", ctx)
        deriv = simplify(S.vector_field()(v))
        want = parse("4*f'(x1)*x2*y1", ctx)
        assert simplify(deriv - want) == ZERO
        verdicts = {is_constant_of_motion(S, v, ctx, SampleConfig(seed=s))
                    for s in (1, 2, 20260823)}
        assert verdicts == {Tri.PROVEN_NONZERO}

    _gate(2, body)


def test_criterion_3_flat_decay_spray_invariants():
    def body():
        S = _decay2()
        cfg = SampleConfig(coord_boxes={"y1": (0.5, 2.0), "y2": (0.5, 2.0)})
        assert is_spray(S, CTX2, cfg) is Tri.PROVEN_ZERO
        assert is_flat(curvature(S), S.singular_loci, CTX2, cfg) is Tri.PROVEN_ZERO
        invariants = [parse(t, CTX2) for t in (
            "y1",
            "-(2*y2*x1 - y1)/(y1*y2)",
            "x2 - (1/2)*ln(y1/y2)",
        )]
        for v in invariants:
            assert is_constant_of_motion(S, v, CTX2, cfg) is Tri.PROVEN_ZERO
        rng = np.random.default_rng(6)
        for _ in range(5):
            p0 = Point(tuple(rng.uniform(-2, 2, 2)),
                       tuple(rng.uniform(0.5, 2.0, 2)))
            traj = integrate_sode(S, p0, 1e-3, 5_000, "rk4", CTX2)
            assert not traj.aborted
            for v in invariants:
                assert conservation_drift(traj, v, CTX2) <= 1e-8

    _gate(3, body)


def test_criterion_4_search_recovers_kinetic_energy():
    def body():
        start = time.perf_counter()
        ctx = Context(dim=2)
        S = SemiSpray(2, (ZERO, ZERO))
        D = tuple(VectorField.coordinate(2, axis, k + 1)
                  for axis in ("x", "y") for k in range(2))
        a = Ansatz(2, degree=2)
        result = search(S, D, a, ctx)

        # the unknowns are the H dictionary's coefficients, then omega's
        columns = [*a.H_dictionary, *a.omega_dictionary]
        v = np.zeros(a.unknowns)
        v[columns.index(parse("y1^2", ctx))] = 0.5
        v[columns.index(parse("y2^2", ctx))] = 0.5
        v[columns.index(TwoForm.single(2, 0, 2, 1))] = 1.0
        v[columns.index(TwoForm.single(2, 1, 3, 1))] = 1.0
        P = result.nullspace
        rel = float(np.linalg.norm(v - P @ (P.T @ v)) / np.linalg.norm(v))
        assert rel <= 1e-8

        omega = TwoForm.single(2, 0, 2, 1) + TwoForm.single(2, 1, 3, 1)
        H = parse("(y1^2)/2 + (y2^2)/2", ctx)
        cert = hamiltonian_certificate(S, omega, H, D, None, ctx)
        assert cert.overall == "yes"

        # the emitted family spans the same 4-plane as the graph of the
        # diagonal form: rows (e_i, dy_i) and (d/dy_i, -dx_i)
        diag = []
        for i in range(2):
            row = np.zeros(8)
            row[i], row[4 + 2 + i] = 1.0, 1.0
            diag.append(row)
        for i in range(2):
            row = np.zeros(8)
            row[2 + i], row[4 + i] = 1.0, -1.0
            diag.append(row)
        diag = np.array(diag)
        rng = np.random.default_rng(4)
        for _ in range(5):
            p = Point(tuple(rng.uniform(-2, 2, 2)), tuple(rng.uniform(-2, 2, 2)))
            got = next(cert.structure.generator_matrices([p], ctx))
            stacked = np.vstack([got, diag])
            assert np.linalg.matrix_rank(got, tol=1e-9) == 4
            assert np.linalg.matrix_rank(stacked, tol=1e-9) == 4
        assert time.perf_counter() - start < 10.0

    _gate(4, body)


def test_criterion_5_bracket_algebra_property_suite():
    def body():
        start = time.perf_counter()
        rng = np.random.default_rng(20260823)
        monos = ["1", "x1", "x2", "y1", "y2", "x1*y2", "y1*y2", "x2^2"]

        def rand_section():
            def comp():
                if rng.uniform() < 0.55:
                    return ZERO
                c = int(rng.integers(-2, 3))
                m = monos[int(rng.integers(0, len(monos)))]
                return simplify(parse(f"{c}*{m}", CTX2))
            return Section(VectorField(2, (comp(), comp()), (comp(), comp())),
                           OneForm(2, (comp(), comp()), (comp(), comp())))

        for _ in range(6):
            a, b = rand_section(), rand_section()
            assert simplify(pairing(a, b) - pairing(b, a)) == ZERO
            lhs, rhs = courant_bracket(a, b), courant_bracket(b, a)
            for u, w in zip(lhs.components(), rhs.components()):
                assert simplify(u + w) == ZERO

        pts = [Point(tuple(rng.uniform(-1.5, 1.5, 2)),
                     tuple(rng.uniform(-1.5, 1.5, 2))) for _ in range(5)]
        for _ in range(10):
            triple = (rand_section(), rand_section(), rand_section())
            for p in pts:
                lhs, rhs = jacobi_anomaly(*triple, p, CTX2)
                assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-7)

        gens = tuple(Section(VectorField.coordinate(2, "x", i + 1),
                             OneForm.coordinate(2, "y", i + 1))
                     for i in range(2))
        gens += tuple(Section(VectorField.coordinate(2, "y", i + 1),
                              OneForm.coordinate(2, "x", i + 1).scaled(-1))
                      for i in range(2))
        L = AlmostDirac(n=2, generators=gens)
        omega = (TwoForm.single(2, 0, 1, parse("x1*y2", CTX2))
                 + TwoForm.single(2, 1, 2, parse("3*x2", CTX2)))
        moved = gauge_transform(L, omega)
        back = gauge_transform(moved, omega.scaled(-1))
        for g, h in zip(L.generators, back.generators):
            for u, w in zip(g.components(), h.components()):
                assert simplify(u - w) == ZERO
        for p in pts:
            assert is_isotropic_at(next(moved.generator_matrices([p], CTX2)))

        for t in ("x1*y2 + sin(x2)", "exp(x1)*y1^2"):
            assert exterior_derivative_1(
                d_scalar(parse(t, CTX2), 2)).is_structurally_zero()
        alpha = OneForm(2, (parse("x1*y1", CTX2), parse("cos(x2)", CTX2)),
                        (parse("x2^2", CTX2), parse("y1*y2", CTX2)))
        assert exterior_derivative_2(
            exterior_derivative_1(alpha)).is_structurally_zero()
        assert time.perf_counter() - start < 30.0

    _gate(5, body)


def test_criterion_6_degenerate_leaf_form():
    def body():
        gens = (
            Section(VectorField.coordinate(2, "x", 2),
                    OneForm(2, (parse("-y1", CTX2), ZERO), (ZERO, ZERO))),
            Section(VectorField.coordinate(2, "x", 1),
                    OneForm(2, (ZERO, parse("y1", CTX2)), (ZERO, ZERO))),
            Section.of_form(OneForm.coordinate(2, "y", 1)),
            Section.of_form(OneForm.coordinate(2, "y", 2)),
        )
        L = AlmostDirac(n=2, generators=gens)
        p_high = Point((0.3, -1.1), (2.0, 0.7))
        # omega(X, Y) = alpha(Y) for (X, alpha) in the span: solve for X
        B = next(L.generator_matrices([p_high], CTX2))
        V, W = np.split(B, 2, axis=1)
        (c, _, outside), = span_gaps(V.T, [np.array([1.0, 0, 0, 0])])
        assert not outside
        value = float(W.T @ c @ np.array([0, 1.0, 0, 0]))
        assert value == pytest.approx(2.0, abs=1e-12)
        p_fold = Point((0.3, -1.1), (0.0, 0.7))
        assert len(kernel_at(next(L.generator_matrices([p_fold], CTX2)))) >= 2

    _gate(6, body)


def test_criterion_7_fixed_step_order():
    def body():
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

    _gate(7, body)


def test_criterion_8_split_verdict_on_nonintegrable_distribution():
    def body():
        ctx, S, fr, D, omega, H, cfg = _drop3_setup()
        ann = (
            OneForm(3, tuple(parse(t, ctx) for t in ("A/y3", "0", "A*y1/y3^2")),
                    (ONE, ZERO, ZERO)),
            OneForm(3, tuple(parse(t, ctx) for t in ("0", "A/y3", "-A*y2/y3^2")),
                    (ZERO, ONE, parse("-y2/y3", ctx))),
        )
        L = from_distribution(D, ann, ctx, cfg, loci=S.singular_loci)
        rng = np.random.default_rng(12)
        pts = list(_guarded_states(rng, 5))
        for p, B in zip(pts, L.generator_matrices(pts, ctx)):
            assert involutivity_residual(L, [p], ctx, [B]) > 1e-4
        assert is_constant_of_motion(S, H, ctx, cfg) is Tri.PROVEN_ZERO

    _gate(8, body)
