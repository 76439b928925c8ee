#!/usr/bin/env python3
"""The three-dimensional drop system: conserved energy on a distribution
that provably fails to close.

The coefficients (A*y1/y3, A*y2/y3, A) are not fiberwise quadratic, so the
default horizontal machinery does not apply; instead the energy is checked
against an explicit three-generator family containing the flow field.  The
interesting outcome is the split verdict: annihilation holds and the energy
is conserved, yet the family is not involutive, so no closed two-form
restricts to it.

Run:  python3 demos/walkthrough_vertical_drop.py
"""

import numpy as np

from spraydirac.dirac import involutivity_residual
from spraydirac.expr import Context, Point, SampleConfig, parse, sample_points
from spraydirac.forms import TwoForm
from spraydirac.geometry import SemiSpray, berwald_frame
from spraydirac.motion import (
    conservation_drift, hamiltonian_certificate, integrate_sode,
)

A = 0.3
ctx = Context(dim=3, params={"A": A})
S = SemiSpray(3, tuple(parse(t, ctx) for t in ("A*y1/y3", "A*y2/y3", "A")),
              (parse("y3", ctx),))
fr = berwald_frame(S)
D = (fr.horizontal[0], fr.horizontal[1], S.vector_field())
omega = TwoForm.single(3, 2, 5, 2)          # 2 dx3 ^ dy3
H = parse("y3^2 + 4*A*x3", ctx)
cfg = SampleConfig(coord_boxes={"y3": (0.6, 2.0)})

print("== certificate ==")
rep = hamiltonian_certificate(S, omega, H, D, None, ctx, cfg)
for label, verdict in zip(("delta1", "delta2", "S"), rep.residual_verdicts):
    print(f"  residual on {label}: {verdict.value}")
print(f"  flow derivative of H: {rep.s_of_h.value}")
print(f"  distribution closes:  {rep.d_integrable.value}")
print(f"  two-form closed:      {rep.omega_closed.value}")
print(f"  overall: {rep.overall}")

print("\n== how badly the family fails to close ==")
L = rep.structure.gauge_of
pts = sample_points(ctx, cfg, S.singular_loci, count=3)
for p, B in zip(pts, L.generator_matrices(pts, ctx)):
    res = involutivity_residual(L, [p], ctx, [B])
    print(f"  residual {res:.4f} at y3 = {p.y[2]:+.3f}")

print("\n== drift, including runs that hit the singular slice ==")
rng = np.random.default_rng(11)
for k in range(6):
    x = rng.uniform(-2, 2, 3)
    y = rng.uniform(-2, 2, 3)
    y[2] = rng.uniform(0.5, 2.0) * (1.0 if k % 2 else -1.0)
    p0 = Point(tuple(x), tuple(y), params={"A": A})
    traj = integrate_sode(S, p0, 1e-3, 10_000, "rk4", ctx)
    drift = conservation_drift(traj, H, ctx)
    status = f"stopped at t = {traj.times[-1]:.3f}" if traj.aborted else "full run"
    print(f"  y3(0) = {y[2]:+.3f}: drift {drift:.2e} ({status})")

# y3 decreases at the constant rate 2A, so positive starts cross the
# excluded slice y3 = 0 at t = y3(0)/(2A) and the integrator stops there.
