#!/usr/bin/env python3
"""Walk through the flat two-dimensional decay system end to end.

Builds the spray with coefficients (0, y2^2), inspects its connection and
curvature, certifies three independent invariants, and finishes with a
numeric integration that shows the fiber coordinate decaying like 1/t.

Run:  python3 demos/walkthrough_decay_spray.py
"""

import numpy as np

from spraydirac.expr import Context, Point, SampleConfig, format_expr, parse
from spraydirac.geometry import (
    SemiSpray, berwald_frame, curvature, is_flat, is_spray,
)
from spraydirac.motion import (
    conservation_drift, integrate_sode, is_constant_of_motion,
)

ctx = Context(dim=2)
S = SemiSpray(2, (parse("0", ctx), parse("y2^2", ctx)),
              (parse("y1", ctx), parse("y2", ctx)))
cfg = SampleConfig(coord_boxes={"y1": (0.5, 2.0), "y2": (0.5, 2.0)})

print("== coefficients ==")
for a, g in enumerate(S.G, start=1):
    print(f"  G{a} = {format_expr(g)}")
print(f"  2-homogeneous: {is_spray(S, ctx, cfg).value}")

print("\n== connection and frame ==")
fr = berwald_frame(S)
for a in range(2):
    for i in range(2):
        text = format_expr(fr.N[a][i])
        if text != "0":
            print(f"  N[{a + 1}][{i + 1}] = {text}")
print("  adapted coframe slot 2:",
      format_expr(fr.dy_adapted[1].dx[1]), "* dx2 + dy2")

R = curvature(S)
print(f"\n== curvature ==\n  all components zero: "
      f"{all(c == parse('0', ctx) for c in R.flat_components())}")
print(f"  flat verdict: {is_flat(R, S.singular_loci, ctx, cfg).value}")

print("\n== invariants along the flow ==")
invariants = [
    "y1",
    "-(2*y2*x1 - y1)/(y1*y2)",
    "x2 - (1/2)*ln(y1/y2)",
]
for text in invariants:
    verdict = is_constant_of_motion(S, parse(text, ctx), ctx, cfg)
    print(f"  S({text}) -> {verdict.value}")

print("\n== integration ==")
p0 = Point((0.0, 0.0), (1.0, 1.0))
traj = integrate_sode(S, p0, 1e-3, 4000, "rk4", ctx)
t = traj.times
exact = 1.0 / (1.0 + 2.0 * t)
print(f"  steps: {len(t) - 1}, aborted: {traj.aborted}")
print(f"  max |y2(t) - 1/(1+2t)| = {np.max(np.abs(traj.states[:, 3] - exact)):.3e}")
for text in invariants:
    drift = conservation_drift(traj, parse(text, ctx), ctx)
    print(f"  drift of {text}: {drift:.3e}")
