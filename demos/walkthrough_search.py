#!/usr/bin/env python3
"""Recover the kinetic energy of free planar motion by linear search.

No energy is given up front.  The script spans a degree-2 monomial space
for H and constant coordinate two-forms for omega, collocates the
annihilation condition over the full tangent family, and reads the
conserved pairs off the nullspace.

Run:  python3 demos/walkthrough_search.py
"""

import numpy as np

from spraydirac.ansatz import Ansatz, search
from spraydirac.expr import ZERO, Context, format_expr, parse
from spraydirac.forms import format_two_form
from spraydirac.geometry import SemiSpray, VectorField

ctx = Context(dim=2)
S = SemiSpray(2, (ZERO, ZERO))
D = tuple(VectorField.coordinate(2, axis, k + 1)
          for axis in ("x", "y") for k in range(2))

a = Ansatz(2, degree=2)
print(f"unknowns: {len(a.H_dictionary)} energy coefficients "
      f"+ {len(a.omega_dictionary)} form coefficients")
print(f"collocation points: {a.points}")

result = search(S, D, a, ctx)
print(f"\nnullspace dimension: {result.nullspace.shape[1]}")
print(f"gradient-free directions dropped: {result.trivial_dropped}")

print("\ncandidates:")
for c in result.candidates:
    print(f"  H = {format_expr(c.H):14s} omega = "
          f"{format_two_form(c.omega):22s} certificate: {c.certificate.overall}")

# the total kinetic energy is a combination of the reported pairs; its
# coefficient vector projects onto the nullspace with no residual
v = np.zeros(a.unknowns)
v[a.h_index(parse("y1^2", ctx))] = 0.5
v[a.h_index(parse("y2^2", ctx))] = 0.5
v[a.omega_index(0, 2)] = 1.0
v[a.omega_index(1, 3)] = 1.0
_, rel = result.project(v)
print(f"\nprojection gap for (y1^2 + y2^2)/2 with the diagonal form: {rel:.2e}")
