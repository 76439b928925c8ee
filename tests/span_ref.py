"""The references of dirac.span_gaps: its body when it solved one row at a
time (span_gaps_rows), and the three span tests that body replaced, each as
it stood with its own overflow rule (or none).

- span_gap: the flow-field membership test, which solved again on A and b
  divided by their largest entry where a norm left the double range;
- bracket_residual: involutivity_residual's body for one bracket row u
  against the generator matrix B (A = B.T), which rescaled only the norm;
- leaf_membership: the membership loop of the leaf two-form (a pointwise
  helper since removed) over its two arguments and the solution c for the
  first, with no overflow rule.
"""

import math

import numpy as np

from spraydirac.dirac import POINTWISE_TOL


def span_gap(A: np.ndarray, b: np.ndarray) -> float | None:
    """The norm of the least-squares residual of A x = b where it exceeds
    POINTWISE_TOL * max(1, |b|), else None.  Where a norm leaves the double
    range, the test is made on A and b divided by their largest entry."""
    scale = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        sol, *_ = np.linalg.lstsq(A, b, rcond=None)
        gap, size = np.linalg.norm(A @ sol - b), np.linalg.norm(b)
        if not (math.isfinite(gap) and math.isfinite(size)):
            scale = float(max(np.max(np.abs(A)), np.max(np.abs(b))))
            A, b = A / scale, b / scale
            sol, *_ = np.linalg.lstsq(A, b, rcond=None)
            gap, size = np.linalg.norm(A @ sol - b), np.linalg.norm(b)
    # the residual and |b| scale alike
    return float(gap) * scale if gap > POINTWISE_TOL * max(1.0 / scale, size) else None


def bracket_residual(B: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, float]:
    """The least-squares solution of B.T x = u and the norm of its residual."""
    with np.errstate(over="ignore", invalid="ignore"):
        sol, *_ = np.linalg.lstsq(B.T, u, rcond=None)
        r = u - B.T @ sol
        norm = float(np.linalg.norm(r))
        if math.isinf(norm) and np.isfinite(r).all():   # the squares overflowed
            m = float(np.max(np.abs(r)))
            norm = m * float(np.linalg.norm(r / m))
    return sol, norm


def leaf_membership(V: np.ndarray, Xv: np.ndarray, Yv: np.ndarray):
    """("first" or "second", None) for the first argument outside the row
    span of V, else (None, c) with c the solution of V.T c = Xv."""
    for v, name in ((Xv, "first"), (Yv, "second")):
        sol, *_ = np.linalg.lstsq(V.T, v, rcond=None)
        if np.linalg.norm(V.T @ sol - v) > POINTWISE_TOL * max(1.0, np.linalg.norm(v)):
            return name, None
    c, *_ = np.linalg.lstsq(V.T, Xv, rcond=None)
    return None, c


def span_gaps_rows(A: np.ndarray, rhs) -> list[tuple[np.ndarray, float, bool]]:
    """dirac.span_gaps with one np.linalg.lstsq per row b of rhs."""
    out = []
    with np.errstate(over="ignore", invalid="ignore"):
        for b in rhs:
            scale = 1.0
            x, *_ = np.linalg.lstsq(A, b, rcond=None)
            gap, size = np.linalg.norm(A @ x - b), np.linalg.norm(b)
            if not (math.isfinite(gap) and math.isfinite(size)):
                scale = float(max(np.max(np.abs(A)), np.max(np.abs(b))))
                As, bs = A / scale, b / scale
                x, *_ = np.linalg.lstsq(As, bs, rcond=None)
                gap, size = np.linalg.norm(As @ x - bs), np.linalg.norm(bs)
            # the residual and |b| scale alike
            outside = bool(gap > POINTWISE_TOL * max(1.0 / scale, size))
            out.append((x, float(gap) * scale, outside))
    return out
