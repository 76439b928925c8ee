"""Linear recovery of conserved-quantity candidates.

The unknowns are coefficients of H over a monomial dictionary and of a
two-form over constant coordinate-basis generators.  The annihilation
condition (dH - i_S omega)(e_j) = 0 is linear in those coefficients, so
collocating it at sampled points builds a matrix whose nullspace holds
every candidate pair expressible in the dictionaries.  Candidates are then
re-verified at fresh points: kept when the residual is proven zero
symbolically, or else, when no residual component is proven nonzero, when
its largest sampled value there is 1e-9 or less, which is numeric evidence,
not a proof.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .expr import (
    DEFAULT_SEED, Const, Context, Expr, Mul, Point, SampleConfig, Tri,
    coordinates, evaluate_points, format_expr, sample_points, simplify, sum_exprs,
)
from .forms import TwoForm, d_scalar, format_two_form, interior_product
from .geometry import SemiSpray, VectorField
from .motion import MotionReport, _certifier, _flow_distribution

__all__ = [
    "Ansatz", "CandidateSolution", "SearchResult",
    "monomial_dictionary", "constant_two_form_dictionary",
    "assemble", "solve", "search",
]

# Singular values at or below this fraction of the largest span the nullspace.
RANK_TOL = 1e-8
# Largest denominator a nullspace direction may snap to as a rational vector.
SNAP_MAX_DEN = 24
# Largest collocation matrix (points x unknowns) a search may build.
MAX_COLLOCATION_CELLS = 1_000_000


def monomial_dictionary(n: int, degree: int) -> list[Expr]:
    """All monomials in the 2n coordinates up to the given total degree."""
    if degree < 0:
        raise ValidationError("dictionary degree must be nonnegative")
    coords = coordinates(n)
    out: list[Expr] = []
    for total in range(degree + 1):
        for combo in itertools.combinations_with_replacement(range(2 * n), total):
            factors = [coords[i] for i in combo]
            out.append(simplify(Mul(tuple(factors))) if len(factors) > 1
                       else (factors[0] if factors else Const(1)))
    return out


def constant_two_form_dictionary(n: int) -> list[TwoForm]:
    """One unit coordinate-basis two-form per flat index pair."""
    return [TwoForm.single(n, i, j, 1)
            for i in range(2 * n) for j in range(i + 1, 2 * n)]


@dataclass
class Ansatz:
    """Search space: H dictionary, two-form dictionary, collocation plan."""

    n: int
    degree: int = 2
    H_dictionary: list[Expr] | None = None
    omega_dictionary: list[TwoForm] | None = None
    points: int = 0
    box: float = 2.0
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        # None means "use the default dictionary"; [] for omega means "no
        # two-form unknowns at all", which the H-only search mode needs.
        # Both bounds are checked on the dictionary sizes, before any
        # dictionary is built.
        if self.H_dictionary is None and self.degree < 0:
            raise ValidationError("dictionary degree must be nonnegative")
        n_H = (math.comb(2 * self.n + self.degree, self.degree)
               if self.H_dictionary is None else len(self.H_dictionary))
        if n_H == 0:
            raise ValidationError("empty candidate dictionary")
        n_omega = (self.n * (2 * self.n - 1)
                   if self.omega_dictionary is None else len(self.omega_dictionary))
        unknowns = n_H + n_omega
        if self.points == 0:
            self.points = 3 * unknowns + 5
        if self.points < 3 * unknowns:
            raise ValidationError(
                f"{self.points} collocation points cannot pin down "
                f"{unknowns} unknowns; need at least {3 * unknowns}")
        if self.points * unknowns > MAX_COLLOCATION_CELLS:
            raise ValidationError(
                f"{self.points} collocation points x {unknowns} unknowns "
                f"exceeds the bound MAX_COLLOCATION_CELLS = {MAX_COLLOCATION_CELLS}")
        if self.H_dictionary is None:
            self.H_dictionary = monomial_dictionary(self.n, self.degree)
        if self.omega_dictionary is None:
            self.omega_dictionary = constant_two_form_dictionary(self.n)

    @property
    def unknowns(self) -> int:
        return len(self.H_dictionary) + len(self.omega_dictionary)


@dataclass
class CandidateSolution:
    """One nullspace direction, decoded and re-verified."""

    H: Expr
    omega: TwoForm
    certificate: MotionReport

    @property
    def verified(self) -> bool:
        c = self.certificate
        if Tri.PROVEN_NONZERO in c.residual_verdicts:
            return False
        return c.residual_all_zero or c.numeric_max_residual <= 1e-9

    def describe(self) -> str:
        return "H = " + format_expr(self.H) + " ; omega = " + format_two_form(self.omega)


@dataclass
class SearchResult:
    candidates: list[CandidateSolution]
    nullspace: np.ndarray          # orthonormal columns
    singular_values: np.ndarray
    trivial_dropped: int
    rejected: int
    ansatz: Ansatz


def assemble(S: SemiSpray, D_gens: Sequence[VectorField] | None, a: Ansatz,
             ctx: Context) -> tuple[np.ndarray, list[Point]]:
    """Collocation matrix: one row per (point, generator), one column per
    dictionary coefficient.  Rows are grouped by point and each group is
    scaled to unit max entry so no point dominates the factorization."""
    cfg = SampleConfig(points=a.points, box=(-a.box, a.box), seed=a.seed)
    gens = _flow_distribution(S, D_gens, ctx, cfg)
    Svec = S.vector_field()

    # column expressions: rho contribution of each unknown on each generator
    col_exprs: list[list[Expr]] = []
    for phi in a.H_dictionary:
        dphi = d_scalar(phi, a.n)
        col_exprs.append([simplify(dphi(e)) for e in gens])
    for w in a.omega_dictionary:
        contracted = interior_product(Svec, w)
        col_exprs.append([simplify(Const(-1) * contracted(e)) for e in gens])

    pts = sample_points(ctx, cfg, S.singular_loci, count=a.points)
    g = len(gens)
    cols = [e for exprs in col_exprs for e in exprs]
    M = np.zeros((a.points * g, a.unknowns))
    for pi, values in enumerate(evaluate_points(cols, pts, ctx)):
        block = np.reshape(values, (a.unknowns, g)).T
        peak = np.max(np.abs(block))
        if peak > 0:
            block /= peak
        M[pi * g:(pi + 1) * g] = block
    return M, pts


def solve(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nullspace basis (columns) and the singular values that justify it."""
    # a wide M needs the full V^T: null_idx reaches past len(s)
    _, s, vt = np.linalg.svd(M, full_matrices=M.shape[0] < M.shape[1])
    smax = s[0] if len(s) else 0.0
    ncols = M.shape[1]
    null_idx = [i for i in range(ncols)
                if i >= len(s) or s[i] <= RANK_TOL * max(smax, 1e-300)]
    if smax == 0.0:
        null_idx = list(range(ncols))
    basis = vt.T[:, null_idx] if null_idx else np.zeros((ncols, 0))
    return basis, s


def _snap_vector(v: np.ndarray) -> list[Fraction] | None:
    """Try to read the direction as a rational vector with small entries."""
    scale = np.max(np.abs(v))
    if scale == 0:
        return None
    snapped = []
    for r in (v / scale).tolist():
        # limit_denominator gives 0 for any |r| < 1/48, and the test below
        # keeps it for |r| <= 1e-6: most entries are 0.0 or round-off
        fr = Fraction(0) if abs(r) <= 1e-6 else Fraction(r).limit_denominator(SNAP_MAX_DEN)
        if abs(float(fr) - r) > 1e-6:
            return None
        snapped.append(fr)
    return snapped


def _decode(a: Ansatz, v: Sequence[Fraction | float]) -> tuple[Expr, TwoForm]:
    hn = len(a.H_dictionary)
    h_terms = [Mul((Const(c), phi))
               for c, phi in zip(v[:hn], a.H_dictionary) if abs(float(c)) > 1e-13]
    H = simplify(sum_exprs(h_terms))
    omega = TwoForm.zero(a.n)
    for c, w in zip(v[hn:], a.omega_dictionary):
        if abs(float(c)) > 1e-13:
            omega = omega + w.scaled(Const(c))
    return H, omega


def _normalize_direction(v: np.ndarray) -> np.ndarray:
    v = v / np.linalg.norm(v)
    for x in v:
        if abs(x) > 1e-12:
            return v if x > 0 else -v
    return v


def _canonical_directions(basis: np.ndarray) -> list[np.ndarray]:
    """Gauss-reduce the nullspace so each reported direction is as sparse
    as the space allows; SVD vectors are arbitrary rotations otherwise."""
    B = basis.T.copy()
    rows, cols = B.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        piv = r + int(np.argmax(np.abs(B[r:, c])))
        if abs(B[piv, c]) < 1e-10:
            continue
        B[[r, piv]] = B[[piv, r]]
        B[r] /= B[r, c]
        for k in range(rows):
            if k != r:
                B[k] -= B[k, c] * B[r]
        r += 1
    return [B[i] for i in range(rows)]


def search(S: SemiSpray, D_gens: Sequence[VectorField] | None, a: Ansatz,
           ctx: Context) -> SearchResult:
    """assemble, factor, decode, then keep only what re-verifies.

    Trivial directions (numerically constant H) are counted and dropped;
    every other direction gets one certificate, and those whose residual
    check (symbolic, or numeric to 1e-9 where no component is proven
    nonzero) fails are counted as rejected.
    Verification happens at fresh sample points, never the collocation ones.
    The certificate parts that do not depend on the candidate are built
    once per search.
    """
    M, pts = assemble(S, D_gens, a, ctx)
    basis, svals = solve(M)
    verify_cfg = SampleConfig(points=50, box=(-a.box, a.box), seed=a.seed + 101)
    dh_cfg = SampleConfig(points=20, box=(-a.box, a.box), seed=a.seed + 202)
    dh_pts = sample_points(ctx, dh_cfg, S.singular_loci, count=20)
    certify = _certifier(S, D_gens, ctx, verify_cfg)

    candidates: list[CandidateSolution] = []
    seen: set[str] = set()
    trivial = 0
    rejected = 0
    for direction in _canonical_directions(basis):
        v = _normalize_direction(direction)
        # a snapped direction stays exact, any other stays in floats
        H, omega = _decode(a, _snap_vector(v) or v.tolist())
        dH = d_scalar(H, a.n)
        dh_norm = 0.0
        for values in evaluate_points(dH.comps, dh_pts, ctx):
            dh_norm = max(dh_norm, float(np.linalg.norm(values)))
        if dh_norm < 1e-10:
            trivial += 1
            continue
        cert = certify(omega, H)
        cand = CandidateSolution(H, omega, cert)
        if not cand.verified:
            rejected += 1
            continue
        key = cand.describe()
        if key in seen:
            continue
        seen.add(key)
        candidates.append(cand)
    return SearchResult(candidates, basis, svals, trivial, rejected, a)
