"""Second-order geometry on the tangent bundle of R^n.

A semi-spray is the vector field S = sum y_a d/dx_a - 2 sum G^a d/dy_a for
coefficient functions G^a(x, y).  Differentiating the coefficients in the
fiber directions gives a nonlinear connection N^a_i, which splits T(TR^n)
into the horizontal frame d/dx_i - N^a_i d/dy_a and the vertical d/dy_a,
with dual coframe dx_i and dy_a + N^a_i dx_i.  The curvature of the split is
the obstruction to the horizontal fields closing under the Lie bracket.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InternalError, ValidationError
from .expr import (
    Add, Const, Context, Expr, Mul, Neg, SampleConfig, Tri, Var, ZERO,
    as_expr, diff, is_zero, simplify, sum_exprs, tri_all,
)

__all__ = [
    "VectorField", "OneForm", "SemiSpray", "BerwaldFrame", "CurvatureTensor",
    "lie_bracket", "liouville_field", "is_semispray", "is_spray",
    "euler_residuals", "connection_coefficients", "spray_from_connection",
    "berwald_frame", "decompose", "curvature", "is_flat", "span_membership",
]


def _as_tuple(comps: Sequence, n: int, what: str) -> tuple[Expr, ...]:
    out = tuple(as_expr(c) for c in comps)
    if len(out) != n:
        raise ValidationError(f"{what} needs {n} components, got {len(out)}")
    return out


@dataclass(frozen=True)
class VectorField:
    """Vector field on TR^n with base components (d/dx) and fiber (d/dy)."""

    n: int
    base: tuple[Expr, ...]
    fiber: tuple[Expr, ...]

    def __post_init__(self):
        object.__setattr__(self, "base", _as_tuple(self.base, self.n, "base"))
        object.__setattr__(self, "fiber", _as_tuple(self.fiber, self.n, "fiber"))

    @classmethod
    def zero(cls, n: int) -> "VectorField":
        return cls(n, (ZERO,) * n, (ZERO,) * n)

    @classmethod
    def coordinate(cls, n: int, axis: str, index: int) -> "VectorField":
        base = [ZERO] * n
        fiber = [ZERO] * n
        (base if axis == "x" else fiber)[index - 1] = Const(1)
        return cls(n, tuple(base), tuple(fiber))

    def component(self, flat: int) -> Expr:
        return self.base[flat] if flat < self.n else self.fiber[flat - self.n]

    def __call__(self, f: Expr) -> Expr:
        """Directional derivative X(f)."""
        parts = []
        for i, c in enumerate(self.base, start=1):
            parts.append(Mul((c, diff(f, Var("x", i)))))
        for a, c in enumerate(self.fiber, start=1):
            parts.append(Mul((c, diff(f, Var("y", a)))))
        return simplify(Add(tuple(parts)))

    def __add__(self, other: "VectorField") -> "VectorField":
        return VectorField(
            self.n,
            tuple(Add((a, b)) for a, b in zip(self.base, other.base)),
            tuple(Add((a, b)) for a, b in zip(self.fiber, other.fiber)),
        ).simplified()

    def scaled(self, c) -> "VectorField":
        c = as_expr(c)
        return VectorField(
            self.n,
            tuple(Mul((c, v)) for v in self.base),
            tuple(Mul((c, v)) for v in self.fiber),
        ).simplified()

    def simplified(self) -> "VectorField":
        return VectorField(self.n, tuple(simplify(c) for c in self.base),
                           tuple(simplify(c) for c in self.fiber))


@dataclass(frozen=True)
class OneForm:
    """Differential one-form with dx components and dy components."""

    n: int
    dx: tuple[Expr, ...]
    dy: tuple[Expr, ...]

    def __post_init__(self):
        object.__setattr__(self, "dx", _as_tuple(self.dx, self.n, "dx"))
        object.__setattr__(self, "dy", _as_tuple(self.dy, self.n, "dy"))

    @classmethod
    def zero(cls, n: int) -> "OneForm":
        return cls(n, (ZERO,) * n, (ZERO,) * n)

    @classmethod
    def coordinate(cls, n: int, axis: str, index: int) -> "OneForm":
        dx = [ZERO] * n
        dy = [ZERO] * n
        (dx if axis == "x" else dy)[index - 1] = Const(1)
        return cls(n, tuple(dx), tuple(dy))

    def component(self, flat: int) -> Expr:
        return self.dx[flat] if flat < self.n else self.dy[flat - self.n]

    def __call__(self, X: VectorField) -> Expr:
        parts = [Mul((a, b)) for a, b in zip(self.dx + self.dy, X.base + X.fiber)]
        return simplify(Add(tuple(parts)))

    def __add__(self, other: "OneForm") -> "OneForm":
        return OneForm(
            self.n,
            tuple(Add((a, b)) for a, b in zip(self.dx, other.dx)),
            tuple(Add((a, b)) for a, b in zip(self.dy, other.dy)),
        ).simplified()

    def scaled(self, c) -> "OneForm":
        c = as_expr(c)
        return OneForm(self.n, tuple(Mul((c, v)) for v in self.dx),
                       tuple(Mul((c, v)) for v in self.dy)).simplified()

    def simplified(self) -> "OneForm":
        return OneForm(self.n, tuple(simplify(c) for c in self.dx),
                       tuple(simplify(c) for c in self.dy))


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    """[X, Y] componentwise: X(Y^k) - Y(X^k)."""
    if X.n != Y.n:
        raise ValidationError("bracket of fields on different dimensions")
    base = []
    fiber = []
    for k in range(2 * X.n):
        comp = simplify(Add((X(Y.component(k)), Neg(Y(X.component(k))))))
        (base if k < X.n else fiber).append(comp)
    return VectorField(X.n, tuple(base), tuple(fiber))


@dataclass(frozen=True)
class SemiSpray:
    """Coefficients G^a of a second-order field, plus declared singular loci.

    The loci are expressions whose zero sets are excluded from the domain;
    samplers stay clear of them and the integrator stops when a trajectory
    gets too close.
    """

    n: int
    G: tuple[Expr, ...]
    singular_loci: tuple[Expr, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "G", _as_tuple(self.G, self.n, "spray coefficients"))
        object.__setattr__(self, "singular_loci", tuple(self.singular_loci))

    def vector_field(self) -> VectorField:
        ys = tuple(Var("y", a) for a in range(1, self.n + 1))
        fibers = tuple(simplify(Mul((Const(-2), g))) for g in self.G)
        return VectorField(self.n, ys, fibers)


def liouville_field(n: int) -> VectorField:
    return VectorField(n, (ZERO,) * n, tuple(Var("y", a) for a in range(1, n + 1)))


def is_semispray(X: VectorField, ctx: Context, cfg: SampleConfig | None = None,
                 loci: Sequence[Expr] = ()) -> Tri:
    """Does J(X) equal the Liouville field, i.e. are the base components y_a."""
    verdicts = [
        is_zero(Add((X.base[a], Neg(Var("y", a + 1)))), ctx, cfg, loci)
        for a in range(X.n)
    ]
    return tri_all(verdicts)


def euler_residuals(S: SemiSpray) -> tuple[Expr, ...]:
    """sum_a y_a dG/dy_a - 2G, one expression per coefficient."""
    out = []
    for g in S.G:
        parts = [Mul((Var("y", a), diff(g, Var("y", a)))) for a in range(1, S.n + 1)]
        parts.append(Mul((Const(-2), g)))
        out.append(simplify(Add(tuple(parts))))
    return tuple(out)


def is_spray(S: SemiSpray, ctx: Context, cfg: SampleConfig | None = None) -> Tri:
    """Fiberwise 2-homogeneity of the coefficients, as an Euler identity."""
    return tri_all(is_zero(r, ctx, cfg, S.singular_loci) for r in euler_residuals(S))


def connection_coefficients(S: SemiSpray) -> tuple[tuple[Expr, ...], ...]:
    """N[a][i] = d G^a / d y_i, both indices 0-based."""
    return tuple(
        tuple(diff(S.G[a], Var("y", i + 1)) for i in range(S.n))
        for a in range(S.n)
    )


def spray_from_connection(N: Sequence[Sequence[Expr]], n: int) -> SemiSpray:
    """Rebuild coefficients as half the fiber contraction of the connection.

    For connections that came from a spray this inverts
    connection_coefficients; for a merely homogeneous connection it yields
    the associated spray, which need not reproduce a non-homogeneous source.
    """
    G = []
    for a in range(n):
        parts = [Mul((Const(Fraction(1, 2)), Var("y", i + 1), as_expr(N[a][i])))
                 for i in range(n)]
        G.append(simplify(sum_exprs(parts)))
    return SemiSpray(n, tuple(G))


@dataclass(frozen=True)
class BerwaldFrame:
    """Horizontal frame, vertical complement, and the dual coframe."""

    n: int
    N: tuple[tuple[Expr, ...], ...]
    horizontal: tuple[VectorField, ...]   # delta/delta x_i
    vertical: tuple[VectorField, ...]     # d/dy_a
    dx: tuple[OneForm, ...]
    dy_adapted: tuple[OneForm, ...]       # dy_a + N^a_i dx_i

    def horizontal_derivative(self, f: Expr, i: int) -> Expr:
        """Apply delta/delta x_i (0-based) to a scalar."""
        return self.horizontal[i](f)


def berwald_frame(S: SemiSpray) -> BerwaldFrame:
    n = S.n
    N = connection_coefficients(S)
    horizontal = []
    for i in range(n):
        fiber = tuple(simplify(Neg(N[a][i])) for a in range(n))
        base = tuple(Const(1) if j == i else ZERO for j in range(n))
        horizontal.append(VectorField(n, base, fiber))
    vertical = tuple(VectorField.coordinate(n, "y", a + 1) for a in range(n))
    dx = tuple(OneForm.coordinate(n, "x", i + 1) for i in range(n))
    dy_adapted = []
    for a in range(n):
        dy = tuple(Const(1) if b == a else ZERO for b in range(n))
        dy_adapted.append(OneForm(n, tuple(N[a][i] for i in range(n)), dy))
    return BerwaldFrame(n, N, tuple(horizontal), tuple(vertical), dx, tuple(dy_adapted))


def decompose(X: VectorField, frame: BerwaldFrame) -> tuple[tuple[Expr, ...], tuple[Expr, ...]]:
    """Split X over the frame: (dx_i(X), adapted-dy_a(X)).

    Reassembling sum h_i delta_i + sum v_a d/dy_a returns X identically.
    """
    horiz = tuple(simplify(c) for c in X.base)
    vert = tuple(frame.dy_adapted[a](X) for a in range(frame.n))
    return horiz, vert


@dataclass(frozen=True)
class CurvatureTensor:
    """Components R[a][i][j] of the horizontal bracket defect."""

    n: int
    R: tuple[tuple[tuple[Expr, ...], ...], ...]

    def component(self, a: int, i: int, j: int) -> Expr:
        return self.R[a][i][j]

    def flat_components(self) -> list[Expr]:
        return [self.R[a][i][j]
                for a in range(self.n)
                for i in range(self.n)
                for j in range(i + 1, self.n)]


def curvature(S: SemiSpray, frame: BerwaldFrame | None = None) -> CurvatureTensor:
    """R^a_ij = delta_j(N^a_i) - delta_i(N^a_j).

    As a cross-check the horizontal Lie brackets are recomputed
    independently and must match sum_a R^a_ij d/dy_a exactly; a mismatch
    raises InternalError since the two routes are the same identity.
    """
    fr = frame or berwald_frame(S)
    n = S.n
    R = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for a in range(n):
                if j > i:
                    term = Add((fr.horizontal_derivative(fr.N[a][i], j),
                                Neg(fr.horizontal_derivative(fr.N[a][j], i))))
                    R[a][i][j] = simplify(term)
                else:
                    R[a][i][j] = simplify(Neg(R[a][j][i]))
    for i in range(n):
        for j in range(i + 1, n):
            br = lie_bracket(fr.horizontal[i], fr.horizontal[j])
            for k in range(n):
                if br.base[k] != ZERO:
                    raise InternalError("horizontal bracket grew a base component")
            for a in range(n):
                if simplify(Add((br.fiber[a], Neg(R[a][i][j])))) != ZERO:
                    raise InternalError(
                        f"curvature component ({a},{i},{j}) disagrees with the bracket")
    return CurvatureTensor(n, tuple(tuple(tuple(row) for row in plane) for plane in R))


def is_flat(R: CurvatureTensor, loci: Sequence[Expr], ctx: Context,
            cfg: SampleConfig | None = None) -> Tri:
    """Is R zero (horizontal distribution integrable); samples avoid `loci`."""
    return tri_all(is_zero(c, ctx, cfg, loci) for c in R.flat_components())


# ---------------------------------------------------------------------------
# symbolic span membership (used for integrability certificates)


def span_membership(gens: Sequence[VectorField], target: VectorField,
                    ctx: Context, cfg: SampleConfig | None = None,
                    loci: Sequence[Expr] = ()) -> Tri:
    """Is target a pointwise combination of gens, generically.

    Gaussian elimination over expressions.  Pivots must be provably nonzero
    (by sampling), so the verdict concerns the open dense set where the
    pivots stay invertible: proven_zero means membership holds there,
    proven_nonzero means some residual row is nonzero, unknown means a
    pivot or residual could not be classified either way.
    """
    m = 2 * target.n
    cols = [[simplify(g.component(k)) for k in range(m)] for g in gens]
    rhs = [simplify(target.component(k)) for k in range(m)]
    used_rows: set[int] = set()
    pivoted: set[int] = set()
    progress = True
    while progress:
        progress = False
        for j, col in enumerate(cols):
            if j in pivoted:
                continue
            pivot_row = None
            for r in range(m):
                if r in used_rows:
                    continue
                if is_zero(col[r], ctx, cfg, loci) is Tri.PROVEN_NONZERO:
                    pivot_row = r
                    break
            if pivot_row is None:
                continue
            pivoted.add(j)
            used_rows.add(pivot_row)
            progress = True
            piv = col[pivot_row]
            for r in range(m):
                if r == pivot_row:
                    continue
                factor = simplify(col[r] / piv)
                if factor != ZERO:
                    for other in cols:
                        if other is not col:
                            other[r] = simplify(other[r] - factor * other[pivot_row])
                    rhs[r] = simplify(rhs[r] - factor * rhs[pivot_row])
                col[r] = ZERO
    # Rows never chosen as pivots: every generator entry left in them failed
    # the nonzero test, so certify them zero before reading off the residual.
    verdicts = []
    for r in range(m):
        if r in used_rows:
            continue
        for j, col in enumerate(cols):
            if j in pivoted:
                continue
            if is_zero(col[r], ctx, cfg, loci) is not Tri.PROVEN_ZERO:
                return Tri.UNKNOWN
        verdicts.append(is_zero(rhs[r], ctx, cfg, loci))
    return tri_all(verdicts)
