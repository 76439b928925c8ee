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
from typing import Sequence

from .errors import ValidationError
from .expr import (
    Add, Const, Context, Expr, Mul, Neg, SampleConfig, Tri, ZERO,
    as_expr, coordinates, diff, is_zero, simplify, sum_exprs, tri_all,
)

__all__ = [
    "VectorField", "OneForm", "SemiSpray", "BerwaldFrame", "CurvatureTensor",
    "lie_bracket", "is_semispray", "is_spray",
    "euler_residuals", "connection_coefficients",
    "berwald_frame", "decompose", "curvature", "is_flat", "span_membership",
]


def _as_tuple(comps: Sequence, n: int, what: str) -> tuple[Expr, ...]:
    out = tuple(as_expr(c) for c in comps)
    if len(out) != n:
        raise ValidationError(f"{what} needs {n} components, got {len(out)}")
    return out


@dataclass(frozen=True, init=False)
class _Flat:
    """n and the 2n components over the flat slots: slot k < n is the x_{k+1}
    direction and slot n + a the y_{a+1} direction, for a field's d/dx, d/dy
    and a one-form's dx, dy alike.  The two halves are views of comps."""

    n: int
    comps: tuple[Expr, ...]

    def __init__(self, n: int, low: Sequence, high: Sequence):
        low_name, high_name = self._HALVES
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "comps", _as_tuple(low, n, low_name)
                           + _as_tuple(high, n, high_name))

    @classmethod
    def from_comps(cls, n: int, comps: Sequence[Expr]):
        """The element with these 2n flat components, which are Exprs already."""
        out = object.__new__(cls)
        object.__setattr__(out, "n", n)
        object.__setattr__(out, "comps", tuple(comps))
        return out

    @classmethod
    def zero(cls, n: int):
        return cls.from_comps(n, (ZERO,) * (2 * n))

    @classmethod
    def coordinate(cls, n: int, axis: str, index: int):
        comps = [ZERO] * (2 * n)
        comps[index - 1 if axis == "x" else n + index - 1] = Const(1)
        return cls.from_comps(n, comps)

    def component(self, flat: int) -> Expr:
        return self.comps[flat]

    def is_zero(self) -> bool:
        """Structurally zero: every component is ZERO, decided without sampling."""
        return all(c == ZERO for c in self.comps)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if other.n != self.n:
            raise ValidationError("sum of elements on different dimensions")
        if self.is_zero() or other.is_zero():
            return (other if self.is_zero() else self).simplified()
        return self.from_comps(self.n, [simplify(Add((a, b)))
                                        for a, b in zip(self.comps, other.comps)])

    def scaled(self, c):
        c = as_expr(c)
        return self if self.is_zero() else self.from_comps(
            self.n, [simplify(Mul((c, v))) for v in self.comps])

    def simplified(self):
        return self.from_comps(self.n, [simplify(c) for c in self.comps])


_LOW = property(lambda self: self.comps[:self.n])
_HIGH = property(lambda self: self.comps[self.n:])


class VectorField(_Flat):
    """Vector field on TR^n with base components (d/dx) and fiber (d/dy)."""

    _HALVES = ("base", "fiber")
    base, fiber = _LOW, _HIGH

    def __call__(self, f: Expr) -> Expr:
        """Directional derivative X(f): no product where a component or its derivative is ZERO."""
        parts = [Mul((c, d)) for c, v in zip(self.comps, coordinates(self.n))
                 if c != ZERO and (d := diff(f, v)) != ZERO]
        return simplify(sum_exprs(parts))


class OneForm(_Flat):
    """Differential one-form with dx components and dy components."""

    _HALVES = ("dx", "dy")
    dx, dy = _LOW, _HIGH

    def __call__(self, X: VectorField) -> Expr:
        """alpha(X): the sum of the products of matching components, less those with a ZERO."""
        if X.n != self.n:
            raise ValidationError("pairing of a form and a field on different dimensions")
        parts = [Mul((a, b)) for a, b in zip(self.comps, X.comps) if a != ZERO and b != ZERO]
        return simplify(sum_exprs(parts))


def _difference(a: Expr, b: Expr) -> Expr:
    """simplify(a - b); where one side is ZERO, simplify of the other side alone."""
    return simplify(a if b == ZERO else Neg(b) if a == ZERO else Add((a, Neg(b))))


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    """[X, Y] componentwise: X(Y^k) - Y(X^k); the zero field where X or Y is zero."""
    if X.n != Y.n:
        raise ValidationError("bracket of fields on different dimensions")
    if X.is_zero() or Y.is_zero():
        return VectorField.zero(X.n)
    return VectorField.from_comps(X.n, [_difference(X(y), Y(x))
                                        for x, y in zip(X.comps, Y.comps)])


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
        if self.n < 1:
            raise ValidationError(f"dimension must be positive, got {self.n}")
        object.__setattr__(self, "G", _as_tuple(self.G, self.n, "spray coefficients"))
        object.__setattr__(self, "singular_loci", tuple(self.singular_loci))

    def vector_field(self) -> VectorField:
        fibers = tuple(simplify(Mul((Const(-2), g))) for g in self.G)
        return VectorField(self.n, coordinates(self.n)[self.n:], fibers)


def is_semispray(X: VectorField, ctx: Context, cfg: SampleConfig | None = None,
                 loci: Sequence[Expr] = ()) -> Tri:
    """Does J(X) equal the Liouville field, i.e. are the base components y_a."""
    verdicts = [
        is_zero(Add((b, Neg(y))), ctx, cfg, loci)
        for b, y in zip(X.base, coordinates(X.n)[X.n:])
    ]
    return tri_all(verdicts)


def euler_residuals(S: SemiSpray) -> tuple[Expr, ...]:
    """sum_a y_a dG/dy_a - 2G, one expression per coefficient."""
    out = []
    for g in S.G:
        parts = [Mul((y, diff(g, y))) for y in coordinates(S.n)[S.n:]]
        parts.append(Mul((Const(-2), g)))
        out.append(simplify(Add(tuple(parts))))
    return tuple(out)


def is_spray(S: SemiSpray, ctx: Context, cfg: SampleConfig | None = None) -> Tri:
    """Fiberwise 2-homogeneity of the coefficients, as an Euler identity."""
    return tri_all(is_zero(r, ctx, cfg, S.singular_loci) for r in euler_residuals(S))


def connection_coefficients(S: SemiSpray) -> tuple[tuple[Expr, ...], ...]:
    """N[a][i] = d G^a / d y_i, both indices 0-based."""
    ys = coordinates(S.n)[S.n:]
    return tuple(tuple(diff(g, y) for y in ys) for g in S.G)


@dataclass(frozen=True)
class BerwaldFrame:
    """Horizontal frame, vertical complement, and the dual coframe."""

    n: int
    N: tuple[tuple[Expr, ...], ...]
    horizontal: tuple[VectorField, ...]   # delta/delta x_i
    vertical: tuple[VectorField, ...]     # d/dy_a
    dx: tuple[OneForm, ...]
    dy_adapted: tuple[OneForm, ...]       # dy_a + N^a_i dx_i


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

    This is the fiber part of [delta_i, delta_j], whose base part vanishes.
    A tier-1 property in tests/test_properties.py checks that identity
    against lie_bracket on generated semisprays, so no call recomputes it.
    """
    fr = frame or berwald_frame(S)
    n = S.n
    R = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for a in range(n):
                R[a][i][j] = _difference(fr.horizontal[j](fr.N[a][i]),
                                         fr.horizontal[i](fr.N[a][j]))
                R[a][j][i] = simplify(Neg(R[a][i][j]))
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
    cols = [[simplify(c) for c in g.comps] for g in gens]
    rhs = [simplify(c) for c in target.comps]
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
