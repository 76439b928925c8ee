"""Pairs of vector fields and one-forms on TR^n, and subbundles spanned by
them.

A section here is an element (X, alpha) of the direct sum of the tangent
and cotangent bundles.  The symmetric pairing is beta(X) + alpha(Y), with
no 1/2 factor; the antisymmetrized bracket keeps its usual 1/2 on the
exact correction term.  Structures are handled through finite generating
families, checked pointwise on the generator matrix at each point (each
matrix entry evaluated over all the points in one pass): isotropy, rank and
kernel, and bracket closure as a numeric residual against the evaluated
span, whatever its rank.  Every rank read from generator rows reads them
divided by their largest entries, so a generator's scale is never lost rank.
Bracket rows and the flow field go through span_gaps: one overflow rule, one
gelsd call per stack.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np
# the gufunc and error hook of np.linalg.lstsq, which refuses a stack of
# systems; one solve of many right-hand sides is not bit for bit
from numpy.linalg import _linalg, _umath_linalg

from .errors import (
    AnnihilatorMismatchError, RankDeficientError, SingularLocusError, ValidationError,
)
from .expr import (
    Add, Const, Context, Expr, Mul, Neg, Point, SampleConfig, Tri,
    _zero_test, evaluate, evaluate_points, sample_points, simplify, sum_exprs,
)
from .forms import TwoForm, d_scalar, interior_product, lie_derivative
from .geometry import OneForm, VectorField, lie_bracket

__all__ = [
    "Section", "AlmostDirac", "pairing", "courant_bracket", "jacobi_anomaly",
    "from_distribution", "gauge_transform", "is_isotropic_at", "is_maximal_at",
    "involutivity_residual", "kernel_at", "span_gaps", "stacked",
]

HALF = Const(Fraction(1, 2))
# Relative tolerance of the pointwise rank, isotropy and membership tests.
POINTWISE_TOL = 1e-9


@dataclass(frozen=True)
class Section:
    """A tangent-plus-cotangent element (X, alpha)."""

    X: VectorField
    alpha: OneForm

    def __post_init__(self):
        if self.X.n != self.alpha.n:
            raise ValidationError("section halves live on different dimensions")

    @property
    def n(self) -> int:
        return self.X.n

    @classmethod
    def of_field(cls, X: VectorField) -> "Section":
        return cls(X, OneForm.zero(X.n))

    @classmethod
    def of_form(cls, alpha: OneForm) -> "Section":
        return cls(VectorField.zero(alpha.n), alpha)

    def simplified(self) -> "Section":
        return Section(self.X.simplified(), self.alpha.simplified())

    def components(self) -> list[Expr]:
        return [*self.X.comps, *self.alpha.comps]

    def is_structurally_zero(self) -> bool:
        return self.X.is_zero() and self.alpha.is_zero()


def pairing(a: Section, b: Section) -> Expr:
    """beta(X) + alpha(Y); symmetric, no 1/2 normalization."""
    if a.n != b.n:
        raise ValidationError("pairing of sections on different dimensions")
    return simplify(Add((b.alpha(a.X), a.alpha(b.X))))


def courant_bracket(a: Section, b: Section) -> Section:
    """([X,Y], L_X beta - L_Y alpha + (1/2) d(alpha(Y) - beta(X))); where both
    form halves are structurally zero, only [X,Y] is computed."""
    if a.n != b.n:
        raise ValidationError("bracket of sections on different dimensions")
    vec = lie_bracket(a.X, b.X)
    if a.alpha.is_zero() and b.alpha.is_zero():
        return Section(vec, OneForm.zero(a.n))
    scalar = simplify(Add((a.alpha(b.X), Neg(b.alpha(a.X)))))
    correction = d_scalar(Mul((HALF, scalar)), a.n)
    form = lie_derivative(a.X, b.alpha) + lie_derivative(b.X, a.alpha).scaled(-1)
    form = form + correction
    return Section(vec, form.simplified())


def jacobi_anomaly(a1: Section, a2: Section, a3: Section, p: Point,
                   ctx: Context) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the bracket-Jacobi defect identity, evaluated at p.

    The cyclic double bracket equals the exact one-form d T with
    T = (1/6) * sum over cyclic permutations of the pairing of a double
    bracket with the remaining section.  With the unnormalized pairing the
    prefactor is 1/6 (it is 1/3 under the half-normalized pairing).  Both
    sides are returned as flat vectors over (vector comps, form comps).
    """
    n = a1.n
    cyc = ((a1, a2, a3), (a2, a3, a1), (a3, a1, a2))
    lhs_sections = [courant_bracket(courant_bracket(x, y), z) for x, y, z in cyc]
    t_terms = [pairing(courant_bracket(x, y), z) for x, y, z in cyc]
    T = simplify(Mul((Const(Fraction(1, 6)), sum_exprs(t_terms))))
    rhs_form = d_scalar(T, n)
    all_exprs = [c for s in lhs_sections for c in s.components()] + list(rhs_form.comps)
    vals = np.array([evaluate(e, p, ctx) for e in all_exprs])
    lhs = np.zeros(4 * n)
    for row in vals[:12 * n].reshape(3, 4 * n):
        lhs += row
    rhs = np.concatenate([np.zeros(2 * n), vals[12 * n:]])
    return lhs, rhs


@dataclass(eq=False)
class AlmostDirac:
    """Finite generating family of sections with provenance bookkeeping.

    ann_rank_deficit records how far a user-supplied annihilator family
    falls short of complementing the distribution; deficient structures
    are accepted and the deficit is surfaced in reports instead of being
    silently patched.
    """

    n: int
    generators: tuple[Section, ...]
    provenance: str = "explicit"
    ann_rank_deficit: int = 0
    singular_loci: tuple[Expr, ...] = ()
    auto_annihilator: bool = False
    dist_rank: int | None = None
    gauge_of: "AlmostDirac | None" = None
    gauge_form: TwoForm | None = None

    def __post_init__(self):
        self.generators = tuple(g.simplified() for g in self.generators)
        for g in self.generators:
            if g.n != self.n:
                raise ValidationError("generator dimension mismatch")

    def bracket(self, i: int, j: int) -> Section:
        return courant_bracket(self.generators[i], self.generators[j]).simplified()

    def all_exprs(self) -> list[Expr]:
        return [c for g in self.generators for c in g.components()]

    def _pairs(self):
        return itertools.combinations(range(len(self.generators)), 2)

    def bracket_exprs(self) -> list[Expr]:
        """The components of the generator brackets that are not
        structurally zero (a zero bracket lies in every span)."""
        return [c for b in itertools.starmap(self.bracket, self._pairs())
                if not b.is_structurally_zero() for c in b.components()]

    def generator_matrices(self, points: Sequence[Point], ctx: Context) -> Iterator[np.ndarray]:
        """The structure evaluated at each point in turn, one row per
        generator plus any auto-annihilator rows; an error at a point (say
        SingularLocusError on a declared locus) comes after those before it."""
        w, rows, failed = 2 * self.n, [], None
        values = evaluate_points(self.all_exprs(), points, ctx)
        try:
            for p in points:
                if any(abs(evaluate(locus, p, ctx)) <= 1e-9 for locus in self.singular_loci):
                    raise SingularLocusError("point lies on a declared singular locus")
                rows.append(next(values))
        except Exception as exc:  # noqa: BLE001 -- raised after the matrices before it
            failed = exc
        stack = np.reshape(rows, (len(rows), len(self.generators), 2 * w))
        mats = list(stack)
        if self.auto_annihilator:
            # rows whose form part has norm <= 1e-12: all that are 0, none
            # with an entry of 2e-12 or more; norm decides the rest
            amax = np.max(np.abs(stack[..., w:]), axis=-1, initial=0.0)
            zero = amax == 0
            for i, j in zip(*np.nonzero((amax > 0) & (amax < 2e-12))):
                zero[i, j] = np.linalg.norm(stack[i, j, w:]) <= 1e-12
            has = [i for i, z in enumerate(zero) if z.any()]
            for i, null in zip(has, stacked(_null_space, [stack[i, zero[i], :w] for i in has])):
                pad = np.concatenate([np.zeros((null.shape[1], w)), null.T], axis=1)
                mats[i] = np.concatenate([mats[i], pad])
        yield from mats
        if failed is not None:
            raise failed


def stacked(fn, mats: Sequence[np.ndarray], *rest: Sequence[np.ndarray]) -> list:
    """fn of each of mats (and of rest's items), one call per stack of equal shape and strides."""
    out: dict[int, object] = {}
    for layout in dict.fromkeys((M.shape, M.strides) for M in mats):
        idx = [i for i, M in enumerate(mats) if (M.shape, M.strides) == layout]
        out.update(zip(idx, fn(*(np.stack([seq[i] for i in idx]) for seq in (mats, *rest)))))
    return [out[i] for i in range(len(mats))]


def _rows_scaled(M: np.ndarray) -> np.ndarray:
    """M, or each matrix of a stack, with each nonzero row divided by its
    largest entry: scaling a row keeps the span, so every rank read from
    generator rows reads this."""
    m = np.max(np.abs(M), axis=-1, keepdims=True)
    return M / np.where(m > 0, m, 1.0)


def _matrix_rank(M: np.ndarray):
    """The rank of M, or the array of the ranks of a stack (..., r, c)."""
    scale = np.maximum(1.0, np.max(np.abs(M), axis=(-2, -1), initial=0.0))
    s = np.linalg.svd(np.asarray_chkfinite(M), compute_uv=False)
    ranks = np.sum(s > POINTWISE_TOL * scale[..., None], axis=-1)
    return int(ranks) if M.ndim == 2 else ranks


def _null_space(A: np.ndarray):
    """Orthonormal basis of the null space of A, as columns: what
    scipy.linalg.null_space gives, on numpy's gesdd; a list for a stack."""
    u, s, vh = np.linalg.svd(np.asarray_chkfinite(A), full_matrices=True)
    M, N = u.shape[-2], vh.shape[-1]
    rcond = np.finfo(s.dtype).eps * max(M, N)
    tol = np.amax(s, axis=-1, initial=0., keepdims=True) * rcond
    num = np.sum(s > tol, axis=-1, dtype=int)
    return vh[num:, :].T if A.ndim == 2 else [v[q:, :].T for v, q in zip(vh, num)]


def span_gaps(A: np.ndarray | Sequence[np.ndarray], rhs: Sequence[np.ndarray]) -> list:
    """For each row b of rhs: the least-squares x of A x = b, |b - A x|, and
    whether that exceeds POINTWISE_TOL * max(1, |b|).  A is one matrix, read
    in place (other strides can round A @ x apart), or one per row, solved a
    stack per call.  A row whose norm overflows is tested on A and b divided
    by their largest entry, and its norm scaled back."""
    if not isinstance(A, np.ndarray):
        return stacked(span_gaps, A, rhs)
    A, b = np.broadcast_to(A, (len(rhs), *A.shape[-2:])), np.reshape(rhs, (len(rhs), A.shape[-2]))
    with np.errstate(over="ignore", invalid="ignore"):
        x, gap, size = _lstsq(A, b)
        scale = np.ones_like(gap)
        for k in np.flatnonzero(~(np.isfinite(gap) & np.isfinite(size))):
            scale[k] = max(np.max(np.abs(A[k])), np.max(np.abs(b[k])))
            (x[k],), (gap[k],), (size[k],) = _lstsq(A[k:k + 1] / scale[k], b[k:k + 1] / scale[k])
        # the residual and |b| scale alike
        outside = gap > POINTWISE_TOL * np.fmax(1.0 / scale, size)
        return list(zip(x, (gap * scale).tolist(), outside.tolist()))


def _lstsq(A: np.ndarray, b: np.ndarray) -> tuple:
    """Each x of a stack A x = b as np.linalg.lstsq gives it, |b - A x|, |b|."""
    with np.errstate(call=_linalg._raise_linalgerror_lstsq, invalid="call"):
        x = _umath_linalg.lstsq(A, b[..., None], np.finfo(float).eps * max(A.shape[-2:]),
                                signature="ddd->ddid")[0]
    r = np.matmul(A, x)[..., 0] - b
    return x[..., 0], np.sqrt(np.vecdot(r, r)), np.sqrt(np.vecdot(b, b))


def from_distribution(D_gens: Sequence[VectorField],
                      ann_gens: Sequence[OneForm] | None,
                      ctx: Context,
                      cfg: SampleConfig | None = None,
                      loci: Sequence[Expr] = ()) -> AlmostDirac:
    """Build the structure spanned by (X_i, 0) and (0, eta_j).

    Annihilation eta_j(X_i) = 0 is is_zero's test; a pairing it proves
    nonzero is reported with its witness point and the value there.
    Generator independence and annihilator rank are measured at sampled
    points; a short annihilator family is recorded as a deficit, and one
    whose rank exceeds the complement dimension 2n - k is rejected.
    """
    if not D_gens:
        raise ValidationError("need at least one distribution generator")
    n = D_gens[0].n
    for X in D_gens:
        if X.n != n:
            raise ValidationError("distribution generator dimension mismatch")
    auto = ann_gens is None
    etas = tuple(ann_gens or ())
    for eta in etas:
        if eta.n != n:
            raise ValidationError("annihilator generator dimension mismatch")
    cfg = cfg or SampleConfig()
    pts = sample_points(ctx, cfg, loci, count=max(8, cfg.points // 2))

    for g in (*etas, *D_gens) if etas else ():   # normalized before eta(X) skips a ZERO's partner
        g.simplified()
    for eta in etas:
        for X in D_gens:
            verdict, witness, val = _zero_test(simplify(eta(X)), ctx, cfg, loci)
            if verdict is Tri.PROVEN_NONZERO:
                raise AnnihilatorMismatchError(
                    "annihilator does not vanish on the distribution: "
                    f"value {val:.3e} at a sampled point", witness=witness)

    def rank(rows, r):
        return _matrix_rank(_rows_scaled(np.reshape(rows, (len(rows), r, 2 * n))))
    k = len(D_gens)
    a_rows = evaluate_points([c for eta in etas for c in eta.comps], pts, ctx)
    # D(i), then A(i), per point; a rank-deficient D before a later error
    Ds, As, failed = [], [], None
    try:
        for d in evaluate_points([c for X in D_gens for c in X.comps], pts, ctx):
            Ds.append(d)
            As.append(next(a_rows))
    except Exception as exc:  # noqa: BLE001 -- raised after the ranks before it
        failed = exc
    if np.any(rank(Ds, k) < k):
        raise RankDeficientError(
            f"distribution generators dependent at a sampled point "
            f"(rank < {k})")
    if failed is not None:
        raise failed
    ann_rank = int(np.max(rank(As, len(etas))))

    deficit = 0 if auto else (2 * n - k) - ann_rank
    if deficit < 0:
        raise AnnihilatorMismatchError(
            f"annihilator family has sampled rank {ann_rank}, more than the "
            f"complement dimension 2n - k = {2 * n - k}")
    gens = [Section.of_field(X) for X in D_gens]
    gens += [Section.of_form(eta) for eta in etas]
    return AlmostDirac(
        n=n, generators=tuple(gens), provenance="from_distribution",
        ann_rank_deficit=deficit, singular_loci=tuple(loci),
        auto_annihilator=auto, dist_rank=k)


def gauge_transform(L: AlmostDirac, omega: TwoForm) -> AlmostDirac:
    """(X, alpha) becomes (X, alpha + i_X omega) generator by generator."""
    if omega.n != L.n:
        raise ValidationError("gauge form dimension mismatch")
    gens = tuple(Section(g.X, (g.alpha + interior_product(g.X, omega)).simplified())
                 for g in L.generators)
    return AlmostDirac(
        n=L.n, generators=gens, provenance=f"gauge({L.provenance})",
        ann_rank_deficit=L.ann_rank_deficit, singular_loci=L.singular_loci,
        auto_annihilator=L.auto_annihilator, dist_rank=L.dist_rank,
        gauge_of=L, gauge_form=omega)


def is_isotropic_at(B: np.ndarray):
    """Whether the pairing vanishes on the rows of B, one of the
    generator_matrices, or the bool array of it for a stack (..., r, 4n)."""
    with np.errstate(all="ignore"):
        iso, finite = _isotropy(B, 1.0)
        if not finite.all():
            # the pairing or a squared norm overflowed: test B/m against 1/m^2
            m = np.max(np.abs(B), axis=(-2, -1))[..., None, None]
            iso = np.where(finite, iso, _isotropy(B / m, (1.0 / m[..., 0, 0]) ** 2)[0])
    return bool(iso) if B.ndim == 2 else iso


def _isotropy(B: np.ndarray, floor: float | np.ndarray) -> tuple:
    """max |pairing| <= POINTWISE_TOL * max(floor, largest squared row norm)
    for each matrix of B, and whether both sides were finite."""
    V, W = np.split(B, 2, axis=-1)
    gram = np.max(np.abs(V @ W.swapaxes(-1, -2) + W @ V.swapaxes(-1, -2)), axis=(-2, -1))
    scale = np.maximum(floor, np.max(np.sum(B * B, axis=-1), axis=-1))
    return gram <= POINTWISE_TOL * scale, np.isfinite(gram) & np.isfinite(scale)


def is_maximal_at(B: np.ndarray):
    """Whether the rows of B, one of the generator_matrices, span 2n
    dimensions, or the bool array of it for a stack (..., r, 4n)."""
    return _matrix_rank(_rows_scaled(B)) == B.shape[-1] // 2


def involutivity_residual(L: AlmostDirac, points: Sequence[Point], ctx: Context,
                          Bs: Sequence[np.ndarray]) -> float:
    """Largest norm of a generator bracket's component outside span(L_p),
    over the points p.

    Bs holds L.generator_matrices(points, ctx).  Zero residual at p is the
    pointwise closure condition.  It is measured against the evaluated span
    whatever its rank, which only ever overestimates closure failure.
    """
    mats, rows = [], []
    for B, values in zip(Bs, evaluate_points(L.bracket_exprs(), points, ctx)):
        rows.extend(np.reshape(values, (-1, 4 * L.n)))
        mats += [B.T] * (len(rows) - len(mats))
    return max([0.0, *(gap for _, gap, _ in span_gaps(mats, rows))])


def kernel_at(B: np.ndarray) -> list[np.ndarray]:
    """Orthonormal basis of the v with (v, 0) in the row span of B."""
    n = B.shape[1] // 4
    B = _rows_scaled(B)
    V, W = B[:, : 2 * n], B[:, 2 * n:]
    null = _null_space(W.T)
    if null.shape[1] == 0:
        return []
    candidates = (V.T @ null).T
    keep = candidates[np.linalg.norm(candidates, axis=1) > POINTWISE_TOL]
    if keep.size == 0:
        return []
    _, s, vt = np.linalg.svd(keep, full_matrices=False)
    return [vt[i] for i in range(len(s)) if s[i] > POINTWISE_TOL]

