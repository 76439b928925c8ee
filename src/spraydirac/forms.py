"""Differential forms on TR^n up to degree three.

Flat indexing is used throughout: slots 0..n-1 are the base directions
(dx_1..dx_n) and slots n..2n-1 the fiber directions (dy_1..dy_n).  A
TwoForm stores only strictly upper-triangular components over that
indexing, in either the coordinate coframe or the connection-adapted
coframe where slot n+a means dy_a + N^a_i dx_i.  Adapted-basis forms can
carry their connection matrix so that derivative and contraction
operations may rewrite them over the coordinate coframe first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from .errors import ValidationError
from .expr import (
    Add, Context, Expr, Mul, Neg, Point, Var, ZERO, ONE,
    as_expr, diff, evaluate, format_expr, simplify, sum_exprs,
)
from .geometry import OneForm, VectorField

__all__ = [
    "TwoForm", "ThreeForm", "COORD", "BERWALD",
    "flat_var", "basis_label", "d_scalar", "wedge",
    "exterior_derivative_1", "exterior_derivative_2",
    "interior_product", "lie_derivative", "format_coefficient",
    "format_two_form",
]

COORD = "coord"
BERWALD = "berwald"


def flat_var(n: int, k: int) -> Var:
    """Coordinate for flat slot k: x_{k+1} below n, else y_{k-n+1}."""
    return Var("x", k + 1) if k < n else Var("y", k - n + 1)


def basis_label(n: int, basis: str, k: int) -> str:
    if k < n:
        return "dx" + str(k + 1)
    return ("dy" if basis == COORD else "del") + str(k - n + 1)


def _accum(comps: dict, i: int, j: int, e: Expr) -> None:
    if i == j:
        return
    if i > j:
        i, j = j, i
        e = Neg(e)
    prev = comps.get((i, j))
    comps[(i, j)] = e if prev is None else Add((prev, e))


def _clean(comps: dict) -> dict:
    out = {}
    for key, e in sorted(comps.items()):
        s = simplify(e)
        if s != ZERO:
            out[key] = s
    return out


@dataclass(frozen=True, eq=False)
class TwoForm:
    """Antisymmetric bilinear form; strictly upper components over flat slots."""

    n: int
    comps: Mapping[tuple[int, int], Expr]
    basis: str = COORD
    N: tuple[tuple[Expr, ...], ...] | None = None

    def __post_init__(self):
        if self.basis not in (COORD, BERWALD):
            raise ValidationError(f"unknown coframe basis {self.basis!r}")
        m = 2 * self.n
        staged = {}
        for (i, j), e in dict(self.comps).items():
            if not (0 <= i < j < m):
                raise ValidationError(f"two-form index pair {(i, j)} out of range")
            staged[(i, j)] = as_expr(e)
        object.__setattr__(self, "comps", _clean(staged))

    def __eq__(self, other):
        return (isinstance(other, TwoForm) and self.n == other.n
                and self.basis == other.basis and self.comps == other.comps)

    @classmethod
    def zero(cls, n: int, basis: str = COORD) -> "TwoForm":
        return cls(n, {}, basis)

    @classmethod
    def single(cls, n: int, i: int, j: int, coeff, basis: str = COORD,
               N=None) -> "TwoForm":
        comps: dict = {}
        _accum(comps, i, j, as_expr(coeff))
        return cls(n, comps, basis, N)

    def with_connection(self, N) -> "TwoForm":
        return TwoForm(self.n, dict(self.comps), self.basis, tuple(tuple(r) for r in N))

    def component(self, i: int, j: int) -> Expr:
        if i == j:
            return ZERO
        if i < j:
            return self.comps.get((i, j), ZERO)
        return simplify(Neg(self.comps.get((j, i), ZERO)))

    def items(self) -> Iterator[tuple[tuple[int, int], Expr]]:
        return iter(sorted(self.comps.items()))

    def is_structurally_zero(self) -> bool:
        return not self.comps

    def __add__(self, other: "TwoForm") -> "TwoForm":
        if self.n != other.n or self.basis != other.basis:
            raise ValidationError("two-form addition needs matching size and basis")
        merged: dict = {}
        for (i, j), e in self.comps.items():
            _accum(merged, i, j, e)
        for (i, j), e in other.comps.items():
            _accum(merged, i, j, e)
        return TwoForm(self.n, merged, self.basis, self.N or other.N)

    def scaled(self, c) -> "TwoForm":
        c = as_expr(c)
        return TwoForm(self.n, {k: Mul((c, e)) for k, e in self.comps.items()},
                       self.basis, self.N)

    def to_coordinates(self) -> "TwoForm":
        """Rewrite over dx, dy by expanding each adapted fiber coframe slot."""
        if self.basis == COORD:
            return self
        if self.N is None:
            raise ValidationError("adapted-basis form has no connection to expand with")
        n = self.n

        def expand(k: int) -> list[tuple[int, Expr]]:
            if k < n:
                return [(k, ONE)]
            a = k - n
            out: list[tuple[int, Expr]] = [(k, ONE)]
            for i in range(n):
                e = as_expr(self.N[a][i])
                if e != ZERO:
                    out.append((i, e))
            return out

        comps: dict = {}
        for (i, j), w in self.comps.items():
            for k1, c1 in expand(i):
                for k2, c2 in expand(j):
                    _accum(comps, k1, k2, Mul((w, c1, c2)))
        return TwoForm(n, comps, COORD)

    def __call__(self, X: VectorField, Y: VectorField) -> Expr:
        if self.basis != COORD:
            return self.to_coordinates()(X, Y)
        parts = []
        for (i, j), w in self.comps.items():
            xi, xj = X.component(i), X.component(j)
            yi, yj = Y.component(i), Y.component(j)
            parts.append(Mul((w, Add((Mul((xi, yj)), Neg(Mul((xj, yi))))))))
        return simplify(sum_exprs(parts))

    def evaluate_matrix(self, p: Point, ctx: Context) -> np.ndarray:
        """Full antisymmetric matrix of the coordinate-basis components at p."""
        form = self.to_coordinates()
        m = 2 * self.n
        M = np.zeros((m, m))
        for (i, j), w in form.comps.items():
            v = evaluate(w, p, ctx)
            M[i, j] = v
            M[j, i] = -v
        return M


@dataclass(frozen=True, eq=False)
class ThreeForm:
    """Degree-three form, coordinate basis, strictly increasing index triples."""

    n: int
    comps: Mapping[tuple[int, int, int], Expr]

    def __post_init__(self):
        m = 2 * self.n
        staged = {}
        for (i, j, k), e in dict(self.comps).items():
            if not (0 <= i < j < k < m):
                raise ValidationError(f"three-form index triple {(i, j, k)} out of range")
            staged[(i, j, k)] = as_expr(e)
        object.__setattr__(self, "comps", _clean(staged))

    def __eq__(self, other):
        return (isinstance(other, ThreeForm) and self.n == other.n
                and self.comps == other.comps)

    def items(self):
        return iter(sorted(self.comps.items()))

    def components(self) -> list[Expr]:
        return [e for _, e in self.items()]

    def is_structurally_zero(self) -> bool:
        return not self.comps


def _accum3(comps: dict, idx: tuple[int, int, int], e: Expr) -> None:
    i, j, k = idx
    if i == j or j == k or i == k:
        return
    # sort the triple, tracking permutation sign
    sign = 1
    seq = [i, j, k]
    for a in range(2):
        for b in range(2 - a):
            if seq[b] > seq[b + 1]:
                seq[b], seq[b + 1] = seq[b + 1], seq[b]
                sign = -sign
    if sign < 0:
        e = Neg(e)
    key = (seq[0], seq[1], seq[2])
    prev = comps.get(key)
    comps[key] = e if prev is None else Add((prev, e))


def d_scalar(f: Expr, n: int) -> OneForm:
    """Exterior derivative of a function, as a one-form."""
    comps = [diff(f, flat_var(n, k)) for k in range(2 * n)]
    return OneForm(n, tuple(comps[:n]), tuple(comps[n:]))


def wedge(alpha: OneForm, beta: OneForm) -> TwoForm:
    if alpha.n != beta.n:
        raise ValidationError("wedge of forms on different dimensions")
    n = alpha.n
    comps: dict = {}
    for i in range(2 * n):
        ai = alpha.component(i)
        if ai == ZERO:
            continue
        for j in range(2 * n):
            if i == j:
                continue
            bj = beta.component(j)
            if bj == ZERO:
                continue
            _accum(comps, i, j, Mul((ai, bj)))
    return TwoForm(n, comps)


def exterior_derivative_1(alpha: OneForm) -> TwoForm:
    n = alpha.n
    comps: dict = {}
    for j in range(2 * n):
        aj = alpha.component(j)
        if aj == ZERO:
            continue
        for i in range(2 * n):
            if i == j:
                continue
            partial = diff(aj, flat_var(n, i))
            if partial != ZERO:
                _accum(comps, i, j, partial)
    return TwoForm(n, comps)


def exterior_derivative_2(omega: TwoForm) -> ThreeForm:
    form = omega.to_coordinates()
    n = form.n
    comps: dict = {}
    for (i, j), w in form.comps.items():
        for k in range(2 * n):
            partial = diff(w, flat_var(n, k))
            if partial != ZERO:
                _accum3(comps, (k, i, j), partial)
    return ThreeForm(n, comps)


def interior_product(X: VectorField, omega: TwoForm) -> OneForm:
    """(i_X omega)(Y) = omega(X, Y)."""
    form = omega.to_coordinates()
    if X.n != form.n:
        raise ValidationError("contraction needs matching dimensions")
    n = form.n
    out = [ZERO] * (2 * n)
    for (i, j), w in form.comps.items():
        xi, xj = X.component(i), X.component(j)
        if xi != ZERO:
            out[j] = Add((out[j], Mul((xi, w))))
        if xj != ZERO:
            out[i] = Add((out[i], Neg(Mul((xj, w)))))
    comps = [simplify(e) for e in out]
    return OneForm(n, tuple(comps[:n]), tuple(comps[n:]))


def lie_derivative(X: VectorField, alpha: OneForm) -> OneForm:
    """Cartan formula: contract into d(alpha), then add d of the pairing."""
    first = interior_product(X, exterior_derivative_1(alpha))
    second = d_scalar(alpha(X), alpha.n)
    return first + second


def format_coefficient(e: Expr) -> str:
    """Canonical text of e, parenthesized when it holds a + or a -."""
    t = format_expr(simplify(e))
    return f"({t})" if any(c in t[1:] for c in "+-") or t.startswith("-") else t


def format_two_form(omega: TwoForm) -> str:
    """Report text: `coeff*dxi^dyj` terms joined by ' + ', or '0'.

    Every coefficient goes through format_coefficient, so a negative one
    reads `(-2)*dx1^dy1`; a unit coefficient is left out.
    """
    parts = []
    for (i, j), c in omega.items():
        pair = f"{basis_label(omega.n, omega.basis, i)}^{basis_label(omega.n, omega.basis, j)}"
        coeff = format_coefficient(c)
        parts.append(pair if coeff == "1" else f"{coeff}*{pair}")
    return " + ".join(parts) or "0"
