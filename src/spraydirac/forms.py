"""Differential forms on TR^n up to degree three.

Every object here uses one flat 2n-slot layout, the one in which
geometry's VectorField and OneForm store their comps: slots 0..n-1 are
the base directions (dx_1..dx_n) and slots n..2n-1 the fiber directions
(dy_1..dy_n).  Two- and three-forms store one component per strictly
increasing index tuple over those slots.  A TwoForm's components may be
over the coordinate coframe or the connection-adapted coframe, where slot
n+a means dy_a + N^a_i dx_i.  Adapted-basis forms can carry their
connection matrix so that derivative and contraction operations may
rewrite them over the coordinate coframe first.  One loop, _d, takes d of
one- and two-forms, and a two-form's value omega(X, Y) is (i_X omega)(Y).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Mapping

from .errors import ValidationError
from .expr import (
    Add, Expr, Mul, Neg, Var, ZERO, ONE,
    as_expr, coordinates, diff, format_expr, simplify,
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
    return coordinates(n)[k]


def basis_label(n: int, basis: str, k: int) -> str:
    if k < n:
        return "dx" + str(k + 1)
    return ("dy" if basis == COORD else "del") + str(k - n + 1)


def _accum(comps: dict, idx: tuple[int, ...], e: Expr) -> None:
    """Add e at the sorted index tuple, negated when sorting idx takes an odd
    permutation; an index repeated in idx makes the term zero."""
    key = tuple(sorted(idx))
    if len(set(key)) < len(key):
        return
    if sum(a > b for a, b in itertools.combinations(idx, 2)) % 2:
        e = Neg(e)
    prev = comps.get(key)
    comps[key] = e if prev is None else Add((prev, e))


@dataclass(frozen=True, eq=False)
class _Form:
    """Components over strictly increasing flat index tuples of one length,
    simplified, in sorted order, without zeros."""

    n: int
    comps: Mapping[tuple[int, ...], Expr]
    basis = COORD

    def __post_init__(self):
        m = 2 * self.n
        staged = {}
        for key, e in dict(self.comps).items():
            increasing = all(a < b for a, b in zip(key, key[1:]))
            if len(key) != self._DEGREE or not (increasing and 0 <= key[0] and key[-1] < m):
                raise ValidationError(f"{self._INDEX_NAME} {key} out of range")
            staged[key] = as_expr(e)
        simplified = ((key, simplify(e)) for key, e in sorted(staged.items()))
        object.__setattr__(self, "comps", {key: e for key, e in simplified if e != ZERO})

    def __eq__(self, other):
        return (type(other) is type(self) and self.n == other.n
                and self.basis == other.basis and self.comps == other.comps)

    def items(self) -> Iterator[tuple[tuple[int, ...], Expr]]:
        return iter(sorted(self.comps.items()))

    def is_structurally_zero(self) -> bool:
        return not self.comps


@dataclass(frozen=True, eq=False)
class TwoForm(_Form):
    """Antisymmetric bilinear form; strictly upper components over flat slots."""

    basis: str = COORD
    N: tuple[tuple[Expr, ...], ...] | None = None
    _DEGREE, _INDEX_NAME = 2, "two-form index pair"

    def __post_init__(self):
        if self.basis not in (COORD, BERWALD):
            raise ValidationError(f"unknown coframe basis {self.basis!r}")
        super().__post_init__()

    @classmethod
    def zero(cls, n: int, basis: str = COORD) -> "TwoForm":
        return cls(n, {}, basis)

    @classmethod
    def single(cls, n: int, i: int, j: int, coeff, basis: str = COORD,
               N=None) -> "TwoForm":
        comps: dict = {}
        _accum(comps, (i, j), as_expr(coeff))
        return cls(n, comps, basis, N)

    def with_connection(self, N) -> "TwoForm":
        return TwoForm(self.n, dict(self.comps), self.basis, tuple(tuple(r) for r in N))

    def component(self, i: int, j: int) -> Expr:
        if i == j:
            return ZERO
        if i < j:
            return self.comps.get((i, j), ZERO)
        return simplify(Neg(self.comps.get((j, i), ZERO)))

    def __add__(self, other: "TwoForm") -> "TwoForm":
        if self.n != other.n or self.basis != other.basis:
            raise ValidationError("two-form addition needs matching size and basis")
        merged: dict = {}
        for key, e in [*self.comps.items(), *other.comps.items()]:
            _accum(merged, key, e)
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
                    _accum(comps, (k1, k2), Mul((w, c1, c2)))
        return TwoForm(n, comps, COORD)

    def __call__(self, X: VectorField, Y: VectorField) -> Expr:
        return interior_product(X, self)(Y)


@dataclass(frozen=True, eq=False)
class ThreeForm(_Form):
    """Degree-three form, coordinate basis, strictly increasing index triples."""

    _DEGREE, _INDEX_NAME = 3, "three-form index triple"

    def components(self) -> list[Expr]:
        return [e for _, e in self.items()]


def d_scalar(f: Expr, n: int) -> OneForm:
    """Exterior derivative of a function, as a one-form."""
    return OneForm.from_comps(n, [diff(f, v) for v in coordinates(n)])


def wedge(alpha: OneForm, beta: OneForm) -> TwoForm:
    if alpha.n != beta.n:
        raise ValidationError("wedge of forms on different dimensions")
    comps: dict = {}
    for i, ai in enumerate(alpha.comps):
        if ai == ZERO:
            continue
        for j, bj in enumerate(beta.comps):
            if i != j and bj != ZERO:
                _accum(comps, (i, j), Mul((ai, bj)))
    return TwoForm(alpha.n, comps)


def _d(items, n: int) -> dict:
    """d of the form with these (index tuple, w) items: each slot k outside
    a tuple adds diff(w, x_k) at (k, *idx)."""
    comps: dict = {}
    for idx, w in items:
        for k, v in enumerate(coordinates(n)):
            if k not in idx:
                partial = diff(w, v)
                if partial != ZERO:
                    _accum(comps, (k, *idx), partial)
    return comps


def exterior_derivative_1(alpha: OneForm) -> TwoForm:
    items = (((j,), a) for j, a in enumerate(alpha.comps) if a != ZERO)
    return TwoForm(alpha.n, _d(items, alpha.n))


def exterior_derivative_2(omega: TwoForm) -> ThreeForm:
    form = omega.to_coordinates()
    return ThreeForm(form.n, _d(form.comps.items(), form.n))


def interior_product(X: VectorField, omega: TwoForm) -> OneForm:
    """(i_X omega)(Y) = omega(X, Y)."""
    form = omega.to_coordinates()
    if X.n != form.n:
        raise ValidationError("contraction needs matching dimensions")
    n = form.n
    out = [ZERO] * (2 * n)
    for (i, j), w in form.comps.items():
        xi, xj = X.comps[i], X.comps[j]
        if xi != ZERO:
            out[j] = Add((out[j], Mul((xi, w))))
        if xj != ZERO:
            out[i] = Add((out[i], Neg(Mul((xj, w)))))
    return OneForm.from_comps(n, [simplify(e) for e in out])


def lie_derivative(X: VectorField, alpha: OneForm) -> OneForm:
    """Cartan formula: contract into d(alpha), then add d of the pairing."""
    if all(c == ZERO for c in X.comps) or all(c == ZERO for c in alpha.comps):
        return OneForm.zero(alpha.n)
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
