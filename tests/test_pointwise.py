"""The pointwise structure tests on one generator matrix per point agree bit
for bit with evaluating the structure once per test."""

import numpy as np
import pytest

scipy = pytest.importorskip("scipy")
import scipy.linalg  # noqa: E402
pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from spraydirac.dirac import (  # noqa: E402
    POINTWISE_TOL, AlmostDirac, Section, involutivity_residual, is_isotropic_at,
    is_maximal_at, kernel_at,
)
from spraydirac.expr import (  # noqa: E402
    ZERO, Context, Point, evaluate, parse, simplify,
)
from spraydirac.geometry import OneForm, VectorField  # noqa: E402

from pointwise_ref import rows_scaled  # noqa: E402


# f has no body, so it takes its formal values; g has one
CTX = Context(dim=2)
CTX.declare_function("f")
CTX.declare_function("g", parse("x1^2 + 1", Context(1)))

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)

TERMS = ["1", "x1", "x2", "y1", "y2", "x1*y2", "y1^2", "f(x1)", "y2*f(x2)",
         "f(y1)*x1", "f'(x1)", "g(x2)*y1", "f(g(x1))"]
COMPONENTS = st.one_of(
    st.just(ZERO),
    st.tuples(st.integers(-2, 2), st.sampled_from(TERMS)).map(
        lambda t: simplify(parse(f"{t[0]}*{t[1]}", CTX))),
)
SECTIONS = st.lists(COMPONENTS, min_size=8, max_size=8).map(
    lambda c: Section(VectorField(2, tuple(c[0:2]), tuple(c[2:4])),
                      OneForm(2, tuple(c[4:6]), tuple(c[6:8]))))
STRUCTURES = st.tuples(st.lists(SECTIONS, min_size=1, max_size=4), st.booleans()).map(
    lambda t: AlmostDirac(n=2, generators=tuple(t[0]), auto_annihilator=t[1]))
COORDS = st.floats(-2.0, 2.0, allow_nan=False)
POINTS = st.tuples(COORDS, COORDS, COORDS, COORDS).map(
    lambda v: Point(v[:2], v[2:]))


# -- the per-test evaluation the pointwise tests replaced ---------------------

def _old_section_values(s, p, ctx):
    return np.array([evaluate(c, p, ctx) for c in s.components()])


def _old_generator_matrix(L, p, ctx):
    rows = [_old_section_values(g, p, ctx) for g in L.generators]
    if L.auto_annihilator:
        vec_rows = np.array([r[: 2 * L.n] for r in rows
                             if np.linalg.norm(r[2 * L.n:]) <= 1e-12])
        if vec_rows.size:
            null = scipy.linalg.null_space(vec_rows)
            for q in range(null.shape[1]):
                rows.append(np.concatenate([np.zeros(2 * L.n), null[:, q]]))
    return np.array(rows)


def _old_rank(M):
    scale = max(1.0, float(np.max(np.abs(M))))
    return int(np.sum(scipy.linalg.svdvals(M) > POINTWISE_TOL * scale))


def _old_is_isotropic_at(L, p, ctx):
    B = _old_generator_matrix(L, p, ctx)
    V, W = B[:, : 2 * L.n], B[:, 2 * L.n:]
    gram = V @ W.T + W @ V.T
    scale = max(1.0, float(np.max(np.sum(B * B, axis=1))))
    return bool(np.max(np.abs(gram)) <= POINTWISE_TOL * scale)


def _old_is_maximal_at(L, p, ctx):
    return _old_rank(rows_scaled(_old_generator_matrix(L, p, ctx))) == 2 * L.n


def _old_involutivity_residual(L, p, ctx):
    g = len(L.generators)
    B = _old_generator_matrix(L, p, ctx)
    worst = 0.0
    for i in range(g):
        for j in range(i + 1, g):
            u = _old_section_values(L.bracket(i, j), p, ctx)
            sol, *_ = np.linalg.lstsq(B.T, u, rcond=None)
            worst = max(worst, float(np.linalg.norm(u - B.T @ sol)))
    return worst


def _old_kernel_at(L, p, ctx):
    # the rank readers' one scale rule, applied before the old comparisons
    B = rows_scaled(_old_generator_matrix(L, p, ctx))
    V, W = B[:, : 2 * L.n], B[:, 2 * L.n:]
    null = scipy.linalg.null_space(W.T)
    if null.shape[1] == 0:
        return []
    candidates = (V.T @ null).T
    scale = max(1.0, float(np.max(np.abs(B))))
    keep = candidates[np.linalg.norm(candidates, axis=1) > POINTWISE_TOL * scale]
    if keep.size == 0:
        return []
    _, s, vt = np.linalg.svd(keep, full_matrices=False)
    return [vt[i] for i in range(len(s)) if s[i] > POINTWISE_TOL * scale]


# -- properties ---------------------------------------------------------------

@PROPERTY
@given(STRUCTURES, POINTS)
def test_one_matrix_per_point_gives_the_per_test_results(L, p):
    old = (_old_is_isotropic_at(L, p, CTX), _old_is_maximal_at(L, p, CTX),
           _old_kernel_at(L, p, CTX), _old_involutivity_residual(L, p, CTX))
    B = next(L.generator_matrices([p], CTX))
    assert np.array_equal(B, _old_generator_matrix(L, p, CTX))
    assert is_isotropic_at(B) is old[0]
    assert is_maximal_at(B) is old[1]
    new_kernel = kernel_at(B)
    assert len(new_kernel) == len(old[2])
    assert all(np.array_equal(u, v) for u, v in zip(new_kernel, old[2]))
    assert involutivity_residual(L, [p], CTX, [B]) == old[3]


def test_brackets_of_formal_functions_add_applications():
    # d/dx1 paired with f(x1) dx2: the bracket differentiates f
    L = AlmostDirac(n=2, generators=(
        Section(VectorField.coordinate(2, "x", 1), OneForm.zero(2)),
        Section(VectorField.zero(2), OneForm(2, (ZERO, parse("f(x1)", CTX)),
                                             (ZERO, ZERO))),
    ))
    p = Point((0.3, -0.7), (1.1, 0.4))
    assert (involutivity_residual(L, [p], CTX, list(L.generator_matrices([p], CTX)))
            == _old_involutivity_residual(L, p, CTX))
