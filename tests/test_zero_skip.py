"""Skipping structurally zero work gives what doing it gave: the directional
derivative and the Lie derivative on expressions, the involutivity residual
on the demo structures bit for bit."""

from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from spraydirac.dirac import (  # noqa: E402
    from_distribution, gauge_transform, involutivity_residual,
)
from spraydirac.expr import (  # noqa: E402
    ZERO, Add, Context, Mul, SampleConfig, Var, clear_caches, diff, evaluate_points,
    parse, sample_points, simplify, sum_exprs,
)
from spraydirac.forms import (  # noqa: E402
    TwoForm, d_scalar, exterior_derivative_1, interior_product, lie_derivative,
)
from spraydirac.geometry import OneForm, VectorField  # noqa: E402
from spraydirac.problemfile import load_problem_file  # noqa: E402


CTX = Context(dim=2, params={"A": 0.7})
CTX.declare_function("f")
CTX.declare_function("g", parse("x1^2 + 1", Context(1)))

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True)

TERMS = ["1", "x1", "x2", "y1", "y2", "A*x1*y2", "y1^2", "x2/y1", "1.5*y2",
         "sin(x1)", "f(x1)", "y2*f'(x2)", "g(x2)*y1", "(x1 + y2)^1/2"]
# a zero coefficient gives ZERO
COMPONENTS = st.tuples(st.integers(-2, 2), st.sampled_from(TERMS)).map(
    lambda t: simplify(parse(f"{t[0]}*{t[1]}", CTX)))
# each half of a pair is structurally zero or random, which may hold a zero
HALVES = st.one_of(st.just((ZERO, ZERO)), st.tuples(COMPONENTS, COMPONENTS))
FIELDS = st.tuples(HALVES, HALVES).map(lambda h: VectorField(2, *h))
FORMS = st.tuples(HALVES, HALVES).map(lambda h: OneForm(2, *h))
FUNCTIONS = st.lists(COMPONENTS, min_size=1, max_size=3).map(
    lambda parts: simplify(sum_exprs(parts)))

DEMOS = Path(__file__).resolve().parents[1] / "demos" / "problems"


# -- the bodies that did the zero work ----------------------------------------

def _old_call(X, f):
    parts = []
    for i, c in enumerate(X.base, start=1):
        parts.append(Mul((c, diff(f, Var("x", i)))))
    for a, c in enumerate(X.fiber, start=1):
        parts.append(Mul((c, diff(f, Var("y", a)))))
    return simplify(Add(tuple(parts)))


def _old_lie_derivative(X, alpha):
    first = interior_product(X, exterior_derivative_1(alpha))
    second = d_scalar(alpha(X), alpha.n)
    return first + second


def _old_involutivity_residual(L, p, ctx, B):
    exprs = [c for i, j in L._pairs() for c in L.bracket(i, j).components()]
    brackets = np.reshape(next(evaluate_points(exprs, [p], ctx)), (-1, 4 * L.n))
    worst = 0.0
    for u in brackets:
        sol, *_ = np.linalg.lstsq(B.T, u, rcond=None)
        worst = max(worst, float(np.linalg.norm(u - B.T @ sol)))
    return worst


# -- equivalence --------------------------------------------------------------

@PROPERTY
@given(FIELDS, FUNCTIONS)
def test_directional_derivative_matches_the_full_sum(X, f):
    clear_caches()
    old = _old_call(X, f)
    clear_caches()
    assert X(f) == old


@PROPERTY
@given(FIELDS, FORMS)
def test_lie_derivative_matches_the_cartan_formula(X, alpha):
    clear_caches()
    old = _old_lie_derivative(X, alpha)
    clear_caches()
    assert lie_derivative(X, alpha) == old


@pytest.mark.parametrize("demo", ["ex1", "ex2", "ex3", "ex4"])
def test_residual_matches_the_one_over_every_bracket(demo):
    pf = load_problem_file(str(DEMOS / f"{demo}.sdp"))
    ctx = pf.context
    L = from_distribution(pf.dist, pf.ann, ctx, SampleConfig(seed=1), pf.singular_loci)
    gauged = gauge_transform(L, pf.omega if pf.omega is not None else TwoForm.zero(pf.n))
    pts = sample_points(ctx, SampleConfig(seed=1), pf.singular_loci, count=20)
    for structure in (L, gauged):
        for p, B in zip(pts, structure.generator_matrices(pts, ctx)):
            assert (involutivity_residual(structure, [p], ctx, [B])
                    == _old_involutivity_residual(structure, p, ctx, B))
    clear_caches()
