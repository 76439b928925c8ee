"""Skipping structurally zero work gives what doing it gave: the directional
derivative and the Lie derivative on expressions, the involutivity residual
on the demo structures bit for bit, and every structural-zero shortcut
against its reference in tests/zero_ref.py, as trees and as text.  A raw
generator component that cannot be normalized keeps its exit code and
message, though a pairing may skip it."""

from pathlib import Path

import numpy as np
import pytest

import zero_ref
from spraydirac import cli

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from spraydirac.dirac import (  # noqa: E402
    AlmostDirac, Section, courant_bracket, from_distribution, gauge_transform,
    involutivity_residual,
)
from spraydirac.expr import (  # noqa: E402
    ZERO, Add, Context, Expr, Mul, SampleConfig, Var, clear_caches, diff, evaluate_points,
    format_expr, parse, sample_points, simplify, sum_exprs,
)
from spraydirac.forms import (  # noqa: E402
    TwoForm, d_scalar, exterior_derivative_1, interior_product, lie_derivative,
)
from spraydirac.geometry import (  # noqa: E402
    CurvatureTensor, OneForm, SemiSpray, VectorField, _difference, curvature, lie_bracket,
)
from spraydirac.problemfile import load_problem_file  # noqa: E402


CTX = Context(dim=2, params={"A": 0.7})
CTX.declare_function("f")
CTX.declare_function("g", parse("x1^2 + 1", Context(1)))

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True)

# constants and x-free terms have zero derivatives; floats, a param and
# declared functions (one with a body) stand beside exact coefficients.  The
# 49.0 sums are simplified to a lead of 0.9999999999999999, which a second
# simplify moves: a shortcut must return simplify of a surviving side
TERMS = ["1", "x1", "x2", "y1", "y2", "A*x1*y2", "y1^2", "x2/y1", "1.5*y2",
         "sin(x1)", "f(x1)", "y2*f'(x2)", "g(x2)*y1", "(x1 + y2)^1/2",
         "2.5", "0.1*x1*y1", "A", "(49.0*x1 + y1)^1/2", "(49.0*x2 + y2)^-1"]
# a zero coefficient gives ZERO
COMPONENTS = st.tuples(st.integers(-2, 2), st.sampled_from(TERMS)).map(
    lambda t: simplify(parse(f"{t[0]}*{t[1]}", CTX)))
# each half of a pair is structurally zero or random, which may hold a zero
HALVES = st.one_of(st.just((ZERO, ZERO)), st.tuples(COMPONENTS, COMPONENTS))
FIELDS = st.tuples(HALVES, HALVES).map(lambda h: VectorField(2, *h))
FORMS = st.tuples(HALVES, HALVES).map(lambda h: OneForm(2, *h))
FUNCTIONS = st.lists(COMPONENTS, min_size=1, max_size=3).map(
    lambda parts: simplify(sum_exprs(parts)))

SECTIONS = st.tuples(FIELDS, FORMS).map(lambda s: Section(*s))
SPRAYS = st.tuples(FUNCTIONS, FUNCTIONS).map(lambda G: SemiSpray(2, G))
# a two-form over the four flat slots, with zero to three nonzero entries
TWO_FORMS = st.dictionaries(st.sampled_from([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
                            COMPONENTS, max_size=3).map(lambda comps: TwoForm(2, comps))
# (X, 0) and (0, eta) generators, as from_distribution builds them with
# explicit ann lines, but without its annihilation and rank checks
STRUCTURES = st.tuples(st.lists(FIELDS, min_size=1, max_size=2),
                       st.lists(FORMS, min_size=1, max_size=2)).map(
    lambda gens: AlmostDirac(2, tuple([*map(Section.of_field, gens[0]),
                                       *map(Section.of_form, gens[1])])))

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


# -- each shortcut against its reference --------------------------------------

def _exprs(value) -> list:
    """The expressions of a result, in a fixed order."""
    if isinstance(value, Expr):
        return [value]
    if isinstance(value, Section):
        return value.components()
    if isinstance(value, CurvatureTensor):
        return [c for plane in value.R for row in plane for c in row]
    if isinstance(value, list):
        return value
    return list(value.comps)


def _matches_reference(fn, ref, *args):
    """ref(*args) and fn(*args), each from empty caches, are equal as
    trees and print the same text."""
    clear_caches()
    old = ref(*args)
    clear_caches()
    new = fn(*args)
    assert type(new) is type(old)
    assert _exprs(new) == _exprs(old)
    assert [format_expr(e) for e in _exprs(new)] == [format_expr(e) for e in _exprs(old)]


@PROPERTY
@given(FIELDS, FUNCTIONS)
def test_directional_derivative_matches_its_reference(X, f):
    _matches_reference(VectorField.__call__, zero_ref.directional, X, f)


@PROPERTY
@given(FORMS, FIELDS)
def test_pairing_matches_its_reference(alpha, X):
    _matches_reference(OneForm.__call__, zero_ref.pairing, alpha, X)


@PROPERTY
@given(st.one_of(st.tuples(FIELDS, FIELDS), st.tuples(FORMS, FORMS)), COMPONENTS)
def test_sum_and_scaling_match_their_references(pair, c):
    u, v = pair
    _matches_reference(type(u).__add__, zero_ref.add, u, v)
    _matches_reference(type(u).scaled, zero_ref.scaled, u, c)


@PROPERTY
@given(st.one_of(st.just(ZERO), COMPONENTS), st.one_of(st.just(ZERO), COMPONENTS))
def test_difference_matches_its_reference(a, b):
    _matches_reference(_difference, zero_ref.difference, a, b)


@PROPERTY
@given(FIELDS, FIELDS)
def test_lie_bracket_matches_its_reference(X, Y):
    _matches_reference(lie_bracket, zero_ref.lie_bracket, X, Y)


@PROPERTY
@given(FIELDS, FORMS)
def test_lie_derivative_matches_its_reference(X, alpha):
    _matches_reference(lie_derivative, zero_ref.lie_derivative, X, alpha)


@PROPERTY
@given(SECTIONS, SECTIONS)
def test_courant_bracket_matches_its_reference(a, b):
    _matches_reference(courant_bracket, zero_ref.courant_bracket, a, b)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(SPRAYS)
def test_curvature_matches_its_reference(S):
    _matches_reference(curvature, zero_ref.curvature, S)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(STRUCTURES, TWO_FORMS)
def test_structure_brackets_match_their_reference(L, omega):
    for structure in (L, gauge_transform(L, omega)):
        _matches_reference(AlmostDirac.bracket_exprs, zero_ref.bracket_exprs, structure)


# -- raw generator components -------------------------------------------------

# a product of 715 by 715 terms, past expr.MAX_TERMS; P - P evaluates to 0
_P = "(x1 + x2 + y1 + y2 + 1)^9*(x1 + x2 + y1 + y2 + 2)^9"
_P2 = "(x1 + x2 + y1 + y2 + 1)^10*(x1 + x2 + y1 + y2 + 2)^9"
_FLAT = "dim = 2\nspray G1 = 0\nspray G2 = 0\n"
_MAX_TERMS = "a product of {} by 715 terms exceeds the bound MAX_TERMS = 300000 term pairs"


@pytest.mark.parametrize("command, text, message", [
    # the third generator's second fiber component cannot be normalized
    *((command, f"{_FLAT}dist X1 = (1, 0; 0, 0)\ndist X2 = (0, 1; 0, 0)\n"
                f"dist X3 = (0, 0; 1, {_P})\nH = y1^2 + y2^2\n", _MAX_TERMS.format(715))
      for command in ("verify", "search")),
    # A1 pairs X2's raw component with a zero: the annihilation test comes
    # before the rank test that X2 and X3 fail
    ("dirac-check", f"{_FLAT}dist X1 = (1, 0; 0, 0)\ndist X2 = (0, 0; 0, {_P})\n"
                    f"dist X3 = (0, 0; 0, 1)\nann A1 = (0, 0; 1, 0)\n", _MAX_TERMS.format(715)),
    # two raw components: X1's comes first, though the first collocation
    # column pairs only X2's with a nonzero
    ("search", f"{_FLAT}dist X1 = (1, 0; 0, {_P} - {_P})\ndist X2 = ({_P2} - {_P2}, 1; 0, 0)\n"
               "dist X3 = (0, 0; 1, 0)\ndist X4 = (0, 0; 0, 1)\nH = y1^2 + y2^2\n",
     _MAX_TERMS.format(715)),
])
def test_an_unnormalizable_raw_component_keeps_its_exit(capsys, tmp_path, command, text, message):
    path = tmp_path / "raw.sdp"
    path.write_text(text)
    rc = cli.main([command, str(path)])
    assert rc == 2
    assert message in capsys.readouterr().err
