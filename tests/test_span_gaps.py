"""dirac.span_gaps, the one span test of the flow-field check, the bracket
residual and the leaf two-form, against the three tests it replaced
(span_ref.py): bit for bit where no norm leaves the double range, and as
the flow-field test's overflow rule past it."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from spraydirac import dirac  # noqa: E402
from spraydirac.dirac import leaf_two_form_at, span_gaps  # noqa: E402
from spraydirac.errors import (  # noqa: E402
    DistributionMembershipError, EvalDomainError, ValidationError,
)

import span_ref as ref  # noqa: E402

PROPERTY = settings(max_examples=400, deadline=None, derandomize=True)
COEFF = st.floats(-2, 2, allow_nan=False, allow_subnormal=False)


def _vector(draw, size):
    return np.array(draw(st.lists(COEFF, min_size=size, max_size=size)))


@st.composite
def systems(draw):
    """A (m, k) matrix A with m <= 16 and k <= 8, some of whose columns are
    zero or a multiple of the first, and one to three right-hand sides, each
    in the span of A or drawn freely; all scaled by one power of ten up to
    1e307."""
    m, k = draw(st.integers(1, 16)), draw(st.integers(1, 8))
    A = np.reshape(_vector(draw, m * k), (m, k))
    for j in range(1, k):
        kind = draw(st.sampled_from(["free", "free", "multiple", "zero"]))
        if kind != "free":
            A[:, j] = A[:, 0] * (draw(COEFF) if kind == "multiple" else 0.0)
    rhs = []
    for _ in range(draw(st.integers(1, 3))):
        # |A @ coef| <= 4k, so the inside rows stay below 2 as the rest
        inside = draw(st.booleans())
        rhs.append(A @ _vector(draw, k) / (2 * k) if inside else _vector(draw, m))
    scale = 10.0 ** draw(st.integers(0, 307))
    return A * scale, [b * scale for b in rhs]


def _in_range(A, b, x):
    with np.errstate(over="ignore", invalid="ignore"):
        return math.isfinite(np.linalg.norm(A @ x - b)) and math.isfinite(np.linalg.norm(b))


@PROPERTY
@given(systems())
def test_span_gaps_equals_each_span_test_it_replaced(system):
    A, rhs = system
    got = span_gaps(A, rhs)
    assert len(got) == len(rhs)
    for b, (x, gap, outside) in zip(rhs, got):
        assert not math.isnan(gap)
        flow = ref.span_gap(A, b)
        assert outside is (flow is not None)
        if outside:
            assert gap == flow
        sol, norm = ref.bracket_residual(A.T, b)
        if _in_range(A, b, sol):
            assert x.tobytes() == sol.tobytes() and gap == norm
    first, last = rhs[0], rhs[-1]
    if _in_range(A, first, got[0][0]) and _in_range(A, last, got[-1][0]):
        (c, _, first_out), (_, _, last_out) = span_gaps(A, (first, last))
        name, c_ref = ref.leaf_membership(A.T, first, last)
        assert name == ("first" if first_out else "second" if last_out else None)
        if name is None:
            assert c.tobytes() == c_ref.tobytes()


def test_a_row_past_the_double_range_is_tested_on_the_scaled_system():
    # |b - A x| and |b| overflow at 1e200; on the scaled system b lies
    # outside by 1, which scales back to 1e200
    A = np.array([[1e200], [0.0]])
    (_, gap, outside), (x, gap2, outside2) = span_gaps(A, [np.array([0.0, 1e200]),
                                                          np.array([3e200, 0.0])])
    assert (gap, outside) == (1e200, True)
    assert (x.tolist(), gap2, outside2) == ([3.0], 0.0, False)
    # the tolerance stays relative to max(1, |b|) in the units of b: scaled
    # by 1e300, the gap of 1e160 reads 1e-140, far above 1e-9 * 1e-300
    (_, gap, outside), = span_gaps(np.array([[1e300], [0.0]]), [np.array([0.0, 1e160])])
    assert (gap, outside) == (1e160, True)


def test_lstsq_is_called_only_inside_span_gaps():
    def count(node):
        return sum(isinstance(n, ast.Attribute) and n.attr == "lstsq" for n in ast.walk(node))

    package = Path(dirac.__file__).parent
    total = sum(count(ast.parse(p.read_text(encoding="utf-8"))) for p in package.glob("*.py"))
    tree = ast.parse(Path(dirac.__file__).read_text(encoding="utf-8"))
    helper, = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "span_gaps"]
    assert total == count(helper) == 2


# -- leaf_two_form_at ---------------------------------------------------------------

@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_the_leaf_two_form_refuses_an_argument_outside_the_span_past_the_double_range():
    # |Yv - V.T c| and |Yv| overflowed to inf, and inf > 1e-9*inf passed Yv:
    # numpy warned and the value read 1e+200
    B = np.array([[1e200, 0.0, 0.0, 1.0]])
    with pytest.raises(DistributionMembershipError, match="^second argument"):
        leaf_two_form_at(B, np.array([1e200, 0.0]), np.array([0.0, 1e200]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_leaf_two_form_value_past_the_double_range_is_refused():
    # alpha = (1e200, 0) paired with Yv = (1e200, 0) overflowed: numpy
    # warned and the value read inf
    B = np.array([[1e200, 0.0, 1e200, 0.0]])
    v = np.array([1e200, 0.0])
    with pytest.raises(EvalDomainError, match="leaves the double range"):
        leaf_two_form_at(B, v, v)
    assert leaf_two_form_at(B, v, v / 1e200) == 1e200


@pytest.mark.parametrize("size", [1.0, 1e200])
def test_the_leaf_two_form_blames_the_first_argument_first(size):
    B = np.array([[size, 0.0, 0.0, 1.0]])
    with pytest.raises(DistributionMembershipError, match="^first argument"):
        leaf_two_form_at(B, np.array([0.0, size]), np.array([0.0, 2 * size]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("B,Xv,Yv", [
    ([[1.0, 0.0, 0.0, 1.0]], [1.0, 0.0], [math.inf, 0.0]),     # read nan
    ([[1.0, 0.0, 0.0, 1.0]], [math.nan, 0.0], [0.0, 1.0]),     # blamed the second
    ([[math.nan, 0.0, 0.0, 1.0]], [1.0, 0.0], [1.0, 0.0]),
    ([[1.0, 0.0, -math.inf, 1.0]], [1.0, 0.0], [1.0, 0.0]),
])
def test_the_leaf_two_form_refuses_non_finite_arguments(B, Xv, Yv):
    with pytest.raises(ValidationError, match="needs finite") as err:
        leaf_two_form_at(np.array(B), np.array(Xv), np.array(Yv))
    assert type(err.value) is ValidationError
