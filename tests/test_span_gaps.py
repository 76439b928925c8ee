"""dirac.span_gaps, the one span test of the flow-field check and the
bracket residual, against the three tests it replaced (span_ref.py), the
membership loop of the removed leaf two-form among them: bit for bit where
no norm leaves the double range, and as the flow-field test's overflow rule
past it.  Its stacked solve equals its old body, one np.linalg.lstsq per
row, bit for bit everywhere."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from spraydirac import cli, dirac, motion  # noqa: E402
from spraydirac.dirac import span_gaps  # noqa: E402
from spraydirac.errors import EvalDomainError  # noqa: E402
from spraydirac.expr import format_expr  # noqa: E402

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
    def calls(node):
        return [n for n in ast.walk(node)
                if isinstance(n, ast.Attribute) and n.attr == "lstsq"
                or isinstance(n, ast.Name) and n.id == "lstsq"
                or isinstance(n, ast.alias) and n.name.split(".")[-1] == "lstsq"]

    package = Path(dirac.__file__).parent
    total = sum(len(calls(ast.parse(p.read_text(encoding="utf-8")))) for p in package.glob("*.py"))
    tree = ast.parse(Path(dirac.__file__).read_text(encoding="utf-8"))
    helpers = [f for f in tree.body if isinstance(f, ast.FunctionDef)
               and f.name in ("span_gaps", "_lstsq")]
    inside = [n for f in helpers for n in calls(f)]
    assert total == len(inside) == 1
    call, = inside
    assert isinstance(call.value, ast.Name) and call.value.id == "_umath_linalg"


@st.composite
def stacks(draw):
    """One to five systems of mixed shapes (tall, wide, rank-deficient, with
    zero columns, past the double range), each in C order or in the
    transposed one the callers pass, and their (matrix, row) pairs in a
    drawn order; also the first system, in a third layout, the transpose of
    the left half of a matrix, a strided view."""
    mats, rows, systems_drawn = [], [], []
    for _ in range(draw(st.integers(1, 5))):
        A, rhs = draw(systems())
        if draw(st.booleans()):
            A = np.ascontiguousarray(A.T).T
        mats += [A] * len(rhs)
        rows += rhs
        systems_drawn.append((A, rhs))
    order = draw(st.permutations(range(len(rows))))
    A, rhs = systems_drawn[0]
    half = np.concatenate([A.T, np.ones_like(A.T)], axis=1)[:, :A.shape[0]].T
    return [mats[i] for i in order], [rows[i] for i in order], (half, rhs)


@PROPERTY
@given(stacks())
def test_one_stacked_solve_equals_the_per_row_body(stack):
    mats, rows, (A, rhs) = stack
    got = span_gaps(mats, rows)
    assert len(got) == len(rows)
    for M, b, (x, gap, outside) in zip(mats, rows, got):
        (x_ref, gap_ref, outside_ref), = ref.span_gaps_rows(M, [b])
        assert x.tobytes() == x_ref.tobytes()
        assert (gap, outside) == (gap_ref, outside_ref) and type(gap) is float
    got = span_gaps(A, rhs)
    assert len(got) == len(rhs)
    for (x, gap, outside), (x_ref, gap_ref, outside_ref) in zip(got, ref.span_gaps_rows(A, rhs)):
        assert (x.tobytes(), gap, outside) == (x_ref.tobytes(), gap_ref, outside_ref)


@pytest.mark.parametrize("layout", ["C", "F"])
def test_stacked_matmul_and_vecdot_equal_each_row_bit_for_bit(layout):
    rng = np.random.default_rng(7)
    for _ in range(300):
        m, n = rng.integers(1, 17), rng.integers(1, 9)
        mats = [rng.standard_normal((m, n)) * 10.0 ** rng.integers(-150, 150) for _ in range(6)]
        if layout == "F":
            mats = [np.ascontiguousarray(A.T).T for A in mats]
        xs, bs = rng.standard_normal((6, n)), rng.standard_normal((6, m))
        with np.errstate(over="ignore", invalid="ignore"):
            r = np.matmul(np.stack(mats), xs[..., None])[..., 0] - bs
            norms = np.sqrt(np.vecdot(r, r))
            for A, x, b, r_k, norm in zip(mats, xs, bs, r, norms):
                r_row = A @ x - b
                assert r_row.tobytes() == r_k.tobytes()
                assert np.sqrt(r_row.dot(r_row)) == norm == np.linalg.norm(r_row)


# -- the flow-field check -------------------------------------------------------------

# the flow field (y1; 0) of G1 = 0 lies in the span of X1 = (1; 0) at every point
FREE_1D = "dim = 1\nspray G1 = 0\ndist X1 = (1; 0)\nH = y1^2\n"


@pytest.mark.parametrize("outside_at,fail_at,code,message", [
    (1, 3, 2, "validation error: flow field leaves the span of the distribution "
              "(gap 1.000e+00 at a sampled point)"),
    (3, 1, 3, "numeric-domain error: flow field undefined at a sampled point"),
    (2, 2, 3, "numeric-domain error: flow field undefined at a sampled point"),
    (None, 0, 3, "numeric-domain error: flow field undefined at a sampled point"),
    (0, None, 2, "validation error: flow field leaves the span of the distribution "
                 "(gap 1.000e+00 at a sampled point)"),
], ids=["outside-first", "failure-first", "same-point", "failure-alone", "outside-alone"])
def test_the_first_failure_in_point_order_decides_the_flow_field_check(
        monkeypatch, tmp_path, capsys, outside_at, fail_at, code, message):
    # the flow field's values (y1, 0) are edited wherever they are evaluated:
    # (0, 1) lies outside the span at outside_at, and evaluation fails at fail_at
    evaluate_points = motion.evaluate_points

    def edited(rows, j):
        for i, row in enumerate(rows):
            if i == fail_at:
                raise EvalDomainError("flow field undefined at a sampled point")
            yield row[:j] + (0.0, 1.0) + row[j + 2:] if i == outside_at else row

    def fake(exprs, pts, ctx):
        texts = [format_expr(e) for e in exprs]
        rows = evaluate_points(exprs, pts, ctx)
        return edited(rows, texts.index("y1")) if "y1" in texts else rows

    monkeypatch.setattr(motion, "evaluate_points", fake)
    path = tmp_path / "free.sdp"
    path.write_text(FREE_1D, encoding="utf-8")
    assert cli.main(["verify", str(path)]) == code
    assert capsys.readouterr().err == message + "\n"
