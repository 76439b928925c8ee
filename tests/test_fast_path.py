"""evaluate_points' columnar pass serves the point lists where evaluate
returns: evaluate runs only where the pass cannot finish."""

from pathlib import Path

import pytest

from spraydirac import ansatz, expr
from spraydirac.errors import EvalDomainError
from spraydirac.expr import Div, Point, Var
from spraydirac.problemfile import load_problem_file

EX4 = Path(__file__).resolve().parents[1] / "demos" / "problems" / "ex4.sdp"


@pytest.fixture
def fallbacks(monkeypatch):
    """The names of the evaluate and evaluate_with_magnitude calls made."""
    expr.clear_caches()
    calls = []
    for name in ("evaluate", "evaluate_with_magnitude"):
        def counted(*args, _real=getattr(expr, name), _name=name):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(expr, name, counted)
    yield calls
    expr.clear_caches()


def test_the_fast_path_serves_the_ex4_collocation_points(fallbacks, monkeypatch):
    batches = []

    def spy(exprs, points, ctx):
        batches.append((tuple(exprs), tuple(points), ctx))
        return expr.evaluate_points(exprs, points, ctx)

    monkeypatch.setattr(ansatz, "evaluate_points", spy)
    pf = load_problem_file(str(EX4))
    st = pf.ansatz
    a = ansatz.Ansatz(n=pf.n, degree=st.degree, points=st.points, box=st.box, seed=st.seed)
    _, pts = ansatz.assemble(pf.semispray(), pf.dist, a, pf.context)
    (cols, points, ctx), = batches
    assert points == tuple(pts)

    fallbacks.clear()
    values = list(expr.evaluate_points(cols, pts, ctx))
    assert fallbacks == []
    assert values == [tuple(expr.evaluate(e, p, ctx) for e in cols) for p in pts]

    # a column that divides by zero at x1 = 0: the point before it is served
    # first, then evaluate raises at it
    divided = expr.evaluate_points(cols + (Div(cols[0], Var("x", 1)),),
                                   [pts[0], Point((0.0, 1.0), (1.0, 1.0))], ctx)
    fallbacks.clear()
    assert next(divided)[:-1] == values[0]
    assert "evaluate" in fallbacks
    with pytest.raises(EvalDomainError, match="^zero raised to a negative power$"):
        next(divided)
