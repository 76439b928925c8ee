"""The compiled evaluator's fast path serves the points where evaluate
returns: evaluate runs only where the fast path cannot finish."""

from pathlib import Path

import pytest

from spraydirac import ansatz, expr
from spraydirac.errors import EvalDomainError
from spraydirac.expr import Div, Point, Var
from spraydirac.problemfile import load_problem_file

EX4 = Path(__file__).resolve().parents[1] / "demos" / "problems" / "ex4.sdp"


@pytest.fixture
def fallbacks(monkeypatch):
    """The names of the evaluate and evaluate_with_magnitude calls made,
    with compiled functions built afresh so that they call the counters."""
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
    compiled = []

    def spy(exprs, ctx):
        compiled.append((tuple(exprs), ctx))
        return expr.compile_evaluate(exprs, ctx)

    monkeypatch.setattr(ansatz, "compile_evaluate", spy)
    pf = load_problem_file(str(EX4))
    st = pf.ansatz
    a = ansatz.Ansatz(n=pf.n, degree=st.degree, points=st.points, box=st.box, seed=st.seed)
    _, pts = ansatz.assemble(pf.semispray(), pf.dist, a, pf.context)
    (cols, ctx), = compiled
    evaluation = expr.compile_evaluate(cols, ctx)

    fallbacks.clear()
    values = [evaluation(p) for p in pts]
    assert fallbacks == []
    assert values == [tuple(expr.evaluate(e, p, ctx) for e in cols) for p in pts]

    # a column that divides by zero at x1 = 0
    divided = expr.compile_evaluate(cols + (Div(cols[0], Var("x", 1)),), ctx)
    fallbacks.clear()
    with pytest.raises(EvalDomainError, match="^division by zero$"):
        divided(Point((0.0, 1.0), (1.0, 1.0)))
    assert "evaluate" in fallbacks
