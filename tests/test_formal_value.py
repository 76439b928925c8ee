"""A function without a body is one function: formal_value gives each of its
applications one value, whoever evaluates it."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spraydirac.ansatz import Ansatz, search
from spraydirac.dirac import AlmostDirac, Section
from spraydirac.expr import (
    ZERO, Context, Point, SampleConfig, evaluate, evaluate_points, formal_value,
    parse, sample_points, simplify,
)
from spraydirac.geometry import OneForm, SemiSpray, VectorField

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("hash_seed", ["0", "12345"])
def test_a_value_does_not_depend_on_the_hash_seed(hash_seed):
    code = "from spraydirac.expr import formal_value; print(repr(formal_value('f', 1, 0.3)))"
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert float(out) == formal_value("f", 1, 0.3)


def test_arguments_equal_to_nine_decimals_share_a_value():
    assert formal_value("f", 0, -0.0) == formal_value("f", 0, 0.0)
    assert formal_value("f", 0, -1e-12) == formal_value("f", 0, 0.0)
    assert formal_value("f", 2, 0.1234567891) == formal_value("f", 2, 0.1234567894)
    assert formal_value("f", 2, 0.1234567891) != formal_value("f", 2, 0.123456788)


def test_a_function_its_derivative_and_another_function_differ():
    for a in (0.0, 0.3, -1.75, 1e300):
        values = {formal_value("f", 0, a), formal_value("f", 1, a), formal_value("g", 0, a)}
        assert len(values) == 3


def test_every_value_lies_in_the_band():
    rng = np.random.default_rng(0)
    args = [*rng.uniform(-3.0, 3.0, 2000), 0.0, 1e300, -1e-300,
            float("inf"), float("-inf"), float("nan")]
    values = [formal_value(name, order, a) for a in args
              for name in ("f", "g") for order in (0, 1, 2)]
    assert all(0.25 <= abs(v) < 2.0 for v in values)
    # both signs, spread over the band
    assert min(values) < -1.9 and max(values) > 1.9
    assert min(map(abs, values)) < 0.26


def test_every_evaluation_sees_one_value_of_a_formal_function():
    ctx = Context(dim=2)
    ctx.declare_function("f")
    f = parse("f(x1)", ctx)
    p = Point((0.3, -0.7), (1.1, 0.4))
    v = formal_value("f", 0, 0.3)
    assert evaluate(f, p, ctx) == v
    assert list(evaluate_points((f,), [p], ctx)) == [(v,)]
    # [d/dx2, x2*f(x1) d/dx1] = f(x1) d/dx1, and (0, f(x1) dx2) holds f itself
    L = AlmostDirac(n=2, generators=(
        Section.of_field(VectorField.coordinate(2, "x", 2)),
        Section.of_field(VectorField(2, (simplify(parse("x2*f(x1)", ctx)), ZERO),
                                     (ZERO, ZERO))),
        Section.of_form(OneForm(2, (ZERO, f), (ZERO, ZERO))),
    ))
    B = next(L.generator_matrices([p], ctx))
    assert B[1, 0] == -0.7 * v
    assert B[2, 5] == v
    brackets = np.reshape(next(evaluate_points(L.bracket_exprs(), [p], ctx)), (-1, 8))
    assert brackets[0, 0] == v


def test_a_formal_locus_lets_the_sampler_draw():
    ctx = Context(dim=1)
    ctx.declare_function("f")
    locus = parse("f(x1)", ctx)
    pts = sample_points(ctx, SampleConfig(), (locus,), count=3)
    assert len(pts) == 3
    assert all(abs(evaluate(locus, p, ctx)) >= 0.5 for p in pts)


def test_search_runs_on_a_spray_with_a_formal_coefficient():
    ctx = Context(dim=1)
    ctx.declare_function("f")
    result = search(SemiSpray(1, (parse("f(x1)*y1^2", ctx),)), None, Ansatz(1), ctx)
    assert all(c.verified for c in result.candidates)
    # the formal coefficient leaves y1 conserved in the other direction
    ctx = Context(dim=2)
    ctx.declare_function("f")
    S = SemiSpray(2, (ZERO, parse("f(x1)*y2^2", ctx)))
    result = search(S, None, Ansatz(2, degree=1), ctx)
    assert [c.describe() for c in result.candidates] == ["H = y1 ; omega = 0"]
    assert result.candidates[0].verified
