"""Line-oriented problem description files."""

from fractions import Fraction
from pathlib import Path

import pytest

from spraydirac.errors import ParseError, ValidationError
from spraydirac.expr import ZERO, parse, simplify
from spraydirac.forms import BERWALD, COORD
from spraydirac.problemfile import (
    AnsatzSettings, IntegrateSettings, load_problem_file, parse_problem_file,
)


PROBLEMS = Path(__file__).resolve().parents[1] / "demos" / "problems"


def test_minimal_file():
    pf = parse_problem_file("dim = 2\nH = y1\n")
    assert pf.n == 2
    assert simplify(pf.H - parse("y1", pf.context)) == ZERO
    assert pf.G == (ZERO, ZERO)
    assert pf.dist is None and pf.ann is None and pf.omega is None
    assert pf.integrate is None and pf.ansatz is None


FULL = """\
# two-dimensional decaying example      # trailing comment text
dim = 2
param  c = 3/10
param  f = fn(x1^2 + c)

spray G2 = c*y2^2
exclude y2

dist X1 = (y1, y2; 0, -2*c*y2^2)
ann  A1 = (0, 2*c*y2; 0, 1)   # second fiber slot only

omega dx1^dy1 = 1
omega dx2^dy2 = f(x1)

H = y1
integrate t=1 dt=0.001 method=rk45 seed=7 samples=3
ansatz degree=1 points=40 box=2.5 seed=9
"""


def test_full_file():
    pf = parse_problem_file(FULL)
    ctx = pf.context
    assert pf.n == 2
    assert ctx.params["c"] == Fraction(3, 10)
    assert ctx.funcs["f"].body is not None
    assert ctx.func_derivative("f", 1) is not None
    assert simplify(pf.G[0]) == ZERO
    assert simplify(pf.G[1] - parse("c*y2^2", ctx)) == ZERO
    assert len(pf.singular_loci) == 1
    assert len(pf.dist) == 1 and len(pf.ann) == 1
    assert pf.omega.basis == COORD
    assert [key for key, _ in pf.omega.items()] == [(0, 2), (1, 3)]
    assert pf.integrate == IntegrateSettings(t=1.0, dt=0.001, method="rk45",
                                             seed=7, samples=3)
    assert pf.ansatz == AnsatzSettings(degree=1, points=40, box=2.5, seed=9)
    S = pf.semispray()
    assert S.n == 2 and len(S.singular_loci) == 1


def test_shipped_problem_files():
    seen = {}
    for path in sorted(PROBLEMS.glob("*.sdp")):
        seen[path.stem] = load_problem_file(str(path))
    assert set(seen) == {"ex1", "ex2", "ex3", "ex4", "free"}
    assert seen["ex1"].n == 2 and len(seen["ex1"].dist) == 1
    assert seen["ex2"].context.funcs["f"].body is not None
    assert seen["ex3"].ann is not None and len(seen["ex3"].ann) == 2
    assert seen["ex3"].omega is not None
    assert len(seen["ex4"].dist) == 4 and seen["ex4"].ansatz is not None
    assert seen["free"].n == 1
    for pf in seen.values():
        assert pf.integrate is not None


def test_fn_bodies_may_chain():
    pf = parse_problem_file(
        "dim = 1\nparam f = fn(x1^2)\nparam g = fn(f(x1) + 1)\nH = y1\n")
    assert pf.context.funcs["g"].body is not None


def test_del_pairs_switch_the_fiber_basis():
    pf = parse_problem_file("dim = 2\nomega dx1^del1 = 1\nH = y1\n")
    assert pf.omega.basis == BERWALD


def test_mixed_fiber_bases_rejected():
    text = "dim = 2\nomega dx1^dy1 = 1\nomega dx2^del2 = 1\nH = y1\n"
    with pytest.raises(ValidationError):
        parse_problem_file(text)


@pytest.mark.parametrize("text,line", [
    ("H = y1\n", 1),                                    # no dim at all
    ("dim = 2\ndim = 2\n", 2),
    ("dim = 0\n", 1),
    ("dim = 2\nspray G3 = y1\n", 2),
    ("dim = 2\nspray G1 = y1\nspray G1 = y2\n", 3),
    ("dim = 2\nH = y1\nH = y2\n", 3),
    ("dim = 2\nparam a = 1\nparam a = 2\n", 3),
    ("dim = 2\ndist X2 = (1, 0; 0, 0)\n", 2),
    ("dim = 2\nwobble = 3\n", 2),
    ("dim = 2\nomega dy1^dx1 = 1\n", 2),
    ("dim = 2\nomega dx1^dx1 = 1\n", 2),
    ("dim = 2\nomega dx1^dy1 = 1\nomega dx1^dy1 = 2\n", 3),
    ("dim = 2\nomega dx1^dy3 = 1\n", 2),
    ("dim = 2\nH = y1 +\n", 2),
    ("dim = 2\nintegrate t=1 dt=0.1 method=euler seed=1 samples=1\n", 2),
    ("dim = 2\nintegrate t=1 dt=0.1 seed=1 samples=1\n", 2),
    ("dim = 2\nintegrate t=1 dt=-0.1 method=rk4 seed=1 samples=1\n", 2),
    ("dim = 2\nansatz degree=-1 points=10 box=2 seed=1\n", 2),
    ("dim = 2\nansatz degree=2 points=10 box=2 seed=1 extra=4\n", 2),
    ("dim = 2\ndist X1 = (1, 0, 0; 0, 0, 0)\n", 2),
    ("dim = 2\ndist X1 = 1, 0; 0, 0\n", 2),
    ("dim = 2\nparam 2bad = 1\n", 2),
    ("dim = 17\n", 1),
    ("dim = 1\nH = " + "(" * 60 + "y1" + ")" * 60 + "\n", 2),
    ("dim = 1\nparam f = fn(" + "sin(" * 40 + "x1" + ")" * 40 + ")\n"
     "H = " + "(" * 10 + "f(x1)" + ")" * 10 + "\n", 3),
])
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(ParseError) as err:
        parse_problem_file(text)
    assert err.value.line == line


def test_case_sensitivity():
    with pytest.raises(ParseError):
        parse_problem_file("DIM = 2\nH = y1\n")
    with pytest.raises(ParseError):
        parse_problem_file("dim = 2\nh = y1\n")


def test_missing_file_is_a_parse_error():
    with pytest.raises(ParseError):
        load_problem_file("/nonexistent/path.sdp")
