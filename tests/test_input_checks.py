"""Input checks: each malformed problem-file line and expression gives its
own message at its own line, and exits 1 through the CLI; a reserved name
cannot declare a parameter or a function; an integration that reaches a
parameter without a bound value aborts with the reason; a two-form's
component on the diagonal and below it; and each library constructor and
operation refuses operands of another dimension, shape or kind."""

import pytest

from spraydirac import cli
from spraydirac.ansatz import Ansatz, monomial_dictionary
from spraydirac.dirac import (
    AlmostDirac, Section, courant_bracket, from_distribution, gauge_transform, pairing,
)
from spraydirac.errors import ParseError, ValidationError
from spraydirac.expr import ONE, ZERO, Context, Point, parse, simplify
from spraydirac.forms import BERWALD, COORD, TwoForm, interior_product, wedge
from spraydirac.geometry import OneForm, SemiSpray, VectorField, lie_bracket
from spraydirac.motion import Trajectory, integrate_sode
from spraydirac.problemfile import parse_problem_file

INTEGRATE = "integrate t=1 dt=0.1 method=rk4 seed=1 samples=1"
ANSATZ = "ansatz degree=2 points=10 box=2 seed=1"

BAD_FILES = [
    ("dim = 1\nspray G1 0\n", "spray needs '=' (line 2)"),
    ("dim = 1\nspray Q1 = 0\n", "expected G<index>, got 'Q1' (line 2)"),
    ("dim = 1\ndist X1 = (1, 0)\n", "expected exactly one ';' separating the halves (line 2)"),
    ("dim = 1\nintegrate t=1 dt\n", "integrate settings must be key=value, got 'dt' (line 2)"),
    ("dim = 1\nintegrate t=1 t=2\n", "duplicate integrate key 't' (line 2)"),
    ("dim = 1\nintegrate t=1 dt=0.1 method=rk4 seed=1.5 samples=1\n",
     "integrate seed must be an integer, got '1.5' (line 2)"),
    ("dim x = 1\n", "unexpected text 'x' before '=' (line 1)"),
    ("dim = 1\nH y = 1\n", "unexpected text 'y' before '=' (line 2)"),
    ("dim = 1\nomega dz1^dy1 = 1\n", "bad basis pair 'dz1^dy1' (line 2)"),
    (f"dim = 1\n{INTEGRATE}\n{INTEGRATE}\n", "duplicate integrate settings (line 3)"),
    (f"dim = 1\n{ANSATZ}\n{ANSATZ}\n", "duplicate ansatz settings (line 3)"),
    # primes on a name the parser reads as no formal function
    ("dim = 1\nH = x1'\n", "cannot take a prime of coordinate 'x1'"),
    ("dim = 1\nH = sin'(x1)\n", "primes are not allowed on 'sin'"),
    ("dim = 1\nparam A = 2\nH = A'\n", "cannot take a prime of scalar parameter 'A'"),
    # a reserved name, at the line that declares it
    ("dim = 1\nspray G1 = 0\nparam x1 = 2\n", "parameter name 'x1' is reserved (line 3)"),
    ("dim = 1\nparam sin = fn(x1^2)\nspray G1 = sin(x1)\n",
     "parameter name 'sin' is reserved (line 2)"),
    ("dim = 1\nparam x1 = fn(x1^2)\n", "parameter name 'x1' is reserved (line 2)"),
]


@pytest.mark.parametrize("text,message", BAD_FILES)
def test_a_malformed_file_gives_its_message_and_exits_1(text, message, tmp_path, capsys):
    with pytest.raises(ParseError) as err:
        parse_problem_file(text)
    assert message in str(err.value)
    path = tmp_path / "bad.sdp"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["analyze", str(path)]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("name", ["sin", "x1", "y2"])
def test_a_reserved_name_declares_no_function(name):
    ctx = Context(1)
    with pytest.raises(ValidationError, match=f"parameter name '{name}' is reserved"):
        ctx.declare_function(name, None)
    assert ctx.funcs == {}
    with pytest.raises(ValidationError, match="is reserved"):
        Context(1, params={name: 1.0})


@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_an_unbound_parameter_aborts_the_integration(method):
    ctx = Context(1, params={"A": None})
    S = SemiSpray(1, (parse("A*y1", ctx),))
    run = integrate_sode(S, Point((0.1,), (0.2,)), 0.01, 10, method, ctx)
    assert run.aborted
    assert run.abort_reason == "evaluation failed: parameter 'A' has no bound value"
    assert len(run.states) == 1
    bound = integrate_sode(S, Point((0.1,), (0.2,), {"A": 0.5}), 0.01, 10, method, ctx)
    assert not bound.aborted and bound.times[-1] == pytest.approx(0.1)


def test_a_two_form_component_on_and_below_the_diagonal():
    ctx = Context(2)
    w = TwoForm(2, {(0, 2): parse("x1*y2", ctx)})
    assert w.component(1, 1) == ZERO and w.component(0, 0) == ZERO
    assert w.component(2, 0) == simplify(parse("-x1*y2", ctx))
    assert w.component(0, 2) == simplify(parse("x1*y2", ctx))


CTX1 = Context(1)
X1, X2 = VectorField(1, (ONE,), (ZERO,)), VectorField(2, (ONE, ZERO), (ZERO, ZERO))
ZERO_N2 = ((ZERO, ZERO), (ZERO, ZERO))

# (operation, message) pairs: each operation raises ValidationError with it
REFUSED = [
    # dirac
    (lambda: Section(X1, OneForm.zero(2)), "section halves live on different dimensions"),
    (lambda: pairing(Section.of_field(X1), Section.of_field(X2)),
     "pairing of sections on different dimensions"),
    (lambda: courant_bracket(Section.of_field(X1), Section.of_field(X2)),
     "bracket of sections on different dimensions"),
    (lambda: AlmostDirac(2, (Section.of_field(X1),)), "generator dimension mismatch"),
    (lambda: gauge_transform(AlmostDirac(1, (Section.of_field(X1),)), TwoForm.zero(2)),
     "gauge form dimension mismatch"),
    (lambda: from_distribution([], None, CTX1), "need at least one distribution generator"),
    (lambda: from_distribution([X1, X2], None, CTX1),
     "distribution generator dimension mismatch"),
    (lambda: from_distribution([X1], [OneForm.zero(2)], CTX1),
     "annihilator generator dimension mismatch"),
    # forms
    (lambda: TwoForm(1, {(0, 2): ONE}), "two-form index pair (0, 2) out of range"),
    (lambda: TwoForm(1, {}, "polar"), "unknown coframe basis 'polar'"),
    (lambda: wedge(OneForm.zero(1), OneForm.zero(2)), "wedge of forms on different dimensions"),
    (lambda: interior_product(VectorField.zero(2), TwoForm.zero(1)),
     "contraction needs matching dimensions"),
    (lambda: TwoForm(2, {}, BERWALD), "an adapted-basis two-form needs its connection N"),
    (lambda: TwoForm(2, {}, COORD, ZERO_N2), "a coordinate one takes none"),
    (lambda: TwoForm(2, {}, BERWALD, ((ZERO,),)), "connection N must be 2 rows of 2 entries"),
    (lambda: TwoForm(2, {}, BERWALD, ((ZERO,), (ZERO,))),
     "connection N must be 2 rows of 2 entries"),
    (lambda: TwoForm.zero(2) + TwoForm.single(2, 2, 3, 1, BERWALD, ZERO_N2),
     "two-form addition needs matching size, basis and connection"),
    # geometry
    (lambda: VectorField.zero(1) + VectorField.zero(2), "sum of elements on different dimensions"),
    (lambda: lie_bracket(VectorField.zero(1), VectorField.zero(2)),
     "bracket of fields on different dimensions"),
    # motion
    (lambda: Trajectory(1, [0.0, 0.1], [[0.0, 0.0]], "rk4", 0.1, {}),
     "trajectory time/state length mismatch"),
    (lambda: Trajectory(1, [0.0, 0.0], [[0.0, 0.0]] * 2, "rk4", 0.1, {}),
     "trajectory times must strictly increase"),
    # expr
    (lambda: Context(0), "dimension must be positive, got 0"),
    (lambda: Point((0.0,), (0.0, 1.0)), "x and y must have the same length"),
    # ansatz
    (lambda: monomial_dictionary(1, -1), "dictionary degree must be nonnegative"),
    (lambda: Ansatz(1, degree=-1), "dictionary degree must be nonnegative"),
]


@pytest.mark.parametrize("operation,message", REFUSED)
def test_an_operation_refuses_mismatched_operands(operation, message):
    with pytest.raises(ValidationError) as err:
        operation()
    assert message in str(err.value)


def test_a_vector_field_and_a_one_form_do_not_add():
    with pytest.raises(TypeError, match="unsupported operand"):
        VectorField.zero(1) + OneForm.zero(1)
