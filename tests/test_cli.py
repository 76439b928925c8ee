"""Command-line driver: exit codes, determinism, output formats."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from spraydirac import cli, expr
from spraydirac import report as rpt


PROBLEMS = Path(__file__).resolve().parents[1] / "demos" / "problems"

EX1 = str(PROBLEMS / "ex1.sdp")
EX3 = str(PROBLEMS / "ex3.sdp")
EX4 = str(PROBLEMS / "ex4.sdp")
FREE = str(PROBLEMS / "free.sdp")


# Runs each argv through cli.main in one interpreter, then prints the exit
# codes and every loaded module whose name starts with scipy.
NO_SCIPY_SCRIPT = """
import contextlib, io, json, sys
from spraydirac import cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith("scipy"))]))
"""


def _run(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# a field of +-10^308 * x1: rk45 once took ever smaller steps past a 40 s
# timeout and 600 MB
RUNAWAY_RK45 = ("dim = 2\nspray G1 = 10^308*x1 + y1 + y2\nspray G2 = -10^308*x1 + y1 + y2\n"
                "integrate t=0.01 dt=0.01 method=rk45 seed=1 samples=1\n")


def test_an_rk45_run_past_its_step_bound_exits_2(capsys, tmp_path):
    from spraydirac import rk45
    path = tmp_path / "runaway.sdp"
    path.write_text(RUNAWAY_RK45)
    rc, _, err = _run(capsys, ["integrate", str(path)])
    assert rc == 2
    assert f"validation error: the rk45 run needs more than MAX_STEPS = {rk45.MAX_STEPS}" in err


def test_analyze_reports_connection_and_flatness(capsys):
    rc, out, _ = _run(capsys, ["analyze", EX1])
    assert rc == 0
    assert "is_spray: proven_zero" in out
    assert "N[2][2]: 2*y2" in out
    assert "coframe: [dy1, dy2 + 2*y2*dx2]" in out
    assert "flat: proven_zero" in out


def test_verify_accepts_the_free_particle(capsys):
    rc, out, _ = _run(capsys, ["verify", FREE])
    assert rc == 0
    assert "distribution: berwald-horizontal (default)" in out
    assert "overall: yes" in out
    assert "s_of_h: proven_zero" in out
    assert "aborted: false" in out


def test_verify_flags_nonintegrable_distribution(capsys):
    rc, out, _ = _run(capsys, ["verify", EX3])
    assert rc == 0
    assert "d_integrable: proven_nonzero" in out
    assert "omega_closed: proven_zero" in out
    assert "overall: no" in out
    assert "ann_rank_deficit: 1" in out


def _count_calls(monkeypatch, func) -> list:
    """Wrap func in every spraydirac module that binds it; the returned list
    grows by one entry per call, whichever binding the caller used."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return func(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("spraydirac") and getattr(mod, func.__name__, None) is func:
            monkeypatch.setattr(mod, func.__name__, counted)
    return calls


def test_analyze_builds_the_curvature_once(capsys, monkeypatch):
    from spraydirac import geometry
    calls = _count_calls(monkeypatch, geometry.curvature)
    rc, out, _ = _run(capsys, ["analyze", EX1])
    assert rc == 0 and "flat: proven_zero" in out
    assert len(calls) == 1


def test_search_computes_one_residual_per_kept_candidate(capsys, monkeypatch):
    from spraydirac import motion
    # the certificates share one checked distribution, so they call the
    # residual core that motion.residual wraps
    calls = _count_calls(monkeypatch, motion._residual)
    rc, out, _ = _run(capsys, ["search", EX4, "--json"])
    assert rc == 0
    rep = json.loads(out)
    assert rep["nullspace"]["rejected"] == 0
    assert len(rep["candidates"]) == 3
    assert len(calls) == 3


def test_search_builds_the_candidate_independent_parts_once(capsys, monkeypatch):
    from spraydirac import dirac, motion
    integrable = _count_calls(monkeypatch, motion._distribution_integrable)
    structures = _count_calls(monkeypatch, dirac.from_distribution)
    flows = _count_calls(monkeypatch, motion._flow_distribution)
    rc, out, _ = _run(capsys, ["search", EX4])
    assert rc == 0 and out.count("certificate: yes") == 3
    assert (len(integrable), len(structures)) == (1, 0)
    # once for the collocation, with its own sampling, once for the certificates
    assert len(flows) == 2


def _count_matrices(monkeypatch) -> list:
    """One entry per generator matrix that AlmostDirac builds."""
    from spraydirac.dirac import AlmostDirac
    built = []
    build = AlmostDirac.generator_matrices

    def counted(self, *args, **kwargs):
        for B in build(self, *args, **kwargs):
            built.append(1)
            yield B

    monkeypatch.setattr(AlmostDirac, "generator_matrices", counted)
    return built


def test_dirac_check_builds_at_most_two_matrices_per_point(capsys, monkeypatch):
    built = _count_matrices(monkeypatch)
    rc, out, _ = _run(capsys, ["dirac-check", EX4])
    assert rc == 0 and "points: 20" in out
    assert len(built) <= 40


@pytest.mark.parametrize("path", [EX3, EX4], ids=["ex3", "ex4"])
def test_dirac_check_builds_one_matrix_per_point(capsys, monkeypatch, path):
    # no formal function without a body: involutivity uses the shared matrix
    built = _count_matrices(monkeypatch)
    rc, out, _ = _run(capsys, ["dirac-check", path])
    assert rc == 0 and "points: 20" in out
    assert len(built) == 20


@pytest.mark.parametrize("argv", [["dirac-check", EX3], ["dirac-check", EX4], ["search", EX4]],
                         ids=["dirac-check-ex3", "dirac-check-ex4", "search-ex4"])
def test_sampled_evaluations_generate_no_code(capsys, monkeypatch, argv):
    # the generator, bracket, annihilator and collocation rows are evaluated
    # over their points without a generated module
    execs = []
    exec_def = expr._exec_def
    monkeypatch.setattr(expr, "_exec_def", lambda *a, **k: execs.append(1) or exec_def(*a, **k))
    rc, _, _ = _run(capsys, argv)
    assert rc == 0
    assert execs == []


def test_search_finds_quadratic_invariants(capsys):
    rc, out, _ = _run(capsys, ["search", EX4])
    assert rc == 0
    assert "dimension: 5" in out
    assert "trivial_dropped: 2" in out
    assert out.count("certificate: yes") == 3
    assert "H: y1*y2" in out


def test_integrate_decimates_the_trajectory(capsys):
    rc, out, _ = _run(capsys, ["integrate", FREE])
    assert rc == 0
    assert "trajectories[2]:" in out
    assert "drift: 0.0" in out
    # 500 accepted steps decimate to at most 21 dump rows
    assert "trajectory[21]:" not in out


def test_dirac_check_counts_pointwise_properties(capsys):
    rc, out, _ = _run(capsys, ["dirac-check", EX4])
    assert rc == 0
    assert "isotropic: 20/20" in out
    assert "maximal: 20/20" in out
    assert "kernel_dim_at_first_point: 0" in out


def test_parse_failures_exit_1(tmp_path, capsys):
    rc, _, err = _run(capsys, ["analyze", str(tmp_path / "missing.sdp")])
    assert rc == 1
    assert "parse error" in err
    bad = tmp_path / "bad.sdp"
    bad.write_text("dim = 2\nspray G1 = y1 +\n")
    rc, _, err = _run(capsys, ["analyze", str(bad)])
    assert rc == 1
    assert "line 2" in err


def test_missing_sections_exit_2(tmp_path, capsys):
    f = tmp_path / "nohash.sdp"
    f.write_text("dim = 1\nintegrate t=1 dt=0.1 method=rk4 seed=1 samples=1\n")
    rc, _, err = _run(capsys, ["verify", str(f)])
    assert rc == 2
    assert "validation error" in err
    rc, _, err = _run(capsys, ["dirac-check", str(f)])
    assert rc == 2


_PARAM_1E400 = ("dim = 1\nparam A = 1e400\nspray G1 = A*y1^2\nH = y1\n"
                "integrate t=0.1 dt=0.01 method=rk4 seed=1 samples=1\n")
_T_1E400 = "dim = 1\nH = y1\nintegrate t=1e400 dt=0.01 method=rk4 seed=1 samples=1\n"
_BOX_1E400 = "dim = 1\nH = y1\nansatz degree=1 points=0 box=1e400 seed=1\n"
_SPRAY_1E400 = ("dim = 1\nspray G1 = 1e400*y1^2\n"
                "integrate t=1 dt=0.1 method=rk4 seed=1 samples=1\n")
_H_401_DIGITS = ("dim = 1\nH = 1" + "0" * 400 + "*y1^2\n"
                 "integrate t=0.1 dt=0.01 method=rk4 seed=1 samples=1\n")


@pytest.mark.parametrize("command, text, line", [
    pytest.param("verify", _PARAM_1E400, 2, id="param-1e400"),
    pytest.param("analyze", _T_1E400, 3, id="integrate-t-1e400-analyze"),
    pytest.param("integrate", _T_1E400, 3, id="integrate-t-1e400-integrate"),
    pytest.param("search", _BOX_1E400, 3, id="ansatz-box-1e400-search"),
    pytest.param("dirac-check", _BOX_1E400, 3, id="ansatz-box-1e400-dirac-check"),
    pytest.param("integrate", _T_1E400.replace("1e400", "nan"), 3, id="integrate-t-nan"),
    pytest.param("analyze", "dim = 1\nparam A = 1/0\nspray G1 = A*y1^2\n", 2,
                 id="param-1-over-0"),
    pytest.param("integrate", _SPRAY_1E400, 2, id="spray-1e400-integrate"),
    pytest.param("analyze", _SPRAY_1E400, 2, id="spray-1e400-analyze"),
    pytest.param("verify", _H_401_DIGITS, 2, id="H-401-digit-integer"),
    pytest.param("analyze", _SPRAY_1E400.replace("1e400", "1e999999999"), 2,
                 id="spray-huge-exponent"),
    pytest.param("analyze", "dim = 1\nparam A = 1e-999999999\nspray G1 = A*y1^2\n", 2,
                 id="param-underflow"),
])
def test_out_of_range_literals_exit_1(tmp_path, capsys, command, text, line):
    f = tmp_path / "literal.sdp"
    f.write_text(text)
    rc, _, err = _run(capsys, [command, str(f)])
    assert rc == 1, err
    assert "parse error" in err and f"(line {line})" in err


def test_huge_exponents_on_zero_and_in_expressions_parse_at_once(tmp_path, capsys):
    # a zero literal is zero whatever its exponent; an expression literal
    # that underflows is the double 0.0
    f = tmp_path / "exponents.sdp"
    f.write_text("dim = 1\nparam A = 0e999999999\nspray G1 = (A + 1e-999999999)*y1^2\n")
    rc, out, err = _run(capsys, ["analyze", str(f)])
    assert rc == 0, err
    assert "flat: proven_zero" in out


def test_a_term_that_underflows_in_a_sum_base_is_dropped(tmp_path, capsys):
    # 1e-200/1e200 underflows to 0.0 when the sum is scaled to lead with 1
    f = tmp_path / "underflow.sdp"
    f.write_text("dim = 2\nspray G1 = y1^2/(1e200*x1 + 1e-200*x2)\n")
    rc, out, err = _run(capsys, ["analyze", str(f)])
    assert rc == 0, err
    assert "  G1: 1e-200*y1^2/x1\n" in out


def test_blow_up_into_a_math_domain_error_aborts_the_trajectory(tmp_path, capsys):
    # y1^3 overflows a double: floats raise, evaluate decides, and the abort
    # reason reports it, with no numpy warning
    f = tmp_path / "sinblowup.sdp"
    f.write_text("dim = 1\nspray G1 = -y1^3 + sin(y1^2)\n"
                 "integrate t=2 dt=0.01 method=rk4 seed=1 samples=2\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = _run(capsys, ["integrate", str(f), "--json"])
    assert rc == 0, err
    assert err == ""
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    runs = json.loads(out)["trajectories"]
    assert [r["abort_reason"] for r in runs] == ["evaluation failed: overflow in power"] * 2


OVERFLOWING_LOCUS = ("dim = 1\nexclude x1^400 + 1\n"
                     "integrate t=10 dt=0.01 method={} seed=1 samples=2\n")


@pytest.mark.parametrize("command, extra", [("integrate", ""), ("verify", "H = y1\n")],
                         ids=["integrate", "verify"])
def test_an_overflowing_locus_aborts_only_its_trajectory(tmp_path, capsys, command, extra):
    # |x1| grows past 5.9, where x1^400 overflows a double: evaluate decides
    f = tmp_path / "overflow.sdp"
    f.write_text(OVERFLOWING_LOCUS.format("rk4") + extra)
    rc, out, err = _run(capsys, [command, str(f), "--json"])
    assert rc == 0, err
    assert err == ""
    rep = json.loads(out)
    runs = rep["trajectories"] if command == "integrate" else rep["drift"]["runs"]
    assert [r["abort_reason"] for r in runs] == ["evaluation failed: overflow in power"] * 2


def test_an_overflowing_locus_under_rk45_keeps_stderr_empty(tmp_path, capsys):
    f = tmp_path / "overflow45.sdp"
    f.write_text(OVERFLOWING_LOCUS.format("rk45"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = _run(capsys, ["integrate", str(f), "--json"])
    assert rc == 0, err
    assert err == ""
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert all(r["aborted"] for r in json.loads(out)["trajectories"])


def test_an_rk45_run_across_a_flat_locus_exits_0(tmp_path, capsys):
    # x1^3 is flat at its root: a Brent search for the crossing on the
    # step's interpolant ran out of iterations, and integrate exited 4
    f = tmp_path / "cubic.sdp"
    f.write_text("dim = 1\nspray G1 = 0\nexclude x1^3\n"
                 "integrate t=20 dt=0.05 method=rk45 seed=3 samples=8\n")
    rc, out, err = _run(capsys, ["integrate", str(f), "--json"])
    assert (rc, err) == (0, "")
    reasons = [r["abort_reason"] for r in json.loads(out)["trajectories"]]
    assert "state entered a singular locus" in reasons


def test_numeric_domain_failures_exit_3(tmp_path, capsys):
    f = tmp_path / "logenergy.sdp"
    f.write_text("dim = 1\nH = ln(y1)\n"
                 "integrate t=0.1 dt=0.01 method=rk4 seed=1 samples=4\n")
    rc, _, err = _run(capsys, ["verify", str(f)])
    assert rc == 3
    assert "numeric-domain error" in err


# constants past the double range, which d(H) and S(H) reach from H; in the
# drift of the last one, 10^308*y1 overflows a double, which evaluate refuses
HUGE_CONSTANTS = {
    "dim1": ("dim = 1\nspray G1 = y1^2\nH = 10^308*y1\n", "constant out of double range"),
    "dim2": ("dim = 2\nspray G1 = y1^2\nspray G2 = y2^2\nH = 10^308*y1 + 10^308*y2\n",
             "constant out of double range"),
    "drift": ("dim = 2\nH = 10^308*y1 + 10^308*y2\n", "product produced a non-finite value"),
}


@pytest.mark.parametrize("name", HUGE_CONSTANTS)
def test_constants_out_of_double_range_exit_3(tmp_path, capsys, name):
    text, message = HUGE_CONSTANTS[name]
    f = tmp_path / "huge.sdp"
    f.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, _, err = _run(capsys, ["verify", str(f)])
    assert rc == 3
    assert err == f"numeric-domain error: {message}\n"
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


# folded non-finite constants (1e300*1e300 is inf) and exact constants past
# the double range, each of which once exited 4
FOLDED = "dim = 1\nspray G1 = {}\n{}integrate t=0.1 dt=0.01 method=rk4 seed=1 samples=2\n"
OUT_OF_RANGE_FILES = {
    "inf-product": ("integrate", FOLDED.format("1e300*1e300*y1^2", ""), 0, ""),
    "sin-inf": ("integrate", FOLDED.format("sin(1e300*1e300)*y1^2", ""), 0, ""),
    "fractional-pow": ("analyze", FOLDED.format("(1e300)^3/2*y1^2", ""), 0, ""),
    "sin-verify": ("verify", FOLDED.format("y1^2", "H = y1 + sin(1e300*1e300)*x1\n"), 3,
                   "non-finite constant"),
    "rational-analyze": ("analyze", "dim = 1\nspray G1 = (10^401/(3))^1/2*x1*y1^2\n", 0, ""),
    "rational-verify": ("verify", FOLDED.format("y1^2", "H = (10^401/(3))^1/2*y1\n"), 3,
                        "constant out of double range"),
    # exact constants past expr.MAX_EXACT_BITS, and a root of one below it
    "exact-power": ("analyze", FOLDED.format("3^9100*y1^2", ""), 3, "exact constant too large"),
    "huge-exact-power": ("analyze", FOLDED.format("3^10000000*y1^2", ""), 3,
                         "exact constant too large"),
    "exact-power-in-H": ("verify", FOLDED.format("y1^2", "H = 2^100000*y1\n"), 3,
                         "exact constant too large"),
    "exact-product-in-H": ("verify", FOLDED.format(
        "y1^2", "H = " + "*".join(["7" * 301] * 15) + "*y1\n"), 3, "exact constant too large"),
    "large-exact-root": ("verify", FOLDED.format("y1^2", "H = (10^400)^1/2*y1\n"), 0, ""),
}


@pytest.mark.parametrize("name", OUT_OF_RANGE_FILES)
def test_constants_folded_out_of_range_exit_0_or_3(tmp_path, capsys, name):
    command, text, code, message = OUT_OF_RANGE_FILES[name]
    f = tmp_path / "folded.sdp"
    f.write_text(text)
    rc, out, err = _run(capsys, [command, str(f), "--json"])
    assert rc == code, err
    if code == 3:
        assert err == f"numeric-domain error: {message}\n"
    elif command == "integrate":
        reasons = {t["abort_reason"] for t in json.loads(out)["trajectories"]}
        assert len(reasons) == 1 and reasons.pop().startswith("evaluation failed: ")


def test_an_overflowing_power_folds_as_the_product_does(tmp_path, capsys):
    reports = []
    for factor in ("1e300*1e300", "(1e300)^2"):
        f = tmp_path / "p.sdp"
        f.write_text(FOLDED.format(f"{factor}*y1^2", ""))
        for command in ("analyze", "integrate"):
            rc, out, _ = _run(capsys, [command, str(f), "--json"])
            rep = json.loads(out)
            for key in ("sha256", "timing_ms"):   # of the input file, of the run
                rep.pop(key, None)
            reports.append((rc, rep))
    assert reports[:2] == reports[2:]
    assert [rc for rc, _ in reports] == [0, 0, 0, 0]
    assert reports[0][1]["spray"]["G1"] == "inf*y1^2"


CHAINED_BODIES = ("dim = 1\nparam f = fn(x1^2 + 1)\nparam g = fn(f(x1) + 1)\n"
                  "spray G1 = g(x1)*y1^2*(1/10)\nH = y1\n"
                  "integrate t=0.5 dt=0.01 method={} seed=1 samples=2\n")


@pytest.mark.parametrize("command", ["integrate", "verify"])
@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_chained_function_bodies_integrate(tmp_path, capsys, command, method):
    f = tmp_path / "chained.sdp"
    f.write_text(CHAINED_BODIES.format(method))
    rc, out, err = _run(capsys, [command, str(f), "--json"])
    assert rc == 0, err
    rep = json.loads(out)
    runs = rep["trajectories"] if command == "integrate" else rep["drift"]["runs"]
    assert len(runs) == 2 and not any(r["aborted"] for r in runs)


def test_huge_exact_root_verifies(tmp_path, capsys):
    f = tmp_path / "hugeroot.sdp"
    f.write_text("dim = 1\nH = (10^400)^1/2\n"
                 "integrate t=0.1 dt=0.01 method=rk4 seed=1 samples=1\n")
    rc, out, err = _run(capsys, ["verify", str(f)])
    assert rc == 0, err
    assert "H: 1" + "0" * 200 + "\n" in out


def test_unexpected_exceptions_exit_4(capsys, monkeypatch):
    def boom(path, pf, seed):
        raise RuntimeError("wired to fail")
    monkeypatch.setitem(cli._COMMANDS, "analyze", boom)
    rc, _, err = _run(capsys, ["analyze", EX1])
    assert rc == 4
    assert "internal error" in err


def _memo_sizes() -> tuple:
    return (len(expr._NF_MEMO), len(expr._SIMPLIFY_MEMO), len(expr._DIFF_MEMO),
            len(expr._COMPILE_MEMO))


@pytest.mark.parametrize("text, command, code", [
    ("dim = 1\nspray G1 = y1^2\n", "analyze", 0),
    ("dim = 1\nspray G1 = y1^\n", "analyze", 1),
    ("dim = 1\nspray G1 = y1^2\n", "dirac-check", 2),
    ("dim = 1\nH = ln(y1)\nintegrate t=0.1 dt=0.01 method=rk4 seed=1 samples=4\n",
     "verify", 3),
    ("dim = 1\nspray G1 = y1^2\n", "analyze", 4),
], ids=["ok", "parse", "validation", "numeric-domain", "internal"])
def test_main_empties_the_kernel_memo_on_every_exit(tmp_path, capsys, monkeypatch,
                                                    text, command, code):
    if code == 4:
        def boom(*args):
            raise RuntimeError("wired to fail after the curvature")
        monkeypatch.setattr(cli, "is_flat", boom)
    f = tmp_path / "p.sdp"
    f.write_text(text)
    x1 = expr.Var("x", 1)
    expr.diff(x1 * x1, x1)      # fills the kernel tables
    expr.compile_exprs((x1,), expr.Context(dim=1))
    assert all(_memo_sizes())
    rc, _, _ = _run(capsys, [command, str(f)])
    assert rc == code
    assert _memo_sizes() == (0, 0, 0, 0)


def test_integrate_compiles_the_step_and_h_once(tmp_path, capsys, monkeypatch):
    heads = []
    exec_def = expr._exec_def
    monkeypatch.setattr(expr, "_exec_def",
                        lambda lines, **names: heads.append(lines[0]) or exec_def(lines, **names))
    f = tmp_path / "p.sdp"
    f.write_text("dim = 1\nparam f = fn(x1^2 + 1)\nexclude x1 - 5\n"
                 "spray G1 = f(x1)*y1^2*(1/10)\nH = f(x1)*y1\n"
                 "integrate t=0.5 dt=0.01 method=rk4 seed=1 samples=3\n")
    rc, out, _ = _run(capsys, ["integrate", str(f)])
    assert rc == 0 and out.count("aborted: false") == 3
    assert heads == ["def _step(_z, _p, _below):", "def _compiled(_z, _p):"]


def test_a_subnormal_lead_of_a_denominator_stays_unscaled(tmp_path, capsys):
    # 1/5e-324 overflows: scaling the sum by it used to make inf terms
    f = tmp_path / "p.sdp"
    f.write_text("dim = 1\nspray G1 = y1^2/(x1 + 5e-324)\n")
    rc, out, err = _run(capsys, ["analyze", str(f)])
    assert rc == 0, err
    assert "G1: y1^2/(5e-324 + x1)" in out


def test_running_out_of_memory_is_a_validation_error(tmp_path, capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError
    monkeypatch.setitem(cli._COMMANDS, "analyze", exhausted)
    rc, _, err = _run(capsys, ["analyze", EX1])
    assert rc == 2
    assert err.startswith("validation error: out of memory")


@pytest.mark.parametrize("G", ["((x1 + x2 + 1)^16)^16*y1^2",
                               "(x1 + x2 + y1 + y2 + 1)^12*(x1 - x2 + y1 - y2 + 3)^12"])
def test_a_product_past_the_term_bound_exits_2(tmp_path, capsys, G):
    from spraydirac.expr import MAX_TERMS
    f = tmp_path / "p.sdp"
    f.write_text(f"dim = 2\nspray G1 = {G}\n")
    rc, _, err = _run(capsys, ["analyze", str(f)])
    assert rc == 2
    assert f"exceeds the bound MAX_TERMS = {MAX_TERMS} term pairs" in err


def test_the_largest_dim_is_analyzed_and_a_larger_one_refused(tmp_path, capsys):
    from spraydirac.problemfile import MAX_DIM
    f = tmp_path / "p.sdp"
    f.write_text(f"dim = {MAX_DIM}\n")
    rc, out, _ = _run(capsys, ["analyze", str(f)])
    assert rc == 0 and "flat: proven_zero" in out
    f.write_text(f"dim = {MAX_DIM + 1}\n")
    rc, _, err = _run(capsys, ["analyze", str(f)])
    assert rc == 1
    assert f"exceeds the bound MAX_DIM = {MAX_DIM} (line 1)" in err


def test_normalize_passes_non_finite_floats_through():
    out = rpt.normalize({"inf": float("inf"), "vals": (float("nan"), -float("inf"))})
    assert out["inf"] == float("inf")
    assert math.isnan(out["vals"][0]) and out["vals"][1] == -float("inf")


def _strip_timing(text: str) -> str:
    return "\n".join(l for l in text.splitlines() if "timing_ms" not in l)


def test_reports_are_deterministic(tmp_path, capsys):
    outs = []
    for k in (1, 2):
        dest = tmp_path / f"run{k}.txt"
        rc, stdout, _ = _run(capsys, ["verify", FREE, "--out", str(dest)])
        assert rc == 0
        assert stdout == ""
        outs.append(_strip_timing(dest.read_text()))
    assert outs[0] == outs[1]


def test_json_mirrors_the_text_layout(capsys):
    rc, text, _ = _run(capsys, ["analyze", EX1])
    assert rc == 0
    rc, blob, _ = _run(capsys, ["analyze", EX1, "--json"])
    assert rc == 0
    data = json.loads(blob)
    text_keys = [l.split(":", 1)[0] for l in text.splitlines()
                 if l and not l.startswith(" ")]
    assert list(data) == text_keys
    assert data["flat"] == "proven_zero"
    assert data["sha256"] == text.splitlines()[2].split(": ", 1)[1]


def test_seed_flag_overrides_file_and_default(capsys):
    rc, out, _ = _run(capsys, ["analyze", EX1, "--seed", "123"])
    assert rc == 0
    assert "seed: 123" in out


# inputs that once exited 4 or ran without bound, each with the exit code
# of its error family
EDGE_FILE = "dim = 1\nspray G1 = {}\n{}"
SHORT_RUN = "integrate t=0.1 dt=0.01 method=rk4 seed={} samples=1\n"
EDGE_INPUTS = {
    "negative-seed-option": ("verify", EX3, ["--seed", "-1"], 2,
                             "validation error: --seed must be a non-negative integer"),
    "negative-integrate-seed": ("integrate", EDGE_FILE.format("y1^2", SHORT_RUN.format(-5)), [],
                                1, "parse error: integrate needs t > 0, dt > 0, samples >= 1, "
                                   "seed >= 0 (line 3)"),
    "negative-ansatz-seed": ("search", EDGE_FILE.format(
        "y1^2", "ansatz degree=1 points=0 box=1 seed=-1\n"), [], 1,
        "parse error: ansatz needs degree >= 0, box > 0 and seed >= 0 (line 3)"),
    "infinite-step-count": ("integrate", EDGE_FILE.format(
        "y1^2", "integrate t=1e300 dt=1e-300 method=rk4 seed=1 samples=1\n"), [], 1,
        "parse error: integrate needs a finite step count t/dt (line 3)"),
    "too-many-steps": ("integrate", EDGE_FILE.format(
        "y1^2", "integrate t=1e6 dt=1e-6 method=rk4 seed=1 samples=1\n"), [], 2,
        "validation error: 1000000000000 steps x 1 samples exceeds the bound "
        "MAX_TOTAL_STEPS = 1000000"),
    "too-many-samples": ("verify", EDGE_FILE.format(
        "y1^2", "H = y1\nintegrate t=1 dt=0.01 method=rk4 seed=1 samples=100000000\n"), [], 2,
        "validation error: 100 steps x 100000000 samples exceeds the bound "
        "MAX_TOTAL_STEPS = 1000000"),
    "long-seed": ("integrate", EDGE_FILE.format("y1^2", SHORT_RUN.format("9" * 5000)), [], 1,
                  "parse error: integrate seed is too long or not a decimal integer (line 3)"),
    "long-dim": ("analyze", "dim = " + "9" * 5000 + "\n", [], 1,
                 "parse error: dim is too long or not a decimal integer (line 1)"),
    "long-exponent": ("analyze", EDGE_FILE.format("y1^" + "9" * 5000, ""), [], 1,
                      "parse error: in expression 'y1^" + "9" * 5000 + "': exponent has "
                      "too many digits (at offset 3) (line 2)"),
    # A2 passes the annihilation test at 1e-9 but adds a second rank
    "over-rank-annihilators": ("dirac-check", EDGE_FILE.format(
        "y1^2", "dist X1 = (1/1000; 0)\nann A1 = (0; 1)\nann A2 = (1/10000000; 0)\n"), [], 2,
        "validation error: annihilator family has sampled rank 2, more than the "
        "complement dimension 2n - k = 1"),
    "huge-ansatz-degree": ("search", EDGE_FILE.format(
        "y1^2", "ansatz degree=400 points=0 box=2 seed=1\n"), [], 2,
        "validation error: 241811 collocation points x 80602 unknowns exceeds the bound "
        "MAX_COLLOCATION_CELLS = 1000000"),
    # (1e-200)^2 underflows to 0.0, so the denominator has no term left
    "underflowing-power": ("analyze", EDGE_FILE.format("y1^2/(1e-200*x1)^2", ""), [], 3,
                           "numeric-domain error: division by an expression that "
                           "simplifies to zero"),
}


@pytest.mark.parametrize("name", EDGE_INPUTS)
def test_edge_inputs_exit_with_their_family_code(tmp_path, capsys, name):
    command, text, extra, code, message = EDGE_INPUTS[name]
    if text.endswith(".sdp"):
        path = text
    else:
        path = tmp_path / "edge.sdp"
        path.write_text(text)
    rc, _, err = _run(capsys, [command, str(path), *extra])
    assert (rc, err) == (code, message + "\n")


def test_an_overflowing_trajectory_row_prints_the_float(tmp_path, capsys):
    # numpy rounds a float64 as v * 1e12, which overflows past about 1.8e296
    f = tmp_path / "fast.sdp"
    f.write_text("dim = 1\nspray G1 = -343*y1\n"
                 "integrate t=1 dt=0.001 method=rk4 seed=1 samples=1\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = _run(capsys, ["integrate", str(f), "--json"])
    assert (rc, err) == (0, "")
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    last = json.loads(out)["trajectories"][0]["trajectory"][-1]
    assert last[0] == 1.0 and all(math.isfinite(v) for v in last)
    assert last[2] == 7.407833446314124e+297


def test_no_command_loads_scipy(tmp_path):
    # ex1 integrated by rk45 runs the integrator with the locus rule on its
    # two loci; ex4 has no ann lines, so dirac-check completes its annihilator
    # with null spaces
    rk45 = tmp_path / "ex1_rk45.sdp"
    rk45.write_text(Path(EX1).read_text().replace("method=rk4", "method=rk45"))
    runs = [["analyze", EX1], ["verify", EX3], ["search", EX4],
            ["integrate", str(rk45)], ["dirac-check", EX4], ["dirac-check", EX3]]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, json.dumps(runs)], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert json.loads(out) == [[0] * len(runs), []]


def test_a_flow_field_past_the_double_range_leaves_the_span(tmp_path, capsys):
    # the gap and target norms of the span test overflowed to inf, and
    # inf > 1e-9*inf passed the field: verify printed certificate yes
    text = Path(EX1).read_text().replace(
        "integrate t=0.2 dt=0.0005 method=rk4 seed=11 samples=6",
        "integrate t=0.01 dt=0.01 method=rk4 seed=0 samples=1")
    f = tmp_path / "p.sdp"
    f.write_text(text + "spray G1 = (10^400)^1/2*y1^2\n")
    rc, out, err = _run(capsys, ["verify", str(f)])
    assert rc == 2 and out == ""
    assert err.strip() == ("validation error: flow field leaves the span of the "
                           "distribution (gap 2.865e+200 at a sampled point)")


def test_a_bracket_residual_past_the_double_range_stays_finite(tmp_path, capsys):
    # the residual of [X1, X2] = 10^300*x1 d/dy1 is rounding noise near
    # 1e284, whose square overflowed: numpy warned and the report read inf
    f = tmp_path / "p.sdp"
    f.write_text("dim = 1\ndist X1 = (10^150*x1; 0)\ndist X2 = (0; 10^150*x1)\n")
    rc, out, err = _run(capsys, ["dirac-check", str(f)])
    assert rc == 0 and err == ""
    resid = float(out.split("max_involutivity_residual: ")[1].split()[0])
    assert math.isfinite(resid)
