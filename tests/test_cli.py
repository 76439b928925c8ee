"""Command-line driver: exit codes, determinism, output formats."""

import json
import math
import sys
from pathlib import Path

import pytest

from spraydirac import cli
from spraydirac import report as rpt


PROBLEMS = Path(__file__).resolve().parents[1] / "demos" / "problems"

EX1 = str(PROBLEMS / "ex1.sdp")
EX3 = str(PROBLEMS / "ex3.sdp")
EX4 = str(PROBLEMS / "ex4.sdp")
FREE = str(PROBLEMS / "free.sdp")


def _run(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


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
    calls = _count_calls(monkeypatch, motion.residual)
    rc, out, _ = _run(capsys, ["search", EX4, "--json"])
    assert rc == 0
    rep = json.loads(out)
    assert rep["nullspace"]["rejected"] == 0
    assert len(rep["candidates"]) == 3
    assert len(calls) == 3


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


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_blow_up_into_a_math_domain_error_aborts_the_trajectory(tmp_path, capsys):
    # numpy turns y1^2 into inf on the array fallback, and sin(inf) raises
    f = tmp_path / "sinblowup.sdp"
    f.write_text("dim = 1\nspray G1 = -y1^3 + sin(y1^2)\n"
                 "integrate t=2 dt=0.01 method=rk4 seed=1 samples=2\n")
    rc, out, err = _run(capsys, ["integrate", str(f), "--json"])
    assert rc == 0, err
    runs = json.loads(out)["trajectories"]
    assert [r["abort_reason"] for r in runs] == ["evaluation failed: math domain error"] * 2


def test_numeric_domain_failures_exit_3(tmp_path, capsys):
    f = tmp_path / "logenergy.sdp"
    f.write_text("dim = 1\nH = ln(y1)\n"
                 "integrate t=0.1 dt=0.01 method=rk4 seed=1 samples=4\n")
    rc, _, err = _run(capsys, ["verify", str(f)])
    assert rc == 3
    assert "numeric-domain error" in err


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
