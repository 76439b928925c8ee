"""Batch front-end: parse a problem file, run one command, emit a report.

Exit codes: 0 success (whatever the mathematical verdicts), 1 parse error,
2 validation error, 3 numeric-domain error, 4 internal error.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

from . import report as rpt
from .dirac import (
    from_distribution, gauge_transform, involutivity_residual,
    is_isotropic_at, is_maximal_at, kernel_at,
)
from .errors import (
    EvalDomainError, InternalError, ParseError, SprayDiracError,
    ValidationError,
)
from .expr import (
    DEFAULT_SEED, SampleConfig, clear_caches, format_expr, sample_points, simplify,
)
from .forms import BERWALD, TwoForm, format_coefficient, format_two_form
from .geometry import (
    berwald_frame, connection_coefficients, curvature, is_flat, is_semispray,
    is_spray,
)
from .motion import conservation_drift, hamiltonian_certificate, integrate_sode
from .ansatz import Ansatz, search
from .problemfile import ProblemFile, load_problem_file


def _verdict_seed(seed_arg: int | None) -> int:
    return seed_arg if seed_arg is not None else DEFAULT_SEED


def _batch_seed(seed_arg: int | None, section_seed: int | None) -> int:
    if seed_arg is not None:
        return seed_arg
    if section_seed is not None:
        return section_seed
    return DEFAULT_SEED


def _fmt_tuple(exprs) -> str:
    return ", ".join(format_expr(simplify(e)) for e in exprs)


def _fmt_field(V) -> str:
    return f"({_fmt_tuple(V.base)}; {_fmt_tuple(V.fiber)})"


def _fmt_oneform(a) -> str:
    return f"({_fmt_tuple(a.dx)}; {_fmt_tuple(a.dy)})"


def _fmt_section(s) -> str:
    return f"field {_fmt_field(s.X)} form {_fmt_oneform(s.alpha)}"


def _coframe_text(n: int, N) -> list[str]:
    out = []
    for a in range(n):
        s = f"dy{a + 1}"
        for i in range(n):
            c = simplify(N[a][i])
            if format_expr(c) != "0":
                s += f" + {format_coefficient(c)}*dx{i + 1}"
        out.append(s)
    return out


def _nonzero_texts(named: dict) -> dict:
    """The simplified text of each nonzero entry, or {"all": "0"}."""
    texts = {k: format_expr(simplify(e)) for k, e in named.items()}
    return {k: t for k, t in texts.items() if t != "0"} or {"all": "0"}


def _prepared_omega(pf: ProblemFile, S) -> TwoForm:
    w = pf.omega if pf.omega is not None else TwoForm.zero(pf.n)
    if w.basis == BERWALD and w.N is None:
        w = w.with_connection(connection_coefficients(S))
    return w


def _base_report(command: str, path: str, pf: ProblemFile, seed: int) -> dict:
    return {
        "command": command,
        "input": path,
        "sha256": rpt.input_digest(pf.source),
        "seed": seed,
        "dim": pf.n,
        "spray": {f"G{a + 1}": format_expr(simplify(g))
                  for a, g in enumerate(pf.G)},
        "singular_loci": [format_expr(e) for e in pf.singular_loci],
    }


def cmd_analyze(path: str, pf: ProblemFile, seed_arg: int | None) -> dict:
    S = pf.semispray()
    ctx = pf.context
    seed = _verdict_seed(seed_arg)
    cfg = SampleConfig(seed=seed)
    rep = _base_report("analyze", path, pf, seed)
    rep["semispray"] = is_semispray(S.vector_field(), ctx, cfg, S.singular_loci).value
    rep["is_spray"] = is_spray(S, ctx, cfg).value
    frame = berwald_frame(S)
    rep["connection"] = _nonzero_texts({
        f"N[{a + 1}][{i + 1}]": frame.N[a][i]
        for a in range(pf.n) for i in range(pf.n)})
    rep["frame"] = {
        "horizontal": [_fmt_field(h) for h in frame.horizontal],
        "coframe": _coframe_text(pf.n, frame.N),
    }
    R = curvature(S, frame)
    rep["curvature"] = _nonzero_texts({
        f"R[{a + 1}][{i + 1},{j + 1}]": R.component(a, i, j)
        for a in range(pf.n) for i in range(pf.n) for j in range(i + 1, pf.n)})
    rep["flat"] = is_flat(R, S.singular_loci, ctx, cfg).value
    return rep


def _round12(v):
    """round(v, 12), or v itself where numpy's v * 1e12 would overflow: a
    float that large has no fractional digits."""
    return v if math.isinf(float(v) * 1e12) and math.isfinite(v) else round(v, 12)


def _trajectory_rows(traj) -> list:
    """About 20 evenly strided rows of the trajectory, always ending at its last."""
    stride = max(1, (len(traj.times) - 1) // 20)
    rows = [[_round12(traj.times[k])] + [_round12(v) for v in traj.states[k]]
            for k in range(0, len(traj.times), stride)]
    if (len(traj.times) - 1) % stride:
        rows.append([_round12(traj.times[-1])]
                    + [_round12(v) for v in traj.states[-1]])
    return rows


def _sampled_runs(pf: ProblemFile, S, ctx, T: float, dt: float, method: str,
                  samples: int, batch_seed: int, dump: bool = False):
    """Integrate from seeded starting points and measure the drift of H.

    Returns one report entry per start and the largest drift (0.0 without
    H).  `dump` adds the accepted step count and the strided trajectory.
    """
    cfg = SampleConfig(box=(-2.0, 2.0), seed=batch_seed)
    pts = sample_points(ctx, cfg, S.singular_loci, count=samples)
    steps = int(round(T / dt))
    runs = []
    worst = 0.0
    for p in pts:
        traj = integrate_sode(S, p, dt, steps, method=method, ctx=ctx)
        drift = conservation_drift(traj, pf.H, ctx) if pf.H is not None else None
        if drift is not None:
            worst = max(worst, drift)
        run = {"initial": [_round12(v) for v in (*p.x, *p.y)]}
        if dump:
            run["accepted_steps"] = len(traj.times) - 1
        run.update(t_final=_round12(traj.times[-1]), aborted=traj.aborted,
                   abort_reason=traj.abort_reason, drift=drift)
        if dump:
            run["trajectory"] = _trajectory_rows(traj)
        runs.append(run)
    return runs, worst


def _drift_batch(pf: ProblemFile, S, ctx, seed_arg: int | None) -> dict:
    st = pf.integrate
    T = st.t if st else 10.0
    dt = st.dt if st else 1e-3
    method = st.method if st else "rk4"
    samples = st.samples if st else 10
    batch_seed = _batch_seed(seed_arg, st.seed if st else None)
    runs, worst = _sampled_runs(pf, S, ctx, T, dt, method, samples, batch_seed)
    return {
        "method": method, "t": T, "dt": dt, "samples": samples,
        "batch_seed": batch_seed, "runs": runs, "max_drift": worst,
    }


def cmd_verify(path: str, pf: ProblemFile, seed_arg: int | None) -> dict:
    if pf.H is None:
        raise ValidationError("verify needs an 'H = <expr>' line")
    S = pf.semispray()
    ctx = pf.context
    seed = _verdict_seed(seed_arg)
    cfg = SampleConfig(seed=seed)
    omega = _prepared_omega(pf, S)
    rep = _base_report("verify", path, pf, seed)
    rep["H"] = format_expr(simplify(pf.H))
    rep["omega"] = format_two_form(omega)
    rep["distribution"] = ([_fmt_field(X) for X in pf.dist]
                          if pf.dist else "berwald-horizontal (default)")
    cert = hamiltonian_certificate(S, omega, pf.H, pf.dist, pf.ann, ctx, cfg)
    labels = ([f"X{j + 1}" for j in range(len(pf.dist))] if pf.dist
              else [f"delta{i + 1}" for i in range(pf.n)])
    rep["residual"] = {
        "components": {lab: format_expr(simplify(c))
                       for lab, c in zip(labels, cert.residual_components)},
        "verdicts": {lab: v.value
                     for lab, v in zip(labels, cert.residual_verdicts)},
        "numeric_max": cert.numeric_max_residual,
        "trivial": cert.trivial,
    }
    rep["s_of_h"] = cert.s_of_h.value
    rep["certificate"] = {
        "residual_zero": all(v.value == "proven_zero"
                             for v in cert.residual_verdicts),
        "d_integrable": cert.d_integrable.value,
        "omega_closed": cert.omega_closed.value,
        "overall": cert.overall,
    }
    if cert.structure is not None:
        rep["structure"] = {
            "provenance": cert.structure.provenance,
            "ann_rank_deficit": cert.structure.ann_rank_deficit,
            "generators": [_fmt_section(s) for s in cert.structure.generators],
        }
    else:
        rep["structure"] = "not-emitted"
    rep["drift"] = _drift_batch(pf, S, ctx, seed_arg)
    return rep


def cmd_search(path: str, pf: ProblemFile, seed_arg: int | None) -> dict:
    S = pf.semispray()
    ctx = pf.context
    st = pf.ansatz
    a_seed = _batch_seed(seed_arg, st.seed if st else None)
    a = Ansatz(n=pf.n,
               degree=st.degree if st else 2,
               points=st.points if st else 0,
               box=st.box if st else 2.0,
               seed=a_seed)
    res = search(S, pf.dist, a, ctx)
    rep = _base_report("search", path, pf, _verdict_seed(seed_arg))
    rep["ansatz"] = {
        "degree": a.degree, "unknowns": a.unknowns,
        "collocation_points": a.points, "box": a.box, "seed": a_seed,
    }
    sv = res.singular_values
    rep["nullspace"] = {
        "dimension": int(res.nullspace.shape[1]),
        "sigma_max": float(sv[0]) if len(sv) else 0.0,
        "sigma_min": float(sv[-1]) if len(sv) else 0.0,
        "trivial_dropped": res.trivial_dropped,
        "rejected": res.rejected,
    }
    rep["candidates"] = [{
        "H": format_expr(simplify(c.H)),
        "omega": format_two_form(c.omega),
        "verified": c.verified,
        "certificate": c.certificate.overall,
    } for c in res.candidates]
    return rep


def cmd_integrate(path: str, pf: ProblemFile, seed_arg: int | None) -> dict:
    if pf.integrate is None:
        raise ValidationError("integrate needs an 'integrate t=... dt=...' line")
    S = pf.semispray()
    ctx = pf.context
    st = pf.integrate
    batch_seed = _batch_seed(seed_arg, st.seed)
    rep = _base_report("integrate", path, pf, _verdict_seed(seed_arg))
    if pf.H is not None:
        rep["H"] = format_expr(simplify(pf.H))
    dumps, worst = _sampled_runs(pf, S, ctx, st.t, st.dt, st.method,
                                 st.samples, batch_seed, dump=True)
    rep["integration"] = {"method": st.method, "t": st.t, "dt": st.dt,
                          "samples": st.samples, "batch_seed": batch_seed}
    rep["trajectories"] = dumps
    if pf.H is not None:
        rep["max_drift"] = worst
    return rep


def cmd_dirac_check(path: str, pf: ProblemFile, seed_arg: int | None) -> dict:
    if not pf.dist:
        raise ValidationError("dirac-check needs 'dist X<j> = ...' lines")
    S = pf.semispray()
    ctx = pf.context
    seed = _verdict_seed(seed_arg)
    cfg = SampleConfig(seed=seed)
    L = from_distribution(pf.dist, pf.ann, ctx, cfg, pf.singular_loci)
    if pf.omega is not None:
        L = gauge_transform(L, _prepared_omega(pf, S))
    rep = _base_report("dirac-check", path, pf, seed)
    rep["structure"] = {
        "provenance": L.provenance,
        "ann_rank_deficit": L.ann_rank_deficit,
        "generators": [_fmt_section(s) for s in L.generators],
    }
    pts = sample_points(ctx, SampleConfig(seed=seed), pf.singular_loci, count=20)
    Bs = [L.generator_matrix(p, ctx) for p in pts]
    iso = sum(1 for B in Bs if is_isotropic_at(B))
    maxl = sum(1 for B in Bs if is_maximal_at(B))
    resid = max(involutivity_residual(L, p, ctx, B) for p, B in zip(pts, Bs))
    kdim = len(kernel_at(Bs[0]))
    rep["pointwise"] = {
        "points": len(pts),
        "isotropic": f"{iso}/{len(pts)}",
        "maximal": f"{maxl}/{len(pts)}",
        "max_involutivity_residual": resid,
        "kernel_dim_at_first_point": kdim,
    }
    return rep


_COMMANDS = {
    "analyze": cmd_analyze,
    "verify": cmd_verify,
    "search": cmd_search,
    "integrate": cmd_integrate,
    "dirac-check": cmd_dirac_check,
}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="spraydirac",
        description="Analyze second-order systems and conserved-quantity "
                    "structure described by a problem file.")
    ap.add_argument("command", choices=sorted(_COMMANDS))
    ap.add_argument("file")
    ap.add_argument("--out", metavar="PATH", default=None)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    try:
        if args.seed is not None and args.seed < 0:
            raise ValidationError("--seed must be a non-negative integer")
        pf = load_problem_file(args.file)
        rep = _COMMANDS[args.command](args.file, pf, args.seed)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 1
    except ValidationError as e:
        print(f"validation error: {e}", file=sys.stderr)
        return 2
    except EvalDomainError as e:
        print(f"numeric-domain error: {e}", file=sys.stderr)
        return 3
    except (InternalError, SprayDiracError) as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 4
    except Exception as e:  # noqa: BLE001 -- exit-code contract wants 4 here
        print(f"internal error: {e!r}", file=sys.stderr)
        return 4
    finally:
        # the kernel memo lives for one command
        clear_caches()

    rep["timing_ms"] = round((time.perf_counter() - t0) * 1e3, 1)
    rep = rpt.normalize(rep)
    body = rpt.to_json(rep) if args.json else rpt.to_text(rep)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)
    return 0


if __name__ == "__main__":
    sys.exit(main())
