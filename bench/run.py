"""spraydirac benchmark: one workload per run, checked and timed.

    python3 bench/run.py --workload symbolic|flow|certify|all --seed N
                         [--seconds S] [--trace 0|1]

Run from the repository root.  The package is imported from ./src, so
nothing needs installing.  Steps of one run:

1. write the workload's problem files (gen.py) into a scratch directory and
   check them against the pool digest in expected.json;
2. time `setup_s`: fresh interpreters that import spraydirac.cli and load one
   of the run's files (median of SETUP_REPEATS);
3. run the seed-selected jobs in one fresh worker process (worker.py):
   `wall_s`, `job_ms_p50`, `job_ms_p90` and its `peak_rss_mb`.  Times are
   normalized by a calibration loop run between jobs, since the speed of a
   shared machine drifts; raw times are kept in the record;
4. with --trace 1, run the same jobs again in a fresh worker with spans
   around the package's public functions (spans.py), and report the
   per-layer metrics instead;
5. check every job's exit code and report digest against expected.json and
   the answers known without running the program.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Every run also writes .bench_results/<workload>-<seed>-<trace>.json
with the environment record and per-job results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
from worker import CAL_REF_MS, calibrations  # noqa: E402

WORKLOADS = ("symbolic", "flow", "certify")
SETUP_REPEATS = 7
WORKER_TIMEOUT_S = 150
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_CODE = ("import sys\nfrom spraydirac.cli import load_problem_file\n"
              "load_problem_file(sys.argv[1])\n")


class BenchError(Exception):
    """The benchmark could not run (missing sources, a crashed worker)."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in BLAS_VARS:
        env[var] = "1"
    return env


def environment() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    src = hashlib.sha256()
    for p in sorted((ROOT / "src" / "spraydirac").glob("*.py")):
        src.update(p.name.encode() + b"\0" + p.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_threads": {v: "1" for v in BLAS_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
    }


def spawn(argv: list[str], cwd: Path, env: dict) -> subprocess.CompletedProcess:
    try:
        return subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[1:3]} ran longer than {WORKER_TIMEOUT_S} s") from exc


def setup_seconds(work: Path, file: str, env: dict) -> tuple[float, float]:
    """Median wall time of fresh processes that import the CLI and load a
    file: normalized by the calibrations around each (see worker.py), and raw."""
    raw, norm = [], []
    cal = calibrations()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = spawn([sys.executable, "-c", SETUP_CODE, file], work, env)
        raw.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"set-up process failed: {proc.stderr[-500:]}")
        cal_after = calibrations()
        norm.append(raw[-1] * CAL_REF_MS / statistics.median(cal + cal_after))
        cal = cal_after
    return statistics.median(norm), statistics.median(raw)


def run_worker(work: Path, jobs: list[gen.Job], env: dict, traced: bool) -> dict:
    tag = "traced" if traced else "plain"
    jobs_file, out_file = work / f"jobs-{tag}.json", work / f"out-{tag}.json"
    jobs_file.write_text(json.dumps([
        {"command": j.command, "file": j.file, "checks": [list(c) for c in j.checks]}
        for j in jobs]), encoding="utf-8")
    argv = [sys.executable, str(BENCH / "worker.py"), jobs_file.name, out_file.name]
    proc = spawn(argv + (["--trace"] if traced else []), work, env)
    if proc.returncode != 0:
        raise BenchError(f"{tag} worker failed: {proc.stderr[-2000:]}")
    return json.loads(out_file.read_text(encoding="utf-8"))


def job_errors(job: gen.Job, res: dict, expected: dict) -> list[str]:
    """Why a job's result is wrong; empty when it is right."""
    errs = []
    exp = expected.get(job.key)
    if exp is None:
        return [f"{job.key}: no expected result recorded"]
    if res["exit"] != job.exit or res["exit"] != exp["exit"]:
        errs.append(f"{job.key}: exit {res['exit']}, expected {job.exit} "
                    f"({res['stderr'].strip()[:200]})")
    if res["aborted"]:
        errs.append(f"{job.key}: {res['aborted']} trajectories aborted")
    if res["digest"] != exp["sha256"]:
        errs.append(f"{job.key}: report digest {res['digest'][:12]} differs "
                    f"from the recorded {exp['sha256'][:12]}")
    for path, want in job.checks:
        got = res["values"].get(path)
        if got != (list(want) if isinstance(want, tuple) else want):
            errs.append(f"{job.key}: {path} = {got!r}, expected {want!r}")
    return errs


def probe_known_failure(work: Path, job: gen.Job, env: dict) -> dict:
    """Run a recorded defect as a user would, outside the timed jobs."""
    proc = spawn([sys.executable, "-m", "spraydirac.cli", job.command, job.file, "--json"],
                 work, env)
    state = ("fixed" if proc.returncode == job.exit
             else "known" if proc.returncode == 4 else "changed")
    return {"job": job.key, "exit": proc.returncode, "expected_exit": job.exit,
            "state": state, "defect": job.known_failure,
            "stderr": proc.stderr.strip()[-300:]}


def quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def write_pool(work: Path, workload: str, demos: dict[str, str]) -> dict[str, str]:
    """Write every problem file the workload can use into a fresh `work`."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    files = gen.pool(workload, demos)
    for name, text in files.items():
        (work / name).write_text(text, encoding="utf-8")
    return files


def run(workload: str, seed: int, seconds: float, traced: bool) -> tuple[dict, dict]:
    src = ROOT / "src" / "spraydirac" / "cli.py"
    demo_dir = ROOT / "demos" / "problems"
    if not src.is_file() or not demo_dir.is_dir():
        raise BenchError(f"run from a spraydirac checkout: {src} or {demo_dir} is missing")
    demos = gen.read_demos(demo_dir)
    expected_all = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))
    expected = expected_all["jobs"][workload]
    env = child_env()

    work = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    try:
        files = write_pool(work, workload, demos)
        errors = []   # whole-run problems
        if gen.pool_digest(files) != expected_all["pools"][workload]:
            errors.append("generated problem files differ from the recorded pool")
        selected = gen.select_jobs(workload, demos, seed, seconds)
        jobs = [j for j in selected if not j.known_failure]
        probes = [j for j in selected if j.known_failure]

        setup_s, raw_setup_s = setup_seconds(work, next(j.file for j in jobs if j.exit == 0), env)
        plain = run_worker(work, jobs, env, traced=False)
        job_errs = {}
        for job, res in zip(jobs, plain["jobs"]):
            job_errs[job.key] = job_errors(job, res, expected)
        known = [probe_known_failure(work, j, env) for j in probes]
        errors += [f"{k['job']}: exit {k['exit']}, neither the recorded defect nor "
                   f"the correct answer" for k in known if k["state"] == "changed"]
        layers = None
        if traced:
            tr = run_worker(work, jobs, env, traced=True)
            for job, a, b in zip(jobs, plain["jobs"], tr["jobs"]):
                if a["digest"] != b["digest"] or a["exit"] != b["exit"]:
                    job_errs[job.key].append(f"{job.key}: traced report differs from untraced")
            layers = tr["layers"]
            layers["trace.overhead_frac"] = tr["wall_s"] / plain["wall_s"] - 1.0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for e in job_errs.values() if e)
    errors += [e for errs in job_errs.values() for e in errs]
    ms = [r["norm_ms"] for r in plain["jobs"]]
    e2e = {
        "setup_s": (setup_s, "s"),
        "wall_s": (plain["wall_s"], "s"),
        "job_ms_p50": (statistics.median(ms), "ms"),
        "job_ms_p90": (quantile(ms, 9), "ms"),
        "peak_rss_mb": (plain["peak_rss_mb"], "MB"),
    }
    result = {
        "correct": not errors,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": ({k: {"value": v, "unit": unit_of(k)} for k, v in layers.items()}
                    if traced else {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}),
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": traced,
        "environment": environment(),
        "end_to_end": {k: v for k, (v, _) in e2e.items()},
        "raw": {"setup_s": raw_setup_s, "wall_s": plain["raw_wall_s"],
                "job_ms_p50": statistics.median(r["ms"] for r in plain["jobs"]),
                "job_ms_p90": quantile([r["ms"] for r in plain["jobs"]], 9),
                "calibration_ms": statistics.median(c for r in plain["jobs"] for c in r["cal_ms"]),
                "calibration_ref_ms": CAL_REF_MS},
        "failed_frac": result["failed"] / len(jobs),
        "known_failures": known,
        "errors": errors,
        "layers": layers,
        "jobs": plain["jobs"], "cal_end_ms": plain["cal_end_ms"],
    }
    return result, record


def unit_of(metric: str) -> str:
    if metric.endswith("_ms") or metric.endswith(".ms"):
        return "ms"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("us_per_step"):
        return "us"
    if metric.endswith("_frac"):
        return "ratio"
    return "count"


def summary(workload: str, result: dict, record: dict) -> list[str]:
    e, r = record["end_to_end"], record["raw"]
    lines = [
        f"[{workload}] seed {record['seed']}: {result['attempted']} jobs, "
        f"failed_frac {result['failed']}/{result['attempted']} = {record['failed_frac']:.4f}",
        f"[{workload}] setup_s {e['setup_s']:.3f} s  wall_s {e['wall_s']:.3f} s  "
        f"job_ms_p50 {e['job_ms_p50']:.2f} ms  job_ms_p90 {e['job_ms_p90']:.2f} ms "
        f"(n={result['attempted']})  peak_rss_mb {e['peak_rss_mb']:.1f} MB",
        f"[{workload}] unnormalized: setup_s {r['setup_s']:.3f} s  wall_s {r['wall_s']:.3f} s  "
        f"calibration {r['calibration_ms']:.3f} ms (reference {r['calibration_ref_ms']} ms)",
    ]
    for k in record["known_failures"]:
        lines.append(f"[{workload}] known failure ({k['state']}): {k['job']} exits "
                     f"{k['exit']}, correct is {k['expected_exit']}: {k['defect']}")
    lines += [f"[{workload}] error: {err}" for err in record["errors"][:20]]
    return lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=gen.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for workload in (WORKLOADS if args.workload == "all" else (args.workload,)):
        try:
            result, record = run(workload, args.seed, args.seconds, bool(args.trace))
        except (BenchError, OSError, KeyError, ValueError) as exc:
            print(f"benchmark could not run: {exc!r}", file=sys.stderr)
            return 2
        out = ROOT / ".bench_results" / f"{workload}-{args.seed}-{args.trace}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(record, indent=1), encoding="utf-8")
        print("\n".join(summary(workload, result, record)))
        if args.trace:
            for k, v in result["metrics"].items():
                print(f"[{workload}] {k} = {v['value']:.6g} {v['unit']}")
        print("environment: " + json.dumps(record["environment"]))
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
