"""Run one list of jobs through spraydirac.cli.main in this process.

Usage: python3 worker.py JOBS.json OUT.json [--trace]

Run from the directory holding the problem files; the launcher puts the
package on PYTHONPATH and pins BLAS to one thread.  Each job is one
``spraydirac <command> <file> --json`` call.  OUT.json gets, per job, the
wall time, the calibrations taken before it (see `calibrate`) and the
normalized time derived from them, the number of aborted trajectories, exit code, sha256 of the report
without its ``timing_ms`` field and the report values the job's checks name;
plus the peak resident memory of this process and, with --trace, the
per-layer metrics.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from fractions import Fraction

# calibrate() on the machine the baselines in baseline.json come from, at
# its fast speed; normalized times are expressed at this speed.
CAL_REF_MS = 0.7
CAL_BURST = 5       # calibrations between two jobs


def calibrate() -> float:
    """Time of one run of a fixed interpreter-bound loop, in ms.

    A shared machine's speed drifts: this loop took from 0.7 to 1.3 ms
    within one minute on the machine baseline.json comes from.  Dividing a
    job's time by the median calibration just before and after it, times
    CAL_REF_MS, removes most of that drift.  The loop does what a symbolic
    kernel does (tuple keys, dict updates, Fraction arithmetic): its time
    tracks the jobs' times more closely than a plain integer loop does.
    """
    t0 = time.perf_counter()
    table: dict = {}
    acc = Fraction(0)
    for i in range(300):
        key = (i & 31, ("x", i % 7), (i * 3) & 15)
        table[key] = table.get(key, 0) + 1
        acc += Fraction(i % 11 + 1, i % 5 + 1)
    return (time.perf_counter() - t0) * 1e3


def calibrations(n: int = CAL_BURST) -> list[float]:
    return [calibrate() for _ in range(n)]


def normalized_ms(results: list[dict], cal_end: list[float]) -> list[float]:
    """Each job's wall time over the median calibration before and after
    it, in CAL_REF_MS units."""
    cals = [r["cal_ms"] for r in results] + [cal_end]
    return [r["ms"] * CAL_REF_MS / statistics.median(cals[k] + cals[k + 1])
            for k, r in enumerate(results)]


def report_digest(body: str) -> tuple[str, dict | None]:
    """sha256 of the JSON report with timing_ms removed, and the report."""
    if not body:
        return "", None
    rep = json.loads(body)
    rep.pop("timing_ms", None)
    return hashlib.sha256(json.dumps(rep, indent=2).encode()).hexdigest(), rep


def lookup(rep, path: str):
    """Value at a dotted path; `*` maps over a list."""
    head, _, rest = path.partition(".")
    if head == "*":
        return [lookup(v, rest) if rest else v for v in rep]
    if not isinstance(rep, dict) or head not in rep:
        return None
    return lookup(rep[head], rest) if rest else rep[head]


def aborted_runs(rep) -> int:
    """Trajectories of an integrate or verify report that stopped early."""
    if not rep:
        return 0
    runs = rep.get("trajectories") or (rep.get("drift") or {}).get("runs") or []
    return sum(1 for r in runs if r["aborted"])


def run_jobs(jobs: list[dict], main, tracer=None) -> list[dict]:
    results = []
    for k, job in enumerate(jobs):
        out, err = io.StringIO(), io.StringIO()
        argv = [job["command"], job["file"], "--json"]
        cal = calibrations()
        if tracer is not None:
            tracer.job_id = k
            root = tracer.open(f"cli.{job['command']}")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            rc = main(argv)
            ms = (time.perf_counter() - t0) * 1e3
        if tracer is not None:
            tracer.close(root)
        digest, rep = report_digest(out.getvalue())
        results.append({
            "key": f"{job['command']} {job['file']}", "ms": ms,
            "cal_ms": cal, "exit": rc, "digest": digest,
            "stderr": err.getvalue()[-300:], "aborted": aborted_runs(rep),
            "values": {p: lookup(rep, p) for p, _ in job["checks"]} if rep else {},
        })
    return results


def main() -> int:
    jobs_path, out_path = sys.argv[1], sys.argv[2]
    traced = "--trace" in sys.argv[3:]
    with open(jobs_path, encoding="utf-8") as fh:
        jobs = json.load(fh)
    from spraydirac.cli import main as cli_main

    tracer = None
    if traced:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        results = run_jobs(jobs, cli_main, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    cal_end = calibrations()
    for r, n in zip(results, normalized_ms(results, cal_end)):
        r["norm_ms"] = n
    doc = {
        "jobs": results,
        "raw_wall_s": sum(r["ms"] for r in results) / 1e3,
        "wall_s": sum(r["norm_ms"] for r in results) / 1e3,
        "cal_end_ms": cal_end,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        # per-layer times on the same base as wall_s
        doc["layers"] = tracer.metrics(doc["wall_s"], doc["wall_s"] / doc["raw_wall_s"])
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
