"""Record expected.json: the pool digest and, for every job a workload can
run, its exit code and report sha256 (timing_ms removed).

    python3 bench/record.py [symbolic flow certify]

Run from the repository root on the commit whose reports are the reference.
Refuses to record when an exit code or an answer known without running the
program (gen.py's checks) comes out wrong, or when a trajectory aborts.
Jobs marked as known failures are left out; run.py probes them separately.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import BENCH, ROOT, WORKLOADS, child_env, job_errors, run_worker, write_pool

import gen


def record(workload: str) -> tuple[str, dict]:
    demos = gen.read_demos(ROOT / "demos" / "problems")
    work = ROOT / ".bench_work" / f"record-{workload}-{os.getpid()}"
    try:
        files = write_pool(work, workload, demos)
        if gen.pool(workload, demos) != files:
            raise SystemExit(f"{workload}: the generator is not deterministic")
        jobs = [j for j in gen.select_jobs(workload, demos, None) if not j.known_failure]
        out = run_worker(work, jobs, child_env(), traced=False)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    expected = {r["key"]: {"exit": r["exit"], "sha256": r["digest"]} for r in out["jobs"]}
    bad = [e for job, r in zip(jobs, out["jobs"]) for e in job_errors(job, r, expected)]
    if bad:
        raise SystemExit(f"{workload}: not recording, wrong answers:\n" + "\n".join(bad))
    print(f"{workload}: {len(jobs)} jobs, {out['wall_s']:.1f} s")
    return gen.pool_digest(files), expected


def main() -> int:
    path = BENCH / "expected.json"
    doc = (json.loads(path.read_text(encoding="utf-8")) if path.exists()
           else {"pools": {}, "jobs": {}})
    for workload in sys.argv[1:] or WORKLOADS:
        doc["pools"][workload], doc["jobs"][workload] = record(workload)
    doc["known_failures"] = sorted(
        {j.key: j.known_failure for w in WORKLOADS for j in gen.fixed_jobs(w)
         if j.known_failure}.items())
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
