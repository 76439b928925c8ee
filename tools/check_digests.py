"""Check every recorded benchmark job against bench/expected.json.

    python3 tools/check_digests.py [symbolic flow certify]

Runs every job that any `bench/run.py --seed` can select (gen.select_jobs
with seed None), not only one seed's share: one `spraydirac <command> <file>
--json` call through spraydirac.cli.main per job, each workload in a fresh
child process with the benchmark's environment (run.child_env: BLAS pinned
to one thread).  A job passes when its exit code and the sha256 of its
report without timing_ms (worker.report_digest) equal the recorded ones.
Jobs marked as known failures are skipped, as bench/record.py skips them.
bench/ is only read.  Prints one line per workload and one per mismatch;
exits 1 on any mismatch.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos" / "problems"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import gen  # noqa: E402
from run import WORKLOADS, child_env  # noqa: E402
from worker import report_digest  # noqa: E402

from spraydirac.cli import main as cli_main  # noqa: E402


def run_jobs(workload: str) -> Iterator[tuple[gen.Job, int, str]]:
    """Run every recorded job of one workload that is not a known failure
    through spraydirac.cli.main, in this process, in a temporary directory
    holding the workload's pool; yield each job with its exit code and its
    standard output."""
    demos = gen.read_demos(DEMOS)
    files = gen.pool(workload, demos)
    jobs = [j for j in gen.select_jobs(workload, demos, None) if not j.known_failure]
    with tempfile.TemporaryDirectory() as work:
        for name, text in files.items():
            Path(work, name).write_text(text, encoding="utf-8")
        os.chdir(work)
        try:
            for job in jobs:
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    rc = cli_main([job.command, job.file, "--json"])
                yield job, rc, out.getvalue()
        finally:
            os.chdir(ROOT)


def mismatches(workload: str) -> list[str]:
    """Run every recorded job of one workload in this process."""
    recorded = json.loads((ROOT / "bench" / "expected.json").read_text(encoding="utf-8"))
    bad = []
    if gen.pool_digest(gen.pool(workload, gen.read_demos(DEMOS))) != recorded["pools"][workload]:
        bad.append(f"{workload}: generated problem files differ from the recorded pool")
    count = 0
    for count, (job, rc, out) in enumerate(run_jobs(workload), 1):
        digest, _ = report_digest(out)
        want = recorded["jobs"][workload][job.key]
        if (rc, digest) != (want["exit"], want["sha256"]):
            bad.append(f"{job.key}: exit {rc}, digest {digest[:12]}; recorded "
                       f"exit {want['exit']}, digest {want['sha256'][:12]}")
    print(f"{workload}: {count} jobs, {len(bad)} mismatched", flush=True)
    return bad


def main(argv: list[str]) -> int:
    if len(argv) == 1:
        bad = mismatches(argv[0])
        for line in bad:
            print(line)
        return 1 if bad else 0
    codes = [subprocess.run([sys.executable, __file__, w], env=child_env()).returncode
             for w in argv or WORKLOADS]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
