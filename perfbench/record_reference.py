"""Record reference.json: the results of every workload's fixed check job at
the current commit.

    python3 perfbench/record_reference.py

Re-record only in a change that is meant to alter simulated results; every
benchmark run compares its check job with this table (see checks.py).
"""

import json
import os
import shutil
import sys

import run
from checks import REFERENCE_PATH, check_session, session_record
from workloads import WORKLOADS


def main() -> int:
    for var in run.BLAS_THREAD_VARS:
        os.environ[var] = "1"
    gds = run.import_gds()
    table = {}
    for name, cls in WORKLOADS.items():
        workdir = os.path.join(run.ROOT, ".perfbench_work", f"record-{name}-{os.getpid()}")
        os.makedirs(workdir)
        workload = cls(gds, workdir, 0)
        try:
            result = workload.run_job(workload.check_job())
        finally:
            workload.close()
            shutil.rmtree(workdir, ignore_errors=True)
        sessions = result.sessions
        failures = result.failures + [
            f for s in sessions for f in check_session(s, gds.guidance.GuidancePhase)
        ]
        if failures:
            print(f"{name}: check job failed, nothing recorded:\n" + "\n".join(failures),
                  file=sys.stderr)
            return 1
        for s in sessions:
            if s.checksum is None:
                s.checksum = s.trace.checksum()
        table[name] = [session_record(s) for s in sessions]
        print(f"{name}: {table[name]}")
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(table, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
