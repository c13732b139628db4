"""gds benchmark: host time per simulated drilling session.

Run from the root of a checkout:

    python3 perfbench/run.py --workload guided_sim --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): ``guided_sim``, ``compare_cli``,
``mesh_guided``. One process, one thread, numpy's BLAS pinned to one
thread; jobs run back to back (a closed loop with one client).

A run measures set-up time in fresh interpreters, runs the workload's fixed
check job once as the untimed warm-up and compares it with
``reference.json``, then runs seed-drawn jobs until ``--seconds`` have
passed. Every job goes through the correctness gate in checks.py.

With ``--trace 0`` it reports the end-to-end metrics. Host times are given
in reference seconds: host seconds scaled by the interpreter speed sampled
during the measured work (calibrate.py), because the speed of interpreted
code on a shared host drifts by about 20 %; the raw host figures are
printed on the summary line. With ``--trace 1`` it wraps every layer's
entry points (tracer.py) after the warm-up and reports per-layer metrics,
in raw host seconds, as means per timed job, writing all spans to
``.perfbench_out/spans-<workload>.npz``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import types
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5  # probes before and again after the timed jobs
PROBE_TIMEOUT_S = 60


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_gds():
    """Import the program from this checkout's ``src`` (never from anywhere
    else on the path) and return its modules as a namespace."""
    if not os.path.isfile(os.path.join(SRC, "gds", "__init__.py")):
        raise ImportError(f"no gds sources under {SRC}")
    sys.path.insert(0, SRC)
    import gds
    import gds.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(gds.__file__))) != SRC:
        raise ImportError(f"gds imported from {gds.__file__}, not from {SRC}")
    return types.SimpleNamespace(
        **{name: getattr(gds, name) for name in (
            "cli", "config", "engine", "guidance", "metrics",
            "operator_env", "presets", "workpiece",
        )}
    )


def setup_ref_seconds(scenario_file: str) -> float:
    """One set-up in a fresh interpreter, in reference seconds (see
    setup_probe.py)."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC, scenario_file],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(out.stdout.split()[-1])


class Outcome(NamedTuple):
    host_s: float  # host seconds of the job
    ref_s: float  # the same, scaled to the calibration reference speed
    sim_s: float  # simulated seconds of all its sessions
    failures: list
    checksum_matches: int
    sessions: list  # kept only for the check job


def run_checked(workload, job, gds, reference=None, traced=False) -> Outcome:
    """Run one job while sampling the interpreter speed, then its checks.
    ``reference`` (the check job's rows of reference.json) adds the drift
    check and keeps the sessions; otherwise the traces are dropped here so
    that memory does not grow with the job count. A traced job is sampled
    only before and after, so that no sample lands inside its spans."""
    from calibrate import Sampler, reference_seconds
    from checks import check_reference, check_session

    try:
        with Sampler(periodic=not traced) as speed:
            result = workload.run_job(job)
        host_s = result.host_s - speed.overhead_s
        failures = list(result.failures)
        for s in result.sessions:
            failures += check_session(s, gds.guidance.GuidancePhase)
        sim_s = sum(len(s.trace) * s.trace.dt for s in result.sessions)
        matches = 0
        if reference is not None:
            for s in result.sessions:
                if s.checksum is None:
                    s.checksum = s.trace.checksum()
            ref_failures, matches = check_reference(result.sessions, reference)
            failures += ref_failures
        sessions = result.sessions if reference is not None else []
        return Outcome(host_s, reference_seconds(host_s, speed.samples), sim_s, failures,
                       matches, sessions)
    except Exception:  # a job that raises is a failed job; the run goes on
        return Outcome(0.0, 0.0, 0.0, [traceback.format_exc()], 0, [])


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    try:
        gds = import_gds()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    from checks import load_reference
    from tracer import Tracer, install, layer_metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    workload = restore = None
    failures = []
    try:
        workload = WORKLOADS[args.workload](gds, workdir, args.seed)
        check = workload.check_job()
        setup_file = workload.scenario_file(check)
        setup = [setup_ref_seconds(setup_file) for _ in range(SETUP_REPEATS)]

        # warm-up: the fixed check job, compared with the reference table, never timed
        warm = run_checked(workload, check, gds, load_reference()[args.workload])
        failures += warm.failures
        attempted, failed = 1, int(bool(warm.failures))
        match_frac = warm.checksum_matches / max(1, len(warm.sessions))
        mesh_triangles = sum(len(getattr(s.scenario.surface, "triangles", ())) for s in warm.sessions)
        warm = warm._replace(sessions=[])

        tracer = None
        if args.trace:
            tracer = Tracer()
            restore = install(tracer, gds)

        jobs = []
        timed = 0
        t_phase = time.perf_counter()
        while timed == 0 or time.perf_counter() - t_phase < args.seconds:
            timed += 1
            if tracer:
                tracer.job_id = timed
            job = run_checked(workload, workload.next_job(), gds, traced=bool(tracer))
            attempted += 1
            if job.failures:
                failed += 1
                failures += job.failures
            else:
                jobs.append(job)
        # half the set-up probes at the end, so that a run's median spans
        # two moments of the host's speed regimes
        setup += [setup_ref_seconds(setup_file) for _ in range(SETUP_REPEATS)]
    finally:
        if restore:
            restore()
        if workload:
            workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    for message in failures:
        print(f"perfbench: FAILED {message}", file=sys.stderr)
    if not jobs:
        print("perfbench: no job completed", file=sys.stderr)
        return 1
    host = sum(j.host_s for j in jobs)
    ref = sum(j.ref_s for j in jobs)
    sim = sum(j.sim_s for j in jobs)

    if tracer:
        tracer.job_id = -1
        tracer.write(os.path.join(ROOT, ".perfbench_out", f"spans-{args.workload}.npz"))
        metrics = layer_metrics(tracer, timed)
        metrics["engine.checksum_match_frac"] = (match_frac, "ratio")
        metrics["workpiece.mesh_triangles"] = (mesh_triangles, "count")
        # host time per simulated second, traced timed jobs against the untraced warm-up
        metrics["trace_overhead_frac"] = ((host / sim) / (warm.host_s / warm.sim_s) - 1.0, "ratio")
    else:
        metrics = {
            "jobs_per_ref_s": (len(jobs) / ref, "1/s"),
            "job_ref_s_p50": (statistics.median(j.ref_s for j in jobs), "s"),
            "sim_s_per_ref_s": (sim / ref, "s/s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(jobs)} timed jobs, {attempted} attempted, {failed} failed "
          f"(failed_frac {failed / attempted:.4f} ratio)")
    print(f"  raw host time: jobs_per_s {len(jobs) / host:.6g} 1/s, "
          f"job_s_p50 {statistics.median(j.host_s for j in jobs):.6g} s, "
          f"sim_s_per_host_s {sim / host:.6g} s/s")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name:40s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
