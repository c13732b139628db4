"""Batch front end: run scenarios, compare guidance conditions, sweep
parameters, and persist traces/metrics/reports as plain CSV and JSON.

Verbs:
    run       execute the scenario for each requested seed/condition
    compare   run both conditions over the seed list and report percent
              differences of the metrics averaged over the seeds whose two
              runs both completed
    sweep     rerun while varying one numeric config field over a value list
    validate  check a scenario file and exit

Exit codes: 0 everything completed, 1 simulation fault or incomplete run,
2 configuration error. Output files never embed timestamps, so identical
manifests produce identical bytes; diagnostics go to stderr (GDS_LOG=info
or debug raises verbosity).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import statistics
import sys
from typing import List, NamedTuple, Optional, Tuple

from . import tracewriter
from .config import load_scenario
from .engine import run as run_scenario
from .errors import ConfigError, SimulationFault
from .metrics import METRIC_FIELDS, Metrics, compare, compute_metrics, mean_metrics

log = logging.getLogger("gds")

EXIT_OK = 0
EXIT_SIM_FAULT = 1
EXIT_CONFIG = 2


def _setup_logging() -> None:
    level = os.environ.get("GDS_LOG", "warning").lower()
    numeric = {"debug": logging.DEBUG, "info": logging.INFO, "warning": logging.WARNING}.get(
        level, logging.WARNING
    )
    logging.basicConfig(stream=sys.stderr, level=numeric, format="gds %(levelname)s: %(message)s")


def _parse_seeds(text: str) -> List[int]:
    try:
        seeds = [int(s) for s in text.split(",") if s.strip() != ""]
    except ValueError:
        raise ConfigError(f"seeds must be a comma-separated integer list, got {text!r}", "seeds")
    if not seeds:
        raise ConfigError("at least one seed required", "seeds")
    if len(set(seeds)) != len(seeds):
        raise ConfigError("seeds must be distinct", "seeds")
    return seeds


def _conditions(selector: str) -> List[str]:
    if selector == "both":
        return ["with", "without"]
    return [selector]


def _run_session(scenario, out_dir: Optional[str], emit_trace: bool, writer):
    """Run one resolved scenario and compute its metrics: the only place a
    session runs. Given ``out_dir``, write its trace.csv (if ``emit_trace``),
    metrics.json and events.json under ``<out_dir>/<condition>/seed_<n>/``;
    ``writer``, the verb's ``tracewriter.TraceWriter`` if it has one, takes
    the trace's blocks as they fill and encodes trace.csv. Return the
    metrics and the final (time, kind) event."""
    condition, seed = scenario.condition, scenario.operator.seed
    trace = run_scenario(scenario, stream=writer)
    log.info(
        "%s/seed %d: %d samples, %d events, complete=%s, config digest %s",
        condition, seed, len(trace), len(trace.events), trace.complete, trace.config_digest,
    )
    metrics = compute_metrics(trace, scenario.targets, scenario.tool_axis_local)
    if out_dir is not None:
        run_dir = os.path.join(out_dir, condition, f"seed_{seed}")
        os.makedirs(run_dir, exist_ok=True)
        if emit_trace:
            trace.to_csv(os.path.join(run_dir, "trace.csv"))
        _write_json(os.path.join(run_dir, "metrics.json"), metrics.to_dict())
        _write_json(os.path.join(run_dir, "events.json"), trace.summary())
    return metrics, trace.events[-1]


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _summary_line(condition: str, seed: int, metrics, final_event) -> str:
    """One run's stdout line; an incomplete run names its final event."""
    t, kind = final_event
    status = "complete" if metrics.complete else f"INCOMPLETE ({kind} at {t:.3f} s)"
    return (
        f"run condition={condition} seed={seed}: "
        f"t_tot={metrics.t_tot:.3f}s e_total={metrics.e_total:.3f}J "
        f"eps_phi={metrics.eps_phi_avg:.4f}deg eps_theta={metrics.eps_theta_avg:.4f}deg "
        f"{status}"
    )


class Session(NamedTuple):
    """One finished session, as ``_run_sessions`` returns it."""

    override: Optional[Tuple[str, float]]
    condition: str
    seed: int
    metrics: Metrics
    final_event: Tuple[float, str]


def _check_out(out: str) -> None:
    """Refuse an output directory that cannot be made: the path, or its
    nearest existing ancestor, is there but is not a directory."""
    path = os.path.abspath(out)
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise ConfigError(f"not a directory: {path}", "out")


def _resolve(path: str, conditions=(None,), seeds=(None,), overrides=(None,)) -> list:
    """Resolve ``path`` for every (override, condition, seed), in that
    order, with one surface cache; ``None`` keeps the document's own."""
    surfaces = {}
    return [
        (override, condition, seed, load_scenario(
            path, condition=condition, seed=seed, surfaces=surfaces, override=override
        ))
        for override in overrides
        for condition in conditions
        for seed in seeds
    ]


def _run_sessions(
    path: str, conditions, seeds, overrides=(None,), out=None, session_files=False,
    emit_trace=False,
) -> List[Session]:
    """The one session loop of every verb. Resolve every session and check
    ``out``, the verb's output directory, before the first session runs, so
    a bad seed, sweep value or output path writes nothing; then run each
    (with ``session_files``, writing its files under ``out``) and print its
    summary line, prefixed with ``sweep <param>=<value>`` under an
    override. Return the sessions in (override, condition, seed) order: a
    list, so a value swept twice keeps both rows.

    A verb that writes traces (``session_files`` and ``emit_trace``) owns
    one ``tracewriter.TraceWriter`` on a host with more than one usable
    CPU: one helper process, started before the first session and stopped
    after the last or on any exception, that encodes each trace.csv while
    the sessions run, with bytes unchanged. ``--no-trace``, ``sweep`` and a
    one-CPU host start none."""
    sessions = []
    resolved = _resolve(path, conditions, seeds, overrides)
    if out is not None:
        _check_out(out)
    out_dir = out if session_files else None
    writer = tracewriter.start() if out_dir is not None and emit_trace else None
    try:
        for override, condition, seed, scenario in resolved:
            metrics, final_event = _run_session(scenario, out_dir, emit_trace, writer)
            line = _summary_line(condition, seed, metrics, final_event)
            if override is not None:
                param, value = override
                line = f"sweep {param}={value:.9g} {line}"
            print(line)
            sessions.append(Session(override, condition, seed, metrics, final_event))
    finally:
        if writer is not None:
            writer.close()
    return sessions


def _exit_code(sessions: List[Session]) -> int:
    return EXIT_OK if all(s.metrics.complete for s in sessions) else EXIT_SIM_FAULT


def cmd_run(args) -> int:
    return _exit_code(_run_sessions(
        args.scenario, _conditions(args.condition), _parse_seeds(args.seeds),
        out=args.out, session_files=True, emit_trace=not args.no_trace,
    ))


def cmd_compare(args) -> int:
    """Report over the seeds whose two conditions both completed. If any
    run is incomplete, the report is ``partial`` and names those
    ``paired_seeds`` and the ``incomplete`` runs."""
    seeds = _parse_seeds(args.seeds)
    sessions = _run_sessions(
        args.scenario, ("with", "without"), seeds,
        out=args.out, session_files=True, emit_trace=not args.no_trace,
    )
    incomplete = [
        {"condition": s.condition, "seed": s.seed, "final_event": s.final_event[1],
         "t": s.final_event[0]}
        for s in sessions if not s.metrics.complete
    ]
    n = len(seeds)
    paired = [
        (w, wo) for w, wo in zip(sessions[:n], sessions[n:])
        if w.metrics.complete and wo.metrics.complete
    ]
    payload = {"seeds": seeds, "partial": bool(incomplete)}
    if incomplete:
        payload.update(paired_seeds=[w.seed for w, _ in paired], incomplete=incomplete)
    if paired:
        runs = {"with": [w.metrics for w, _ in paired], "without": [wo.metrics for _, wo in paired]}
        avg_with = mean_metrics(runs["with"])
        avg_without = mean_metrics(runs["without"])
        payload["with"], payload["without"] = avg_with.to_dict(), avg_without.to_dict()
        payload["percent_diff"] = percent_diff = compare(avg_with, avg_without)
        if len(paired) > 1:
            payload["std"] = {
                cond: {
                    name: statistics.stdev(getattr(m, name) for m in ms)
                    for name in METRIC_FIELDS
                }
                for cond, ms in runs.items()
            }
        for name in METRIC_FIELDS:
            diff = percent_diff[name]
            print(f"compare {name}: {'undefined' if diff is None else f'{diff:+.2f}%'}")
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        _write_json(os.path.join(args.out, "comparison.json"), payload)
        if paired:
            with open(os.path.join(args.out, "comparison.csv"), "w") as fh:
                fh.write("metric,with,without,percent_diff\n")
                for name in METRIC_FIELDS:
                    w = getattr(avg_with, name)
                    wo = getattr(avg_without, name)
                    d = percent_diff[name]
                    fh.write(
                        f"{name},{w:.9g},{wo:.9g},{'' if d is None else f'{d:.9g}'}\n"
                    )
    return _exit_code(sessions)


def cmd_sweep(args) -> int:
    seeds = _parse_seeds(args.seeds)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip() != ""]
    except ValueError:
        raise ConfigError(
            f"values must be a comma-separated number list, got {args.values!r}", "values"
        )
    if not values:
        raise ConfigError("sweep needs at least one value", "values")
    sessions = _run_sessions(
        args.scenario, _conditions(args.condition), seeds, [(args.param, v) for v in values],
        out=args.out,
    )
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "sweep.csv"), "w") as fh:
            fh.write("param,value,condition,seed," + ",".join(METRIC_FIELDS) + ",complete\n")
            for (param, value), condition, seed, m, _ in sessions:
                vals = ",".join(f"{getattr(m, name):.9g}" for name in METRIC_FIELDS)
                fh.write(f"{param},{value:.9g},{condition},{seed},{vals},{int(m.complete)}\n")
    return _exit_code(sessions)


def cmd_validate(args) -> int:
    _resolve(args.scenario)
    print(f"{args.scenario}: ok")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gds",
        description="Deterministic collaborative-drilling simulator and metrics harness.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p):
        p.add_argument("--scenario", required=True, help="scenario JSON path")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seeds", default="0", help="comma-separated seed list")

    def add_condition(p):
        p.add_argument(
            "--condition",
            default="with",
            choices=["with", "without", "both"],
            help="guidance condition selector",
        )

    def add_no_trace(p):
        p.add_argument("--no-trace", action="store_true", help="skip trace.csv output")

    p_run = sub.add_parser("run", help="execute runs and persist outputs")
    add_common(p_run)
    add_condition(p_run)
    add_no_trace(p_run)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="paired with/without comparison")
    add_common(p_cmp)
    add_no_trace(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_sweep = sub.add_parser("sweep", help="vary one config field over values")
    add_common(p_sweep)
    add_condition(p_sweep)
    p_sweep.add_argument("--param", required=True, help="dotted config field")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="validate a scenario file")
    p_val.add_argument("--scenario", required=True)
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SimulationFault as exc:
        print(f"simulation fault: {exc}", file=sys.stderr)
        return EXIT_SIM_FAULT


if __name__ == "__main__":
    sys.exit(main())
