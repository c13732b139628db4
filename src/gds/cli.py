"""Batch front end: run scenarios, compare guidance conditions, sweep
parameters, and persist traces/metrics/reports as plain CSV and JSON.

Verbs:
    run       execute the scenario for each requested seed/condition
    compare   run both conditions over the seed list and report percent
              differences of the averaged metrics
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
from typing import List, Optional

from .config import (
    apply_override,
    canonical_config,
    load_scenario,
    read_scenario_file,
    scenario_from_config,
)
from .engine import run as run_scenario
from .errors import ConfigError, SimulationFault
from .metrics import METRIC_FIELDS, compare, compute_metrics, mean_metrics

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


def _run_session(scenario, out_dir: Optional[str], emit_trace: bool):
    """Run one resolved scenario and compute its metrics: the only place a
    session runs. Given ``out_dir``, write its trace.csv (if ``emit_trace``),
    metrics.json and events.json under ``<out_dir>/<condition>/seed_<n>/``."""
    condition, seed = scenario.condition, scenario.operator.seed
    trace = run_scenario(scenario)
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
    return metrics


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _summary_line(condition: str, seed: int, metrics) -> str:
    return (
        f"run condition={condition} seed={seed}: "
        f"t_tot={metrics.t_tot:.3f}s e_total={metrics.e_total:.3f}J "
        f"eps_phi={metrics.eps_phi_avg:.4f}deg eps_theta={metrics.eps_theta_avg:.4f}deg "
        f"{'complete' if metrics.complete else 'INCOMPLETE'}"
    )


def _run_seeds(args, conditions, seeds) -> dict:
    """Resolve ``args.scenario`` per condition and seed, run each session and
    print its summary line; return the metrics per condition in seed order."""
    per_condition = {}
    surfaces = {}
    for condition in conditions:
        runs = per_condition[condition] = []
        for seed in seeds:
            scenario = load_scenario(
                args.scenario, condition=condition, seed=seed, surfaces=surfaces
            )
            runs.append(_run_session(scenario, args.out, not args.no_trace))
            print(_summary_line(condition, seed, runs[-1]))
    return per_condition


def _all_complete(per_condition: dict) -> bool:
    return all(m.complete for runs in per_condition.values() for m in runs)


def cmd_run(args) -> int:
    per_condition = _run_seeds(args, _conditions(args.condition), _parse_seeds(args.seeds))
    return EXIT_OK if _all_complete(per_condition) else EXIT_SIM_FAULT


def cmd_compare(args) -> int:
    seeds = _parse_seeds(args.seeds)
    per_condition = _run_seeds(args, ("with", "without"), seeds)
    complete = _all_complete(per_condition)
    payload = {"seeds": seeds, "partial": not complete}
    if complete:
        avg_with = mean_metrics(per_condition["with"])
        avg_without = mean_metrics(per_condition["without"])
        report = compare(avg_with, avg_without)
        payload.update(report.to_dict())
        if len(seeds) > 1:
            payload["std"] = {
                cond: {
                    name: statistics.stdev(getattr(m, name) for m in runs)
                    for name in METRIC_FIELDS
                }
                for cond, runs in per_condition.items()
            }
        for name in METRIC_FIELDS:
            diff = report.percent_diff[name]
            print(f"compare {name}: {'undefined' if diff is None else f'{diff:+.2f}%'}")
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        _write_json(os.path.join(args.out, "comparison.json"), payload)
        if complete:
            with open(os.path.join(args.out, "comparison.csv"), "w") as fh:
                fh.write("metric,with,without,percent_diff\n")
                for name in METRIC_FIELDS:
                    w = getattr(avg_with, name)
                    wo = getattr(avg_without, name)
                    d = report.percent_diff[name]
                    fh.write(
                        f"{name},{w:.9g},{wo:.9g},{'' if d is None else f'{d:.9g}'}\n"
                    )
    return EXIT_OK if complete else EXIT_SIM_FAULT


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
    raw = read_scenario_file(args.scenario)
    base_dir = os.path.dirname(os.path.abspath(args.scenario))
    surfaces = {}
    rows = []
    for value in values:
        overridden = apply_override(raw, args.param, value)
        for condition in _conditions(args.condition):
            for seed in seeds:
                cfg = canonical_config(overridden, condition=condition, seed=seed)
                scenario = scenario_from_config(cfg, base_dir, surfaces)
                metrics = _run_session(scenario, None, False)
                rows.append((value, condition, seed, metrics))
                print(f"sweep {args.param}={value:g} " + _summary_line(condition, seed, metrics))
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "sweep.csv"), "w") as fh:
            fh.write("param,value,condition,seed," + ",".join(METRIC_FIELDS) + ",complete\n")
            for value, condition, seed, m in rows:
                vals = ",".join(f"{getattr(m, name):.9g}" for name in METRIC_FIELDS)
                fh.write(
                    f"{args.param},{value:.9g},{condition},{seed},{vals},{int(m.complete)}\n"
                )
    return EXIT_OK if all(m.complete for *_, m in rows) else EXIT_SIM_FAULT


def cmd_validate(args) -> int:
    load_scenario(args.scenario)
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
