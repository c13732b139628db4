"""Correctness gate for every benchmark job.

A session fails if

- its trace is incomplete or timed out;
- ``f_int == f_h + f_env`` does not hold exactly, sample by sample;
- under guidance, an alignment error (polar or azimuth) is 1e-9 deg or more;
- under guidance, in ConstrainedDrill, the angular twist is not exactly zero
  or the linear twist has an off-axis component above the float-embedding
  floor of a skew axis (4e-16 |v|, the bound the repo's acceptance test C4
  uses; only axis-aligned axes can make it exactly zero);
- under guidance, an alignment window is not exactly
  ``align_duration / dt`` (4,000) samples for every target;
- on a check job, ``t_tot``, ``e_total`` or the mean alignment errors
  drift from ``reference.json`` by more than ``REL_TOL`` (relative) or
  ``ANGLE_TOL_DEG`` (absolute).

Exact agreement with the reference trace checksums is reported separately
and does not fail a job: an optimisation that reorders floating-point work
may change the last bits of a trace without changing its results.
"""

from __future__ import annotations

import json
import os

import numpy as np

EPS_GUIDED_DEG = 1e-9
OFF_AXIS_FLOOR = 4e-16
REL_TOL = 1e-3  # about one control period of t_tot (34 s of 1 ms steps)
ANGLE_TOL_DEG = 1e-3
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

_FORCE_COLS = ("x", "y", "z", "tx", "ty", "tz")


def _col(trace, name) -> np.ndarray:
    return np.frombuffer(trace.data[name], dtype=np.float64)


def _phase_mask(trace, phase) -> np.ndarray:
    """Samples in ``phase``, decoded through the trace's own ``phase_of``."""
    codes = np.frombuffer(trace.phase_codes, dtype=np.int32)
    mask = np.zeros(codes.shape, dtype=bool)
    for code in np.unique(codes):
        first = int(np.argmax(codes == code))
        if trace.phase_of(first) is phase:
            mask |= codes == code
    return mask


def check_session(session, phases) -> list:
    """Failures of one session; ``phases`` is ``gds.guidance.GuidancePhase``."""
    trace, scenario = session.trace, session.scenario
    name = session.condition
    failures = []
    if not trace.complete or trace.events_of_kind("timeout"):
        failures.append(f"{name}: trace incomplete or timed out")
    if not session.metrics["complete"]:
        failures.append(f"{name}: metrics flag the session incomplete")
    for c in _FORCE_COLS:
        if not np.array_equal(_col(trace, f"fint_{c}"), _col(trace, f"fh_{c}") + _col(trace, f"fenv_{c}")):
            failures.append(f"{name}: f_int != f_h + f_env in component {c}")
    if session.condition != "with":
        return failures

    worst = max((max(p) for p in session.metrics["per_target"]), default=float("nan"))
    if not worst < EPS_GUIDED_DEG:
        failures.append(f"{name}: guided alignment error {worst!r} deg")

    targets = np.frombuffer(trace.target_idx, dtype=np.int32)
    drill = _phase_mask(trace, phases.CONSTRAINED_DRILL)
    for ang in (("wx", "wy", "wz"), ("wref_x", "wref_y", "wref_z")):
        if any(np.any(_col(trace, c)[drill] != 0.0) for c in ang):
            failures.append(f"{name}: angular {ang[0]} twist in ConstrainedDrill")
    for lin in (("vx", "vy", "vz"), ("vref_x", "vref_y", "vref_z")):
        v = np.stack([_col(trace, c) for c in lin], axis=1)
        for i, target in enumerate(scenario.targets):
            vi = v[drill & (targets == i)]
            axis = np.array(target.axis)
            perp = vi - np.outer(vi @ axis, axis)
            limit = OFF_AXIS_FLOOR * np.maximum(1.0, np.linalg.norm(vi, axis=1))
            if np.any(np.linalg.norm(perp, axis=1) > limit):
                failures.append(f"{name}: off-axis {lin[0]} twist on target {i}")

    window = round(scenario.thresholds.align_duration / scenario.dt)
    align = _phase_mask(trace, phases.AUTO_ALIGN)
    counts = np.bincount(targets[align], minlength=len(scenario.targets))
    if counts.tolist() != [window] * len(scenario.targets):
        failures.append(f"{name}: alignment windows {counts.tolist()} samples, not {window}")
    return failures


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def session_record(session) -> dict:
    """What the reference table keeps of a check-job session."""
    m = session.metrics
    return {
        "condition": session.condition,
        "t_tot": m["t_tot"],
        "e_total": m["e_total"],
        "eps_phi_avg": m["eps_phi_avg"],
        "eps_theta_avg": m["eps_theta_avg"],
        "checksum": session.checksum,
    }


def check_reference(sessions, reference: list) -> tuple:
    """(failures, checksum matches) of a check job against its reference
    sessions, matched by condition."""
    failures = []
    matches = 0
    by_condition = {r["condition"]: r for r in reference}
    if sorted(by_condition) != sorted(s.condition for s in sessions):
        return [f"check job ran {[s.condition for s in sessions]}, reference has {sorted(by_condition)}"], 0
    for s in sessions:
        ref = by_condition[s.condition]
        got = session_record(s)
        for key in ("t_tot", "e_total"):
            if not abs(got[key] - ref[key]) <= REL_TOL * abs(ref[key]):
                failures.append(f"{s.condition}: {key} {got[key]!r} drifted from reference {ref[key]!r}")
        for key in ("eps_phi_avg", "eps_theta_avg"):
            if not abs(got[key] - ref[key]) <= ANGLE_TOL_DEG:
                failures.append(f"{s.condition}: {key} {got[key]!r} drifted from reference {ref[key]!r}")
        matches += got["checksum"] == ref["checksum"]
    return failures, matches
