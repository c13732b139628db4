"""Performance metrics over a trace and the with/without-guidance comparison.

Metrics (one drilling session = all targets):

- task completion time: session start to the last target completion
- average linear / angular tool speed: (1/t_tot) integral of ||v|| resp. ||omega||
- human effort: integral of sum_i |F_h^i v^i| over the six wrench/twist
  component pairs; the force part (i = 1..3) and torque part (i = 4..6) are
  integrated separately and the total is their exact sum
- alignment errors: polar and azimuth deviation of the tool axis from the
  commanded drilling direction, evaluated just before material is cut on
  each target (entry into the constrained drilling phase under guidance,
  the first-cut event without it), averaged over targets

Integrals use the trapezoidal rule over the uniformly-sampled trace.
All functions are pure; traces are never mutated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .engine import _PHASE_CODE, Trace
from .geometry import Vec3, rotate
from .guidance import GuidancePhase
from .workpiece import DrillTarget, recover_angles

METRIC_FIELDS = (
    "t_tot",
    "s_lin_avg",
    "s_ang_avg",
    "e_force",
    "e_torque",
    "e_total",
    "eps_phi_avg",
    "eps_theta_avg",
)


@dataclass(frozen=True)
class Metrics:
    t_tot: float            # s
    s_lin_avg: float        # m/s
    s_ang_avg: float        # rad/s
    e_force: float          # J
    e_torque: float         # J
    e_total: float          # J, = e_force + e_torque exactly
    eps_phi_avg: float      # deg
    eps_theta_avg: float    # deg
    per_target: Tuple[Tuple[float, float], ...]  # (eps_phi, eps_theta) per target
    complete: bool

    def to_dict(self) -> dict:
        return {
            "t_tot": self.t_tot,
            "s_lin_avg": self.s_lin_avg,
            "s_ang_avg": self.s_ang_avg,
            "e_force": self.e_force,
            "e_torque": self.e_torque,
            "e_total": self.e_total,
            "eps_phi_avg_deg": self.eps_phi_avg,
            "eps_theta_avg_deg": self.eps_theta_avg,
            "per_target": [
                {"eps_phi_deg": p, "eps_theta_deg": q} for p, q in self.per_target
            ],
            "complete": self.complete,
        }


def _trapezoid(series, dt: float) -> float:
    if len(series) < 2:
        return 0.0
    return dt * (math.fsum(series) - 0.5 * (series[0] + series[-1]))


def _speed(data: dict, names: Tuple[str, str, str]) -> list:
    """Per-sample norm of three columns."""
    x, y, z = (data[name] for name in names)
    # Python's a ** 2 (libm pow) is not always a * a, so this stays scalar
    return [math.sqrt(a ** 2 + b ** 2 + c ** 2) for a, b, c in zip(x, y, z)]


def _power(data: dict, forces: Tuple[str, str, str], rates: Tuple[str, str, str]) -> list:
    """Per-sample sum_i |F_i v_i| over three column pairs, added left to right."""
    f1, f2, f3 = (np.frombuffer(data[name], dtype=np.float64) for name in forces)
    v1, v2, v3 = (np.frombuffer(data[name], dtype=np.float64) for name in rates)
    return (np.abs(f1 * v1) + np.abs(f2 * v2) + np.abs(f3 * v3)).tolist()


def wrap180(angle_deg: float) -> float:
    """Fold an angle difference into [0, 180] degrees."""
    a = abs(angle_deg) % 360.0
    return 360.0 - a if a > 180.0 else a


def _drill_entry_indices(trace: Trace, n_targets: int) -> Dict[int, int]:
    """Sample index 'just before drilling starts' per target: entry into
    ConstrainedDrill under guidance, the first-cut sample without it."""
    if trace.condition == "with":
        codes = np.frombuffer(trace.phase_codes, dtype=np.intc)
        drilling = np.flatnonzero(codes == _PHASE_CODE[GuidancePhase.CONSTRAINED_DRILL])
        tgts = np.frombuffer(trace.target_idx, dtype=np.intc)[drilling]
        firsts, at = np.unique(tgts, return_index=True)
        return dict(zip(firsts.tolist(), drilling[at].tolist()))
    # manual: first_cut events carry the target index
    out: Dict[int, int] = {}
    t_col = trace.data["t"]
    for t_evt, kind in trace.events:
        if kind.startswith("first_cut:"):
            tgt = int(kind.split(":")[1])
            if tgt in out:
                continue
            # last sample at or before the event time
            i = min(int(round(t_evt / trace.dt)), len(trace) - 1)
            while i > 0 and t_col[i] > t_evt:
                i -= 1
            out[tgt] = i
    return out


def compute_metrics(
    trace: Trace,
    targets: Sequence[DrillTarget],
    tool_axis_local: Vec3 = Vec3(0.0, 0.0, 1.0),
) -> Metrics:
    """Evaluate the session metrics from a trace.

    Incomplete traces (timeout, missing targets) yield metrics flagged
    ``complete=False`` computed over the recorded span.
    """
    n = len(trace)
    if n == 0:
        raise ValueError("empty trace")
    d = trace.data
    dt = trace.dt

    done_events = trace.events_of_kind("target_done:")
    complete = trace.complete and len(done_events) == len(targets)
    if done_events:
        t_tot = done_events[-1][0]
    else:
        t_tot = d["t"][n - 1] + dt

    lin_speed = _speed(d, ("vx", "vy", "vz"))
    ang_speed = _speed(d, ("wx", "wy", "wz"))
    p_force = _power(d, ("fh_x", "fh_y", "fh_z"), ("vx", "vy", "vz"))
    p_torque = _power(d, ("fh_tx", "fh_ty", "fh_tz"), ("wx", "wy", "wz"))

    e_force = _trapezoid(p_force, dt)
    e_torque = _trapezoid(p_torque, dt)
    span = t_tot if t_tot > 0.0 else 1.0
    s_lin = _trapezoid(lin_speed, dt) / span
    s_ang = _trapezoid(ang_speed, dt) / span

    entries = _drill_entry_indices(trace, len(targets))
    per_target = []
    for idx, target in enumerate(targets):
        if idx not in entries:
            per_target.append((float("nan"), float("nan")))
            complete = False
            continue
        s = trace.sample(entries[idx])
        tool_axis = rotate(s.pose.orientation, tool_axis_local)
        phi_cur, theta_cur = recover_angles(tool_axis, target.frame)
        eps_phi = abs(phi_cur - target.phi_deg)
        if (
            math.sin(math.radians(phi_cur)) < 1e-6
            or math.sin(math.radians(target.phi_deg)) < 1e-6
        ):
            eps_theta = 0.0
        else:
            eps_theta = wrap180(theta_cur - target.theta_deg)
        per_target.append((eps_phi, eps_theta))

    valid = [p for p in per_target if not math.isnan(p[0])]
    eps_phi_avg = sum(p[0] for p in valid) / len(valid) if valid else float("nan")
    eps_theta_avg = sum(p[1] for p in valid) / len(valid) if valid else float("nan")

    return Metrics(
        t_tot=t_tot,
        s_lin_avg=s_lin,
        s_ang_avg=s_ang,
        e_force=e_force,
        e_torque=e_torque,
        e_total=e_force + e_torque,
        eps_phi_avg=eps_phi_avg,
        eps_theta_avg=eps_theta_avg,
        per_target=tuple(per_target),
        complete=complete,
    )


@dataclass(frozen=True)
class ComparisonReport:
    """Percent relative difference per metric, 100 (with - without) / without.

    Negative values mean guidance reduced the metric. Ratios with a
    denominator below 1e-12 are reported as None rather than infinity.
    """

    metrics_with: Metrics
    metrics_without: Metrics
    percent_diff: Dict[str, Optional[float]]

    def to_dict(self) -> dict:
        return {
            "with": self.metrics_with.to_dict(),
            "without": self.metrics_without.to_dict(),
            "percent_diff": self.percent_diff,
        }


def compare(metrics_with: Metrics, metrics_without: Metrics) -> ComparisonReport:
    """Build the condition-comparison report; refuses partial inputs."""
    if not (metrics_with.complete and metrics_without.complete):
        raise ValueError("comparison requires complete metrics for both conditions")
    diff: Dict[str, Optional[float]] = {}
    for name in METRIC_FIELDS:
        w = getattr(metrics_with, name)
        wo = getattr(metrics_without, name)
        if abs(wo) < 1e-12:
            diff[name] = None
        else:
            diff[name] = 100.0 * (w - wo) / wo
    return ComparisonReport(metrics_with, metrics_without, diff)


def mean_metrics(runs: Sequence[Metrics]) -> Metrics:
    """Componentwise mean over per-seed metrics (all must be complete)."""
    if not runs:
        raise ValueError("no metrics to average")
    if not all(m.complete for m in runs):
        raise ValueError("cannot average partial metrics")
    k = float(len(runs))
    n_targets = len(runs[0].per_target)
    per_target = tuple(
        (
            sum(m.per_target[i][0] for m in runs) / k,
            sum(m.per_target[i][1] for m in runs) / k,
        )
        for i in range(n_targets)
    )
    e_force = sum(m.e_force for m in runs) / k
    e_torque = sum(m.e_torque for m in runs) / k
    return Metrics(
        t_tot=sum(m.t_tot for m in runs) / k,
        s_lin_avg=sum(m.s_lin_avg for m in runs) / k,
        s_ang_avg=sum(m.s_ang_avg for m in runs) / k,
        e_force=e_force,
        e_torque=e_torque,
        e_total=e_force + e_torque,
        eps_phi_avg=sum(m.eps_phi_avg for m in runs) / k,
        eps_theta_avg=sum(m.eps_theta_avg for m in runs) / k,
        per_target=per_target,
        complete=True,
    )
