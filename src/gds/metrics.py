"""Performance metrics over a trace and the with/without-guidance comparison.

Metrics (one drilling session = all targets):

- task completion time: session start to the last target completion (on an
  incomplete run, to the last target it finished)
- average linear / angular tool speed: (1/T) integral of ||v|| resp.
  ||omega||, T = len(trace) * dt being the recorded span the integral runs
  over; on a complete run T is t_tot, to the bit
- human effort: integral of sum_i |F_h^i v^i| over the six wrench/twist
  component pairs; the force part (i = 1..3) and torque part (i = 4..6) are
  integrated separately and the total is their exact sum
- alignment errors: polar and azimuth deviation of the tool axis from the
  commanded drilling direction, evaluated just before material is cut on
  each target (the sample after the first cut, in both conditions),
  averaged over the targets that were cut; NaN if none was

Integrals use the trapezoidal rule over the uniformly-sampled trace. They
stream over the trace's storage blocks: each block's series is computed
from a view of its records and chained into one exactly rounded
``math.fsum``, so the totals have the bits of one sum over the whole series,
and no metric holds a whole-trace column or series. The drilling-entry
scan streams over the same blocks. Metrics read only the trace's columns
and events. All functions are pure; traces are never mutated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .engine import Trace
from .geometry import Vec3, rotate
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
# the report keys of the metrics the report renames
_REPORT_KEYS = {"eps_phi_avg": "eps_phi_avg_deg", "eps_theta_avg": "eps_theta_avg_deg"}


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
        out = {_REPORT_KEYS.get(name, name): getattr(self, name) for name in METRIC_FIELDS}
        out["per_target"] = [{"eps_phi_deg": p, "eps_theta_deg": q} for p, q in self.per_target]
        out["complete"] = self.complete
        return out


# the rate and the operator wrench fields of the linear and the angular part
_V = ("vx", "vy", "vz")
_W = ("wx", "wy", "wz")
_FH = ("fh_x", "fh_y", "fh_z")
_TH = ("fh_tx", "fh_ty", "fh_tz")


def _trapezoid(series: Callable[[np.ndarray], list], blocks: List[np.ndarray], dt: float) -> float:
    """Trapezoid rule over ``series(records)`` of each block in turn. The
    chunks stream into ``math.fsum``, which is exactly rounded, so the total
    has the bits of one fsum over the whole series; the end values are the
    series of the first and of the last record alone (one sample gives
    ``dt * (v - 0.5 * (v + v))``, which is 0.0)."""
    total = math.fsum(chain.from_iterable(map(series, blocks)))
    return dt * (total - 0.5 * (series(blocks[0][:1])[0] + series(blocks[-1][-1:])[0]))


def _speed(records: np.ndarray, rates: Sequence[str]) -> list:
    """Per-record norm of three rate fields: IEEE squares, summed left to
    right, and a correctly rounded square root, the bits of
    ``math.sqrt(a * a + b * b + c * c)``."""
    x, y, z = (records[name] for name in rates)
    return np.sqrt(x * x + y * y + z * z).tolist()


def _power(records: np.ndarray, forces: Sequence[str], rates: Sequence[str]) -> list:
    """Per-record sum_i |F_i v_i| over three field pairs, added left to right."""
    f1, f2, f3 = (records[name] for name in forces)
    v1, v2, v3 = (records[name] for name in rates)
    return (np.abs(f1 * v1) + np.abs(f2 * v2) + np.abs(f3 * v3)).tolist()


def wrap180(angle_deg: float) -> float:
    """Fold an angle difference into [0, 180] degrees."""
    a = abs(angle_deg) % 360.0
    return 360.0 - a if a > 180.0 else a


def _drill_entry_indices(trace: Trace) -> Dict[int, int]:
    """Sample index 'just before drilling starts' per target that was cut,
    one rule for both conditions: the sample after the first one with
    ``hole_depth > 0`` (a sample holds the pose before its step and the
    depth after it, so the next sample holds the pose at the first cut),
    clipped to the last sample. Under guidance that sample's orientation
    is, to the bit, the first ConstrainedDrill sample's: a guided tip cuts
    only in ConstrainedDrill, whose 1-DoF body carries the orientation
    over."""
    firsts: Dict[int, int] = {}
    start = 0
    for records in trace.record_blocks():
        hits = np.flatnonzero(records["hole_depth"] > 0.0)
        if hits.size:
            targets, at = np.unique(records["target_index"][hits], return_index=True)
            for target, i in zip(targets.tolist(), (hits[at] + start).tolist()):
                firsts.setdefault(target, i)
        start += len(records)
    return {target: min(i + 1, start - 1) for target, i in firsts.items()}


def compute_metrics(
    trace: Trace,
    targets: Sequence[DrillTarget],
    tool_axis_local: Vec3 = Vec3(0.0, 0.0, 1.0),
) -> Metrics:
    """Evaluate the session metrics from a trace.

    Incomplete traces (timeout, runaway, stall, missing targets) yield metrics
    flagged ``complete=False``: effort and speeds over the recorded span,
    ``t_tot`` the time of the last finished target (or the span, if none).
    """
    n = len(trace)
    if n == 0:
        raise ValueError("empty trace")
    dt = trace.dt

    done_events = trace.events_of_kind("target_done:")
    complete = trace.complete and len(done_events) == len(targets)
    if done_events:
        t_tot = done_events[-1][0]
    else:
        t_tot = trace.sample(n - 1).t + dt

    blocks = list(trace.record_blocks())
    e_force = _trapezoid(lambda records: _power(records, _FH, _V), blocks, dt)
    e_torque = _trapezoid(lambda records: _power(records, _TH, _W), blocks, dt)
    span = n * dt
    s_lin = _trapezoid(lambda records: _speed(records, _V), blocks, dt) / span
    s_ang = _trapezoid(lambda records: _speed(records, _W), blocks, dt) / span

    entries = _drill_entry_indices(trace)
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


def compare(metrics_with: Metrics, metrics_without: Metrics) -> Dict[str, Optional[float]]:
    """Percent relative difference per metric, 100 (with - without) /
    without; refuses partial inputs.

    Negative values mean guidance reduced the metric. Ratios with a
    denominator below 1e-12 are None rather than infinity.
    """
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
    return diff


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
    mean = {name: sum(getattr(m, name) for m in runs) / k for name in METRIC_FIELDS}
    # the total stays the exact sum of its parts
    mean["e_total"] = mean["e_force"] + mean["e_torque"]
    return Metrics(**mean, per_target=per_target, complete=True)
