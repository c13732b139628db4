"""Fixed-timestep closed-loop executor: operator wrench -> interaction force
-> admittance -> plant -> pose, with the guidance state machine steering
switches, gain ramps, and the locked alignment.

Step order (one control period):

1. operator wrench at the current state
2. environment wrench at the current state
3. interaction force F_int = F_h + F_env (exact bookkeeping identity)
4. reference twist: bypassed while auto-aligning (the pose follows the
   locked trajectory); the single axial admittance channel while motion is
   constrained to the drilling axis; the six decoupled channels otherwise
5. plant: first-order lag of the actual twist toward the reference
   (exact one-step discretization; an ideal follower when the lag is 0)
6. pose integration (semi-implicit; orientation via the quaternion
   exponential of omega*dt)
7. state machine update, hole update, trace sample

Time is accumulated as step_index * dt (integer multiplication), never by
summation, so sample stamps carry no floating drift. Runs are deterministic:
identical scenarios (including seeds) produce identical traces, hashes and
output bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
from array import array
from collections import deque
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from .admittance import (
    AdmittanceState,
    GainSchedule,
    gains_at,
    phase_params,
    step_admittance,
    step_axial,
)
from .errors import SimulationFault
from .geometry import Pose, Twist6, UnitQuat, Vec3, Wrench6, _canonical
from .guidance import (
    GuidancePhase,
    GuidanceThresholds,
    alignment_twist,
    check_transition,
    constrain_twist,
    plan_alignment,
    sample_alignment,
    update_phase,
)
from .operator_env import (
    EnvironmentModel,
    HoleState,
    OperatorModel,
    VirtualOperator,
    environment_wrench,
    update_hole,
)
from .workpiece import DrillTarget, Surface

_new = tuple.__new__  # builds a NamedTuple without its Python-level __new__


@dataclass(frozen=True)
class PlantModel:
    """First-order model of the robot and its internal controller: the
    actual twist lags the reference with time constant ``lag_time_constant``
    (0 = ideal follower)."""

    lag_time_constant: float = 0.05

    def __post_init__(self):
        if self.lag_time_constant < 0.0:
            raise ValueError("lag_time_constant must be >= 0")


@dataclass
class Scenario:
    surface: Surface
    targets: Tuple[DrillTarget, ...]
    condition: str  # "with" | "without"
    operator: OperatorModel
    environment: EnvironmentModel
    plant: PlantModel = field(default_factory=PlantModel)
    thresholds: GuidanceThresholds = field(default_factory=GuidanceThresholds)
    dt: float = 1e-3
    start_pose: Pose = Pose(Vec3(0.0, 0.0, 0.3), UnitQuat.identity())
    max_sim_time: float = 600.0
    tool_axis_local: Vec3 = Vec3(0.0, 0.0, 1.0)
    config: dict = field(default_factory=dict)  # canonical form, for the digest

    def __post_init__(self):
        if self.condition not in ("with", "without"):
            raise ValueError(f"condition must be 'with' or 'without', got {self.condition!r}")
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if not self.targets:
            raise ValueError("scenario needs at least one target")

    def config_digest(self) -> str:
        payload = json.dumps(self.config, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()


class TraceSample(NamedTuple):
    t: float
    pose: Pose
    twist: Twist6
    v_ref: Twist6
    f_h: Wrench6
    f_env: Wrench6
    f_int: Wrench6
    phase: GuidancePhase
    active_b: Tuple[float, ...]
    target_index: int
    hole_depth: float


_PHASE_ORDER = tuple(GuidancePhase)
_PHASE_CODE = {p: i for i, p in enumerate(_PHASE_ORDER)}

# flat float columns per sample, in CSV order
_FLOAT_FIELDS = (
    ["t"]
    + ["px", "py", "pz", "qw", "qx", "qy", "qz"]
    + ["vx", "vy", "vz", "wx", "wy", "wz"]
    + ["vref_x", "vref_y", "vref_z", "wref_x", "wref_y", "wref_z"]
    + ["fh_x", "fh_y", "fh_z", "fh_tx", "fh_ty", "fh_tz"]
    + ["fenv_x", "fenv_y", "fenv_z", "fenv_tx", "fenv_ty", "fenv_tz"]
    + ["fint_x", "fint_y", "fint_z", "fint_tx", "fint_ty", "fint_tz"]
)
_B_FIELDS = ["b_vx", "b_vy", "b_vz", "b_wx", "b_wy", "b_wz"]
CSV_HEADER = (
    _FLOAT_FIELDS[:1]
    + _FLOAT_FIELDS[1:]
    + ["phase"]
    + _B_FIELDS
    + ["target_index", "hole_depth"]
)
# every float column, in checksum order
_COLUMNS = tuple(_FLOAT_FIELDS + _B_FIELDS + ["hole_depth"])

# one CSV row: the state floats, the phase name, the damping row, the target
# index and the hole depth, in CSV_HEADER order
_ROW_FMT = ",".join(
    ["%.9g"] * len(_FLOAT_FIELDS) + ["%s"] + ["%.9g"] * len(_B_FIELDS) + ["%d", "%.9g"]
) + "\n"

# one checksum record per sample: 45 <f8 then 2 <i4, 368 bytes, no padding
_CHECKSUM_DTYPE = np.dtype(
    [(name, "<f8") for name in _COLUMNS] + [("phase", "<i4"), ("target_index", "<i4")]
)
# rows staged per hash update; bounds the staging buffer at 1.5 MB
_CHECKSUM_CHUNK = 4096


@dataclass
class Trace:
    """Struct-of-arrays sample log plus the event stream.

    ``data`` holds one ``array('d')`` per float column; phase and target
    index are integer columns. Samples are exposed as TraceSample views.
    """

    dt: float
    condition: str
    config_digest: str
    data: dict = field(default_factory=dict)
    phase_codes: array = field(default_factory=lambda: array("i"))
    target_idx: array = field(default_factory=lambda: array("i"))
    events: List[Tuple[float, str]] = field(default_factory=list)
    complete: bool = False

    def __post_init__(self):
        if not self.data:
            self.data = {name: array("d") for name in _COLUMNS}

    def __len__(self) -> int:
        return len(self.phase_codes)

    def sample(self, i: int) -> TraceSample:
        d = self.data
        return TraceSample(
            t=d["t"][i],
            pose=Pose(
                Vec3(d["px"][i], d["py"][i], d["pz"][i]),
                UnitQuat(d["qw"][i], d["qx"][i], d["qy"][i], d["qz"][i]),
            ),
            twist=Twist6(
                Vec3(d["vx"][i], d["vy"][i], d["vz"][i]),
                Vec3(d["wx"][i], d["wy"][i], d["wz"][i]),
            ),
            v_ref=Twist6(
                Vec3(d["vref_x"][i], d["vref_y"][i], d["vref_z"][i]),
                Vec3(d["wref_x"][i], d["wref_y"][i], d["wref_z"][i]),
            ),
            f_h=Wrench6(
                Vec3(d["fh_x"][i], d["fh_y"][i], d["fh_z"][i]),
                Vec3(d["fh_tx"][i], d["fh_ty"][i], d["fh_tz"][i]),
            ),
            f_env=Wrench6(
                Vec3(d["fenv_x"][i], d["fenv_y"][i], d["fenv_z"][i]),
                Vec3(d["fenv_tx"][i], d["fenv_ty"][i], d["fenv_tz"][i]),
            ),
            f_int=Wrench6(
                Vec3(d["fint_x"][i], d["fint_y"][i], d["fint_z"][i]),
                Vec3(d["fint_tx"][i], d["fint_ty"][i], d["fint_tz"][i]),
            ),
            phase=_PHASE_ORDER[self.phase_codes[i]],
            active_b=tuple(d[name][i] for name in _B_FIELDS),
            target_index=self.target_idx[i],
            hole_depth=d["hole_depth"][i],
        )

    def checksum(self) -> str:
        """SHA-256 over one 368-byte little-endian record per sample, in
        sample order: the 45 float columns as ``<f8`` (the 38 state columns
        in CSV order, the six damping gains ``b_*``, then ``hole_depth``),
        then the phase code and the target index as ``<i4``. An empty trace
        hashes no bytes."""
        h = hashlib.sha256()
        n = len(self)
        cols = [(name, np.frombuffer(self.data[name], dtype=np.float64)) for name in _COLUMNS]
        cols.append(("phase", np.frombuffer(self.phase_codes, dtype=np.intc)))
        cols.append(("target_index", np.frombuffer(self.target_idx, dtype=np.intc)))
        buf = np.empty(min(n, _CHECKSUM_CHUNK), dtype=_CHECKSUM_DTYPE)
        for start in range(0, n, _CHECKSUM_CHUNK):
            stop = min(start + _CHECKSUM_CHUNK, n)
            rows = buf[: stop - start]
            for name, col in cols:
                rows[name] = col[start:stop]
            h.update(rows)
        return h.hexdigest()

    def phase_of(self, i: int) -> GuidancePhase:
        return _PHASE_ORDER[self.phase_codes[i]]

    def events_of_kind(self, prefix: str) -> List[Tuple[float, str]]:
        return [(t, kind) for t, kind in self.events if kind.startswith(prefix)]

    def to_csv(self, path: str) -> None:
        """One row per sample, SI units, 9 significant digits."""
        d = self.data
        names = [p.value for p in _PHASE_ORDER]
        cols = [d[name] for name in _FLOAT_FIELDS]
        cols.append(list(map(names.__getitem__, self.phase_codes)))
        cols += [d[name] for name in _B_FIELDS]
        cols += [self.target_idx, d["hole_depth"]]
        with open(path, "w") as fh:
            fh.write(",".join(CSV_HEADER) + "\n")
            fh.writelines(map(_ROW_FMT.__mod__, zip(*cols)))

    def summary(self) -> dict:
        return {
            "config_digest": self.config_digest,
            "condition": self.condition,
            "dt": self.dt,
            "n_samples": len(self),
            "complete": self.complete,
            "checksum": self.checksum(),
            "events": [{"t": t, "kind": kind} for t, kind in self.events],
        }


class World:
    """Owns all mutable run state; advanced by exactly one caller."""

    def __init__(self, scenario: Scenario, operator: Optional[VirtualOperator] = None):
        self.sc = scenario
        self.dt = scenario.dt
        self.guided = scenario.condition == "with"
        self.operator = operator or VirtualOperator(
            scenario.operator, scenario.tool_axis_local
        )
        self.pose = scenario.start_pose
        self.twist = Twist6.zero()
        self.phase = GuidancePhase.FREE_MOTION
        self.target_idx = 0
        self.hole = HoleState()
        self.k = 0
        self.done = False
        self.align_plan = None
        self.align_start_step = 0
        self.align_steps = max(1, round(scenario.thresholds.align_duration / self.dt))
        self.s_ref = 0.0  # axial admittance memory while constrained
        self.s_act = 0.0  # axial plant state while constrained
        tau = scenario.plant.lag_time_constant
        self.plant_alpha = 1.0 if tau == 0.0 else 1.0 - math.exp(-self.dt / tau)
        pp = phase_params(self.phase, scenario.condition)
        self.adm = AdmittanceState(pp.params, enabled=pp.enabled)
        self.schedule = GainSchedule(pp.params, pp.params, ramp_start=0.0)
        self.trace = Trace(
            dt=self.dt,
            condition=scenario.condition,
            config_digest=scenario.config_digest(),
        )
        self._in_collision = False
        self._b_params = None  # the gains behind the cached damping row _b6
        self._b6 = ()
        d = self.trace.data
        self._columns = tuple(d[name] for name in _COLUMNS)
        self._phase_append = self.trace.phase_codes.append
        self._tgt_append = self.trace.target_idx.append
        self.operator.notify_grab(0.0)
        self.operator.begin_target(0, scenario.targets[0], 0.0)

    # -- helpers -------------------------------------------------------------

    def _record(self, t, pose, twist, v_ref, f_h, f_env, f_int, phase, b6, hole_depth):
        vals = (
            t, *pose.position, *pose.orientation,
            *twist.linear, *twist.angular,
            *v_ref.linear, *v_ref.angular,
            *f_h.force, *f_h.torque,
            *f_env.force, *f_env.torque,
            *f_int.force, *f_int.torque,
            *b6, hole_depth,
        )
        # append each value to its column; deque(..., 0) drains the map
        deque(map(array.append, self._columns, vals), 0)
        self._phase_append(_PHASE_CODE[phase])
        self._tgt_append(self.target_idx)

    def _integrate(self, pose: Pose, twist: Twist6) -> Pose:
        dt = self.dt
        p = pose.position
        v = twist.linear
        pos = _new(Vec3, (p.x + v.x * dt, p.y + v.y * dt, p.z + v.z * dt))
        wx, wy, wz = twist.angular
        if wx == 0.0 and wy == 0.0 and wz == 0.0:
            return _new(Pose, (pos, pose.orientation))
        # UnitQuat.from_rotvec(w dt).multiply(pose.orientation) over floats
        rx, ry, rz = wx * dt, wy * dt, wz * dt
        angle = math.sqrt(rx * rx + ry * ry + rz * rz)
        if angle < 1e-12:
            w1, x1, y1, z1 = _canonical(1.0, 0.5 * rx, 0.5 * ry, 0.5 * rz)
        else:
            s = math.sin(0.5 * angle) / angle
            w1, x1, y1, z1 = _canonical(math.cos(0.5 * angle), s * rx, s * ry, s * rz)
        w2, x2, y2, z2 = pose.orientation
        return _new(Pose, (pos, _canonical(
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        )))

    def _start_ramp(self, t: float, new_phase: GuidancePhase) -> None:
        current = gains_at(self.schedule, t)
        pp = phase_params(new_phase, self.sc.condition)
        self.schedule = GainSchedule(current, pp.params, ramp_start=t)
        self.adm.params = current
        self.adm.set_enabled(pp.enabled)

    # -- the control period ----------------------------------------------------

    def step(self) -> None:
        if self.done:
            return
        sc = self.sc
        dt = self.dt
        k = self.k
        t = k * dt
        phase = self.phase
        target = sc.targets[self.target_idx]
        pose0 = self.pose
        twist0 = self.twist

        f_h = self.operator.wrench(pose0, twist0, phase, target, t)
        if phase is GuidancePhase.AUTO_ALIGN and f_h != Wrench6.zero():
            raise SimulationFault(
                f"operator wrench must be zero during locked alignment (step {k})"
            )
        f_env, collision, _ = environment_wrench(
            pose0, twist0, sc.surface, target, self.hole, sc.environment
        )
        (hx, hy, hz), (htx, hty, htz) = f_h
        (ex, ey, ez), (etx, ety, etz) = f_env
        f_int = _new(Wrench6, (
            _new(Vec3, (hx + ex, hy + ey, hz + ez)),
            _new(Vec3, (htx + etx, hty + ety, htz + etz)),
        ))
        if not all(map(math.isfinite, (*f_int.force, *f_int.torque, *pose0.position))):
            raise SimulationFault(f"non-finite state at sample {k}")

        params_now = gains_at(self.schedule, t)
        constrained = self.guided and phase in (
            GuidancePhase.CONSTRAINED_DRILL,
            GuidancePhase.RETRACT,
        )

        if phase is GuidancePhase.AUTO_ALIGN:
            local_end = (k - self.align_start_step + 1) * dt
            new_pose = sample_alignment(self.align_plan, local_end)
            new_twist = alignment_twist(self.align_plan, local_end)
            # the twist at the start of the step: the previous locked step's
            # new_twist, alignment_twist(plan, (k - align_start_step) * dt),
            # or the zero twist _transition sets on the first locked step
            v_used = twist0
            v_ref = Twist6.zero()
        elif constrained:
            axis = target.axis
            f_ax = f_int.force.dot(axis)
            self.s_ref = step_axial(self.s_ref, f_ax, params_now.translational, dt)
            self.s_act = self.s_act + self.plant_alpha * (self.s_ref - self.s_act)
            s = self.s_ref
            v_ref = constrain_twist(
                _new(Twist6, (_new(Vec3, (s * axis.x, s * axis.y, s * axis.z)), Vec3.zero())),
                axis,
            )
            s = self.s_act
            new_twist = _new(Twist6, (_new(Vec3, (s * axis.x, s * axis.y, s * axis.z)), Vec3.zero()))
            v_used = new_twist
            new_pose = self._integrate(pose0, new_twist)
        else:
            self.adm.params = params_now
            v_ref = step_admittance(self.adm, f_int, dt)
            if self.plant_alpha == 1.0:
                new_twist = v_ref
            else:
                a = self.plant_alpha
                lin0, ang0 = twist0.linear, twist0.angular
                lin1, ang1 = v_ref.linear, v_ref.angular
                new_twist = _new(Twist6, (
                    _new(Vec3, (
                        lin0.x + a * (lin1.x - lin0.x),
                        lin0.y + a * (lin1.y - lin0.y),
                        lin0.z + a * (lin1.z - lin0.z),
                    )),
                    _new(Vec3, (
                        ang0.x + a * (ang1.x - ang0.x),
                        ang0.y + a * (ang1.y - ang0.y),
                        ang0.z + a * (ang1.z - ang0.z),
                    )),
                ))
            v_used = new_twist
            new_pose = self._integrate(pose0, new_twist)

        self.pose = new_pose
        self.twist = new_twist

        # hole bookkeeping on the post-step state, over plain floats
        p, tp, axis = new_pose.position, target.point, target.axis
        ux, uy, uz = axis
        rx, ry, rz = p.x - tp.x, p.y - tp.y, p.z - tp.z
        ax_pos = rx * ux + ry * uy + rz * uz
        lx, ly, lz = rx - ax_pos * ux, ry - ax_pos * uy, rz - ax_pos * uz
        on_target = math.sqrt(lx * lx + ly * ly + lz * lz) <= sc.environment.hole_radius
        was_cut = self.hole.depth > 0.0
        if on_target and ax_pos > 0.0:
            feed = v_used.linear.dot(axis)
            axial_push = f_h.force.dot(axis)
            self.hole = update_hole(
                self.hole,
                feed,
                axial_push,
                dt,
                sc.environment,
                at_bottom=ax_pos >= self.hole.depth - 1e-4,
                tip_in_hole=True,
            )
        elif self.hole.engaged:
            self.hole = HoleState(self.hole.depth, engaged=False)
        t_next = (k + 1) * dt
        if not was_cut and self.hole.depth > 0.0:
            self.trace.events.append((t_next, f"first_cut:{self.target_idx}"))
        if collision and not self._in_collision:
            self.trace.events.append((t, "collision"))
        self._in_collision = collision

        # state machine on the post-step state
        distance = math.sqrt(rx * rx + ry * ry + rz * rz)
        align_progress = 0.0
        if phase is GuidancePhase.AUTO_ALIGN:
            align_progress = (k + 1 - self.align_start_step) / self.align_steps
        depth_reached = self.hole.depth >= sc.environment.hole_depth_goal
        retracted = ax_pos <= -(sc.thresholds.standoff - 1e-9)
        new_phase = update_phase(
            phase,
            distance,
            sc.thresholds,
            guided=self.guided,
            align_progress=align_progress,
            depth_reached=depth_reached,
            retracted=retracted,
        )

        if params_now is not self._b_params:
            self._b_params = params_now
            self._b6 = tuple([g.b for g in params_now.gains])
        self._record(t, pose0, v_used, v_ref, f_h, f_env, f_int, phase, self._b6, self.hole.depth)
        self.k += 1

        if new_phase is not phase:
            self._transition(phase, new_phase, t_next)

    def _transition(self, old: GuidancePhase, new: GuidancePhase, t: float) -> None:
        check_transition(old, new)
        self.trace.events.append((t, f"phase:{new.value}"))
        self.phase = new
        self._start_ramp(t, new)
        if new is GuidancePhase.AUTO_ALIGN:
            target = self.sc.targets[self.target_idx]
            self.align_plan = plan_alignment(
                self.pose,
                target.point,
                target.axis,
                self.sc.tool_axis_local,
                standoff=self.sc.thresholds.standoff,
                duration=self.sc.thresholds.align_duration,
            )
            self.align_start_step = self.k
            self.adm.reset()
            self.twist = Twist6.zero()
            self.trace.events.append((t, f"align_start:{self.target_idx}"))
        elif new is GuidancePhase.CONSTRAINED_DRILL:
            self.trace.events.append((t, f"align_end:{self.target_idx}"))
            self.s_ref = 0.0
            self.s_act = 0.0
            self.operator.notify_grab(t)
        elif new is GuidancePhase.TARGET_DONE:
            self.trace.events.append((t, f"target_done:{self.target_idx}"))
            if self.target_idx + 1 < len(self.sc.targets):
                self.target_idx += 1
                self.hole = HoleState()
                self.phase = GuidancePhase.FREE_MOTION
                self._start_ramp(t, self.phase)
                self.operator.begin_target(
                    self.target_idx, self.sc.targets[self.target_idx], t
                )
                self.trace.events.append((t, f"new_target:{self.target_idx}"))
            else:
                self.done = True
                self.trace.complete = True

    def run(self) -> Trace:
        max_steps = int(self.sc.max_sim_time / self.dt)
        while not self.done:
            if self.k >= max_steps:
                self.trace.events.append((self.k * self.dt, "timeout"))
                self.trace.complete = False
                break
            self.step()
        return self.trace


def run(scenario: Scenario, operator: Optional[VirtualOperator] = None) -> Trace:
    """Execute a scenario to completion (all targets done) or timeout."""
    return World(scenario, operator).run()
