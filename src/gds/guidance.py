"""Haptic-guidance task state machine, locked auto-alignment, and the 1-DoF
motion constraint.

Per drill target the guided sequence is

    FreeMotion -> Approach -> AutoAlign -> ConstrainedDrill -> Retract -> TargetDone

Approach begins when the drill tip enters the adaptation radius (10 cm) and
falls back to FreeMotion only above a slightly larger release radius (11 cm),
so an operator hovering at the boundary cannot chatter the gain ramp. At the
lock radius (5 cm) the robot takes over: operator input is ignored and the
tool follows a 4-second locked trajectory to the standoff pose, after which
motion is restricted to the drilling axis.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .errors import GeometryError, SimulationFault
from .geometry import (
    Pose,
    Twist6,
    UnitQuat,
    Vec3,
    angle_between,
    project_onto_axis,
    rotate,
    rotation_between,
    slerp,
)

_new = tuple.__new__  # builds a NamedTuple without its Python-level __new__


class GuidancePhase(enum.Enum):
    FREE_MOTION = "FreeMotion"
    APPROACH = "Approach"
    AUTO_ALIGN = "AutoAlign"
    CONSTRAINED_DRILL = "ConstrainedDrill"
    RETRACT = "Retract"
    TARGET_DONE = "TargetDone"


# Legal successor sets; AutoAlign only exists under guidance.
_LEGAL = {
    GuidancePhase.FREE_MOTION: {GuidancePhase.FREE_MOTION, GuidancePhase.APPROACH},
    GuidancePhase.APPROACH: {
        GuidancePhase.APPROACH,
        GuidancePhase.FREE_MOTION,
        GuidancePhase.AUTO_ALIGN,
        GuidancePhase.RETRACT,  # manual condition: drilling happens in Approach
    },
    GuidancePhase.AUTO_ALIGN: {GuidancePhase.AUTO_ALIGN, GuidancePhase.CONSTRAINED_DRILL},
    GuidancePhase.CONSTRAINED_DRILL: {
        GuidancePhase.CONSTRAINED_DRILL,
        GuidancePhase.RETRACT,
    },
    GuidancePhase.RETRACT: {GuidancePhase.RETRACT, GuidancePhase.TARGET_DONE},
    GuidancePhase.TARGET_DONE: {GuidancePhase.TARGET_DONE},
}


@dataclass(frozen=True)
class GuidanceThresholds:
    adapt_radius: float = 0.10   # m, damping adaptation boundary
    lock_radius: float = 0.05    # m, robot-takeover boundary
    align_duration: float = 4.0  # s, locked alignment time
    standoff: float = 0.05       # m, tip-to-target gap after alignment
    release_radius: float = 0.11  # m, hysteresis exit from Approach

    def __post_init__(self):
        if not self.lock_radius < self.adapt_radius:
            raise ValueError("lock_radius must be smaller than adapt_radius")
        if not self.align_duration > 0.0:
            raise ValueError("align_duration must be positive")
        if not self.release_radius > self.adapt_radius:
            raise ValueError("release_radius must exceed adapt_radius")


def update_phase(
    phase: GuidancePhase,
    tip_to_target_distance: float,
    thresholds: GuidanceThresholds,
    *,
    guided: bool = True,
    align_progress: float = 0.0,
    depth_reached: bool = False,
    retracted: bool = False,
) -> GuidancePhase:
    """One transition of the task state machine.

    ``align_progress`` belongs to the AutoAlign phase value (0 at lock,
    1 when the locked trajectory has finished). The manual condition skips
    AutoAlign/ConstrainedDrill: the hole is opened while still in Approach
    and Retract begins once the target depth is reached.
    """
    d = tip_to_target_distance
    if not (math.isfinite(d) and d >= 0.0):
        raise SimulationFault(f"invalid tip-to-target distance {d!r}")

    if phase is GuidancePhase.FREE_MOTION:
        if d <= thresholds.adapt_radius:
            return GuidancePhase.APPROACH
        return phase
    if phase is GuidancePhase.APPROACH:
        if guided and d <= thresholds.lock_radius:
            return GuidancePhase.AUTO_ALIGN
        if not guided and depth_reached:
            return GuidancePhase.RETRACT
        if d > thresholds.release_radius:
            return GuidancePhase.FREE_MOTION
        return phase
    if phase is GuidancePhase.AUTO_ALIGN:
        if not guided:
            raise SimulationFault("AutoAlign phase reached without guidance")
        if align_progress >= 1.0:
            return GuidancePhase.CONSTRAINED_DRILL
        return phase
    if phase is GuidancePhase.CONSTRAINED_DRILL:
        if depth_reached:
            return GuidancePhase.RETRACT
        return phase
    if phase is GuidancePhase.RETRACT:
        if retracted:
            return GuidancePhase.TARGET_DONE
        return phase
    if phase is GuidancePhase.TARGET_DONE:
        return phase
    raise SimulationFault(f"unknown guidance phase {phase!r}")


def check_transition(old: GuidancePhase, new: GuidancePhase) -> None:
    """Fault on any transition outside the task order (defensive check the
    engine runs on every phase change)."""
    if new not in _LEGAL[old]:
        raise SimulationFault(f"illegal phase transition {old.value} -> {new.value}")


@dataclass(frozen=True)
class AlignmentPlan:
    """Locked trajectory from the lock pose to the standoff pose.

    The goal orientation carries the drill's tool axis onto the drilling
    axis by the minimal rotation; the goal position sits ``standoff``
    meters short of the target along that axis. Position runs on a straight
    line and orientation on the shortest arc, both time-scaled by a
    smoothstep so boundary velocities are zero.
    """

    start_pose: Pose
    goal_pose: Pose
    duration: float
    rotation_angle: float  # rad, total orientation change
    # start-to-goal position delta and rotation vector, fixed at plan time
    delta_position: Vec3 = field(init=False, repr=False, compare=False)
    rotation_vector: Vec3 = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        start, goal = self.start_pose, self.goal_pose
        object.__setattr__(self, "delta_position", goal.position - start.position)
        q_delta = goal.orientation.multiply(start.orientation.conjugate())
        object.__setattr__(self, "rotation_vector", _quat_log(q_delta))


def plan_alignment(
    current: Pose,
    target_point: Vec3,
    drilling_axis: Vec3,
    tool_axis_local: Vec3,
    *,
    standoff: float = 0.05,
    duration: float = 4.0,
) -> AlignmentPlan:
    """Build the locked alignment trajectory for one target."""
    if abs(drilling_axis.norm() - 1.0) > 1e-6:
        raise GeometryError("drilling axis must be unit length")
    tool_world = rotate(current.orientation, tool_axis_local)
    q_delta = rotation_between(tool_world, drilling_axis)
    goal_orientation = q_delta.multiply(current.orientation)
    goal_position = target_point - drilling_axis.scale(standoff)
    angle = angle_between(tool_world, drilling_axis)
    return AlignmentPlan(
        start_pose=current,
        goal_pose=Pose(goal_position, goal_orientation),
        duration=duration,
        rotation_angle=angle,
    )


def smoothstep(s: float) -> float:
    """3 s^2 - 2 s^3 on [0, 1]: zero slope at both ends."""
    return s * s * (3.0 - 2.0 * s)


def _smoothstep_rate(s: float) -> float:
    return 6.0 * s * (1.0 - s)


def sample_alignment(plan: AlignmentPlan, t: float) -> Pose:
    """Pose on the locked trajectory at time t in [0, duration].

    Out-of-range times are clamped (t=0 gives the start pose exactly,
    t=duration the goal pose exactly).
    """
    if t <= 0.0:
        return plan.start_pose
    if t >= plan.duration:
        return plan.goal_pose
    s = smoothstep(t / plan.duration)
    p0, d = plan.start_pose.position, plan.delta_position
    pos = _new(Vec3, (p0.x + s * d.x, p0.y + s * d.y, p0.z + s * d.z))
    ori = slerp(plan.start_pose.orientation, plan.goal_pose.orientation, s)
    return _new(Pose, (pos, ori))


def alignment_twist(plan: AlignmentPlan, t: float) -> Twist6:
    """Instantaneous twist of the locked trajectory (zero at both ends)."""
    if t <= 0.0 or t >= plan.duration:
        return Twist6.zero()
    rate = _smoothstep_rate(t / plan.duration) / plan.duration
    return _new(Twist6, (plan.delta_position.scale(rate), plan.rotation_vector.scale(rate)))


def _quat_log(q: UnitQuat) -> Vec3:
    """Rotation vector of a unit quaternion (world frame)."""
    vn = math.sqrt(q.x * q.x + q.y * q.y + q.z * q.z)
    if vn < 1e-12:
        return Vec3(2.0 * q.x, 2.0 * q.y, 2.0 * q.z)
    angle = 2.0 * math.atan2(vn, abs(q.w))
    s = angle / vn
    if q.w < 0.0:
        s = -s
    return Vec3(s * q.x, s * q.y, s * q.z)


def constrain_twist(v_ref: Twist6, axis: Vec3) -> Twist6:
    """Restrict a twist to translation along the drilling axis.

    The angular part is zeroed outright and the linear part keeps only its
    axial projection, so the constraint is algebraic rather than a penalty.
    """
    return Twist6(project_onto_axis(v_ref.linear, axis), Vec3.zero())
