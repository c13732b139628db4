"""Haptic-guidance task state machine and locked auto-alignment (the 1-DoF
motion constraint itself is the guided drilling body of ``World.step``).

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
from dataclasses import dataclass

from .errors import GeometryError, SimulationFault
from .geometry import (
    Pose,
    UnitQuat,
    Vec3,
    rotate,
    rotation_between,
    slerp_arc,
    slerp_at,
)


class GuidancePhase(enum.Enum):
    FREE_MOTION = "FreeMotion"
    APPROACH = "Approach"
    AUTO_ALIGN = "AutoAlign"
    CONSTRAINED_DRILL = "ConstrainedDrill"
    RETRACT = "Retract"
    TARGET_DONE = "TargetDone"


# the phases as module globals, for the code that runs every control period
# (here, the engine and the operator): a global load is an order of
# magnitude cheaper than a member lookup on the Enum class
_FREE_MOTION = GuidancePhase.FREE_MOTION
_APPROACH = GuidancePhase.APPROACH
_AUTO_ALIGN = GuidancePhase.AUTO_ALIGN
_CONSTRAINED_DRILL = GuidancePhase.CONSTRAINED_DRILL
_RETRACT = GuidancePhase.RETRACT
_TARGET_DONE = GuidancePhase.TARGET_DONE

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
        # a lock at or below zero radius never engages, and an alignment
        # that ends at or past the target point drives into uncut material
        for name in ("lock_radius", "standoff"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
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
    aligned: bool = False,
    depth_reached: bool = False,
    ax_pos: float = 0.0,
) -> GuidancePhase:
    """One transition of the task state machine.

    ``aligned`` says the locked trajectory has run its steps (the engine
    counts them). ``ax_pos`` is the tip's position along the hole's axis
    from its entry (``Hole.coordinates``; positive into the material);
    Retract ends once the tip is back out at the standoff. The manual
    condition skips AutoAlign/ConstrainedDrill: the hole is opened while
    still in Approach and Retract begins once the target depth is reached.
    """
    d = tip_to_target_distance
    if not (math.isfinite(d) and d >= 0.0):
        raise SimulationFault(f"invalid tip-to-target distance {d!r}")

    if phase is _FREE_MOTION:
        if d <= thresholds.adapt_radius:
            return _APPROACH
        return phase
    if phase is _APPROACH:
        if guided and d <= thresholds.lock_radius:
            return _AUTO_ALIGN
        if not guided and depth_reached:
            return _RETRACT
        if d > thresholds.release_radius:
            return _FREE_MOTION
        return phase
    if phase is _AUTO_ALIGN:
        if aligned:
            return _CONSTRAINED_DRILL
        return phase
    if phase is _CONSTRAINED_DRILL:
        if depth_reached:
            return _RETRACT
        return phase
    if phase is _RETRACT:
        if ax_pos <= -(thresholds.standoff - 1e-9):
            return _TARGET_DONE
        return phase
    if phase is _TARGET_DONE:
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
    # the start position, start-to-goal position delta and rotation vector
    # as plain (x, y, z), and the orientation arc (geometry.slerp_arc),
    # fixed at plan time: every locked step unpacks them
    start_position: tuple
    delta_position: tuple
    rotation_vector: tuple
    arc: tuple


def plan_alignment(
    current: tuple,
    target_point: Vec3,
    drilling_axis: Vec3,
    tool_axis_local: Vec3,
    *,
    standoff: float,
    duration: float,
) -> AlignmentPlan:
    """Build the locked alignment trajectory for one target: it ends
    ``standoff`` short of ``target_point`` on the drilling axis,
    ``duration`` seconds after it starts at pose ``current``."""
    if abs(drilling_axis.norm() - 1.0) > 1e-6:
        raise GeometryError("drilling axis must be unit length")
    position, orientation = current
    start_pose = Pose(Vec3(*position), UnitQuat(*orientation))
    start = start_pose.orientation
    tool_world = rotate(start, tool_axis_local)
    goal = rotation_between(tool_world, drilling_axis).multiply(start)
    goal_position = target_point - drilling_axis.scale(standoff)
    return AlignmentPlan(
        start_pose=start_pose,
        goal_pose=Pose(goal_position, goal),
        duration=duration,
        start_position=tuple(start_pose.position),
        delta_position=tuple(goal_position - start_pose.position),
        rotation_vector=tuple(_quat_log(goal.multiply(start.conjugate()))),
        arc=slerp_arc(start, goal),
    )


def smoothstep(s: float) -> float:
    """3 s^2 - 2 s^3 on [0, 1]: zero slope at both ends."""
    return s * s * (3.0 - 2.0 * s)


def _smoothstep_rate(s: float) -> float:
    return 6.0 * s * (1.0 - s)


def sample_alignment(plan: AlignmentPlan, t: float) -> tuple:
    """Pose on the locked trajectory at time t in [0, duration], as a plain
    ``((x, y, z), (w, x, y, z))``.

    Out-of-range times are clamped (t=0 gives the start pose exactly,
    t=duration the goal pose exactly).
    """
    duration = plan.duration
    if t <= 0.0 or t >= duration:
        position, orientation = plan.start_pose if t <= 0.0 else plan.goal_pose
        return tuple(position), tuple(orientation)
    s = smoothstep(t / duration)
    (x0, y0, z0), (dx, dy, dz) = plan.start_position, plan.delta_position
    return (x0 + s * dx, y0 + s * dy, z0 + s * dz), slerp_at(plan.arc, s)


def alignment_twist(plan: AlignmentPlan, t: float) -> tuple:
    """Instantaneous twist of the locked trajectory (zero at both ends), as
    a plain ``((vx, vy, vz), (wx, wy, wz))``."""
    duration = plan.duration
    if t <= 0.0 or t >= duration:
        return (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)
    rate = _smoothstep_rate(t / duration) / duration
    (dx, dy, dz), (rx, ry, rz) = plan.delta_position, plan.rotation_vector
    return (rate * dx, rate * dy, rate * dz), (rate * rx, rate * ry, rate * rz)


def _quat_log(q: UnitQuat) -> Vec3:
    """Rotation vector of a unit quaternion (world frame) with w >= 0, as
    ``UnitQuat.multiply`` returns it."""
    vn = math.sqrt(q.x * q.x + q.y * q.y + q.z * q.z)
    if vn < 1e-12:
        return Vec3(2.0 * q.x, 2.0 * q.y, 2.0 * q.z)
    s = 2.0 * math.atan2(vn, q.w) / vn
    return Vec3(s * q.x, s * q.y, s * q.z)
