"""Virtual operator and environment models closing the interaction loop.

The operator replaces the human hand: a PD pull toward the current goal
with force/torque caps, plus a constant axial push once drilling is
allowed. Two variants exist:

- ``guided``: relies on the robot for fine alignment. Pulls the tool to the
  target, stands clear during the locked alignment (zero wrench), then
  pushes along the drilling axis.
- ``manual``: must align by hand. Aims for the standoff pose while steering
  the tool axis toward its *perceived* drilling axis: the desired angles
  plus a per-target residual error drawn from ``angular_noise``, with a
  decaying sinusoidal wander while correcting. It then dwells (fine
  adjustment time), pushes along the perceived axis, and retracts.

All randomness is drawn once per target from a seeded generator, and the
wander is a closed-form function of time, so wrench streams are identical
for identical seeds and do not depend on the integration step.

The environment produces the workpiece reaction: a rectified spring-damper
penalty on off-target contact (never pulls, never injects energy) and a
feed-proportional cutting resistance plus a bottom spring at the hole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import GeometryError
from .geometry import _ZERO3, _ZERO_WRENCH, Pose, Twist6, Vec3, Wrench6, rotation_between
from .guidance import (
    _APPROACH,
    _AUTO_ALIGN,
    _CONSTRAINED_DRILL,
    _FREE_MOTION,
    _RETRACT,
    _TARGET_DONE,
    GuidancePhase,
)
from .workpiece import DrillTarget, Surface, drilling_axis

_new = tuple.__new__  # builds a NamedTuple without its Python-level __new__


@dataclass(frozen=True)
class OperatorModel:
    variant: str = "guided"          # "guided" | "manual"
    k_p: float = 200.0               # N/m, pull gain toward the waypoint
    k_d: float = 40.0                # N s/m
    torque_k_p: float = 8.0          # N m/rad (manual only)
    torque_k_d: float = 1.0          # N m s
    reaction_delay: float = 0.25     # s, force ramp-in after (re)grabbing
    angular_noise: float = 6.0       # deg, manual residual alignment error (std dev)
    force_cap: float = 40.0          # N
    torque_cap: float = 5.0          # N m
    push_force: float = 25.0         # N, axial push while drilling
    align_dwell: float = 6.0         # s, manual fine-adjustment time
    align_dwell_jitter: float = 2.0  # s, +- uniform spread on the dwell
    seed: int = 0

    def __post_init__(self):
        if self.variant not in ("guided", "manual"):
            raise ValueError(f"unknown operator variant {self.variant!r}")
        for name in ("k_p", "k_d", "torque_k_p", "torque_k_d", "angular_noise",
                     "reaction_delay", "align_dwell", "align_dwell_jitter"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")
        for name in ("force_cap", "torque_cap", "push_force"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class EnvironmentModel:
    contact_stiffness: float = 5e4   # N/m
    contact_damping: float = 200.0   # N s/m
    cut_resistance: float = 800.0    # N s/m, opposes the feed rate
    thrust_threshold: float = 5.0    # N, minimum axial push to advance the cut
    hole_depth_goal: float = 0.010   # m
    hole_radius: float = 0.006       # m, lateral carve-out around the target

    def __post_init__(self):
        for name in ("contact_stiffness", "contact_damping", "cut_resistance",
                     "thrust_threshold", "hole_depth_goal", "hole_radius"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")


# the tip is at the cutting face when it is at most this far (m) short of
# the hole's bottom: within one step of the uncut material
CUT_FACE_TOLERANCE = 1e-4


def update_hole(
    depth: float,
    axial_feed: float,
    axial_force: float,
    dt: float,
    model: EnvironmentModel,
    at_bottom: bool = True,
) -> float:
    """Advance the cut and return the new hole depth: it grows by feed*dt
    only while pushing hard enough (>= thrust threshold), feeding forward,
    and bearing on uncut material. Depth never decreases."""
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    if axial_force >= model.thrust_threshold and axial_feed > 0.0 and at_bottom:
        depth += axial_feed * dt
    return depth


def _cap(x: float, y: float, z: float, cap: float) -> Tuple[float, float, float]:
    """(x, y, z) scaled down to norm ``cap`` if it is longer."""
    n = math.sqrt(x * x + y * y + z * z)
    if n <= cap:
        return x, y, z
    s = cap / n
    return s * x, s * y, s * z


_MODE_AIM = "aim"
_MODE_DWELL = "dwell"
_MODE_PUSH = "push"
_MODE_PULL = "pull"

# distance short of the target a manual operator holds while fine-aligning
_PREDRILL_STANDOFF = 0.05
# the manual operator starts its dwell within this distance of the standoff
# point (m) and this angle of its aim axis (rad)
_AIM_RADIUS = 0.008
_AIM_ANGLE = math.radians(1.0)


@dataclass
class _TargetDraws:
    """Per-target random draws for the manual operator (made once, so the
    wrench stream is independent of the integration step)."""

    dphi: float = 0.0
    dtheta: float = 0.0
    dwell: float = 0.0
    freq_phi: float = 0.5
    freq_theta: float = 0.5
    phase_phi: float = 0.0
    phase_theta: float = 0.0


class VirtualOperator:
    """Stateful wrench source driving one simulated session.

    Owns its RNG; identical (model, seed, input stream) produce bit-identical
    wrench sequences.
    """

    def __init__(self, model: OperatorModel, tool_axis_local: Vec3 = Vec3(0.0, 0.0, 1.0)):
        self.model = model
        self.tool_axis_local = tool_axis_local
        self._rng = np.random.default_rng(model.seed)
        self._target_idx: Optional[int] = None
        self._target_t0 = 0.0
        self._grab_t = 0.0
        self._mode = _MODE_AIM
        self._mode_t0 = 0.0
        self._draws = _TargetDraws()
        self._push_axis: Optional[Vec3] = None

    # -- session bookkeeping -------------------------------------------------

    def begin_target(self, index: int, target: DrillTarget, t: float) -> None:
        """Draw this target's residual error and dwell; called by the engine
        whenever a new target becomes active."""
        self._target_idx = index
        self._target_t0 = t
        self._mode = _MODE_AIM
        self._mode_t0 = t
        self._push_axis = None
        m = self.model
        if m.variant == "manual":
            dphi = float(self._rng.normal(0.0, m.angular_noise))
            # keep the aimed polar angle in a drillable range; a human would
            # not overshoot past the surface normal into the mirror azimuth
            dphi = max(1.0 - target.phi_deg, min(89.0 - target.phi_deg, dphi))
            dtheta = float(self._rng.normal(0.0, m.angular_noise))
            dwell = m.align_dwell + float(
                self._rng.uniform(-m.align_dwell_jitter, m.align_dwell_jitter)
            )
            self._draws = _TargetDraws(
                dphi=dphi,
                dtheta=dtheta,
                dwell=max(0.5, dwell),
                freq_phi=float(self._rng.uniform(0.3, 0.7)),
                freq_theta=float(self._rng.uniform(0.3, 0.7)),
                phase_phi=float(self._rng.uniform(0.0, 2.0 * math.pi)),
                phase_theta=float(self._rng.uniform(0.0, 2.0 * math.pi)),
            )
        else:
            self._draws = _TargetDraws()

    def notify_grab(self, t: float) -> None:
        """Re-grabbing the handle (session start, end of locked alignment)."""
        self._grab_t = t

    # -- wrench generation ---------------------------------------------------

    def wrench(
        self,
        pose: Pose,
        twist: Twist6,
        phase: GuidancePhase,
        target: DrillTarget,
        t: float,
    ) -> Wrench6:
        if phase is _AUTO_ALIGN:
            return _ZERO_WRENCH  # "Please do not touch the robot"
        if phase is _TARGET_DONE:
            return _ZERO_WRENCH
        if self.model.variant == "guided":
            return self._guided_wrench(pose, twist, phase, target, t)
        return self._manual_wrench(pose, twist, phase, target, t)

    def _ramp(self, t: float) -> float:
        """max(0.0, min(1.0, (t - grab) / delay)), NaN included."""
        d = self.model.reaction_delay
        if d <= 0.0:
            return 1.0
        r = (t - self._grab_t) / d
        if not r < 1.0:
            return 1.0
        return r if r > 0.0 else 0.0

    def _guided_wrench(self, pose, twist, phase, target, t):
        # over plain floats, each operation in the order of the Vec3 method
        # chain it replaces (scale, subtract, _cap, scale)
        m = self.model
        g = self._ramp(t)
        if phase is _FREE_MOTION or phase is _APPROACH:
            (tx, ty, tz), (px, py, pz) = target.point, pose.position
            vx, vy, vz = twist.linear
            kp, kd = m.k_p, m.k_d
            fx, fy, fz = _cap(
                kp * (tx - px) - kd * vx, kp * (ty - py) - kd * vy, kp * (tz - pz) - kd * vz,
                m.force_cap,
            )
            return _new(Wrench6, (_new(Vec3, (g * fx, g * fy, g * fz)), _ZERO3))
        if phase is _CONSTRAINED_DRILL:
            s = g * min(m.push_force, m.force_cap)
        elif phase is _RETRACT:
            s = -g * min(m.push_force, m.force_cap)
        else:
            return _ZERO_WRENCH
        ux, uy, uz = target.axis
        return _new(Wrench6, (_new(Vec3, (s * ux, s * uy, s * uz)), _ZERO3))

    def _manual_wrench(self, pose, twist, phase, target, t):
        # over plain floats, each operation in the order of the Vec3 method
        # chain it replaces (rotate, rotation_between, _canonical, the
        # rotation vector, _cap), so the wrench stream keeps its bits
        m = self.model
        g = self._ramp(t)
        if self._mode != _MODE_PULL:
            # tool axis in the world: rotate(pose.orientation, tool_axis_local)
            ow, ox, oy, oz = pose.orientation
            vx, vy, vz = self.tool_axis_local
            sx = 2.0 * (oy * vz - oz * vy)
            sy = 2.0 * (oz * vx - ox * vz)
            sz = 2.0 * (ox * vy - oy * vx)
            ux = vx + ow * sx + oy * sz - oz * sy
            uy = vy + ow * sy + oz * sx - ox * sz
            uz = vz + ow * sz + ox * sy - oy * sx
        if self._mode == _MODE_AIM or self._mode == _MODE_DWELL:
            ax, ay, az = self._aim_axis(target, t)
            tp, p = target.point, pose.position
            # standoff point minus the tip
            ex = (tp.x - _PREDRILL_STANDOFF * ax) - p.x
            ey = (tp.y - _PREDRILL_STANDOFF * ay) - p.y
            ez = (tp.z - _PREDRILL_STANDOFF * az) - p.z
            cx, cy, cz = uy * az - uz * ay, uz * ax - ux * az, ux * ay - uy * ax
            d = ux * ax + uy * ay + uz * az
            if (
                self._mode == _MODE_AIM
                and not math.sqrt(ex * ex + ey * ey + ez * ez) > _AIM_RADIUS
                and math.atan2(math.sqrt(cx * cx + cy * cy + cz * cz), d) <= _AIM_ANGLE
            ):
                self._mode = _MODE_DWELL
                self._mode_t0 = t
        if self._mode == _MODE_DWELL and (t - self._mode_t0) >= self._draws.dwell:
            self._mode = _MODE_PUSH
            self._mode_t0 = t
            self._push_axis = self._final_axis(target)  # wrist locked for the push
        if self._mode == _MODE_PUSH and phase is _RETRACT:
            self._mode = _MODE_PULL
            self._mode_t0 = t
        mode = self._mode
        if mode == _MODE_PULL:
            # pull back out along the same axis
            axis = self._push_axis if self._push_axis is not None else self._aim_axis(target, t)
            f = axis.scale(-min(m.push_force, m.force_cap))
            return Wrench6(f.scale(g), Vec3.zero())
        if mode == _MODE_PUSH:
            ax, ay, az = self._push_axis
            cx, cy, cz = uy * az - uz * ay, uz * ax - ux * az, ux * ay - uy * ax
            d = ux * ax + uy * ay + uz * az

        # correcting rotation from the tool axis onto the desired axis
        if d < -1.0 + 1e-12:
            qw, qx, qy, qz = rotation_between(_new(Vec3, (ux, uy, uz)), _new(Vec3, (ax, ay, az)))
        else:
            # rotation_between's half-angle construction, normalised as in
            # _canonical; 1 + d > 0 here, so its sign rule never flips it
            c0 = 1.0 + d
            n = math.sqrt(c0 * c0 + cx * cx + cy * cy + cz * cz)
            if n == 0.0 or not math.isfinite(n):
                raise GeometryError("quaternion norm is zero or non-finite")
            qw, qx, qy, qz = c0 / n, cx / n, cy / n, cz / n
        # its rotation vector, then the PD torque
        vn = math.sqrt(qx**2 + qy**2 + qz**2)
        if vn < 1e-12:
            rx = ry = rz = 0.0
        else:
            s = 2.0 * math.atan2(vn, qw) / vn
            rx, ry, rz = s * qx, s * qy, s * qz
        w = twist.angular
        kp, kd = m.torque_k_p, m.torque_k_d
        tx, ty, tz = _cap(kp * rx - kd * w.x, kp * ry - kd * w.y, kp * rz - kd * w.z, m.torque_cap)
        torque = _new(Vec3, (g * tx, g * ty, g * tz))

        if mode == _MODE_PUSH:
            s = min(m.push_force, m.force_cap)
            force = _new(Vec3, (g * (s * ax), g * (s * ay), g * (s * az)))
        else:
            v = twist.linear
            fx, fy, fz = _cap(
                m.k_p * ex - m.k_d * v.x, m.k_p * ey - m.k_d * v.y, m.k_p * ez - m.k_d * v.z,
                m.force_cap,
            )
            force = _new(Vec3, (g * fx, g * fy, g * fz))
        return _new(Wrench6, (force, torque))

    def _final_axis(self, target: DrillTarget) -> Vec3:
        d = self._draws
        phi = min(89.0, max(1.0, target.phi_deg + d.dphi))
        return drilling_axis(target.frame, phi, target.theta_deg + d.dtheta)

    def _aim_axis(self, target: DrillTarget, t: float) -> Vec3:
        """Perceived drilling axis: final residual plus a decaying wander
        (the operator iteratively correcting against the displayed error)."""
        d = self._draws
        tau = t - self._target_t0
        amp = self.model.angular_noise * math.exp(-tau / 4.0)
        wob_phi = amp * math.sin(2.0 * math.pi * d.freq_phi * tau + d.phase_phi)
        wob_theta = amp * math.sin(2.0 * math.pi * d.freq_theta * tau + d.phase_theta)
        phi = min(89.0, max(1.0, target.phi_deg + d.dphi + wob_phi))
        return drilling_axis(target.frame, phi, target.theta_deg + d.dtheta + wob_theta)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def environment_wrench(
    tip: Pose,
    twist: Twist6,
    surface: Surface,
    target: DrillTarget,
    hole_depth: float,
    model: EnvironmentModel,
) -> Tuple[Wrench6, bool, float]:
    """Workpiece reaction at the drill tip.

    Returns (wrench, collision, axial_position). ``collision`` flags
    off-target penetration beyond 5 mm. ``axial_position`` is the tip's
    coordinate along the drilling axis, measured from the target point
    (negative on the operator's side).

    On-target the reaction is a cutting resistance proportional to the feed
    rate (only while advancing on uncut material) plus a spring at the
    uncut bottom; off-target it is a rectified spring-damper along the
    outward normal. Neither branch can inject net energy over a cycle.
    """
    p = tip.position
    tp = target.point
    axis = target.axis
    ux, uy, uz = axis
    rx, ry, rz = p.x - tp.x, p.y - tp.y, p.z - tp.z
    ax_pos = rx * ux + ry * uy + rz * uz
    lx, ly, lz = rx - ax_pos * ux, ry - ax_pos * uy, rz - ax_pos * uz
    on_target = math.sqrt(lx * lx + ly * ly + lz * lz) <= model.hole_radius

    if on_target:
        if ax_pos <= 0.0:
            return _ZERO_WRENCH, False, ax_pos
        v = twist.linear
        feed = v.x * ux + v.y * uy + v.z * uz
        f_mag = 0.0
        # at the cutting face: the material resists the feed; strictly
        # beyond it: bearing spring
        if feed > 0.0 and ax_pos >= hole_depth - CUT_FACE_TOLERANCE:
            f_mag += model.cut_resistance * feed
        bottom_pen = ax_pos - hole_depth
        if bottom_pen > 0.0:
            f_mag += model.contact_stiffness * bottom_pen
        force = axis.scale(-f_mag)
        return _new(Wrench6, (force, _ZERO3)), False, ax_pos

    sd = surface.signed_distance(p)
    if sd >= 0.0:
        return _ZERO_WRENCH, False, ax_pos
    pen = -sd
    _, n_out = surface.closest_point(p)
    pen_rate = -twist.linear.dot(n_out)
    f_mag = model.contact_stiffness * pen + model.contact_damping * pen_rate
    f_mag = max(0.0, f_mag)  # the surface can only push
    return _new(Wrench6, (n_out.scale(f_mag), _ZERO3)), pen > 0.005, ax_pos
