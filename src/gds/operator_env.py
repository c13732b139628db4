"""Virtual operator and environment models closing the interaction loop.

The operator replaces the human hand: a PD pull toward the current goal
with force/torque caps, plus a constant axial push once drilling is
allowed. The session's condition picks one of two behaviours (``World``
passes ``guided`` for the ``with`` condition); the model holds only gains:

- guided: relies on the robot for fine alignment. Pulls the tool to the
  target, then pushes along the drilling axis. It is not asked during the
  locked alignment, when ``World`` takes the hand's wrench as zero.
- manual: must align by hand. Aims for the standoff pose while steering
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

from .geometry import Vec3, rotation_between
from .guidance import _APPROACH, _CONSTRAINED_DRILL, _FREE_MOTION, _RETRACT, GuidancePhase
from .workpiece import DrillTarget, Surface, drilling_axis


@dataclass(frozen=True)
class OperatorModel:
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
        for name in ("k_p", "k_d", "torque_k_p", "torque_k_d", "angular_noise",
                     "reaction_delay", "align_dwell", "align_dwell_jitter"):
            if not getattr(self, name) >= 0.0:
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
                     "thrust_threshold", "hole_radius"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"{name} must be non-negative")
        # a goal of no depth completes a target with no cut
        if not self.hole_depth_goal > 0.0:
            raise ValueError("hole_depth_goal must be positive")


# the tip is at the cutting face when it is at most this far (m) short of
# the hole's bottom: within one step of the uncut material
CUT_FACE_TOLERANCE = 1e-4


class Hole:
    """The hole at the active target: it enters the material at ``entry``
    along the unit ``axis``, carves out ``radius`` around it and is cut to
    ``depth`` (m), which only its construction and ``update_hole`` write.
    ``entry`` and ``axis`` are kept as plain (x, y, z) tuples, which every
    step unpacks."""

    __slots__ = ("entry", "axis", "radius", "depth")

    def __init__(self, entry: Vec3, axis: Vec3, radius: float):
        self.entry = tuple(entry)
        self.axis = tuple(axis)
        self.radius = radius
        self.depth = 0.0

    def coordinates(self, x: float, y: float, z: float) -> Tuple[float, bool, float]:
        """The point's coordinates in the hole's frame: ``ax_pos``, its
        position along the axis from the entry (positive into the
        material), ``on_target``, whether it is within ``radius`` of the
        axis, and its distance from the entry."""
        tx, ty, tz = self.entry
        ux, uy, uz = self.axis
        rx, ry, rz = x - tx, y - ty, z - tz
        ax_pos = rx * ux + ry * uy + rz * uz
        lx, ly, lz = rx - ax_pos * ux, ry - ax_pos * uy, rz - ax_pos * uz
        on_target = math.sqrt(lx * lx + ly * ly + lz * lz) <= self.radius
        return ax_pos, on_target, math.sqrt(rx * rx + ry * ry + rz * rz)

    def at_face(self, ax_pos: float) -> bool:
        """Whether a tip at ``ax_pos`` bears on uncut material: within
        ``CUT_FACE_TOLERANCE`` of the bottom, or beyond it."""
        return ax_pos >= self.depth - CUT_FACE_TOLERANCE


def update_hole(
    hole: Hole, ax_pos: float, axial_feed: float, axial_force: float, dt: float,
    model: EnvironmentModel,
) -> float:
    """Advance the cut and return the hole's new depth: it grows by
    feed*dt only while pushing hard enough (>= thrust threshold), feeding
    forward, and with the tip, at axial position ``ax_pos``, at the cutting
    face (``Hole.at_face``). Depth never decreases: the feed must be
    forward, and ``dt`` is the scenario's step, which ``Scenario`` checks."""
    if axial_force >= model.thrust_threshold and axial_feed > 0.0 and hole.at_face(ax_pos):
        hole.depth += axial_feed * dt
    return hole.depth


def _pd(kp: float, e: tuple, kd: float, v: tuple, cap: float, g: float) -> tuple:
    """The hand's capped, ramped PD action: ``kp e - kd v``, scaled down to
    norm ``cap`` if it is longer, then scaled by the grab ramp ``g``."""
    (ex, ey, ez), (vx, vy, vz) = e, v
    x, y, z = kp * ex - kd * vx, kp * ey - kd * vy, kp * ez - kd * vz
    n = math.sqrt(x * x + y * y + z * z)
    if n <= cap:
        return g * x, g * y, g * z
    s = cap / n
    return g * (s * x), g * (s * y), g * (s * z)


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

    dphi: float
    dtheta: float
    dwell: float
    freq_phi: float
    freq_theta: float
    phase_phi: float
    phase_theta: float


class VirtualOperator:
    """Stateful wrench source driving one simulated session.

    ``guided`` picks the behaviour. ``begin_target`` keeps plain copies of
    the target's point, axis and frame, which the hand reads every control
    period in place of the target's ``Vec3`` and ``Frame3`` fields; the
    guided operator draws nothing and keeps no other per-target state. The
    manual one owns a seeded RNG, and its ``begin_target`` also creates the
    target's start time, the draws, the mode (aim, dwell, push, pull) and
    the push axis, locked when the push starts. A dwell writes its start
    time ``_dwell_t0``, which only the dwell's end test reads. Identical
    (model, seed, ``guided``, input stream) produce bit-identical wrench
    sequences. ``_push`` is the push's force: ``push_force``, capped at
    ``force_cap``. The wrench, the tool axis and the aim and push axes are
    read every control period, so each is a plain tuple, never a NamedTuple
    (see ``geometry``).
    """

    def __init__(
        self, model: OperatorModel, tool_axis_local: Vec3 = Vec3(0.0, 0.0, 1.0), *, guided: bool
    ):
        m = self.model = model
        self.tool_axis_local = tuple(tool_axis_local)
        self.guided = guided
        self._push = min(m.push_force, m.force_cap)
        self._rng = None if guided else np.random.default_rng(model.seed)
        self._grab_t = 0.0

    # -- session bookkeeping -------------------------------------------------

    def begin_target(self, target: DrillTarget, t: float) -> None:
        """Keep plain copies of ``target``'s point, axis and frame, and start
        the manual mode machine on it: aim, with this target's residual
        error and dwell drawn. Called by the engine whenever a new target
        becomes active, and before any ``wrench``. The guided operator draws
        nothing."""
        self._point = tuple(target.point)
        self._axis = tuple(target.axis)
        self._frame = tuple(map(tuple, target.frame))
        if self.guided:
            return
        self._target_t0 = t
        self._mode = _MODE_AIM
        self._push_axis: Optional[tuple] = None
        m = self.model
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

    def notify_grab(self, t: float) -> None:
        """Re-grabbing the handle (session start, end of locked alignment)."""
        self._grab_t = t

    # -- wrench generation ---------------------------------------------------

    def wrench(
        self,
        pose: tuple,
        twist: tuple,
        phase: GuidancePhase,
        target: DrillTarget,
        t: float,
    ) -> tuple:
        """The hand's wrench in ``phase``, as a plain ``((fx, fy, fz),
        (tx, ty, tz))``. ``World`` does not ask during the locked
        alignment, and no step runs in TargetDone."""
        if self.guided:
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
        # chain it replaces (scale, subtract, cap, scale)
        m = self.model
        g = self._ramp(t)
        if phase is _FREE_MOTION or phase is _APPROACH:
            (tx, ty, tz), (px, py, pz) = self._point, pose[0]
            pull = _pd(m.k_p, (tx - px, ty - py, tz - pz), m.k_d, twist[0], m.force_cap, g)
            return pull, (0.0, 0.0, 0.0)
        # push while drilling, pull in Retract
        s = g * self._push if phase is _CONSTRAINED_DRILL else -g * self._push
        ux, uy, uz = self._axis
        return (s * ux, s * uy, s * uz), (0.0, 0.0, 0.0)

    def _manual_wrench(self, pose, twist, phase, target, t):
        # over plain floats, each operation in the order of the Vec3 method
        # chain it replaces (rotate, rotation_between, _canonical, the
        # rotation vector, the cap), so the wrench stream keeps its bits
        m = self.model
        g = self._ramp(t)
        # the mode first: a dwell is at least 0.5 s long, so one that starts
        # in this call (below) cannot also end in it
        if self._mode == _MODE_DWELL and (t - self._dwell_t0) >= self._draws.dwell:
            self._mode = _MODE_PUSH
            self._push_axis = self._final_axis(target)  # wrist locked for the push
        if self._mode == _MODE_PUSH and phase is _RETRACT:
            self._mode = _MODE_PULL
        mode = self._mode
        if mode == _MODE_PULL:
            # pull back out along the push axis
            s = -self._push
            ax, ay, az = self._push_axis
            return (g * (s * ax), g * (s * ay), g * (s * az)), (0.0, 0.0, 0.0)
        # tool axis in the world: rotate(pose orientation, tool_axis_local)
        (px, py, pz), (ow, ox, oy, oz) = pose
        lx, ly, lz = self.tool_axis_local
        sx = 2.0 * (oy * lz - oz * ly)
        sy = 2.0 * (oz * lx - ox * lz)
        sz = 2.0 * (ox * ly - oy * lx)
        ux = lx + ow * sx + oy * sz - oz * sy
        uy = ly + ow * sy + oz * sx - ox * sz
        uz = lz + ow * sz + ox * sy - oy * sx
        # the desired axis: the locked push axis, or the aim axis
        ax, ay, az = self._push_axis if mode == _MODE_PUSH else self._aim_axis(target, t)
        cx, cy, cz = uy * az - uz * ay, uz * ax - ux * az, ux * ay - uy * ax
        d = ux * ax + uy * ay + uz * az
        if mode != _MODE_PUSH:
            tpx, tpy, tpz = self._point
            # standoff point minus the tip
            ex = (tpx - _PREDRILL_STANDOFF * ax) - px
            ey = (tpy - _PREDRILL_STANDOFF * ay) - py
            ez = (tpz - _PREDRILL_STANDOFF * az) - pz
            if (
                mode == _MODE_AIM
                and not math.sqrt(ex * ex + ey * ey + ez * ez) > _AIM_RADIUS
                and math.atan2(math.sqrt(cx * cx + cy * cy + cz * cz), d) <= _AIM_ANGLE
            ):
                self._mode = _MODE_DWELL
                self._dwell_t0 = t

        # correcting rotation from the tool axis onto the desired axis
        if d < -1.0 + 1e-12:
            qw, qx, qy, qz = rotation_between(Vec3(ux, uy, uz), Vec3(ax, ay, az))
        else:
            # rotation_between's half-angle construction, normalised as in
            # _canonical; 1 + d > 1e-12 here, so its sign rule never flips
            # it, and the norm of these unit vectors' parts is finite and
            # at least that
            c0 = 1.0 + d
            n = math.sqrt(c0 * c0 + cx * cx + cy * cy + cz * cz)
            qw, qx, qy, qz = c0 / n, cx / n, cy / n, cz / n
        # its rotation vector, then the PD torque
        vn = math.sqrt(qx**2 + qy**2 + qz**2)
        if vn < 1e-12:
            rx = ry = rz = 0.0
        else:
            s = 2.0 * math.atan2(vn, qw) / vn
            rx, ry, rz = s * qx, s * qy, s * qz
        torque = _pd(m.torque_k_p, (rx, ry, rz), m.torque_k_d, twist[1], m.torque_cap, g)
        if mode == _MODE_PUSH:
            s = self._push
            return (g * (s * ax), g * (s * ay), g * (s * az)), torque
        return _pd(m.k_p, (ex, ey, ez), m.k_d, twist[0], m.force_cap, g), torque

    def _final_axis(self, target: DrillTarget, wob_phi=0.0, wob_theta=0.0) -> tuple:
        """Perceived drilling axis: the desired angles plus this target's
        residual error and a wander ``wob_phi``, ``wob_theta`` (deg), the
        polar angle kept in [1, 89] deg. With no wander it is the final
        axis, to the bit: ``x + 0.0`` is ``x`` unless ``x`` is -0.0, and
        neither angle sum here is."""
        d = self._draws
        phi = min(89.0, max(1.0, target.phi_deg + d.dphi + wob_phi))
        return drilling_axis(self._frame, phi, target.theta_deg + d.dtheta + wob_theta)

    def _aim_axis(self, target: DrillTarget, t: float) -> tuple:
        """The final axis with a decaying wander (the operator iteratively
        correcting against the displayed error)."""
        d = self._draws
        tau = t - self._target_t0
        amp = self.model.angular_noise * math.exp(-tau / 4.0)
        wob_phi = amp * math.sin(2.0 * math.pi * d.freq_phi * tau + d.phase_phi)
        wob_theta = amp * math.sin(2.0 * math.pi * d.freq_theta * tau + d.phase_theta)
        return self._final_axis(target, wob_phi, wob_theta)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def environment_wrench(
    tip: tuple, twist: tuple, surface: Surface, hole: Hole, model: EnvironmentModel,
    ax_pos: float, on_target: bool,
) -> Tuple[tuple, bool]:
    """Workpiece reaction at the drill tip, whose pose is ``tip``.

    ``ax_pos`` and ``on_target`` are the tip's coordinates in ``hole``, as
    ``hole.coordinates`` gives them; the caller passes them in because
    ``World`` already holds them from the previous step. Returns (wrench,
    collision), the wrench a plain ``((fx, fy, fz), (tx, ty, tz))``.
    ``collision`` flags off-target penetration beyond 5 mm.

    On-target the reaction is a cutting resistance proportional to the feed
    rate (only while advancing at the cutting face) plus a spring at the
    uncut bottom; off-target it is a rectified spring-damper along the
    outward normal. The off-target penalty never pulls and is passive over
    a contact cycle (acceptance test C9). The cut term is explicit: it
    uses the feed at the start of the step, so it acts one step late, and
    at a large ``cut_resistance`` it throws the tip back off the face
    instead of slowing the cut.
    """
    if on_target:
        if ax_pos <= 0.0:
            return ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0)), False
        ux, uy, uz = hole.axis
        vx, vy, vz = twist[0]
        feed = vx * ux + vy * uy + vz * uz
        f_mag = 0.0
        # at the cutting face: the material resists the feed; strictly
        # beyond it: bearing spring
        if feed > 0.0 and hole.at_face(ax_pos):
            f_mag += model.cut_resistance * feed
        bottom_pen = ax_pos - hole.depth
        if bottom_pen > 0.0:
            f_mag += model.contact_stiffness * bottom_pen
        s = -f_mag
        return ((s * ux, s * uy, s * uz), (0.0, 0.0, 0.0)), False

    p = tip[0]
    # inside the surface's clearance ball the query would give sd > 0
    if surface.certified_clear(p):
        return ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0)), False
    sd = surface.signed_distance(p)
    if sd >= 0.0:
        return ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0)), False
    pen = -sd
    _, (nx, ny, nz) = surface.closest_point(p)
    vx, vy, vz = twist[0]
    pen_rate = -(vx * nx + vy * ny + vz * nz)
    f_mag = model.contact_stiffness * pen + model.contact_damping * pen_rate
    f_mag = max(0.0, f_mag)  # the surface can only push
    return ((f_mag * nx, f_mag * ny, f_mag * nz), (0.0, 0.0, 0.0)), pen > 0.005
