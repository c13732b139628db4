"""Rigid-body math primitives: vectors, unit quaternions, frames, twists, wrenches.

Conventions
-----------
- Quaternions are scalar-first (w, x, y, z) and canonicalized to w >= 0
  after every constructing operation, so logged orientations are
  bit-reproducible across runs.
- Angles are radians unless a name says otherwise.
- Frames are right-handed orthonormal triads (u, w, n) with u x w = n.

Everything here is immutable plain data (NamedTuples); values can be moved
between threads freely.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import GeometryError

_UNIT_TOL = 1e-9

# A NamedTuple's generated __new__ is a Python-level function; calling
# tuple.__new__ directly builds the same value without that frame. The
# per-step arithmetic below constructs dozens of these per control period.
_new = tuple.__new__


class Vec3(NamedTuple):
    x: float
    y: float
    z: float

    def __add__(self, o: "Vec3") -> "Vec3":
        return _new(Vec3, (self.x + o.x, self.y + o.y, self.z + o.z))

    def __sub__(self, o: "Vec3") -> "Vec3":
        return _new(Vec3, (self.x - o.x, self.y - o.y, self.z - o.z))

    def __neg__(self) -> "Vec3":
        return _new(Vec3, (-self.x, -self.y, -self.z))

    def scale(self, s: float) -> "Vec3":
        return _new(Vec3, (s * self.x, s * self.y, s * self.z))

    def dot(self, o: "Vec3") -> float:
        return self.x * o.x + self.y * o.y + self.z * o.z

    def cross(self, o: "Vec3") -> "Vec3":
        return _new(Vec3, (
            self.y * o.z - self.z * o.y,
            self.z * o.x - self.x * o.z,
            self.x * o.y - self.y * o.x,
        ))

    def norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def normalized(self) -> "Vec3":
        n = self.norm()
        if n == 0.0:
            raise GeometryError("cannot normalize a zero vector")
        return _new(Vec3, (self.x / n, self.y / n, self.z / n))

    @staticmethod
    def zero() -> "Vec3":
        return _ZERO3


_ZERO3 = Vec3(0.0, 0.0, 0.0)


class UnitQuat(NamedTuple):
    """Unit quaternion, scalar-first, canonical sign w >= 0.

    If w == 0 the first nonzero vector component is made positive, so q
    and -q always map to the same stored value.
    """

    w: float
    x: float
    y: float
    z: float

    @staticmethod
    def identity() -> "UnitQuat":
        return _IDENTITY_QUAT

    @staticmethod
    def from_axis_angle(axis: Vec3, angle: float) -> "UnitQuat":
        a = axis.normalized()
        half = 0.5 * angle
        s = math.sin(half)
        return _canonical(math.cos(half), s * a.x, s * a.y, s * a.z)

    @staticmethod
    def from_rotvec(r: Vec3) -> "UnitQuat":
        """Exponential map of a rotation vector (axis * angle)."""
        angle = r.norm()
        if angle < 1e-12:
            # first-order expansion keeps the map smooth through zero
            return _canonical(1.0, 0.5 * r.x, 0.5 * r.y, 0.5 * r.z)
        s = math.sin(0.5 * angle) / angle
        return _canonical(math.cos(0.5 * angle), s * r.x, s * r.y, s * r.z)

    def conjugate(self) -> "UnitQuat":
        return UnitQuat(self.w, -self.x, -self.y, -self.z)

    def multiply(self, o: "UnitQuat") -> "UnitQuat":
        w1, x1, y1, z1 = self
        w2, x2, y2, z2 = o
        return _canonical(
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        )

    def angle_to(self, o: "UnitQuat") -> float:
        """Geodesic rotation angle between two orientations, in [0, pi]."""
        d = abs(self.w * o.w + self.x * o.x + self.y * o.y + self.z * o.z)
        return 2.0 * math.acos(min(1.0, d))

    def norm(self) -> float:
        return math.sqrt(self.w**2 + self.x**2 + self.y**2 + self.z**2)


def _canonical(w: float, x: float, y: float, z: float) -> UnitQuat:
    n = math.sqrt(w * w + x * x + y * y + z * z)
    if n == 0.0 or not math.isfinite(n):
        raise GeometryError("quaternion norm is zero or non-finite")
    w, x, y, z = w / n, x / n, y / n, z / n
    if w < 0.0 or (w == 0.0 and (x < 0.0 or (x == 0.0 and (y < 0.0 or (y == 0.0 and z < 0.0))))):
        w, x, y, z = -w, -x, -y, -z
    return _new(UnitQuat, (w, x, y, z))


_IDENTITY_QUAT = UnitQuat(1.0, 0.0, 0.0, 0.0)


def rotate(q: UnitQuat, v: Vec3) -> Vec3:
    """Rotate v by q (active rotation, world frame)."""
    # q * (0, v) * q^-1 expanded; cheaper than building the matrix
    w, qx, qy, qz = q
    tx = 2.0 * (qy * v.z - qz * v.y)
    ty = 2.0 * (qz * v.x - qx * v.z)
    tz = 2.0 * (qx * v.y - qy * v.x)
    return _new(Vec3, (
        v.x + w * tx + qy * tz - qz * ty,
        v.y + w * ty + qz * tx - qx * tz,
        v.z + w * tz + qx * ty - qy * tx,
    ))


def slerp(q0: UnitQuat, q1: UnitQuat, t: float) -> UnitQuat:
    """Shortest-arc spherical interpolation; t in [0, 1].

    Antipodal endpoints (rotation angle pi, interpolation axis undefined)
    are resolved deterministically by routing through a fixed intermediate
    axis: the basis vector least aligned with q0's vector part.
    """
    d = q0.w * q1.w + q0.x * q1.x + q0.y * q1.y + q0.z * q1.z
    w1, x1, y1, z1 = q1
    if d < 0.0:
        d, w1, x1, y1, z1 = -d, -w1, -x1, -y1, -z1
    if d > 1.0 - 1e-12:
        # endpoints coincide: nlerp is exact enough and avoids 0/0
        return _canonical(
            q0.w + t * (w1 - q0.w),
            q0.x + t * (x1 - q0.x),
            q0.y + t * (y1 - q0.y),
            q0.z + t * (z1 - q0.z),
        )
    if d < 1e-9:
        # antipodal: pick the deterministic halfway orientation and recurse
        axis = _least_aligned_axis(q0)
        q_half = q0.multiply(UnitQuat.from_axis_angle(axis, math.pi / 2.0))
        if t <= 0.5:
            return slerp(q0, q_half, 2.0 * t)
        return slerp(q_half, UnitQuat(w1, x1, y1, z1), 2.0 * t - 1.0)
    theta = math.acos(min(1.0, d))
    s = math.sin(theta)
    c0 = math.sin((1.0 - t) * theta) / s
    c1 = math.sin(t * theta) / s
    return _canonical(
        c0 * q0.w + c1 * w1,
        c0 * q0.x + c1 * x1,
        c0 * q0.y + c1 * y1,
        c0 * q0.z + c1 * z1,
    )


def _least_aligned_axis(q: UnitQuat) -> Vec3:
    comps = (abs(q.x), abs(q.y), abs(q.z))
    i = comps.index(min(comps))
    return (Vec3(1.0, 0.0, 0.0), Vec3(0.0, 1.0, 0.0), Vec3(0.0, 0.0, 1.0))[i]


def project_onto_axis(v: Vec3, axis: Vec3) -> Vec3:
    """Component of v along a unit axis: (v . axis) axis."""
    s = v.dot(axis)
    return Vec3(s * axis.x, s * axis.y, s * axis.z)


def angle_between(a: Vec3, b: Vec3) -> float:
    """Angle between two unit vectors, in [0, pi].

    Uses atan2(|a x b|, a . b) rather than acos of the clamped dot product:
    same range and no NaN at numerically-parallel inputs, but conditioning
    stays O(eps) near 0 and pi, where acos loses half the digits.
    """
    return math.atan2(a.cross(b).norm(), a.dot(b))


class Pose(NamedTuple):
    position: Vec3
    orientation: UnitQuat


class Twist6(NamedTuple):
    linear: Vec3
    angular: Vec3

    @staticmethod
    def zero() -> "Twist6":
        return _ZERO_TWIST


_ZERO_TWIST = Twist6(_ZERO3, _ZERO3)


class Wrench6(NamedTuple):
    force: Vec3
    torque: Vec3

    @staticmethod
    def zero() -> "Wrench6":
        return _ZERO_WRENCH

    def __add__(self, o: "Wrench6") -> "Wrench6":
        return _new(Wrench6, (self.force + o.force, self.torque + o.torque))


_ZERO_WRENCH = Wrench6(_ZERO3, _ZERO3)


class Frame3(NamedTuple):
    """Right-handed orthonormal frame at a point: axes u, w, n with u x w = n."""

    origin: Vec3
    u: Vec3
    w: Vec3
    n: Vec3


def make_frame(origin: Vec3, u: Vec3, w: Vec3, n: Vec3) -> Frame3:
    """Construct a Frame3, enforcing orthonormality and handedness."""
    for name, ax in (("u", u), ("w", w), ("n", n)):
        if abs(ax.norm() - 1.0) > _UNIT_TOL:
            raise GeometryError(f"frame axis {name} is not unit length")
    if (
        abs(u.dot(w)) > _UNIT_TOL
        or abs(u.dot(n)) > _UNIT_TOL
        or abs(w.dot(n)) > _UNIT_TOL
    ):
        raise GeometryError("frame axes are not mutually orthogonal")
    det = u.cross(w).dot(n)
    if abs(det - 1.0) > _UNIT_TOL:
        raise GeometryError("frame is not right-handed (u x w != n)")
    return Frame3(origin, u, w, n)


def rotation_between(a: Vec3, b: Vec3) -> UnitQuat:
    """Minimal rotation carrying unit vector a onto unit vector b.

    Opposite vectors get a deterministic 180-degree rotation about the
    basis vector least aligned with a.
    """
    c = a.cross(b)
    d = a.dot(b)
    if d < -1.0 + 1e-12:
        axis_candidates = (Vec3(1.0, 0.0, 0.0), Vec3(0.0, 1.0, 0.0), Vec3(0.0, 0.0, 1.0))
        comps = (abs(a.x), abs(a.y), abs(a.z))
        pick = axis_candidates[comps.index(min(comps))]
        perp = (pick - project_onto_axis(pick, a)).normalized()
        return UnitQuat.from_axis_angle(perp, math.pi)
    # q = (1 + d, a x b) normalized is the half-angle construction
    return _canonical(1.0 + d, c.x, c.y, c.z)
