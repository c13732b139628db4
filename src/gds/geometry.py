"""Rigid-body math primitives: vectors, unit quaternions, frames, twists, wrenches.

Conventions
-----------
- Quaternions are scalar-first (w, x, y, z) and canonicalized to w >= 0
  after every constructing operation, so logged orientations are
  bit-reproducible across runs.
- Angles are radians unless a name says otherwise.
- Frames are right-handed orthonormal triads (u, w, n) with u x w = n.

Everything here is immutable plain data; values can be moved between
threads freely. Set-up values are the NamedTuples below. A value that lives
for one control period is a plain nested float tuple instead: a pose is
``((x, y, z), (w, x, y, z))``, a twist or a wrench
``((x, y, z), (x, y, z))``, a direction such as the hand's aim or push
axis ``(x, y, z)``. So is every set-up value a step unpacks: each is copied
into an exact tuple once, where it is set up (the hole's entry and axis,
the hand's copies of its target, a surface's center or axis, an alignment
plan's start, delta, rotation vector and arc, the gain table's rows).
CPython's fast paths build and unpack exact tuples only: on Python 3.11.7
building a ``Vec3``, even through ``tuple.__new__``, took 228 ns against
35 ns for a tuple literal, and unpacking a ``Vec3`` into three names 53 ns
against 18 ns for a plain 3-tuple (a timing loop of 11 ns a pass
included). Every function the step calls reads its arguments by position,
so a NamedTuple argument gives the same bits, only on the slower path.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import GeometryError

_UNIT_TOL = 1e-9


class Vec3(NamedTuple):
    x: float
    y: float
    z: float

    def __add__(self, o: "Vec3") -> "Vec3":
        return Vec3(self.x + o.x, self.y + o.y, self.z + o.z)

    def __sub__(self, o: "Vec3") -> "Vec3":
        return Vec3(self.x - o.x, self.y - o.y, self.z - o.z)

    def __neg__(self) -> "Vec3":
        return Vec3(-self.x, -self.y, -self.z)

    def scale(self, s: float) -> "Vec3":
        return Vec3(s * self.x, s * self.y, s * self.z)

    def dot(self, o: "Vec3") -> float:
        return self.x * o.x + self.y * o.y + self.z * o.z

    def cross(self, o: "Vec3") -> "Vec3":
        return Vec3(
            self.y * o.z - self.z * o.y,
            self.z * o.x - self.x * o.z,
            self.x * o.y - self.y * o.x,
        )

    def norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def normalized(self) -> "Vec3":
        n = self.norm()
        if n == 0.0:
            raise GeometryError("cannot normalize a zero vector")
        return Vec3(self.x / n, self.y / n, self.z / n)

    @staticmethod
    def zero() -> "Vec3":
        return Vec3(0.0, 0.0, 0.0)


BASIS = (Vec3(1.0, 0.0, 0.0), Vec3(0.0, 1.0, 0.0), Vec3(0.0, 0.0, 1.0))


def any_perpendicular(v: Vec3) -> Vec3:
    """A deterministic unit vector perpendicular to unit vector v: the
    basis vector along which v has its smallest absolute component (the
    first such), with its component along v removed."""
    comps = (abs(v.x), abs(v.y), abs(v.z))
    pick = BASIS[comps.index(min(comps))]
    return (pick - v.scale(pick.dot(v))).normalized()


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
        w, x, y, z = o
        d = abs(self.w * w + self.x * x + self.y * y + self.z * z)
        return 2.0 * math.acos(min(1.0, d))

    def norm(self) -> float:
        return math.sqrt(self.w**2 + self.x**2 + self.y**2 + self.z**2)


def canonical_wxyz(w: float, x: float, y: float, z: float) -> tuple:
    """(w, x, y, z) normalized to a unit quaternion with the canonical sign,
    as a plain tuple: the one canonicalisation rule, which ``_canonical``
    and the control period share."""
    n = math.sqrt(w * w + x * x + y * y + z * z)
    if n == 0.0 or not math.isfinite(n):
        raise GeometryError("quaternion norm is zero or non-finite")
    w, x, y, z = w / n, x / n, y / n, z / n
    if w < 0.0 or (w == 0.0 and (x < 0.0 or (x == 0.0 and (y < 0.0 or (y == 0.0 and z < 0.0))))):
        return -w, -x, -y, -z
    return w, x, y, z


def _canonical(w: float, x: float, y: float, z: float) -> UnitQuat:
    return UnitQuat(*canonical_wxyz(w, x, y, z))


_IDENTITY_QUAT = UnitQuat(1.0, 0.0, 0.0, 0.0)


def rotate(q: UnitQuat, v: Vec3) -> Vec3:
    """Rotate v by q (active rotation, world frame)."""
    # q * (0, v) * q^-1 expanded; cheaper than building the matrix
    w, qx, qy, qz = q
    tx = 2.0 * (qy * v.z - qz * v.y)
    ty = 2.0 * (qz * v.x - qx * v.z)
    tz = 2.0 * (qx * v.y - qy * v.x)
    return Vec3(
        v.x + w * tx + qy * tz - qz * ty,
        v.y + w * ty + qz * tx - qx * tz,
        v.z + w * tz + qx * ty - qy * tx,
    )


# the two branches of a slerp, the first item of a slerp_arc
_NLERP, _ARC = range(2)


def slerp_arc(q0: UnitQuat, q1: UnitQuat) -> tuple:
    """The shortest-arc spherical interpolation from q0 to q1, as the part
    that does not depend on t: the branch it takes and that branch's
    constants. ``slerp_at(slerp_arc(q0, q1), t)`` is the slerp at t.

    - ``(_NLERP, q0, q1')`` when the endpoints coincide;
    - ``(_ARC, q0, q1', theta, sin theta)`` otherwise.

    q1' is q1 with its sign flipped if needed, so that the arc is the
    shortest one. Both endpoints are stored as plain (w, x, y, z) tuples,
    which ``slerp_at`` unpacks on every locked step. Endpoints a half-turn
    apart (q0 . q1 = 0) need no branch of their own: there theta = pi/2 and
    sin theta = 1, so the arc is well conditioned. Of the two shortest arcs
    it takes the one the sign of q0 . q1 picks.
    """
    d = q0.w * q1.w + q0.x * q1.x + q0.y * q1.y + q0.z * q1.z
    w1, x1, y1, z1 = q1
    if d < 0.0:
        d, w1, x1, y1, z1 = -d, -w1, -x1, -y1, -z1
    if d > 1.0 - 1e-12:
        # endpoints coincide: nlerp is exact enough and avoids 0/0
        return (_NLERP, tuple(q0), (w1, x1, y1, z1))
    theta = math.acos(d)
    return (_ARC, tuple(q0), (w1, x1, y1, z1), theta, math.sin(theta))


def slerp_at(arc: tuple, t: float) -> tuple:
    """The orientation at t in [0, 1] on an arc from ``slerp_arc``, as a
    plain (w, x, y, z) tuple."""
    if arc[0] == _ARC:
        _, (w0, x0, y0, z0), (w1, x1, y1, z1), theta, s = arc
        c0 = math.sin((1.0 - t) * theta) / s
        c1 = math.sin(t * theta) / s
        return canonical_wxyz(
            c0 * w0 + c1 * w1, c0 * x0 + c1 * x1, c0 * y0 + c1 * y1, c0 * z0 + c1 * z1
        )
    _, (w0, x0, y0, z0), (w1, x1, y1, z1) = arc
    return canonical_wxyz(
        w0 + t * (w1 - w0), x0 + t * (x1 - x0), y0 + t * (y1 - y0), z0 + t * (z1 - z0)
    )


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
        return Twist6(Vec3.zero(), Vec3.zero())


class Wrench6(NamedTuple):
    force: Vec3
    torque: Vec3

    @staticmethod
    def zero() -> "Wrench6":
        return Wrench6(Vec3.zero(), Vec3.zero())

    def __add__(self, o: "Wrench6") -> "Wrench6":
        return Wrench6(self.force + o.force, self.torque + o.torque)


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
        return UnitQuat.from_axis_angle(any_perpendicular(a), math.pi)
    # q = (1 + d, a x b) normalized is the half-angle construction
    return _canonical(1.0 + d, c.x, c.y, c.z)
