"""Curved-surface geometry: tangent-plane estimation, target frames, and the
drilling axis expressed in polar/azimuth angles.

Conventions
-----------
- ``surface_normal`` returns the outward geometric normal (away from the
  material). Target frames instead carry the *drilling-side* normal n_d,
  pointing into the material, so that the drilling axis
  ``a = cos(phi) n + sin(phi) (cos(theta) u + sin(theta) w)`` is the feed
  direction and the pre-drill standoff pose sits at ``point - standoff * a``
  on the operator's side.
- theta is measured from u_d toward w_d; u_d is the projection of a
  configurable global reference direction (default +x) into the tangent
  plane, which keeps theta reproducible across runs.
- Meshes are ingested in robot-base coordinates and meters (ASCII STL /
  OFF).

Surfaces are immutable after load and safe to share across parallel runs.
The one exception is a mesh's closest-point hint, which is result-neutral:
every query returns the same bits whatever the hint holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .errors import GeometryError
from .geometry import Frame3, Vec3, make_frame

_GLOBAL_AXES = (Vec3(1.0, 0.0, 0.0), Vec3(0.0, 1.0, 0.0), Vec3(0.0, 0.0, 1.0))


# ---------------------------------------------------------------------------
# surfaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpherePatch:
    """Solid sphere section; material is the interior."""

    center: Vec3
    radius: float

    def __post_init__(self):
        if not self.radius > 0.0:
            raise GeometryError("sphere radius must be positive")

    def closest_point(self, p: Vec3) -> Tuple[Vec3, Vec3]:
        r = p - self.center
        d = r.norm()
        if d == 0.0:
            n = Vec3(0.0, 0.0, 1.0)
        else:
            n = r.scale(1.0 / d)
        return self.center + n.scale(self.radius), n

    def signed_distance(self, p: Vec3) -> float:
        """Positive outside the material, negative inside."""
        return (p - self.center).norm() - self.radius


@dataclass(frozen=True)
class CylinderPatch:
    """Solid cylinder section; material is the interior. ``axis_dir`` is the
    cylinder axis direction (unit), ``axis_point`` a point on the axis."""

    axis_point: Vec3
    axis_dir: Vec3
    radius: float
    half_length: float = math.inf

    def __post_init__(self):
        if not self.radius > 0.0:
            raise GeometryError("cylinder radius must be positive")
        object.__setattr__(self, "axis_dir", self.axis_dir.normalized())

    def closest_point(self, p: Vec3) -> Tuple[Vec3, Vec3]:
        rel = p - self.axis_point
        h = rel.dot(self.axis_dir)
        radial = rel - self.axis_dir.scale(h)
        d = radial.norm()
        if d == 0.0:
            # on the axis: any radial direction; pick deterministically
            n = _any_perpendicular(self.axis_dir)
        else:
            n = radial.scale(1.0 / d)
        h = max(-self.half_length, min(self.half_length, h))
        foot = self.axis_point + self.axis_dir.scale(h)
        return foot + n.scale(self.radius), n

    def signed_distance(self, p: Vec3) -> float:
        # closest_point's radial offset, over plain floats
        a, d = self.axis_point, self.axis_dir
        rx, ry, rz = p.x - a.x, p.y - a.y, p.z - a.z
        h = rx * d.x + ry * d.y + rz * d.z
        qx, qy, qz = rx - h * d.x, ry - h * d.y, rz - h * d.z
        return math.sqrt(qx * qx + qy * qy + qz * qz) - self.radius


# Triangles per leaf of the bounding-box tree.
_LEAF_SIZE = 4
# Each triangle's box is padded by this fraction of its largest coordinate
# or edge component. Ericson's test can place a point outside its
# triangle only by rounding, and the pad is far wider than that rounding
# for any triangle that is not a near-zero-area sliver. With every
# computed closest point inside its boxes, a box's computed squared
# distance never exceeds the point's (rounding is monotone and both sums
# run over x, y, z in order), so culling never drops the scan's winner.
_BOX_PAD = 1e-7
# A closest point within this distance of a vertex or an edge takes that
# feature's pseudonormal.
_FEATURE_TOL = 1e-9


def _largest_square_within(tol: float) -> float:
    """The largest double x with sqrt(x) <= tol. A correctly rounded sqrt
    is monotone, so ``d2 <= x`` holds exactly when ``sqrt(d2) <= tol``."""
    x = tol * tol
    while math.sqrt(x) > tol:
        x = math.nextafter(x, 0.0)
    while math.sqrt(math.nextafter(x, math.inf)) <= tol:
        x = math.nextafter(x, math.inf)
    return x


_FEATURE_TOL2 = _largest_square_within(_FEATURE_TOL)
# The closest-point hint: after a tree walk, the triangles within the
# winner's distance plus _HINT_REACH (m) of the query point are kept if they
# are at most _HINT_SIZE, and answer the following queries that stay near.
# Chosen by replaying recorded mesh_guided queries (the tip moves about
# 2e-5 m between queries); six covers the triangles around a grid vertex.
_HINT_REACH = 1e-3
_HINT_SIZE = 6


@dataclass(frozen=True)
class TriangleMesh:
    """Indexed triangle mesh, consistently oriented with outward normals.

    Closest-point queries return exactly the point and normal of an
    exhaustive scan over all triangles, ties going to the lowest triangle
    index. A query first tries the hint: the few triangles near the last
    walked query, accepted only when their winner is provably nearer than
    every other triangle. Otherwise it walks a bounding-box tree built at
    load and stores a new hint. The hint is the mesh's only mutable state;
    it is read once and replaced whole, and any hint, stale or written by
    another session or thread, yields the scan's answer. Normals are the
    angle-weighted pseudonormals (Baerentzen & Aanaes 2005), precomputed
    at load.
    """

    vertices: tuple  # of Vec3
    triangles: tuple  # of (i, j, k)
    _face_normals: tuple = field(default=(), compare=False)
    # per triangle: a, b, c, b - a, c - a, c - b as 18 floats
    _corners: tuple = field(init=False, compare=False, repr=False)
    # per triangle: face, vertex a/b/c and edge ab/bc/ca normals; None
    # where the incident normals sum to zero
    _normals: tuple = field(init=False, compare=False, repr=False)
    # root node (lo xyz, hi xyz, left, right); a leaf has left None and
    # its triangle indices as right
    _tree: tuple = field(init=False, compare=False, repr=False)
    # (p0 xyz, nearby triangle indices ascending, bound) or None
    _hint: Optional[tuple] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        nv = len(self.vertices)
        if nv < 3 or not self.triangles:
            raise GeometryError("mesh needs at least one triangle")
        normals = []
        corners = []
        for tri in self.triangles:
            if len(tri) != 3 or any(not (0 <= i < nv) for i in tri):
                raise GeometryError(f"triangle {tri} references invalid vertices")
            a, b, c = (self.vertices[i] for i in tri)
            n = (b - a).cross(c - a)
            if n.norm() == 0.0:
                raise GeometryError(f"degenerate triangle {tri}")
            normals.append(n.normalized())
            corners.append(tuple(map(float, (*a, *b, *c, *(b - a), *(c - a), *(c - b)))))
        object.__setattr__(self, "_face_normals", tuple(normals))
        object.__setattr__(self, "_corners", tuple(corners))
        object.__setattr__(self, "_normals", self._pseudo_normals())
        object.__setattr__(self, "_tree", _build_tree(corners))
        object.__setattr__(self, "_hint", None)

    def closest_point(self, p: Vec3) -> Tuple[Vec3, Vec3]:
        px, py, pz = p
        corners = self._corners
        hint = self._hint
        if hint is not None:
            # Every triangle outside ``near`` is farther than ``bound``, with
            # a rounding margin, from p0, so farther than ``bound - moved``
            # from p. A winner in ``near`` nearer than that beats them all:
            # it is the exhaustive scan's winner.
            (hx, hy, hz), near, bound = hint
            dx, dy, dz = px - hx, py - hy, pz - hz
            moved = math.sqrt(dx * dx + dy * dy + dz * dz)
            if moved < bound:
                best_d2 = math.inf
                for idx in near:  # ascending: the first of equal d2 wins
                    q = _closest_on_triangle(px, py, pz, corners[idx])
                    dx, dy, dz = px - q[0], py - q[1], pz - q[2]
                    d2 = dx * dx + dy * dy + dz * dz
                    if d2 < best_d2:
                        best_d2, best_idx, best_q = d2, idx, q
                if math.sqrt(best_d2) + moved < bound:
                    return tuple.__new__(Vec3, best_q), self._pseudo_normal(best_q, best_idx)
        best_d2 = math.inf
        best_idx = -1
        best_q = None
        stack = [(0.0, self._tree)]
        while stack:
            box_d2, node = stack.pop()
            if box_d2 > best_d2:
                continue
            left, right = node[6], node[7]
            if left is None:
                for idx in right:
                    q = _closest_on_triangle(px, py, pz, corners[idx])
                    dx, dy, dz = px - q[0], py - q[1], pz - q[2]
                    d2 = dx * dx + dy * dy + dz * dz
                    if d2 < best_d2 or (d2 == best_d2 and idx < best_idx):
                        best_d2, best_idx, best_q = d2, idx, q
                continue
            dl = _box_d2(left, px, py, pz)
            dr = _box_d2(right, px, py, pz)
            # pushed last, popped first: the nearer child
            if dl <= dr:
                stack.append((dr, right))
                stack.append((dl, left))
            else:
                stack.append((dl, left))
                stack.append((dr, right))
        n = self._pseudo_normal(best_q, best_idx)
        self._remember(px, py, pz, math.sqrt(best_d2))
        return tuple.__new__(Vec3, best_q), n

    def _remember(self, px: float, py: float, pz: float, d0: float) -> None:
        """Replace the hint with the triangles within ``d0 + _HINT_REACH``
        (plus a rounding margin) of p, or clear it if they are more than
        ``_HINT_SIZE``."""
        tree = self._tree
        # dominates the rounding of any distance computed near the mesh
        tol = 1e-9 * (1.0 + abs(px) + abs(py) + abs(pz) + max(map(abs, tree[:6])))
        reach = d0 + _HINT_REACH
        limit = reach + tol
        corners = self._corners
        near = []
        stack = [tree]
        while stack:
            node = stack.pop()
            if math.sqrt(_box_d2(node, px, py, pz)) > limit:
                continue
            left, right = node[6], node[7]
            if left is not None:
                stack.append(left)
                stack.append(right)
                continue
            for idx in right:
                q = _closest_on_triangle(px, py, pz, corners[idx])
                dx, dy, dz = px - q[0], py - q[1], pz - q[2]
                if math.sqrt(dx * dx + dy * dy + dz * dz) <= limit:
                    near.append(idx)
            if len(near) > _HINT_SIZE:
                object.__setattr__(self, "_hint", None)
                return
        near.sort()
        object.__setattr__(self, "_hint", ((px, py, pz), tuple(near), reach - 3.0 * tol))

    def signed_distance(self, p: Vec3) -> float:
        (qx, qy, qz), (nx, ny, nz) = self.closest_point(p)
        # (p - q).dot(n), over plain floats
        return (p[0] - qx) * nx + (p[1] - qy) * ny + (p[2] - qz) * nz

    def _pseudo_normal(self, q: tuple, face_idx: int) -> Vec3:
        """Angle-weighted normal at the closest point: face normal in the
        interior, incident-face average at vertices/edges. A vertex or an
        edge is reached when ``sqrt(d2) <= _FEATURE_TOL``, tested exactly as
        ``d2 <= _FEATURE_TOL2``; ``_no_area`` raises where the incident
        normals cancel."""
        qx, qy, qz = q
        ax, ay, az, bx, by, bz, cx, cy, cz, abx, aby, abz, acx, acy, acz, bcx, bcy, bcz = (
            self._corners[face_idx]
        )
        face, na, nb, nc, n_ab, n_bc, n_ca = self._normals[face_idx]
        dx, dy, dz = qx - ax, qy - ay, qz - az
        if dx * dx + dy * dy + dz * dz <= _FEATURE_TOL2:
            return na or self._no_area(face_idx, 0)
        dx, dy, dz = qx - bx, qy - by, qz - bz
        if dx * dx + dy * dy + dz * dz <= _FEATURE_TOL2:
            return nb or self._no_area(face_idx, 1)
        dx, dy, dz = qx - cx, qy - cy, qz - cz
        if dx * dx + dy * dy + dz * dz <= _FEATURE_TOL2:
            return nc or self._no_area(face_idx, 2)
        # edges ab, bc, ca: foot of q at parameter t along origin + t * edge
        t = ((qx - ax) * abx + (qy - ay) * aby + (qz - az) * abz) / (
            abx * abx + aby * aby + abz * abz
        )
        dx, dy, dz = qx - (ax + t * abx), qy - (ay + t * aby), qz - (az + t * abz)
        if 0.0 <= t <= 1.0 and dx * dx + dy * dy + dz * dz <= _FEATURE_TOL2:
            return n_ab or self._no_area(face_idx, 0, 1)
        t = ((qx - bx) * bcx + (qy - by) * bcy + (qz - bz) * bcz) / (
            bcx * bcx + bcy * bcy + bcz * bcz
        )
        dx, dy, dz = qx - (bx + t * bcx), qy - (by + t * bcy), qz - (bz + t * bcz)
        if 0.0 <= t <= 1.0 and dx * dx + dy * dy + dz * dz <= _FEATURE_TOL2:
            return n_bc or self._no_area(face_idx, 1, 2)
        cax, cay, caz = -acx, -acy, -acz
        t = ((qx - cx) * cax + (qy - cy) * cay + (qz - cz) * caz) / (
            cax * cax + cay * cay + caz * caz
        )
        dx, dy, dz = qx - (cx + t * cax), qy - (cy + t * cay), qz - (cz + t * caz)
        if 0.0 <= t <= 1.0 and dx * dx + dy * dy + dz * dz <= _FEATURE_TOL2:
            return n_ca or self._no_area(face_idx, 2, 0)
        return face

    def _no_area(self, face_idx: int, *local: int):
        tri = self.triangles[face_idx]
        if len(local) == 1:
            raise GeometryError(f"vertex {tri[local[0]]} has no incident area")
        raise GeometryError(f"edge {(tri[local[0]], tri[local[1]])} has no incident area")

    def _pseudo_normals(self) -> tuple:
        """Per-triangle normal table, in one pass over incidence lists.
        Sums run in ascending triangle index from zero, so each normal has
        the bits a rescan of all triangles would give."""
        faces = self._face_normals
        incident: dict = {}
        for i, tri in enumerate(self.triangles):
            for v in tri:
                incident.setdefault(v, []).append(i)

        vertex_normals = {}
        for v, around in incident.items():
            total = Vec3.zero()
            for i in around:
                tri = self.triangles[i]
                j = tri.index(v)
                a = self.vertices[tri[j]]
                e1 = self.vertices[tri[(j + 1) % 3]] - a
                e2 = self.vertices[tri[(j + 2) % 3]] - a
                wedge = math.atan2(e1.cross(e2).norm(), e1.dot(e2))
                total = total + faces[i].scale(wedge)
            vertex_normals[v] = None if total.norm() == 0.0 else total.normalized()

        edge_normals: dict = {}

        def edge_normal(u, v):
            key = (min(u, v), max(u, v))
            if key not in edge_normals:
                shared = sorted(set(incident[u]).intersection(incident[v]))
                total = Vec3.zero()
                for i in shared:
                    total = total + faces[i]
                edge_normals[key] = None if total.norm() == 0.0 else total.normalized()
            return edge_normals[key]

        return tuple(
            (faces[i], vertex_normals[a], vertex_normals[b], vertex_normals[c],
             edge_normal(a, b), edge_normal(b, c), edge_normal(c, a))
            for i, (a, b, c) in enumerate(self.triangles)
        )


Surface = Union[SpherePatch, CylinderPatch, TriangleMesh]


def _any_perpendicular(v: Vec3) -> Vec3:
    comps = (abs(v.x), abs(v.y), abs(v.z))
    pick = _GLOBAL_AXES[comps.index(min(comps))]
    return (pick - v.scale(pick.dot(v))).normalized()


def _closest_on_triangle(px: float, py: float, pz: float, corners: tuple) -> tuple:
    # Ericson, Real-Time Collision Detection, 5.1.5; corners holds
    # a, b, c, ab = b - a, ac = c - a, bc = c - b as 18 floats
    ax, ay, az, bx, by, bz, cx, cy, cz, abx, aby, abz, acx, acy, acz, bcx, bcy, bcz = corners
    apx, apy, apz = px - ax, py - ay, pz - az
    d1 = abx * apx + aby * apy + abz * apz
    d2 = acx * apx + acy * apy + acz * apz
    if d1 <= 0.0 and d2 <= 0.0:
        return ax, ay, az
    bpx, bpy, bpz = px - bx, py - by, pz - bz
    d3 = abx * bpx + aby * bpy + abz * bpz
    d4 = acx * bpx + acy * bpy + acz * bpz
    if d3 >= 0.0 and d4 <= d3:
        return bx, by, bz
    vc = d1 * d4 - d3 * d2
    if vc <= 0.0 and d1 >= 0.0 and d3 <= 0.0:
        v = d1 / (d1 - d3)
        return ax + v * abx, ay + v * aby, az + v * abz
    cpx, cpy, cpz = px - cx, py - cy, pz - cz
    d5 = abx * cpx + aby * cpy + abz * cpz
    d6 = acx * cpx + acy * cpy + acz * cpz
    if d6 >= 0.0 and d5 <= d6:
        return cx, cy, cz
    vb = d5 * d2 - d1 * d6
    if vb <= 0.0 and d2 >= 0.0 and d6 <= 0.0:
        w = d2 / (d2 - d6)
        return ax + w * acx, ay + w * acy, az + w * acz
    va = d3 * d6 - d5 * d4
    if va <= 0.0 and (d4 - d3) >= 0.0 and (d5 - d6) >= 0.0:
        w = (d4 - d3) / ((d4 - d3) + (d5 - d6))
        return bx + w * bcx, by + w * bcy, bz + w * bcz
    denom = 1.0 / (va + vb + vc)
    v, w = vb * denom, vc * denom
    return ax + v * abx + w * acx, ay + v * aby + w * acy, az + v * abz + w * acz


def _box_d2(node: tuple, px: float, py: float, pz: float) -> float:
    """Squared distance from p to a tree node's box, summed over x, y, z in
    the order a closest point's squared distance is."""
    lox, loy, loz, hix, hiy, hiz, _, _ = node
    gx = lox - px if px < lox else (px - hix if px > hix else 0.0)
    gy = loy - py if py < loy else (py - hiy if py > hiy else 0.0)
    gz = loz - pz if pz < loz else (pz - hiz if pz > hiz else 0.0)
    return gx * gx + gy * gy + gz * gz


def _build_tree(corners: tuple) -> tuple:
    """Bounding-box tree over the triangles: each node splits at the median
    triangle centroid along the longest axis of its box."""
    boxes = []
    centroids = []  # three times each centroid
    for c in corners:
        pad = _BOX_PAD * max(map(abs, c))
        boxes.append(tuple(min(c[k], c[k + 3], c[k + 6]) - pad for k in range(3))
                     + tuple(max(c[k], c[k + 3], c[k + 6]) + pad for k in range(3)))
        centroids.append(tuple(c[k] + c[k + 3] + c[k + 6] for k in range(3)))

    def build(indices):
        lo = tuple(min(boxes[i][k] for i in indices) for k in range(3))
        hi = tuple(max(boxes[i][k] for i in indices) for k in range(3, 6))
        if len(indices) <= _LEAF_SIZE:
            return (*lo, *hi, None, tuple(sorted(indices)))
        axis = max(range(3), key=lambda k: hi[k] - lo[k])
        indices = sorted(indices, key=lambda i: (centroids[i][axis], i))
        mid = len(indices) // 2
        return (*lo, *hi, build(indices[:mid]), build(indices[mid:]))

    return build(list(range(len(corners))))


def surface_normal(surface: Surface, point: Vec3, tolerance: float = 0.005) -> Vec3:
    """Outward unit normal at a point on (or near) the surface.

    Faults if the point is farther than ``tolerance`` from the surface.
    """
    q, n = surface.closest_point(point)
    if (point - q).norm() > tolerance:
        raise GeometryError(
            f"point {tuple(point)} is {(point - q).norm():.4f} m from the surface "
            f"(tolerance {tolerance} m)"
        )
    return n


# ---------------------------------------------------------------------------
# sampled patches and plane fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SampledPatch:
    """Points probed with the drill tip around a target, used to estimate
    the local tangent plane."""

    points: tuple  # of Vec3

    def __post_init__(self):
        if len(self.points) < 3:
            raise GeometryError("a sampled patch needs at least 3 points")


@dataclass(frozen=True)
class PlaneFit:
    centroid: Vec3
    normal: Vec3
    rms_residual: float


def fit_plane(patch: SampledPatch, orient_along: Optional[Vec3] = None) -> PlaneFit:
    """Total-least-squares plane through the patch points.

    The normal is the covariance eigenvector with the smallest eigenvalue,
    so the fit has no preferred axis and commutes with rigid transforms.
    ``orient_along`` canonicalizes the sign (the fitted normal keeps a
    non-negative dot with it); by default the normal points away from the
    robot base at the origin, i.e. along the centroid direction.
    """
    pts = np.array([[p.x, p.y, p.z] for p in patch.points], dtype=float)
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    cov = centered.T @ centered
    evals, evecs = np.linalg.eigh(cov)
    # rank check: the two largest eigenvalues must carry actual spread
    scale2 = float(np.max(evals)) if np.max(evals) > 0 else 0.0
    if scale2 <= 0.0 or evals[1] <= 1e-12 * scale2:
        raise GeometryError(
            "sampled patch is rank-deficient (points are collinear or coincident); "
            "cannot determine a tangent plane"
        )
    normal = Vec3(*evecs[:, 0])
    cvec = Vec3(*centroid)
    ref = orient_along if orient_along is not None else cvec
    if ref.norm() > 0.0 and normal.dot(ref) < 0.0:
        normal = -normal
    rms = float(np.sqrt(np.mean((centered @ np.array(normal)) ** 2)))
    return PlaneFit(cvec, normal, rms)


# ---------------------------------------------------------------------------
# target frames and the drilling axis
# ---------------------------------------------------------------------------


def build_target_frame(point: Vec3, normal: Vec3, reference: Vec3) -> Frame3:
    """Frame at a drill target: n is the supplied normal, u the reference
    direction projected into the tangent plane, w = n x u.

    A reference parallel to the normal falls back to the global basis
    vectors in order; the output never depends on the reference's magnitude
    or its component along n.
    """
    n = normal.normalized()
    candidates = (reference,) + _GLOBAL_AXES
    for ref in candidates:
        if ref.norm() == 0.0:
            continue
        r = ref.normalized()
        if abs(n.dot(r)) >= 1.0 - 1e-6:
            continue
        u = (r - n.scale(r.dot(n))).normalized()
        w = n.cross(u)
        return make_frame(point, u, w, n)
    raise GeometryError("no usable reference direction for the target frame")


def drilling_axis(frame: Frame3, phi_deg: float, theta_deg: float) -> Vec3:
    """Unit drilling axis from polar angle phi (off the frame normal) and
    azimuth theta (from u toward w)."""
    if not (0.0 <= phi_deg <= 90.0):
        raise GeometryError(f"polar angle must be in [0, 90] deg, got {phi_deg}")
    phi = math.radians(phi_deg)
    theta = math.radians(theta_deg)
    sp, cp = math.sin(phi), math.cos(phi)
    st, ct = math.sin(theta), math.cos(theta)
    su, sw = sp * ct, sp * st
    n, u, w = frame.n, frame.u, frame.w
    # n cp + u sp ct + w sp st, summed left to right, then normalized
    x = cp * n.x + su * u.x + sw * w.x
    y = cp * n.y + su * u.y + sw * w.y
    z = cp * n.z + su * u.z + sw * w.z
    norm = math.sqrt(x * x + y * y + z * z)
    if norm == 0.0:
        raise GeometryError("cannot normalize a zero vector")
    return tuple.__new__(Vec3, (x / norm, y / norm, z / norm))


def recover_angles(axis: Vec3, frame: Frame3) -> Tuple[float, float]:
    """Invert ``drilling_axis``: (phi_deg, theta_deg) of a unit axis.

    theta is reported in [0, 360) and defined as 0 when the axis is within
    numerical parallel of the normal (sin(phi) < 1e-6).
    """
    from .geometry import angle_between

    phi = math.degrees(angle_between(axis, frame.n))
    if math.sin(math.radians(phi)) < 1e-6:
        return phi, 0.0
    theta = math.degrees(math.atan2(axis.dot(frame.w), axis.dot(frame.u)))
    if theta < 0.0:
        theta += 360.0
    return phi, theta


@dataclass(frozen=True)
class DrillTarget:
    """A hole to open: point on the workpiece, its target frame (with the
    drilling-side normal), desired angles, and the derived feed axis."""

    point: Vec3
    frame: Frame3
    phi_deg: float
    theta_deg: float
    axis: Vec3 = field(init=False)

    def __post_init__(self):
        ax = drilling_axis(self.frame, self.phi_deg, self.theta_deg)
        object.__setattr__(self, "axis", ax)
        if abs(ax.dot(self.frame.n) - math.cos(math.radians(self.phi_deg))) > 1e-9:
            raise GeometryError("drilling axis does not satisfy axis . n = cos(phi)")


def make_drill_target(
    surface: Surface,
    point: Vec3,
    phi_deg: float,
    theta_deg: float,
    reference: Vec3 = Vec3(1.0, 0.0, 0.0),
    approach_side: Optional[Vec3] = None,
) -> DrillTarget:
    """Build a target on a surface: the frame normal is the surface normal
    flipped to point into the material (away from ``approach_side``, the
    direction toward the robot; defaults to the outward normal side)."""
    n_out = surface_normal(surface, point)
    n_drill = -n_out
    if approach_side is not None and n_drill.dot(approach_side) > 0.0:
        n_drill = n_out
    frame = build_target_frame(point, n_drill, reference)
    return DrillTarget(point, frame, phi_deg, theta_deg)


# ---------------------------------------------------------------------------
# file ingestion
# ---------------------------------------------------------------------------


def transform_mesh(mesh: TriangleMesh, rotation, translation: Vec3) -> TriangleMesh:
    """Rigidly transform a mesh into the robot base frame (offline
    registration for meshes scanned in another frame)."""
    from .geometry import rotate

    verts = tuple(rotate(rotation, v) + translation for v in mesh.vertices)
    return TriangleMesh(verts, mesh.triangles)


def load_stl(path: str) -> TriangleMesh:
    """ASCII STL reader (units meters, robot-base coordinates)."""
    vertices: list = []
    vmap: dict = {}
    triangles = []
    current: list = []
    try:
        with open(path, "r") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        # a binary STL; its 80-byte header may well begin with "solid"
        raise GeometryError(f"{path}: not an ASCII STL file (not text)") from None
    if not (lines and lines[0].lstrip().lower().startswith("solid")):
        raise GeometryError(f"{path}: not an ASCII STL file")
    for lineno, line in enumerate(lines[1:], start=2):
        tok = line.split()
        if not tok:
            continue
        if tok[0] == "vertex":
            try:
                if len(tok) != 4:
                    raise ValueError
                v = (float(tok[1]), float(tok[2]), float(tok[3]))
            except ValueError:
                raise GeometryError(f"{path}:{lineno}: malformed vertex line") from None
            idx = vmap.get(v)
            if idx is None:
                idx = len(vertices)
                vmap[v] = idx
                vertices.append(Vec3(*v))
            if not current:
                facet_line = lineno
            current.append(idx)
        elif tok[0] == "endfacet":
            if len(current) != 3:
                raise GeometryError(f"{path}:{lineno}: facet without 3 vertices")
            triangles.append(tuple(current))
            current = []
    if current:
        raise GeometryError(f"{path}:{facet_line}: facet without endfacet")
    if not triangles:
        raise GeometryError(f"{path}: no facets found")
    return TriangleMesh(tuple(vertices), tuple(triangles))


def load_off(path: str) -> TriangleMesh:
    """OFF mesh reader (triangles only)."""
    try:
        with open(path, "r") as fh:
            lines = [
                (lineno, ln.split())
                for lineno, ln in enumerate(fh, start=1)
                if ln.strip() and not ln.strip().startswith("#")
            ]
    except UnicodeDecodeError:
        raise GeometryError(f"{path}: not an OFF file (not text)") from None
    if len(lines) < 2 or lines[0][1] != ["OFF"]:
        raise GeometryError(f"{path}: missing OFF header")

    def fields(line, kind, count, what):
        lineno, tok = line
        try:
            if len(tok) < count:
                raise ValueError
            return [kind(t) for t in tok[:count]]
        except ValueError:
            raise GeometryError(f"{path}:{lineno}: expected {what}") from None

    nv, nf, _ = fields(lines[1], int, 3, "integer vertex, face and edge counts")
    if len(lines) < 2 + nv + nf:
        raise GeometryError(
            f"{path}: header declares {nv} vertices and {nf} faces, "
            f"file has {len(lines) - 2} lines after it"
        )
    verts = [
        Vec3(*fields(line, float, 3, "3 vertex coordinates"))
        for line in lines[2 : 2 + nv]
    ]
    tris = []
    for line in lines[2 + nv : 2 + nv + nf]:
        n, i, j, k = fields(line, int, 4, "a face '3 i j k'")
        if n != 3:
            raise GeometryError(f"{path}:{line[0]}: only triangle faces supported")
        tris.append((i, j, k))
    return TriangleMesh(tuple(verts), tuple(tris))


def tessellated_sphere(center: Vec3, radius: float, refinement: int) -> TriangleMesh:
    """Icosphere used by tests to check mesh-normal convergence."""
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    base = [
        (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
        (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
        (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
    ]
    verts = [Vec3(*v).normalized() for v in base]
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    for _ in range(refinement):
        cache: dict = {}
        new_faces = []

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                m = (verts[i] + verts[j]).scale(0.5).normalized()
                cache[key] = len(verts)
                verts.append(m)
            return cache[key]

        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces
    final = tuple(center + v.scale(radius) for v in verts)
    return TriangleMesh(final, tuple(faces))
