import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from gds import workpiece
from gds.errors import GeometryError
from gds.geometry import UnitQuat, Vec3, angle_between, rotate
from gds.workpiece import (
    CylinderPatch,
    DrillTarget,
    SampledPatch,
    SpherePatch,
    TriangleMesh,
    build_target_frame,
    drilling_axis,
    fit_plane,
    load_off,
    load_stl,
    make_drill_target,
    recover_angles,
    surface_normal,
    tessellated_sphere,
)


class TestFitPlane:
    def test_exact_axis_aligned_square(self):
        patch = SampledPatch(
            (Vec3(0, 0, 0), Vec3(1, 0, 0), Vec3(0, 1, 0), Vec3(1, 1, 0))
        )
        fit = fit_plane(patch, orient_along=Vec3(0, 0, 1))
        assert np.allclose(fit.centroid, (0.5, 0.5, 0.0), atol=1e-15)
        assert angle_between(fit.normal, Vec3(0, 0, 1)) <= 1e-9
        assert fit.rms_residual <= 1e-12

    def test_rotated_square_matches_rotated_normal_oracle(self):
        q = UnitQuat.from_axis_angle(Vec3(1, 0, 0), math.radians(30))
        pts = [Vec3(0, 0, 0), Vec3(1, 0, 0), Vec3(0, 1, 0), Vec3(1, 1, 0)]
        rotated = SampledPatch(tuple(rotate(q, p) for p in pts))
        oracle = rotate(q, Vec3(0, 0, 1))  # = (0, -sin30, cos30)
        assert np.allclose(oracle, (0.0, -0.5, math.sqrt(3) / 2), atol=1e-12)
        fit = fit_plane(rotated, orient_along=oracle)
        assert angle_between(fit.normal, oracle) <= 1e-9

    def test_noisy_coplanar_recovers_normal(self):
        rng = np.random.default_rng(101)
        base = rng.uniform(-0.05, 0.05, size=(40, 2))
        worst = 0.0
        for _ in range(20):
            noise = rng.normal(0.0, 1e-6, size=40)
            pts = tuple(Vec3(x, y, z) for (x, y), z in zip(base, noise))
            fit = fit_plane(SampledPatch(pts), orient_along=Vec3(0, 0, 1))
            worst = max(worst, angle_between(fit.normal, Vec3(0, 0, 1)))
        assert worst <= 1e-4

    def test_collinear_points_fault(self):
        patch = SampledPatch((Vec3(0, 0, 0), Vec3(1, 0, 0), Vec3(2, 0, 0), Vec3(3, 0, 0)))
        with pytest.raises(GeometryError, match="rank"):
            fit_plane(patch)

    def test_too_few_points_rejected(self):
        with pytest.raises(GeometryError):
            SampledPatch((Vec3(0, 0, 0), Vec3(1, 0, 0)))

    def test_rigid_transform_invariance(self):
        rng = np.random.default_rng(55)
        pts = [Vec3(x, y, 0.02 * x - 0.03 * y) for x, y in rng.uniform(-0.1, 0.1, (12, 2))]
        fit0 = fit_plane(SampledPatch(tuple(pts)), orient_along=Vec3(0, 0, 1))
        for _ in range(25):
            raw = rng.standard_normal(3)
            q = UnitQuat.from_axis_angle(Vec3(*raw), rng.uniform(-math.pi, math.pi))
            shift = Vec3(*rng.uniform(-2, 2, 3))
            moved = tuple(rotate(q, p) + shift for p in pts)
            expected = rotate(q, fit0.normal)
            fit = fit_plane(SampledPatch(moved), orient_along=expected)
            assert angle_between(fit.normal, expected) <= 1e-9

    def test_rms_reported_for_noisy_data(self):
        rng = np.random.default_rng(7)
        pts = tuple(
            Vec3(x, y, rng.normal(0, 1e-4))
            for x, y in rng.uniform(-0.1, 0.1, (30, 2))
        )
        fit = fit_plane(SampledPatch(pts), orient_along=Vec3(0, 0, 1))
        assert 1e-5 < fit.rms_residual < 1e-3


class TestSurfaceNormal:
    def test_sphere_normal_is_radial(self):
        s = SpherePatch(Vec3(0, 0, 0), 0.2)
        n = surface_normal(s, Vec3(0, 0, 0.2))
        assert np.allclose(n, (0, 0, 1), atol=1e-12)

    def test_cylinder_normal_is_radial_in_cross_section(self):
        c = CylinderPatch(Vec3(0, 0, 0), Vec3(0, 0, 1), 0.15)
        n = surface_normal(c, Vec3(0.15, 0, 0.1))
        assert np.allclose(n, (1, 0, 0), atol=1e-12)

    def test_flat_mesh_interior_normal(self):
        mesh = TriangleMesh(
            (Vec3(0, 0, 0), Vec3(1, 0, 0), Vec3(1, 1, 0), Vec3(0, 1, 0)),
            ((0, 1, 2), (0, 2, 3)),
        )
        n = surface_normal(mesh, Vec3(0.4, 0.2, 0.0))
        assert np.allclose(n, (0, 0, 1), atol=1e-12)

    def test_far_point_faults(self):
        s = SpherePatch(Vec3(0, 0, 0), 0.2)
        with pytest.raises(GeometryError, match="from the surface"):
            surface_normal(s, Vec3(0, 0, 0.21))

    def test_mesh_normal_converges_with_refinement(self):
        probe_dirs = [Vec3(1, 2, 2).normalized(), Vec3(-1, 0.5, 1).normalized()]
        errs = []
        for refinement in (1, 3):
            mesh = tessellated_sphere(Vec3(0, 0, 0), 0.2, refinement)
            worst = 0.0
            for d in probe_dirs:
                q, n = mesh.closest_point(d.scale(0.2))
                worst = max(worst, angle_between(n, d))
            errs.append(worst)
        assert errs[1] < errs[0] / 2  # refinement tightens the normal


# ---------------------------------------------------------------------------
# exhaustive-scan oracle: the culled mesh query must return exactly its bits
# ---------------------------------------------------------------------------


def _scan_closest_on_triangle(p, a, b, c):
    # Ericson, Real-Time Collision Detection, 5.1.5, over Vec3
    ab, ac, ap = b - a, c - a, p - a
    d1, d2 = ab.dot(ap), ac.dot(ap)
    if d1 <= 0.0 and d2 <= 0.0:
        return a
    bp = p - b
    d3, d4 = ab.dot(bp), ac.dot(bp)
    if d3 >= 0.0 and d4 <= d3:
        return b
    vc = d1 * d4 - d3 * d2
    if vc <= 0.0 and d1 >= 0.0 and d3 <= 0.0:
        return a + ab.scale(d1 / (d1 - d3))
    cp = p - c
    d5, d6 = ab.dot(cp), ac.dot(cp)
    if d6 >= 0.0 and d5 <= d6:
        return c
    vb = d5 * d2 - d1 * d6
    if vb <= 0.0 and d2 >= 0.0 and d6 <= 0.0:
        return a + ac.scale(d2 / (d2 - d6))
    va = d3 * d6 - d5 * d4
    if va <= 0.0 and (d4 - d3) >= 0.0 and (d5 - d6) >= 0.0:
        return b + (c - b).scale((d4 - d3) / ((d4 - d3) + (d5 - d6)))
    denom = 1.0 / (va + vb + vc)
    return a + ab.scale(vb * denom) + ac.scale(vc * denom)


def _scan_vertex_normal(mesh, vidx):
    total = Vec3.zero()
    for i, tri in enumerate(mesh.triangles):
        if vidx not in tri:
            continue
        j = tri.index(vidx)
        a = mesh.vertices[tri[j]]
        b = mesh.vertices[tri[(j + 1) % 3]]
        c = mesh.vertices[tri[(j + 2) % 3]]
        e1, e2 = (b - a), (c - a)
        wedge = math.atan2(e1.cross(e2).norm(), e1.dot(e2))
        total = total + mesh._face_normals[i].scale(wedge)
    if total.norm() == 0.0:
        raise GeometryError(f"vertex {vidx} has no incident area")
    return total.normalized()


def _scan_pseudo_normal(mesh, q, face_idx):
    tol = 1e-9
    tri = mesh.triangles[face_idx]
    verts = [mesh.vertices[i] for i in tri]
    for local, v in enumerate(verts):
        if (q - v).norm() <= tol:
            return _scan_vertex_normal(mesh, tri[local])
    for e0, e1 in ((0, 1), (1, 2), (2, 0)):
        a, b = verts[e0], verts[e1]
        ab = b - a
        t = (q - a).dot(ab) / ab.dot(ab)
        foot = a + ab.scale(t)
        if 0.0 <= t <= 1.0 and (q - foot).norm() <= tol:
            shared = [
                i for i, t2 in enumerate(mesh.triangles) if tri[e0] in t2 and tri[e1] in t2
            ]
            n = Vec3.zero()
            for i in shared:
                n = n + mesh._face_normals[i]
            return n.normalized()
    return mesh._face_normals[face_idx]


def scan_closest_point(mesh, p):
    """Every triangle in index order; the first strictly smaller squared
    distance wins."""
    best = None
    best_d2 = math.inf
    for idx, tri in enumerate(mesh.triangles):
        a, b, c = (mesh.vertices[i] for i in tri)
        q = _scan_closest_on_triangle(p, a, b, c)
        d2 = (p - q).dot(p - q)
        if d2 < best_d2:
            best_d2 = d2
            best = (q, idx)
    q, idx = best
    return q, _scan_pseudo_normal(mesh, q, idx)


def crest_mesh(xs, ys, radius=0.5):
    """Grid over the crest of a cylinder of ``radius`` along y, top line at
    z = 0, two triangles per cell, outward normals up."""
    verts = [
        Vec3(x, y, math.sqrt(radius * radius - x * x) - radius) for x in xs for y in ys
    ]
    ny = len(ys)
    tris = []
    for i in range(len(xs) - 1):
        for j in range(ny - 1):
            a, b, c, d = i * ny + j, (i + 1) * ny + j, (i + 1) * ny + j + 1, i * ny + j + 1
            tris += [(a, b, c), (a, c, d)]
    return TriangleMesh(tuple(verts), tuple(tris))


@st.composite
def crest_grids(draw):
    """Crest meshes whose interior grid lines are jittered by up to 0.4 of
    a cell."""
    lines = []
    for half in (0.15, 0.25):
        n = draw(st.integers(1, 6))
        step = 2.0 * half / n
        jitter = draw(st.lists(st.floats(-0.4, 0.4), min_size=n + 1, max_size=n + 1))
        lines.append([
            -half + i * step + (jitter[i] * step if 0 < i < n else 0.0) for i in range(n + 1)
        ])
    return crest_mesh(*lines)


_SPHERES = {r: tessellated_sphere(Vec3(0.1, -0.2, 0.3), 0.2, r) for r in range(3)}


@st.composite
def mesh_probes(draw, mesh, count=12):
    """Points around ``mesh``: drawn in its padded bounding box, on its
    vertices, on its edges, and off its edges along drawn directions."""
    lo = [min(v[k] for v in mesh.vertices) - 0.05 for k in range(3)]
    hi = [max(v[k] for v in mesh.vertices) + 0.05 for k in range(3)]
    unit = st.floats(0.0, 1.0)
    points = []
    for _ in range(count):
        kind = draw(st.sampled_from(("free", "vertex", "edge", "near_edge")))
        if kind == "free":
            points.append(Vec3(*(lo[k] + draw(unit) * (hi[k] - lo[k]) for k in range(3))))
            continue
        tri = mesh.triangles[draw(st.integers(0, len(mesh.triangles) - 1))]
        a = mesh.vertices[tri[draw(st.integers(0, 2))]]
        if kind == "vertex":
            points.append(a)
            continue
        b = mesh.vertices[tri[draw(st.integers(0, 2))]]
        on = a + (b - a).scale(draw(st.sampled_from((0.0, 0.5, 1.0)) | unit))
        if kind == "edge":
            points.append(on)
        else:
            off = Vec3(*(draw(st.floats(-1.0, 1.0)) for _ in range(3)))
            points.append(on + off.scale(draw(st.sampled_from((1e-12, 1e-9, 1e-6, 1e-3)))))
    return points


@st.composite
def coherent_walks(draw, mesh, steps=40):
    """A drawn start near ``mesh``, then ``steps`` moves of 1e-7 to 1e-3 m:
    along drawn directions, or toward a vertex or an edge point of the
    nearest triangle, landing exactly on it when the move reaches it."""
    p = draw(mesh_probes(mesh, count=1))[0]
    points = [p]
    for _ in range(steps):
        length = 10.0 ** draw(st.floats(-7.0, -3.0))
        kind = draw(st.sampled_from(("free", "vertex", "edge")))
        if kind == "free":
            d = Vec3(*(draw(st.floats(-1.0, 1.0)) for _ in range(3)))
            if d.norm() == 0.0:
                continue
            p = p + d.scale(length / d.norm())
        else:
            q, _ = scan_closest_point(mesh, p)
            best = min(
                range(len(mesh.triangles)),
                key=lambda i: (q - _scan_closest_on_triangle(
                    q, *(mesh.vertices[v] for v in mesh.triangles[i]))).norm(),
            )
            a, b = (mesh.vertices[v] for v in draw(st.permutations(mesh.triangles[best]))[:2])
            f = a if kind == "vertex" else a + (b - a).scale(draw(st.floats(0.0, 1.0)))
            gap = (f - p).norm()
            p = f if gap <= length else p + (f - p).scale(length / gap)
        points.append(p)
    return points


def assert_walk_matches_scan(mesh, points):
    for p in points:
        q_ref, n_ref = scan_closest_point(mesh, p)
        assert mesh.closest_point(p) == (q_ref, n_ref)
        assert mesh.signed_distance(p) == (p - q_ref).dot(n_ref)


class TestMeshQuery:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_crest_matches_exhaustive_scan(self, data):
        mesh = data.draw(crest_grids())
        for p in data.draw(mesh_probes(mesh)):
            q, n = mesh.closest_point(p)
            q_ref, n_ref = scan_closest_point(mesh, p)
            assert q == q_ref
            assert n == n_ref

    @given(st.integers(0, 2), st.data())
    @settings(max_examples=30, deadline=None)
    def test_sphere_matches_exhaustive_scan(self, refinement, data):
        mesh = _SPHERES[refinement]
        for p in data.draw(mesh_probes(mesh, count=8)):
            q, n = mesh.closest_point(p)
            q_ref, n_ref = scan_closest_point(mesh, p)
            assert q == q_ref
            assert n == n_ref

    def test_square_diagonal_tie_goes_to_lower_index(self):
        mesh = TriangleMesh(
            (Vec3(0.0, 0.0, 0.0), Vec3(1.0, 0.0, 0.0), Vec3(1.0, 1.0, 0.0), Vec3(0.0, 1.0, 0.0)),
            ((0, 1, 2), (0, 2, 3)),
        )
        for s in (0.0, 0.25, 0.3, 0.5, 0.7, 1.0):
            for h in (0.0, 1e-9, 0.1, -0.2):
                p = Vec3(s, s, h)
                assert mesh.closest_point(p) == scan_closest_point(mesh, p)

    @pytest.mark.parametrize("left_first", (True, False))
    def test_tie_between_leaves_goes_to_lower_index(self, left_first):
        # Two facing triangles in the planes x = 0 and x = 2; the point at
        # x = 1 is exactly as far from both. Filler triangles behind each
        # put them in different leaves of the tree.
        def facing(x0, toward_plus_x):
            o, y, z = Vec3(x0, 0.0, 0.0), Vec3(x0, 1.0, 0.0), Vec3(x0, 0.0, 1.0)
            return (o, y, z) if toward_plus_x else (o, z, y)

        def filler(xs):
            return [(Vec3(x, 0.0, 0.0), Vec3(x, 0.1, 0.0), Vec3(x, 0.0, 0.1)) for x in xs]

        left, right = facing(0.0, True), facing(2.0, False)
        first, second = (left, right) if left_first else (right, left)
        faces = [first, second] + filler((-5.0, -4.0, -3.0)) + filler((5.0, 6.0, 7.0))
        verts = tuple(v for f in faces for v in f)
        mesh = TriangleMesh(verts, tuple((3 * i, 3 * i + 1, 3 * i + 2) for i in range(len(faces))))
        p = Vec3(1.0, 0.25, 0.25)
        q, n = mesh.closest_point(p)
        assert (q, n) == scan_closest_point(mesh, p)
        assert q == Vec3(first[0].x, 0.25, 0.25)
        assert n == mesh._face_normals[0]

    # no shrinking: a failing 40-step walk shrinks against the Python scan
    # oracle for minutes; the failing example is still printed
    @given(st.data())
    @settings(
        max_examples=25, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate)
    )
    def test_coherent_crest_walk_matches_exhaustive_scan(self, data):
        mesh = data.draw(crest_grids())
        assert_walk_matches_scan(mesh, data.draw(coherent_walks(mesh)))

    @given(st.integers(0, 2), st.data())
    @settings(
        max_examples=15, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate)
    )
    def test_coherent_sphere_walk_matches_exhaustive_scan(self, refinement, data):
        # the spheres are shared across examples: each walk starts from the
        # hint the previous one left
        mesh = _SPHERES[refinement]
        assert_walk_matches_scan(mesh, data.draw(coherent_walks(mesh)))

    def test_foreign_hint_gives_the_scan_answer(self):
        mesh = crest_mesh([-0.15, -0.05, 0.05, 0.15], [-0.25, 0.0, 0.25])
        far = Vec3(0.14, 0.24, 0.01)
        near = [Vec3(-0.1 + 2e-5 * i, -0.2, 0.001) for i in range(20)]
        for warm in ([far], near[::-1], [Vec3(-0.1, -0.2, 0.3)]):
            for p in warm:
                mesh.closest_point(p)
            assert_walk_matches_scan(mesh, near)

    @pytest.mark.parametrize("other, walk", [
        # the facing plane x = 2: triangle 0 stops being the nearest past
        # x = 1, while the query stays within the hint's reach of its start
        ((Vec3(2.0, -5.0, -5.0), Vec3(2.0, 0.0, 5.0), Vec3(2.0, 5.0, -5.0)),
         [(0.9, 0.0, 0.0), (0.9995, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0005, 0.0, 0.0)]),
        # the plane y = 0.6: nearer than triangle 0 after a sideways move
        # shorter than the hint's reach
        ((Vec3(-5.0, 0.6, -5.0), Vec3(0.0, 0.6, 5.0), Vec3(5.0, 0.6, -5.0)),
         [(0.5, 0.45, 0.0)]),
    ], ids=["facing_plane", "side_plane"])
    def test_hint_rejects_a_winner_it_cannot_certify(self, other, walk):
        # each query follows a hint taken at (0.5, 0, 0), 0.5 from the plane
        # x = 0 (triangle 0), which holds only triangle 0
        plane = (Vec3(0.0, -5.0, -5.0), Vec3(0.0, 5.0, -5.0), Vec3(0.0, 0.0, 5.0))
        mesh = TriangleMesh(plane + other, ((0, 1, 2), (3, 4, 5)))
        for p in map(Vec3._make, walk):
            object.__setattr__(mesh, "_hint", None)
            mesh.closest_point(Vec3(0.5, 0.0, 0.0))
            assert mesh._hint[1] == (0,)
            assert mesh.closest_point(p) == scan_closest_point(mesh, p)

    def test_threads_sharing_a_mesh_get_the_scan_answer(self):
        # each thread walks its own line, 1 mm from the next, across the
        # same triangles, so the hint it reads is often another thread's
        mesh = crest_mesh([-0.15, -0.05, 0.05, 0.15], [-0.25, -0.1, 0.1, 0.25])
        walks = [
            [Vec3(-0.06 + 1e-3 * k + 2e-4 * i, -0.12 + 3e-4 * i, 0.002) for i in range(150)]
            for k in range(5)
        ]
        expected = [[scan_closest_point(mesh, p) for p in walk] for walk in walks]
        answers = [[] for _ in walks]

        def walk_mesh(k):
            for p in walks[k]:
                answers[k].append(mesh.closest_point(p))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=walk_mesh, args=(k,)) for k in range(len(walks))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert answers == expected

    def test_coherent_queries_take_the_hint(self, monkeypatch):
        mesh = crest_mesh([-0.15, -0.075, 0.0, 0.075, 0.15], [-0.25, -0.125, 0.0, 0.125, 0.25])
        calls = [0]
        closest_on_triangle = workpiece._closest_on_triangle

        def counted(*args):
            calls[0] += 1
            return closest_on_triangle(*args)

        monkeypatch.setattr(workpiece, "_closest_on_triangle", counted)
        step = Vec3(2.0, 1.0, -0.1).scale(2e-5 / Vec3(2.0, 1.0, -0.1).norm())
        p = Vec3(-0.01, -0.01, 0.002)
        for _ in range(1000):
            mesh.signed_distance(p)
            p = p + step
        assert calls[0] / 1000 <= 2.0

    def test_feature_tolerance_square_is_exact(self):
        tol2 = workpiece._FEATURE_TOL2
        assert math.sqrt(tol2) <= workpiece._FEATURE_TOL
        assert math.sqrt(math.nextafter(tol2, math.inf)) > workpiece._FEATURE_TOL

    def test_zero_vertex_normal_raises_only_when_reached(self):
        # a sheet folded back on itself: vertex 0 has opposite, equal wedges
        mesh = TriangleMesh(
            (Vec3(0.0, 0.0, 0.0), Vec3(1.0, 0.0, 0.0), Vec3(0.0, 1.0, 0.0)),
            ((0, 1, 2), (0, 2, 1)),
        )
        with pytest.raises(GeometryError, match="vertex 0"):
            mesh.closest_point(Vec3(-0.5, -0.5, 0.2))
        with pytest.raises(GeometryError, match="vertex 0"):
            scan_closest_point(mesh, Vec3(-0.5, -0.5, 0.2))


class TestTargetFrame:
    def test_trivial_frame(self):
        f = build_target_frame(Vec3(0, 0, 0), Vec3(0, 0, 1), Vec3(1, 0, 0))
        assert np.allclose(f.u, (1, 0, 0), atol=1e-15)
        assert np.allclose(f.w, (0, 1, 0), atol=1e-15)
        assert np.allclose(f.n, (0, 0, 1), atol=1e-15)

    def test_gram_schmidt_against_hand_computation(self):
        ref = Vec3(1 / math.sqrt(2), 0, 1 / math.sqrt(2))
        f = build_target_frame(Vec3(0, 0, 0), Vec3(0, 0, 1), ref)
        assert np.allclose(f.u, (1, 0, 0), atol=1e-12)

    def test_parallel_reference_falls_back(self):
        f = build_target_frame(Vec3(0, 0, 0), Vec3(0, 0, 1), Vec3(0, 0, 1))
        # still a valid right-handed orthonormal frame
        assert abs(f.u.dot(f.n)) <= 1e-12
        assert np.allclose(f.u.cross(f.w), f.n, atol=1e-12)

    def test_independent_of_reference_scale_and_normal_component(self):
        n = Vec3(0.2, -0.3, 0.93).normalized()
        ref = Vec3(0.7, 0.1, 0.4)
        f1 = build_target_frame(Vec3(0, 0, 0), n, ref)
        f2 = build_target_frame(Vec3(0, 0, 0), n, ref.scale(17.0) + n.scale(3.3))
        assert np.allclose(f1.u, f2.u, atol=1e-9)
        assert np.allclose(f1.w, f2.w, atol=1e-9)


class TestDrillingAxis:
    def identity_frame(self):
        return build_target_frame(Vec3(0, 0, 0), Vec3(0, 0, 1), Vec3(1, 0, 0))

    def test_polar_zero_is_normal(self):
        f = self.identity_frame()
        for theta in (0.0, 90.0, 222.0):
            assert np.allclose(drilling_axis(f, 0.0, theta), f.n, atol=1e-15)

    def test_polar_ninety_theta_zero_is_u(self):
        f = self.identity_frame()
        assert np.allclose(drilling_axis(f, 90.0, 0.0), f.u, atol=1e-12)

    def test_experiment_angles_match_trig_oracle(self):
        f = self.identity_frame()
        ax = drilling_axis(f, 30.0, 10.0)
        expect = (
            math.sin(math.radians(30)) * math.cos(math.radians(10)),
            math.sin(math.radians(30)) * math.sin(math.radians(10)),
            math.cos(math.radians(30)),
        )
        assert np.allclose(ax, expect, atol=1e-12)
        assert np.allclose(expect, (0.49240388, 0.08682409, 0.86602540), atol=1e-8)

    def test_axis_dot_normal_is_cos_phi(self):
        rng = np.random.default_rng(77)
        for _ in range(300):
            n = Vec3(*rng.standard_normal(3)).normalized()
            ref = Vec3(*rng.standard_normal(3))
            if abs(n.dot(ref.normalized())) > 0.99:
                continue
            f = build_target_frame(Vec3(0, 0, 0), n, ref)
            phi = rng.uniform(0.0, 90.0)
            theta = rng.uniform(0.0, 360.0)
            ax = drilling_axis(f, phi, theta)
            assert ax.dot(f.n) == pytest.approx(math.cos(math.radians(phi)), abs=1e-9)
            tangential = ax - f.n.scale(ax.dot(f.n))
            assert tangential.norm() == pytest.approx(
                abs(math.sin(math.radians(phi))), abs=1e-9
            )

    def test_out_of_range_rejected(self):
        f = self.identity_frame()
        with pytest.raises(GeometryError):
            drilling_axis(f, 91.0, 0.0)

    def test_round_trip_recovery(self):
        rng = np.random.default_rng(13)
        f = self.identity_frame()
        for _ in range(500):
            phi = rng.uniform(1.0, 89.0)
            theta = rng.uniform(0.0, 360.0)
            ax = drilling_axis(f, phi, theta)
            phi2, theta2 = recover_angles(ax, f)
            assert phi2 == pytest.approx(phi, abs=1e-9)
            assert min(abs(theta2 - theta), 360.0 - abs(theta2 - theta)) <= 1e-9

    def test_recover_degenerate_polar_reports_zero_azimuth(self):
        f = self.identity_frame()
        phi, theta = recover_angles(f.n, f)
        assert phi <= 1e-9
        assert theta == 0.0


class TestDrillTarget:
    def test_make_target_on_cylinder_crest(self):
        cyl = CylinderPatch(Vec3(0, 0, -0.5), Vec3(0, 1, 0), 0.5)
        t = make_drill_target(cyl, Vec3(0, 0, 0), 5.0, 0.0, approach_side=Vec3(0, 0, 1))
        # drilling-side normal points into the material (down)
        assert np.allclose(t.frame.n, (0, 0, -1), atol=1e-12)
        assert t.axis.dot(t.frame.n) == pytest.approx(math.cos(math.radians(5)), abs=1e-12)
        # feed axis heads into the surface
        assert t.axis.z < 0

    def test_invariant_checked(self):
        f = build_target_frame(Vec3(0, 0, 0), Vec3(0, 0, 1), Vec3(1, 0, 0))
        t = DrillTarget(Vec3(0, 0, 0), f, 45.0, 10.0)
        assert abs(t.axis.norm() - 1.0) <= 1e-12


# a binary STL: an 80-byte header that begins with "solid", a facet count of
# one, then the facet's normal and corners as little-endian floats (1.0 is
# 00 00 80 3f, not UTF-8) and its attribute bytes
BINARY_STL = (
    b"solid exported".ljust(80, b"\0") + (1).to_bytes(4, "little")
    + bytes(12) + b"\x00\x00\x80\x3f" * 9 + bytes(2)
)


class TestIngestion:
    def test_stl_round_trip(self, tmp_path):
        stl = tmp_path / "plate.stl"
        stl.write_text(
            "solid plate\n"
            " facet normal 0 0 1\n"
            "  outer loop\n"
            "   vertex 0 0 0\n   vertex 1 0 0\n   vertex 1 1 0\n"
            "  endloop\n"
            " endfacet\n"
            " facet normal 0 0 1\n"
            "  outer loop\n"
            "   vertex 0 0 0\n   vertex 1 1 0\n   vertex 0 1 0\n"
            "  endloop\n"
            " endfacet\n"
            "endsolid plate\n"
        )
        mesh = load_stl(str(stl))
        assert len(mesh.vertices) == 4
        assert len(mesh.triangles) == 2
        assert np.allclose(surface_normal(mesh, Vec3(0.5, 0.5, 0)), (0, 0, 1), atol=1e-12)

    def test_stl_rejects_binary_header(self, tmp_path):
        p = tmp_path / "bad.stl"
        p.write_text("not-an-stl\n")
        with pytest.raises(GeometryError, match="ASCII STL"):
            load_stl(str(p))

    def test_off_round_trip(self, tmp_path):
        off = tmp_path / "plate.off"
        off.write_text(
            "OFF\n4 2 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n3 0 1 2\n3 0 2 3\n"
        )
        mesh = load_off(str(off))
        assert len(mesh.vertices) == 4
        assert len(mesh.triangles) == 2

    def test_off_requires_header(self, tmp_path):
        p = tmp_path / "bad.off"
        p.write_text("4 2 0\n")
        with pytest.raises(GeometryError, match="OFF"):
            load_off(str(p))

    def test_off_rejects_truncated_file(self, tmp_path):
        off = tmp_path / "short.off"
        off.write_text("OFF\n4 2 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n3 0 1 2\n")
        with pytest.raises(GeometryError, match="short.off.*2 faces"):
            load_off(str(off))
        off.write_text("OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n")
        with pytest.raises(GeometryError, match="short.off.*4 vertices"):
            load_off(str(off))

    def test_off_rejects_malformed_vertex_line(self, tmp_path):
        off = tmp_path / "bad.off"
        off.write_text("OFF\n3 1 0\n0 0 0\n# comment\n\n0 0\n1 1 0\n3 0 1 2\n")
        with pytest.raises(GeometryError, match=r"bad\.off:6: expected 3 vertex coordinates"):
            load_off(str(off))
        off.write_text("OFF\n3 1 0\n0 0 0\n1 x 0\n1 1 0\n3 0 1 2\n")
        with pytest.raises(GeometryError, match=r"bad\.off:4: expected 3 vertex coordinates"):
            load_off(str(off))

    def test_off_rejects_short_face_line(self, tmp_path):
        off = tmp_path / "bad.off"
        off.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n1 1 0\n3 0 1\n")
        with pytest.raises(GeometryError, match=r"bad\.off:6: expected a face"):
            load_off(str(off))

    def test_off_rejects_non_integer_header_count(self, tmp_path):
        off = tmp_path / "bad.off"
        off.write_text("OFF\n3 x 0\n0 0 0\n1 0 0\n1 1 0\n3 0 1 2\n")
        with pytest.raises(GeometryError, match=r"bad\.off:2: expected integer"):
            load_off(str(off))

    def test_stl_rejects_unterminated_facet(self, tmp_path):
        stl = tmp_path / "cut.stl"
        stl.write_text(
            "solid cut\n"
            " facet normal 0 0 1\n"
            "  outer loop\n"
            "   vertex 0 0 0\n   vertex 1 0 0\n   vertex 1 1 0\n"
            "  endloop\n"
            " endfacet\n"
            " facet normal 0 0 1\n"
            "  outer loop\n"
            "   vertex 0 0 0\n   vertex 1 1 0\n   vertex 0 1 0\n"
        )
        with pytest.raises(GeometryError, match=r"cut\.stl:11: facet without endfacet"):
            load_stl(str(stl))

    def test_stl_rejects_non_number_vertex(self, tmp_path):
        stl = tmp_path / "bad.stl"
        stl.write_text("solid bad\n facet normal 0 0 1\n  outer loop\n   vertex 0 x 0\n")
        with pytest.raises(GeometryError, match=r"bad\.stl:4: malformed vertex line"):
            load_stl(str(stl))

    def test_binary_file_is_not_a_text_mesh(self, tmp_path):
        # a binary STL whose 80-byte header begins with "solid", one facet
        binary = tmp_path / "binary.stl"
        binary.write_bytes(BINARY_STL)
        with pytest.raises(GeometryError, match=r"binary\.stl: not an ASCII STL"):
            load_stl(str(binary))
        with pytest.raises(GeometryError, match=r"binary\.stl: not an OFF file"):
            load_off(str(binary))

    def test_patch_csv(self):
        patch = SampledPatch(
            (Vec3(0, 0, 0), Vec3(0.01, 0, 0), Vec3(0, 0.01, 0), Vec3(0.01, 0.01, 0.0001))
        )
        fit = fit_plane(patch, orient_along=Vec3(0, 0, 1))
        assert angle_between(fit.normal, Vec3(0, 0, 1)) < 0.02

    def test_mesh_rigid_registration(self):
        from gds.workpiece import transform_mesh

        mesh = TriangleMesh(
            (Vec3(0, 0, 0), Vec3(1, 0, 0), Vec3(1, 1, 0), Vec3(0, 1, 0)),
            ((0, 1, 2), (0, 2, 3)),
        )
        q = UnitQuat.from_axis_angle(Vec3(1, 0, 0), math.radians(90))
        shifted = transform_mesh(mesh, q, Vec3(0.1, 0.0, 0.2))
        n = shifted._face_normals[0]
        expected = rotate(q, Vec3(0, 0, 1))
        assert np.allclose(n, expected, atol=1e-12)
        assert np.allclose(shifted.vertices[0], (0.1, 0.0, 0.2), atol=1e-15)
