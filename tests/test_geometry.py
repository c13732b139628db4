import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gds.errors import GeometryError
from gds.geometry import (
    Frame3,
    Pose,
    Twist6,
    UnitQuat,
    Vec3,
    Wrench6,
    angle_between,
    make_frame,
    project_onto_axis,
    rotate,
    rotation_between,
    slerp,
)


def rotation_matrix(axis, angle):
    """Independent oracle: Rodrigues rotation matrix from axis-angle."""
    ax = np.asarray(axis, dtype=float)
    ax = ax / np.linalg.norm(ax)
    k = np.array(
        [[0.0, -ax[2], ax[1]], [ax[2], 0.0, -ax[0]], [-ax[1], ax[0], 0.0]]
    )
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def quat_of(axis, angle):
    return UnitQuat.from_axis_angle(Vec3(*axis), angle)


unit_vecs = st.builds(
    lambda x, y, z: Vec3(x, y, z).normalized(),
    st.floats(-1, 1, allow_nan=False),
    st.floats(-1, 1, allow_nan=False),
    st.floats(-1, 1, allow_nan=False),
).filter(lambda v: True)


def random_unit(rng):
    v = rng.standard_normal(3)
    return Vec3(*(v / np.linalg.norm(v)))


class TestRotate:
    def test_identity(self):
        assert rotate(UnitQuat.identity(), Vec3(1, 2, 3)) == Vec3(1, 2, 3)

    def test_quarter_turn_about_z(self):
        q = quat_of((0, 0, 1), math.pi / 2)
        out = rotate(q, Vec3(1, 0, 0))
        assert out.x == pytest.approx(0.0, abs=1e-12)
        assert out.y == pytest.approx(1.0, abs=1e-12)
        assert out.z == pytest.approx(0.0, abs=1e-12)

    def test_half_turn_about_x_matches_matrix_oracle(self):
        q = quat_of((1, 0, 0), math.pi)
        out = rotate(q, Vec3(0, 1, 1))
        expect = rotation_matrix((1, 0, 0), math.pi) @ np.array([0.0, 1.0, 1.0])
        assert np.allclose([out.x, out.y, out.z], expect, atol=1e-12)
        assert np.allclose(expect, [0.0, -1.0, -1.0], atol=1e-15)

    def test_random_rotations_match_matrix_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            axis = random_unit(rng)
            angle = rng.uniform(-math.pi, math.pi)
            v = Vec3(*rng.uniform(-5, 5, 3))
            q = UnitQuat.from_axis_angle(axis, angle)
            out = rotate(q, v)
            expect = rotation_matrix(tuple(axis), angle) @ np.array(v)
            assert np.allclose([out.x, out.y, out.z], expect, atol=1e-9)

    def test_isometry_preserves_norm_and_dot(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            q = UnitQuat.from_axis_angle(random_unit(rng), rng.uniform(-4, 4))
            a = Vec3(*rng.uniform(-10, 10, 3))
            b = Vec3(*rng.uniform(-10, 10, 3))
            ra, rb = rotate(q, a), rotate(q, b)
            assert ra.norm() == pytest.approx(a.norm(), abs=1e-9)
            assert ra.dot(rb) == pytest.approx(a.dot(b), abs=1e-8)


class TestQuat:
    def test_unit_norm_and_canonical_sign_after_construction(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            q = UnitQuat.from_axis_angle(random_unit(rng), rng.uniform(-7, 7))
            assert abs(q.norm() - 1.0) <= 1e-9
            assert q.w >= 0.0

    def test_negated_angle_gives_same_stored_rotation_family(self):
        q1 = quat_of((0, 0, 1), 3 * math.pi / 2)  # w < 0 before canonicalization
        assert q1.w >= 0.0
        # same rotation as -90 degrees
        out = rotate(q1, Vec3(1, 0, 0))
        assert out.y == pytest.approx(-1.0, abs=1e-12)

    def test_multiply_composes(self):
        qa = quat_of((0, 0, 1), 0.3)
        qb = quat_of((0, 1, 0), 0.7)
        v = Vec3(0.2, -0.4, 0.9)
        lhs = rotate(qa.multiply(qb), v)
        rhs = rotate(qa, rotate(qb, v))
        assert np.allclose(lhs, rhs, atol=1e-12)


class TestSlerp:
    def test_midpoint_single_axis(self):
        q0 = UnitQuat.identity()
        q1 = quat_of((0, 0, 1), math.pi / 2)
        mid = slerp(q0, q1, 0.5)
        expect = quat_of((0, 0, 1), math.pi / 4)
        assert np.allclose(mid, expect, atol=1e-12)

    def test_identical_endpoints(self):
        q = quat_of((1, 2, 2), 1.1)
        assert np.allclose(slerp(q, q, 0.7), q, atol=1e-12)

    def test_third_of_sixty_degrees_matches_axis_angle_lerp_oracle(self):
        q0 = UnitQuat.identity()
        q1 = quat_of((1, 0, 0), math.radians(60))
        out = slerp(q0, q1, 1.0 / 3.0)
        oracle = quat_of((1, 0, 0), math.radians(60) / 3.0)
        assert np.allclose(out, oracle, atol=1e-12)

    def test_endpoints_exact(self):
        q0 = quat_of((1, 1, 0), 0.4)
        q1 = quat_of((0, 1, 1), 1.9)
        assert q0.angle_to(slerp(q0, q1, 0.0)) <= 1e-12
        assert q1.angle_to(slerp(q0, q1, 1.0)) <= 1e-12

    def test_angle_grows_linearly(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            q0 = UnitQuat.from_axis_angle(random_unit(rng), rng.uniform(-3, 3))
            q1 = UnitQuat.from_axis_angle(random_unit(rng), rng.uniform(-3, 3))
            total = q0.angle_to(q1)
            for t in (0.1, 0.3, 0.5, 0.7, 0.9):
                assert q0.angle_to(slerp(q0, q1, t)) == pytest.approx(
                    t * total, abs=1e-9
                )

    def test_shortest_arc_branch(self):
        q0 = quat_of((0, 0, 1), 0.1)
        q1_far = quat_of((0, 0, 1), 0.1 + math.pi * 1.8)  # same as -0.2pi + 0.1
        total = q0.angle_to(q1_far)
        assert total < math.pi  # geodesic metric already short-arc
        mid = slerp(q0, q1_far, 0.5)
        assert q0.angle_to(mid) == pytest.approx(total / 2, abs=1e-9)

    def test_antipodal_is_deterministic(self):
        q0 = UnitQuat.identity()
        q1 = quat_of((0, 0, 1), math.pi)
        a = slerp(q0, q1, 0.25)
        b = slerp(q0, q1, 0.25)
        assert a == b
        # still reaches both endpoints
        assert q0.angle_to(slerp(q0, q1, 0.0)) <= 1e-9
        assert q1.angle_to(slerp(q0, q1, 1.0)) <= 1e-9


class TestProjection:
    def test_coordinate_axis(self):
        out = project_onto_axis(Vec3(0.1, 0.2, 0.3), Vec3(0, 0, 1))
        assert out == Vec3(0.0, 0.0, 0.3)

    def test_parallel_vector_unchanged(self):
        axis = Vec3(0.0, 1.0, 0.0)
        v = Vec3(0.0, -2.5, 0.0)
        assert project_onto_axis(v, axis) == v

    def test_diagonal_axis_matches_dot_product_oracle(self):
        axis = Vec3(1 / math.sqrt(2), 1 / math.sqrt(2), 0.0)
        out = project_onto_axis(Vec3(3, 4, 0), axis)
        # oracle: (v . a) a = (7/sqrt2) * (1/sqrt2, 1/sqrt2, 0) = (3.5, 3.5, 0)
        assert out.x == pytest.approx(3.5, abs=1e-12)
        assert out.y == pytest.approx(3.5, abs=1e-12)
        assert out.z == 0.0

    def test_residual_orthogonal(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            axis = random_unit(rng)
            v = Vec3(*rng.uniform(-10, 10, 3))
            p = project_onto_axis(v, axis)
            assert (v - p).dot(axis) == pytest.approx(0.0, abs=1e-12)

    def test_idempotent_and_linear(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            axis = random_unit(rng)
            v = Vec3(*rng.uniform(-5, 5, 3))
            u = Vec3(*rng.uniform(-5, 5, 3))
            p = project_onto_axis(v, axis)
            pp = project_onto_axis(p, axis)
            assert np.allclose(pp, p, atol=1e-12)
            lin = project_onto_axis(v + u, axis)
            sep = project_onto_axis(v, axis) + project_onto_axis(u, axis)
            assert np.allclose(lin, sep, atol=1e-12)


class TestAngleBetween:
    def test_equal_vectors(self):
        v = Vec3(0, 1, 0)
        assert angle_between(v, v) == 0.0

    def test_orthogonal(self):
        assert angle_between(Vec3(1, 0, 0), Vec3(0, 1, 0)) == pytest.approx(
            math.pi / 2, abs=1e-15
        )

    def test_five_degrees_constructed_by_rotation(self):
        a = Vec3(1, 0, 0)
        b = Vec3(math.cos(math.radians(5)), math.sin(math.radians(5)), 0.0)
        assert angle_between(a, b) == pytest.approx(math.radians(5), abs=1e-12)

    def test_clamp_handles_numerically_parallel(self):
        v = Vec3(0.2, -0.3, 0.4).normalized()
        assert angle_between(v, v) >= 0.0  # acos input clamped, no NaN
        assert math.isfinite(angle_between(v, -v))
        assert angle_between(v, -v) == pytest.approx(math.pi, abs=1e-12)

    @given(st.floats(0, math.pi), st.integers(0, 2))
    @settings(max_examples=60)
    def test_recovers_constructed_angle(self, angle, axis_idx):
        base = Vec3(1, 0, 0)
        axes = (Vec3(0, 0, 1), Vec3(0, 1, 0), Vec3(0, 0, -1))
        q = UnitQuat.from_axis_angle(axes[axis_idx], angle)
        assert angle_between(base, rotate(q, base)) == pytest.approx(angle, abs=1e-7)


class TestFrame:
    def test_valid_frame_accepted(self):
        f = make_frame(Vec3(0, 0, 0), Vec3(1, 0, 0), Vec3(0, 1, 0), Vec3(0, 0, 1))
        assert isinstance(f, Frame3)

    def test_left_handed_rejected(self):
        with pytest.raises(GeometryError):
            make_frame(Vec3(0, 0, 0), Vec3(1, 0, 0), Vec3(0, 1, 0), Vec3(0, 0, -1))

    def test_non_unit_rejected(self):
        with pytest.raises(GeometryError):
            make_frame(Vec3(0, 0, 0), Vec3(2, 0, 0), Vec3(0, 1, 0), Vec3(0, 0, 1))

    def test_random_rotated_frames_pass_gram_and_det_checks(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            q = UnitQuat.from_axis_angle(random_unit(rng), rng.uniform(-3, 3))
            u = rotate(q, Vec3(1, 0, 0))
            w = rotate(q, Vec3(0, 1, 0))
            n = rotate(q, Vec3(0, 0, 1))
            f = make_frame(Vec3(*rng.uniform(-1, 1, 3)), u, w, n)
            m = np.array([f.u, f.w, f.n]).T
            assert np.allclose(m.T @ m, np.eye(3), atol=1e-9)
            assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-9)


class TestRotationBetween:
    def test_carries_a_onto_b(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            a, b = random_unit(rng), random_unit(rng)
            q = rotation_between(a, b)
            assert angle_between(rotate(q, a), b) <= 1e-9

    def test_identical_vectors_give_identity(self):
        v = Vec3(0, 0, 1)
        assert rotation_between(v, v) == UnitQuat.identity()

    def test_opposite_vectors_deterministic(self):
        a = Vec3(0, 0, 1)
        q1 = rotation_between(a, -a)
        q2 = rotation_between(a, -a)
        assert q1 == q2
        assert angle_between(rotate(q1, a), -a) <= 1e-9


class TestValueTypes:
    def test_wrench_addition(self):
        w = Wrench6(Vec3(1, 2, 3), Vec3(4, 5, 6)) + Wrench6(Vec3(1, 1, 1), Vec3(0, 0, -6))
        assert w == Wrench6(Vec3(2, 3, 4), Vec3(4, 5, 0))

    def test_zero_singletons(self):
        assert Twist6.zero().linear == Vec3(0, 0, 0)

    def test_pose_fields(self):
        p = Pose(Vec3(1, 2, 3), UnitQuat.identity())
        assert p.position.z == 3
