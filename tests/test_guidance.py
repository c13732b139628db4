import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gds.errors import SimulationFault
from gds.geometry import (
    Pose,
    Twist6,
    UnitQuat,
    Vec3,
    angle_between,
    rotate,
    rotation_between,
    slerp_arc,
    slerp_at,
)
from gds.guidance import (
    GuidancePhase,
    GuidanceThresholds,
    alignment_twist,
    check_transition,
    plan_alignment,
    sample_alignment,
    _quat_log,
    _smoothstep_rate,
    smoothstep,
    update_phase,
)

TH = GuidanceThresholds()
TOOL = Vec3(0.0, 0.0, 1.0)
# plan_alignment's lengths as World passes them, from the thresholds
ALIGN = dict(standoff=TH.standoff, duration=TH.align_duration)


def reference_sample_alignment(plan, t):
    """Position from the start and goal poses at every call: the oracle for
    sample_alignment."""
    if t <= 0.0:
        return tuple(plan.start_pose.position), tuple(plan.start_pose.orientation)
    if t >= plan.duration:
        return tuple(plan.goal_pose.position), tuple(plan.goal_pose.orientation)
    s = smoothstep(t / plan.duration)
    p0, p1 = plan.start_pose.position, plan.goal_pose.position
    pos = Vec3(p0.x + s * (p1.x - p0.x), p0.y + s * (p1.y - p0.y), p0.z + s * (p1.z - p0.z))
    arc = slerp_arc(plan.start_pose.orientation, plan.goal_pose.orientation)
    return tuple(pos), slerp_at(arc, s)


def reference_alignment_twist(plan, t):
    """Position delta and rotation vector recomputed at every call: the
    oracle for alignment_twist."""
    if t <= 0.0 or t >= plan.duration:
        return tuple(Vec3.zero()), tuple(Vec3.zero())
    tau = t / plan.duration
    rate = _smoothstep_rate(tau) / plan.duration
    p0, p1 = plan.start_pose.position, plan.goal_pose.position
    lin = (p1 - p0).scale(rate)
    q_delta = plan.goal_pose.orientation.multiply(plan.start_pose.orientation.conjugate())
    return tuple(lin), tuple(_quat_log(q_delta).scale(rate))


def rotation_angle(q0, q1):
    """Angle of the rotation from q0 to q1, in [0, pi], by atan2 of the
    relative quaternion: well conditioned near 0 and pi, where acos of the
    dot product loses half the digits."""
    w, x, y, z = q1.multiply(q0.conjugate())
    return 2.0 * math.atan2(math.sqrt(x * x + y * y + z * z), abs(w))


unit_vectors = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda v: v[0] * v[0] + v[1] * v[1] + v[2] * v[2] > 1e-4
).map(lambda v: Vec3(*v).normalized())
points = st.tuples(*[st.floats(-0.5, 0.5)] * 3).map(lambda v: Vec3(*v))


class TestUpdatePhase:
    def test_far_stays_free(self):
        assert update_phase(GuidancePhase.FREE_MOTION, 0.12, TH) is GuidancePhase.FREE_MOTION

    def test_adapt_radius_enters_approach(self):
        assert update_phase(GuidancePhase.FREE_MOTION, 0.08, TH) is GuidancePhase.APPROACH

    def test_lock_radius_enters_auto_align(self):
        assert update_phase(GuidancePhase.APPROACH, 0.04, TH) is GuidancePhase.AUTO_ALIGN

    def test_hysteresis_band(self):
        # backing out just past the adapt radius does NOT release
        assert update_phase(GuidancePhase.APPROACH, 0.105, TH) is GuidancePhase.APPROACH
        assert update_phase(GuidancePhase.APPROACH, 0.112, TH) is GuidancePhase.FREE_MOTION

    def test_align_completes_to_constrained_drill(self):
        assert (
            update_phase(GuidancePhase.AUTO_ALIGN, 0.05, TH, aligned=True)
            is GuidancePhase.CONSTRAINED_DRILL
        )
        assert (
            update_phase(GuidancePhase.AUTO_ALIGN, 0.05, TH, aligned=False)
            is GuidancePhase.AUTO_ALIGN
        )

    def test_depth_reached_starts_retract(self):
        assert (
            update_phase(GuidancePhase.CONSTRAINED_DRILL, 0.01, TH, depth_reached=True)
            is GuidancePhase.RETRACT
        )

    def test_retracted_completes_target(self):
        # Retract ends back out at the standoff, within 1e-9 m
        at = -(TH.standoff - 1e-9)
        assert update_phase(GuidancePhase.RETRACT, 0.05, TH, ax_pos=at) is GuidancePhase.TARGET_DONE
        assert (
            update_phase(GuidancePhase.RETRACT, 0.05, TH, ax_pos=math.nextafter(at, math.inf))
            is GuidancePhase.RETRACT
        )

    def test_manual_condition_never_locks(self):
        assert (
            update_phase(GuidancePhase.APPROACH, 0.01, TH, guided=False)
            is GuidancePhase.APPROACH
        )
        assert (
            update_phase(GuidancePhase.APPROACH, 0.01, TH, guided=False, depth_reached=True)
            is GuidancePhase.RETRACT
        )

    def test_invalid_distance_faults(self):
        with pytest.raises(SimulationFault):
            update_phase(GuidancePhase.FREE_MOTION, -0.1, TH)
        with pytest.raises(SimulationFault):
            update_phase(GuidancePhase.FREE_MOTION, float("nan"), TH)

    def test_illegal_transition_faults(self):
        with pytest.raises(SimulationFault):
            check_transition(GuidancePhase.FREE_MOTION, GuidancePhase.CONSTRAINED_DRILL)
        with pytest.raises(SimulationFault):
            check_transition(GuidancePhase.TARGET_DONE, GuidancePhase.RETRACT)
        check_transition(GuidancePhase.APPROACH, GuidancePhase.AUTO_ALIGN)


class TestPlanAlignment:
    def test_already_aligned_is_pure_translation(self):
        axis = Vec3(0.0, 0.0, -1.0)
        q = UnitQuat.from_axis_angle(Vec3(1, 0, 0), math.pi)  # tool +z -> world -z
        start = Pose(Vec3(0.01, 0.0, 0.04), q)
        plan = plan_alignment(start, Vec3(0, 0, 0), axis, TOOL, **ALIGN)
        assert Vec3(*plan.rotation_vector).norm() <= 1e-12
        assert plan.goal_pose.orientation.angle_to(q) <= 1e-12

    def test_goal_position_is_standoff_short_of_target(self):
        axis = Vec3(0.0, 0.0, 1.0)
        start = Pose(Vec3(0.2, 0.1, -0.3), UnitQuat.identity())
        plan = plan_alignment(start, Vec3(0, 0, 0), axis, TOOL, **ALIGN)
        assert plan.goal_pose.position == Vec3(0.0, 0.0, -0.05)

    def test_thirty_degrees_off_plans_thirty_degree_rotation(self):
        axis = rotate(UnitQuat.from_axis_angle(Vec3(0, 1, 0), math.radians(30)), Vec3(0, 0, 1))
        start = Pose(Vec3(0, 0, -0.04), UnitQuat.identity())  # tool axis = +z
        plan = plan_alignment(start, Vec3(0, 0, 0), axis, TOOL, **ALIGN)
        assert Vec3(*plan.rotation_vector).norm() == pytest.approx(math.radians(30), abs=1e-12)
        tool_after = rotate(plan.goal_pose.orientation, TOOL)
        assert angle_between(tool_after, axis) <= 1e-12

    def test_duration_fixed(self):
        plan = plan_alignment(
            Pose(Vec3(0, 0, -0.04), UnitQuat.identity()), Vec3(0, 0, 0), Vec3(0, 0, 1), TOOL,
            **ALIGN,
        )
        assert plan.duration == 4.0


class TestSampleAlignment:
    def _plan(self, angle_deg=30.0):
        axis = rotate(
            UnitQuat.from_axis_angle(Vec3(0, 1, 0), math.radians(angle_deg)), Vec3(0, 0, 1)
        )
        start = Pose(Vec3(0.02, -0.01, -0.04), UnitQuat.identity())
        return plan_alignment(start, Vec3(0, 0, 0), axis, TOOL, **ALIGN)

    def test_endpoints_exact(self):
        plan = self._plan()
        assert sample_alignment(plan, 0.0) == plan.start_pose
        assert sample_alignment(plan, 4.0) == plan.goal_pose

    def test_out_of_range_clamps(self):
        plan = self._plan()
        assert sample_alignment(plan, -1.0) == plan.start_pose
        assert sample_alignment(plan, 9.0) == plan.goal_pose

    def test_halfway_is_midpoint_in_position_and_angle(self):
        # smoothstep(0.5) = 0.5 exactly, so t = 2 s is the true midpoint
        plan = self._plan(30.0)
        mid = sample_alignment(plan, 2.0)
        p0, p1 = plan.start_pose.position, plan.goal_pose.position
        assert np.allclose(mid[0], (np.array(p0) + np.array(p1)) / 2, atol=1e-12)
        assert plan.start_pose.orientation.angle_to(mid[1]) == pytest.approx(
            math.radians(15), abs=1e-9
        )

    def test_boundary_twists_are_zero(self):
        plan = self._plan()
        assert alignment_twist(plan, 0.0) == Twist6.zero()
        assert alignment_twist(plan, 4.0) == Twist6.zero()
        v_mid = alignment_twist(plan, 2.0)
        assert Vec3(*v_mid[0]).norm() > 0.0

    def test_twist_matches_finite_difference_oracle(self):
        plan = self._plan(45.0)
        h = 1e-6
        for t in (0.5, 1.7, 2.9, 3.6):
            a = sample_alignment(plan, t - h)
            b = sample_alignment(plan, t + h)
            fd = (np.array(b[0]) - np.array(a[0])) / (2 * h)
            tw = alignment_twist(plan, t)
            assert np.allclose(tw[0], fd, atol=1e-6)
            # angular magnitude: rotation angle derivative
            dang = plan.start_pose.orientation.angle_to(b[1]) - \
                plan.start_pose.orientation.angle_to(a[1])
            assert Vec3(*tw[1]).norm() == pytest.approx(abs(dang) / (2 * h), abs=1e-5)

    def test_smoothstep_shape(self):
        assert smoothstep(0.0) == 0.0
        assert smoothstep(1.0) == 1.0
        assert smoothstep(0.5) == 0.5


class TestAlignmentOracles:
    @given(
        start=st.tuples(points, unit_vectors, st.floats(-3.2, 3.2)),
        target=points,
        axis=unit_vectors,
        tool=st.sampled_from([TOOL, Vec3(0.6, 0.0, 0.8)]) | unit_vectors,
        against=st.booleans(),
        duration=st.sampled_from([4.0, 0.5]) | st.floats(0.01, 10.0),
        fractions=st.lists(st.floats(-0.1, 1.1), min_size=1, max_size=20),
    )
    @settings(max_examples=100, deadline=None)
    # the tool starts on the drilling axis, so the orientation stays put:
    # slerp_arc's nlerp branch
    @example(
        start=(Vec3(0.01, -0.02, 0.03), Vec3(1.0, 0.0, 0.0), 0.0),
        target=Vec3(0.0, 0.0, 0.0),
        axis=Vec3(0.6, 0.0, 0.8),
        tool=Vec3(0.6, 0.0, 0.8),
        against=False,
        duration=4.0,
        fractions=[0.25, 0.5, 0.9],
    )
    # a half-turn plan sampled just short of its end, where smoothstep
    # rounds to 1
    @example(
        start=(Vec3(0.01, -0.02, 0.03), Vec3(1.0, 0.0, 0.0), 0.0),
        target=Vec3(0.0, 0.0, 0.0),
        axis=Vec3(0.0, 0.0, 1.0),
        tool=Vec3(0.0, 0.0, 1.0),
        against=True,
        duration=4.0,
        fractions=[1.0 - 1e-9],
    )
    def test_twist_and_pose_match_oracles(self, start, target, axis, tool, against, duration, fractions):
        position, rot_axis, angle = start
        orientation = UnitQuat.from_axis_angle(rot_axis, angle)
        if against:
            # the tool starts opposite the drilling axis: a half-turn plan
            orientation = rotation_between(tool, axis.scale(-1.0))
        plan = plan_alignment(
            Pose(position, orientation), target, axis, tool,
            standoff=TH.standoff, duration=duration,
        )
        # 1 kHz grid points at both ends, as World.step asks for them
        times = [f * duration for f in fractions] + [k * 1e-3 for k in range(3)]
        times += [duration - k * 1e-3 for k in range(3)]
        q0 = plan.start_pose.orientation
        total = rotation_angle(q0, plan.goal_pose.orientation)
        for t in times:
            for got, want in (
                (alignment_twist(plan, t), reference_alignment_twist(plan, t)),
                (sample_alignment(plan, t), reference_sample_alignment(plan, t)),
            ):
                assert got == want
                assert repr(got) == repr(want)
            if against:
                # a half-turn plan stays on a shortest arc
                s = smoothstep(min(max(t / duration, 0.0), 1.0))
                got = rotation_angle(q0, UnitQuat(*sample_alignment(plan, t)[1]))
                assert got == pytest.approx(s * total, abs=1e-9)

