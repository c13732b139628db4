import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gds.geometry import (
    Pose,
    Twist6,
    UnitQuat,
    Vec3,
    Wrench6,
    angle_between,
    rotate,
    rotation_between,
)
from gds.guidance import GuidancePhase
from gds.operator_env import (
    EnvironmentModel,
    HoleState,
    OperatorModel,
    VirtualOperator,
    environment_wrench,
    update_hole,
)
from gds.workpiece import CylinderPatch, build_target_frame, DrillTarget

ENV = EnvironmentModel()


def reference_cap(v, cap):
    n = v.norm()
    if n <= cap:
        return v
    return v.scale(cap / n)


class ReferenceOperator(VirtualOperator):
    """The manual wrench as a chain of Vec3 methods: the oracle for the
    float kernel in VirtualOperator._manual_wrench."""

    def _manual_wrench(self, pose, twist, phase, target, t):
        m = self.model
        g = self._ramp(t)
        aim_axis = self._aim_axis(target, t)
        standoff_point = target.point - aim_axis.scale(0.05)

        if self._mode == "aim":
            if self._aligned_enough(pose, standoff_point, aim_axis):
                self._mode = "dwell"
                self._mode_t0 = t
        if self._mode == "dwell" and (t - self._mode_t0) >= self._draws.dwell:
            self._mode = "push"
            self._mode_t0 = t
            self._push_axis = self._final_axis(target)
        if self._mode == "push" and phase is GuidancePhase.RETRACT:
            self._mode = "pull"
            self._mode_t0 = t
        if self._mode in ("aim", "dwell"):
            f = (standoff_point - pose.position).scale(m.k_p) - twist.linear.scale(m.k_d)
            tau = self._orientation_torque(pose, twist, aim_axis)
            return Wrench6(
                reference_cap(f, m.force_cap).scale(g), reference_cap(tau, m.torque_cap).scale(g)
            )
        if self._mode == "push":
            axis = self._push_axis
            f = axis.scale(min(m.push_force, m.force_cap))
            tau = self._orientation_torque(pose, twist, axis)
            return Wrench6(f.scale(g), reference_cap(tau, m.torque_cap).scale(g))
        axis = self._push_axis if self._push_axis is not None else aim_axis
        f = axis.scale(-min(m.push_force, m.force_cap))
        return Wrench6(f.scale(g), Vec3.zero())

    def _aligned_enough(self, pose, standoff_point, aim_axis):
        if (standoff_point - pose.position).norm() > 0.008:
            return False
        tool = rotate(pose.orientation, self.tool_axis_local)
        return angle_between(tool, aim_axis) <= math.radians(1.0)

    def _orientation_torque(self, pose, twist, desired_axis):
        m = self.model
        tool = rotate(pose.orientation, self.tool_axis_local)
        q_err = rotation_between(tool, desired_axis)
        vn = math.sqrt(q_err.x**2 + q_err.y**2 + q_err.z**2)
        if vn < 1e-12:
            rv = Vec3.zero()
        else:
            ang = 2.0 * math.atan2(vn, q_err.w)
            s = ang / vn
            rv = Vec3(s * q_err.x, s * q_err.y, s * q_err.z)
        return rv.scale(m.torque_k_p) - twist.angular.scale(m.torque_k_d)


def flat_target(phi=0.0, theta=0.0):
    frame = build_target_frame(Vec3(0, 0, 0), Vec3(0, 0, -1), Vec3(1, 0, 0))
    return DrillTarget(Vec3(0, 0, 0), frame, phi, theta)


def crest_cylinder():
    return CylinderPatch(Vec3(0, 0, -0.5), Vec3(0, 1, 0), 0.5)


class TestOperator:
    def test_auto_align_emits_zero_wrench(self):
        for variant in ("guided", "manual"):
            op = VirtualOperator(OperatorModel(variant=variant, seed=3))
            target = flat_target()
            op.begin_target(0, target, 0.0)
            w = op.wrench(
                Pose(Vec3(0, 0, 0.04), UnitQuat.identity()),
                Twist6.zero(),
                GuidancePhase.AUTO_ALIGN,
                target,
                1.0,
            )
            assert w == Wrench6.zero()

    def test_guided_pd_pull_with_cap(self):
        # 0.3 m from the pull goal, at rest: k_p * 0.3 = 60 N, capped at 40 N
        op = VirtualOperator(OperatorModel(variant="guided"))
        target = flat_target()
        op.begin_target(0, target, 0.0)
        pose = Pose(Vec3(-0.3, 0.0, 0.0), UnitQuat.identity())
        w = op.wrench(pose, Twist6.zero(), GuidancePhase.FREE_MOTION, target, 10.0)
        assert np.allclose(w.force, (40.0, 0.0, 0.0), atol=1e-12)
        assert w.torque == Vec3.zero()

    def test_reaction_delay_ramps_force_in(self):
        op = VirtualOperator(OperatorModel(variant="guided", reaction_delay=0.25))
        target = flat_target()
        op.begin_target(0, target, 0.0)
        op.notify_grab(0.0)
        pose = Pose(Vec3(-0.3, 0.0, 0.0), UnitQuat.identity())
        w0 = op.wrench(pose, Twist6.zero(), GuidancePhase.FREE_MOTION, target, 0.0)
        w_half = op.wrench(pose, Twist6.zero(), GuidancePhase.FREE_MOTION, target, 0.125)
        w_full = op.wrench(pose, Twist6.zero(), GuidancePhase.FREE_MOTION, target, 0.5)
        assert w0.force.norm() == 0.0
        assert w_half.force.norm() == pytest.approx(20.0, abs=1e-9)
        assert w_full.force.norm() == pytest.approx(40.0, abs=1e-9)

    def test_constrained_drill_pushes_along_axis(self):
        op = VirtualOperator(OperatorModel(variant="guided"))
        target = flat_target(5.0, 0.0)
        op.begin_target(0, target, 0.0)
        op.notify_grab(0.0)
        w = op.wrench(
            Pose(Vec3(0, 0, 0.05), UnitQuat.identity()),
            Twist6.zero(),
            GuidancePhase.CONSTRAINED_DRILL,
            target,
            5.0,
        )
        assert w.force.norm() == pytest.approx(25.0, abs=1e-9)
        assert angle_between(w.force.normalized(), target.axis) <= 1e-12

    def test_same_seed_identical_wrench_stream(self):
        target = flat_target(30.0, 10.0)
        streams = []
        for _ in range(2):
            op = VirtualOperator(OperatorModel(variant="manual", seed=42))
            op.begin_target(0, target, 0.0)
            op.notify_grab(0.0)
            stream = []
            pose = Pose(Vec3(0.05, 0.02, 0.12), UnitQuat.from_axis_angle(Vec3(1, 0, 0), math.pi))
            for k in range(200):
                t = k * 1e-3
                stream.append(op.wrench(pose, Twist6.zero(), GuidancePhase.APPROACH, target, t))
            streams.append(stream)
        assert streams[0] == streams[1]

    def test_different_seed_differs(self):
        target = flat_target(30.0, 10.0)
        outs = []
        for seed in (1, 2):
            op = VirtualOperator(OperatorModel(variant="manual", seed=seed))
            op.begin_target(0, target, 0.0)
            op.notify_grab(0.0)
            pose = Pose(Vec3(0.05, 0.02, 0.12), UnitQuat.from_axis_angle(Vec3(1, 0, 0), math.pi))
            outs.append(op.wrench(pose, Twist6.zero(), GuidancePhase.APPROACH, target, 3.0))
        assert outs[0] != outs[1]

    def test_caps_never_exceeded(self):
        m = OperatorModel(variant="manual", seed=9, force_cap=40.0, torque_cap=5.0)
        op = VirtualOperator(m)
        target = flat_target(45.0, 10.0)
        op.begin_target(0, target, 0.0)
        op.notify_grab(0.0)
        rng = np.random.default_rng(0)
        for k in range(500):
            pose = Pose(
                Vec3(*rng.uniform(-0.5, 0.5, 3)),
                UnitQuat.from_axis_angle(Vec3(*rng.standard_normal(3)), rng.uniform(-3, 3)),
            )
            tw = Twist6(Vec3(*rng.uniform(-0.5, 0.5, 3)), Vec3(*rng.uniform(-1, 1, 3)))
            for phase in (GuidancePhase.FREE_MOTION, GuidancePhase.APPROACH, GuidancePhase.RETRACT):
                w = op.wrench(pose, tw, phase, target, k * 0.01)
                assert w.force.norm() <= 40.0 + 1e-9
                assert w.torque.norm() <= 5.0 + 1e-9

    def test_noiseless_manual_aims_at_true_axis(self):
        m = OperatorModel(variant="manual", seed=5, angular_noise=0.0)
        op = VirtualOperator(m)
        target = flat_target(30.0, 10.0)
        op.begin_target(0, target, 0.0)
        assert angle_between(op._final_axis(target), target.axis) <= 1e-12
        assert angle_between(op._aim_axis(target, 2.7), target.axis) <= 1e-12

    def test_manual_residual_axis_matches_drawn_error(self):
        m = OperatorModel(variant="manual", seed=11, angular_noise=6.0)
        op = VirtualOperator(m)
        target = flat_target(30.0, 10.0)
        op.begin_target(0, target, 0.0)
        ax = op._final_axis(target)
        err_deg = math.degrees(angle_between(ax, target.axis))
        assert 0.0 < err_deg < 30.0  # a few sigma of the 6-degree noise

    def test_model_validation(self):
        with pytest.raises(ValueError):
            OperatorModel(variant="psychic")
        with pytest.raises(ValueError):
            OperatorModel(force_cap=0.0)
        with pytest.raises(ValueError):
            OperatorModel(k_p=-1.0)



def unit_vectors():
    return st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
        lambda v: v[0] * v[0] + v[1] * v[1] + v[2] * v[2] > 1e-4
    ).map(lambda v: Vec3(*v).normalized())


class TestManualKernel:
    """VirtualOperator._manual_wrench against ReferenceOperator, compared
    bit for bit (``repr`` tells -0.0 from 0.0), with the mode machine's
    state after every call."""

    @staticmethod
    def _pair(model, tool_local, target):
        ops = VirtualOperator(model, tool_local), ReferenceOperator(model, tool_local)
        for op in ops:
            op.begin_target(0, target, 0.0)
            op.notify_grab(0.0)
        return ops

    @staticmethod
    def _step(new, old, pose, twist, phase, target, t):
        want = old.wrench(pose, twist, phase, target, t)
        got = new.wrench(pose, twist, phase, target, t)
        assert got == want
        assert repr(got) == repr(want)
        assert (new._mode, new._mode_t0, new._push_axis) == (old._mode, old._mode_t0, old._push_axis)
        return got

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_vec3_oracle(self, data):
        draw = data.draw
        model = OperatorModel(
            variant="manual",
            seed=draw(st.integers(0, 2**32 - 1)),
            angular_noise=draw(st.sampled_from([0.0, 6.0, 20.0])),
            reaction_delay=draw(st.sampled_from([0.0, 0.25])),
            align_dwell=draw(st.floats(0.5, 3.0)),
            align_dwell_jitter=draw(st.sampled_from([0.0, 0.5])),
            force_cap=draw(st.sampled_from([5.0, 40.0])),
            torque_cap=draw(st.sampled_from([0.5, 5.0])),
        )
        tool = draw(st.sampled_from([Vec3(0.0, 0.0, 1.0), Vec3(0.6, 0.0, 0.8)]))
        point = Vec3(*[draw(st.floats(-0.3, 0.3)) for _ in range(3)])
        frame = build_target_frame(point, Vec3(0, 0, -1), Vec3(1, 0, 0))
        target = DrillTarget(point, frame, draw(st.floats(0.0, 60.0)), draw(st.floats(0.0, 360.0)))
        new, old = self._pair(model, tool, target)
        t = 0.0
        for _ in range(draw(st.integers(1, 25))):
            t += draw(st.floats(0.0, 1.5))
            if old._push_axis is not None:
                desired = old._push_axis
            else:
                desired = old._aim_axis(target, t)
            kind = draw(st.sampled_from(["random", "standoff", "along", "against"]))
            offset = Vec3(*[draw(st.floats(-0.4, 0.4)) for _ in range(3)])
            if kind == "random":
                pose = Pose(
                    target.point + offset,
                    UnitQuat.from_axis_angle(draw(unit_vectors()), draw(st.floats(-3.2, 3.2))),
                )
            elif kind == "standoff":
                # near the standoff point and the desired axis, on either side
                # of the dwell's 8 mm and 1 degree
                tilt = UnitQuat.from_axis_angle(draw(unit_vectors()), draw(st.floats(0.0, 0.02)))
                pose = Pose(
                    target.point - desired.scale(0.05) + offset.scale(draw(st.sampled_from([0.0, 0.01, 0.02]))),
                    tilt.multiply(rotation_between(tool, desired)),
                )
            else:
                axis = desired if kind == "along" else desired.scale(-1.0)
                pose = Pose(target.point + offset, rotation_between(tool, axis))
            lin, ang = draw(st.sampled_from([0.0, 0.05, 1.0])), draw(st.sampled_from([0.0, 0.3, 10.0]))
            twist = Twist6(
                Vec3(*[lin * draw(st.floats(-1.0, 1.0)) for _ in range(3)]),
                Vec3(*[ang * draw(st.floats(-1.0, 1.0)) for _ in range(3)]),
            )
            phase = draw(st.sampled_from([
                GuidancePhase.APPROACH, GuidancePhase.APPROACH,
                GuidancePhase.FREE_MOTION, GuidancePhase.RETRACT,
            ]))
            self._step(new, old, pose, twist, phase, target, t)

    def test_scripted_session_reaches_every_branch(self):
        tool = Vec3(0.0, 0.0, 1.0)
        model = OperatorModel(variant="manual", seed=4, align_dwell=1.0, align_dwell_jitter=0.0)
        target = flat_target(30.0, 10.0)
        new, old = self._pair(model, tool, target)
        approach, rest = GuidancePhase.APPROACH, Twist6.zero()

        def error_vector_norm(pose, axis):
            q = rotation_between(rotate(pose.orientation, tool), axis)
            return math.sqrt(q.x**2 + q.y**2 + q.z**2)

        # aim, far off, the tool opposite the aim axis: the antipodal branch,
        # both caps active
        aim = old._aim_axis(target, 1.0)
        pose = Pose(target.point + Vec3(0.3, 0.0, 0.3), rotation_between(tool, aim.scale(-1.0)))
        assert rotate(pose.orientation, tool).dot(aim) < -1.0 + 1e-12
        w = self._step(new, old, pose, rest, approach, target, 1.0)
        assert new._mode == "aim"
        assert w.force.norm() == pytest.approx(40.0, abs=1e-9)
        assert w.torque.norm() == pytest.approx(5.0, abs=1e-9)

        # at the standoff point, the tool on the aim axis: vn < 1e-12, both
        # caps inactive, and the dwell begins
        aim = old._aim_axis(target, 2.0)
        pose = Pose(target.point - aim.scale(0.05), rotation_between(tool, aim))
        assert error_vector_norm(pose, aim) < 1e-12
        spin = Twist6(Vec3(0.01, 0.0, 0.0), Vec3(0.0, 0.0, 0.5))
        w = self._step(new, old, pose, spin, approach, target, 2.0)
        assert new._mode == "dwell"
        assert 0.0 < w.force.norm() < 40.0 and 0.0 < w.torque.norm() < 5.0

        # the dwell has run out: push along the final axis, the tool opposite it
        final = old._final_axis(target)
        pose = Pose(pose.position, rotation_between(tool, final.scale(-1.0)))
        w = self._step(new, old, pose, rest, approach, target, 3.5)
        assert new._mode == "push"
        assert w.torque.norm() == pytest.approx(5.0, abs=1e-9)

        # pushing with the tool on the push axis: no torque at all
        pose = Pose(pose.position, rotation_between(tool, final))
        assert error_vector_norm(pose, final) < 1e-12
        w = self._step(new, old, pose, rest, approach, target, 4.0)
        assert w.torque == Vec3.zero()
        assert w.force == final.scale(25.0)

        # retract: pull back along the push axis
        w = self._step(new, old, pose, rest, GuidancePhase.RETRACT, target, 5.0)
        assert new._mode == "pull"
        assert w == Wrench6(final.scale(-25.0), Vec3.zero())


class TestEnvironment:
    def test_no_contact_zero_wrench(self):
        target = flat_target()
        w, collision, _ = environment_wrench(
            Pose(Vec3(0.2, 0.0, 0.02), UnitQuat.identity()),
            Twist6.zero(),
            crest_cylinder(),
            target,
            HoleState(),
            ENV,
        )
        assert w == Wrench6.zero()
        assert not collision

    def test_cutting_resistance_proportional_to_feed(self):
        # feed 2 mm/s against cut_resistance 800 N s/m -> 1.6 N opposing
        target = flat_target()
        tip = Pose(Vec3(0, 0, -0.001), UnitQuat.identity())  # 1 mm into the cut
        feed = target.axis.scale(0.002)
        w, _, ax_pos = environment_wrench(
            tip, Twist6(feed, Vec3.zero()), crest_cylinder(), target,
            HoleState(depth=0.001, engaged=True), ENV,
        )
        assert ax_pos == pytest.approx(0.001, abs=1e-12)
        along = w.force.dot(target.axis)
        assert along == pytest.approx(-1.6, abs=1e-9)

    def test_retraction_has_no_cut_force(self):
        target = flat_target()
        tip = Pose(Vec3(0, 0, -0.001), UnitQuat.identity())
        pull = target.axis.scale(-0.01)
        w, _, _ = environment_wrench(
            tip, Twist6(pull, Vec3.zero()), crest_cylinder(), target,
            HoleState(depth=0.002, engaged=True), ENV,
        )
        assert w == Wrench6.zero()

    def test_off_target_contact_pushes_outward(self):
        target = flat_target()
        surf = crest_cylinder()
        tip = Pose(Vec3(0.05, 0.0, -0.0035), UnitQuat.identity())  # ~1 mm inside, 5 cm off target
        w, collision, _ = environment_wrench(
            tip, Twist6.zero(), surf, target, HoleState(), ENV,
        )
        assert w.force.norm() > 0.0
        _, n_out = surf.closest_point(tip.position)
        assert w.force.dot(n_out) > 0.0
        assert not collision  # only ~1 mm penetration

    def test_deep_off_target_penetration_is_collision(self):
        target = flat_target()
        tip = Pose(Vec3(0.05, 0.0, -0.0085), UnitQuat.identity())  # ~6 mm inside
        w, collision, _ = environment_wrench(
            tip, Twist6.zero(), crest_cylinder(), target, HoleState(), ENV,
        )
        assert collision

    def test_contact_never_pulls(self):
        # retreating fast: damping term would flip the sign; force is rectified
        target = flat_target()
        surf = crest_cylinder()
        tip = Pose(Vec3(0.05, 0.0, -0.0030), UnitQuat.identity())
        _, n_out = surf.closest_point(tip.position)
        retreat = Twist6(n_out.scale(1.0), Vec3.zero())
        w, _, _ = environment_wrench(tip, retreat, surf, target, HoleState(), ENV)
        assert w.force.dot(n_out) >= 0.0

    def test_passive_over_contact_cycle(self):
        # drive the tip into the surface and back out along the normal at
        # constant speed; net energy injected by the contact must be <= 0
        target = flat_target()
        surf = crest_cylinder()
        dt = 1e-3
        speed = 0.005
        z0, depth = 0.002, 0.003  # start above, descend 1 mm past the surface
        for damping in (200.0, 0.0):
            env = EnvironmentModel(contact_damping=damping)
            powers = []
            n_steps = int(round(2 * depth / speed / dt))
            z = z0
            for k in range(n_steps + 1):
                going_down = k <= n_steps // 2
                vz = -speed if going_down else speed
                pose = Pose(Vec3(0.05, 0.0, z), UnitQuat.identity())
                tw = Twist6(Vec3(0.0, 0.0, vz), Vec3.zero())
                w, _, _ = environment_wrench(pose, tw, surf, target, HoleState(), env)
                powers.append(w.force.dot(tw.linear))
                z += vz * dt
            net = dt * (math.fsum(powers) - 0.5 * (powers[0] + powers[-1]))
            assert net <= 1e-6


class TestUpdateHole:
    def test_feed_integrates(self):
        h = update_hole(HoleState(), 0.001, 25.0, 1.0, ENV)
        assert h.depth == pytest.approx(0.001, abs=1e-15)
        assert h.engaged

    def test_below_thrust_threshold_no_advance(self):
        h = update_hole(HoleState(depth=0.002), 0.001, 2.0, 1.0, ENV)
        assert h.depth == 0.002

    def test_negative_feed_never_undrills(self):
        h = update_hole(HoleState(depth=0.004), -0.01, 25.0, 1.0, ENV)
        assert h.depth == 0.004

    def test_not_at_bottom_no_advance(self):
        h = update_hole(HoleState(depth=0.005), 0.001, 25.0, 1.0, ENV, at_bottom=False)
        assert h.depth == 0.005

    def test_monotone_depth(self):
        rng = np.random.default_rng(2)
        h = HoleState()
        prev = 0.0
        for _ in range(200):
            h = update_hole(
                h,
                float(rng.uniform(-0.005, 0.005)),
                float(rng.uniform(0.0, 30.0)),
                1e-3,
                ENV,
            )
            assert h.depth >= prev
            prev = h.depth

    def test_model_validation(self):
        with pytest.raises(ValueError):
            EnvironmentModel(contact_stiffness=-1.0)
