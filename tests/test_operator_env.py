import math

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from gds.engine import PlantModel
from gds.guidance import GuidancePhase
from gds.operator_env import (
    CUT_FACE_TOLERANCE,
    EnvironmentModel,
    Hole,
    OperatorModel,
    VirtualOperator,
    environment_wrench,
    update_hole,
)
from gds.workpiece import CylinderPatch, TriangleMesh, build_target_frame, DrillTarget

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
        aim_axis = Vec3(*self._aim_axis(target, t))
        standoff_point = target.point - aim_axis.scale(0.05)

        if self._mode == "aim":
            if self._aligned_enough(pose, standoff_point, aim_axis):
                self._mode = "dwell"
                self._dwell_t0 = t
        if self._mode == "dwell" and (t - self._dwell_t0) >= self._draws.dwell:
            self._mode = "push"
            self._push_axis = Vec3(*self._final_axis(target))
        if self._mode == "push" and phase is GuidancePhase.RETRACT:
            self._mode = "pull"
        if self._mode in ("aim", "dwell"):
            f = (standoff_point - pose.position).scale(m.k_p) - twist.linear.scale(m.k_d)
            tau = self._orientation_torque(pose, twist, aim_axis)
            return (
                tuple(reference_cap(f, m.force_cap).scale(g)),
                tuple(reference_cap(tau, m.torque_cap).scale(g)),
            )
        if self._mode == "push":
            axis = self._push_axis
            f = axis.scale(min(m.push_force, m.force_cap))
            tau = self._orientation_torque(pose, twist, axis)
            return tuple(f.scale(g)), tuple(reference_cap(tau, m.torque_cap).scale(g))
        axis = self._push_axis if self._push_axis is not None else aim_axis
        f = axis.scale(-min(m.push_force, m.force_cap))
        return tuple(f.scale(g)), tuple(Vec3.zero())

    def _aligned_enough(self, pose, standoff_point, aim_axis):
        if (standoff_point - pose.position).norm() > 0.008:
            return False
        tool = rotate(pose.orientation, Vec3(*self.tool_axis_local))
        return angle_between(tool, aim_axis) <= math.radians(1.0)

    def _orientation_torque(self, pose, twist, desired_axis):
        m = self.model
        tool = rotate(pose.orientation, Vec3(*self.tool_axis_local))
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


def reference_target_coordinates(position, entry, axis, radius):
    """The tip's coordinates in a hole at ``entry`` along the unit ``axis``
    with carve-out ``radius``, each float operation in the step's order:
    ``ax_pos``, ``on_target`` and the distance from the entry. The oracle
    for ``Hole.coordinates``."""
    tx, ty, tz = entry
    ux, uy, uz = axis
    rx, ry, rz = position[0] - tx, position[1] - ty, position[2] - tz
    ax_pos = rx * ux + ry * uy + rz * uz
    lx, ly, lz = rx - ax_pos * ux, ry - ax_pos * uy, rz - ax_pos * uz
    on_target = math.sqrt(lx * lx + ly * ly + lz * lz) <= radius
    return ax_pos, on_target, math.sqrt(rx * rx + ry * ry + rz * rz)


def target_hole(target, depth=0.0, env=ENV):
    """The hole ``World`` makes for ``target``, cut to ``depth``."""
    hole = Hole(target.point, target.axis, env.hole_radius)
    hole.depth = depth
    return hole


def hole_wrench(tip, twist, surface, target, depth, env=ENV):
    """``environment_wrench`` in ``target``'s hole cut to ``depth``, with
    the tip's coordinates from the oracle."""
    ax_pos, on_target, _ = reference_target_coordinates(
        tip.position, target.point, target.axis, env.hole_radius
    )
    return environment_wrench(
        tip, twist, surface, target_hole(target, depth, env), env, ax_pos, on_target
    )


class TestOperator:
    def test_guided_pd_pull_with_cap(self):
        # 0.3 m from the pull goal, at rest: k_p * 0.3 = 60 N, capped at 40 N
        op = VirtualOperator(OperatorModel(), guided=True)
        target = flat_target()
        op.begin_target(target, 0.0)
        pose = Pose(Vec3(-0.3, 0.0, 0.0), UnitQuat.identity())
        w = op.wrench(pose, Twist6.zero(), GuidancePhase.FREE_MOTION, target, 10.0)
        assert np.allclose(w[0], (40.0, 0.0, 0.0), atol=1e-12)
        assert w[1] == Vec3.zero()

    def test_reaction_delay_ramps_force_in(self):
        op = VirtualOperator(OperatorModel(reaction_delay=0.25), guided=True)
        target = flat_target()
        op.begin_target(target, 0.0)
        op.notify_grab(0.0)
        pose = Pose(Vec3(-0.3, 0.0, 0.0), UnitQuat.identity())
        w0 = op.wrench(pose, Twist6.zero(), GuidancePhase.FREE_MOTION, target, 0.0)
        w_half = op.wrench(pose, Twist6.zero(), GuidancePhase.FREE_MOTION, target, 0.125)
        w_full = op.wrench(pose, Twist6.zero(), GuidancePhase.FREE_MOTION, target, 0.5)
        assert Vec3(*w0[0]).norm() == 0.0
        assert Vec3(*w_half[0]).norm() == pytest.approx(20.0, abs=1e-9)
        assert Vec3(*w_full[0]).norm() == pytest.approx(40.0, abs=1e-9)

    def test_constrained_drill_pushes_along_axis(self):
        op = VirtualOperator(OperatorModel(), guided=True)
        target = flat_target(5.0, 0.0)
        op.begin_target(target, 0.0)
        op.notify_grab(0.0)
        w = op.wrench(
            Pose(Vec3(0, 0, 0.05), UnitQuat.identity()),
            Twist6.zero(),
            GuidancePhase.CONSTRAINED_DRILL,
            target,
            5.0,
        )
        assert Vec3(*w[0]).norm() == pytest.approx(25.0, abs=1e-9)
        assert angle_between(Vec3(*w[0]).normalized(), target.axis) <= 1e-12

    def test_same_seed_identical_wrench_stream(self):
        target = flat_target(30.0, 10.0)
        streams = []
        for _ in range(2):
            op = VirtualOperator(OperatorModel(seed=42), guided=False)
            op.begin_target(target, 0.0)
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
            op = VirtualOperator(OperatorModel(seed=seed), guided=False)
            op.begin_target(target, 0.0)
            op.notify_grab(0.0)
            pose = Pose(Vec3(0.05, 0.02, 0.12), UnitQuat.from_axis_angle(Vec3(1, 0, 0), math.pi))
            outs.append(op.wrench(pose, Twist6.zero(), GuidancePhase.APPROACH, target, 3.0))
        assert outs[0] != outs[1]

    def test_caps_never_exceeded(self):
        m = OperatorModel(seed=9, force_cap=40.0, torque_cap=5.0)
        op = VirtualOperator(m, guided=False)
        target = flat_target(45.0, 10.0)
        op.begin_target(target, 0.0)
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
                assert Vec3(*w[0]).norm() <= 40.0 + 1e-9
                assert Vec3(*w[1]).norm() <= 5.0 + 1e-9

    def test_noiseless_manual_aims_at_true_axis(self):
        m = OperatorModel(seed=5, angular_noise=0.0)
        op = VirtualOperator(m, guided=False)
        target = flat_target(30.0, 10.0)
        op.begin_target(target, 0.0)
        assert angle_between(Vec3(*op._final_axis(target)), target.axis) <= 1e-12
        assert angle_between(Vec3(*op._aim_axis(target, 2.7)), target.axis) <= 1e-12

    def test_manual_residual_axis_matches_drawn_error(self):
        m = OperatorModel(seed=11, angular_noise=6.0)
        op = VirtualOperator(m, guided=False)
        target = flat_target(30.0, 10.0)
        op.begin_target(target, 0.0)
        ax = Vec3(*op._final_axis(target))
        err_deg = math.degrees(angle_between(ax, target.axis))
        assert 0.0 < err_deg < 30.0  # a few sigma of the 6-degree noise

    def test_model_validation(self):
        with pytest.raises(ValueError):
            OperatorModel(force_cap=0.0)
        with pytest.raises(ValueError):
            OperatorModel(k_p=-1.0)

    def test_guided_keeps_no_manual_state(self):
        op = VirtualOperator(OperatorModel(), guided=True)
        op.begin_target(flat_target(30.0, 10.0), 1.0)
        assert op._rng is None
        assert not hasattr(op, "_draws") and not hasattr(op, "_mode")


# every non-negative field of the three models
_NON_NEGATIVE = [
    (OperatorModel, name) for name in (
        "k_p", "k_d", "torque_k_p", "torque_k_d", "angular_noise",
        "reaction_delay", "align_dwell", "align_dwell_jitter",
    )
] + [
    (EnvironmentModel, name) for name in (
        "contact_stiffness", "contact_damping", "cut_resistance", "thrust_threshold", "hole_radius",
    )
] + [(PlantModel, "lag_time_constant")]


@pytest.mark.parametrize(
    "model, name", _NON_NEGATIVE, ids=[f"{m.__name__}.{n}" for m, n in _NON_NEGATIVE]
)
def test_non_negative_fields_refuse_nan(model, name):
    model(**{name: 0.0})
    with pytest.raises(ValueError, match=name):
        model(**{name: math.nan})
    with pytest.raises(ValueError, match=name):
        model(**{name: -1e-300})



def unit_vectors():
    return st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
        lambda v: v[0] * v[0] + v[1] * v[1] + v[2] * v[2] > 1e-4
    ).map(lambda v: Vec3(*v).normalized())


def _state(op):
    """Every field of an operator, its RNG (a manual one's) by the
    generator's state: a dwell's start time is there only once a dwell has
    started."""
    state = dict(vars(op))
    if op._rng is not None:
        state["_rng"] = op._rng.bit_generator.state
    return state


class TestManualKernel:
    """VirtualOperator._manual_wrench against ReferenceOperator, compared
    bit for bit (``repr`` tells -0.0 from 0.0), with the mode machine's
    state after every call."""

    @staticmethod
    def _pair(model, tool_local, target):
        ops = (
            VirtualOperator(model, tool_local, guided=False),
            ReferenceOperator(model, tool_local, guided=False),
        )
        for op in ops:
            op.begin_target(target, 0.0)
            op.notify_grab(0.0)
        return ops

    @staticmethod
    def _step(new, old, pose, twist, phase, target, t):
        want = old.wrench(pose, twist, phase, target, t)
        got = new.wrench(pose, twist, phase, target, t)
        assert got == want
        assert repr(got) == repr(want)
        assert _state(new) == _state(old)
        return got

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_vec3_oracle(self, data):
        draw = data.draw
        model = OperatorModel(
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
                desired = Vec3(*old._aim_axis(target, t))
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
        model = OperatorModel(seed=4, align_dwell=1.0, align_dwell_jitter=0.0)
        target = flat_target(30.0, 10.0)
        new, old = self._pair(model, tool, target)
        approach, rest = GuidancePhase.APPROACH, Twist6.zero()

        def error_vector_norm(pose, axis):
            q = rotation_between(rotate(pose.orientation, tool), axis)
            return math.sqrt(q.x**2 + q.y**2 + q.z**2)

        # aim, far off, the tool opposite the aim axis: the antipodal branch,
        # both caps active
        aim = Vec3(*old._aim_axis(target, 1.0))
        pose = Pose(target.point + Vec3(0.3, 0.0, 0.3), rotation_between(tool, aim.scale(-1.0)))
        assert rotate(pose.orientation, tool).dot(aim) < -1.0 + 1e-12
        w = self._step(new, old, pose, rest, approach, target, 1.0)
        assert new._mode == "aim"
        assert Vec3(*w[0]).norm() == pytest.approx(40.0, abs=1e-9)
        assert Vec3(*w[1]).norm() == pytest.approx(5.0, abs=1e-9)

        # at the standoff point, the tool on the aim axis: vn < 1e-12, both
        # caps inactive, and the dwell begins
        aim = Vec3(*old._aim_axis(target, 2.0))
        pose = Pose(target.point - aim.scale(0.05), rotation_between(tool, aim))
        assert error_vector_norm(pose, aim) < 1e-12
        spin = Twist6(Vec3(0.01, 0.0, 0.0), Vec3(0.0, 0.0, 0.5))
        w = self._step(new, old, pose, spin, approach, target, 2.0)
        assert new._mode == "dwell"
        assert 0.0 < Vec3(*w[0]).norm() < 40.0 and 0.0 < Vec3(*w[1]).norm() < 5.0

        # the dwell has run out: push along the final axis, the tool opposite it
        final = Vec3(*old._final_axis(target))
        pose = Pose(pose.position, rotation_between(tool, final.scale(-1.0)))
        w = self._step(new, old, pose, rest, approach, target, 3.5)
        assert new._mode == "push"
        assert Vec3(*w[1]).norm() == pytest.approx(5.0, abs=1e-9)

        # pushing with the tool on the push axis: no torque at all
        pose = Pose(pose.position, rotation_between(tool, final))
        assert error_vector_norm(pose, final) < 1e-12
        w = self._step(new, old, pose, rest, approach, target, 4.0)
        assert w[1] == Vec3.zero()
        assert w[0] == final.scale(25.0)

        # retract: pull back along the push axis
        w = self._step(new, old, pose, rest, GuidancePhase.RETRACT, target, 5.0)
        assert new._mode == "pull"
        assert w == Wrench6(final.scale(-25.0), Vec3.zero())


class TestEnvironment:
    def test_no_contact_zero_wrench(self):
        target = flat_target()
        tip = Pose(Vec3(0.2, 0.0, 0.02), UnitQuat.identity())
        w, collision = hole_wrench(tip, Twist6.zero(), crest_cylinder(), target, 0.0)
        assert w == Wrench6.zero()
        assert not collision

    def test_cutting_resistance_proportional_to_feed(self):
        # feed 2 mm/s against cut_resistance 800 N s/m -> 1.6 N opposing
        target = flat_target()
        tip = Pose(Vec3(0, 0, -0.001), UnitQuat.identity())  # 1 mm into the cut
        feed = target.axis.scale(0.002)
        w, _ = hole_wrench(tip, Twist6(feed, Vec3.zero()), crest_cylinder(), target, 0.001)
        along = Vec3(*w[0]).dot(target.axis)
        assert along == pytest.approx(-1.6, abs=1e-9)

    def test_retraction_has_no_cut_force(self):
        target = flat_target()
        tip = Pose(Vec3(0, 0, -0.001), UnitQuat.identity())
        pull = target.axis.scale(-0.01)
        w, _ = hole_wrench(tip, Twist6(pull, Vec3.zero()), crest_cylinder(), target, 0.002)
        assert w == Wrench6.zero()

    def test_off_target_contact_pushes_outward(self):
        target = flat_target()
        surf = crest_cylinder()
        tip = Pose(Vec3(0.05, 0.0, -0.0035), UnitQuat.identity())  # ~1 mm inside, 5 cm off target
        w, collision = hole_wrench(tip, Twist6.zero(), surf, target, 0.0)
        assert Vec3(*w[0]).norm() > 0.0
        _, n_out = surf.closest_point(tip.position)
        assert Vec3(*w[0]).dot(n_out) > 0.0
        assert not collision  # only ~1 mm penetration

    def test_deep_off_target_penetration_is_collision(self):
        target = flat_target()
        tip = Pose(Vec3(0.05, 0.0, -0.0085), UnitQuat.identity())  # ~6 mm inside
        w, collision = hole_wrench(tip, Twist6.zero(), crest_cylinder(), target, 0.0)
        assert collision

    def test_contact_never_pulls(self):
        # retreating fast: damping term would flip the sign; force is rectified
        target = flat_target()
        surf = crest_cylinder()
        tip = Pose(Vec3(0.05, 0.0, -0.0030), UnitQuat.identity())
        _, n_out = surf.closest_point(tip.position)
        retreat = Twist6(n_out.scale(1.0), Vec3.zero())
        w, _ = hole_wrench(tip, retreat, surf, target, 0.0)
        assert Vec3(*w[0]).dot(n_out) >= 0.0

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
                w, _ = hole_wrench(pose, tw, surf, target, 0.0, env)
                powers.append(Vec3(*w[0]).dot(tw.linear))
                z += vz * dt
            net = dt * (math.fsum(powers) - 0.5 * (powers[0] + powers[-1]))
            assert net <= 1e-6

    def test_clearance_ball_skips_the_mesh_query(self, monkeypatch):
        # a flat square 5 cm below the target plane; the tip descends off
        # target from 20 cm above it, toward contact
        mesh = TriangleMesh(
            (Vec3(-1, -1, -0.05), Vec3(1, -1, -0.05), Vec3(1, 1, -0.05), Vec3(-1, 1, -0.05)),
            ((0, 1, 2), (0, 2, 3)),
        )
        queries = []
        signed_distance = TriangleMesh.signed_distance

        def counted(self, p):
            queries.append(p)
            return signed_distance(self, p)

        monkeypatch.setattr(TriangleMesh, "signed_distance", counted)
        target = flat_target()
        answers = []
        for k in range(202):
            tip = Pose(Vec3(0.3, 0.0, 0.15 - 1e-3 * k), UnitQuat.identity())
            answers.append(
                hole_wrench(tip, Twist6(Vec3(0.0, 0.0, -0.1), Vec3.zero()), mesh, target, 0.0)
            )
        # each ball covers the next half of the remaining gap, about
        assert len(queries) <= 20
        assert answers[:200] == [(Wrench6.zero(), False)] * 200
        # the last step reaches 1 mm into the square, and queries
        assert queries[-1].z == pytest.approx(-0.051)
        assert answers[201][0][0][2] > 0.0


# tips whose lateral offset from the axis is exactly 6 mm, or one ulp
# beyond it: (tip, entry, axis, radius, on_target)
_EDGE = math.nextafter(0.006, math.inf)
_RADIUS_EXAMPLES = [
    (Vec3(0.006, 0.0, 0.503), Vec3(0.0, 0.0, 0.5), Vec3(0.0, 0.0, 1.0), 0.006, True),
    (Vec3(_EDGE, 0.0, 0.503), Vec3(0.0, 0.0, 0.5), Vec3(0.0, 0.0, 1.0), 0.006, False),
    (Vec3(0.0, 0.006, -0.002), Vec3(0.0, 0.0, 0.0), Vec3(0.0, 0.0, -1.0), 0.006, True),
    (Vec3(0.0, -_EDGE, -0.002), Vec3(0.0, 0.0, 0.0), Vec3(0.0, 0.0, -1.0), 0.006, False),
    (
        Vec3(0.006, 0.0, 0.003), Vec3(0.0, 0.0, 0.0), Vec3(0.0, 0.0, 1.0),
        math.nextafter(0.006, 0.0), False,
    ),
]


def face_pairs():
    """(depth, ax_pos) with the tip at most three tolerances short of the
    bottom and not beyond it."""
    return st.floats(1e-3, 0.02).flatmap(
        lambda d: st.tuples(st.just(d), st.floats(d - 3.0 * CUT_FACE_TOLERANCE, d))
    )


class TestHole:
    @pytest.mark.parametrize("tip, entry, axis, radius, on_target", _RADIUS_EXAMPLES)
    def test_radius_examples_straddle_the_carve_out(self, tip, entry, axis, radius, on_target):
        # every example's axis is along z and its offset in x or in y
        assert abs(tip.x - entry.x) + abs(tip.y - entry.y) in (0.006, _EDGE)
        assert reference_target_coordinates(tip, entry, axis, radius)[1] is on_target

    @settings(max_examples=300, deadline=None)
    @given(
        tip=st.tuples(*[st.floats(-0.2, 0.2)] * 3).map(lambda v: Vec3(*v)),
        entry=st.tuples(*[st.floats(-0.5, 0.5)] * 3).map(lambda v: Vec3(*v)),
        axis=unit_vectors(),
        radius=st.floats(0.0, 0.05),
    )
    @example(*_RADIUS_EXAMPLES[0][:4])
    @example(*_RADIUS_EXAMPLES[1][:4])
    @example(*_RADIUS_EXAMPLES[2][:4])
    @example(*_RADIUS_EXAMPLES[3][:4])
    @example(*_RADIUS_EXAMPLES[4][:4])
    def test_coordinates_match_oracle(self, tip, entry, axis, radius):
        want = reference_target_coordinates(tip, entry, axis, radius)
        got = Hole(entry, axis, radius).coordinates(*tip)
        assert got == want and repr(got) == repr(want)

    @settings(max_examples=300, deadline=None)
    @given(
        pair=face_pairs(),
        feed=st.floats(1e-4, 0.05),
        push=st.floats(ENV.thrust_threshold, 40.0),
    )
    @example(pair=(0.005, 0.005 - CUT_FACE_TOLERANCE), feed=0.001, push=25.0)
    @example(
        pair=(0.005, math.nextafter(0.005 - CUT_FACE_TOLERANCE, -math.inf)), feed=0.001, push=25.0
    )
    def test_one_cutting_face_rule(self, pair, feed, push):
        # feeding forward, hard enough and not beyond the bottom: the cut
        # grows exactly when the material resists the feed
        depth, ax_pos = pair
        target = flat_target()
        hole = target_hole(target, depth)
        tip = Pose(target.point + target.axis.scale(ax_pos), UnitQuat.identity())
        twist = Twist6(target.axis.scale(feed), Vec3.zero())
        w, collision = environment_wrench(tip, twist, crest_cylinder(), hole, ENV, ax_pos, True)
        resisted = Vec3(*w[0]).dot(target.axis)
        grown = update_hole(hole, ax_pos, feed, push, 1e-3, ENV) > depth
        assert resisted in (0.0, -ENV.cut_resistance * feed)
        assert (resisted == -ENV.cut_resistance * feed) is grown
        assert not collision and w[1] == Vec3.zero()


class TestUpdateHole:
    def test_feed_integrates(self):
        hole = target_hole(flat_target())
        depth = update_hole(hole, 0.0, 0.001, 25.0, 1.0, ENV)
        assert depth == hole.depth == pytest.approx(0.001, abs=1e-15)

    def test_below_thrust_threshold_no_advance(self):
        assert update_hole(target_hole(flat_target(), 0.002), 0.002, 0.001, 2.0, 1.0, ENV) == 0.002

    def test_negative_feed_never_undrills(self):
        assert update_hole(target_hole(flat_target(), 0.004), 0.004, -0.01, 25.0, 1.0, ENV) == 0.004

    def test_not_at_bottom_no_advance(self):
        # 1 mm short of the bottom, ten times the cutting-face tolerance
        assert update_hole(target_hole(flat_target(), 0.005), 0.004, 0.001, 25.0, 1.0, ENV) == 0.005

    def test_cutting_face_boundary(self):
        depth = 0.005
        face = depth - CUT_FACE_TOLERANCE
        assert update_hole(target_hole(flat_target(), depth), face, 0.001, 25.0, 1.0, ENV) == (
            depth + 0.001
        )
        short = math.nextafter(face, -math.inf)
        assert update_hole(target_hole(flat_target(), depth), short, 0.001, 25.0, 1.0, ENV) == depth

    def test_monotone_depth(self):
        rng = np.random.default_rng(2)
        hole = target_hole(flat_target())
        depth = prev = 0.0
        for _ in range(200):
            # the tip's axial position, drawn around the cutting face
            ax_pos = depth + float(rng.uniform(-2.0, 1.0)) * CUT_FACE_TOLERANCE
            depth = update_hole(
                hole,
                ax_pos,
                float(rng.uniform(-0.005, 0.005)),
                float(rng.uniform(0.0, 30.0)),
                1e-3,
                ENV,
            )
            assert depth >= prev
            assert depth == prev or ax_pos >= prev - CUT_FACE_TOLERANCE
            prev = depth

    def test_model_validation(self):
        with pytest.raises(ValueError):
            EnvironmentModel(contact_stiffness=-1.0)
