import hashlib
import json
import math
import struct
from array import array
from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from gds import engine
from gds.admittance import gains_at, step_admittance, step_axial
from gds.config import canonical_config, scenario_from_config
from gds.engine import _PENDING_BYTES, CSV_HEADER, PlantModel, Scenario, Trace, World, run
from gds.errors import SimulationFault
from gds.geometry import Pose, Twist6, UnitQuat, Vec3, Wrench6, _canonical
from gds.guidance import (
    _AUTO_ALIGN,
    _CONSTRAINED_DRILL,
    _RETRACT,
    GuidancePhase,
    alignment_twist,
    constrain_twist,
    sample_alignment,
    update_phase,
)
from gds.operator_env import (
    CUT_FACE_TOLERANCE,
    EnvironmentModel,
    OperatorModel,
    VirtualOperator,
    environment_wrench,
    update_hole,
)
from gds.presets import experiment_one_raw, experiment_one_scenario
from gds.workpiece import CylinderPatch, make_drill_target

_new = tuple.__new__
_pack_record = engine._pack_record


_PHASE_ORDER = tuple(GuidancePhase)
_FLOAT_FIELDS = engine._FLOAT_FIELDS
_B_FIELDS = engine._B_FIELDS


def reference_checksum(trace):
    """Row-at-a-time struct packing: the oracle for Trace.checksum."""
    h = hashlib.sha256()
    cols = [trace.data[name] for name in _FLOAT_FIELDS + _B_FIELDS + ["hole_depth"]]
    pack = struct.pack
    for i in range(len(trace)):
        row = [c[i] for c in cols]
        h.update(pack(f"<{len(row)}d", *row))
        h.update(pack("<2i", trace.phase_codes[i], trace.target_idx[i]))
    return h.hexdigest()


def reference_to_csv(trace, path):
    """Row-at-a-time f-string writer: the oracle for Trace.to_csv."""
    d = trace.data
    with open(path, "w") as fh:
        fh.write(",".join(CSV_HEADER) + "\n")
        float_cols = [d[name] for name in _FLOAT_FIELDS]
        b_cols = [d[name] for name in _B_FIELDS]
        hole = d["hole_depth"]
        for i in range(len(trace)):
            parts = [f"{c[i]:.9g}" for c in float_cols]
            parts.append(_PHASE_ORDER[trace.phase_codes[i]].value)
            parts += [f"{c[i]:.9g}" for c in b_cols]
            parts.append(str(trace.target_idx[i]))
            parts.append(f"{hole[i]:.9g}")
            fh.write(",".join(parts) + "\n")


def assert_matches_oracles(trace, tmp_path):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    trace.to_csv(str(got))
    reference_to_csv(trace, str(want))
    assert got.read_bytes() == want.read_bytes()
    assert trace.checksum() == reference_checksum(trace)


def _bits(pattern):
    return struct.unpack("<d", struct.pack("<Q", pattern))[0]


# values whose formatting or bytes are easy to get wrong
SPECIAL_VALUES = (
    0.0, -0.0, math.nan, -math.nan, _bits(0x7FF0000000000001), _bits(0xFFF8000000000123),
    math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300,
    1.7976931348623157e308, 0.1234567895, 1.0000000005, 9.9999999995, 99999999.95,
    123456789.5, -0.00012345678949999, 1e-5, 1e16, 0.1, 1.0 / 3.0,
)
TARGET_INDICES = (0, 1, 2, 9, 10, -1, 2**31 - 1, -(2**31))


def special_value_trace(n, seed=0):
    """Hand-built trace: odd rows cycle through SPECIAL_VALUES (each column at
    its own offset), even rows hold random values of magnitude 1e-12 to 1e12;
    every phase code and every one of TARGET_INDICES appears."""
    rng = np.random.default_rng(seed)
    tr = Trace(dt=1e-3, condition="with", config_digest="synthetic")
    for j, name in enumerate(engine._COLUMNS):
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-12, 12, n)
        specials = [SPECIAL_VALUES[(i + j) % len(SPECIAL_VALUES)] for i in range(n)]
        tr.data[name].extend(
            s if i % 2 else float(v) for i, (v, s) in enumerate(zip(values, specials))
        )
    tr.phase_codes.extend(i % len(_PHASE_ORDER) for i in range(n))
    tr.target_idx.extend(TARGET_INDICES[i % len(TARGET_INDICES)] for i in range(n))
    return tr


def reference_integrate(pose, twist, dt):
    """Pose update through UnitQuat.from_rotvec and UnitQuat.multiply: the
    oracle for ReferenceWorld._integrate and for the orientation update of
    World.step (engine._turned)."""
    p, v = pose.position, twist.linear
    pos = Vec3(p.x + v.x * dt, p.y + v.y * dt, p.z + v.z * dt)
    w = twist.angular
    if w.x == 0.0 and w.y == 0.0 and w.z == 0.0:
        return Pose(pos, pose.orientation)
    dq = UnitQuat.from_rotvec(Vec3(w.x * dt, w.y * dt, w.z * dt))
    return Pose(pos, dq.multiply(pose.orientation))


class ReferenceWorld(World):
    """World advanced by the general step body that served every phase
    before the per-phase bodies: NamedTuples between the layers, a
    ``Wrench6`` interaction force and a recorder that star-unpacks them.
    The oracle for World.step, bit for bit."""

    def _record(self, t, pose, twist, v_ref, f_h, f_env, f_int, b6, hole_depth):
        pending = self._pending
        pending += _pack_record(
            t, *pose.position, *pose.orientation,
            *twist.linear, *twist.angular,
            *v_ref.linear, *v_ref.angular,
            *f_h.force, *f_h.torque,
            *f_env.force, *f_env.torque,
            *f_int.force, *f_int.torque,
            *b6, hole_depth,
            self._phase_code, self.target_idx,
        )
        if len(pending) >= _PENDING_BYTES:
            self.trace.data.flush()

    def _integrate(self, pose: Pose, twist: Twist6) -> Pose:
        dt = self.dt
        p = pose.position
        v = twist.linear
        pos = _new(Vec3, (p.x + v.x * dt, p.y + v.y * dt, p.z + v.z * dt))
        wx, wy, wz = twist.angular
        if wx == 0.0 and wy == 0.0 and wz == 0.0:
            return _new(Pose, (pos, pose.orientation))
        # UnitQuat.from_rotvec(w dt).multiply(pose.orientation) over floats
        rx, ry, rz = wx * dt, wy * dt, wz * dt
        angle = math.sqrt(rx * rx + ry * ry + rz * rz)
        if angle < 1e-12:
            w1, x1, y1, z1 = _canonical(1.0, 0.5 * rx, 0.5 * ry, 0.5 * rz)
        else:
            s = math.sin(0.5 * angle) / angle
            w1, x1, y1, z1 = _canonical(math.cos(0.5 * angle), s * rx, s * ry, s * rz)
        w2, x2, y2, z2 = pose.orientation
        return _new(Pose, (pos, _canonical(
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        )))

    def step(self) -> None:
        if self.done:
            return
        sc = self.sc
        dt = self.dt
        k = self.k
        t = k * dt
        phase = self.phase
        target = sc.targets[self.target_idx]
        pose0 = self.pose
        twist0 = self.twist

        f_h = self.operator.wrench(pose0, twist0, phase, target, t)
        if phase is _AUTO_ALIGN and f_h != Wrench6.zero():
            raise SimulationFault(
                f"operator wrench must be zero during locked alignment (step {k})"
            )
        f_env, collision, _ = environment_wrench(
            pose0, twist0, sc.surface, target, self.hole_depth, sc.environment
        )
        (hx, hy, hz), (htx, hty, htz) = f_h
        (ex, ey, ez), (etx, ety, etz) = f_env
        f_int = _new(Wrench6, (
            _new(Vec3, (hx + ex, hy + ey, hz + ez)),
            _new(Vec3, (htx + etx, hty + ety, htz + etz)),
        ))
        if not all(map(math.isfinite, (*f_int.force, *f_int.torque, *pose0.position))):
            raise SimulationFault(f"non-finite state at sample {k}")

        params_now = gains_at(self.schedule, t)
        constrained = self.guided and (phase is _CONSTRAINED_DRILL or phase is _RETRACT)

        if phase is _AUTO_ALIGN:
            local_end = (k - self.align_start_step + 1) * dt
            new_pose = sample_alignment(self.align_plan, local_end)
            new_twist = alignment_twist(self.align_plan, local_end)
            # the twist at the start of the step: the previous locked step's
            # new_twist, alignment_twist(plan, (k - align_start_step) * dt),
            # or the zero twist _transition sets on the first locked step
            v_used = twist0
            v_ref = Twist6.zero()
        elif constrained:
            axis = target.axis
            f_ax = f_int.force.dot(axis)
            self.s_ref = step_axial(self.s_ref, f_ax, params_now.translational, dt)
            self.s_act = self.s_act + self.plant_alpha * (self.s_ref - self.s_act)
            s = self.s_ref
            v_ref = constrain_twist(
                _new(Twist6, (_new(Vec3, (s * axis.x, s * axis.y, s * axis.z)), Vec3.zero())),
                axis,
            )
            s = self.s_act
            new_twist = _new(Twist6, (_new(Vec3, (s * axis.x, s * axis.y, s * axis.z)), Vec3.zero()))
            v_used = new_twist
            new_pose = self._integrate(pose0, new_twist)
        else:
            self.adm.params = params_now
            v_ref = step_admittance(self.adm, f_int, dt)
            if self.plant_alpha == 1.0:
                new_twist = v_ref
            else:
                a = self.plant_alpha
                lin0, ang0 = twist0.linear, twist0.angular
                lin1, ang1 = v_ref.linear, v_ref.angular
                new_twist = _new(Twist6, (
                    _new(Vec3, (
                        lin0.x + a * (lin1.x - lin0.x),
                        lin0.y + a * (lin1.y - lin0.y),
                        lin0.z + a * (lin1.z - lin0.z),
                    )),
                    _new(Vec3, (
                        ang0.x + a * (ang1.x - ang0.x),
                        ang0.y + a * (ang1.y - ang0.y),
                        ang0.z + a * (ang1.z - ang0.z),
                    )),
                ))
            v_used = new_twist
            new_pose = self._integrate(pose0, new_twist)

        self.pose = new_pose
        self.twist = new_twist

        # hole bookkeeping on the post-step state, over plain floats
        p, tp, axis = new_pose.position, target.point, target.axis
        ux, uy, uz = axis
        rx, ry, rz = p.x - tp.x, p.y - tp.y, p.z - tp.z
        ax_pos = rx * ux + ry * uy + rz * uz
        lx, ly, lz = rx - ax_pos * ux, ry - ax_pos * uy, rz - ax_pos * uz
        on_target = math.sqrt(lx * lx + ly * ly + lz * lz) <= sc.environment.hole_radius
        was_cut = self.hole_depth > 0.0
        if on_target and ax_pos > 0.0:
            feed = v_used.linear.dot(axis)
            axial_push = f_h.force.dot(axis)
            self.hole_depth = update_hole(
                self.hole_depth,
                feed,
                axial_push,
                dt,
                sc.environment,
                at_bottom=ax_pos >= self.hole_depth - CUT_FACE_TOLERANCE,
            )
        t_next = (k + 1) * dt
        if not was_cut and self.hole_depth > 0.0:
            self.trace.events.append((t_next, f"first_cut:{self.target_idx}"))
        if collision and not self._in_collision:
            self.trace.events.append((t, "collision"))
        self._in_collision = collision

        # state machine on the post-step state
        distance = math.sqrt(rx * rx + ry * ry + rz * rz)
        align_progress = 0.0
        if phase is _AUTO_ALIGN:
            align_progress = (k + 1 - self.align_start_step) / self.align_steps
        depth_reached = self.hole_depth >= sc.environment.hole_depth_goal
        retracted = ax_pos <= -(sc.thresholds.standoff - 1e-9)
        new_phase = update_phase(
            phase,
            distance,
            sc.thresholds,
            guided=self.guided,
            align_progress=align_progress,
            depth_reached=depth_reached,
            retracted=retracted,
        )

        if params_now is not self._b_params:
            self._b_params = params_now
            self._b6 = tuple([g.b for g in params_now.gains])
        self._record(t, pose0, v_used, v_ref, f_h, f_env, f_int, self._b6, self.hole_depth)
        self.k += 1

        if distance > self._runaway_at:
            self.trace.events.append((t_next, f"runaway:{self.target_idx}"))
            self.trace.complete = False
            self.done = True
            return
        if new_phase is not phase:
            self._transition(phase, new_phase, t_next)


class ColumnAppendWorld(ReferenceWorld):
    """ReferenceWorld whose recorder appends each value to its column as the
    step ends: the oracle for the packed records."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        d = self.trace.data
        self._columns = tuple(d[name] for name in engine._COLUMNS)
        self._phase_append = self.trace.phase_codes.append
        self._tgt_append = self.trace.target_idx.append

    def _record(self, t, pose, twist, v_ref, f_h, f_env, f_int, b6, hole_depth):
        vals = (
            t, *pose.position, *pose.orientation,
            *twist.linear, *twist.angular,
            *v_ref.linear, *v_ref.angular,
            *f_h.force, *f_h.torque,
            *f_env.force, *f_env.torque,
            *f_int.force, *f_int.torque,
            *b6, hole_depth,
        )
        # append each value to its column; deque(..., 0) drains the map
        deque(map(array.append, self._columns, vals), 0)
        self._phase_append(engine._PHASE_CODE[self.phase])
        self._tgt_append(self.target_idx)


def assert_same_recording(got, want):
    assert len(got) == len(want)
    for name in engine._COLUMNS:
        assert got.data[name] == want.data[name], name
    assert got.phase_codes == want.phase_codes
    assert got.target_idx == want.target_idx
    assert got.checksum() == want.checksum()


class ConstantForceOperator(VirtualOperator):
    """Test double: a fixed wrench in every non-aligned phase."""

    def __init__(self, wrench, model=None):
        super().__init__(model or OperatorModel())
        self._wrench = wrench

    def wrench(self, pose, twist, phase, target, t):
        if phase in (GuidancePhase.AUTO_ALIGN, GuidancePhase.TARGET_DONE):
            return Wrench6.zero()
        return self._wrench


def far_target_scenario(condition="with", tau_g=0.0, dt=1e-3):
    """Target far below the start pose: the run stays in FreeMotion for a
    long time, which makes open-loop filter checks easy."""
    surface = CylinderPatch(Vec3(0.0, 0.0, -10.5), Vec3(0, 1, 0), 0.5)
    target = make_drill_target(
        surface, Vec3(0.0, 0.0, -10.0), 5.0, 0.0, approach_side=Vec3(0, 0, 1)
    )
    return Scenario(
        surface=surface,
        targets=(target,),
        condition=condition,
        operator=OperatorModel(),
        environment=EnvironmentModel(),
        plant=PlantModel(lag_time_constant=tau_g),
        dt=dt,
        start_pose=Pose(Vec3(0.0, 0.0, 0.3), UnitQuat.from_axis_angle(Vec3(1, 0, 0), math.pi)),
        max_sim_time=3.0,
        config={"test": "far_target", "tau_g": tau_g, "dt": dt, "condition": condition},
    )


class TestStepDynamics:
    def test_equilibrium_rest_stays_bitwise_frozen(self):
        sc = far_target_scenario()
        w = World(sc, ConstantForceOperator(Wrench6.zero()))
        p0 = w.pose
        for _ in range(200):
            w.step()
        assert w.pose == p0
        assert w.twist == Twist6.zero()

    def test_free_motion_steady_state_speed(self):
        # 10 N on the x channel, b = 100 N s/m -> 0.1 m/s after t >> m/b
        sc = far_target_scenario(tau_g=0.0)
        sc.max_sim_time = 10.0
        w = World(sc, ConstantForceOperator(Wrench6(Vec3(10, 0, 0), Vec3.zero())))
        for _ in range(5000):  # 5 s = 10 time constants
            w.step()
        assert w.twist.linear.x == pytest.approx(0.1, rel=1e-3)

    def test_ideal_plant_follows_reference_bitwise(self):
        sc = far_target_scenario(tau_g=0.0)
        w = World(sc, ConstantForceOperator(Wrench6(Vec3(3, -2, 1), Vec3(0.5, 0, 0))))
        for _ in range(500):
            w.step()
        for i in (5, 100, 499):
            s = w.trace.sample(i)
            assert s.twist == s.v_ref

    def test_lagged_plant_tracks_cascade_solution(self):
        tau2 = 0.05
        sc = far_target_scenario(tau_g=tau2)
        w = World(sc, ConstantForceOperator(Wrench6(Vec3(10, 0, 0), Vec3.zero())))
        m, b = 50.0, 100.0
        tau1 = m / b
        V = 10.0 / b
        n = 2500
        for _ in range(n):
            w.step()
        worst = 0.0
        vx = w.trace.data["vx"]
        for k in range(1, n):
            t = (k + 1) * sc.dt  # sample twist spans (t_k, t_k+dt]
            exact = V * (
                1.0
                - (tau1 * math.exp(-t / tau1) - tau2 * math.exp(-t / tau2)) / (tau1 - tau2)
            )
            worst = max(worst, abs(vx[k] - exact))
        assert worst <= 1e-3 * V

    def test_time_base_is_exact(self):
        sc = far_target_scenario()
        w = World(sc, ConstantForceOperator(Wrench6.zero()))
        for _ in range(1000):
            w.step()
        t_col = w.trace.data["t"]
        for k in (0, 1, 10, 999):
            assert t_col[k] == k * sc.dt  # bitwise: integer multiple, no drift

    def test_auto_align_twist_is_the_locked_trajectory(self):
        # every AutoAlign sample records the twist at the start of its step:
        # alignment_twist at the step's own time, zero on the first one
        world = World(experiment_one_scenario("with", seed=0))
        d = world.trace.data
        locked = firsts = 0
        while not world.done:
            k, phase = world.k, world.phase
            world.step()
            if phase is not GuidancePhase.AUTO_ALIGN:
                continue
            want = alignment_twist(world.align_plan, (k - world.align_start_step) * world.dt)
            got = tuple(d[name][k] for name in ("vx", "vy", "vz", "wx", "wy", "wz"))
            assert repr(got) == repr((*want.linear, *want.angular))
            locked += 1
            if k == world.align_start_step:
                assert want == Twist6.zero()
                firsts += 1
        assert firsts == 3
        assert locked == 3 * world.align_steps

    def test_non_finite_force_aborts_with_fault(self):
        sc = far_target_scenario()
        w = World(sc, ConstantForceOperator(Wrench6(Vec3(float("inf"), 0, 0), Vec3.zero())))
        with pytest.raises(SimulationFault):
            for _ in range(5):
                w.step()


class TestIntegrate:
    # angular speeds whose step angle is zero, below the 1e-12 series cut,
    # ordinary, or beyond pi (a negative scalar part that _canonical flips)
    speeds = st.sampled_from([0.0, 1e-13, 1e-9]) | st.floats(-5.0, 5.0) | st.floats(-5000.0, 5000.0)

    @given(
        position=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
        axis=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: sum(x * x for x in v) > 1e-4),
        angle=st.floats(-3.2, 3.2),
        linear=st.tuples(*[st.floats(-2.0, 2.0)] * 3),
        angular=st.tuples(speeds, speeds, speeds),
        dt=st.sampled_from([1e-3, 2e-3]) | st.floats(1e-5, 0.05),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_quaternion_oracle(self, position, axis, angle, linear, angular, dt):
        pose = Pose(Vec3(*position), UnitQuat.from_axis_angle(Vec3(*axis), angle))
        twist = Twist6(Vec3(*linear), Vec3(*angular))
        got = ReferenceWorld._integrate(SimpleNamespace(dt=dt), pose, twist)
        want = reference_integrate(pose, twist, dt)
        assert got == want
        assert repr(got) == repr(want)
        # the six-channel body turns the orientation only for a nonzero twist
        w = twist.angular
        if not (w.x == 0.0 and w.y == 0.0 and w.z == 0.0):
            turned = engine._turned(pose.orientation, w.x * dt, w.y * dt, w.z * dt)
            assert repr(turned) == repr(want.orientation)


@pytest.fixture(scope="module")
def guided():
    sc = experiment_one_scenario("with", seed=0)
    return sc, run(sc)


class TestFullRun:
    def test_completes_all_targets(self, guided):
        sc, trace = guided
        assert trace.complete
        assert len(trace.events_of_kind("target_done:")) == 3

    def test_phase_sequence_per_target(self, guided):
        _, trace = guided
        order = [
            GuidancePhase.FREE_MOTION,
            GuidancePhase.APPROACH,
            GuidancePhase.AUTO_ALIGN,
            GuidancePhase.CONSTRAINED_DRILL,
            GuidancePhase.RETRACT,
            GuidancePhase.TARGET_DONE,
        ]
        for tgt in range(3):
            phases = []
            for i in range(len(trace)):
                if trace.target_idx[i] != tgt:
                    continue
                p = trace.phase_of(i)
                if not phases or phases[-1] is not p:
                    phases.append(p)
            assert phases == order[: len(phases)]
            assert phases == order[:-1]  # TargetDone never governs a step

    def test_one_four_second_alignment_per_target(self, guided):
        _, trace = guided
        starts = trace.events_of_kind("align_start:")
        ends = trace.events_of_kind("align_end:")
        assert len(starts) == len(ends) == 3
        for (t0, _), (t1, _) in zip(starts, ends):
            assert abs((t1 - t0) - 4.0) <= 1e-9

    def test_switch_semantics(self, guided):
        # admittance output is used iff not auto-aligning; in free/approach
        # phases the reference twist is followed (ideal-plant default off,
        # so twist lags), and while aligning v_ref is identically zero
        _, trace = guided
        for i in range(0, len(trace), 7):
            s = trace.sample(i)
            if s.phase is GuidancePhase.AUTO_ALIGN:
                assert s.v_ref == Twist6.zero()

    def test_constrained_phase_single_dof(self, guided):
        sc, trace = guided
        for i in range(0, len(trace), 3):
            s = trace.sample(i)
            if s.phase in (GuidancePhase.CONSTRAINED_DRILL, GuidancePhase.RETRACT):
                assert s.twist.angular == Vec3(0.0, 0.0, 0.0)
                axis = sc.targets[s.target_index].axis
                v = s.twist.linear
                perp = v - axis.scale(v.dot(axis))
                assert perp.norm() <= 1e-15 + 1e-12 * v.norm()

    def test_damping_ramp_continuous_in_trace(self, guided):
        _, trace = guided
        b = trace.data["b_vx"]
        dt = trace.dt
        max_slope = (1000.0 - 100.0) / 1.0  # steepest scheduled ramp
        for i in range(1, len(trace)):
            assert abs(b[i] - b[i - 1]) <= max_slope * dt + 1e-9

    def test_no_collisions_in_nominal_run(self, guided):
        _, trace = guided
        assert trace.events_of_kind("collision") == []

    def test_hole_depth_monotone_within_each_target(self, guided):
        _, trace = guided
        depth = trace.data["hole_depth"]
        for i in range(1, len(trace)):
            if trace.target_idx[i] == trace.target_idx[i - 1]:
                assert depth[i] >= depth[i - 1]

    def test_interaction_force_identity(self, guided):
        _, trace = guided
        d = trace.data
        for i in range(0, len(trace), 11):
            for ax in ("x", "y", "z"):
                assert d[f"fint_{ax}"][i] == d[f"fh_{ax}"][i] + d[f"fenv_{ax}"][i]
                assert d[f"fint_t{ax}"][i] == d[f"fh_t{ax}"][i] + d[f"fenv_t{ax}"][i]

    def test_determinism_identical_checksums(self):
        sc1 = experiment_one_scenario("without", seed=7)
        sc2 = experiment_one_scenario("without", seed=7)
        t1, t2 = run(sc1), run(sc2)
        assert t1.config_digest == t2.config_digest
        assert t1.checksum() == t2.checksum()
        assert t1.events == t2.events
        # operator caps hold at every sample of the manual run
        d = t1.data
        cap_f, cap_t = sc1.operator.force_cap, sc1.operator.torque_cap
        for i in range(len(t1)):
            f2 = d["fh_x"][i] ** 2 + d["fh_y"][i] ** 2 + d["fh_z"][i] ** 2
            t2_ = d["fh_tx"][i] ** 2 + d["fh_ty"][i] ** 2 + d["fh_tz"][i] ** 2
            assert f2 <= cap_f**2 * (1 + 1e-12)
            assert t2_ <= cap_t**2 * (1 + 1e-12)

    def test_different_seed_changes_manual_trace(self):
        t1 = run(experiment_one_scenario("without", seed=1))
        t2 = run(experiment_one_scenario("without", seed=2))
        assert t1.checksum() != t2.checksum()

    def test_runaway_is_measured_from_the_target_start(self):
        # the far target starts 10.3 m away; 50 N straight up at b = 100
        # N s/m drives the tip away at 0.5 m/s, so it ends 1 m farther out
        sc = far_target_scenario()
        sc.max_sim_time = 4.0
        start = math.dist(sc.start_pose.position, sc.targets[0].point)
        trace = run(sc, ConstantForceOperator(Wrench6(Vec3(0, 0, 50), Vec3.zero())))
        assert not trace.complete
        (t, kind), = trace.events
        assert kind == "runaway:0"
        assert t == len(trace) * sc.dt
        d = trace.data
        tip = (d["px"][-1], d["py"][-1], d["pz"][-1] + d["vz"][-1] * sc.dt)
        assert math.dist(tip, sc.targets[0].point) > start + engine._RUNAWAY_DISTANCE
        assert 2.0 < t < 4.0

    def test_timeout_flags_incomplete(self):
        sc = far_target_scenario()  # target 10 m away, 3 s budget
        trace = run(sc)
        assert not trace.complete
        assert trace.events_of_kind("timeout")


class TestTraceExport:
    def test_csv_round_trip(self, tmp_path):
        sc = far_target_scenario()
        sc = Scenario(**{**sc.__dict__, "max_sim_time": 0.05})
        trace = run(sc)
        path = tmp_path / "trace.csv"
        trace.to_csv(str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == len(trace) + 1
        row = lines[1].split(",")
        assert len(row) == len(CSV_HEADER)
        assert row[CSV_HEADER.index("phase")] == "FreeMotion"
        # 9 significant digits survive
        t_idx = CSV_HEADER.index("t")
        assert float(lines[2].split(",")[t_idx]) == pytest.approx(0.001, abs=1e-12)

    @pytest.mark.parametrize("condition", ["with", "without"])
    def test_preset_trace_matches_row_oracles(self, condition, tmp_path):
        sc = experiment_one_scenario(condition, seed=3, max_sim_time=12.0)
        trace = run(sc)
        assert len(trace) == 12000
        assert len({trace.phase_of(i) for i in range(len(trace))}) > 1
        assert_matches_oracles(trace, tmp_path)

    def test_special_values_match_row_oracles(self, tmp_path):
        n = 3 * len(SPECIAL_VALUES) * len(_PHASE_ORDER)
        assert_matches_oracles(special_value_trace(n), tmp_path)

    def test_empty_trace(self, tmp_path):
        trace = Trace(dt=1e-3, condition="with", config_digest="empty")
        assert trace.checksum() == hashlib.sha256(b"").hexdigest()
        path = tmp_path / "trace.csv"
        trace.to_csv(str(path))
        assert path.read_text() == ",".join(CSV_HEADER) + "\n"
        assert_matches_oracles(trace, tmp_path)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_chunk_boundaries_match_row_oracles(self, offset, tmp_path):
        n = engine._CHECKSUM_CHUNK + offset
        assert_matches_oracles(special_value_trace(n, seed=n), tmp_path)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_csv_block_boundaries_match_row_oracles(self, offset, tmp_path):
        n = engine._CSV_BLOCK + offset
        assert_matches_oracles(special_value_trace(n, seed=n), tmp_path)

    def test_summary_json_serializable(self):
        sc = far_target_scenario()
        sc = Scenario(**{**sc.__dict__, "max_sim_time": 0.05})
        trace = run(sc)
        payload = json.dumps(trace.summary())
        back = json.loads(payload)
        assert back["complete"] is False
        assert back["n_samples"] == len(trace)
        assert back["checksum"] == trace.checksum()


class FaultingOperator(ConstantForceOperator):
    """Test double: a fixed finite wrench for ``n_ok`` calls, then an
    infinite one, which ends the run in a SimulationFault."""

    def __init__(self, wrench, n_ok):
        super().__init__(wrench)
        self._left = n_ok

    def wrench(self, pose, twist, phase, target, t):
        self._left -= 1
        if self._left < 0:
            return Wrench6(Vec3(math.inf, 0.0, 0.0), Vec3.zero())
        return super().wrench(pose, twist, phase, target, t)


def drawn_session(condition, seed, angles, lag, max_sim_time):
    """The preset three-hole session with drawn target angles, operator
    seed and plant lag, cut at ``max_sim_time``."""
    raw = experiment_one_raw(condition, seed)
    for target, (phi, theta) in zip(raw["targets"], angles):
        target["phi_deg"], target["theta_deg"] = phi, theta
    raw["plant"] = {"lag_time_constant": lag}
    raw["max_sim_time"] = max_sim_time
    return scenario_from_config(canonical_config(raw))


class TestPhaseBodies:
    @given(
        condition=st.sampled_from(["with", "without"]),
        seed=st.integers(0, 2**32 - 1),
        angles=st.lists(
            st.tuples(st.floats(0.0, 45.0), st.floats(0.0, 360.0, exclude_max=True)),
            min_size=3,
            max_size=3,
        ),
        lag=st.sampled_from([0.0, 0.05]),
        # past the first target's drilling and retract in either condition
        max_sim_time=st.floats(2.0, 14.0),
    )
    # no shrinking: each example is a whole simulated session, so shrinking a
    # failure costs minutes; the failing example is still printed
    @settings(
        max_examples=12, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate)
    )
    def test_matches_reference_step(self, condition, seed, angles, lag, max_sim_time):
        sc = drawn_session(condition, seed, angles, lag, max_sim_time)
        got, want = World(sc).run(), ReferenceWorld(sc).run()
        assert_same_recording(got, want)
        assert got.events == want.events
        assert got.complete == want.complete

    def test_every_phase_body_runs(self):
        # seed-0 guided preset, ideal follower: the locked, the 1-DoF and the
        # six-channel bodies all run, and match the reference step
        sc = drawn_session("with", 0, [(5.0, 0.0), (30.0, 10.0), (45.0, 10.0)], 0.0, 13.0)
        world, oracle = World(sc), ReferenceWorld(sc)
        phases = set()
        while not world.done and world.k < 13000:
            phases.add(world.phase)
            world.step()
            oracle.step()
            assert world.pose == oracle.pose and world.twist == oracle.twist
        assert phases == set(GuidancePhase) - {GuidancePhase.TARGET_DONE}
        assert_same_recording(world.trace, oracle.trace)


class TestPackedRecorder:
    # a pending block holds 4,096 rows: cut one short of a block, at it, one
    # past it, and one past two blocks; None runs the session to the end
    @pytest.mark.parametrize("steps", [4095, 4096, 4097, 8193, None])
    @pytest.mark.parametrize("condition", ["with", "without"])
    def test_matches_column_append_oracle(self, condition, steps):
        kwargs = {} if steps is None else {"max_sim_time": (steps + 0.5) * 1e-3}
        sc = experiment_one_scenario(condition, seed=0, **kwargs)
        got = World(sc).run()
        assert not got.data.pending  # run moves the last block into the columns
        want = ColumnAppendWorld(sc).run()
        assert got.complete == want.complete == (steps is None)
        if steps is not None:
            assert len(want) == steps
        assert_same_recording(got, want)

    def test_rows_before_a_fault_are_readable(self):
        sc = far_target_scenario()
        sc.max_sim_time = 10.0
        wrench = Wrench6(Vec3(3.0, -2.0, 1.0), Vec3(0.5, 0.0, 0.0))
        worlds = [cls(sc, FaultingOperator(wrench, 5000)) for cls in (World, ColumnAppendWorld)]
        for world in worlds:
            with pytest.raises(SimulationFault):
                world.run()
        got, want = (world.trace for world in worlds)
        assert len(got.data.pending) == (5000 - 4096) * engine._RECORD_DTYPE.itemsize
        assert len(want) == 5000
        assert_same_recording(got, want)

    @pytest.mark.parametrize("condition", ["with", "without"])
    def test_every_reader_sees_each_step(self, condition):
        # 1.5 s by hand: past the first phase change of either condition
        sc = experiment_one_scenario(condition, seed=0, max_sim_time=2.0)
        world, oracle = World(sc), ColumnAppendWorld(sc)
        trace, want = world.trace, oracle.trace
        d = trace.data
        before = {}  # the phase and target index that govern step k
        readers = (
            ("data", lambda k: [d[n][-1] for n in engine._COLUMNS]
                == [want.data[n][-1] for n in engine._COLUMNS]),
            ("len", lambda k: len(trace) == k + 1),
            ("sample", lambda k: trace.sample(k) == want.sample(k)),
            ("phase_codes", lambda k: trace.phase_codes[-1] == engine._PHASE_CODE[before["phase"]]
                and len(trace.phase_codes) == k + 1),
            ("target_idx", lambda k: trace.target_idx[-1] == before["target"]
                and len(trace.target_idx) == k + 1),
            ("phase_of", lambda k: trace.phase_of(k) is before["phase"]),
        )
        phases = set()
        for k in range(1500):
            before.update(phase=world.phase, target=world.target_idx)
            world.step()
            oracle.step()
            assert trace.data.pending  # the step is packed, not yet in the columns
            # any reader moves the step into the columns: each goes first in turn
            first = k % len(readers)
            for name, shows_step in readers[first:] + readers[:first]:
                assert shows_step(k), name
            phases.add(before["phase"])
        assert len(phases) > 1
        world.run()
        assert not trace.data.pending
        oracle.run()
        assert_same_recording(trace, want)
