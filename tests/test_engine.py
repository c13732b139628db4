import hashlib
import json
import math
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gds import engine
from gds.engine import CSV_HEADER, PlantModel, Scenario, Trace, World, run
from gds.errors import SimulationFault
from gds.geometry import Pose, Twist6, UnitQuat, Vec3, Wrench6
from gds.guidance import GuidancePhase, alignment_twist
from gds.operator_env import EnvironmentModel, OperatorModel, VirtualOperator
from gds.presets import experiment_one_scenario
from gds.workpiece import CylinderPatch, make_drill_target


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
    oracle for World._integrate."""
    p, v = pose.position, twist.linear
    pos = Vec3(p.x + v.x * dt, p.y + v.y * dt, p.z + v.z * dt)
    w = twist.angular
    if w.x == 0.0 and w.y == 0.0 and w.z == 0.0:
        return Pose(pos, pose.orientation)
    dq = UnitQuat.from_rotvec(Vec3(w.x * dt, w.y * dt, w.z * dt))
    return Pose(pos, dq.multiply(pose.orientation))


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
        got = World._integrate(SimpleNamespace(dt=dt), pose, twist)
        want = reference_integrate(pose, twist, dt)
        assert got == want
        assert repr(got) == repr(want)


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

    def test_summary_json_serializable(self):
        sc = far_target_scenario()
        sc = Scenario(**{**sc.__dict__, "max_sim_time": 0.05})
        trace = run(sc)
        payload = json.dumps(trace.summary())
        back = json.loads(payload)
        assert back["complete"] is False
        assert back["n_samples"] == len(trace)
        assert back["checksum"] == trace.checksum()
