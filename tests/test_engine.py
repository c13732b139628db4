import dataclasses
import gc
import hashlib
import json
import math
import struct
import tracemalloc
import weakref
from array import array
from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from gds import engine, geometry
from gds.admittance import gains_at, step_admittance, step_axial
from gds.config import canonical_config, scenario_from_config
from gds.engine import CSV_HEADER, PlantModel, Scenario, Trace, World, run
from gds.errors import SimulationFault
from gds.geometry import (
    Frame3,
    Pose,
    Twist6,
    UnitQuat,
    Vec3,
    Wrench6,
    _canonical,
    rotation_between,
)
from gds.guidance import (
    _AUTO_ALIGN,
    _CONSTRAINED_DRILL,
    _RETRACT,
    GuidancePhase,
    alignment_twist,
    sample_alignment,
    update_phase,
)
from gds.metrics import compute_metrics
from gds.operator_env import (
    EnvironmentModel,
    OperatorModel,
    VirtualOperator,
    environment_wrench,
    update_hole,
)
from gds.presets import experiment_one_raw, experiment_one_scenario
from gds.workpiece import CylinderPatch, make_drill_target
from test_operator_env import reference_target_coordinates

_new = tuple.__new__
_pack_record = engine._pack_record


_PHASE_ORDER = tuple(GuidancePhase)
_FLOAT_FIELDS = engine._FLOAT_FIELDS
_B_FIELDS = engine._B_FIELDS


def reference_checksum(trace):
    """Row-at-a-time struct packing: the oracle for Trace.checksum."""
    h = hashlib.sha256()
    cols = [trace.data[name].tolist() for name in _FLOAT_FIELDS + _B_FIELDS + ["hole_depth"]]
    codes, targets = trace.phase_codes.tolist(), trace.target_idx.tolist()
    pack = struct.pack
    for i in range(len(trace)):
        row = [c[i] for c in cols]
        h.update(pack(f"<{len(row)}d", *row))
        h.update(pack("<2i", codes[i], targets[i]))
    return h.hexdigest()


def reference_to_csv(trace, path):
    """Row-at-a-time f-string writer: the oracle for Trace.to_csv."""
    d = trace.data
    with open(path, "w") as fh:
        fh.write(",".join(CSV_HEADER) + "\n")
        float_cols = [d[name].tolist() for name in _FLOAT_FIELDS]
        b_cols = [d[name].tolist() for name in _B_FIELDS]
        hole = d["hole_depth"].tolist()
        codes, targets = trace.phase_codes.tolist(), trace.target_idx.tolist()
        for i in range(len(trace)):
            parts = [f"{c[i]:.9g}" for c in float_cols]
            parts.append(_PHASE_ORDER[codes[i]].value)
            parts += [f"{c[i]:.9g}" for c in b_cols]
            parts.append(str(targets[i]))
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


def special_value_records(n, seed=0):
    """Hand-built packed records: odd rows cycle through SPECIAL_VALUES (each
    column at its own offset), even rows hold random values of magnitude
    1e-12 to 1e12; every phase code and every one of TARGET_INDICES appears."""
    rng = np.random.default_rng(seed)
    cols = []
    for j in range(len(engine._COLUMNS)):
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-12, 12, n)
        specials = [SPECIAL_VALUES[(i + j) % len(SPECIAL_VALUES)] for i in range(n)]
        cols.append([s if i % 2 else float(v) for i, (v, s) in enumerate(zip(values, specials))])
    return [
        _pack_record(
            *(c[i] for c in cols), i % len(_PHASE_ORDER), TARGET_INDICES[i % len(TARGET_INDICES)]
        )
        for i in range(n)
    ]


def special_value_trace(n, seed=0):
    """A trace of ``special_value_records``, appended one by one."""
    tr = Trace(dt=1e-3, condition="with", config_digest="synthetic")
    for record in special_value_records(n, seed):
        tr.append(record)
    return tr


def column_trace(columns, phases, targets):
    """A trace of records packed from per-column value lists (one list per
    float column, in ``_COLUMNS`` order) and per-row phase codes and target
    indices, appended one by one."""
    tr = Trace(dt=1e-3, condition="with", config_digest="columns")
    for i, (code, target) in enumerate(zip(phases, targets)):
        tr.append(_pack_record(*(c[i] for c in columns), code, target))
    return tr


def run_trace(n):
    """``n`` records whose columns hold runs of equal values: long runs, a
    run of 0.0 broken by one -0.0, NaNs of two payloads beside +-inf,
    slow-path values inside runs, a column that stays constant across
    every block boundary and one that changes exactly at the first."""
    nan2 = _bits(0x7FF8000000000123)
    cycles = (
        [0.0] * 40 + [-0.0] + [0.0] * 40,
        [math.nan] * 5 + [nan2] * 5 + [math.inf] * 3 + [-math.inf] * 3,
        [1e-300] * 7 + [-1.23456789e-100] * 7 + [1e30] * 7 + [1e-300],
    )
    columns = []
    for j in range(len(engine._COLUMNS)):
        kind = j % 6
        if kind < 3:
            column = [cycles[kind][i % len(cycles[kind])] for i in range(n)]
        elif kind == 3:
            column = [0.25] * n
        elif kind == 4:
            column = [1.5 if i < engine._CSV_BLOCK else 2.5 for i in range(n)]
        else:  # runs of j rows through the special values
            column = [SPECIAL_VALUES[(i // (j + 1)) % len(SPECIAL_VALUES)] for i in range(n)]
        columns.append(column)
    phases = [i // 200 % len(_PHASE_ORDER) for i in range(n)]
    return column_trace(columns, phases, [i // 300 for i in range(n)])


class ContiguousRecords:
    """Packed records in one contiguous buffer, each field read whole by
    numpy into an ``array`` column: the oracle for the block layout of
    Trace. It has the attributes of a ColumnAppendWorld oracle and the
    readers ``reference_to_csv`` uses."""

    def __init__(self, records):
        self.records = b"".join(records)
        rows = np.frombuffer(self.records, engine._RECORD_DTYPE)
        self.columns = self.data = {
            name: array("d", rows[name].tolist()) for name in engine._COLUMNS
        }
        self.phase_column = self.phase_codes = array("i", rows["phase"].tolist())
        self.target_column = self.target_idx = array("i", rows["target_index"].tolist())

    def __len__(self):
        return len(self.phase_column)

    def checksum(self):
        return hashlib.sha256(self.records).hexdigest()


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
    before the per-phase bodies: its own NamedTuples between the layers
    (read by position, as the layers return plain tuples), a ``Wrench6``
    interaction force and a recorder that star-unpacks them. The oracle
    for World.step, bit for bit."""

    def _record(self, t, pose, twist, v_ref, f_h, f_env, f_int, b6, hole_depth):
        self.trace.append(_pack_record(
            t, *pose[0], *pose[1],
            *twist[0], *twist[1],
            *v_ref[0], *v_ref[1],
            *f_h[0], *f_h[1],
            *f_env[0], *f_env[1],
            *f_int[0], *f_int[1],
            *b6, hole_depth,
            self._phase_code, self.target_idx,
        ))

    def _integrate(self, pose: Pose, twist: Twist6) -> Pose:
        dt = self.dt
        p = pose[0]
        v = twist[0]
        pos = _new(Vec3, (p[0] + v[0] * dt, p[1] + v[1] * dt, p[2] + v[2] * dt))
        wx, wy, wz = twist[1]
        if wx == 0.0 and wy == 0.0 and wz == 0.0:
            return _new(Pose, (pos, pose[1]))
        # UnitQuat.from_rotvec(w dt).multiply(pose.orientation) over floats
        rx, ry, rz = wx * dt, wy * dt, wz * dt
        angle = math.sqrt(rx * rx + ry * ry + rz * rz)
        if angle < 1e-12:
            w1, x1, y1, z1 = _canonical(1.0, 0.5 * rx, 0.5 * ry, 0.5 * rz)
        else:
            s = math.sin(0.5 * angle) / angle
            w1, x1, y1, z1 = _canonical(math.cos(0.5 * angle), s * rx, s * ry, s * rz)
        w2, x2, y2, z2 = pose[1]
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

        if phase is _AUTO_ALIGN:
            f_h = Wrench6.zero()
        else:
            f_h = self.operator.wrench(pose0, twist0, phase, target, t)
        # the start pose's target coordinates, computed here from the pose
        # rather than carried over from the previous step as World does
        p, tp, axis = pose0[0], target.point, target.axis
        r = _new(Vec3, (p[0] - tp[0], p[1] - tp[1], p[2] - tp[2]))
        ax_pos = r.dot(axis)
        lateral = _new(Vec3, (r.x - ax_pos * axis.x, r.y - ax_pos * axis.y, r.z - ax_pos * axis.z))
        on_target = lateral.norm() <= sc.environment.hole_radius
        # the hole World made for this target, which update_hole cuts
        hole = self.hole
        f_env, collision = environment_wrench(
            pose0, twist0, sc.surface, hole, sc.environment, ax_pos, on_target
        )
        (hx, hy, hz), (htx, hty, htz) = f_h
        (ex, ey, ez), (etx, ety, etz) = f_env
        f_int = _new(Wrench6, (
            _new(Vec3, (hx + ex, hy + ey, hz + ez)),
            _new(Vec3, (htx + etx, hty + ety, htz + etz)),
        ))
        if not all(map(math.isfinite, (*f_int.force, *f_int.torque, *pose0[0]))):
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
            self.s_ref = step_axial(self.s_ref, f_ax, params_now[0], dt)
            self.s_act = self.s_act + self.plant_alpha * (self.s_ref - self.s_act)
            s = self.s_ref
            # only translation along the axis: its projection onto the axis
            v = _new(Vec3, (s * axis.x, s * axis.y, s * axis.z))
            v_ref = Twist6(axis.scale(v.dot(axis)), Vec3.zero())
            s = self.s_act
            new_twist = _new(Twist6, (_new(Vec3, (s * axis.x, s * axis.y, s * axis.z)), Vec3.zero()))
            v_used = new_twist
            new_pose = self._integrate(pose0, new_twist)
        else:
            v_ref = self.v_ref = step_admittance(self.v_ref, f_int, params_now, dt)
            if self.plant_alpha == 1.0:
                new_twist = v_ref
            else:
                a = self.plant_alpha
                lin0, ang0 = twist0[0], twist0[1]
                lin1, ang1 = v_ref[0], v_ref[1]
                new_twist = _new(Twist6, (
                    _new(Vec3, (
                        lin0[0] + a * (lin1[0] - lin0[0]),
                        lin0[1] + a * (lin1[1] - lin0[1]),
                        lin0[2] + a * (lin1[2] - lin0[2]),
                    )),
                    _new(Vec3, (
                        ang0[0] + a * (ang1[0] - ang0[0]),
                        ang0[1] + a * (ang1[1] - ang0[1]),
                        ang0[2] + a * (ang1[2] - ang0[2]),
                    )),
                ))
            v_used = new_twist
            new_pose = self._integrate(pose0, new_twist)

        self.pose = new_pose
        self.twist = new_twist

        # hole bookkeeping on the post-step state, over plain floats
        p, tp, axis = new_pose[0], target.point, target.axis
        ux, uy, uz = axis
        rx, ry, rz = p[0] - tp[0], p[1] - tp[1], p[2] - tp[2]
        ax_pos = rx * ux + ry * uy + rz * uz
        lx, ly, lz = rx - ax_pos * ux, ry - ax_pos * uy, rz - ax_pos * uz
        on_target = math.sqrt(lx * lx + ly * ly + lz * lz) <= sc.environment.hole_radius
        was_cut = hole.depth > 0.0
        if on_target and ax_pos > 0.0:
            feed = Vec3(*v_used[0]).dot(axis)
            axial_push = Vec3(*f_h[0]).dot(axis)
            depth = hole.depth
            update_hole(
                hole,
                ax_pos,
                feed,
                axial_push,
                dt,
                sc.environment,
            )
            if hole.depth > depth:
                self._deadline = self._deadline_after(k + 1)
        t_next = (k + 1) * dt
        if not was_cut and hole.depth > 0.0:
            self.trace.events.append((t_next, f"first_cut:{self.target_idx}"))
        if collision and not self._in_collision:
            self.trace.events.append((t, "collision"))
        self._in_collision = collision

        # state machine on the post-step state
        distance = math.sqrt(rx * rx + ry * ry + rz * rz)
        aligned = phase is _AUTO_ALIGN and k + 1 - self.align_start_step >= self.align_steps
        depth_reached = hole.depth >= sc.environment.hole_depth_goal
        new_phase = update_phase(
            phase,
            distance,
            sc.thresholds,
            guided=self.guided,
            aligned=aligned,
            depth_reached=depth_reached,
            ax_pos=ax_pos,
        )

        trans, rot = params_now
        b6 = (trans, trans, trans, rot, rot, rot)
        self._record(t, pose0, v_used, v_ref, f_h, f_env, f_int, b6, hole.depth)
        self.k += 1

        if distance > self._runaway_at:
            self._end(t_next, f"runaway:{self.target_idx}")
            return
        if new_phase is not phase:
            self._transition(phase, new_phase, t_next)


class ColumnAppendWorld(ReferenceWorld):
    """ReferenceWorld whose recorder appends each value to its own ``array``
    column as the step ends, and packs no record: the oracle for the packed
    records and for every reader of them."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.columns = {name: array("d") for name in engine._COLUMNS}
        self.phase_column = array("i")
        self.target_column = array("i")
        self._columns = tuple(self.columns.values())
        self._phase_append = self.phase_column.append
        self._tgt_append = self.target_column.append

    def _record(self, t, pose, twist, v_ref, f_h, f_env, f_int, b6, hole_depth):
        vals = (
            t, *pose[0], *pose[1],
            *twist[0], *twist[1],
            *v_ref[0], *v_ref[1],
            *f_h[0], *f_h[1],
            *f_env[0], *f_env[1],
            *f_int[0], *f_int[1],
            *b6, hole_depth,
        )
        # append each value to its column; deque(..., 0) drains the map
        deque(map(array.append, self._columns, vals), 0)
        self._phase_append(engine._PHASE_CODE[self.phase])
        self._tgt_append(self.target_idx)

    def records(self) -> bytes:
        """The columns staged into one record array by numpy, as bytes."""
        rows = np.empty(len(self.phase_column), engine._RECORD_DTYPE)
        for name, col in self.columns.items():
            rows[name] = col
        rows["phase"], rows["target_index"] = self.phase_column, self.target_column
        return rows.tobytes()

    def checksum(self) -> str:
        """SHA-256 of ``records``."""
        return hashlib.sha256(self.records()).hexdigest()


def block_layout(trace):
    """The records in each storage block, read through the trace's fill
    count: every block is allocated whole, and all but the last are full."""
    assert all(len(block) == engine._BLOCK_BYTES for block in trace.blocks)
    return [engine._CSV_BLOCK] * (len(trace.blocks) - 1) + [trace.filled]


def assert_same_recording(got, want):
    """Two traces hold the same records, bit for bit."""
    assert len(got) == len(want)
    assert got.blocks == want.blocks
    assert got.checksum() == want.checksum()


def assert_matches_columns(trace, oracle):
    """Every reader of ``trace`` agrees bit for bit with the independent
    columns of a ColumnAppendWorld ``oracle``."""
    assert len(trace) == len(oracle.phase_column)
    for name in engine._COLUMNS:
        assert trace.data[name].tobytes() == oracle.columns[name].tobytes(), name
    assert trace.phase_codes.tobytes() == oracle.phase_column.tobytes()
    assert trace.target_idx.tobytes() == oracle.target_column.tobytes()
    assert trace.checksum() == oracle.checksum()


class ConstantForceOperator(VirtualOperator):
    """Test double: a fixed wrench whenever it is asked (World does not ask
    during the locked alignment)."""

    def __init__(self, wrench, model=None):
        super().__init__(model or OperatorModel(), guided=True)
        self._wrench = wrench

    def wrench(self, pose, twist, phase, target, t):
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
        assert w.twist[0][0] == pytest.approx(0.1, rel=1e-3)

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
        vx = w.trace.data["vx"].tolist()
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
        locked = firsts = 0
        while not world.done:
            k, phase = world.k, world.phase
            world.step()
            if phase is not GuidancePhase.AUTO_ALIGN:
                continue
            want = alignment_twist(world.align_plan, (k - world.align_start_step) * world.dt)
            got = world.trace.sample(k).twist
            assert repr((*got.linear, *got.angular)) == repr((*want[0], *want[1]))
            locked += 1
            if k == world.align_start_step:
                assert want == Twist6.zero()
                firsts += 1
        assert firsts == 3
        assert locked == 3 * world.align_steps

    def test_locked_alignment_does_not_ask_the_operator(self):
        # an operator that would push 1 kN if asked while locked: it is not
        # asked, so the run and its hand wrench columns are the plain run's
        class PushingWhenLocked(VirtualOperator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.phases = []

            def wrench(self, pose, twist, phase, target, t):
                self.phases.append(phase)
                if phase is GuidancePhase.AUTO_ALIGN:
                    return Wrench6(Vec3(0.0, 0.0, 1000.0), Vec3.zero())
                return super().wrench(pose, twist, phase, target, t)

        sc = experiment_one_scenario("with", seed=0)
        operator = PushingWhenLocked(sc.operator, sc.tool_axis_local, guided=True)
        trace = run(sc, operator)
        assert trace.complete
        assert GuidancePhase.AUTO_ALIGN not in operator.phases
        assert trace.checksum() == run(sc).checksum()
        locked = trace.phase_codes == engine._PHASE_CODE[_AUTO_ALIGN]
        n_locked = np.count_nonzero(locked)
        assert n_locked == 3 * World(sc).align_steps
        for name in ("fh_x", "fh_y", "fh_z", "fh_tx", "fh_ty", "fh_tz"):
            # +0.0 bit for bit
            assert trace.data[name][locked].astype(np.float64).tobytes() == bytes(8 * n_locked)

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    @pytest.mark.parametrize("component", [0, 5], ids=["fh_x", "fh_tz"])
    def test_non_finite_force_aborts_with_fault(self, value, component):
        # World.step is the one check of the interaction force: it faults
        # before any body runs, so the first step records nothing
        wrench = [0.0] * 6
        wrench[component] = value
        sc = far_target_scenario()
        w = World(sc, ConstantForceOperator(Wrench6(Vec3(*wrench[:3]), Vec3(*wrench[3:]))))
        with pytest.raises(SimulationFault, match="non-finite state at sample 0"):
            w.step()
        assert len(w.trace) == 0 and w.k == 0


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
            assert repr(turned) == repr(tuple(want.orientation))


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
        targets = trace.target_idx.tolist()
        for tgt in range(3):
            phases = []
            for i in range(len(trace)):
                if targets[i] != tgt:
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
        b = trace.data["b_vx"].tolist()
        dt = trace.dt
        max_slope = (1000.0 - 100.0) / 1.0  # steepest scheduled ramp
        for i in range(1, len(trace)):
            assert abs(b[i] - b[i - 1]) <= max_slope * dt + 1e-9

    def test_no_collisions_in_nominal_run(self, guided):
        _, trace = guided
        assert trace.events_of_kind("collision") == []

    def test_hole_depth_monotone_within_each_target(self, guided):
        _, trace = guided
        depth = trace.data["hole_depth"].tolist()
        targets = trace.target_idx.tolist()
        for i in range(1, len(trace)):
            if targets[i] == targets[i - 1]:
                assert depth[i] >= depth[i - 1]

    def test_interaction_force_identity(self, guided):
        _, trace = guided
        d = {name: trace.data[name].tolist() for name in engine._COLUMNS}
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
        d = {name: t1.data[name].tolist() for name in engine._COLUMNS}
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
        last = trace.sample(-1)
        (px, py, pz), vz = last.pose.position, last.twist.linear.z
        tip = (px, py, pz + vz * sc.dt)
        assert math.dist(tip, sc.targets[0].point) > start + engine._RUNAWAY_DISTANCE
        assert 2.0 < t < 4.0

    def test_timeout_flags_incomplete(self):
        sc = far_target_scenario()  # target 10 m away, 3 s budget
        trace = run(sc)
        assert not trace.complete
        assert trace.events_of_kind("timeout")

    def test_no_progress_for_stall_s_ends_the_run_as_a_stall(self, monkeypatch):
        # the far target is never reached, so the depth never grows
        monkeypatch.setattr(engine, "STALL_S", 1.0)
        trace = run(far_target_scenario())  # 3 s budget
        assert not trace.complete
        assert trace.events[-1] == (1.0, "stall:0")
        assert len(trace) == 1000

    def test_the_cap_wins_a_tie_with_the_stall(self, monkeypatch):
        monkeypatch.setattr(engine, "STALL_S", 3.0)
        trace = run(far_target_scenario())  # 3 s budget
        assert trace.events[-1] == (3.0, "timeout")

    def test_a_new_target_moves_the_stall_deadline(self, monkeypatch):
        # guided seed 0 goes 10.8 and 11.1 s without a cut between targets,
        # but targets 1 and 2 become active 8.3 and 8.6 s before their
        # first cut (at 10.743 and 22.172 s)
        sc = experiment_one_scenario("with", seed=0)
        monkeypatch.setattr(engine, "STALL_S", 10.0)
        assert run(sc).complete
        monkeypatch.setattr(engine, "STALL_S", 8.5)
        assert run(sc).events[-1] == ((22172 + 8500) * sc.dt, "stall:2")

    def test_a_slow_cut_that_keeps_growing_does_not_stall(self):
        # a huge cut resistance throws the tip back off the cutting face,
        # so the depth grows in bursts 20 s apart: every span without
        # growth is shorter than STALL_S, the one target takes longer
        raw = experiment_one_raw("with", 0)
        raw["targets"] = raw["targets"][:1]
        raw["environment"] = {"cut_resistance": 2e7}
        sc = scenario_from_config(canonical_config(raw))
        trace = run(sc)
        assert trace.complete
        assert trace.events[-1][1] == "target_done:0"
        assert trace.events[-1][0] > 1.4 * engine.STALL_S
        depth = np.concatenate([records["hole_depth"] for records in trace.record_blocks()])
        # the samples whose step deepened the hole, after the run's start
        grew = np.concatenate([[-1], np.flatnonzero(np.diff(depth, prepend=0.0) > 0.0)])
        assert 15.0 < np.diff(grew).max() * sc.dt < engine.STALL_S

    @pytest.mark.parametrize("kind", ["stall:0", "timeout", "runaway:0"])
    def test_an_ended_world_does_not_go_on(self, kind, monkeypatch):
        # once a run ends early, a second run() adds no event and step()
        # adds no sample
        sc, operator = far_target_scenario(), None  # 3 s budget
        if kind == "stall:0":
            monkeypatch.setattr(engine, "STALL_S", 1.0)
        elif kind == "runaway:0":
            sc.max_sim_time = 4.0
            operator = ConstantForceOperator(Wrench6(Vec3(0, 0, 50), Vec3.zero()))
        world = World(sc, operator)
        trace = world.run()
        assert world.done and not trace.complete
        assert trace.events[-1][1] == kind
        events, n = list(trace.events), len(trace)
        assert world.run() is trace
        world.step()
        assert trace.events == events and len(trace) == n

    @pytest.mark.parametrize("cap, steps", [(7.1, 7100), (0.043, 43)])
    def test_the_cap_runs_every_whole_step_that_fits(self, cap, steps):
        # cap / dt is 7099.999999999999 and 42.99999999999999 here
        sc = dataclasses.replace(far_target_scenario(), max_sim_time=cap)
        trace = run(sc, ConstantForceOperator(Wrench6.zero()))
        assert len(trace) == steps
        assert trace.events == [(steps * sc.dt, "timeout")]

    def test_a_cap_below_one_step_is_refused(self):
        with pytest.raises(ValueError, match="max_sim_time must be at least dt"):
            dataclasses.replace(experiment_one_scenario("with", seed=0), max_sim_time=0.0005)

    @pytest.mark.parametrize(
        "timing, field",
        [
            ({"max_sim_time": math.inf}, "max_sim_time"),
            ({"max_sim_time": math.nan}, "max_sim_time"),
            ({"dt": math.inf, "max_sim_time": math.inf}, "dt"),
            ({"dt": math.nan}, "dt"),
        ],
    )
    def test_non_finite_timing_is_refused_by_name(self, timing, field):
        # World would size its step cap from these: inf steps overflow, and
        # inf / inf is NaN
        with pytest.raises(ValueError, match=f"^{field} must"):
            dataclasses.replace(experiment_one_scenario("with", seed=0), **timing)

    @pytest.mark.parametrize("dt", [0.003, 0.0007])
    def test_the_locked_alignment_reaches_its_goal_at_any_dt(self, dt):
        # the lock lasts round(4 s / dt) steps, 3.999 s at 3 ms and 3.9998 s
        # at 0.7 ms; its trajectory lasts as long, so its last step ends on
        # the goal pose
        sc = experiment_one_scenario("with", seed=0, dt=dt)
        trace = run(sc)
        assert trace.complete
        for eps_phi, eps_theta in compute_metrics(trace, sc.targets).per_target:
            assert abs(eps_phi) < 1e-9 and abs(eps_theta) < 1e-9


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
        # around 4,096 rows, a whole number of CSV blocks
        n = 4096 + offset
        assert_matches_oracles(special_value_trace(n, seed=n), tmp_path)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_csv_block_boundaries_match_row_oracles(self, offset, tmp_path):
        n = engine._CSV_BLOCK + offset
        assert_matches_oracles(special_value_trace(n, seed=n), tmp_path)

    def test_runs_match_row_oracles(self, tmp_path):
        # 2 * 512 + 1 records: the last block holds one
        trace = run_trace(2 * engine._CSV_BLOCK + 1)
        assert block_layout(trace)[-1] == 1
        assert_matches_oracles(trace, tmp_path)
        assert ",-0," in (tmp_path / "got.csv").read_text()

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 1100),
        pools=st.lists(
            st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=4),
            min_size=len(engine._COLUMNS),
            max_size=len(engine._COLUMNS),
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_columns_of_few_values_match_row_oracles(self, n, pools, seed, tmp_path_factory):
        # each column runs through its pool in runs of 1-40 rows
        rng = np.random.default_rng(seed)
        columns = []
        for pool in pools:
            picks = rng.integers(0, len(pool), n)
            lengths = rng.integers(1, 41, n)
            columns.append([pool[p] for p in np.repeat(picks, lengths)[:n].tolist()])
        phases = np.repeat(rng.integers(0, len(_PHASE_ORDER), n), 50)[:n].tolist()
        trace = column_trace(columns, phases, np.repeat(np.arange(n), 300)[:n].tolist())
        assert_matches_oracles(trace, tmp_path_factory.mktemp("runs"))

    def test_the_writer_peaks_below_its_former_figure(self, tmp_path):
        # the work arrays are sized once per file for a full block; the
        # writer that formatted every value peaked at 5,394,583 bytes here
        trace = run(experiment_one_scenario("without", seed=0))
        tracemalloc.start()
        try:
            trace.to_csv(str(tmp_path / "trace.csv"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5_394_583

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


def drawn_session(condition, seed, angles, orientation, lag, max_sim_time):
    """The preset three-hole session with drawn target angles, start
    orientation (w, x, y, z), operator seed and plant lag, cut at
    ``max_sim_time``."""
    raw = experiment_one_raw(condition, seed)
    for target, (phi, theta) in zip(raw["targets"], angles):
        target["phi_deg"], target["theta_deg"] = phi, theta
    raw["start"]["orientation_wxyz"] = list(orientation)
    raw["plant"] = {"lag_time_constant": lag}
    raw["max_sim_time"] = max_sim_time
    return scenario_from_config(canonical_config(raw))


# the preset's target angles and start orientation
PRESET_ANGLES = [(5.0, 0.0), (30.0, 10.0), (45.0, 10.0)]
PRESET_ORIENTATION = (0.0, 1.0, 0.0, 0.0)
# the start orientation whose tool points exactly opposite the preset
# target 0's drilling axis: the guided operator applies no torque before
# the lock, so the lock starts on a half-turn
AGAINST_TARGET_0 = tuple(rotation_between(
    Vec3(0.0, 0.0, 1.0),
    -drawn_session("with", 0, PRESET_ANGLES, PRESET_ORIENTATION, 0.0, 1.0).targets[0].axis,
))
drawn_angles = st.lists(
    st.tuples(st.floats(0.0, 45.0), st.floats(0.0, 360.0, exclude_max=True)),
    min_size=3,
    max_size=3,
)
drawn_orientations = st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
    lambda q: q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + q[3] * q[3] > 1e-2
).map(lambda q: tuple(_canonical(*q)))


class TestPhaseBodies:
    @given(
        condition=st.sampled_from(["with", "without"]),
        seed=st.integers(0, 2**32 - 1),
        angles=drawn_angles,
        orientation=st.just(PRESET_ORIENTATION) | drawn_orientations,
        lag=st.sampled_from([0.0, 0.05]),
        # past the first target's drilling and retract in either condition
        max_sim_time=st.floats(2.0, 14.0),
    )
    # no shrinking: each example is a whole simulated session, so shrinking a
    # failure costs minutes; the failing example is still printed
    @settings(
        max_examples=12, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate)
    )
    # a target switch in either condition (at 10.7 s and 13.1 s), where World
    # recomputes the tip's target coordinates, and AutoAlign starts on both
    # guided targets
    @example(condition="with", seed=0, angles=PRESET_ANGLES, orientation=PRESET_ORIENTATION,
             lag=0.05, max_sim_time=14.0)
    @example(condition="without", seed=0, angles=PRESET_ANGLES, orientation=PRESET_ORIENTATION,
             lag=0.05, max_sim_time=14.0)
    # target 0's lock starts on an exact half-turn
    @example(condition="with", seed=0, angles=PRESET_ANGLES, orientation=AGAINST_TARGET_0,
             lag=0.05, max_sim_time=14.0)
    def test_matches_reference_step(self, condition, seed, angles, orientation, lag, max_sim_time):
        sc = drawn_session(condition, seed, angles, orientation, lag, max_sim_time)
        world = World(sc)
        got, want = world.run(), ReferenceWorld(sc).run()
        assert_same_recording(got, want)
        assert got.events == want.events
        assert got.complete == want.complete
        # acceptance tests C1-C5's sample invariants, on every sample
        d = got.data
        for c in ("x", "y", "z", "tx", "ty", "tz"):
            assert np.array_equal(d[f"fint_{c}"], d[f"fh_{c}"] + d[f"fenv_{c}"]), c
        if condition != "with":
            return
        phases, targets = got.phase_codes, got.target_idx
        drill = phases == engine._PHASE_CODE[_CONSTRAINED_DRILL]
        for name in ("wx", "wy", "wz", "wref_x", "wref_y", "wref_z"):
            assert not np.any(d[name][drill] != 0.0), name
        # off-axis linear twist at C4's floor, as C4 computes it
        for i in np.flatnonzero(drill).tolist():
            v = Vec3(d["vx"][i], d["vy"][i], d["vz"][i])
            axis = sc.targets[targets[i]].axis
            perp = v - axis.scale(v.dot(axis))
            assert perp.norm() <= 4e-16 * max(1.0, v.norm()), i
        locked = phases == engine._PHASE_CODE[_AUTO_ALIGN]
        for _, kind in got.events_of_kind("align_end:"):
            i = int(kind.split(":")[1])
            assert np.count_nonzero(locked & (targets == i)) == world.align_steps, kind
        # the invariant behind metrics' one entry rule: a guided tip first
        # cuts in ConstrainedDrill, which carries the orientation over, so
        # the sample after the first cut (clipped to the last) holds the
        # first ConstrainedDrill sample's orientation, to the bit
        cut = d["hole_depth"] > 0.0
        quat = ("qw", "qx", "qy", "qz")
        for i in np.unique(targets[cut]).tolist():
            first_cut = np.flatnonzero(cut & (targets == i))[0]
            assert drill[first_cut], i
            entry = min(first_cut + 1, len(got) - 1)
            first_drill = np.flatnonzero(drill & (targets == i))[0]
            assert np.array([d[c][entry] for c in quat]).tobytes() == np.array(
                [d[c][first_drill] for c in quat]
            ).tobytes(), i

    def test_every_phase_body_runs(self, monkeypatch):
        # seed-0 guided preset, ideal follower: the locked, the 1-DoF and the
        # six-channel bodies all run, and match the reference step
        sc = drawn_session("with", 0, PRESET_ANGLES, PRESET_ORIENTATION, 0.0, 13.0)
        world, oracle = World(sc), ReferenceWorld(sc)
        # the operator and environment wrenches each step gets back, and the
        # gains a step inside a ramp reads
        wrenches, ramp_gains = [], []

        def kept(fn, part, into=wrenches):
            def call(*args):
                out = fn(*args)
                into.append(out[part] if part is not None else out)
                return out

            return call

        def ramp_gains_at(schedule, t):
            out = gains_at(schedule, t)
            if schedule.ramp_start < t < schedule.settles_at:
                ramp_gains.append(out)
            return out

        def plain(value, part=tuple):
            # a value that lives for one period is a plain tuple (of plain
            # tuples or of floats), never a NamedTuple
            return type(value) is tuple and all(type(p) is part for p in value)

        def assert_step_plain(world):
            for value in (world.pose, world.twist, world.v_ref, *wrenches):
                assert plain(value)
            wrenches.clear()

        monkeypatch.setattr(world.operator, "wrench", kept(world.operator.wrench, None))
        monkeypatch.setattr(engine, "environment_wrench", kept(engine.environment_wrench, 0))
        monkeypatch.setattr(engine, "gains_at", ramp_gains_at)
        phases = set()
        while not world.done and world.k < 13000:
            phases.add(world.phase)
            world.step()
            oracle.step()
            assert world.pose == oracle.pose and world.twist == oracle.twist
            assert_step_plain(world)
            # the carried target coordinates are those of the pose the next
            # step starts from, measured from the target it will serve
            target = sc.targets[world.target_idx]
            assert (world._ax_pos, world._on_target) == reference_target_coordinates(
                world.pose[0], target.point, target.axis, sc.environment.hole_radius
            )[:2]
        assert phases == set(GuidancePhase) - {GuidancePhase.TARGET_DONE}
        kinds = [kind for _, kind in world.trace.events]
        assert {"align_start:0", "new_target:1", "align_start:1"} <= set(kinds)
        assert_same_recording(world.trace, oracle.trace)
        assert ramp_gains and all(plain(gains, float) for gains in ramp_gains)
        ramp_gains.clear()

        # the manual hand's aim axis, its locked push axis and its ramp gains
        # are plain tuples too, through every mode of its first target
        world = World(drawn_session("without", 0, PRESET_ANGLES, PRESET_ORIENTATION, 0.0, 13.0))
        op, aims = world.operator, []
        monkeypatch.setattr(op, "wrench", kept(op.wrench, None))
        monkeypatch.setattr(op, "_aim_axis", kept(op._aim_axis, None, into=aims))
        modes = set()
        while not world.done:
            world.step()
            modes.add(op._mode)
            assert_step_plain(world)
            assert op._push_axis is None or plain(op._push_axis, float)
        assert modes == {"aim", "dwell", "push", "pull"}
        assert aims and all(plain(axis, float) for axis in aims)
        assert ramp_gains and all(plain(gains, float) for gains in ramp_gains)


class TestPerStepUnpacks:
    # CPython unpacks only an exact tuple on its specialized path (PEP 659);
    # a NamedTuple takes the generic iterator path, about three times as
    # slow for a Vec3 on Python 3.11.7. Every value a step unpacks is made an
    # exact tuple once, when its scenario, target, plan or ramp is set up.
    PER_TARGET = 40  # unpacks of set-up values allowed per target begun

    def test_steps_unpack_no_named_tuple(self, monkeypatch):
        unpacks = [0]

        def counting_iter(self):
            unpacks[0] += 1
            return tuple.__iter__(self)

        named = [
            cls for cls in vars(geometry).values()
            if isinstance(cls, type) and issubclass(cls, tuple)
        ]
        assert {Vec3, UnitQuat, Pose, Frame3} <= set(named)
        for cls in named:
            monkeypatch.setattr(cls, "__iter__", counting_iter, raising=False)
        for condition in ("with", "without"):
            counts, begun = [], []
            for cap in (10.0, 20.0):
                sc = drawn_session(condition, 0, PRESET_ANGLES, PRESET_ORIENTATION, 0.05, cap)
                unpacks[0] = 0
                trace = World(sc).run()
                # both runs step up to their caps: neither ends early
                assert len(trace) == round(cap / sc.dt) and not trace.complete
                counts.append(unpacks[0])
                begun.append(1 + len(trace.events_of_kind("new_target:")))
            # 10,000 more steps, and only the set-up of the targets begun
            assert counts[1] - counts[0] <= self.PER_TARGET * begun[1], condition


class TestPackedRecorder:
    # runs cut at several lengths mid-session: none, one and either side of
    # the first block boundary among them; None runs the session to the end
    @pytest.mark.parametrize("steps", [0, 1, 511, 512, 513, 4095, 4096, 4097, 8193, None])
    @pytest.mark.parametrize("condition", ["with", "without"])
    def test_matches_column_append_oracle(self, condition, steps):
        kwargs = {} if not steps else {"max_sim_time": (steps + 0.5) * 1e-3}
        sc = experiment_one_scenario(condition, seed=0, **kwargs)
        world, oracle = World(sc), ColumnAppendWorld(sc)
        if steps != 0:  # a cap holds at least one step: 0 is a World never run
            world.run()
            oracle.run()
        got = world.trace
        assert got.complete == oracle.trace.complete == (steps is None)
        if steps is not None:
            assert len(got) == steps
        assert len(oracle.trace) == 0  # the oracle keeps only its columns
        assert_matches_columns(got, oracle)
        # full blocks, then the rest; one empty block when nothing was written
        n = len(got)
        full = max(0, n - 1) // engine._CSV_BLOCK
        layout = [engine._CSV_BLOCK] * full + [n - full * engine._CSV_BLOCK]
        assert block_layout(got) == layout
        views = list(got.record_blocks())
        assert [len(records) for records in views] == [k for k in layout if k]
        assert b"".join(records.tobytes() for records in views) == oracle.records()
        if n:
            assert repr(got.sample(-1)) == repr(oracle_sample(oracle, n - 1))
        else:
            with pytest.raises(IndexError):
                got.sample(-1)

    def test_rows_before_a_fault_are_readable(self):
        sc = far_target_scenario()
        sc.max_sim_time = 10.0
        wrench = Wrench6(Vec3(3.0, -2.0, 1.0), Vec3(0.5, 0.0, 0.0))
        world, oracle = (cls(sc, FaultingOperator(wrench, 5000)) for cls in (World, ColumnAppendWorld))
        for w in (world, oracle):
            with pytest.raises(SimulationFault):
                w.run()
        assert len(world.trace) == 5000
        assert_matches_columns(world.trace, oracle)

    @pytest.mark.parametrize("condition", ["with", "without"])
    def test_every_reader_sees_each_step(self, condition):
        # 1.5 s by hand: past the first phase change of either condition
        sc = experiment_one_scenario(condition, seed=0, max_sim_time=2.0)
        world, oracle = World(sc), ColumnAppendWorld(sc)
        trace = world.trace
        d = trace.data
        before = {}  # the phase and target index that govern step k
        readers = (
            ("data", lambda k: [d[n][-1] for n in engine._COLUMNS]
                == [oracle.columns[n][-1] for n in engine._COLUMNS]),
            ("len", lambda k: len(trace) == k + 1),
            ("sample", lambda k: trace.sample(k) == oracle_sample(oracle, k)),
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
            # each reader goes first in turn
            first = k % len(readers)
            for name, shows_step in readers[first:] + readers[:first]:
                assert shows_step(k), name
            phases.add(before["phase"])
        assert len(phases) > 1
        world.run()
        oracle.run()
        assert_matches_columns(trace, oracle)

    def test_reads_between_steps_hold_no_view_of_the_records(self):
        # every read is a copy: what it read stays as it was while stepping
        # goes on, also across the first two block boundaries
        sc = experiment_one_scenario("with", seed=0, max_sim_time=1.5)
        world = World(sc)
        trace = world.trace
        held = []
        for k in range(2 * engine._CSV_BLOCK + 1):
            world.step()
            t, codes = trace.data["t"], trace.phase_codes
            assert len(trace) == len(t) == len(codes) == k + 1
            assert t.tolist() == [i * sc.dt for i in range(k + 1)]
            assert t.flags.c_contiguous and codes.flags.c_contiguous
            # the benchmark's checks read columns this way
            fx = np.frombuffer(trace.data["fh_x"], dtype=np.float64)
            assert len(fx) == k + 1
            held.append((t, codes, fx))
        world.run()
        assert len(trace) == 1500
        t, codes, fx = held[0]
        assert t.tolist() == [0.0] and len(codes) == len(fx) == 1
        assert trace.data["t"].tolist() == [i * sc.dt for i in range(1500)]

    def test_a_dropped_trace_is_freed_at_once(self):
        # no reference cycle holds a trace: its records go with its last
        # reference, not at some later cyclic collection, so back-to-back
        # runs that drop their traces do not pile them up
        sc = far_target_scenario()
        sc.max_sim_time = 0.05
        enabled = gc.isenabled()
        gc.disable()
        try:
            trace = run(sc)
            assert len(trace.data["t"]) == len(trace.phase_codes) == 50
            ref = weakref.ref(trace)
            del trace
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.parametrize(
        "n, layout",
        [(0, [0]), (511, [511]), (512, [512]), (513, [512, 1]), (1025, [512, 512, 1])],
    )
    def test_blocks_match_a_contiguous_oracle(self, n, layout, tmp_path):
        records = special_value_records(n, seed=n)
        oracle = ContiguousRecords(records)
        trace = Trace(dt=1e-3, condition="with", config_digest="blocks")
        for record in records:
            trace.append(record)
        assert block_layout(trace) == layout
        views = list(trace.record_blocks())
        assert [len(records) for records in views] == [k for k in layout if k]
        assert all(records.dtype == engine._RECORD_DTYPE for records in views)
        assert b"".join(records.tobytes() for records in views) == oracle.records
        del views  # a held view would stop the next append
        assert_matches_columns(trace, oracle)
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        trace.to_csv(str(got))
        reference_to_csv(oracle, str(want))
        assert got.read_bytes() == want.read_bytes()
        # every record next to a block boundary, and the last one
        for i in {0, 510, 511, 512, 513, 1023, 1024, n - 1} & set(range(n)):
            want_sample = oracle_sample(oracle, i)
            assert repr(trace.sample(i)) == repr(want_sample)
            assert trace.phase_of(i) is want_sample.phase
            assert repr(trace.sample(i - n)) == repr(want_sample)

    def test_sample_index_bounds(self):
        trace = special_value_trace(3)
        assert trace.sample(-1) == trace.sample(2) and trace.phase_of(-3) is trace.phase_of(0)
        for i in (3, -4):
            with pytest.raises(IndexError):
                trace.sample(i)
            with pytest.raises(IndexError):
                trace.phase_of(i)


def oracle_sample(oracle, k):
    """Sample ``k`` of a ColumnAppendWorld, built from its own columns."""
    c = {name: col[k] for name, col in oracle.columns.items()}

    def vec(*names):
        return Vec3(*(c[n] for n in names))

    return engine.TraceSample(
        t=c["t"],
        pose=Pose(vec("px", "py", "pz"), UnitQuat(c["qw"], c["qx"], c["qy"], c["qz"])),
        twist=Twist6(vec("vx", "vy", "vz"), vec("wx", "wy", "wz")),
        v_ref=Twist6(vec("vref_x", "vref_y", "vref_z"), vec("wref_x", "wref_y", "wref_z")),
        f_h=Wrench6(vec("fh_x", "fh_y", "fh_z"), vec("fh_tx", "fh_ty", "fh_tz")),
        f_env=Wrench6(vec("fenv_x", "fenv_y", "fenv_z"), vec("fenv_tx", "fenv_ty", "fenv_tz")),
        f_int=Wrench6(vec("fint_x", "fint_y", "fint_z"), vec("fint_tx", "fint_ty", "fint_tz")),
        phase=_PHASE_ORDER[oracle.phase_column[k]],
        active_b=tuple(c[n] for n in _B_FIELDS),
        target_index=oracle.target_column[k],
        hole_depth=c["hole_depth"],
    )


class TestGuidedSeedIndependence:
    def test_guided_operator_holds_no_rng(self):
        # the condition alone picks the operator: only the manual one, the
        # operator of the without condition, holds an RNG
        for condition in ("with", "without"):
            operator = World(experiment_one_scenario(condition, seed=3)).operator
            assert operator.guided is (condition == "with")
            assert (operator._rng is not None) is (condition == "without")

    def test_an_operator_model_has_no_variant(self):
        with pytest.raises(TypeError):
            OperatorModel(variant="manual")

    @given(
        seeds=st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=2, unique=True),
        angles=drawn_angles,
        orientation=drawn_orientations,
    )
    # each example is two simulated sessions, so no shrinking
    @settings(
        max_examples=4, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate)
    )
    def test_guided_sessions_do_not_depend_on_the_seed(self, seeds, angles, orientation):
        a, b = (
            run(drawn_session("with", seed, angles, orientation, 0.05, 10.0)) for seed in seeds
        )
        assert len(a) > 0 and a.checksum() == b.checksum()
        assert a.events == b.events
