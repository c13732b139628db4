import math

import pytest

from gds.engine import Trace, _FLOAT_FIELDS, _B_FIELDS, _PHASE_CODE
from gds.geometry import UnitQuat, Vec3, rotate
from gds.guidance import GuidancePhase
from gds.metrics import (
    Metrics,
    _drill_entry_indices,
    _power,
    _speed,
    _trapezoid,
    compare,
    compute_metrics,
    mean_metrics,
    wrap180,
)
from gds.presets import experiment_one_scenario
from gds.workpiece import DrillTarget, build_target_frame, drilling_axis, recover_angles
from gds import engine as engine_mod
from gds.engine import run


def synthetic_trace(n, dt, fill):
    """Build a trace row by row; ``fill(i) -> dict`` of column overrides."""
    tr = Trace(dt=dt, condition="with", config_digest="synthetic")
    for i in range(n):
        row = {name: 0.0 for name in _FLOAT_FIELDS + _B_FIELDS + ["hole_depth"]}
        row["t"] = i * dt
        row["qw"] = 1.0
        row.update(fill(i))
        for name in _FLOAT_FIELDS + _B_FIELDS + ["hole_depth"]:
            tr.data[name].append(row[name])
        tr.phase_codes.append(_PHASE_CODE[row.get("phase", GuidancePhase.FREE_MOTION)])
        tr.target_idx.append(0)
    return tr


def reference_drill_entry_indices(trace):
    """Per-index scan: the oracle for the guided branch of _drill_entry_indices."""
    out = {}
    for i in range(len(trace)):
        tgt = trace.target_idx[i]
        if trace.phase_of(i) is GuidancePhase.CONSTRAINED_DRILL and tgt not in out:
            out[tgt] = i
    return out


def reference_series(trace):
    """Per-index loops: linear and angular speed, force and torque power."""
    d, n = trace.data, len(trace)
    vx, vy, vz = d["vx"], d["vy"], d["vz"]
    wx, wy, wz = d["wx"], d["wy"], d["wz"]
    fx, fy, fz = d["fh_x"], d["fh_y"], d["fh_z"]
    tx, ty, tz = d["fh_tx"], d["fh_ty"], d["fh_tz"]
    lin_speed = [math.sqrt(vx[i] ** 2 + vy[i] ** 2 + vz[i] ** 2) for i in range(n)]
    ang_speed = [math.sqrt(wx[i] ** 2 + wy[i] ** 2 + wz[i] ** 2) for i in range(n)]
    p_force = [
        abs(fx[i] * vx[i]) + abs(fy[i] * vy[i]) + abs(fz[i] * vz[i]) for i in range(n)
    ]
    p_torque = [
        abs(tx[i] * wx[i]) + abs(ty[i] * wy[i]) + abs(tz[i] * wz[i]) for i in range(n)
    ]
    return lin_speed, ang_speed, p_force, p_torque


def reference_compute_metrics(trace, targets, tool_axis_local=Vec3(0.0, 0.0, 1.0)):
    """Per-index loops over the trace: the oracle for compute_metrics."""
    n = len(trace)
    d = trace.data
    dt = trace.dt
    done_events = trace.events_of_kind("target_done:")
    complete = trace.complete and len(done_events) == len(targets)
    t_tot = done_events[-1][0] if done_events else d["t"][n - 1] + dt

    lin_speed, ang_speed, p_force, p_torque = reference_series(trace)
    e_force = _trapezoid(p_force, dt)
    e_torque = _trapezoid(p_torque, dt)
    span = t_tot if t_tot > 0.0 else 1.0

    if trace.condition == "with":
        entries = reference_drill_entry_indices(trace)
    else:
        entries = _drill_entry_indices(trace, len(targets))
    per_target = []
    for idx, target in enumerate(targets):
        if idx not in entries:
            per_target.append((float("nan"), float("nan")))
            complete = False
            continue
        s = trace.sample(entries[idx])
        phi_cur, theta_cur = recover_angles(
            rotate(s.pose.orientation, tool_axis_local), target.frame
        )
        if (
            math.sin(math.radians(phi_cur)) < 1e-6
            or math.sin(math.radians(target.phi_deg)) < 1e-6
        ):
            eps_theta = 0.0
        else:
            eps_theta = wrap180(theta_cur - target.theta_deg)
        per_target.append((abs(phi_cur - target.phi_deg), eps_theta))
    valid = [p for p in per_target if not math.isnan(p[0])]
    return Metrics(
        t_tot=t_tot,
        s_lin_avg=_trapezoid(lin_speed, dt) / span,
        s_ang_avg=_trapezoid(ang_speed, dt) / span,
        e_force=e_force,
        e_torque=e_torque,
        e_total=e_force + e_torque,
        eps_phi_avg=sum(p[0] for p in valid) / len(valid) if valid else float("nan"),
        eps_theta_avg=sum(p[1] for p in valid) / len(valid) if valid else float("nan"),
        per_target=tuple(per_target),
        complete=complete,
    )


def flat_target(phi=0.0, theta=0.0):
    frame = build_target_frame(Vec3(0, 0, 0), Vec3(0, 0, -1), Vec3(1, 0, 0))
    return DrillTarget(Vec3(0, 0, 0), frame, phi, theta)


class TestComputeMetrics:
    def test_constant_power_oracle(self):
        # F = 10 N and v = 0.1 m/s along x for 10 s -> E_F = 10 J exactly
        dt = 0.01
        n = 1001
        tr = synthetic_trace(n, dt, lambda i: {"fh_x": 10.0, "vx": 0.1})
        tr.events.append(((n - 1) * dt, "target_done:0"))
        tr.complete = True
        m = compute_metrics(tr, [flat_target()])
        assert m.t_tot == pytest.approx(10.0, abs=1e-12)
        assert m.e_force == pytest.approx(10.0, rel=1e-9)
        assert m.e_torque == 0.0
        assert m.e_total == m.e_force + m.e_torque  # exact identity
        assert m.s_lin_avg == pytest.approx(0.1, rel=1e-9)
        assert m.s_ang_avg == 0.0

    def test_rest_trace_all_zero(self):
        tr = synthetic_trace(100, 0.01, lambda i: {})
        tr.events.append((0.99, "target_done:0"))
        tr.complete = True
        m = compute_metrics(tr, [flat_target()])
        assert m.s_lin_avg == 0.0 and m.s_ang_avg == 0.0
        assert m.e_total == 0.0

    def test_effort_monotone_in_prefix_length(self):
        dt = 0.01

        def fill(i):
            return {"fh_x": 5.0 * math.sin(i * 0.1) ** 2, "vx": 0.05}

        prev = 0.0
        for n in (50, 100, 200, 400):
            tr = synthetic_trace(n, dt, fill)
            tr.events.append(((n - 1) * dt, "target_done:0"))
            tr.complete = True
            m = compute_metrics(tr, [flat_target()])
            assert m.e_total >= prev - 1e-12
            prev = m.e_total

    def test_alignment_error_at_drill_entry(self):
        # tool axis synthesized 3 degrees off in polar angle
        target = flat_target(phi=20.0, theta=40.0)
        actual_axis = drilling_axis(target.frame, 23.0, 40.0)
        from gds.geometry import rotation_between

        q = rotation_between(Vec3(0, 0, 1), actual_axis)

        def fill(i):
            row = {"qw": q.w, "qx": q.x, "qy": q.y, "qz": q.z}
            if i >= 50:
                row["phase"] = GuidancePhase.CONSTRAINED_DRILL
            return row

        tr = synthetic_trace(100, 0.01, fill)
        tr.events.append((0.99, "target_done:0"))
        tr.complete = True
        m = compute_metrics(tr, [target])
        assert m.eps_phi_avg == pytest.approx(3.0, abs=1e-9)
        assert m.eps_theta_avg == pytest.approx(0.0, abs=1e-9)

    def test_incomplete_trace_flagged_partial(self):
        tr = synthetic_trace(100, 0.01, lambda i: {})
        m = compute_metrics(tr, [flat_target()])
        assert not m.complete

    def test_guided_run_errors_near_zero(self):
        sc = experiment_one_scenario("with", seed=0)
        m = compute_metrics(run(sc), sc.targets)
        assert m.complete
        assert m.eps_phi_avg < 0.01
        assert m.eps_theta_avg < 0.01

    def test_noiseless_manual_operator_aligns_exactly(self):
        sc = experiment_one_scenario(
            "without", seed=0, operator={"angular_noise": 0.0}
        )
        m = compute_metrics(run(sc), sc.targets)
        assert m.complete
        assert m.eps_phi_avg < 0.1
        assert m.eps_theta_avg < 0.1

    def test_dt_halving_changes_metrics_less_than_half_percent(self):
        vals = {}
        for dt in (1e-3, 5e-4):
            sc = experiment_one_scenario("with", seed=0, dt=dt)
            vals[dt] = compute_metrics(run(sc), sc.targets)
        for name in ("t_tot", "s_lin_avg", "s_ang_avg", "e_total"):
            a = getattr(vals[1e-3], name)
            b = getattr(vals[5e-4], name)
            assert abs(a - b) <= 0.005 * max(abs(a), abs(b)), name

    @pytest.mark.parametrize("condition", ["with", "without"])
    def test_preset_trace_matches_loop_oracle(self, condition):
        sc = experiment_one_scenario(condition, seed=5)
        trace = run(sc)
        assert trace.complete
        got = compute_metrics(trace, sc.targets, sc.tool_axis_local)
        want = reference_compute_metrics(trace, sc.targets, sc.tool_axis_local)
        assert got == want
        assert repr(got) == repr(want)  # same types, same -0.0
        d = trace.data
        series = (
            _speed(d, ("vx", "vy", "vz")),
            _speed(d, ("wx", "wy", "wz")),
            _power(d, ("fh_x", "fh_y", "fh_z"), ("vx", "vy", "vz")),
            _power(d, ("fh_tx", "fh_ty", "fh_tz"), ("wx", "wy", "wz")),
        )
        assert series == reference_series(trace)

    def test_guided_entry_scan_matches_loop_oracle(self):
        # every phase, with targets revisited out of order
        phases = tuple(GuidancePhase)
        tr = synthetic_trace(600, 0.01, lambda i: {"phase": phases[(i * 7) % len(phases)]})
        for i in range(len(tr)):
            tr.target_idx[i] = (i * 5) % 4 if i % 11 else 9
        want = reference_drill_entry_indices(tr)
        assert len(want) > 1
        assert _drill_entry_indices(tr, 4) == want
        empty = synthetic_trace(0, 0.01, lambda i: {})
        assert _drill_entry_indices(empty, 1) == {}


class TestWrap180:
    def test_wraps(self):
        assert wrap180(10.0) == 10.0
        assert wrap180(-10.0) == 10.0
        assert wrap180(350.0) == 10.0
        assert wrap180(180.0) == 180.0
        assert wrap180(540.0) == 180.0


def _metrics(**kw):
    base = dict(
        t_tot=100.0,
        s_lin_avg=0.1,
        s_ang_avg=0.05,
        e_force=80.0,
        e_torque=20.0,
        e_total=100.0,
        eps_phi_avg=5.0,
        eps_theta_avg=5.0,
        per_target=((5.0, 5.0),),
        complete=True,
    )
    base.update(kw)
    return Metrics(**base)


class TestCompare:
    def test_reported_percent_differences(self):
        w = _metrics(t_tot=74.0, e_force=64.0, e_torque=20.0, e_total=84.0)
        wo = _metrics()
        rep = compare(w, wo)
        assert rep.percent_diff["t_tot"] == pytest.approx(-26.0, abs=1e-12)
        assert rep.percent_diff["e_total"] == pytest.approx(-16.0, abs=1e-12)

    def test_equal_metrics_zero_percent(self):
        rep = compare(_metrics(), _metrics())
        assert all(v == 0.0 for v in rep.percent_diff.values())

    def test_zero_denominator_reported_none(self):
        w = _metrics(eps_phi_avg=0.5)
        wo = _metrics(eps_phi_avg=0.0)
        rep = compare(w, wo)
        assert rep.percent_diff["eps_phi_avg"] is None

    def test_partial_inputs_refused(self):
        with pytest.raises(ValueError):
            compare(_metrics(complete=False), _metrics())

    def test_mean_metrics(self):
        a = _metrics(t_tot=10.0, e_force=1.0, e_torque=1.0, e_total=2.0)
        b = _metrics(t_tot=20.0, e_force=3.0, e_torque=1.0, e_total=4.0)
        m = mean_metrics([a, b])
        assert m.t_tot == 15.0
        assert m.e_total == m.e_force + m.e_torque
        with pytest.raises(ValueError):
            mean_metrics([])
