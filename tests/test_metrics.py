import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gds.engine import Trace, _COLUMNS, _PHASE_CODE, _pack_record
from gds.geometry import Vec3, rotate
from gds.guidance import GuidancePhase
from gds.metrics import (
    METRIC_FIELDS,
    Metrics,
    _drill_entry_indices,
    _FH,
    _TH,
    _V,
    _W,
    _power,
    _speed,
    compare,
    compute_metrics,
    mean_metrics,
    wrap180,
)
from gds.presets import experiment_one_scenario
from gds.workpiece import DrillTarget, build_target_frame, drilling_axis, recover_angles
from gds import cli
from gds import engine as engine_mod
from gds.engine import run


def synthetic_trace(n, dt, fill):
    """Build a trace record by record; ``fill(i) -> dict`` of column
    overrides, plus ``phase`` and ``target_index``."""
    tr = Trace(dt=dt, condition="with", config_digest="synthetic")
    for i in range(n):
        row = {name: 0.0 for name in _COLUMNS}
        row["t"] = i * dt
        row["qw"] = 1.0
        row.update(fill(i))
        tr.append(_pack_record(
            *(row[name] for name in _COLUMNS),
            _PHASE_CODE[row.get("phase", GuidancePhase.FREE_MOTION)],
            row.get("target_index", 0),
        ))
    return tr


def reference_drill_entry_indices(trace):
    """Per-index scan for each target's first ConstrainedDrill sample, the
    guided condition's former entry rule: reference_compute_metrics reads
    it under guidance, so a guided session checks that the one rule of
    _drill_entry_indices reads the same orientation."""
    out = {}
    targets = trace.target_idx.tolist()
    for i in range(len(trace)):
        tgt = targets[i]
        if trace.phase_of(i) is GuidancePhase.CONSTRAINED_DRILL and tgt not in out:
            out[tgt] = i
    return out


def reference_manual_entry_indices(trace):
    """Scan of the ``first_cut:`` events for the last sample at or before
    each: the oracle for _drill_entry_indices, in both conditions."""
    out = {}
    t_col = trace.data["t"]
    for t_evt, kind in trace.events:
        if kind.startswith("first_cut:"):
            tgt = int(kind.split(":")[1])
            if tgt in out:
                continue
            i = min(int(round(t_evt / trace.dt)), len(trace) - 1)
            while i > 0 and t_col[i] > t_evt:
                i -= 1
            out[tgt] = i
    return out


def reference_series(trace):
    """Per-index loops: linear and angular speed, force and torque power."""
    n = len(trace)
    vx, vy, vz, wx, wy, wz, fx, fy, fz, tx, ty, tz = (
        trace.data[name].tolist()
        for name in ("vx", "vy", "vz", "wx", "wy", "wz",
                     "fh_x", "fh_y", "fh_z", "fh_tx", "fh_ty", "fh_tz")
    )
    lin_speed = [math.sqrt(vx[i] * vx[i] + vy[i] * vy[i] + vz[i] * vz[i]) for i in range(n)]
    ang_speed = [math.sqrt(wx[i] * wx[i] + wy[i] * wy[i] + wz[i] * wz[i]) for i in range(n)]
    p_force = [
        abs(fx[i] * vx[i]) + abs(fy[i] * vy[i]) + abs(fz[i] * vz[i]) for i in range(n)
    ]
    p_torque = [
        abs(tx[i] * wx[i]) + abs(ty[i] * wy[i]) + abs(tz[i] * wz[i]) for i in range(n)
    ]
    return lin_speed, ang_speed, p_force, p_torque


def reference_trapezoid(series, dt):
    """The trapezoid rule over one whole-trace list: the oracle for the
    streamed integrals of compute_metrics."""
    if len(series) < 2:
        return 0.0
    return dt * (math.fsum(series) - 0.5 * (series[0] + series[-1]))


def reference_compute_metrics(trace, targets, tool_axis_local=Vec3(0.0, 0.0, 1.0)):
    """Per-index loops over the trace: the oracle for compute_metrics."""
    n = len(trace)
    dt = trace.dt
    done_events = trace.events_of_kind("target_done:")
    complete = trace.complete and len(done_events) == len(targets)
    t_tot = done_events[-1][0] if done_events else trace.data["t"].tolist()[n - 1] + dt

    lin_speed, ang_speed, p_force, p_torque = reference_series(trace)
    e_force = reference_trapezoid(p_force, dt)
    e_torque = reference_trapezoid(p_torque, dt)
    span = n * dt

    if trace.condition == "with":
        entries = reference_drill_entry_indices(trace)
    else:
        entries = reference_manual_entry_indices(trace)
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
        s_lin_avg=reference_trapezoid(lin_speed, dt) / span,
        s_ang_avg=reference_trapezoid(ang_speed, dt) / span,
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
        # 1 m over the recorded span of n samples, n * dt = 10.01 s
        assert m.s_lin_avg == pytest.approx(1.0 / (n * dt), rel=1e-9)
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
        actual_axis = Vec3(*drilling_axis(target.frame, 23.0, 40.0))
        from gds.geometry import rotation_between

        q = rotation_between(Vec3(0, 0, 1), actual_axis)

        def fill(i):
            row = {"qw": q.w, "qx": q.x, "qy": q.y, "qz": q.z}
            if i >= 50:
                row["phase"] = GuidancePhase.CONSTRAINED_DRILL
                row["hole_depth"] = 1e-4 * (i - 49)
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
        # the speeds' span is t_tot on a complete run, to the bit
        assert got.t_tot == len(trace) * trace.dt
        blocks = list(trace.record_blocks())

        def joined(series):
            return [x for records in blocks for x in series(records)]

        series = (
            joined(lambda records: _speed(records, _V)),
            joined(lambda records: _speed(records, _W)),
            joined(lambda records: _power(records, _FH, _V)),
            joined(lambda records: _power(records, _TH, _W)),
        )
        assert series == reference_series(trace)

    @pytest.mark.parametrize("condition", ["with", "without"])
    @pytest.mark.parametrize("n", [1, 2, 511, 512, 513, 1025])
    def test_block_edge_lengths_match_loop_oracle(self, condition, n):
        # a trace cut by max_sim_time after n steps: its last block holds
        # 1, 2, 511, 512, 1 and 1 records
        sc = experiment_one_scenario(condition, seed=3, max_sim_time=(n + 0.5) * 1e-3)
        trace = run(sc)
        assert len(trace) == n and trace.events[-1][1] == "timeout"
        got = compute_metrics(trace, sc.targets, sc.tool_axis_local)
        want = reference_compute_metrics(trace, sc.targets, sc.tool_axis_local)
        # no target was reached, so the errors are NaN, which equals nothing
        assert math.isnan(got.eps_phi_avg) and repr(got) == repr(want)
        integrals = ("t_tot", "s_lin_avg", "s_ang_avg", "e_force", "e_torque", "e_total")
        assert [getattr(got, name) for name in integrals] == [
            getattr(want, name) for name in integrals
        ]
        if n > 1:
            assert got.s_lin_avg > 0.0 and got.e_total > 0.0

    @pytest.mark.parametrize("condition", ["with", "without"])
    def test_one_step_session_integrates_to_zero(self, condition):
        # one sample: the trapezoid rule's end halves cancel its one term
        sc = experiment_one_scenario(condition, seed=0, max_sim_time=1e-3)
        trace = run(sc)
        assert len(trace) == 1 and sc.dt == 1e-3
        got = compute_metrics(trace, sc.targets, sc.tool_axis_local)
        assert (got.e_force, got.e_torque, got.s_lin_avg, got.s_ang_avg) == (0.0, 0.0, 0.0, 0.0)

    def test_metrics_hold_no_whole_trace_series(self):
        # the trace stores 368 bytes a sample; a whole-trace float column
        # alone would take 8 of them, a list of Python floats 32
        sc = experiment_one_scenario("without", seed=0)
        trace = run(sc)
        tracemalloc.start()
        try:
            got = compute_metrics(trace, sc.targets, sc.tool_axis_local)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.complete
        assert peak < len(trace) * engine_mod._RECORD_SIZE / 16

    def test_incomplete_run_averages_over_its_record(self):
        # manual seed 75 finishes target 0, collides, and runs away on
        # target 1 at 47.042 s
        sc = experiment_one_scenario("without", seed=75)
        trace = run(sc)
        assert trace.events[-1] == (pytest.approx(47.042), "runaway:1")
        got = compute_metrics(trace, sc.targets, sc.tool_axis_local)
        assert not got.complete
        # repr: target 2's errors are NaN, which equals nothing
        assert repr(got) == repr(reference_compute_metrics(trace, sc.targets, sc.tool_axis_local))
        assert got.t_tot == trace.events_of_kind("target_done:")[-1][0]
        assert got.t_tot < 20.0
        lin_speed, ang_speed, _, _ = reference_series(trace)
        span = len(trace) * trace.dt
        assert span == pytest.approx(47.042)
        assert got.s_lin_avg == reference_trapezoid(lin_speed, trace.dt) / span
        assert got.s_ang_avg == reference_trapezoid(ang_speed, trace.dt) / span
        line = cli._summary_line("without", 75, got, trace.events[-1])
        assert line.endswith(" INCOMPLETE (runaway:1 at 47.042 s)")

    def test_speed_squares_are_correctly_rounded(self):
        # glibc 2.36's vx ** 2 (libm pow) is one ulp off the exact square
        # here; vy squares exactly, and the sum carries that ulp through the
        # root (the root of a lone square is |vx| either way)
        vx, vy = 7.2249061795510094, 0.25
        tr = synthetic_trace(1, 1e-3, lambda i: {"vx": vx, "vy": vy})
        (records,) = tr.record_blocks()
        want = math.sqrt(float(Fraction(vx) ** 2) + float(Fraction(vy) ** 2))
        assert _speed(records, _V) == [want]

    @pytest.mark.parametrize("condition", ["with", "without"])
    def test_entry_rule_matches_event_scan(self, condition):
        # one rule for both conditions: targets 0 to 3 in turn; target 2 is
        # never cut, and target 3 is first cut on the last sample, which
        # has no next sample
        dt, n = 0.01, 200
        starts, cuts = (0, 100, 140, 170), {0: 40, 1: 130, 3: n - 1}

        def fill(i):
            tgt = sum(i >= s for s in starts) - 1
            cut = cuts.get(tgt, n)
            return {"target_index": tgt, "hole_depth": 1e-4 * (i - cut + 1) if i >= cut else 0.0}

        tr = synthetic_trace(n, dt, fill)
        tr.condition = condition
        # as World.step stamps them: at the end of the step that cut
        tr.events += [((k + 1) * dt, f"first_cut:{tgt}") for tgt, k in cuts.items()]
        want = reference_manual_entry_indices(tr)
        assert want == {0: 41, 1: 131, 3: n - 1}
        assert _drill_entry_indices(tr) == want
        empty = synthetic_trace(0, 0.01, lambda i: {})
        empty.condition = condition
        assert _drill_entry_indices(empty) == {}

    @pytest.mark.parametrize("condition", ["with", "without"])
    def test_target_never_cut_has_no_alignment_error(self, condition):
        # cut at 7 s: the guided session has entered ConstrainedDrill (at
        # 5.346 s) but first cuts at 7.570 s, the manual one is still on
        # its approach; neither target 0 is cut, so its errors are NaN
        sc = experiment_one_scenario(condition, seed=0, max_sim_time=7.0)
        trace = run(sc)
        assert trace.events[-1] == (pytest.approx(7.0), "timeout")
        assert not trace.events_of_kind("first_cut:")
        entered = [t for t, _ in trace.events_of_kind("phase:ConstrainedDrill")]
        assert entered == ([pytest.approx(5.346)] if condition == "with" else [])
        got = compute_metrics(trace, sc.targets, sc.tool_axis_local)
        assert all(math.isnan(e) for e in got.per_target[0])
        assert math.isnan(got.eps_phi_avg) and math.isnan(got.eps_theta_avg)
        assert not got.complete


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


_finite = st.floats(-1e6, 1e6, allow_nan=False)


def complete_metrics(n_targets):
    """Complete ``Metrics`` with ``n_targets`` targets and drawn values;
    ``e_total`` is the exact sum of the efforts, as compute_metrics makes it."""
    return st.builds(
        lambda v, per_target: Metrics(
            *v[:5], v[3] + v[4], *v[5:], per_target=tuple(per_target), complete=True
        ),
        st.lists(_finite, min_size=7, max_size=7),
        st.lists(st.tuples(_finite, _finite), min_size=n_targets, max_size=n_targets),
    )


def reference_mean_metrics(runs):
    """The mean field by field, each metric named: the oracle for
    mean_metrics."""
    k = float(len(runs))
    per_target = tuple(
        (
            sum(m.per_target[i][0] for m in runs) / k,
            sum(m.per_target[i][1] for m in runs) / k,
        )
        for i in range(len(runs[0].per_target))
    )
    e_force = sum(m.e_force for m in runs) / k
    e_torque = sum(m.e_torque for m in runs) / k
    return Metrics(
        t_tot=sum(m.t_tot for m in runs) / k,
        s_lin_avg=sum(m.s_lin_avg for m in runs) / k,
        s_ang_avg=sum(m.s_ang_avg for m in runs) / k,
        e_force=e_force,
        e_torque=e_torque,
        e_total=e_force + e_torque,
        eps_phi_avg=sum(m.eps_phi_avg for m in runs) / k,
        eps_theta_avg=sum(m.eps_theta_avg for m in runs) / k,
        per_target=per_target,
        complete=True,
    )


class TestCompare:
    def test_reported_percent_differences(self):
        w = _metrics(t_tot=74.0, e_force=64.0, e_torque=20.0, e_total=84.0)
        wo = _metrics()
        diff = compare(w, wo)
        assert list(diff) == list(METRIC_FIELDS)
        assert diff["t_tot"] == pytest.approx(-26.0, abs=1e-12)
        assert diff["e_total"] == pytest.approx(-16.0, abs=1e-12)

    def test_equal_metrics_zero_percent(self):
        assert all(v == 0.0 for v in compare(_metrics(), _metrics()).values())

    def test_zero_denominator_reported_none(self):
        w = _metrics(eps_phi_avg=0.5)
        wo = _metrics(eps_phi_avg=0.0)
        assert compare(w, wo)["eps_phi_avg"] is None

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

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_mean_metrics_matches_field_by_field_oracle(self, data):
        n_targets = data.draw(st.integers(1, 3))
        runs = data.draw(st.lists(complete_metrics(n_targets), min_size=1, max_size=5))
        assert repr(mean_metrics(runs)) == repr(reference_mean_metrics(runs))

    def test_to_dict_names_every_metric(self):
        m = _metrics(per_target=((1.0, 2.0), (3.0, 4.0)))
        assert m.to_dict() == {
            "t_tot": m.t_tot,
            "s_lin_avg": m.s_lin_avg,
            "s_ang_avg": m.s_ang_avg,
            "e_force": m.e_force,
            "e_torque": m.e_torque,
            "e_total": m.e_total,
            "eps_phi_avg_deg": m.eps_phi_avg,
            "eps_theta_avg_deg": m.eps_theta_avg,
            "per_target": [
                {"eps_phi_deg": 1.0, "eps_theta_deg": 2.0},
                {"eps_phi_deg": 3.0, "eps_theta_deg": 4.0},
            ],
            "complete": True,
        }
