"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import time

import numpy as np
import pytest

from gds.admittance import (
    GainSchedule,
    analytic_step_response,
    gains_at,
    step_admittance,
)
from gds.engine import run
from gds.geometry import (
    Pose,
    Twist6,
    UnitQuat,
    Vec3,
    Wrench6,
    angle_between,
    rotate,
)
from gds.guidance import GuidancePhase
from gds.metrics import compute_metrics, mean_metrics
from gds.operator_env import (
    EnvironmentModel,
    Hole,
    VirtualOperator,
    environment_wrench,
)
from gds.presets import experiment_one_scenario
from gds.workpiece import (
    CylinderPatch,
    SampledPatch,
    build_target_frame,
    drilling_axis,
    fit_plane,
    recover_angles,
)

# (name, mass, damping): translational rows run on fx, rotational on tx
TABLE_GAIN_SETS = [
    ("free/trans", 50.0, 100.0),
    ("free/rot", 10.0, 5.0),
    ("close/trans", 50.0, 600.0),
    ("close/rot", 10.0, 20.0),
    ("drill/trans", 50.0, 1000.0),
]


def _ok(line: str) -> None:
    print(f"[ACCEPTANCE] {line}: PASS")


@pytest.fixture(scope="module")
def guided_run():
    sc = experiment_one_scenario("with", seed=0)
    t0 = time.perf_counter()
    trace = run(sc)
    wall = time.perf_counter() - t0
    return sc, trace, wall


def test_c1_admittance_fidelity():
    t0 = time.perf_counter()
    f, dt = 10.0, 1e-3
    for name, m, b in TABLE_GAIN_SETS:
        params = (b, b)
        rot = name.endswith("/rot")
        wrench = Wrench6(Vec3.zero(), Vec3(f, 0, 0)) if rot else Wrench6(Vec3(f, 0, 0), Vec3.zero())
        n = int(round(5.0 * (m / b) / dt))
        worst = 0.0
        out = Twist6.zero()
        for k in range(1, n + 1):
            out = step_admittance(out, wrench, params, dt)
            v = out[1][0] if rot else out[0][0]
            worst = max(worst, abs(v - analytic_step_response(f, m, b, k * dt)))
        assert worst <= 1e-3 * (f / b), f"{name}: {worst:.2e}"
        # steady state: continue to ten time constants
        for k in range(n, 2 * n):
            out = step_admittance(out, wrench, params, dt)
            v = out[1][0] if rot else out[0][0]
        assert abs(v - f / b) <= 1e-3 * (f / b)
    wall = time.perf_counter() - t0
    assert wall < 1.0, f"criterion must finish in under 1 s, took {wall:.2f} s"
    _ok(f"C1 admittance fidelity, 5 Table-I gain sets ({wall*1e3:.0f} ms)")


def test_c2_gain_ramp():
    pairs = [
        (100.0, 600.0),
        (600.0, 1000.0),
        (100.0, 1000.0),
        (1000.0, 100.0),  # back-transition after a target
    ]
    t_start = 2.0
    for b0, b1 in pairs:
        sched = GainSchedule((b0, 5.0), (b1, 20.0), ramp_start=t_start)
        # completes in exactly 1.000 s, not before
        assert gains_at(sched, t_start + 1.0)[0] == b1
        assert gains_at(sched, t_start + 0.999)[0] != b1
        # midpoint equals the arithmetic mean exactly
        assert gains_at(sched, t_start + 0.5)[0] == (b0 + b1) / 2.0
        # continuity and monotonicity on a fine grid
        prev = gains_at(sched, t_start - 0.1)[0]
        sign = 1.0 if b1 >= b0 else -1.0
        max_step = abs(b1 - b0) * 1e-3 + 1e-9
        for i in range(1300):
            t = t_start - 0.1 + i * 1e-3
            cur = gains_at(sched, t)[0]
            assert sign * (cur - prev) >= -1e-12
            assert abs(cur - prev) <= max_step
            prev = cur
    # rotational midpoint from the Table-I rows
    sched = GainSchedule((100, 5), (600, 20), ramp_start=0.0)
    assert gains_at(sched, 0.5)[1] == (5.0 + 20.0) / 2.0
    _ok("C2 damping ramp: continuous, monotone, 1.000 s, exact midpoint")


def test_c3_state_machine_thresholds(guided_run):
    sc, trace, _ = guided_run
    px, py, pz = (trace.data[name].tolist() for name in ("px", "py", "pz"))
    targets = trace.target_idx.tolist()
    th = sc.thresholds

    def dist(i, tgt):
        p = Vec3(px[i], py[i], pz[i])
        return (p - sc.targets[tgt].point).norm()

    # adapt/lock crossings promote the phase within one timestep
    for tgt in range(3):
        idx = [i for i in range(len(trace)) if targets[i] == tgt]
        first_adapt = next(i for i in idx if dist(i, tgt) <= th.adapt_radius)
        assert trace.phase_of(first_adapt) is GuidancePhase.APPROACH
        assert trace.phase_of(first_adapt - 1) is GuidancePhase.FREE_MOTION
        first_lock = next(i for i in idx if dist(i, tgt) <= th.lock_radius)
        assert trace.phase_of(first_lock) is GuidancePhase.AUTO_ALIGN
        assert trace.phase_of(first_lock - 1) is GuidancePhase.APPROACH

    starts = trace.events_of_kind("align_start:")
    ends = trace.events_of_kind("align_end:")
    assert len(starts) == 3 and len(ends) == 3
    for (t0, _), (t1, _) in zip(starts, ends):
        assert abs((t1 - t0) - 4.0) <= 1e-9
    for tgt in range(3):
        n_align = sum(
            1
            for i in range(len(trace))
            if targets[i] == tgt
            and trace.phase_of(i) is GuidancePhase.AUTO_ALIGN
        )
        assert n_align == round(4.0 / sc.dt)

    # post-alignment: drill axis within 1e-9 rad, standoff within 1e-9 m
    for tgt in range(3):
        entry = next(
            i
            for i in range(len(trace))
            if targets[i] == tgt
            and trace.phase_of(i) is GuidancePhase.CONSTRAINED_DRILL
        )
        s = trace.sample(entry)
        tool = rotate(s.pose.orientation, sc.tool_axis_local)
        assert angle_between(tool, sc.targets[tgt].axis) < 1e-9
        standoff = (s.pose.position - sc.targets[tgt].point).norm()
        assert abs(standoff - th.standoff) <= 1e-9
    _ok("C3 thresholds at 0.10/0.05 m, 4.000 s alignment, exact standoff")


class _LateralDisturbanceOperator(VirtualOperator):
    """Guided operator plus a lateral force/torque disturbance injected into
    the human wrench while drilling is constrained."""

    def wrench(self, pose, twist, phase, target, t):
        w = super().wrench(pose, twist, phase, target, t)
        if phase in (GuidancePhase.CONSTRAINED_DRILL, GuidancePhase.RETRACT):
            return Wrench6(
                Vec3(*w[0]) + Vec3(10.0, 3.0, 0.0), Vec3(*w[1]) + Vec3(0.0, 1.0, 0.5)
            )
        return w


def test_c4_constraint_exactness():
    # representable-axis scenario: crest target, phi = 0 -> axis (0, 0, -1)
    sc = experiment_one_scenario("with", seed=0)
    sc_flat = experiment_one_scenario("with", seed=0)
    sc_flat.targets = (
        type(sc.targets[0])(
            point=Vec3(0.0, 0.0, 0.0),
            frame=build_target_frame(Vec3(0, 0, 0), Vec3(0, 0, -1), Vec3(1, 0, 0)),
            phi_deg=0.0,
            theta_deg=0.0,
        ),
    )
    assert sc_flat.targets[0].axis == Vec3(0.0, 0.0, -1.0)  # exactly representable
    op = _LateralDisturbanceOperator(sc_flat.operator, sc_flat.tool_axis_local, guided=True)
    trace = run(sc_flat, op)
    assert trace.complete
    checked = 0
    for i in range(len(trace)):
        if trace.phase_of(i) is not GuidancePhase.CONSTRAINED_DRILL:
            continue
        s = trace.sample(i)
        assert s.twist.angular.x == 0.0
        assert s.twist.angular.y == 0.0
        assert s.twist.angular.z == 0.0
        assert s.twist.linear.x == 0.0  # off-axis components identically zero
        assert s.twist.linear.y == 0.0
        assert s.v_ref.linear.x == 0.0 and s.v_ref.linear.y == 0.0
        assert s.v_ref.angular == Vec3(0.0, 0.0, 0.0)
        checked += 1
    assert checked > 100

    # skew-axis preset under the same disturbance: angular still bitwise
    # zero, off-axis linear at the float-embedding floor
    op2 = _LateralDisturbanceOperator(sc.operator, sc.tool_axis_local, guided=True)
    trace2 = run(sc, op2)
    assert trace2.complete
    for i in range(len(trace2)):
        if trace2.phase_of(i) is not GuidancePhase.CONSTRAINED_DRILL:
            continue
        s = trace2.sample(i)
        assert s.twist.angular == Vec3(0.0, 0.0, 0.0)
        axis = sc.targets[s.target_index].axis
        v = s.twist.linear
        perp = v - axis.scale(v.dot(axis))
        assert perp.norm() <= 4e-16 * max(1.0, v.norm())
    _ok("C4 constrained drilling: off-axis and angular velocity identically zero under disturbance")


def test_c5_geometry_round_trip():
    rng = np.random.default_rng(2024)
    # random target frames, 1000 angle pairs
    worst_phi = worst_theta = 0.0
    for trial in range(1000):
        n = Vec3(*rng.standard_normal(3)).normalized()
        ref = Vec3(*rng.standard_normal(3))
        if abs(n.dot(ref.normalized())) > 1.0 - 1e-3:
            ref = Vec3(ref.x + 1.0, ref.y, ref.z)
        frame = build_target_frame(Vec3(0, 0, 0), n, ref)
        phi = float(rng.uniform(1.0, 89.0))
        theta = float(rng.uniform(0.0, 360.0))
        axis = Vec3(*drilling_axis(frame, phi, theta))
        phi2, theta2 = recover_angles(axis, frame)
        worst_phi = max(worst_phi, abs(phi2 - phi))
        dt = abs(theta2 - theta)
        worst_theta = max(worst_theta, min(dt, 360.0 - dt))
    assert worst_phi <= 1e-9
    assert worst_theta <= 1e-9

    # plane fit: exact on noiseless coplanar data
    rng2 = np.random.default_rng(7)
    base = [Vec3(x, y, 0.0) for x, y in rng2.uniform(-0.08, 0.08, (25, 2))]
    fit = fit_plane(SampledPatch(tuple(base)), orient_along=Vec3(0, 0, 1))
    assert angle_between(fit.normal, Vec3(0, 0, 1)) <= 1e-9

    # and rigid-transform invariant
    for _ in range(50):
        q = UnitQuat.from_axis_angle(
            Vec3(*rng2.standard_normal(3)), float(rng2.uniform(-math.pi, math.pi))
        )
        shift = Vec3(*rng2.uniform(-3, 3, 3))
        moved = tuple(rotate(q, p) + shift for p in base)
        expected = rotate(q, Vec3(0, 0, 1))
        fit = fit_plane(SampledPatch(moved), orient_along=expected)
        assert angle_between(fit.normal, expected) <= 1e-9
    _ok("C5 geometry round trip (1000 angle pairs) and exact plane fit")


def test_c6_end_to_end_guided(guided_run):
    sc, trace, wall = guided_run
    assert wall < 10.0, f"guided preset run took {wall:.1f} s"
    assert trace.complete
    assert len(trace.events_of_kind("target_done:")) == 3

    starts = trace.events_of_kind("align_start:")
    ends = trace.events_of_kind("align_end:")
    total_align = sum(t1 - t0 for (t0, _), (t1, _) in zip(starts, ends))
    assert abs(total_align - 12.0) <= 1e-9
    n_align_samples = sum(
        1 for i in range(len(trace)) if trace.phase_of(i) is GuidancePhase.AUTO_ALIGN
    )
    assert n_align_samples == 3 * round(4.0 / sc.dt)

    m = compute_metrics(trace, sc.targets)
    for eps_phi, eps_theta in m.per_target:
        assert eps_phi < 0.01
        assert eps_theta < 0.01
    assert trace.events_of_kind("collision") == []

    rerun = run(experiment_one_scenario("with", seed=0))
    assert rerun.checksum() == trace.checksum()
    assert rerun.config_digest == trace.config_digest
    _ok(
        f"C6 end-to-end guided preset: 3 targets, 12.000 s alignment, "
        f"errors < 0.01 deg, deterministic ({wall:.1f} s)"
    )


def test_c7_directional_reproduction(seed_sweep):
    metrics, wall, _ = seed_sweep
    assert wall < 120.0, f"20-seed sweep took {wall:.0f} s"
    avg_with = mean_metrics(metrics["with"])
    avg_without = mean_metrics(metrics["without"])
    assert avg_with.t_tot < avg_without.t_tot
    assert avg_with.e_total < avg_without.e_total
    assert avg_with.eps_phi_avg < avg_without.eps_phi_avg
    assert avg_with.eps_theta_avg < avg_without.eps_theta_avg
    # no-guidance errors sit in the observed 3-16 degree band
    assert 3.0 <= avg_without.eps_phi_avg <= 16.0
    assert 3.0 <= avg_without.eps_theta_avg <= 16.0
    dt_pct = 100.0 * (avg_with.t_tot - avg_without.t_tot) / avg_without.t_tot
    de_pct = 100.0 * (avg_with.e_total - avg_without.e_total) / avg_without.e_total
    _ok(
        f"C7 directional reproduction over 20 seeds: time {dt_pct:+.0f}%, "
        f"effort {de_pct:+.0f}%, manual errors "
        f"({avg_without.eps_phi_avg:.1f}, {avg_without.eps_theta_avg:.1f}) deg in band "
        f"({wall:.0f} s)"
    )


def test_c8_energy_bookkeeping(seed_sweep):
    metrics, _, _ = seed_sweep
    for runs in metrics.values():
        for m in runs:
            assert m.e_total == m.e_force + m.e_torque  # exact, every trace

    # metric invariance under halving the timestep
    for condition in ("with", "without"):
        vals = {}
        for dt in (1e-3, 5e-4):
            sc = experiment_one_scenario(condition, seed=0, dt=dt)
            trace = run(sc)
            assert trace.complete
            vals[dt] = compute_metrics(trace, sc.targets)
        for name in ("t_tot", "s_lin_avg", "s_ang_avg", "e_force", "e_torque", "e_total"):
            a, b = getattr(vals[1e-3], name), getattr(vals[5e-4], name)
            scale = max(abs(a), abs(b))
            if scale == 0.0:
                continue
            assert abs(a - b) <= 0.005 * scale, f"{condition}/{name}: {a} vs {b}"
        # alignment errors: tiny under guidance, so compare absolutely
        for name in ("eps_phi_avg", "eps_theta_avg"):
            a, b = getattr(vals[1e-3], name), getattr(vals[5e-4], name)
            assert abs(a - b) <= max(0.005 * max(abs(a), abs(b)), 1e-3), name
    _ok("C8 energy identity exact and metrics stable under dt halving")


def test_c9_contact_passivity():
    surface = CylinderPatch(Vec3(0, 0, -0.5), Vec3(0, 1, 0), 0.5)
    frame = build_target_frame(Vec3(0, 0, 0), Vec3(0, 0, -1), Vec3(1, 0, 0))
    from gds.workpiece import DrillTarget

    target = DrillTarget(Vec3(0, 0, 0), frame, 0.0, 0.0)
    dt = 1e-3
    speed = 0.005
    for damping in (200.0, 0.0):
        env = EnvironmentModel(contact_damping=damping)
        hole = Hole(target.point, target.axis, env.hole_radius)
        # approach-contact-release cycle 5 cm off target, prescribed motion
        z = 0.002
        powers = []
        n_half = int(round(0.003 / speed / dt))
        for k in range(2 * n_half + 1):
            vz = -speed if k <= n_half else speed
            pose = Pose(Vec3(0.05, 0.0, z), UnitQuat.identity())
            tw = Twist6(Vec3(0.0, 0.0, vz), Vec3.zero())
            ax_pos, on_target, _ = hole.coordinates(*pose.position)
            w, _ = environment_wrench(pose, tw, surface, hole, env, ax_pos, on_target)
            powers.append(Vec3(*w[0]).dot(tw.linear))
            z += vz * dt
        net = dt * (math.fsum(powers) - 0.5 * (powers[0] + powers[-1]))
        assert net <= 1e-6, f"contact injected {net:.2e} J (damping={damping})"
    _ok("C9 contact model passive over approach-contact-release cycles")
