import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gds.admittance import (
    AXIAL_MASK,
    FULL_MASK,
    AdmittanceParams,
    AdmittanceState,
    DofGains,
    GainSchedule,
    analytic_step_response,
    gains_at,
    phase_params,
    step_admittance,
)
from gds.errors import SimulationFault
from gds.geometry import Twist6, Vec3, Wrench6
from gds.guidance import GuidancePhase

TABLE_GAIN_SETS = [
    ("free_trans", 50.0, 100.0),
    ("free_rot", 10.0, 5.0),
    ("close_trans", 50.0, 600.0),
    ("close_rot", 10.0, 20.0),
    ("drill_trans", 50.0, 1000.0),
]


def make_state(m=50.0, b=100.0, mask=FULL_MASK):
    params = AdmittanceParams.uniform(DofGains(m, b), DofGains(m, b))
    return AdmittanceState(params, enabled=mask)


def force_x(f):
    return Wrench6(Vec3(f, 0.0, 0.0), Vec3.zero())


def reference_step_admittance(state, f_int, dt):
    """The six-channel loop taking exp(-b dt / m) on every channel every
    step: the oracle for step_admittance."""
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    forces = (*f_int.force, *f_int.torque)
    for f in forces:
        if not math.isfinite(f):
            raise SimulationFault("non-finite interaction force fed to admittance filter")
    vel = [*state.v.linear, *state.v.angular]
    for i, (enabled, (m, b), f) in enumerate(zip(state.enabled, state.params.gains, forces)):
        if enabled:
            v = vel[i]
            vel[i] = v + (1.0 - math.exp(-b * dt / m)) * (f / b - v)
        else:
            vel[i] = 0.0
    out = Twist6(Vec3(*vel[:3]), Vec3(*vel[3:]))
    state.v = out
    return out


def reference_gains_at(schedule, t):
    """Six DofGains interpolated one by one: the oracle for gains_at."""
    if t <= schedule.ramp_start:
        return schedule.start_params
    if t >= schedule.ramp_start + schedule.ramp_duration:
        return schedule.end_params
    s = (t - schedule.ramp_start) / schedule.ramp_duration
    out = []
    for g0, g1 in zip(schedule.start_params.gains, schedule.end_params.gains):
        out.append(DofGains(g0.m + s * (g1.m - g0.m), g0.b + s * (g1.b - g0.b)))
    return AdmittanceParams(tuple(out))


dof_gains = st.builds(DofGains, st.floats(0.5, 200.0), st.floats(0.5, 5000.0))
masks = st.sampled_from([FULL_MASK, AXIAL_MASK]) | st.tuples(*[st.booleans()] * 6)
forces = st.tuples(*[st.floats(-80.0, 80.0)] * 6).map(
    lambda f: Wrench6(Vec3(*f[:3]), Vec3(*f[3:]))
)


@st.composite
def gain_sets(draw):
    """Either uniform (channels share DofGains objects) or six distinct."""
    if draw(st.booleans()):
        return AdmittanceParams.uniform(draw(dof_gains), draw(dof_gains))
    return AdmittanceParams(tuple(draw(dof_gains) for _ in range(6)))


def assert_same_bits(got, want):
    assert got == want
    assert repr(got) == repr(want)


class TestStepAdmittance:
    def test_first_step_matches_continuous_oracle(self):
        # oracle: v(dt) = (F/b)(1 - exp(-b dt / m)) for F constant over the step
        state = make_state(m=50.0, b=100.0)
        out = step_admittance(state, force_x(10.0), 1e-3)
        oracle = analytic_step_response(10.0, 50.0, 100.0, 1e-3)
        assert oracle == pytest.approx(1.998001332e-4, rel=1e-9)
        assert out.linear.x == pytest.approx(oracle, rel=1e-12)

    def test_zero_force_stays_exactly_zero(self):
        state = make_state()
        for _ in range(100):
            out = step_admittance(state, Wrench6.zero(), 1e-3)
        assert out == Twist6.zero()

    def test_steady_state_gain(self):
        state = make_state(m=50.0, b=100.0)
        out = None
        for _ in range(5000):  # 5 s >> m/b = 0.5 s
            out = step_admittance(state, force_x(10.0), 1e-3)
        assert out.linear.x == pytest.approx(0.1, rel=1e-3)

    @pytest.mark.parametrize("name,m,b", TABLE_GAIN_SETS)
    def test_tracks_analytic_solution_over_five_time_constants(self, name, m, b):
        dt = 1e-3
        f = 10.0
        n = int(round(5.0 * (m / b) / dt))
        state = make_state(m=m, b=b)
        worst = 0.0
        for k in range(1, n + 1):
            out = step_admittance(state, force_x(f), dt)
            worst = max(worst, abs(out.linear.x - analytic_step_response(f, m, b, k * dt)))
        assert worst <= 1e-3 * (f / b)

    def test_disabled_dofs_output_zero_and_reset(self):
        state = make_state(mask=FULL_MASK)
        step_admittance(state, force_x(30.0), 0.01)
        assert state.v.linear.x != 0.0
        state.set_enabled((False,) * 6)
        out = step_admittance(state, force_x(30.0), 0.01)
        assert out == Twist6.zero()
        # re-enable: memory must restart from rest, not the stale value
        state.set_enabled(FULL_MASK)
        assert state.v == Twist6.zero()

    def test_decoupling(self):
        base = force_x(5.0)
        pert = Wrench6(Vec3(5.0, 0.0, 0.0), Vec3(0.0, 0.0, 2.0))
        s1, s2 = make_state(), make_state()
        for _ in range(50):
            o1 = step_admittance(s1, base, 1e-3)
            o2 = step_admittance(s2, pert, 1e-3)
        assert o1.linear == o2.linear
        assert o1.angular.z == 0.0 and o2.angular.z != 0.0

    def test_non_finite_force_rejected(self):
        state = make_state()
        with pytest.raises(SimulationFault):
            step_admittance(state, force_x(float("nan")), 1e-3)

    @given(
        m=st.floats(0.5, 200.0),
        b=st.floats(0.5, 5000.0),
        dt=st.floats(1e-5, 0.5),
        f=st.floats(-80.0, 80.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_error_to_steady_state_monotone_for_any_dt(self, m, b, dt, f):
        state = make_state(m=m, b=b)
        target = f / b
        prev = abs(target)
        for _ in range(40):
            out = step_admittance(state, force_x(f), dt)
            err = abs(out.linear.x - target)
            assert err <= prev + 1e-15
            prev = err


class TestKernelOracles:
    """step_admittance and gains_at against their loop oracles, bit for bit,
    across gain-set swaps, ramps, dt changes and mask changes."""

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_steps_and_ramps_match_loop_oracles(self, data):
        draw = data.draw
        a, b = draw(gain_sets()), draw(gain_sets())
        twin = AdmittanceParams(tuple(DofGains(g.m, g.b) for g in b.gains))  # b's values, new objects
        sched = GainSchedule(a, b, ramp_start=0.0, ramp_duration=draw(st.floats(0.01, 1.0)))
        mask = draw(masks)
        new, old = AdmittanceState(a, enabled=mask), AdmittanceState(a, enabled=mask)
        dt = 1e-3
        for _ in range(draw(st.integers(1, 30))):
            action = draw(st.sampled_from(["ramp", "a", "b", "twin", "dt", "mask"]))
            if action == "ramp":
                t = draw(st.floats(-0.1, 1.1)) * sched.ramp_duration
                got = gains_at(sched, t)
                want = reference_gains_at(sched, t)
                assert_same_bits(got, want)
                new.params, old.params = got, want
            elif action == "dt":
                dt = draw(st.sampled_from([1e-3, 2e-3]) | st.floats(1e-5, 0.5))
            elif action == "mask":
                mask = draw(masks)
                new.set_enabled(mask)
                old.set_enabled(mask)
            else:
                new.params = old.params = {"a": a, "b": b, "twin": twin}[action]
            f = draw(forces)
            assert_same_bits(step_admittance(new, f, dt), reference_step_admittance(old, f, dt))
            assert_same_bits(new.v, old.v)

    def test_coefficient_rows_follow_gain_set_and_dt(self):
        params = AdmittanceParams.uniform(DofGains(50.0, 100.0), DofGains(10.0, 5.0))
        new, old = AdmittanceState(params), AdmittanceState(params)
        f = Wrench6(Vec3(3.0, -2.0, 1.0), Vec3(0.5, 0.25, -0.125))
        # a new dt with the same gain set
        for dt in (1e-3, 1e-3, 0.02, 1e-3):
            assert_same_bits(step_admittance(new, f, dt), reference_step_admittance(old, f, dt))
        # a new gain set of new values every step, as in a ramp
        for k in range(50):
            new.params = old.params = AdmittanceParams.uniform(
                DofGains(50.0, 100.0 + 10.0 * k), DofGains(10.0, 5.0 + k)
            )
            assert_same_bits(step_admittance(new, f, 1e-3), reference_step_admittance(old, f, 1e-3))

    def test_ramp_shares_one_gain_per_distinct_pair(self):
        trans0, rot0 = DofGains(50.0, 100.0), DofGains(10.0, 5.0)
        end = (DofGains(50.0, 1000.0),) * 2 + (DofGains(50.0, 600.0),) + (DofGains(10.0, 20.0),) * 3
        sched = GainSchedule(
            AdmittanceParams.uniform(trans0, rot0), AdmittanceParams(end), ramp_start=0.0
        )
        mid = gains_at(sched, 0.3)
        assert_same_bits(mid, reference_gains_at(sched, 0.3))
        g = mid.gains
        assert g[0] is g[1] and g[1] is not g[2] and g[3] is g[4] is g[5]


class TestGainSchedule:
    def test_endpoints_and_midpoint(self):
        sched = GainSchedule(
            AdmittanceParams.uniform(DofGains(50, 100), DofGains(10, 5)),
            AdmittanceParams.uniform(DofGains(50, 600), DofGains(10, 20)),
            ramp_start=2.0,
        )
        assert gains_at(sched, 2.0).translational.b == 100.0
        assert gains_at(sched, 3.0).translational.b == 600.0
        assert gains_at(sched, 10.0).translational.b == 600.0
        mid = gains_at(sched, 2.5)
        assert mid.translational.b == (100.0 + 600.0) / 2.0  # exact arithmetic mean
        assert mid.rotational.b == (5.0 + 20.0) / 2.0

    def test_quarter_point_linear_oracle(self):
        sched = GainSchedule(
            AdmittanceParams.uniform(DofGains(50, 600), DofGains(10, 20)),
            AdmittanceParams.uniform(DofGains(50, 1000), DofGains(10, 20)),
            ramp_start=0.0,
        )
        assert gains_at(sched, 0.25).translational.b == pytest.approx(700.0, abs=1e-12)

    def test_continuous_and_monotone(self):
        sched = GainSchedule(
            AdmittanceParams.uniform(DofGains(50, 100), DofGains(10, 5)),
            AdmittanceParams.uniform(DofGains(50, 1000), DofGains(10, 20)),
            ramp_start=0.0,
        )
        prev_b = gains_at(sched, -1.0).translational.b
        t = 0.0
        while t <= 1.2:
            b = gains_at(sched, t).translational.b
            assert b >= prev_b  # monotone up
            assert abs(b - prev_b) <= 900.0 * 0.002 + 1e-9  # no jumps
            prev_b = b
            t += 0.001

    def test_mass_held_constant(self):
        sched = GainSchedule(
            AdmittanceParams.uniform(DofGains(50, 100), DofGains(10, 5)),
            AdmittanceParams.uniform(DofGains(50, 1000), DofGains(10, 20)),
            ramp_start=0.0,
        )
        for t in (0.0, 0.3, 0.77, 1.0):
            p = gains_at(sched, t)
            assert p.translational.m == 50.0
            assert p.rotational.m == 10.0

    def test_bad_duration_rejected(self):
        p = AdmittanceParams.uniform(DofGains(50, 100), DofGains(10, 5))
        with pytest.raises(ValueError):
            GainSchedule(p, p, 0.0, ramp_duration=0.0)


class TestPhaseParams:
    def test_free_motion_with_guidance(self):
        pp = phase_params(GuidancePhase.FREE_MOTION, "with")
        assert pp.params.translational == DofGains(50.0, 100.0)
        assert pp.params.rotational == DofGains(10.0, 5.0)
        assert pp.enabled == FULL_MASK

    def test_approach_with_guidance(self):
        pp = phase_params(GuidancePhase.APPROACH, "with")
        assert pp.params.translational.b == 600.0
        assert pp.params.rotational.b == 20.0

    def test_drilling_single_dof(self):
        pp = phase_params(GuidancePhase.CONSTRAINED_DRILL, "with")
        assert pp.params.translational == DofGains(50.0, 1000.0)
        assert pp.enabled == AXIAL_MASK
        assert sum(pp.enabled) == 1

    def test_without_guidance_near_target(self):
        pp = phase_params(GuidancePhase.APPROACH, "without")
        assert all(g.b == 1000.0 for g in pp.params.gains[:3])
        assert pp.enabled == FULL_MASK

    def test_without_guidance_far(self):
        pp = phase_params(GuidancePhase.FREE_MOTION, "without")
        assert pp.params.translational.b == 100.0
        assert pp.enabled == FULL_MASK
