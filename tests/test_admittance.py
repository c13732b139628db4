import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gds.admittance import (
    GainSchedule,
    analytic_step_response,
    gains_at,
    phase_params,
    step_admittance,
    step_axial,
)
from gds.errors import SimulationFault
from gds.geometry import Twist6, Vec3, Wrench6
from gds.guidance import GuidancePhase

# (name, mass, damping); a row named *_trans runs on a translational
# channel (mass 50 kg), one named *_rot on a rotational channel (10 kg m^2)
TABLE_GAIN_SETS = [
    ("free_trans", 50.0, 100.0),
    ("free_rot", 10.0, 5.0),
    ("close_trans", 50.0, 600.0),
    ("close_rot", 10.0, 20.0),
    ("drill_trans", 50.0, 1000.0),
]


def run_steps(wrench, b=100.0, n=1, dt=1e-3):
    """The reference twist after n steps from rest under a constant wrench,
    with damping b on every channel."""
    params = (b, b)
    v = Twist6.zero()
    for _ in range(n):
        v = step_admittance(v, wrench, params, dt)
    return v


def force_x(f):
    return Wrench6(Vec3(f, 0.0, 0.0), Vec3.zero())


def force_and_torque_x(f):
    return Wrench6(Vec3(f, 0.0, 0.0), Vec3(f, 0.0, 0.0))


def reference_step_admittance(twist, f_int, params, dt):
    """The six-channel loop taking exp(-b dt / m) on every channel every
    step, the translational damping and 50 kg on the first three, the
    rotational damping and 10 kg m^2 on the last three: the oracle for
    step_admittance."""
    forces = (*f_int[0], *f_int[1])
    vel = [*twist[0], *twist[1]]
    trans, rot = params
    gains = ((50.0, trans),) * 3 + ((10.0, rot),) * 3
    for i, ((m, b), f) in enumerate(zip(gains, forces)):
        v = vel[i]
        vel[i] = v + (1.0 - math.exp(-b * dt / m)) * (f / b - v)
    return tuple(vel[:3]), tuple(vel[3:])


def reference_gains_at(schedule, t):
    """Each damping interpolated in a loop over a 1 s ramp: the oracle for
    gains_at, a plain pair inside the ramp."""
    if t <= schedule.ramp_start:
        return schedule.start_params
    if t >= schedule.ramp_start + 1.0:
        return schedule.end_params
    s = (t - schedule.ramp_start) / 1.0
    out = []
    for b0, b1 in zip(schedule.start_params, schedule.end_params):
        out.append(b0 + s * (b1 - b0))
    return tuple(out)


dampings = st.floats(0.5, 5000.0)
forces = st.tuples(*[st.floats(-80.0, 80.0)] * 6).map(
    lambda f: Wrench6(Vec3(*f[:3]), Vec3(*f[3:]))
)


gain_sets = st.tuples(dampings, dampings)


def assert_same_bits(got, want):
    # repr tells -0.0 from 0.0, and a plain tuple from a NamedTuple
    assert got == want
    assert repr(got) == repr(want)


class TestStepAdmittance:
    def test_first_step_matches_continuous_oracle(self):
        # oracle: v(dt) = (F/b)(1 - exp(-b dt / m)) for F constant over the step
        out = run_steps(force_x(10.0), b=100.0)
        oracle = analytic_step_response(10.0, 50.0, 100.0, 1e-3)
        assert oracle == pytest.approx(1.998001332e-4, rel=1e-9)
        assert out[0][0] == pytest.approx(oracle, rel=1e-12)

    def test_zero_force_stays_exactly_zero(self):
        assert run_steps(Wrench6.zero(), n=100) == Twist6.zero()

    def test_steady_state_gain(self):
        out = run_steps(force_x(10.0), b=100.0, n=5000)  # 5 s >> m/b = 0.5 s
        assert out[0][0] == pytest.approx(0.1, rel=1e-3)

    @pytest.mark.parametrize("name,m,b", TABLE_GAIN_SETS)
    def test_tracks_analytic_solution_over_five_time_constants(self, name, m, b):
        dt = 1e-3
        f = 10.0
        n = int(round(5.0 * (m / b) / dt))
        params = (b, b)
        rot = name.endswith("_rot")
        wrench = Wrench6(Vec3.zero(), Vec3(f, 0.0, 0.0)) if rot else force_x(f)
        worst = 0.0
        out = Twist6.zero()
        for k in range(1, n + 1):
            out = step_admittance(out, wrench, params, dt)
            v = out[1][0] if rot else out[0][0]
            worst = max(worst, abs(v - analytic_step_response(f, m, b, k * dt)))
        assert worst <= 1e-3 * (f / b)

    @pytest.mark.parametrize("f_axial", [float("inf"), float("nan")])
    def test_axial_non_finite_force_rejected(self, f_axial):
        # the axial channel keeps its own check: its force projects the six
        # finite components World.step checked, and that sum can overflow
        with pytest.raises(SimulationFault):
            step_axial(0.0, f_axial, 1000.0, 1e-3)

    def test_decoupling(self):
        base = force_x(5.0)
        pert = Wrench6(Vec3(5.0, 0.0, 0.0), Vec3(0.0, 0.0, 2.0))
        o1, o2 = run_steps(base, n=50), run_steps(pert, n=50)
        assert o1[0] == o2[0]
        assert o1[1][2] == 0.0 and o2[1][2] != 0.0

    @given(
        b=st.floats(0.5, 5000.0),
        dt=st.floats(1e-5, 0.5),
        f=st.floats(-80.0, 80.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_error_to_steady_state_monotone_for_any_dt(self, b, dt, f):
        # the translational and the rotational channel, each at its mass
        params = (b, b)
        target = f / b
        prev = [abs(target)] * 2
        out = Twist6.zero()
        for _ in range(40):
            out = step_admittance(out, force_and_torque_x(f), params, dt)
            for i, v in enumerate((out[0][0], out[1][0])):
                err = abs(v - target)
                assert err <= prev[i] + 1e-15
                prev[i] = err


class TestKernelOracles:
    """step_admittance and gains_at against their loop oracles, bit for bit,
    across gain-set swaps, ramps and dt changes."""

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_steps_and_ramps_match_loop_oracles(self, data):
        draw = data.draw
        a, b = draw(gain_sets), draw(gain_sets)
        twin = tuple(list(b))  # b's values, a new object
        sched = GainSchedule(a, b, ramp_start=0.0)
        new = old = Twist6.zero()
        new_params = old_params = a
        dt = 1e-3
        for _ in range(draw(st.integers(1, 30))):
            action = draw(st.sampled_from(["ramp", "a", "b", "twin", "dt"]))
            if action == "ramp":
                t = draw(st.floats(-0.1, 1.1))
                got = gains_at(sched, t)
                want = reference_gains_at(sched, t)
                assert_same_bits(got, want)
                new_params, old_params = got, want
            elif action == "dt":
                dt = draw(st.sampled_from([1e-3, 2e-3]) | st.floats(1e-5, 0.5))
            else:
                new_params = old_params = {"a": a, "b": b, "twin": twin}[action]
            f = draw(forces)
            new = step_admittance(new, f, new_params, dt)
            old = reference_step_admittance(old, f, old_params, dt)
            assert_same_bits(new, old)

    def test_coefficient_rows_follow_gain_set_and_dt(self):
        params = (100.0, 5.0)
        new = old = Twist6.zero()
        f = Wrench6(Vec3(3.0, -2.0, 1.0), Vec3(0.5, 0.25, -0.125))
        # a new dt with the same gain set
        for dt in (1e-3, 1e-3, 0.02, 1e-3):
            new = step_admittance(new, f, params, dt)
            old = reference_step_admittance(old, f, params, dt)
            assert_same_bits(new, old)
        # a new gain set of new values every step, as in a ramp
        for k in range(50):
            params = (100.0 + 10.0 * k, 5.0 + k)
            new = step_admittance(new, f, params, 1e-3)
            old = reference_step_admittance(old, f, params, 1e-3)
            assert_same_bits(new, old)


class TestGainSchedule:
    def test_endpoints_and_midpoint(self):
        sched = GainSchedule((100, 5), (600, 20), ramp_start=2.0)
        assert gains_at(sched, 2.0)[0] == 100.0
        assert gains_at(sched, 3.0)[0] == 600.0
        assert gains_at(sched, 10.0)[0] == 600.0
        mid = gains_at(sched, 2.5)
        assert mid[0] == (100.0 + 600.0) / 2.0  # exact arithmetic mean
        assert mid[1] == (5.0 + 20.0) / 2.0

    def test_quarter_point_linear_oracle(self):
        sched = GainSchedule((600, 20), (1000, 20), ramp_start=0.0)
        assert gains_at(sched, 0.25)[0] == pytest.approx(700.0, abs=1e-12)

    def test_continuous_and_monotone(self):
        sched = GainSchedule((100, 5), (1000, 20), ramp_start=0.0)
        prev_b = gains_at(sched, -1.0)[0]
        t = 0.0
        while t <= 1.2:
            b = gains_at(sched, t)[0]
            assert b >= prev_b  # monotone up
            assert abs(b - prev_b) <= 900.0 * 0.002 + 1e-9  # no jumps
            prev_b = b
            t += 0.001

    def test_mass_held_constant(self):
        # over a ramp each channel's first step from rest is the continuous
        # response of its fixed mass at the ramped damping
        sched = GainSchedule((100, 5), (1000, 20), ramp_start=0.0)
        dt = 1e-3
        for t in (0.0, 0.3, 0.77, 1.0):
            p = gains_at(sched, t)
            out = step_admittance(Twist6.zero(), force_and_torque_x(10.0), p, dt)
            trans = analytic_step_response(10.0, 50.0, p[0], dt)
            rot = analytic_step_response(10.0, 10.0, p[1], dt)
            assert out[0][0] == pytest.approx(trans, rel=1e-12)
            assert out[1][0] == pytest.approx(rot, rel=1e-12)

    def test_equal_endpoints_hold_one_gain_set(self):
        # equal by value, distinct objects: AutoAlign -> ConstrainedDrill
        # (both phases take the one DRILL row, so the end is a copy of it)
        start = phase_params(GuidancePhase.AUTO_ALIGN, "with")
        end = tuple(list(phase_params(GuidancePhase.CONSTRAINED_DRILL, "with")))
        assert start == end and start is not end
        sched = GainSchedule(start, end, ramp_start=2.0)
        assert sched.settles_at == 2.0
        for t in (1.0, 2.0, 2.001, 2.5, 2.999, 3.0, 10.0):
            assert_same_bits(gains_at(sched, t), start)
            assert_same_bits(gains_at(sched, t), reference_gains_at(sched, t))
        # distinct values still interpolate
        other = phase_params(GuidancePhase.FREE_MOTION, "with")
        assert gains_at(GainSchedule(other, end, ramp_start=2.0), 2.5) not in (other, end)

    @pytest.mark.parametrize("condition", ["with", "without"])
    def test_settle_boundary(self, condition):
        # every ramp phase_params can produce: the end gains from settles_at
        # on, interpolated gains one float before it
        for p0, p1 in itertools.product(GuidancePhase, repeat=2):
            for ramp_start in (0.0, 2.0, 33.953):
                start, end = phase_params(p0, condition), phase_params(p1, condition)
                sched = GainSchedule(start, end, ramp_start=ramp_start)
                assert_same_bits(gains_at(sched, sched.settles_at), end)
                if start == end:
                    # equal values settle at once
                    assert sched.settles_at == ramp_start
                    assert_same_bits(gains_at(sched, ramp_start), start)
                    continue
                assert sched.settles_at == ramp_start + 1.0
                before = math.nextafter(sched.settles_at, -math.inf)
                got = gains_at(sched, before)
                # interpolated (its value may round to the end's)
                assert got is not start and got is not end
                assert_same_bits(got, reference_gains_at(sched, before))



class TestPhaseParams:
    def test_free_motion_with_guidance(self):
        trans, rot = phase_params(GuidancePhase.FREE_MOTION, "with")
        assert trans == 100.0
        assert rot == 5.0

    def test_approach_with_guidance(self):
        trans, rot = phase_params(GuidancePhase.APPROACH, "with")
        assert trans == 600.0
        assert rot == 20.0

    def test_drilling_single_dof(self):
        params = phase_params(GuidancePhase.CONSTRAINED_DRILL, "with")
        assert params[0] == 1000.0

    def test_without_guidance_near_target(self):
        params = phase_params(GuidancePhase.APPROACH, "without")
        assert params[0] == 1000.0

    def test_without_guidance_far(self):
        params = phase_params(GuidancePhase.FREE_MOTION, "without")
        assert params[0] == 100.0
