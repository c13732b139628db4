"""Six decoupled force-to-velocity admittance filters with ramped gain scheduling.

Each degree of freedom maps interaction force to reference velocity through
a virtual mass-damper, v_ref = F / (m s + b). The discrete update is the
step-invariant (zero-order-hold) discretization

    v+ = v + (1 - exp(-b dt / m)) (F / b - v)

which reproduces the continuous first-order response exactly at the sample
instants for force held constant over a step. It shares implicit Euler's
unconditional stability (the error |v - F/b| shrinks by a factor in (0, 1)
every step for any dt > 0) but carries no discretization error, which the
stiff damping settings used while drilling would otherwise accumulate.

Damping transitions between task phases follow a linear ramp (1 s long by
default); virtual mass is constant across phases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

from .errors import SimulationFault
from .geometry import Twist6, Vec3, Wrench6

_new = tuple.__new__  # builds a NamedTuple without its Python-level __new__

# Damping values used in the drilling study, indexed by task phase.
FREE_MOTION_TRANS = (50.0, 100.0)   # mass [kg], damping [N s/m]
FREE_MOTION_ROT = (10.0, 5.0)       # mass [kg m^2], damping [N m s]
CLOSE_TRANS = (50.0, 600.0)
CLOSE_ROT = (10.0, 20.0)
DRILL_TRANS = (50.0, 1000.0)
MANUAL_NEAR_TRANS = (50.0, 1000.0)  # no-guidance rule: high damping near target
MANUAL_NEAR_ROT = (10.0, 20.0)


class DofGains(NamedTuple):
    m: float  # virtual mass, kg (translational) or kg m^2 (rotational)
    b: float  # virtual damping, N s/m or N m s

    def validate(self) -> "DofGains":
        if not (self.m > 0.0 and self.b > 0.0):
            raise ValueError(f"admittance gains must be positive, got {self}")
        return self


class AdmittanceParams(NamedTuple):
    """Per-DoF gains in the order vx, vy, vz, wx, wy, wz."""

    gains: tuple  # 6 x DofGains

    @staticmethod
    def uniform(trans: DofGains, rot: DofGains) -> "AdmittanceParams":
        trans.validate()
        rot.validate()
        return AdmittanceParams((trans, trans, trans, rot, rot, rot))

    @property
    def translational(self) -> DofGains:
        return self.gains[0]

    @property
    def rotational(self) -> DofGains:
        return self.gains[3]


FULL_MASK = (True,) * 6
AXIAL_MASK = (True, False, False, False, False, False)


class PhaseParams(NamedTuple):
    """Gains plus the per-DoF enable mask realizing the loop's switches.

    During constrained drilling only one translational channel (along the
    drilling axis) is active; the mask entries for the other five DoFs are
    False and their filters output exactly zero.
    """

    params: AdmittanceParams
    enabled: tuple  # 6 x bool


def phase_params(phase, condition: str) -> PhaseParams:
    """Gain set and DoF mask for a task phase under a guidance condition.

    ``condition`` is "with" (haptic guidance) or "without" (manual
    alignment). Without guidance all six DoFs stay enabled throughout and
    damping jumps to its high value once the drill is near the target.
    """
    from .guidance import GuidancePhase  # local import to avoid a cycle

    if condition == "without":
        if phase is GuidancePhase.FREE_MOTION:
            return PhaseParams(
                AdmittanceParams.uniform(DofGains(*FREE_MOTION_TRANS), DofGains(*FREE_MOTION_ROT)),
                FULL_MASK,
            )
        return PhaseParams(
            AdmittanceParams.uniform(DofGains(*MANUAL_NEAR_TRANS), DofGains(*MANUAL_NEAR_ROT)),
            FULL_MASK,
        )

    if phase is GuidancePhase.FREE_MOTION or phase is GuidancePhase.TARGET_DONE:
        return PhaseParams(
            AdmittanceParams.uniform(DofGains(*FREE_MOTION_TRANS), DofGains(*FREE_MOTION_ROT)),
            FULL_MASK,
        )
    if phase is GuidancePhase.APPROACH:
        return PhaseParams(
            AdmittanceParams.uniform(DofGains(*CLOSE_TRANS), DofGains(*CLOSE_ROT)),
            FULL_MASK,
        )
    # AutoAlign (admittance bypassed, gains pre-ramp toward drilling values),
    # ConstrainedDrill, and Retract all use the single-DoF drilling row.
    # Rotational entries are placeholders for disabled channels ("--").
    return PhaseParams(
        AdmittanceParams.uniform(DofGains(*DRILL_TRANS), DofGains(*CLOSE_ROT)),
        AXIAL_MASK,
    )


@dataclass
class GainSchedule:
    """Linear componentwise ramp between two gain sets over a fixed duration."""

    start_params: AdmittanceParams
    end_params: AdmittanceParams
    ramp_start: float
    ramp_duration: float = 1.0

    def __post_init__(self):
        if not self.ramp_duration > 0.0:
            raise ValueError("ramp_duration must be positive")


def gains_at(schedule: GainSchedule, t: float) -> AdmittanceParams:
    """Gains at time t: clamped linear interpolation between the endpoints."""
    if t <= schedule.ramp_start:
        return schedule.start_params
    if t >= schedule.ramp_start + schedule.ramp_duration:
        return schedule.end_params
    s = (t - schedule.ramp_start) / schedule.ramp_duration
    # channels share DofGains objects (uniform() repeats them), so each
    # distinct pair of endpoints is interpolated once
    out = []
    g0 = g1 = g = None
    for h0, h1 in zip(schedule.start_params.gains, schedule.end_params.gains):
        if h0 is not g0 or h1 is not g1:
            g0, g1 = h0, h1
            g = _new(DofGains, (g0.m + s * (g1.m - g0.m), g0.b + s * (g1.b - g0.b)))
        out.append(g)
    return _new(AdmittanceParams, (tuple(out),))


@dataclass
class AdmittanceState:
    """Filter memory for the six decoupled channels.

    ``v`` holds the last reference twist; disabled DoFs are pinned to zero.
    Single-owner mutable state: advanced by exactly one stepper.
    """

    params: AdmittanceParams
    v: Twist6 = field(default_factory=Twist6.zero)
    enabled: tuple = FULL_MASK
    # the rows (1 - exp(-b dt / m), b) per channel, and the gain-set object
    # and dt they were computed for: gains change only during ramps, where
    # gains_at builds a new gain set every step
    _rows_key: tuple = field(default=(None, None), init=False, repr=False, compare=False)
    _rows: tuple = field(default=(), init=False, repr=False, compare=False)

    def set_enabled(self, mask: Sequence[bool]) -> None:
        """Update the DoF mask, zeroing the memory of any re-enabled or
        newly disabled channel so no stale velocity leaks across a switch."""
        mask = tuple(mask)
        if mask != self.enabled:
            self.enabled = mask
            self.v = Twist6.zero()

    def reset(self) -> None:
        self.v = Twist6.zero()


def _step_channel(v: float, f: float, m: float, b: float, dt: float) -> float:
    return v + (1.0 - math.exp(-b * dt / m)) * (f / b - v)


def _channel_rows(gains: tuple, dt: float) -> tuple:
    """(coefficients, dampings): ``1 - exp(-b dt / m)`` and ``b`` per channel,
    the exponential taken once per distinct DofGains object."""
    coef = []
    g = c = None
    for h in gains:
        if h is not g:
            g = h
            c = 1.0 - math.exp(-g.b * dt / g.m)
        coef.append(c)
    return tuple(coef), tuple([h.b for h in gains])


def step_admittance(state: AdmittanceState, f_int: Wrench6, dt: float) -> Twist6:
    """Advance the six filters one step and return the new reference twist.

    Disabled DoFs output exactly 0.0 regardless of input. Non-finite force
    input is rejected (a real deployment would flag the force sensor).
    """
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    fx, fy, fz = f_int.force
    tx, ty, tz = f_int.torque
    isfinite = math.isfinite
    if not (
        isfinite(fx) and isfinite(fy) and isfinite(fz)
        and isfinite(tx) and isfinite(ty) and isfinite(tz)
    ):
        raise SimulationFault("non-finite interaction force fed to admittance filter")
    params = state.params
    key_params, key_dt = state._rows_key
    if key_params is not params or key_dt != dt:
        state._rows_key = (params, dt)
        state._rows = _channel_rows(params.gains, dt)
    c0, c1, c2, c3, c4, c5 = state._rows[0]
    b0, b1, b2, b3, b4, b5 = state._rows[1]
    e0, e1, e2, e3, e4, e5 = state.enabled
    (vx, vy, vz), (wx, wy, wz) = state.v
    # each enabled channel is _step_channel with its coefficient precomputed
    out = _new(Twist6, (
        _new(Vec3, (
            vx + c0 * (fx / b0 - vx) if e0 else 0.0,
            vy + c1 * (fy / b1 - vy) if e1 else 0.0,
            vz + c2 * (fz / b2 - vz) if e2 else 0.0,
        )),
        _new(Vec3, (
            wx + c3 * (tx / b3 - wx) if e3 else 0.0,
            wy + c4 * (ty / b4 - wy) if e4 else 0.0,
            wz + c5 * (tz / b5 - wz) if e5 else 0.0,
        )),
    ))
    state.v = out
    return out


def step_axial(v: float, f_axial: float, gains: DofGains, dt: float) -> float:
    """Single-channel update used while motion is constrained to the
    drilling axis; same discretization as the 6-DoF filters."""
    if not math.isfinite(f_axial):
        raise SimulationFault("non-finite axial force fed to admittance filter")
    return _step_channel(v, f_axial, gains.m, gains.b, dt)


def analytic_step_response(f: float, m: float, b: float, t: float) -> float:
    """Continuous-time response of v' = (f - b v)/m from rest: the oracle
    the discrete filter is validated against."""
    return (f / b) * (1.0 - math.exp(-b * t / m))
