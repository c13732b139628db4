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

Each task phase sets one damping for the three translational channels and
one for the three rotational channels; the virtual masses are constants.
Damping transitions between task phases follow a linear ramp 1 s long.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import SimulationFault
from .guidance import GuidancePhase

# Virtual masses, constant across phases: only the damping adapts
MASS_TRANS = 50.0  # kg, for vx, vy and vz
MASS_ROT = 10.0    # kg m^2, for wx, wy and wz
_RAMP_LENGTH = 1.0  # s, the length of every damping ramp

# Damping values used in the drilling study, indexed by task phase: one
# plain (translational [N s/m], rotational [N m s]) pair per row, the first
# for vx, vy and vz, the second for wx, wy and wz
FREE_MOTION = (100.0, 5.0)
CLOSE = (600.0, 20.0)
DRILL = (1000.0, 20.0)
MANUAL_NEAR = (1000.0, 20.0)  # no-guidance rule: high damping near target


def phase_params(phase: GuidancePhase, condition: str) -> tuple:
    """Gain set for a task phase under a guidance condition: its row of the
    table above, a plain ``(translational, rotational)`` pair.

    ``condition`` is "with" (haptic guidance) or "without" (manual
    alignment). Without guidance damping jumps to its high value once the
    drill is near the target. Which DoFs move is the step's business: under
    guidance, ``World.step`` runs AutoAlign locked and ConstrainedDrill and
    Retract on the single axial channel.
    """
    if condition == "without":
        row = FREE_MOTION if phase is GuidancePhase.FREE_MOTION else MANUAL_NEAR
    elif phase is GuidancePhase.FREE_MOTION or phase is GuidancePhase.TARGET_DONE:
        row = FREE_MOTION
    elif phase is GuidancePhase.APPROACH:
        row = CLOSE
    else:
        # AutoAlign (admittance bypassed, gains pre-ramp toward drilling
        # values), ConstrainedDrill, and Retract all use the single-DoF
        # drilling row; its rotational entry is a placeholder, as no
        # rotational channel runs in these phases
        row = DRILL
    return row


@dataclass
class GainSchedule:
    """Linear componentwise ramp between two gain sets over ``_RAMP_LENGTH``.

    ``settles_at`` is the time from which ``gains_at`` returns
    ``end_params``. Endpoints equal by value settle at ``ramp_start``:
    ``g0 + s * (g1 - g0)`` is ``g0`` bit for bit when ``g1 == g0`` (gains
    are positive and finite), so the interpolation is skipped.
    Both endpoints are plain ``(translational, rotational)`` pairs:
    ``start_params`` is the gains at ``ramp_start``, ``end_params`` a row
    from ``phase_params``."""

    start_params: tuple
    end_params: tuple
    ramp_start: float
    settles_at: float = field(init=False)

    def __post_init__(self):
        if self.end_params == self.start_params:
            self.settles_at = self.ramp_start
        else:
            self.settles_at = self.ramp_start + _RAMP_LENGTH


def gains_at(schedule: GainSchedule, t: float) -> tuple:
    """Gains at time t, a plain ``(translational, rotational)`` pair:
    clamped linear interpolation between the endpoints, an endpoint itself
    outside the ramp."""
    if t >= schedule.settles_at:
        return schedule.end_params
    if t <= schedule.ramp_start:
        return schedule.start_params
    s = (t - schedule.ramp_start) / _RAMP_LENGTH
    (t0, r0), (t1, r1) = schedule.start_params, schedule.end_params
    return t0 + s * (t1 - t0), r0 + s * (r1 - r0)


def step_admittance(v: tuple, f_int: tuple, params: tuple, dt: float) -> tuple:
    """The six filters' reference twist one step after twist ``v`` under
    interaction wrench ``f_int`` and dampings ``params``, a plain
    ``(translational, rotational)`` pair, as a plain
    ``((vx, vy, vz), (wx, wy, wz))``. It checks nothing: its caller,
    ``World.step``, has checked that the six force components are finite,
    and ``Scenario`` that ``dt`` is positive.
    """
    (fx, fy, fz), (tx, ty, tz) = f_int
    bt, br = params
    ct = 1.0 - math.exp(-bt * dt / MASS_TRANS)
    cr = 1.0 - math.exp(-br * dt / MASS_ROT)
    (vx, vy, vz), (wx, wy, wz) = v
    # each channel is step_axial's update with its coefficient hoisted
    return (
        (vx + ct * (fx / bt - vx), vy + ct * (fy / bt - vy), vz + ct * (fz / bt - vz)),
        (wx + cr * (tx / br - wx), wy + cr * (ty / br - wy), wz + cr * (tz / br - wz)),
    )


def step_axial(v: float, f_axial: float, b: float, dt: float) -> float:
    """Translational channel update with damping ``b``, used while motion is
    constrained to the drilling axis; same discretization as the 6-DoF
    filters."""
    if not math.isfinite(f_axial):
        raise SimulationFault("non-finite axial force fed to admittance filter")
    return v + (1.0 - math.exp(-b * dt / MASS_TRANS)) * (f_axial / b - v)


def analytic_step_response(f: float, m: float, b: float, t: float) -> float:
    """Continuous-time response of v' = (f - b v)/m from rest: the oracle
    the discrete filter is validated against."""
    return (f / b) * (1.0 - math.exp(-b * t / m))
