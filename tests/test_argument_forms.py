"""Every function the control period calls reads its pose, twist, wrench
and point arguments by position, so a NamedTuple argument and a plain
nested tuple give the same bits, through the same path: each float is
compared as its ``struct.pack('<d')`` bytes, so that -0.0 counts.

Each stateful callee (the operator's mode machine, a mesh's clearance
ball) is run as a twin pair, one twin per argument form, both fed the same
call sequence."""

import math
import struct

from hypothesis import example, given, settings
from hypothesis import strategies as st

from gds.admittance import step_admittance
from gds.geometry import Pose, Twist6, Vec3, Wrench6, _canonical
from gds.guidance import GuidancePhase, plan_alignment
from gds.operator_env import (
    _MODE_AIM,
    _MODE_DWELL,
    _MODE_PULL,
    _MODE_PUSH,
    EnvironmentModel,
    Hole,
    OperatorModel,
    VirtualOperator,
    environment_wrench,
)
from gds.workpiece import CylinderPatch, SpherePatch, make_drill_target, tessellated_sphere
from test_operator_env import _state

ENV = EnvironmentModel()
# three surfaces through one point 30 degrees off the pole of a sphere
# (0.5 m radius, centred 0.5 m below the origin): the sphere, a cylinder
# along y through it, and an 80-triangle icosphere of it
SURFACES = {
    "sphere": lambda: SpherePatch(Vec3(0.0, 0.0, -0.5), 0.5),
    "cylinder": lambda: CylinderPatch(Vec3(0.0, 0.0, -0.5), Vec3(0.0, 1.0, 0.0), 0.5, 0.5),
    "mesh": lambda: tessellated_sphere(Vec3(0.0, 0.0, -0.5), 0.5, 1),
}
_POINT = Vec3(0.5 * math.sin(math.radians(30.0)), 0.0, 0.5 * math.cos(math.radians(30.0)) - 0.5)
# the phases the operator is asked in, and the manual mode machine's modes
PHASES = (
    GuidancePhase.FREE_MOTION, GuidancePhase.APPROACH,
    GuidancePhase.CONSTRAINED_DRILL, GuidancePhase.RETRACT,
)
MODES = (_MODE_AIM, _MODE_DWELL, _MODE_PUSH, _MODE_PULL)


def _bits(value) -> list:
    """Every leaf of a nested result: a float as its '<d' bytes, anything
    else as itself."""
    if isinstance(value, tuple):
        return [leaf for part in value for leaf in _bits(part)]
    if isinstance(value, float):
        return [struct.pack("<d", value)]
    return [value]


def _plain(value):
    """A nested NamedTuple as the plain nested tuple of its values."""
    if isinstance(value, tuple):
        return tuple(_plain(part) for part in value)
    return value


def _target(surface, phi, theta):
    """A target at the surface point nearest ``_POINT``."""
    point, _ = surface.closest_point(_POINT)
    return make_drill_target(surface, point, phi, theta)


def _operator(guided, seed, target, mode, dwell_t0):
    """An operator on ``target`` whose manual mode machine stands in ``mode``."""
    op = VirtualOperator(OperatorModel(seed=seed), guided=guided)
    op.begin_target(target, 0.0)
    if not guided:
        op._mode = mode
        op._dwell_t0 = dwell_t0
        if mode in (_MODE_PUSH, _MODE_PULL):
            op._push_axis = op._final_axis(target)
    return op


floats = st.floats(-1.0, 1.0)
vectors = st.tuples(floats, floats, floats).map(lambda v: Vec3(*v))
quaternions = st.tuples(floats, floats, floats, floats).filter(
    lambda q: sum(c * c for c in q) > 1e-4
).map(lambda q: _canonical(*q))
# a manual tip 1 cm off the hole's axis and inside the material, moving in:
# the environment's contact branch, which asks for the closest point
INSIDE = dict(
    phi=0.0, theta=0.0, offset=Vec3(1.0, 0.0, -1.0), reach=0.01,
    orientation=_canonical(0.0, 1.0, 0.0, 0.0), linear=Vec3(0.0, 0.0, -1.0),
    angular=Vec3(0.0, 0.0, 0.0), speed=0.01, force=Vec3(1.0, 0.0, 0.0), torque=Vec3(0.0, 0.0, 0.0),
    depth=0.0, guided=False, seed=0, phase=GuidancePhase.APPROACH, mode=_MODE_AIM,
    dwell_t0=0.0, t=1.0, dampings=(100.0, 5.0), dt=1e-3,
)


@given(
    surface=st.sampled_from(sorted(SURFACES)),
    phi=st.floats(0.0, 60.0),
    theta=st.floats(0.0, 360.0),
    # the tip's offset from the target point, on and off its hole, inside
    # the material and out of it
    offset=vectors,
    reach=st.sampled_from([0.003, 0.01, 0.03, 0.3]),
    orientation=quaternions,
    linear=vectors,
    angular=vectors,
    speed=st.sampled_from([0.0, 0.01, 1.0]),
    force=vectors,
    torque=vectors,
    depth=st.just(0.0) | st.floats(0.0, 0.012),
    guided=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    phase=st.sampled_from(PHASES),
    mode=st.sampled_from(MODES),
    dwell_t0=st.floats(0.0, 20.0),
    t=st.floats(0.0, 20.0),
    dampings=st.tuples(st.floats(0.5, 5000.0), st.floats(0.5, 5000.0)),
    dt=st.sampled_from([1e-3, 2e-3]) | st.floats(1e-5, 0.05),
)
@example(surface="sphere", **INSIDE)
@example(surface="cylinder", **INSIDE)
@example(surface="mesh", **INSIDE)
@settings(max_examples=200, deadline=None)
def test_named_and_plain_arguments_give_the_same_bits(
    surface, phi, theta, offset, reach, orientation, linear, angular, speed, force, torque,
    depth, guided, seed, phase, mode, dwell_t0, t, dampings, dt,
):
    named_surface, plain_surface = SURFACES[surface](), SURFACES[surface]()
    target = _target(named_surface, phi, theta)
    pose = Pose(target.point + offset.scale(reach), orientation)
    twist = Twist6(linear.scale(speed), angular.scale(speed))
    wrench = Wrench6(force.scale(40.0), torque.scale(5.0))

    # the hand's wrench, and the mode machine's state after it
    ops = [_operator(guided, seed, target, mode, dwell_t0) for _ in range(2)]
    named = ops[0].wrench(pose, twist, phase, target, t)
    plain = ops[1].wrench(_plain(pose), _plain(twist), phase, target, t)
    assert _bits(named) == _bits(plain)
    assert _state(ops[0]) == _state(ops[1])

    # the workpiece's reaction at the tip, in the target's hole
    hole = Hole(target.point, target.axis, ENV.hole_radius)
    hole.depth = depth
    ax_pos, on_target, _ = hole.coordinates(*pose.position)
    named = environment_wrench(pose, twist, named_surface, hole, ENV, ax_pos, on_target)
    plain = environment_wrench(
        _plain(pose), _plain(twist), plain_surface, hole, ENV, ax_pos, on_target
    )
    assert _bits(named) == _bits(plain)

    # the six admittance channels
    named = step_admittance(twist, wrench, dampings, dt)
    plain = step_admittance(_plain(twist), _plain(wrench), dampings, dt)
    assert _bits(named) == _bits(plain)

    # the surface's queries at the tip
    p = pose.position
    for query in ("certified_clear", "signed_distance", "closest_point"):
        named = getattr(named_surface, query)(p)
        plain = getattr(plain_surface, query)(_plain(p))
        assert _bits(named) == _bits(plain), query
    assert getattr(named_surface, "_ball", None) == getattr(plain_surface, "_ball", None)

    # the locked alignment planned from the pose
    plans = [
        plan_alignment(
            start, target.point, target.axis, Vec3(0.0, 0.0, 1.0), standoff=0.05, duration=4.0
        )
        for start in (pose, _plain(pose))
    ]
    assert repr(plans[0]) == repr(plans[1])
