"""Fixed-timestep closed-loop executor: operator wrench -> interaction force
-> admittance -> plant -> pose, with the guidance state machine steering
switches, gain ramps, and the locked alignment.

Step order (one control period):

1. operator wrench at the current state
2. environment wrench at the current state
3. interaction force F_int = F_h + F_env (exact bookkeeping identity)
4. reference twist, plant and pose, in one body per phase kind (these
   bodies are the only switch of which DoFs move):
   - locked AutoAlign: no admittance; the pose and twist follow the
     locked trajectory, and a nonzero operator wrench is a fault;
   - ConstrainedDrill/Retract under guidance: the single axial admittance
     channel and its plant lag along the drilling axis; the angular twist
     is exactly zero, so the orientation carries over;
   - six-channel (FreeMotion, Approach, and the whole manual condition):
     the six decoupled channels, then the plant, a first-order lag of the
     actual twist toward the reference (exact one-step discretization; an
     ideal follower when the lag is 0), then the pose integration
     (semi-implicit; orientation via the quaternion exponential of
     omega*dt)
5. hole update, events, state machine update, trace sample

The step runs over plain floats and packs the trace record straight from
them; it builds a ``Pose``, ``Twist6`` or ``Wrench6`` only for a callee
that takes one and for ``World.pose`` and ``World.twist``.

Time is accumulated as step_index * dt (integer multiplication), never by
summation, so sample stamps carry no floating drift. Runs are deterministic:
identical scenarios (including seeds) produce identical traces, hashes and
output bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from array import array
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from . import _csvtext
from .admittance import (
    AdmittanceState,
    GainSchedule,
    gains_at,
    phase_params,
    step_admittance,
    step_axial,
)
from .errors import GeometryError, SimulationFault
from .geometry import _ZERO3, _ZERO_WRENCH, Pose, Twist6, UnitQuat, Vec3, Wrench6, _canonical
from .guidance import (
    _AUTO_ALIGN,
    _CONSTRAINED_DRILL,
    _FREE_MOTION,
    _RETRACT,
    _TARGET_DONE,
    GuidancePhase,
    GuidanceThresholds,
    alignment_twist,
    check_transition,
    plan_alignment,
    sample_alignment,
    update_phase,
)
from .operator_env import (
    CUT_FACE_TOLERANCE,
    EnvironmentModel,
    OperatorModel,
    VirtualOperator,
    environment_wrench,
    update_hole,
)
from .workpiece import DrillTarget, Surface

_new = tuple.__new__  # builds a NamedTuple without its Python-level __new__

# a run ends as a runaway once the tip is this much farther (m) from the
# active target than when the target became active (the iiwa 7 reaches 0.8 m)
_RUNAWAY_DISTANCE = 1.0


def _turned(q: UnitQuat, rx: float, ry: float, rz: float) -> UnitQuat:
    """``UnitQuat.from_rotvec((rx, ry, rz)).multiply(q)`` over floats: the
    orientation after one step of a nonzero angular twist, ``r = w dt``."""
    angle = math.sqrt(rx * rx + ry * ry + rz * rz)
    if angle < 1e-12:
        w1, x1, y1, z1 = _canonical(1.0, 0.5 * rx, 0.5 * ry, 0.5 * rz)
    else:
        s = math.sin(0.5 * angle) / angle
        w1, x1, y1, z1 = _canonical(math.cos(0.5 * angle), s * rx, s * ry, s * rz)
    w2, x2, y2, z2 = q
    return _canonical(
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    )


@dataclass(frozen=True)
class PlantModel:
    """First-order model of the robot and its internal controller: the
    actual twist lags the reference with time constant ``lag_time_constant``
    (0 = ideal follower)."""

    lag_time_constant: float = 0.05

    def __post_init__(self):
        if self.lag_time_constant < 0.0:
            raise ValueError("lag_time_constant must be >= 0")


@dataclass
class Scenario:
    surface: Surface
    targets: Tuple[DrillTarget, ...]
    condition: str  # "with" | "without"
    operator: OperatorModel
    environment: EnvironmentModel
    plant: PlantModel = field(default_factory=PlantModel)
    thresholds: GuidanceThresholds = field(default_factory=GuidanceThresholds)
    dt: float = 1e-3
    start_pose: Pose = Pose(Vec3(0.0, 0.0, 0.3), UnitQuat.identity())
    max_sim_time: float = 600.0
    tool_axis_local: Vec3 = Vec3(0.0, 0.0, 1.0)
    config: dict = field(default_factory=dict)  # canonical form, for the digest

    def __post_init__(self):
        if self.condition not in ("with", "without"):
            raise ValueError(f"condition must be 'with' or 'without', got {self.condition!r}")
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if not self.targets:
            raise ValueError("scenario needs at least one target")

    def config_digest(self) -> str:
        payload = json.dumps(self.config, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()


class TraceSample(NamedTuple):
    t: float
    pose: Pose
    twist: Twist6
    v_ref: Twist6
    f_h: Wrench6
    f_env: Wrench6
    f_int: Wrench6
    phase: GuidancePhase
    active_b: Tuple[float, ...]
    target_index: int
    hole_depth: float


_PHASE_ORDER = tuple(GuidancePhase)
_PHASE_CODE = {p: i for i, p in enumerate(_PHASE_ORDER)}

# flat float columns per sample, in CSV order
_FLOAT_FIELDS = (
    ["t"]
    + ["px", "py", "pz", "qw", "qx", "qy", "qz"]
    + ["vx", "vy", "vz", "wx", "wy", "wz"]
    + ["vref_x", "vref_y", "vref_z", "wref_x", "wref_y", "wref_z"]
    + ["fh_x", "fh_y", "fh_z", "fh_tx", "fh_ty", "fh_tz"]
    + ["fenv_x", "fenv_y", "fenv_z", "fenv_tx", "fenv_ty", "fenv_tz"]
    + ["fint_x", "fint_y", "fint_z", "fint_tx", "fint_ty", "fint_tz"]
)
_B_FIELDS = ["b_vx", "b_vy", "b_vz", "b_wx", "b_wy", "b_wz"]
CSV_HEADER = (
    _FLOAT_FIELDS[:1]
    + _FLOAT_FIELDS[1:]
    + ["phase"]
    + _B_FIELDS
    + ["target_index", "hole_depth"]
)
# every float column, in checksum order
_COLUMNS = tuple(_FLOAT_FIELDS + _B_FIELDS + ["hole_depth"])

# rows encoded per CSV block; bounds the encoder's temporaries at about 3 MB
_CSV_BLOCK = 512
_CSV_HEAD = (",".join(CSV_HEADER) + "\n").encode()
# the CSV cells of the _COLUMNS floats, of the phase name and of the index
_FLOAT_CELLS = [i for i, name in enumerate(CSV_HEADER) if name in _COLUMNS]
_PHASE_CELL = CSV_HEADER.index("phase")
_TARGET_CELL = CSV_HEADER.index("target_index")
_PHASE_TEXT = _csvtext.pack_texts([p.value.encode() for p in _PHASE_ORDER])

# one record per sample: 45 <f8 then 2 <i4, 368 bytes, no padding; World
# packs each step into one, and the checksum hashes them
_RECORD_DTYPE = np.dtype(
    [(name, "<f8") for name in _COLUMNS] + [("phase", "<i4"), ("target_index", "<i4")]
)
_pack_record = struct.Struct(
    "<" + "".join(dtype.char for dtype, _ in _RECORD_DTYPE.fields.values())
).pack
# rows staged per hash update; bounds the staging buffer at 1.5 MB
_CHECKSUM_CHUNK = 4096
# packed rows held before they move into the columns; 1.5 MB at most
_PENDING_BYTES = 4096 * _RECORD_DTYPE.itemsize


class _Columns(dict):
    """The float columns by name, plus the samples packed but not yet moved
    into them. ``World`` appends one record per step to ``pending``; reading
    a column through the dict moves every pending record in first, so no
    reader sees a sample missing."""

    __slots__ = ("pending", "_ints")

    def __init__(self, phase_codes: array, target_idx: array):
        super().__init__((name, array("d")) for name in _COLUMNS)
        self.pending = bytearray()
        self._ints = (("phase", phase_codes), ("target_index", target_idx))

    def __getitem__(self, name: str) -> array:
        if self.pending:
            self.flush()
        return dict.__getitem__(self, name)

    def flush(self) -> None:
        """Move the pending records into the columns, bit for bit."""
        if not self.pending:
            return
        rows = np.frombuffer(self.pending, _RECORD_DTYPE)
        for name, col in (*dict.items(self), *self._ints):
            col.frombytes(rows[name].astype(col.typecode).tobytes())
        del rows  # release the view so the buffer can shrink
        self.pending.clear()


class Trace:
    """Struct-of-arrays sample log plus the event stream.

    ``data`` holds one ``array('d')`` per float column; phase and target
    index are integer columns. Samples are exposed as TraceSample views.
    ``World`` writes each sample as one packed record and the columns take
    the records in blocks, before any of them is read.
    """

    def __init__(self, dt: float, condition: str, config_digest: str):
        self.dt = dt
        self.condition = condition
        self.config_digest = config_digest
        self.events: List[Tuple[float, str]] = []
        self.complete = False
        self._phase_codes = array("i")
        self._target_idx = array("i")
        self.data = _Columns(self._phase_codes, self._target_idx)

    @property
    def phase_codes(self) -> array:
        self.data.flush()
        return self._phase_codes

    @property
    def target_idx(self) -> array:
        self.data.flush()
        return self._target_idx

    def __len__(self) -> int:
        return len(self.phase_codes)

    def sample(self, i: int) -> TraceSample:
        d = self.data
        return TraceSample(
            t=d["t"][i],
            pose=Pose(
                Vec3(d["px"][i], d["py"][i], d["pz"][i]),
                UnitQuat(d["qw"][i], d["qx"][i], d["qy"][i], d["qz"][i]),
            ),
            twist=Twist6(
                Vec3(d["vx"][i], d["vy"][i], d["vz"][i]),
                Vec3(d["wx"][i], d["wy"][i], d["wz"][i]),
            ),
            v_ref=Twist6(
                Vec3(d["vref_x"][i], d["vref_y"][i], d["vref_z"][i]),
                Vec3(d["wref_x"][i], d["wref_y"][i], d["wref_z"][i]),
            ),
            f_h=Wrench6(
                Vec3(d["fh_x"][i], d["fh_y"][i], d["fh_z"][i]),
                Vec3(d["fh_tx"][i], d["fh_ty"][i], d["fh_tz"][i]),
            ),
            f_env=Wrench6(
                Vec3(d["fenv_x"][i], d["fenv_y"][i], d["fenv_z"][i]),
                Vec3(d["fenv_tx"][i], d["fenv_ty"][i], d["fenv_tz"][i]),
            ),
            f_int=Wrench6(
                Vec3(d["fint_x"][i], d["fint_y"][i], d["fint_z"][i]),
                Vec3(d["fint_tx"][i], d["fint_ty"][i], d["fint_tz"][i]),
            ),
            phase=_PHASE_ORDER[self.phase_codes[i]],
            active_b=tuple(d[name][i] for name in _B_FIELDS),
            target_index=self.target_idx[i],
            hole_depth=d["hole_depth"][i],
        )

    def checksum(self) -> str:
        """SHA-256 over one 368-byte little-endian record per sample, in
        sample order: the 45 float columns as ``<f8`` (the 38 state columns
        in CSV order, the six damping gains ``b_*``, then ``hole_depth``),
        then the phase code and the target index as ``<i4``. An empty trace
        hashes no bytes."""
        h = hashlib.sha256()
        n = len(self)
        cols = [(name, np.frombuffer(self.data[name], dtype=np.float64)) for name in _COLUMNS]
        cols.append(("phase", np.frombuffer(self.phase_codes, dtype=np.intc)))
        cols.append(("target_index", np.frombuffer(self.target_idx, dtype=np.intc)))
        buf = np.empty(min(n, _CHECKSUM_CHUNK), dtype=_RECORD_DTYPE)
        for start in range(0, n, _CHECKSUM_CHUNK):
            stop = min(start + _CHECKSUM_CHUNK, n)
            rows = buf[: stop - start]
            for name, col in cols:
                rows[name] = col[start:stop]
            h.update(rows)
        return h.hexdigest()

    def phase_of(self, i: int) -> GuidancePhase:
        return _PHASE_ORDER[self.phase_codes[i]]

    def events_of_kind(self, prefix: str) -> List[Tuple[float, str]]:
        return [(t, kind) for t, kind in self.events if kind.startswith(prefix)]

    def to_csv(self, path: str) -> None:
        """One row per sample, SI units: every float as ``'%.9g' % v``, the
        phase name, the target index as ``'%d'``. Rows are encoded
        ``_CSV_BLOCK`` at a time into the text slots of ``_csvtext``."""
        cols = [np.frombuffer(self.data[name]) for name in _COLUMNS]
        phases = np.frombuffer(self.phase_codes, np.intc)
        targets, target_code = np.unique(
            np.frombuffer(self.target_idx, np.intc), return_inverse=True
        )
        target_text = _csvtext.pack_texts([b"%d" % i for i in targets.tolist()])
        n = len(phases)
        x = np.empty((min(n, _CSV_BLOCK), len(cols)))
        work = _csvtext.G9Work(x.shape)
        slots = _csvtext.row_slots(len(x), len(CSV_HEADER))
        with open(path, "wb") as fh:
            fh.write(_CSV_HEAD)
            for start in range(0, n, _CSV_BLOCK):
                k = min(_CSV_BLOCK, n - start)
                rows = slice(start, start + k)
                for j, col in enumerate(cols):
                    x[:k, j] = col[rows]
                for cells, text in (
                    (_FLOAT_CELLS, _csvtext.format_g9(x[:k], work if k == len(x) else None)),
                    (_PHASE_CELL, [t[phases[rows]] for t in _PHASE_TEXT]),
                    (_TARGET_CELL, [t[target_code[rows]] for t in target_text]),
                ):
                    slots[:k, cells, 0], slots[:k, cells, 1] = text
                fh.write(_csvtext.join_rows(slots[:k]))

    def summary(self) -> dict:
        return {
            "config_digest": self.config_digest,
            "condition": self.condition,
            "dt": self.dt,
            "n_samples": len(self),
            "complete": self.complete,
            "checksum": self.checksum(),
            "events": [{"t": t, "kind": kind} for t, kind in self.events],
        }


class World:
    """Owns all mutable run state; advanced by exactly one caller."""

    def __init__(self, scenario: Scenario, operator: Optional[VirtualOperator] = None):
        self.sc = scenario
        self.dt = scenario.dt
        self.guided = scenario.condition == "with"
        self.operator = operator or VirtualOperator(
            scenario.operator, scenario.tool_axis_local
        )
        self.pose = scenario.start_pose
        self.twist = Twist6.zero()
        self.phase = _FREE_MOTION
        self.target_idx = 0
        self.hole_depth = 0.0
        self.k = 0
        self.done = False
        self.align_plan = None
        self.align_start_step = 0
        self.align_steps = max(1, round(scenario.thresholds.align_duration / self.dt))
        self.s_ref = 0.0  # axial admittance memory while constrained
        self.s_act = 0.0  # axial plant state while constrained
        tau = scenario.plant.lag_time_constant
        self.plant_alpha = 1.0 if tau == 0.0 else 1.0 - math.exp(-self.dt / tau)
        params = phase_params(self.phase, scenario.condition)
        self.adm = AdmittanceState(params)
        self.schedule = GainSchedule(params, params, ramp_start=0.0)
        self.trace = Trace(
            dt=self.dt,
            condition=scenario.condition,
            config_digest=scenario.config_digest(),
        )
        self._in_collision = False
        self._b_params = None  # the gains behind the cached damping row _b6
        self._b6 = ()
        self._phase_code = _PHASE_CODE[self.phase]
        self._pending = self.trace.data.pending
        self._runaway_at = self._runaway_bound()
        self.operator.notify_grab(0.0)
        self.operator.begin_target(0, scenario.targets[0], 0.0)

    # -- helpers -------------------------------------------------------------

    def _runaway_bound(self) -> float:
        """Tip-to-target distance past which the run ends: the current
        distance to the active target plus ``_RUNAWAY_DISTANCE``."""
        p, tp = self.pose.position, self.sc.targets[self.target_idx].point
        return math.dist(p, tp) + _RUNAWAY_DISTANCE

    def _start_ramp(self, t: float, new_phase: GuidancePhase) -> None:
        current = gains_at(self.schedule, t)
        end = phase_params(new_phase, self.sc.condition)
        self.schedule = GainSchedule(current, end, ramp_start=t)
        self.adm.params = current

    # -- the control period ----------------------------------------------------

    def step(self) -> None:
        """One control period over plain floats: a shared head (operator and
        environment wrenches, F_int, the finiteness check, the gains), one
        body per phase kind, then a shared tail (hole, events, state machine,
        trace record). Each float operation is the one, in the order, of the
        NamedTuple method chain it replaces, so the trace keeps its bits."""
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

        f_h = self.operator.wrench(pose0, twist0, phase, target, t)
        if phase is _AUTO_ALIGN and f_h != _ZERO_WRENCH:
            raise SimulationFault(
                f"operator wrench must be zero during locked alignment (step {k})"
            )
        f_env, collision, _ = environment_wrench(
            pose0, twist0, sc.surface, target, self.hole_depth, sc.environment
        )
        (hx, hy, hz), (htx, hty, htz) = f_h
        (ex, ey, ez), (etx, ety, etz) = f_env
        ix, iy, iz = hx + ex, hy + ey, hz + ez
        itx, ity, itz = htx + etx, hty + ety, htz + etz
        (px, py, pz), ori0 = pose0
        isfinite = math.isfinite
        if not (
            isfinite(ix) and isfinite(iy) and isfinite(iz)
            and isfinite(itx) and isfinite(ity) and isfinite(itz)
            and isfinite(px) and isfinite(py) and isfinite(pz)
        ):
            raise SimulationFault(f"non-finite state at sample {k}")

        params_now = gains_at(self.schedule, t)
        ux, uy, uz = target.axis

        # (vx..wz) is the twist the step used, (rvx..rwz) the reference twist
        if phase is _AUTO_ALIGN:
            # locked: the pose follows the planned trajectory, no admittance
            plan = self.align_plan
            local_end = (k - self.align_start_step + 1) * dt
            new_pose = sample_alignment(plan, local_end)
            new_twist = alignment_twist(plan, local_end)
            # the twist at the start of the step: the previous locked step's
            # new_twist, alignment_twist(plan, (k - align_start_step) * dt),
            # or the zero twist _transition sets on the first locked step
            (vx, vy, vz), (wx, wy, wz) = twist0
            rvx = rvy = rvz = rwx = rwy = rwz = 0.0
            nx, ny, nz = new_pose.position
        elif self.guided and (phase is _CONSTRAINED_DRILL or phase is _RETRACT):
            # 1-DoF along the drilling axis; the angular twist is exactly
            # zero, so the orientation carries over
            s_ref = self.s_ref = step_axial(
                self.s_ref, ix * ux + iy * uy + iz * uz, params_now.translational, dt
            )
            s = self.s_act = self.s_act + self.plant_alpha * (s_ref - self.s_act)
            # constrain_twist of s_ref * axis: its projection onto the axis
            r = s_ref * ux * ux + s_ref * uy * uy + s_ref * uz * uz
            rvx, rvy, rvz = r * ux, r * uy, r * uz
            rwx = rwy = rwz = 0.0
            vx, vy, vz = s * ux, s * uy, s * uz
            wx = wy = wz = 0.0
            nx, ny, nz = px + vx * dt, py + vy * dt, pz + vz * dt
            new_twist = _new(Twist6, (_new(Vec3, (vx, vy, vz)), _ZERO3))
            new_pose = _new(Pose, (_new(Vec3, (nx, ny, nz)), ori0))
        else:
            # six decoupled channels, then the plant lag
            adm = self.adm
            adm.params = params_now
            f_int = _new(Wrench6, (_new(Vec3, (ix, iy, iz)), _new(Vec3, (itx, ity, itz))))
            new_twist = step_admittance(adm, f_int, dt)
            (rvx, rvy, rvz), (rwx, rwy, rwz) = new_twist
            a = self.plant_alpha
            if a == 1.0:
                vx, vy, vz, wx, wy, wz = rvx, rvy, rvz, rwx, rwy, rwz
            else:
                (vx, vy, vz), (wx, wy, wz) = twist0
                vx, vy, vz = vx + a * (rvx - vx), vy + a * (rvy - vy), vz + a * (rvz - vz)
                wx, wy, wz = wx + a * (rwx - wx), wy + a * (rwy - wy), wz + a * (rwz - wz)
                new_twist = _new(Twist6, (_new(Vec3, (vx, vy, vz)), _new(Vec3, (wx, wy, wz))))
            nx, ny, nz = px + vx * dt, py + vy * dt, pz + vz * dt
            if wx == 0.0 and wy == 0.0 and wz == 0.0:
                ori = ori0
            else:
                ori = _turned(ori0, wx * dt, wy * dt, wz * dt)
            new_pose = _new(Pose, (_new(Vec3, (nx, ny, nz)), ori))

        self.pose = new_pose
        self.twist = new_twist

        # hole bookkeeping on the post-step state
        tx, ty, tz = target.point
        rx, ry, rz = nx - tx, ny - ty, nz - tz
        ax_pos = rx * ux + ry * uy + rz * uz
        lx, ly, lz = rx - ax_pos * ux, ry - ax_pos * uy, rz - ax_pos * uz
        on_target = math.sqrt(lx * lx + ly * ly + lz * lz) <= sc.environment.hole_radius
        depth = self.hole_depth
        was_cut = depth > 0.0
        if on_target and ax_pos > 0.0:
            depth = self.hole_depth = update_hole(
                depth,
                vx * ux + vy * uy + vz * uz,
                hx * ux + hy * uy + hz * uz,
                dt,
                sc.environment,
                at_bottom=ax_pos >= depth - CUT_FACE_TOLERANCE,
            )
        t_next = (k + 1) * dt
        events = self.trace.events
        if not was_cut and depth > 0.0:
            events.append((t_next, f"first_cut:{self.target_idx}"))
        if collision and not self._in_collision:
            events.append((t, "collision"))
        self._in_collision = collision

        # state machine on the post-step state
        distance = math.sqrt(rx * rx + ry * ry + rz * rz)
        align_progress = 0.0
        if phase is _AUTO_ALIGN:
            align_progress = (k + 1 - self.align_start_step) / self.align_steps
        new_phase = update_phase(
            phase,
            distance,
            sc.thresholds,
            guided=self.guided,
            align_progress=align_progress,
            depth_reached=depth >= sc.environment.hole_depth_goal,
            retracted=ax_pos <= -(sc.thresholds.standoff - 1e-9),
        )

        # the trace record, packed straight from the floats
        if params_now is not self._b_params:
            self._b_params = params_now
            self._b6 = tuple([g.b for g in params_now.gains])
        b0, b1, b2, b3, b4, b5 = self._b6
        qw, qx, qy, qz = ori0
        pending = self._pending
        pending += _pack_record(
            t, px, py, pz, qw, qx, qy, qz,
            vx, vy, vz, wx, wy, wz,
            rvx, rvy, rvz, rwx, rwy, rwz,
            hx, hy, hz, htx, hty, htz,
            ex, ey, ez, etx, ety, etz,
            ix, iy, iz, itx, ity, itz,
            b0, b1, b2, b3, b4, b5, depth,
            self._phase_code, self.target_idx,
        )
        if len(pending) >= _PENDING_BYTES:
            self.trace.data.flush()
        self.k = k + 1

        if distance > self._runaway_at:
            events.append((t_next, f"runaway:{self.target_idx}"))
            self.trace.complete = False
            self.done = True
            return
        if new_phase is not phase:
            self._transition(phase, new_phase, t_next)

    def _transition(self, old: GuidancePhase, new: GuidancePhase, t: float) -> None:
        check_transition(old, new)
        self.trace.events.append((t, f"phase:{new.value}"))
        self.phase = new
        self._start_ramp(t, new)
        if new is _AUTO_ALIGN:
            target = self.sc.targets[self.target_idx]
            self.align_plan = plan_alignment(
                self.pose,
                target.point,
                target.axis,
                self.sc.tool_axis_local,
                standoff=self.sc.thresholds.standoff,
                duration=self.sc.thresholds.align_duration,
            )
            self.align_start_step = self.k
            self.adm.reset()
            self.twist = Twist6.zero()
            self.trace.events.append((t, f"align_start:{self.target_idx}"))
        elif new is _CONSTRAINED_DRILL:
            self.trace.events.append((t, f"align_end:{self.target_idx}"))
            self.s_ref = 0.0
            self.s_act = 0.0
            self.operator.notify_grab(t)
        elif new is _TARGET_DONE:
            self.trace.events.append((t, f"target_done:{self.target_idx}"))
            if self.target_idx + 1 < len(self.sc.targets):
                self.target_idx += 1
                self.hole_depth = 0.0
                self._runaway_at = self._runaway_bound()
                self.phase = _FREE_MOTION
                self._start_ramp(t, self.phase)
                self.operator.begin_target(
                    self.target_idx, self.sc.targets[self.target_idx], t
                )
                self.trace.events.append((t, f"new_target:{self.target_idx}"))
            else:
                self.done = True
                self.trace.complete = True
        self._phase_code = _PHASE_CODE[self.phase]

    def run(self) -> Trace:
        max_steps = int(self.sc.max_sim_time / self.dt)
        try:
            while not self.done:
                if self.k >= max_steps:
                    self.trace.events.append((self.k * self.dt, "timeout"))
                    self.trace.complete = False
                    break
                self.step()
        except GeometryError as exc:  # e.g. a mesh feature with no normal
            raise SimulationFault(f"geometry fault at sample {self.k}: {exc}") from exc
        self.trace.data.flush()
        return self.trace


def run(scenario: Scenario, operator: Optional[VirtualOperator] = None) -> Trace:
    """Execute a scenario to completion (all targets done) or timeout."""
    return World(scenario, operator).run()
