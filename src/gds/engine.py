"""Fixed-timestep closed-loop executor: operator wrench -> interaction force
-> admittance -> plant -> pose, with the guidance state machine steering
switches, gain ramps, and the locked alignment.

Step order (one control period):

1. operator wrench at the current state (zero, and not asked, while locked)
2. environment wrench at the current state
3. interaction force F_int = F_h + F_env (exact bookkeeping identity)
4. reference twist, plant and pose, in one body per phase kind (these
   bodies are the only switch of which DoFs move):
   - locked AutoAlign: no admittance; the pose and twist follow the
     locked trajectory, which ends on the lock's step count;
   - ConstrainedDrill/Retract under guidance: the single axial admittance
     channel and its plant lag along the drilling axis; the angular twist
     is exactly zero, so the orientation carries over;
   - six-channel (FreeMotion, Approach, and the whole manual condition):
     the six decoupled channels, then the plant, a first-order lag of the
     actual twist toward the reference (exact one-step discretization; an
     ideal follower when the lag is 0), then the pose integration
     (semi-implicit; orientation via the quaternion exponential of
     omega*dt)
5. the end pose's coordinates in the active ``Hole``, the cut's update,
   events, state machine update, trace sample

The step runs over plain floats and packs the trace record from them
straight into the trace's last storage block. A value that lives for one
control period is a plain nested float tuple, never a NamedTuple:
``World.pose`` is ``((x, y, z), (w, x, y, z))``, ``World.twist``,
``World.v_ref`` and every wrench ``((x, y, z), (x, y, z))``, the manual
hand's aim and push axes ``(x, y, z)``, and the gains of every step
``(translational, rotational)``. Every set-up value a step unpacks is an
exact tuple too, made once per scenario, target, plan or ramp (see
``geometry`` for the measured reason).

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
from dataclasses import dataclass, field
from typing import Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from . import _csvtext
from .admittance import (
    GainSchedule,
    gains_at,
    phase_params,
    step_admittance,
    step_axial,
)
from .errors import GeometryError, SimulationFault
from .geometry import Pose, Twist6, UnitQuat, Vec3, Wrench6, canonical_wxyz
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
    EnvironmentModel,
    Hole,
    OperatorModel,
    VirtualOperator,
    environment_wrench,
    update_hole,
)
from .workpiece import DrillTarget, Surface

# a run ends as a runaway once the tip is this much farther (m) from the
# active target than when the target became active (the iiwa 7 reaches 0.8 m)
_RUNAWAY_DISTANCE = 1.0
# a run ends as a stall once the hole depth has not grown and the target
# has not changed for this long (s)
STALL_S = 60.0


def _turned(q: tuple, rx: float, ry: float, rz: float) -> tuple:
    """``UnitQuat.from_rotvec((rx, ry, rz)).multiply(q)`` over floats, as a
    plain (w, x, y, z): the orientation after one step of a nonzero angular
    twist, ``r = w dt``."""
    angle = math.sqrt(rx * rx + ry * ry + rz * rz)
    if angle < 1e-12:
        w1, x1, y1, z1 = canonical_wxyz(1.0, 0.5 * rx, 0.5 * ry, 0.5 * rz)
    else:
        s = math.sin(0.5 * angle) / angle
        w1, x1, y1, z1 = canonical_wxyz(math.cos(0.5 * angle), s * rx, s * ry, s * rz)
    w2, x2, y2, z2 = q
    return canonical_wxyz(
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
        if not self.lag_time_constant >= 0.0:
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
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError("dt must be positive and finite")
        if not math.isfinite(self.max_sim_time):
            raise ValueError("max_sim_time must be finite")
        if not self.max_sim_time >= self.dt:
            raise ValueError("max_sim_time must be at least dt")
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
CSV_HEADER = _FLOAT_FIELDS + ["phase"] + _B_FIELDS + ["target_index", "hole_depth"]
# every float column, in checksum order
_COLUMNS = tuple(_FLOAT_FIELDS + _B_FIELDS + ["hole_depth"])

# records per storage block, each written as one CSV block; bounds the
# encoder's temporaries at about 3 MB and each block at 188,416 bytes
_CSV_BLOCK = 512
CSV_HEAD = (",".join(CSV_HEADER) + "\n").encode()
# the CSV cells of the _COLUMNS floats, of the phase name and of the index
_FLOAT_CELLS = [i for i, name in enumerate(CSV_HEADER) if name in _COLUMNS]
_PHASE_CELL = CSV_HEADER.index("phase")
_TARGET_CELL = CSV_HEADER.index("target_index")
_PHASE_TEXT = _csvtext.pack_texts([p.value.encode() for p in _PHASE_ORDER])

# one record per sample: 45 <f8 then 2 <i4, 368 bytes, no padding; World
# packs one per step into its storage block, and these records are the
# trace's only storage
_RECORD_DTYPE = np.dtype(
    [(name, "<f8") for name in _COLUMNS] + [("phase", "<i4"), ("target_index", "<i4")]
)
_RECORD_SIZE = _RECORD_DTYPE.itemsize
# a record's phase code and target index, as positions in its tuple
_PHASE_FIELD = len(_COLUMNS)
_TARGET_FIELD = _PHASE_FIELD + 1
_BLOCK_BYTES = _CSV_BLOCK * _RECORD_SIZE
_RECORD_FORMAT = struct.Struct(
    "<" + "".join(dtype.char for dtype, _ in _RECORD_DTYPE.fields.values())
)
_pack_record = _RECORD_FORMAT.pack
_pack_record_into = _RECORD_FORMAT.pack_into


def csv_work(rows: int) -> tuple:
    """``csv_block``'s work arrays, for blocks of up to ``rows`` records."""
    return _csvtext.RunWork(rows * len(_COLUMNS)), _csvtext.RowSlots(rows, len(CSV_HEADER))


def csv_block(records: np.ndarray, work: tuple) -> bytearray:
    """The CSV lines of one non-empty block of ``_RECORD_DTYPE`` records,
    encoded straight from a 2-D view of their floats and of their own
    target indices into the text slots of ``_csvtext``; a float is
    formatted only where it differs from the one above it in its column.
    ``work`` is a ``csv_work`` of at least ``len(records)`` rows. The one
    encoder of ``trace.csv``, in process and in the trace writer's helper."""
    run_work, slots = work
    k = len(records)
    # the 45 floats are the first 360 bytes of each 368-byte record
    floats = records.view(np.float64).reshape(k, -1)[:, : len(_COLUMNS)]
    phases = records["phase"]
    targets, codes = np.unique(records["target_index"], return_inverse=True)
    target_text = _csvtext.pack_texts([b"%d" % i for i in targets.tolist()])
    for cells, text in (
        (_FLOAT_CELLS, _csvtext.format_runs(floats, run_work)),
        (_PHASE_CELL, [t[phases] for t in _PHASE_TEXT]),
        (_TARGET_CELL, [t[codes] for t in target_text]),
    ):
        slots.text[:k, cells, 0], slots.text[:k, cells, 1] = text
    return slots.join(k)


class _Fields:
    """The float columns of the records by name, each read through
    ``Trace._field``: a by-name reader, not a container."""

    __slots__ = ("_trace",)

    def __init__(self, trace: "Trace"):
        self._trace = trace

    def __getitem__(self, name: str) -> np.ndarray:
        if name not in _COLUMNS:
            raise KeyError(name)
        return self._trace._field(name)


class Trace:
    """Sample log plus the event stream.

    ``blocks`` is the only storage: one 368-byte ``_RECORD_DTYPE`` record
    per sample, in ``bytearray`` blocks of ``_CSV_BLOCK`` records, each
    allocated whole, once. ``filled`` counts the records in the last
    block; the blocks before it are full. As each step ends, ``World``
    packs its record straight into the last block at ``filled`` and counts
    it; ``append`` does the same for one packed record. Every reader takes
    only the filled records: ``data[name]``, ``phase_codes`` and
    ``target_idx`` join one field of every block into one fresh numpy
    array, ``sample(i)`` and ``phase_of(i)`` read record ``i % _CSV_BLOCK``
    of block ``i // _CSV_BLOCK``, the checksum hashes the records in
    order, and ``record_blocks`` yields each non-empty block's records as a
    view, which the metrics stream over and ``to_csv`` writes as one CSV
    block each. Blocks of a fixed size keep the storage from ever copying
    a whole trace to grow it, and as no block is ever resized, a view held
    across a step is harmless.

    ``stream``, when given, is handed each block as it fills
    (``stream.put(block)``, from ``next_block``), and ``to_csv`` hands it
    the last one and asks it to write the file (``stream.finish``). The
    command line's stream is a ``tracewriter.TraceWriter``: on a host with
    more than one usable CPU, a helper process that encodes ``trace.csv``
    with ``csv_block`` while the session runs, so the file's bytes are the
    ones the in-process writer makes.
    """

    def __init__(self, dt: float, condition: str, config_digest: str, stream=None):
        self.dt = dt
        self.condition = condition
        self.config_digest = config_digest
        self.events: List[Tuple[float, str]] = []
        self.complete = False
        self.blocks: List[bytearray] = [bytearray(_BLOCK_BYTES)]
        self.filled = 0
        self.stream = stream

    def next_block(self) -> None:
        """Start a new, empty last block: the one place a block is made
        after the first, once the last holds ``_CSV_BLOCK`` records. The
        full block is handed to the stream, if any; it is never written
        again."""
        if self.stream is not None:
            self.stream.put(self.blocks[-1])
        self.blocks.append(bytearray(_BLOCK_BYTES))
        self.filled = 0

    def append(self, record: bytes) -> None:
        """Write one packed record after the last one, in a new block once
        the last holds ``_CSV_BLOCK`` records."""
        if self.filled == _CSV_BLOCK:
            self.next_block()
        start = self.filled * _RECORD_SIZE
        # a memoryview slice takes exactly one record's bytes, or raises
        memoryview(self.blocks[-1])[start : start + _RECORD_SIZE] = record
        self.filled += 1

    def _filled_blocks(self) -> Iterator[np.ndarray]:
        """Each block's filled records as a ``_RECORD_DTYPE`` view, in
        sample order; the last one may be empty."""
        blocks = self.blocks
        for block in blocks[:-1]:
            yield np.frombuffer(block, _RECORD_DTYPE)
        yield np.frombuffer(blocks[-1], _RECORD_DTYPE, self.filled)

    def _field(self, name: str) -> np.ndarray:
        """One field of every record, in sample order, as a fresh
        C-contiguous array that holds no view of a block."""
        return np.concatenate([records[name] for records in self._filled_blocks()])

    @property
    def data(self) -> _Fields:
        return _Fields(self)

    @property
    def phase_codes(self) -> np.ndarray:
        return self._field("phase")

    @property
    def target_idx(self) -> np.ndarray:
        return self._field("target_index")

    def record_blocks(self) -> Iterator[np.ndarray]:
        """Each non-empty block's records as a ``_RECORD_DTYPE`` view, in
        sample order."""
        for records in self._filled_blocks():
            if len(records):
                yield records

    def __len__(self) -> int:
        return (len(self.blocks) - 1) * _CSV_BLOCK + self.filled

    def _record(self, i: int) -> tuple:
        """Record ``i`` as a tuple of Python floats and ints, in field
        order; its view of the block is dropped before this returns."""
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("trace sample index out of range")
        q, r = divmod(i, _CSV_BLOCK)
        return np.frombuffer(self.blocks[q], _RECORD_DTYPE, 1, r * _RECORD_SIZE).item(0)

    def sample(self, i: int) -> TraceSample:
        v = self._record(i)
        return TraceSample(
            t=v[0],
            pose=Pose(Vec3(*v[1:4]), UnitQuat(*v[4:8])),
            twist=Twist6(Vec3(*v[8:11]), Vec3(*v[11:14])),
            v_ref=Twist6(Vec3(*v[14:17]), Vec3(*v[17:20])),
            f_h=Wrench6(Vec3(*v[20:23]), Vec3(*v[23:26])),
            f_env=Wrench6(Vec3(*v[26:29]), Vec3(*v[29:32])),
            f_int=Wrench6(Vec3(*v[32:35]), Vec3(*v[35:38])),
            phase=_PHASE_ORDER[v[_PHASE_FIELD]],
            active_b=v[38:44],
            target_index=v[_TARGET_FIELD],
            hole_depth=v[44],
        )

    def checksum(self) -> str:
        """SHA-256 over the records, in sample order: per sample the 45
        float columns as ``<f8`` (the 38 state columns in CSV order, the six
        damping gains ``b_*``, then ``hole_depth``), then the phase code and
        the target index as ``<i4``. An empty trace hashes no bytes."""
        h = hashlib.sha256()
        for records in self._filled_blocks():
            h.update(records)
        return h.hexdigest()

    def phase_of(self, i: int) -> GuidancePhase:
        return _PHASE_ORDER[self._record(i)[_PHASE_FIELD]]

    def events_of_kind(self, prefix: str) -> List[Tuple[float, str]]:
        return [(t, kind) for t, kind in self.events if kind.startswith(prefix)]

    def to_csv(self, path: str) -> None:
        """One row per sample, SI units: every float as ``'%.9g' % v``, the
        phase name, the target index as ``'%d'`` (see ``csv_block``).

        A trace with a stream hands it the last block and returns once the
        stream has written the file; the stream raises the writer's
        ``OSError`` if writing failed. A trace without one, or whose stream
        cannot write (its helper never started or was lost), encodes every
        block here, with work arrays sized once for the file. Either way the
        stream is spent: a second call writes here."""
        stream, self.stream = self.stream, None
        if stream is not None and stream.finish(
            path, memoryview(self.blocks[-1])[: self.filled * _RECORD_SIZE]
        ):
            return
        work = csv_work(min(len(self), _CSV_BLOCK))
        with open(path, "wb") as fh:
            fh.write(CSV_HEAD)
            for records in self.record_blocks():
                fh.write(csv_block(records, work))

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

    def __init__(
        self, scenario: Scenario, operator: Optional[VirtualOperator] = None, stream=None
    ):
        self.sc = scenario
        self.dt = scenario.dt
        self.guided = scenario.condition == "with"
        self.operator = operator or VirtualOperator(
            scenario.operator, scenario.tool_axis_local, guided=self.guided
        )
        position, orientation = scenario.start_pose
        self.pose = (tuple(position), tuple(orientation))
        self.twist = ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
        self.phase = _FREE_MOTION
        self.target_idx = 0
        self.k = 0
        self.done = False
        self.align_plan = None
        self.align_start_step = 0
        self.align_steps = max(1, round(scenario.thresholds.align_duration / self.dt))
        self.v_ref = ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))  # six-channel admittance memory
        self.s_ref = 0.0  # axial admittance memory while constrained
        self.s_act = 0.0  # axial plant state while constrained
        tau = scenario.plant.lag_time_constant
        self.plant_alpha = 1.0 if tau == 0.0 else 1.0 - math.exp(-self.dt / tau)
        params = phase_params(self.phase, scenario.condition)
        self.schedule = GainSchedule(params, params, ramp_start=0.0)
        self.trace = Trace(self.dt, scenario.condition, scenario.config_digest(), stream)
        self._in_collision = False
        self._phase_code = _PHASE_CODE[self.phase]
        # the whole steps that fit in max_sim_time: a quotient within 1e-9
        # of an integer is that integer, so 7.1 s holds 7,100 steps of 1 ms
        q = scenario.max_sim_time / self.dt
        self._max_steps = round(q) if abs(q - round(q)) <= 1e-9 * q else math.floor(q)
        self._stall_steps = round(STALL_S / self.dt)
        self.operator.notify_grab(0.0)
        self._begin_target(0.0)

    # -- helpers -------------------------------------------------------------

    def _begin_target(self, t: float) -> None:
        """Make ``target_idx`` the active target at time ``t``: a new
        ``Hole`` at its point along its axis, not yet cut, the tip's
        coordinates in it, a runaway bound ``_RUNAWAY_DISTANCE`` beyond the
        entry distance the step tests, a fresh stall deadline, and the
        operator told."""
        target = self.sc.targets[self.target_idx]
        hole = self.hole = Hole(target.point, target.axis, self.sc.environment.hole_radius)
        # the tip's hole coordinates at the start of the next step
        self._ax_pos, self._on_target, distance = hole.coordinates(*self.pose[0])
        self._runaway_at = distance + _RUNAWAY_DISTANCE
        # the step the run ends at, as a timeout or a stall, unless the
        # cut grows or the target changes first
        self._deadline = self._deadline_after(self.k)
        self.operator.begin_target(target, t)

    def _end(self, t: float, kind: str) -> None:
        """End the run early: ``runaway:<i>``, ``stall:<i>`` or ``timeout``."""
        self.trace.events.append((t, kind))
        self.done = True

    def _deadline_after(self, k: int) -> int:
        """``STALL_S`` after step index ``k``, or the ``max_sim_time`` cap if
        that comes first."""
        return min(self._max_steps, k + self._stall_steps)

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
        hole = self.hole

        # the lock ignores the operator: it is not asked
        if phase is _AUTO_ALIGN:
            f_h = ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
        else:
            f_h = self.operator.wrench(pose0, twist0, phase, target, t)
        f_env, collision = environment_wrench(
            pose0, twist0, sc.surface, hole, sc.environment, self._ax_pos, self._on_target
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

        schedule = self.schedule
        params_now = gains_at(schedule, t) if t < schedule.settles_at else schedule.end_params
        bt, br = params_now

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
            nx, ny, nz = new_pose[0]
        elif self.guided and (phase is _CONSTRAINED_DRILL or phase is _RETRACT):
            # 1-DoF along the drilling axis, which is guidance's (the hole's
            # axis is the target's); the angular twist is exactly zero, so
            # the orientation carries over
            ux, uy, uz = hole.axis
            s_ref = self.s_ref = step_axial(self.s_ref, ix * ux + iy * uy + iz * uz, bt, dt)
            s = self.s_act = self.s_act + self.plant_alpha * (s_ref - self.s_act)
            # s_ref * axis, projected onto the axis
            r = s_ref * ux * ux + s_ref * uy * uy + s_ref * uz * uz
            rvx, rvy, rvz = r * ux, r * uy, r * uz
            rwx = rwy = rwz = 0.0
            vx, vy, vz = s * ux, s * uy, s * uz
            wx = wy = wz = 0.0
            nx, ny, nz = px + vx * dt, py + vy * dt, pz + vz * dt
            new_twist = (vx, vy, vz), (0.0, 0.0, 0.0)
            new_pose = (nx, ny, nz), ori0
        else:
            # six decoupled channels, then the plant lag
            new_twist = self.v_ref = step_admittance(
                self.v_ref, ((ix, iy, iz), (itx, ity, itz)), params_now, dt
            )
            (rvx, rvy, rvz), (rwx, rwy, rwz) = new_twist
            a = self.plant_alpha
            if a == 1.0:
                vx, vy, vz, wx, wy, wz = rvx, rvy, rvz, rwx, rwy, rwz
            else:
                (vx, vy, vz), (wx, wy, wz) = twist0
                vx, vy, vz = vx + a * (rvx - vx), vy + a * (rvy - vy), vz + a * (rvz - vz)
                wx, wy, wz = wx + a * (rwx - wx), wy + a * (rwy - wy), wz + a * (rwz - wz)
                new_twist = (vx, vy, vz), (wx, wy, wz)
            nx, ny, nz = px + vx * dt, py + vy * dt, pz + vz * dt
            if wx == 0.0 and wy == 0.0 and wz == 0.0:
                ori = ori0
            else:
                ori = _turned(ori0, wx * dt, wy * dt, wz * dt)
            new_pose = (nx, ny, nz), ori

        self.pose = new_pose
        self.twist = new_twist

        # hole bookkeeping on the post-step state
        t_next = (k + 1) * dt
        trace = self.trace
        events = trace.events
        ax_pos, on_target, distance = hole.coordinates(nx, ny, nz)
        # the end pose is the next step's start pose; _begin_target
        # recomputes these in the next target's hole
        self._ax_pos, self._on_target = ax_pos, on_target
        depth = hole.depth
        if on_target and ax_pos > 0.0:
            # the feed and the hand's push along the hole
            ux, uy, uz = hole.axis
            cut = update_hole(
                hole, ax_pos, vx * ux + vy * uy + vz * uz, hx * ux + hy * uy + hz * uz, dt,
                sc.environment,
            )
            if cut > depth:  # the cut grew: the stall deadline moves on
                self._deadline = self._deadline_after(k + 1)
                if depth == 0.0:
                    events.append((t_next, f"first_cut:{self.target_idx}"))
            depth = cut
        if collision and not self._in_collision:
            events.append((t, "collision"))
        self._in_collision = collision

        # state machine on the post-step state
        new_phase = update_phase(
            phase,
            distance,
            sc.thresholds,
            guided=self.guided,
            aligned=phase is _AUTO_ALIGN and k + 1 - self.align_start_step >= self.align_steps,
            depth_reached=depth >= sc.environment.hole_depth_goal,
            ax_pos=ax_pos,
        )

        # the trace record, packed from the floats straight into the last
        # storage block
        n = trace.filled
        if n == _CSV_BLOCK:
            trace.next_block()
            n = 0
        qw, qx, qy, qz = ori0
        _pack_record_into(
            trace.blocks[-1], n * _RECORD_SIZE,
            t, px, py, pz, qw, qx, qy, qz,
            vx, vy, vz, wx, wy, wz,
            rvx, rvy, rvz, rwx, rwy, rwz,
            hx, hy, hz, htx, hty, htz,
            ex, ey, ez, etx, ety, etz,
            ix, iy, iz, itx, ity, itz,
            bt, bt, bt, br, br, br, depth,
            self._phase_code, self.target_idx,
        )
        trace.filled = n + 1
        self.k = k + 1

        if distance > self._runaway_at:
            self._end(t_next, f"runaway:{self.target_idx}")
            return
        if new_phase is not phase:
            self._transition(phase, new_phase, t_next)

    def _transition(self, old: GuidancePhase, new: GuidancePhase, t: float) -> None:
        check_transition(old, new)
        self.trace.events.append((t, f"phase:{new.value}"))
        self.phase = new
        if new is _AUTO_ALIGN:
            target = self.sc.targets[self.target_idx]
            self.align_plan = plan_alignment(
                self.pose,
                target.point,
                target.axis,
                self.sc.tool_axis_local,
                standoff=self.sc.thresholds.standoff,
                # the lock's step window, so its last step reaches the goal
                duration=self.align_steps * self.dt,
            )
            self.align_start_step = self.k
            self.v_ref = self.twist = ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
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
                self._begin_target(t)
                self.phase = _FREE_MOTION
                self.trace.events.append((t, f"new_target:{self.target_idx}"))
            else:
                self.done = True
                self.trace.complete = True
        # one gain ramp, toward the gains of the phase the transition ends
        # in: a target switch passes through TargetDone in no time at all
        self.schedule = GainSchedule(
            gains_at(self.schedule, t), phase_params(self.phase, self.sc.condition), ramp_start=t
        )
        self._phase_code = _PHASE_CODE[self.phase]

    def run(self) -> Trace:
        """Step until all targets are done, a fault or a runaway, or the
        deadline: at the ``max_sim_time`` cap the run ends with ``timeout``,
        before it with ``stall:<target index>``."""
        try:
            while not self.done:
                if self.k < self._deadline:
                    self.step()
                else:
                    kind = "timeout" if self.k >= self._max_steps else f"stall:{self.target_idx}"
                    self._end(self.k * self.dt, kind)
        except GeometryError as exc:  # e.g. a mesh feature with no normal
            raise SimulationFault(f"geometry fault at sample {self.k}: {exc}") from exc
        return self.trace


def run(scenario: Scenario, operator: Optional[VirtualOperator] = None, stream=None) -> Trace:
    """Execute a scenario to completion (all targets done), or until it
    ends early (see ``World.run``); ``stream`` is handed the trace's blocks
    as they fill (see ``Trace``)."""
    return World(scenario, operator, stream).run()
