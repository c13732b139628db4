"""Span recorder for the traced benchmark run.

The wrappers live here, outside the program: ``install`` rebinds the names
that ``gds.engine``, ``gds.operator_env``, ``gds.config`` and ``gds.cli``
import, ``gds.workpiece.drilling_axis`` and ``gds.metrics.compute_metrics``,
and the methods ``World.step``, ``VirtualOperator.wrench``,
``Trace.to_csv`` and ``Trace.checksum``; every scenario that
``load_scenario`` resolves gets its surface wrapped in ``TracedSurface``.
``gds.geometry`` is not wrapped: its calls take under a microsecond, so a
wrapper would swamp them, and their cost shows in the callers' self time.

Spans (name, start, end, parent, job id) are kept in compact in-memory
arrays on the nanosecond clock and written out once, at the end. A span's
self time is its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import os
import time
from array import array

import numpy as np


class Tracer:
    """In-memory span and counter store; one instance per traced run.

    ``job_id`` tags every span and counter opened while it is set: -1 for
    the harness's own work, 0 for the overhead probe, 1.. for timed jobs.
    """

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.job_id = -1
        self.counts = {}  # (job id, counter name) -> total

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.job.append(self.job_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped in a span called ``name``."""
        nid = self._name_id(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, n: int = 1) -> None:
        key = (self.job_id, name)
        self.counts[key] = self.counts.get(key, 0) + n

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "job": np.frombuffer(self.job, dtype=np.int32),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
        }

    def write(self, path: str) -> None:
        """Write every span and counter to an ``.npz`` file."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        counts = sorted(self.counts.items())
        np.savez(
            path,
            names=np.array(self.names),
            counter_job=np.array([k[0] for k, _ in counts], dtype=np.int32),
            counter_name=np.array([k[1] for k, _ in counts]),
            counter_value=np.array([v for _, v in counts], dtype=np.int64),
            **self.arrays(),
        )


def self_times(start, end, parent) -> np.ndarray:
    """Self time of every span: its duration minus the part of it covered by
    its children, each child clipped to the parent's interval. The harness
    runs one thread, so the children of one span never overlap and their
    clipped durations add up to the covered time."""
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    out = end - start
    child = np.flatnonzero(parent >= 0)
    p = parent[child]
    covered = np.minimum(end[child], end[p]) - np.maximum(start[child], start[p])
    np.subtract.at(out, p, np.maximum(covered, 0))
    return out


class TracedSurface:
    """Surface wrapper that times the per-step queries and counts the ones
    that find the tip inside the material."""

    def __init__(self, surface, tracer: Tracer):
        self._surface = surface

        def signed_distance(p):
            d = surface.signed_distance(p)
            if d < 0.0:
                tracer.count("workpiece.query_hits")
            return d

        self.signed_distance = tracer.wrap("workpiece.signed_distance", signed_distance)
        self.closest_point = tracer.wrap("workpiece.closest_point", surface.closest_point)

    def __getattr__(self, name):
        return getattr(self._surface, name)


def install(tracer: Tracer, gds) -> callable:
    """Wrap the public entry points of every traced layer; return a function
    that restores the originals. ``gds`` is a namespace holding the imported
    ``engine``, ``operator_env``, ``workpiece``, ``config``, ``metrics``
    and ``cli`` modules."""
    engine, operator_env, workpiece, config, metrics, cli = (
        gds.engine, gds.operator_env, gds.workpiece, gds.config, gds.metrics, gds.cli
    )
    saved = []

    def rebind(owner, attr, name, make=None):
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        wrapped = make(original) if make else tracer.wrap(name, original)
        setattr(owner, attr, wrapped)

    def csv_writer(original):
        traced = tracer.wrap("engine.to_csv", original)

        def to_csv(trace, path):
            traced(trace, path)
            tracer.count("engine.csv_bytes", os.path.getsize(path))

        return to_csv

    def scenario_loader(original):
        traced = tracer.wrap("config.resolve", original)

        def load_scenario(*args, **kwargs):
            scenario = traced(*args, **kwargs)
            scenario.surface = TracedSurface(scenario.surface, tracer)
            return scenario

        return load_scenario

    rebind(engine.World, "step", "engine.step")
    rebind(engine.Trace, "to_csv", None, csv_writer)
    rebind(engine.Trace, "checksum", "engine.checksum")
    rebind(engine, "run", "engine.run")
    rebind(cli, "run_scenario", "engine.run")
    rebind(operator_env.VirtualOperator, "wrench", "operator_env.wrench")
    rebind(engine, "environment_wrench", "operator_env.environment_wrench")
    rebind(engine, "update_hole", "operator_env.update_hole")
    rebind(operator_env, "drilling_axis", "workpiece.drilling_axis")
    rebind(workpiece, "drilling_axis", "workpiece.drilling_axis")
    rebind(config, "load_stl", "workpiece.mesh_load")
    rebind(engine, "step_admittance", "admittance.step")
    rebind(engine, "step_axial", "admittance.step_axial")
    rebind(engine, "gains_at", "admittance.gains_at")
    rebind(engine, "update_phase", "guidance.update_phase")
    rebind(engine, "check_transition", "guidance.transition")
    for attr in ("plan_alignment", "sample_alignment", "alignment_twist"):
        rebind(engine, attr, f"guidance.{attr}")
    for owner in (metrics, cli):
        rebind(owner, "compute_metrics", "metrics.compute")
    for owner in (config, cli):
        rebind(owner, "load_scenario", None, scenario_loader)
    rebind(cli, "main", "cli.main")

    def restore():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore


def layer_metrics(tracer: Tracer, n_jobs: int) -> dict:
    """Per-layer metrics over the timed jobs (job id >= 1), as means per
    job: name -> (value, unit)."""
    a = tracer.arrays()
    self_ns = self_times(a["start_ns"], a["end_ns"], a["parent"])
    if self_ns.size and self_ns.min() < 0:
        raise RuntimeError("negative self time: spans are not properly nested")
    timed = a["job"] >= 1
    n_names = len(tracer.names)
    calls = np.bincount(a["name_id"][timed], minlength=n_names)
    busy = np.bincount(a["name_id"][timed], weights=self_ns[timed], minlength=n_names)

    def n(name):
        nid = tracer._ids.get(name)
        return 0 if nid is None else int(calls[nid])

    def s(*names):
        return sum(float(busy[tracer._ids[x]]) for x in names if x in tracer._ids) / 1e9

    def counter(name):
        return sum(v for (job, key), v in tracer.counts.items() if job >= 1 and key == name)

    queries = n("workpiece.signed_distance")
    per_job = {
        "engine.steps": (n("engine.step"), "count"),
        "engine.self_s": (s("engine.step"), "s"),
        "engine.to_csv_s": (s("engine.to_csv"), "s"),
        "engine.csv_bytes": (counter("engine.csv_bytes"), "bytes"),
        "engine.checksum_s": (s("engine.checksum"), "s"),
        "operator_env.wrench_calls": (n("operator_env.wrench"), "count"),
        "operator_env.wrench_s": (s("operator_env.wrench"), "s"),
        "operator_env.environment_wrench_s": (s("operator_env.environment_wrench"), "s"),
        "operator_env.update_hole_calls": (n("operator_env.update_hole"), "count"),
        "workpiece.surface_queries": (queries, "count"),
        "workpiece.surface_query_s": (
            s("workpiece.signed_distance", "workpiece.closest_point"), "s"
        ),
        "workpiece.drilling_axis_calls": (n("workpiece.drilling_axis"), "count"),
        "workpiece.drilling_axis_s": (s("workpiece.drilling_axis"), "s"),
        "workpiece.mesh_load_s": (s("workpiece.mesh_load"), "s"),
        "admittance.step_calls": (n("admittance.step"), "count"),
        "admittance.step_s": (s("admittance.step"), "s"),
        "admittance.axial_calls": (n("admittance.step_axial"), "count"),
        "admittance.gains_at_s": (s("admittance.gains_at"), "s"),
        "guidance.update_phase_s": (s("guidance.update_phase"), "s"),
        "guidance.align_s": (
            s("guidance.plan_alignment", "guidance.sample_alignment", "guidance.alignment_twist"),
            "s",
        ),
        "guidance.align_steps": (n("guidance.sample_alignment"), "count"),
        "guidance.transitions": (n("guidance.transition"), "count"),
        "metrics.compute_s": (s("metrics.compute"), "s"),
        "config.resolve_s": (s("config.resolve"), "s"),
        "cli.self_s": (s("cli.main"), "s"),
    }
    out = {name: (value / n_jobs, unit) for name, (value, unit) in per_job.items()}
    hits = counter("workpiece.query_hits")
    out["workpiece.query_hit_frac"] = (hits / queries if queries else 0.0, "ratio")
    return out
