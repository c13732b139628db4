"""Golden bits: the trace checksum, length and final event of named
sessions, the ``trace.csv`` SHA-256 of four of them (the seed-0 pairs on
the preset, as ``gds compare`` writes them, and on the crest) and the
SHA-256 of a compare report's files, recorded in ``golden_bits.json``
beside this file.

The sessions are acceptance test C7's 40 (seeds 0-19 in both conditions on
the preset); on the preset, manual seed 131234100, manual seed 5 at a 2 ms
step, guided seed 3 with no plant lag, guided seed 0 with a thrust
threshold no push reaches, which ends as a stall, and guided seed 0 at a
3 ms step, whose 4 s lock is no whole number of steps; and on the preset's
targets over an STL crest of its cylinder, seeds 0 and 1 in both
conditions and manual seed 131234100, whose tip enters the material; a
guided lock that starts on an exact half-turn, at a sphere's pole; and, on
that sphere, seed 0 in both conditions with the target 30 degrees off the
pole, where the tip leaves the hole's radius and queries the sphere. The bits
depend on libm and numpy, so the record keeps the versions it was written
with, and a mismatch report prints them beside the running ones.

The record also pins the bytes of the compare report: the SHA-256 of
``comparison.json`` and ``comparison.csv`` from ``gds compare --no-trace``
over seeds 0 and 1 on the preset cut to its first target.

A change that alters trace bits on purpose regenerates the record, and the
script names the sessions whose entries it changes, adds or drops:

    PYTHONPATH=src python3 tests/golden.py --write
"""

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import sys
import tempfile

import numpy as np

from gds.cli import main as gds_main
from gds.config import canonical_config, scenario_from_config
from gds.engine import run
from gds.presets import CYLINDER_RADIUS, experiment_one_raw, experiment_one_scenario

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_bits.json")

C7_SEEDS = range(20)
CONDITIONS = ("with", "without")
MANUAL_SEED = 131234100
CREST_SEEDS = (0, 1)
# preset variants: (surface name, condition, seed, overrides of the raw config)
VARIANTS = (
    ("preset_dt2ms", "without", 5, {"dt": 0.002}),
    ("preset_lag0", "with", 3, {"plant": {"lag_time_constant": 0.0}}),
    # no push reaches the threshold: the run ends as a stall
    ("preset_stall", "with", 0, {"environment": {"thrust_threshold": 1e6}}),
    # 4 s is no whole number of 3 ms steps: the lock lasts 1,333 steps
    ("preset_dt3ms", "with", 0, {"dt": 0.003}),
)
# a guided session whose lock starts on an exact half-turn: one phi-0
# target at the pole of a sphere, and the start orientation left at its
# default (identity), so the tool's +z points away from the material
HALF_TURN = ("sphere_half_turn", "with", 0)
HALF_TURN_RAW = {
    "version": 1,
    "condition": "with",
    "start": {"position": [0.0, 0.0, 0.25]},
    "surface": {"type": "sphere", "center": [0.0, 0.0, -0.5], "radius": 0.5},
    "targets": [{"point": [0.0, 0.0, 0.0], "phi_deg": 0.0}],
}
# seed 0 in both conditions on the same sphere, its target 30 degrees off
# the pole: the tip starts off the hole's axis, so every step until it
# reaches the hole asks the sphere for its signed distance
OFF_POLE = "sphere_off_pole"
_OFF_POLE_ANGLE = math.radians(30.0)
OFF_POLE_RAW = {
    "version": 1,
    "seed": 0,
    "start": {"position": [0.0, 0.0, 0.25], "orientation_wxyz": [0.0, 1.0, 0.0, 0.0]},
    "surface": HALF_TURN_RAW["surface"],
    "targets": [{
        "point": [0.5 * math.sin(_OFF_POLE_ANGLE), 0.0, 0.5 * math.cos(_OFF_POLE_ANGLE) - 0.5],
        "phi_deg": 10.0,
    }],
}
# sessions whose trace.csv bytes are pinned
CSV_SESSIONS = ("crest/with/0", "crest/without/0", "preset/with/0", "preset/without/0")
# the compare report's files whose bytes are pinned, and its seeds
REPORT_FILES = ("comparison.csv", "comparison.json")
REPORT_SEEDS = "0,1"
# the record's per-name hash tables, beside "sessions"
RECORD_KEYS = ("sessions", "csv_sha256", "report_sha256")


def platform_info() -> dict:
    return {
        "python": sys.version,
        "numpy": np.__version__,
        "libc": list(platform.libc_ver()),
    }


def session_name(surface: str, condition: str, seed: int) -> str:
    return f"{surface}/{condition}/{seed}"


def session_bits(trace) -> dict:
    t, kind = trace.events[-1]
    return {"checksum": trace.checksum(), "samples": len(trace), "final_event": [t, kind]}


def csv_sha256(trace, path: str) -> str:
    trace.to_csv(path)
    return sha256_file(path)


def write_crest_stl(path: str, seed: int = 5, cells=(4, 4), half_extent=(0.15, 0.25),
                    jitter: float = 0.2) -> None:
    """ASCII STL of the preset cylinder's crest: a grid of ``cells``, two
    triangles per cell, whose interior grid lines move by up to ``jitter``
    of a cell, drawn from ``random.Random(seed)``; vertices lie exactly on
    the cylinder and normals point out. The benchmark's ``mesh_guided``
    workload draws its crest the same way."""
    rng = random.Random(seed)
    xs, ys = (
        [-half + i * (2.0 * half / n)
         + (rng.uniform(-jitter, jitter) * (2.0 * half / n) if 0 < i < n else 0.0)
         for i in range(n + 1)]
        for n, half in zip(cells, half_extent)
    )
    r = CYLINDER_RADIUS

    def vertex(x, y):
        return (x, y, math.sqrt(r * r - x * x) - r)

    with open(path, "w") as fh:
        fh.write("solid crest\n")
        for i in range(len(xs) - 1):
            for j in range(len(ys) - 1):
                a, b = vertex(xs[i], ys[j]), vertex(xs[i + 1], ys[j])
                c, d = vertex(xs[i + 1], ys[j + 1]), vertex(xs[i], ys[j + 1])
                for tri in ((a, b, c), (a, c, d)):
                    fh.write(" facet normal 0 0 0\n  outer loop\n")
                    for v in tri:
                        fh.write("   vertex %r %r %r\n" % v)
                    fh.write("  endloop\n endfacet\n")
        fh.write("endsolid crest\n")


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def report_sha256(workdir: str) -> dict:
    """SHA-256 of each of ``REPORT_FILES`` that ``gds compare --no-trace``
    writes over ``REPORT_SEEDS`` on the preset cut to its first target,
    by file name; the verb's stdout is dropped."""
    raw = experiment_one_raw("with", 0)
    raw["targets"] = raw["targets"][:1]
    scenario = os.path.join(workdir, "one_target.json")
    with open(scenario, "w") as fh:
        json.dump(raw, fh)
    out = os.path.join(workdir, "compare")
    argv = ["compare", "--no-trace", "--seeds", REPORT_SEEDS, "--scenario", scenario, "--out", out]
    with contextlib.redirect_stdout(io.StringIO()):
        code = gds_main(argv)
    if code != 0:
        raise RuntimeError(f"gds compare exited with {code}")
    return {name: sha256_file(os.path.join(out, name)) for name in REPORT_FILES}


def run_named(workdir: str) -> tuple:
    """Run the sessions outside C7's fixture in ``workdir``; return their
    bits and the CSV hashes of ``CSV_SESSIONS``, each by session name."""
    bits, csv = {}, {}
    for condition in CONDITIONS:  # C7's fixture checks these sessions' bits
        trace = run(experiment_one_scenario(condition, seed=0))
        name = session_name("preset", condition, 0)
        csv[name] = csv_sha256(trace, os.path.join(workdir, "trace.csv"))
    trace = run(experiment_one_scenario("without", seed=MANUAL_SEED))
    bits[session_name("preset", "without", MANUAL_SEED)] = session_bits(trace)
    for surface, condition, seed, overrides in VARIANTS:
        trace = run(experiment_one_scenario(condition, seed=seed, **overrides))
        bits[session_name(surface, condition, seed)] = session_bits(trace)
    trace = run(scenario_from_config(canonical_config(HALF_TURN_RAW)))
    bits[session_name(*HALF_TURN)] = session_bits(trace)
    for condition in CONDITIONS:
        trace = run(scenario_from_config(canonical_config(OFF_POLE_RAW, condition=condition)))
        bits[session_name(OFF_POLE, condition, 0)] = session_bits(trace)
    stl = os.path.join(workdir, "crest.stl")
    write_crest_stl(stl)
    surfaces = {}
    crest = [(condition, seed) for condition in CONDITIONS for seed in CREST_SEEDS]
    for condition, seed in crest + [("without", MANUAL_SEED)]:
        raw = experiment_one_raw(condition, seed)
        raw["surface"] = {"type": "stl", "path": stl}
        trace = run(scenario_from_config(canonical_config(raw), workdir, surfaces))
        name = session_name("crest", condition, seed)
        bits[name] = session_bits(trace)
        if name in CSV_SESSIONS:
            csv[name] = csv_sha256(trace, os.path.join(workdir, "trace.csv"))
    return bits, csv


def run_c7() -> dict:
    """C7's 40 sessions, run as its fixture runs them."""
    return {
        session_name("preset", condition, seed): session_bits(
            run(experiment_one_scenario(condition, seed=seed))
        )
        for seed in C7_SEEDS
        for condition in CONDITIONS
    }


def load() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def mismatches(recorded: dict, running: dict) -> list:
    """One line per name whose running entry differs from its record."""
    return [
        f"{name}: recorded {recorded[name]}, running {running.get(name)}"
        for name in sorted(recorded)
        if running.get(name) != recorded[name]
    ]


def report(lines: list, record: dict) -> str:
    """The mismatch lines, then the recorded and the running versions."""
    versions = [
        f"{key}: recorded {record['platform'][key]!r}, running {value!r}"
        for key, value in platform_info().items()
    ]
    return "\n".join(
        [f"{len(lines)} golden entries differ:"] + lines
        + ["platform (trace bits depend on libm and numpy):"] + versions
    )


def changes(old: dict, new: dict) -> list:
    """One line per name whose entry the record ``new`` changes, adds or
    drops against the record ``old``: a session's bits or CSV hash, or a
    report file's hash."""
    lines = []
    for key in RECORD_KEYS:
        was, now = old.get(key, {}), new.get(key, {})
        lines += [f"{key} changed: {name}" for name in sorted(was.keys() & now.keys())
                  if was[name] != now[name]]
        lines += [f"{key} added: {name}" for name in sorted(now.keys() - was.keys())]
        lines += [f"{key} dropped: {name}" for name in sorted(was.keys() - now.keys())]
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv != ["--write"]:
        print(f"usage: PYTHONPATH=src python3 {__file__} --write", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as workdir:
        named, csv = run_named(workdir)
        report_hashes = report_sha256(workdir)
    record = {
        "platform": platform_info(),
        "sessions": dict(sorted({**run_c7(), **named}.items())),
        "csv_sha256": csv,
        "report_sha256": report_hashes,
    }
    old = load() if os.path.exists(GOLDEN_PATH) else {}
    for line in changes(old, record) or ["no session entry changes"]:
        print(line)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(record['sessions'])} sessions to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
