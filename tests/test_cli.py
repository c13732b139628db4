import csv
import json
import math
import os
import tempfile

import pytest

import golden
from gds import config
from gds.cli import main
from gds.metrics import METRIC_FIELDS
from gds.presets import experiment_one_raw

EXPERIMENT1 = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "experiment1.json")

# a binary STL whose header begins with "solid": undecodable as text
BINARY_STL = (
    b"solid exported".ljust(80, b"\0") + (1).to_bytes(4, "little")
    + bytes(12) + b"\x00\x00\x80\x3f" * 9 + bytes(2)
)


def crest_stl_with_last_vertex(coordinates):
    """The golden crest STL of the preset cylinder, a complete and valid
    mesh, with its last vertex line holding ``coordinates`` instead."""
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "crest.stl")
        golden.write_crest_stl(path)
        with open(path) as fh:
            lines = fh.readlines()
    last = max(i for i, line in enumerate(lines) if line.split()[:1] == ["vertex"])
    lines[last] = f"   vertex {coordinates}\n"
    return "".join(lines).encode()


def plate_config(tmp_path, max_sim_time):
    """One target on a flat OFF plate; ``max_sim_time`` cuts the runs short."""
    (tmp_path / "plate.off").write_text(
        "OFF\n4 2 0\n-1 -1 0\n1 -1 0\n1 1 0\n-1 1 0\n3 0 1 2\n3 0 2 3\n"
    )
    raw = experiment_one_raw("with", 0)
    raw["surface"] = {"type": "off", "path": "plate.off"}
    raw["targets"] = [{"point": [0.0, 0.0, 0.0], "phi_deg": 10.0, "theta_deg": 0.0}]
    raw["max_sim_time"] = max_sim_time
    path = tmp_path / "plate.json"
    path.write_text(json.dumps(raw))
    return str(path)


def test_the_preset_file_is_the_built_in_preset():
    # two copies of the paper's preset: the file users run and the library's
    with open(EXPERIMENT1) as fh:
        assert json.load(fh) == json.loads(json.dumps(experiment_one_raw("with", 0)))


@pytest.fixture()
def mini_config(tmp_path):
    """One nearby target: fast enough for CLI round trips."""
    raw = experiment_one_raw("with", 0)
    raw["targets"] = raw["targets"][:1]
    raw["start"]["position"] = [0.05, -0.20, 0.20]
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(raw))
    return str(path)


class TestValidate:
    def test_ok(self, mini_config, capsys):
        assert main(["validate", "--scenario", mini_config]) == 0
        assert "ok" in capsys.readouterr().out

    def test_missing_file_exit_two(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["validate", "--scenario", missing]) == 2
        assert "nope.json" in capsys.readouterr().err

    def test_unknown_key_exit_two(self, tmp_path, capsys):
        raw = experiment_one_raw("with", 0)
        raw["operator"] = {"angular_noize": 3.0}  # typo must be fatal
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(raw))
        assert main(["validate", "--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert "operator" in err and "angular_noize" in err

    def test_scenario_path_is_a_directory_exit_two(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.mkdir()
        assert main(["validate", "--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: cannot read scenario file {path}: Is a directory\n"

    def test_scenario_not_utf8_exit_two(self, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{\x00}\x00")
        assert main(["validate", "--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: scenario file is not UTF-8 text: {path}\n"

    def test_bad_json_names_location(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{ not json")
        assert main(["validate", "--scenario", str(path)]) == 2
        assert "line" in capsys.readouterr().err

    def test_missing_surface_mesh_exit_two(self, tmp_path, capsys):
        raw = experiment_one_raw("with", 0)
        raw["surface"] = {"type": "stl", "path": "missing_mesh.stl"}
        path = tmp_path / "mesh.json"
        path.write_text(json.dumps(raw))
        assert main(["validate", "--scenario", str(path)]) == 2
        assert "missing_mesh.stl" in capsys.readouterr().err

    @pytest.mark.parametrize("mesh_type", ["stl", "off"])
    def test_surface_path_is_a_directory_exit_two(self, mesh_type, tmp_path, capsys):
        (tmp_path / f"mesh.{mesh_type}").mkdir()
        raw = experiment_one_raw("with", 0)
        raw["surface"] = {"type": mesh_type, "path": f"mesh.{mesh_type}"}
        path = tmp_path / "mesh.json"
        path.write_text(json.dumps(raw))
        assert main(["validate", "--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: surface.path: ")
        assert f"mesh.{mesh_type}" in err and "Traceback" not in err

    def test_malformed_surface_mesh_exit_two(self, tmp_path, capsys):
        (tmp_path / "short.off").write_text("OFF\n4 2 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n3 0 1 2\n")
        raw = experiment_one_raw("with", 0)
        raw["surface"] = {"type": "off", "path": "short.off"}
        path = tmp_path / "mesh.json"
        path.write_text(json.dumps(raw))
        assert main(["validate", "--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: surface.path: ")
        assert "short.off" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "content",
        [
            b"solid bad\n facet normal 0 0 1\n  outer loop\n   vertex 0 x 0\n",
            BINARY_STL,
            crest_stl_with_last_vertex("nan 0.25 -0.05"),
            crest_stl_with_last_vertex("0.15 inf -0.05"),
        ],
        ids=["non_number_vertex", "binary", "nan_vertex", "inf_vertex"],
    )
    def test_malformed_stl_exit_two(self, content, tmp_path, capsys):
        (tmp_path / "bad.stl").write_bytes(content)
        raw = experiment_one_raw("with", 0)
        raw["surface"] = {"type": "stl", "path": "bad.stl"}
        path = tmp_path / "mesh.json"
        path.write_text(json.dumps(raw))
        assert main(["validate", "--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: surface.path: ")
        assert "bad.stl" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "section, value, where",
        [
            ("operator", {"angular_noise": -1.0}, "operator: angular_noise"),
            ("thresholds", {"lock_radius": 0.2}, "thresholds: lock_radius"),
            ("environment", {"hole_radius": "x"}, "environment.hole_radius: "),
            ("plant", {"lag_time_constant": True}, "plant.lag_time_constant: "),
            # derived from the condition, so never a key, even when it agrees
            ("operator", {"variant": "guided"}, "operator: unknown key(s) ['variant']"),
            ("operator", {"variant": "manual"}, "operator: unknown key(s) ['variant']"),
            # each ran to a wrong result: the lock driving the tip into uncut
            # material, a complete session with no cut, a lock never reached
            ("thresholds", {"standoff": -0.02}, "thresholds: standoff must be positive"),
            ("environment", {"hole_depth_goal": 0},
             "environment: hole_depth_goal must be positive"),
            ("thresholds", {"lock_radius": -0.01}, "thresholds: lock_radius must be positive"),
        ],
        ids=[
            "negative_noise", "lock_outside_adapt", "string", "bool",
            "variant_guided", "variant_manual",
            "negative_standoff", "zero_depth_goal", "negative_lock_radius",
        ],
    )
    def test_bad_model_value_exit_two(self, section, value, where, tmp_path, capsys):
        raw = experiment_one_raw("with", 0)
        raw[section] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert main(["validate", "--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {where}")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "seed", ["abc", 1.5, True, -1], ids=["string", "float", "bool", "negative"]
    )
    def test_bad_seed_exit_two(self, seed, tmp_path, capsys):
        raw = experiment_one_raw("with", 0)
        raw["seed"] = seed
        path = tmp_path / "seed.json"
        path.write_text(json.dumps(raw))
        assert main(["validate", "--scenario", str(path)]) == 2
        assert capsys.readouterr().err == "config error: seed: expected a non-negative integer\n"

    @pytest.mark.parametrize(
        "keys, value, where",
        [
            (("start", "orientation_wxyz"), ["a", 0, 0, 0], "start.orientation_wxyz[0]"),
            (("surface",), {"type": "off", "path": "plate.off", "rotate_wxyz": ["a", 0, 0, 0]},
             "surface.rotate_wxyz[0]"),
            (("start", "position"), [0.05, math.nan, 0.25], "start.position[1]"),
            (("targets", 0, "point"), [0.03, -0.12, math.inf], "targets[0].point[2]"),
            (("start", "orientation_wxyz"), [0.0, math.nan, 0.0, 0.0], "start.orientation_wxyz[1]"),
            (("surface",), {"type": "stl", "path": "crest.stl", "rotate_wxyz": [-math.inf, 0, 0, 0]},
             "surface.rotate_wxyz[0]"),
        ],
        ids=["string_quat", "string_rotation", "nan_position", "inf_target",
             "nan_quat", "inf_rotation"],
    )
    def test_non_finite_vector_component_exit_two(self, keys, value, where, tmp_path, capsys):
        raw = experiment_one_raw("with", 0)
        node = raw
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        path = tmp_path / "vector.json"
        path.write_text(json.dumps(raw))  # NaN and Infinity as Python's json writes them
        assert main(["validate", "--scenario", str(path)]) == 2
        assert capsys.readouterr().err == f"config error: {where}: expected a finite number\n"

    @pytest.mark.parametrize(
        "keys, where",
        [
            (("dt",), "dt"),
            (("start", "position", 2), "start.position[2]"),
            (("start", "orientation_wxyz", 0), "start.orientation_wxyz[0]"),
        ],
        ids=["dt", "position", "quat"],
    )
    def test_integer_beyond_float_range_exit_two(self, keys, where, tmp_path, capsys):
        raw = experiment_one_raw("with", 0)
        node = raw
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = 10**400  # JSON "1" and 400 zeros: no float holds it
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(raw))
        assert main(["validate", "--scenario", str(path)]) == 2
        assert capsys.readouterr().err == f"config error: {where}: expected a finite number\n"

    @pytest.mark.parametrize(
        "key, section, value, message",
        [
            ("axis_dir", "surface", [0, 0, 0], "surface.axis_dir: must be non-zero"),
            ("tool_axis", None, [0, 0, 0], "tool_axis: tool axis must be unit length"),
            ("tool_axis", None, [0, 0, 2], "tool_axis: tool axis must be unit length"),
            ("half_length", "surface", 0.0, "surface.half_length: must be >= 1e-09"),
        ],
        ids=["zero_cylinder_axis", "zero_tool_axis", "long_tool_axis", "zero_cylinder_length"],
    )
    def test_degenerate_axis_exit_two(self, key, section, value, message, tmp_path, capsys):
        raw = experiment_one_raw("with", 0)
        (raw[section] if section else raw)[key] = value
        path = tmp_path / "axis.json"
        path.write_text(json.dumps(raw))
        assert main(["validate", "--scenario", str(path)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("start", "orientation_wxyz", [0, 2, 0, 0],
             "start.orientation_wxyz: orientation quaternion must be unit length"),
            ("surface", "rotate_wxyz", [2, 0, 0, 0],
             "surface.rotate_wxyz: rotation quaternion must be unit length"),
        ],
        ids=["start", "surface"],
    )
    def test_non_unit_quaternion_exit_two(self, section, key, value, message, tmp_path, capsys):
        path = plate_config(tmp_path, 1.0)
        with open(path) as fh:
            raw = json.load(fh)
        raw[section][key] = value
        with open(path, "w") as fh:
            json.dump(raw, fh)
        assert main(["validate", "--scenario", path]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_only_a_geometry_error_in_a_target_is_a_config_error(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("not a geometry error")

        monkeypatch.setattr(config, "make_drill_target", broken)
        cfg = config.canonical_config(experiment_one_raw("with", 0))
        with pytest.raises(RuntimeError, match="not a geometry error"):
            config.scenario_from_config(cfg)

    def test_valid_seeds_keep_their_digest(self):
        # the canonical form is hashed into every trace; these digests are
        # the ones recorded before seeds were validated
        with_7 = config.canonical_config(experiment_one_raw("with", 7))
        without_0 = config.canonical_config(experiment_one_raw("with", 0), condition="without")
        assert with_7["seed"] == 7 and without_0["seed"] == 0
        digests = [config.scenario_from_config(cfg).config_digest() for cfg in (with_7, without_0)]
        assert digests == [
            "ff2e2455736ca4179a210e7d5977c0e56fc40d34d084598f3c551f4da32cbc82",
            "4a84513b22fe6bc16bc144540c78f94feb53351ffecb3a2c1f9f5627fa113de3",
        ]

    def test_mesh_surface_with_registration_validates(self, tmp_path):
        mesh = tmp_path / "plate.off"
        mesh.write_text("OFF\n4 2 0\n-1 -1 0\n1 -1 0\n1 1 0\n-1 1 0\n3 0 1 2\n3 0 2 3\n")
        raw = experiment_one_raw("with", 0)
        raw["surface"] = {
            "type": "off",
            "path": "plate.off",
            "translate": [0.0, 0.0, 0.0],
            "rotate_wxyz": [1.0, 0.0, 0.0, 0.0],
        }
        raw["targets"] = [{"point": [0.0, 0.0, 0.0], "phi_deg": 10.0, "theta_deg": 0.0}]
        path = tmp_path / "mesh_ok.json"
        path.write_text(json.dumps(raw))
        assert main(["validate", "--scenario", str(path)]) == 0


class TestRun:
    def test_run_writes_outputs_and_summary(self, mini_config, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["run", "--scenario", mini_config, "--out", str(out), "--seeds", "3"]
        )
        assert code == 0
        line = capsys.readouterr().out.strip()
        assert "condition=with seed=3" in line and "complete" in line
        run_dir = out / "with" / "seed_3"
        assert (run_dir / "trace.csv").exists()
        metrics = json.loads((run_dir / "metrics.json").read_text())
        assert metrics["complete"] is True
        events = json.loads((run_dir / "events.json").read_text())
        assert events["checksum"]
        assert any(e["kind"] == "target_done:0" for e in events["events"])

    def test_runaway_seed_ends_early_and_exits_one(self, tmp_path, capsys):
        # manual operator seed 131234100 loses target 2's hole and the tool
        # flies off; the run ends on the runaway bound, not at the 600 s
        # timeout
        path = tmp_path / "exp1.json"
        path.write_text(json.dumps(experiment_one_raw("without", 131234100)))
        out = tmp_path / "out"
        args = ["run", "--scenario", str(path), "--condition", "without",
                "--seeds", "131234100", "--out", str(out), "--no-trace"]
        assert main(args) == 1
        assert " INCOMPLETE (runaway:2 at 6" in capsys.readouterr().out
        run_dir = out / "without" / "seed_131234100"
        events = json.loads((run_dir / "events.json").read_text())
        assert events["complete"] is False
        last = events["events"][-1]
        assert last["kind"] == "runaway:2"
        assert last["t"] < 70.0
        assert not any(e["kind"] == "timeout" for e in events["events"])

    def test_stalled_session_ends_by_name_and_exits_one(self, tmp_path, capsys):
        # no push reaches the thrust threshold, so the guided tool stands at
        # the first target's face and the hole never deepens
        raw = experiment_one_raw("with", 0)
        raw["environment"] = {"thrust_threshold": 1e6}
        path = tmp_path / "stall.json"
        path.write_text(json.dumps(raw))
        assert main(["validate", "--scenario", str(path)]) == 0
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(path), "--out", str(out), "--no-trace"]) == 1
        assert capsys.readouterr().out.endswith(" INCOMPLETE (stall:0 at 60.000 s)\n")
        events = json.loads((out / "with" / "seed_0" / "events.json").read_text())
        assert events["complete"] is False
        assert events["events"][-1] == {"t": 60.0, "kind": "stall:0"}
        assert not any(e["kind"] == "timeout" for e in events["events"])

    def test_mesh_fault_is_a_simulation_fault(self, tmp_path, capsys):
        # a sheet folded back on itself: its edges' normals cancel, which
        # validation cannot see and the first query near an edge reaches
        (tmp_path / "fold.off").write_text("OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n3 0 2 1\n")
        raw = experiment_one_raw("with", 0)
        raw["surface"] = {"type": "off", "path": "fold.off"}
        raw["targets"] = [{"point": [0.2, 0.2, 0.0], "phi_deg": 0.0, "theta_deg": 0.0}]
        path = tmp_path / "fold.json"
        path.write_text(json.dumps(raw))
        assert main(["validate", "--scenario", str(path)]) == 0
        assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err == (
            "simulation fault: geometry fault at sample 0: "
            "edge (0, 1) has no incident area\n"
        )

    def test_no_trace_flag(self, mini_config, tmp_path):
        out = tmp_path / "out"
        assert (
            main(
                ["run", "--scenario", mini_config, "--out", str(out), "--no-trace"]
            )
            == 0
        )
        run_dir = out / "with" / "seed_0"
        assert not (run_dir / "trace.csv").exists()
        assert (run_dir / "metrics.json").exists()

    @pytest.mark.parametrize(
        "verb, extra",
        [
            ("run", []),
            ("compare", []),
            ("sweep", ["--param", "operator.push_force", "--values", "25"]),
        ],
        ids=["run", "compare", "sweep"],
    )
    def test_negative_seed_exit_two(self, verb, extra, mini_config, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main([verb, "--scenario", mini_config, "--seeds=-2", "--out", out, *extra]) == 2
        assert capsys.readouterr().err == "config error: seed: expected a non-negative integer\n"

    @pytest.mark.parametrize(
        "verb, extra",
        [
            ("run", ["--condition", "both"]),
            ("compare", []),
            ("sweep", ["--param", "operator.push_force", "--values", "25,30"]),
        ],
        ids=["run", "compare", "sweep"],
    )
    def test_late_bad_seed_runs_and_writes_nothing(self, verb, extra, tmp_path, capsys):
        # every session is resolved before the first one runs
        out = tmp_path / "out"
        argv = [verb, "--scenario", EXPERIMENT1, "--seeds", "0,1,-2", "--out", str(out), *extra]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "config error: seed: expected a non-negative integer\n")
        assert not out.exists()

    def test_late_bad_sweep_value_runs_nothing(self, mini_config, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["sweep", "--scenario", mini_config, "--param", "operator.push_force",
                "--values", "25,inf", "--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("config error: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "verb, extra, max_sim_time",
        [
            ("validate", [], 0.0005),
            ("run", ["--condition", "both"], 0.0005),
            ("compare", [], 0.0005),
            ("sweep", ["--param", "max_sim_time", "--values", "0.01,0.0005"], 600.0),
            ("sweep", ["--param", "dt", "--values", "0.001,0.02"], 0.01),
        ],
        ids=["validate", "run", "compare", "sweep_max_sim_time", "sweep_dt"],
    )
    def test_max_sim_time_below_dt_exit_two(self, verb, extra, max_sim_time, tmp_path, capsys):
        # a run shorter than one step has no trace to measure
        raw = experiment_one_raw("with", 0)
        raw["max_sim_time"] = max_sim_time
        path = tmp_path / "short.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        argv = [verb, "--scenario", str(path), *extra]
        assert main(argv if verb == "validate" else argv + ["--out", str(out)]) == 2
        assert capsys.readouterr() == ("", "config error: max_sim_time: must be at least dt\n")
        assert not out.exists()

    def test_max_sim_time_of_one_step_runs_one_step(self, tmp_path, capsys):
        raw = experiment_one_raw("with", 0)
        raw["max_sim_time"] = raw["dt"] = 0.0007
        path = tmp_path / "one_step.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(path), "--no-trace", "--out", str(out)]) == 1
        assert capsys.readouterr().out.endswith(" INCOMPLETE (timeout at 0.001 s)\n")
        events = json.loads((out / "with" / "seed_0" / "events.json").read_text())
        assert events["n_samples"] == 1

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under_file"])
    @pytest.mark.parametrize(
        "verb, extra",
        [
            ("run", []),
            ("compare", []),
            ("sweep", ["--param", "operator.push_force", "--values", "25"]),
        ],
        ids=["run", "compare", "sweep"],
    )
    def test_unusable_out_runs_nothing(self, verb, extra, under, mini_config, tmp_path, capsys):
        # the output directory is checked with the scenario, before any session runs
        blocker = tmp_path / "taken"
        blocker.write_text("a file\n")
        out = blocker / "out" if under else blocker
        assert main([verb, "--scenario", mini_config, "--out", str(out), *extra]) == 2
        assert capsys.readouterr() == ("", f"config error: out: not a directory: {blocker}\n")
        assert blocker.read_text() == "a file\n"

    def test_duplicate_seeds_rejected(self, mini_config, capsys):
        assert main(["run", "--scenario", mini_config, "--seeds", "1,1"]) == 2
        assert "distinct" in capsys.readouterr().err

    def test_identical_invocations_identical_bytes(self, mini_config, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["run", "--scenario", mini_config, "--out", str(out)]) == 0
            outs.append((out / "with" / "seed_0" / "trace.csv").read_bytes())
        assert outs[0] == outs[1]


def test_run_and_compare_share_one_path(mini_config, tmp_path):
    a, b = tmp_path / "A", tmp_path / "B"
    common = ["--scenario", mini_config, "--seeds", "3"]
    assert main(["run", *common, "--condition", "both", "--out", str(a)]) == 0
    assert main(["compare", *common, "--out", str(b)]) == 0
    for condition in ("with", "without"):
        for name in ("trace.csv", "metrics.json", "events.json"):
            rel = os.path.join(condition, "seed_3", name)
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def test_compare_parses_the_mesh_once_and_matches_separate_runs(tmp_path, monkeypatch):
    scenario = plate_config(tmp_path, 0.2)
    loads = []
    load_off = config.load_off
    monkeypatch.setattr(config, "load_off", lambda path: loads.append(path) or load_off(path))
    a = tmp_path / "A"
    assert main(["compare", "--scenario", scenario, "--seeds", "0,1", "--out", str(a)]) == 1
    assert len(loads) == 1
    for seed in ("0", "1"):
        b = tmp_path / f"B{seed}"
        assert main(["run", "--scenario", scenario, "--condition", "both",
                     "--seeds", seed, "--out", str(b)]) == 1
        for condition in ("with", "without"):
            for name in ("trace.csv", "metrics.json", "events.json"):
                rel = os.path.join(condition, f"seed_{seed}", name)
                assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


class TestCompare:
    def test_compare_single_seed(self, mini_config, tmp_path, capsys):
        out = tmp_path / "cmp"
        code = main(
            [
                "compare",
                "--scenario",
                mini_config,
                "--out",
                str(out),
                "--seeds",
                "0",
                "--no-trace",
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "compare t_tot:" in captured
        report = json.loads((out / "comparison.json").read_text())
        assert report["partial"] is False
        assert "std" not in report  # single seed: variance omitted
        assert report["percent_diff"]["t_tot"] < 0.0  # guidance is faster
        csv = (out / "comparison.csv").read_text().splitlines()
        assert csv[0] == "metric,with,without,percent_diff"
        assert len(csv) == 1 + 8

    def test_compare_two_seeds_has_std(self, mini_config, tmp_path):
        out = tmp_path / "cmp2"
        code = main(
            [
                "compare",
                "--scenario",
                mini_config,
                "--out",
                str(out),
                "--seeds",
                "0,1",
                "--no-trace",
            ]
        )
        assert code == 0
        report = json.loads((out / "comparison.json").read_text())
        assert "std" in report and "without" in report["std"]

    def test_incomplete_run_reports_the_completed_pairs(self, tmp_path, capsys):
        # manual seed 75 runs away on target 1; seed 74 completes in both
        # conditions, so the report is seed 74's alone
        out, alone = tmp_path / "cmp", tmp_path / "alone"
        args = ["compare", "--scenario", EXPERIMENT1, "--no-trace", "--out"]
        assert main(args + [str(out), "--seeds", "74,75"]) == 1
        assert "compare t_tot:" in capsys.readouterr().out
        assert main(args + [str(alone), "--seeds", "74"]) == 0
        report = json.loads((out / "comparison.json").read_text())
        assert report.pop("seeds") == [74, 75]
        assert report.pop("partial") is True
        assert report.pop("paired_seeds") == [74]
        assert report.pop("incomplete") == [
            {"condition": "without", "seed": 75, "final_event": "runaway:1", "t": 47.042}
        ]
        expected = json.loads((alone / "comparison.json").read_text())
        assert expected.pop("seeds") == [74]
        assert expected.pop("partial") is False
        assert report == expected
        assert (out / "comparison.csv").read_bytes() == (alone / "comparison.csv").read_bytes()

    def test_no_completed_pair_writes_no_report(self, tmp_path):
        out = tmp_path / "cmp"
        assert main(["compare", "--scenario", plate_config(tmp_path, 0.2),
                     "--seeds", "0", "--no-trace", "--out", str(out)]) == 1
        report = json.loads((out / "comparison.json").read_text())
        assert report == {
            "seeds": [0], "partial": True, "paired_seeds": [],
            "incomplete": [
                {"condition": cond, "seed": 0, "final_event": "timeout", "t": 0.2}
                for cond in ("with", "without")
            ],
        }
        assert not (out / "comparison.csv").exists()


class TestSweep:
    def test_unknown_parameter_lists_fields(self, mini_config, capsys):
        code = main(
            [
                "sweep",
                "--scenario",
                mini_config,
                "--param",
                "operator.psi",
                "--values",
                "1,2",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "operator.angular_noise" in err

    def test_empty_values_rejected(self, mini_config, capsys):
        code = main(
            ["sweep", "--scenario", mini_config, "--param", "operator.angular_noise", "--values", ""]
        )
        assert code == 2

    def test_non_numeric_value_is_a_config_error(self, mini_config, capsys):
        code = main(
            [
                "sweep", "--scenario", mini_config,
                "--param", "operator.angular_noise", "--values", "1,abc",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: values: ")
        assert "'1,abc'" in err

    def test_missing_scenario_file_is_a_config_error(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        code = main(
            ["sweep", "--scenario", missing, "--param", "operator.push_force", "--values", "20"]
        )
        assert code == 2
        assert capsys.readouterr().err == f"config error: scenario file not found: {missing}\n"

    def test_invalid_json_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{ not json")
        code = main(
            ["sweep", "--scenario", str(path), "--param", "operator.push_force", "--values", "20"]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: invalid JSON (line 1, col 3): ")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_value_is_a_config_error(self, value, mini_config, capsys):
        code = main(
            ["sweep", "--scenario", mini_config, "--param", "operator.angular_noise",
             "--values", value]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: operator.angular_noise: expected a finite number")

    @pytest.mark.parametrize("section", [5, [1], "k_p"], ids=["number", "array", "string"])
    def test_non_object_section_is_a_config_error(self, section, tmp_path, capsys):
        raw = experiment_one_raw("with", 0)
        raw["operator"] = section
        path = tmp_path / "section.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        want = ("", "config error: operator: expected an object\n")
        assert main(["validate", "--scenario", str(path)]) == 2
        assert capsys.readouterr() == want
        assert main(["sweep", "--scenario", str(path), "--param", "operator.k_p",
                     "--values", "30", "--out", str(out)]) == 2
        assert capsys.readouterr() == want
        assert not out.exists()

    def test_null_section_sweeps_as_an_absent_one(self, tmp_path, capsys):
        # null means all defaults, so the swept value is the section's one key
        raw = experiment_one_raw("with", 0)
        raw["max_sim_time"] = 0.05
        outputs = []
        for name, section in (("absent", {}), ("null", {"operator": None})):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({**raw, **section}))
            out = tmp_path / name
            assert main(["sweep", "--scenario", str(path), "--param", "operator.k_p",
                         "--values", "30,60", "--out", str(out)]) == 1  # cut at 0.05 s
            outputs.append((capsys.readouterr(), (out / "sweep.csv").read_text()))
        assert outputs[0] == outputs[1]
        assert len(outputs[0][1].splitlines()) == 3

    def test_sweep_parses_the_mesh_once(self, tmp_path, monkeypatch):
        scenario = plate_config(tmp_path, 0.02)
        loads = []
        load_off = config.load_off
        monkeypatch.setattr(config, "load_off", lambda path: loads.append(path) or load_off(path))
        code = main(["sweep", "--scenario", scenario, "--param", "operator.push_force",
                     "--values", "20,25,30", "--condition", "both", "--seeds", "0,1"])
        assert code == 1  # every run is cut by max_sim_time
        assert loads == [str(tmp_path / "plate.off")]

    def test_sweep_writes_table(self, mini_config, tmp_path):
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep",
                "--scenario",
                mini_config,
                "--param",
                "operator.push_force",
                "--values",
                "20,30",
                "--out",
                str(out),
                "--condition",
                "with",
            ]
        )
        assert code == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        assert rows[0].startswith("param,value,condition,seed,")
        assert len(rows) == 3
        assert rows[1].startswith("operator.push_force,20,with,0,")

    def test_each_row_is_the_run_of_a_document_holding_its_value(
        self, mini_config, tmp_path, capsys
    ):
        out = tmp_path / "sweep"
        assert main(["sweep", "--scenario", mini_config, "--param", "operator.push_force",
                     "--values", "20,30", "--condition", "both", "--seeds", "0",
                     "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = list(csv.DictReader((out / "sweep.csv").read_text().splitlines()))
        with open(mini_config) as fh:
            raw = json.load(fh)
        want_lines, want_rows = [], []
        for value in (20.0, 30.0):  # (value, condition, seed) order
            raw["operator"] = {"push_force": value}
            doc, run_out = tmp_path / f"push_{value:g}.json", tmp_path / f"run_{value:g}"
            doc.write_text(json.dumps(raw))
            assert main(["run", "--scenario", str(doc), "--condition", "both", "--seeds", "0",
                         "--no-trace", "--out", str(run_out)]) == 0
            want_lines += [
                f"sweep operator.push_force={value:g} {line}"
                for line in capsys.readouterr().out.splitlines()
            ]
            for condition in ("with", "without"):
                m = json.loads((run_out / condition / "seed_0" / "metrics.json").read_text())
                metrics = {name: m.get(name, m.get(f"{name}_deg")) for name in METRIC_FIELDS}
                want_rows.append({
                    "param": "operator.push_force", "value": f"{value:g}",
                    "condition": condition, "seed": "0",
                    **{name: f"{v:.9g}" for name, v in metrics.items()},
                    "complete": str(int(m["complete"])),
                })
        assert len(lines) == 4 and lines == want_lines
        assert rows == want_rows

    def test_a_repeated_value_keeps_both_rows(self, mini_config, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert main(["sweep", "--scenario", mini_config, "--param", "operator.push_force",
                     "--values", "20,20", "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 2 and lines[0] == lines[1]
        assert len(rows) == 3 and rows[1] == rows[2]

    def test_prefix_keeps_the_table_s_nine_digits(self, mini_config, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert main(["sweep", "--scenario", mini_config, "--param", "max_sim_time",
                     "--values", "1.0000001,1.0000002", "--out", str(out)]) == 1  # both cut
        prefixes = [line.split(" run ")[0] for line in capsys.readouterr().out.splitlines()]
        assert prefixes == ["sweep max_sim_time=1.0000001", "sweep max_sim_time=1.0000002"]
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == ["1.0000001", "1.0000002"]
