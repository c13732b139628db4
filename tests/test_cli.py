import json
import os

import pytest

from gds import config
from gds.cli import main
from gds.presets import experiment_one_raw

# a binary STL whose header begins with "solid": undecodable as text
BINARY_STL = (
    b"solid exported".ljust(80, b"\0") + (1).to_bytes(4, "little")
    + bytes(12) + b"\x00\x00\x80\x3f" * 9 + bytes(2)
)

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
        [b"solid bad\n facet normal 0 0 1\n  outer loop\n   vertex 0 x 0\n", BINARY_STL],
        ids=["non_number_vertex", "binary"],
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
        ],
        ids=["negative_noise", "lock_outside_adapt", "string", "bool"],
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
        assert "INCOMPLETE" in capsys.readouterr().out
        run_dir = out / "without" / "seed_131234100"
        events = json.loads((run_dir / "events.json").read_text())
        assert events["complete"] is False
        last = events["events"][-1]
        assert last["kind"] == "runaway:2"
        assert last["t"] < 70.0
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
