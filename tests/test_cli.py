import json
import os

import pytest

from gds.cli import main
from gds.presets import experiment_one_raw

# a binary STL whose header begins with "solid": undecodable as text
BINARY_STL = (
    b"solid exported".ljust(80, b"\0") + (1).to_bytes(4, "little")
    + bytes(12) + b"\x00\x00\x80\x3f" * 9 + bytes(2)
)

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
    def test_dry_run_executes_nothing(self, mini_config, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["run", "--scenario", mini_config, "--out", str(out), "--dry-run"]
        )
        assert code == 0
        assert "dry run" in capsys.readouterr().out
        assert not out.exists()

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
