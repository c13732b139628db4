"""What ``import gds`` offers: its modules, not their names."""

import os
import subprocess
import sys

import gds

# the submodules the benchmark harness reads off the package
# (perfbench/run.py, import_gds)
BENCHMARK_MODULES = (
    "cli", "config", "engine", "guidance", "metrics", "operator_env", "presets", "workpiece",
)


def test_package_loads_its_modules_but_not_the_command_line():
    # a fresh interpreter: this suite has long since imported gds.cli
    src = os.path.dirname(os.path.dirname(os.path.abspath(gds.__file__)))
    probe = (
        "import sys, types\n"
        "import gds\n"
        "assert 'gds.cli' not in sys.modules, 'import gds loaded gds.cli'\n"
        "import gds.cli\n"
        f"for name in {BENCHMARK_MODULES!r}:\n"
        "    assert isinstance(getattr(gds, name), types.ModuleType), name\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr


def test_python_dash_m_runs_the_command_line(tmp_path):
    # ``python -m gds`` works without the installed entry point
    src = os.path.dirname(os.path.dirname(os.path.abspath(gds.__file__)))
    root = os.path.dirname(src)

    def gds_main(*args):
        return subprocess.run(
            [sys.executable, "-m", "gds", *args], cwd=root,
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        )

    done = gds_main("validate", "--scenario", "configs/experiment1.json")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "configs/experiment1.json: ok\n"
    missing = str(tmp_path / "missing.json")
    done = gds_main("validate", "--scenario", missing)
    assert done.returncode == 2
    assert f"config error: scenario file not found: {missing}" in done.stderr
