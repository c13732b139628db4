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
