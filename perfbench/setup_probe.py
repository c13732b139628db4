"""Set-up time in a fresh interpreter: importing gds (with its numpy
dependency and the CLI) plus resolving one scenario file into a Scenario,
i.e. everything before the first control step.

    python3 perfbench/setup_probe.py SRC_DIR SCENARIO_JSON

Prints the set-up time in reference seconds (see calibrate.py) as the last
line.
"""

import sys
import time

from calibrate import Sampler, reference_seconds


def main() -> int:
    src, path = sys.argv[1:3]
    with Sampler() as speed:
        t0 = time.perf_counter()
        sys.path.insert(0, src)
        import gds.cli  # noqa: F401  (imports the package and every module it uses)
        from gds.config import load_scenario

        load_scenario(path)
        elapsed = time.perf_counter() - t0
    print(repr(reference_seconds(elapsed - speed.overhead_s, speed.samples)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
