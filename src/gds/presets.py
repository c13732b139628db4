"""Built-in scenario: three angled holes on a curved (cylindrical) workpiece.

Targets sit near the crest of a 0.5 m radius cylinder lying along y, spaced
12 cm apart, with polar/azimuth angles (5, 0), (30, 10), (45, 10) degrees.
The drill starts about 27 cm from the first target, tool axis pointing at
the workpiece.
"""

from __future__ import annotations

import math

from .config import canonical_config, scenario_from_config
from .engine import Scenario

CYLINDER_RADIUS = 0.5
_TARGET_XY = ((0.03, -0.12), (0.0, 0.0), (-0.03, 0.12))
_TARGET_ANGLES = ((5.0, 0.0), (30.0, 10.0), (45.0, 10.0))


def _crest_z(x: float) -> float:
    return math.sqrt(CYLINDER_RADIUS**2 - x * x) - CYLINDER_RADIUS


def experiment_one_raw(condition: str = "with", seed: int = 0) -> dict:
    """Raw (un-defaulted) config document for the three-hole comparison."""
    targets = [
        {"point": [x, y, _crest_z(x)], "phi_deg": phi, "theta_deg": theta}
        for (x, y), (phi, theta) in zip(_TARGET_XY, _TARGET_ANGLES)
    ]
    return {
        "version": 1,
        "condition": condition,
        "seed": seed,
        "dt": 0.001,
        "max_sim_time": 600.0,
        "start": {
            "position": [0.05, -0.22, 0.25],
            # tool +z rotated to point down at the workpiece
            "orientation_wxyz": [0.0, 1.0, 0.0, 0.0],
        },
        "surface": {
            "type": "cylinder",
            "axis_point": [0.0, 0.0, -CYLINDER_RADIUS],
            "axis_dir": [0.0, 1.0, 0.0],
            "radius": CYLINDER_RADIUS,
            "half_length": 0.5,
        },
        "targets": targets,
    }


def experiment_one_scenario(condition: str = "with", seed: int = 0, **raw_overrides) -> Scenario:
    """Resolved Scenario for the three-hole comparison.

    ``raw_overrides`` merge into the raw document (e.g. ``dt=0.002`` or
    ``operator={"angular_noise": 3.0}``) before validation.
    """
    raw = experiment_one_raw(condition, seed)
    for key, value in raw_overrides.items():
        if isinstance(value, dict) and isinstance(raw.get(key), dict):
            raw[key].update(value)
        else:
            raw[key] = value
    cfg = canonical_config(raw)
    return scenario_from_config(cfg)
