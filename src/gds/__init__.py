"""Deterministic simulator for human-robot collaborative drilling on curved
surfaces: adaptive 6-DoF admittance control, haptic-guidance state machine,
drilling geometry, virtual operator/environment models, and a metrics
harness comparing the with/without-guidance conditions."""

from . import (
    admittance, config, engine, errors, geometry, guidance, metrics, operator_env, presets,
    workpiece,
)

__version__ = "0.1.0"
