"""Scenario configuration: a versioned JSON document resolved into a Scenario.

Validation is strict: unknown keys are errors (naming their dotted path),
so a typo can never silently fall back to a default. The resolved document
with every default filled in is the canonical form hashed into the trace's
config digest; two runs with the same digest are bit-identical.
"""

from __future__ import annotations

import json
import math
import os
from typing import Optional

from .engine import PlantModel, Scenario
from .errors import ConfigError, GeometryError
from .geometry import Pose, UnitQuat, Vec3
from .guidance import GuidanceThresholds
from .operator_env import EnvironmentModel, OperatorModel
from .workpiece import (
    CylinderPatch,
    SpherePatch,
    load_off,
    load_stl,
    make_drill_target,
    transform_mesh,
)

SCHEMA_VERSION = 1

_THRESHOLD_DEFAULTS = {
    "adapt_radius": 0.10,
    "lock_radius": 0.05,
    "align_duration": 4.0,
    "standoff": 0.05,
    "release_radius": 0.11,
}
_OPERATOR_DEFAULTS = {
    "variant": None,  # filled per condition
    "k_p": 200.0,
    "k_d": 40.0,
    "torque_k_p": 8.0,
    "torque_k_d": 1.0,
    "reaction_delay": 0.25,
    "angular_noise": 6.0,
    "force_cap": 40.0,
    "torque_cap": 5.0,
    "push_force": 25.0,
    "align_dwell": 6.0,
    "align_dwell_jitter": 2.0,
}
_ENVIRONMENT_DEFAULTS = {
    "contact_stiffness": 5e4,
    "contact_damping": 200.0,
    "cut_resistance": 800.0,
    "thrust_threshold": 5.0,
    "hole_depth_goal": 0.010,
    "hole_radius": 0.006,
}
_PLANT_DEFAULTS = {"lag_time_constant": 0.05}

_SURFACE_KEYS = {
    "cylinder": {"type", "axis_point", "axis_dir", "radius", "half_length"},
    "sphere": {"type", "center", "radius"},
    "stl": {"type", "path", "translate", "rotate_wxyz"},
    "off": {"type", "path", "translate", "rotate_wxyz"},
}

_TOP_KEYS = {
    "version",
    "condition",
    "seed",
    "dt",
    "max_sim_time",
    "start",
    "tool_axis",
    "frame_reference",
    "surface",
    "targets",
    "thresholds",
    "operator",
    "environment",
    "plant",
}


def _require(cond: bool, message: str, path: str) -> None:
    if not cond:
        raise ConfigError(message, path)


def _check_keys(section: dict, allowed, path: str) -> None:
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(
            f"unknown key(s) {sorted(unknown)}; allowed: {sorted(allowed)}", path
        )


def _vec3(value, path: str) -> Vec3:
    _require(
        isinstance(value, (list, tuple)) and len(value) == 3,
        "expected a 3-element array",
        path,
    )
    try:
        return Vec3(float(value[0]), float(value[1]), float(value[2]))
    except (TypeError, ValueError):
        raise ConfigError("components must be numbers", path)


def _number(value, path: str, minimum: Optional[float] = None) -> float:
    _require(isinstance(value, (int, float)) and math.isfinite(value), "expected a finite number", path)
    v = float(value)
    if minimum is not None:
        _require(v >= minimum, f"must be >= {minimum}", path)
    return v


def _fill_section(raw, defaults: dict, path: str) -> dict:
    raw = raw if raw is not None else {}
    _require(isinstance(raw, dict), "expected an object", path)
    _check_keys(raw, defaults, path)
    out = dict(defaults)
    out.update(raw)
    return out


def canonical_config(
    raw: dict,
    *,
    condition: Optional[str] = None,
    seed: Optional[int] = None,
) -> dict:
    """Validate a raw document and return the fully-defaulted canonical
    form. ``condition`` and ``seed`` override the document when given."""
    _require(isinstance(raw, dict), "scenario config must be a JSON object", "")
    _check_keys(raw, _TOP_KEYS, "")
    version = raw.get("version")
    _require(version == SCHEMA_VERSION, f"version must be {SCHEMA_VERSION}", "version")

    cond = condition if condition is not None else raw.get("condition", "with")
    _require(cond in ("with", "without"), "must be 'with' or 'without'", "condition")

    out = {
        "version": SCHEMA_VERSION,
        "condition": cond,
        "seed": int(seed if seed is not None else raw.get("seed", 0)),
        "dt": _number(raw.get("dt", 1e-3), "dt"),
        "max_sim_time": _number(raw.get("max_sim_time", 600.0), "max_sim_time"),
    }
    _require(out["dt"] > 0.0, "must be positive", "dt")
    _require(out["max_sim_time"] > 0.0, "must be positive", "max_sim_time")

    start = raw.get("start")
    _require(isinstance(start, dict), "missing required section", "start")
    _check_keys(start, {"position", "orientation_wxyz"}, "start")
    _require("position" in start, "missing start position", "start.position")
    pos = _vec3(start["position"], "start.position")
    quat = start.get("orientation_wxyz", [1.0, 0.0, 0.0, 0.0])
    _require(
        isinstance(quat, (list, tuple)) and len(quat) == 4,
        "expected a 4-element array (w, x, y, z)",
        "start.orientation_wxyz",
    )
    out["start"] = {
        "position": list(pos),
        "orientation_wxyz": [float(q) for q in quat],
    }

    out["tool_axis"] = list(_vec3(raw.get("tool_axis", [0.0, 0.0, 1.0]), "tool_axis"))
    out["frame_reference"] = list(
        _vec3(raw.get("frame_reference", [1.0, 0.0, 0.0]), "frame_reference")
    )

    surface = raw.get("surface")
    _require(isinstance(surface, dict), "missing required section", "surface")
    stype = surface.get("type")
    _require(stype in _SURFACE_KEYS, f"type must be one of {sorted(_SURFACE_KEYS)}", "surface.type")
    _check_keys(surface, _SURFACE_KEYS[stype], "surface")
    scopy = {"type": stype}
    if stype == "cylinder":
        scopy["axis_point"] = list(_vec3(surface.get("axis_point"), "surface.axis_point"))
        scopy["axis_dir"] = list(_vec3(surface.get("axis_dir"), "surface.axis_dir"))
        scopy["radius"] = _number(surface.get("radius"), "surface.radius", minimum=1e-9)
        scopy["half_length"] = _number(surface.get("half_length", 1.0), "surface.half_length")
    elif stype == "sphere":
        scopy["center"] = list(_vec3(surface.get("center"), "surface.center"))
        scopy["radius"] = _number(surface.get("radius"), "surface.radius", minimum=1e-9)
    else:
        path = surface.get("path")
        _require(isinstance(path, str) and path, "missing mesh path", "surface.path")
        scopy["path"] = path
        # optional rigid registration into the robot base frame
        scopy["translate"] = list(
            _vec3(surface.get("translate", [0.0, 0.0, 0.0]), "surface.translate")
        )
        quat = surface.get("rotate_wxyz", [1.0, 0.0, 0.0, 0.0])
        _require(
            isinstance(quat, (list, tuple)) and len(quat) == 4,
            "expected a 4-element array (w, x, y, z)",
            "surface.rotate_wxyz",
        )
        scopy["rotate_wxyz"] = [float(q) for q in quat]
    out["surface"] = scopy

    targets = raw.get("targets")
    _require(
        isinstance(targets, list) and len(targets) >= 1,
        "at least one target required",
        "targets",
    )
    tlist = []
    for i, tgt in enumerate(targets):
        tpath = f"targets[{i}]"
        _require(isinstance(tgt, dict), "expected an object", tpath)
        _check_keys(tgt, {"point", "phi_deg", "theta_deg"}, tpath)
        point = _vec3(tgt.get("point"), tpath + ".point")
        phi = _number(tgt.get("phi_deg", 0.0), tpath + ".phi_deg")
        _require(0.0 <= phi <= 90.0, "must be in [0, 90]", tpath + ".phi_deg")
        theta = _number(tgt.get("theta_deg", 0.0), tpath + ".theta_deg")
        _require(0.0 <= theta < 360.0, "must be in [0, 360)", tpath + ".theta_deg")
        tlist.append({"point": list(point), "phi_deg": phi, "theta_deg": theta})
    out["targets"] = tlist

    out["thresholds"] = _fill_section(raw.get("thresholds"), _THRESHOLD_DEFAULTS, "thresholds")
    op_defaults = dict(_OPERATOR_DEFAULTS)
    op_defaults["variant"] = "guided" if cond == "with" else "manual"
    out["operator"] = _fill_section(raw.get("operator"), op_defaults, "operator")
    _require(
        out["operator"]["variant"] in ("guided", "manual"),
        "must be 'guided' or 'manual'",
        "operator.variant",
    )
    out["environment"] = _fill_section(
        raw.get("environment"), _ENVIRONMENT_DEFAULTS, "environment"
    )
    out["plant"] = _fill_section(raw.get("plant"), _PLANT_DEFAULTS, "plant")
    _require(
        out["plant"]["lag_time_constant"] >= 0.0, "must be >= 0", "plant.lag_time_constant"
    )
    return out


def _build_surface(section: dict, base_dir: str):
    stype = section["type"]
    if stype == "cylinder":
        return CylinderPatch(
            Vec3(*section["axis_point"]),
            Vec3(*section["axis_dir"]),
            section["radius"],
            section["half_length"],
        )
    if stype == "sphere":
        return SpherePatch(Vec3(*section["center"]), section["radius"])
    path = section["path"]
    if not os.path.isabs(path):
        path = os.path.join(base_dir, path)
    if not os.path.exists(path):
        raise ConfigError(f"surface file not found: {path}", "surface.path")
    try:
        mesh = load_stl(path) if stype == "stl" else load_off(path)
    except GeometryError as exc:
        raise ConfigError(str(exc), "surface.path") from exc
    q = UnitQuat(*section["rotate_wxyz"])
    t = Vec3(*section["translate"])
    if q != UnitQuat.identity() or t != Vec3.zero():
        if abs(q.norm() - 1.0) > 1e-6:
            raise ConfigError("rotation quaternion must be unit length", "surface.rotate_wxyz")
        mesh = transform_mesh(mesh, q, t)
    return mesh


def scenario_from_config(cfg: dict, base_dir: str = ".") -> Scenario:
    """Instantiate a Scenario from a canonical config document."""
    surface = _build_surface(cfg["surface"], base_dir)
    start_pos = Vec3(*cfg["start"]["position"])
    start_quat = UnitQuat(*cfg["start"]["orientation_wxyz"])
    if abs(start_quat.norm() - 1.0) > 1e-6:
        raise ConfigError("orientation quaternion must be unit length", "start.orientation_wxyz")
    reference = Vec3(*cfg["frame_reference"])

    targets = []
    for i, tgt in enumerate(cfg["targets"]):
        point = Vec3(*tgt["point"])
        approach = start_pos - point
        try:
            target = make_drill_target(
                surface,
                point,
                tgt["phi_deg"],
                tgt["theta_deg"],
                reference=reference,
                approach_side=approach,
            )
        except Exception as exc:
            raise ConfigError(str(exc), f"targets[{i}]")
        targets.append(target)

    op = OperatorModel(seed=cfg["seed"], **cfg["operator"])
    env = EnvironmentModel(**cfg["environment"])
    thresholds = GuidanceThresholds(**cfg["thresholds"])
    plant = PlantModel(**cfg["plant"])
    return Scenario(
        surface=surface,
        targets=tuple(targets),
        condition=cfg["condition"],
        operator=op,
        environment=env,
        plant=plant,
        thresholds=thresholds,
        dt=cfg["dt"],
        start_pose=Pose(start_pos, start_quat),
        max_sim_time=cfg["max_sim_time"],
        tool_axis_local=Vec3(*cfg["tool_axis"]),
        config=cfg,
    )


def load_scenario(
    path: str,
    *,
    condition: Optional[str] = None,
    seed: Optional[int] = None,
) -> Scenario:
    """Read, validate, and resolve a scenario file."""
    if not os.path.exists(path):
        raise ConfigError(f"scenario file not found: {path}", "")
    try:
        with open(path, "r") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON (line {exc.lineno}, col {exc.colno}): {exc.msg}", "")
    cfg = canonical_config(raw, condition=condition, seed=seed)
    return scenario_from_config(cfg, base_dir=os.path.dirname(os.path.abspath(path)))


def sweepable_fields() -> list:
    """Dotted paths a parameter sweep may vary."""
    out = ["dt", "max_sim_time"]
    out += [f"thresholds.{k}" for k in _THRESHOLD_DEFAULTS]
    out += [f"operator.{k}" for k in _OPERATOR_DEFAULTS if k != "variant"]
    out += [f"environment.{k}" for k in _ENVIRONMENT_DEFAULTS]
    out += [f"plant.{k}" for k in _PLANT_DEFAULTS]
    return sorted(out)


def apply_override(cfg_raw: dict, dotted: str, value: float) -> dict:
    """Return a copy of a raw config with one numeric field replaced."""
    if dotted not in sweepable_fields():
        raise ConfigError(
            f"not a sweepable field; choose one of {sweepable_fields()}", dotted
        )
    out = json.loads(json.dumps(cfg_raw))
    node = out
    parts = dotted.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
    node[parts[-1]] = value
    return out
