"""Deterministic simulator for human-robot collaborative drilling on curved
surfaces: adaptive 6-DoF admittance control, haptic-guidance state machine,
drilling geometry, virtual operator/environment models, and a metrics
harness comparing the with/without-guidance conditions."""

from .admittance import (
    AdmittanceParams,
    AdmittanceState,
    GainSchedule,
    gains_at,
    phase_params,
    step_admittance,
)
from .engine import PlantModel, Scenario, Trace, TraceSample, World, run
from .errors import ConfigError, GeometryError, SimulationFault
from .geometry import (
    Frame3,
    Pose,
    Twist6,
    UnitQuat,
    Vec3,
    Wrench6,
    angle_between,
    project_onto_axis,
    rotate,
    slerp,
)
from .guidance import (
    AlignmentPlan,
    GuidancePhase,
    GuidanceThresholds,
    plan_alignment,
    sample_alignment,
    update_phase,
)
from .metrics import ComparisonReport, Metrics, compare, compute_metrics
from .operator_env import (
    EnvironmentModel,
    OperatorModel,
    VirtualOperator,
    environment_wrench,
    update_hole,
)
from .presets import experiment_one_raw, experiment_one_scenario
from .workpiece import (
    CylinderPatch,
    DrillTarget,
    SampledPatch,
    SpherePatch,
    Surface,
    TriangleMesh,
    build_target_frame,
    drilling_axis,
    fit_plane,
    make_drill_target,
    recover_angles,
    surface_normal,
)

__version__ = "0.1.0"
