"""The program names that ``perfbench/tracer.py`` rebinds from outside.

The traced benchmark times each layer by wrapping these attributes; a
refactor that inlines one of them, or calls it through another name, drops
that layer's metric without an error. Here each name is wrapped in a
counter through the same attribute, and a short manual and a short guided
preset run must reach every one of them. The tracer rebinds
``owner.__dict__[attr]``, so the names the command line reaches must also be
the owner's own attributes.
"""

import json

import numpy as np
import pytest

from gds import cli, engine, operator_env
from gds.admittance import phase_params
from gds.guidance import GuidancePhase
from gds.presets import experiment_one_raw, experiment_one_scenario
from test_operator_env import reference_target_coordinates

# (owner, attribute) -> the conditions whose first 12 s reach it
TRACED = {
    (engine.World, "step"): ("without", "with"),
    (operator_env.VirtualOperator, "wrench"): ("without", "with"),
    (engine, "environment_wrench"): ("without", "with"),
    (engine, "update_hole"): ("without", "with"),
    (engine, "step_admittance"): ("without", "with"),
    (engine, "step_axial"): ("with",),
    (engine, "gains_at"): ("without", "with"),
    (engine, "update_phase"): ("without", "with"),
    (engine, "check_transition"): ("without", "with"),
    (engine, "plan_alignment"): ("with",),
    (engine, "sample_alignment"): ("with",),
    (engine, "alignment_twist"): ("with",),
    (operator_env, "drilling_axis"): ("without",),
}

# (owner, attribute) reached by one ``gds compare`` or ``gds run`` call
CLI_TRACED = (
    (engine.Trace, "to_csv"),
    (engine.Trace, "checksum"),
    (cli, "run_scenario"),
    (cli, "compute_metrics"),
    (cli, "load_scenario"),
    (cli, "main"),
)
SWEEP_TRACED = (
    (cli, "run_scenario"), (cli, "compute_metrics"), (cli, "load_scenario"), (cli, "main")
)


def count_calls(monkeypatch, keys, get=getattr):
    """Wrap each (owner, attribute) in a counter; return the counts."""
    calls = dict.fromkeys(keys, 0)

    def counting(key, fn):
        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return counted

    for key in keys:
        owner, attr = key
        monkeypatch.setattr(owner, attr, counting(key, get(owner, attr)))
    return calls


@pytest.mark.parametrize("condition", ["without", "with"])
def test_every_traced_name_is_reached(condition, monkeypatch):
    calls = count_calls(monkeypatch, TRACED)
    # 12 s of simulated time: past the first cut of either condition
    trace = engine.run(experiment_one_scenario(condition, seed=0, max_sim_time=12.0))
    assert not trace.complete
    missed = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for (owner, attr), conditions in TRACED.items()
        if condition in conditions and calls[(owner, attr)] == 0
    ]
    assert missed == []


@pytest.mark.parametrize(
    "verb, extra, traced",
    [
        ("compare", [], CLI_TRACED),
        ("run", ["--condition", "both"], CLI_TRACED),
        ("sweep", ["--param", "operator.push_force", "--values", "25"], SWEEP_TRACED),
    ],
    ids=["compare", "run", "sweep"],
)
def test_cli_traced_names_are_own_and_reached(verb, extra, traced, tmp_path, monkeypatch):
    assert [attr for owner, attr in traced if attr not in vars(owner)] == []
    calls = count_calls(monkeypatch, traced, lambda owner, attr: vars(owner)[attr])
    raw = experiment_one_raw("with", 0)
    raw["max_sim_time"] = 0.5
    scenario = tmp_path / "short.json"
    scenario.write_text(json.dumps(raw))
    out = tmp_path / "out"
    argv = [verb, "--scenario", str(scenario), "--seeds", "0", "--out", str(out), *extra]
    assert cli.main(argv) == cli.EXIT_SIM_FAULT  # cut short: every run incomplete
    if verb != "sweep":
        assert (out / "without" / "seed_0" / "trace.csv").exists()
    assert [f"{owner.__name__}.{attr}" for (owner, attr), n in calls.items() if n == 0] == []


def settling_steps(trace, phases, condition):
    """The steps that run while a gain ramp has not settled: a ramp starts
    at each ``phase:`` event, toward the gains of the phase its first step
    runs in (FreeMotion after a target switch), and settles 1 s later, or
    at once when its start gains (the trace's at its first step) equal its
    end gains."""
    t = trace.data["t"]
    b_t, b_r = trace.data["b_vx"], trace.data["b_wx"]
    starts = [t_r for t_r, _ in trace.events_of_kind("phase:")]
    settles = [0.0]  # the first gain set holds from the start
    for t_r in starts:
        i = int(np.searchsorted(t, t_r))  # the ramp's first step, if any
        if i == len(t):
            settles.append(t_r)
            continue
        assert t[i] == t_r
        end = phase_params(phases[i], condition)
        same = (b_t[i], b_r[i]) == end
        settles.append(t_r if same else t_r + 1.0)
    governing = np.searchsorted(starts, t, side="right")
    return int(np.count_nonzero(t < np.asarray(settles)[governing]))


@pytest.mark.parametrize("condition", ["without", "with"])
def test_per_step_call_counts(condition, monkeypatch):
    # the traced per-layer counts (engine.steps, operator_env.wrench_calls,
    # operator_env.update_hole_calls, admittance.*_calls,
    # guidance.align_steps) follow from the samples
    calls = count_calls(monkeypatch, TRACED)
    sc = experiment_one_scenario(condition, seed=0)
    world = engine.World(sc)
    trace = world.run()
    assert trace.complete
    n = len(trace)
    phases = [engine._PHASE_ORDER[code] for code in trace.phase_codes]
    axial = 0
    if condition == "with":
        axial = sum(p in (GuidancePhase.CONSTRAINED_DRILL, GuidancePhase.RETRACT) for p in phases)
    locked = phases.count(GuidancePhase.AUTO_ALIGN)
    # one ramp per transition: a target switch's ``new_target:`` event
    # shares its ``phase:target_done`` event's ramp
    ramps = len(trace.events_of_kind("phase:"))
    assert locked == (world.align_steps * len(sc.targets) if condition == "with" else 0)
    for key in (
        (engine.World, "step"),
        (engine, "environment_wrench"),
        (engine, "update_phase"),
    ):
        assert calls[key] == n, key
    # the locked alignment does not ask the operator
    assert calls[(operator_env.VirtualOperator, "wrench")] == n - locked
    assert calls[(engine, "gains_at")] == settling_steps(trace, phases, condition) + ramps
    assert calls[(engine, "step_axial")] == axial
    assert calls[(engine, "sample_alignment")] == calls[(engine, "alignment_twist")] == locked
    assert calls[(engine, "step_admittance")] == n - axial - locked
    # one cut update per step that ends in the hole, by the oracle: at the
    # next sample's position (the run's end pose after the last step),
    # measured from the step's own target
    d = trace.data
    ends = np.stack([d["px"], d["py"], d["pz"]], axis=1).tolist()[1:] + [world.pose[0]]
    in_hole = 0
    for end, i in zip(ends, trace.target_idx.tolist()):
        target = sc.targets[i]
        ax_pos, on_target, _ = reference_target_coordinates(
            end, target.point, target.axis, sc.environment.hole_radius
        )
        in_hole += on_target and ax_pos > 0.0
    assert 0 < in_hole < n
    assert calls[(engine, "update_hole")] == in_hole
    if condition == "with":
        assert (n, ramps, locked) == (33954, 15, 12000)
