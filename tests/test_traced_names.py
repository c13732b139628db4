"""The program names that ``perfbench/tracer.py`` rebinds from outside.

The traced benchmark times each layer by wrapping these attributes; a
refactor that inlines one of them, or calls it through another name, drops
that layer's metric without an error. Here each name is wrapped in a
counter through the same attribute, and a short manual and a short guided
preset run must reach every one of them.
"""

import pytest

from gds import engine, operator_env
from gds.presets import experiment_one_scenario

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


@pytest.mark.parametrize("condition", ["without", "with"])
def test_every_traced_name_is_reached(condition, monkeypatch):
    calls = {}

    def counting(key, fn):
        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return counted

    for key in TRACED:
        owner, attr = key
        calls[key] = 0
        monkeypatch.setattr(owner, attr, counting(key, getattr(owner, attr)))
    # 12 s of simulated time: past the first cut of either condition
    trace = engine.run(experiment_one_scenario(condition, seed=0, max_sim_time=12.0))
    assert not trace.complete
    missed = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for (owner, attr), conditions in TRACED.items()
        if condition in conditions and calls[(owner, attr)] == 0
    ]
    assert missed == []
