"""Tests of the benchmark harness's own logic.

    python3 -m pytest -q perfbench/tests
"""

import random
import statistics
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from spread import quartile_spread  # noqa: E402
from tracer import Tracer, layer_metrics, self_times  # noqa: E402
from workloads import CHECK_SEED, write_crest_stl  # noqa: E402


def test_self_time_subtracts_only_direct_children():
    # root [0, 100] > a [10, 40] > a1 [15, 25]; root > b [50, 90]
    start = [0, 10, 15, 50]
    end = [100, 40, 25, 90]
    parent = [-1, 0, 1, 0]
    assert self_times(start, end, parent).tolist() == [30, 20, 10, 40]


def test_self_time_clips_children_to_the_parent():
    # a child that overhangs its parent only covers the overlapping part
    assert self_times([0, 5], [10, 15], [-1, 0]).tolist() == [5, 10]


def test_recorded_spans_nest_and_never_go_negative():
    tracer = Tracer()

    def leaf():
        return sum(range(1000))

    traced_leaf = tracer.wrap("leaf", leaf)

    def mid():
        return traced_leaf() + traced_leaf()

    traced_mid = tracer.wrap("mid", mid)

    def job():
        traced_mid()
        traced_leaf()

    tracer.job_id = 1
    tracer.wrap("job", job)()
    a = tracer.arrays()
    names = [tracer.names[i] for i in a["name_id"]]
    assert names == ["job", "mid", "leaf", "leaf", "leaf"]
    assert a["parent"].tolist() == [-1, 0, 1, 1, 0]
    own = self_times(a["start_ns"], a["end_ns"], a["parent"])
    assert (own >= 0).all()
    assert own.sum() == a["end_ns"][0] - a["start_ns"][0]
    metrics = layer_metrics(tracer, n_jobs=1)
    assert metrics["engine.steps"] == (0.0, "count")


def test_quartile_spread_matches_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
    q1, med, q3, spread = quartile_spread(values)
    expected = statistics.quantiles(values, n=4)
    assert (q1, q3) == (expected[0], expected[2])
    assert med == statistics.median(values)
    assert spread == pytest.approx((q3 - q1) / med)
    assert quartile_spread(list(range(1, 11)))[1:] == (5.5, 8.25, 1.0)


@pytest.mark.parametrize("seed", [CHECK_SEED, 0, 1, 2, 3, 7, 11, 19, 2023])
def test_crest_mesh_keeps_every_target_within_tolerance(tmp_path, seed):
    from gds.config import canonical_config, scenario_from_config
    from gds.geometry import Vec3
    from gds.presets import CYLINDER_RADIUS, experiment_one_raw
    from gds.workpiece import load_stl

    path = tmp_path / "crest.stl"
    n = write_crest_stl(str(path), random.Random(seed), CYLINDER_RADIUS)
    mesh = load_stl(str(path))
    assert n == len(mesh.triangles) == 32
    raw = experiment_one_raw("with", 0)
    for target in raw["targets"]:
        p = Vec3(*target["point"])
        q, _ = mesh.closest_point(p)
        assert (p - q).norm() <= 0.005
    # the program's own check: resolving the targets on the mesh succeeds
    raw["surface"] = {"type": "stl", "path": str(path)}
    scenario = scenario_from_config(canonical_config(raw))
    assert len(scenario.targets) == len(raw["targets"])
