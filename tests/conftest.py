import time

import pytest

import golden
from gds.engine import run
from gds.metrics import compute_metrics
from gds.presets import experiment_one_scenario


@pytest.fixture(scope="session")
def seed_sweep():
    """20 seeds x both conditions with default models: the metrics per
    condition, the wall time, and each session's golden bits."""
    metrics = {"with": [], "without": []}
    bits = {}
    t0 = time.perf_counter()
    for seed in golden.C7_SEEDS:
        for condition in golden.CONDITIONS:
            sc = experiment_one_scenario(condition, seed=seed)
            trace = run(sc)
            assert trace.complete, f"{condition}/seed{seed} did not complete"
            metrics[condition].append(compute_metrics(trace, sc.targets))
            bits[golden.session_name("preset", condition, seed)] = golden.session_bits(trace)
    wall = time.perf_counter() - t0
    return metrics, wall, bits
