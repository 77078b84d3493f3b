"""Memory regressions: a run holds O(M) memory, whatever the step count,
and a step reuses its case's buffers instead of allocating new ones."""

import tracemalloc

import pytest

from bbmb.cli import run_experiment
from bbmb.config import parse_config_text
from bbmb.scheme import march

from conftest import example2_grid, example2_params, example2_phi

# The peak of a run N = 400 may exceed the peak at N = 100 by this factor.
# Keeping every level would add 300 levels of M floats (4.8 MB at M = 2000).
PEAK_GROWTH = 1.2


def _peak_bytes(text, mode, out_dir):
    config = parse_config_text(text)
    tracemalloc.start()
    try:
        assert run_experiment(config, mode, str(out_dir)) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


CONFIGS = {
    "invariants": "experiment = example2\nT = 1\nM = 2000\nN = {n}\n",
    "stability": "experiment = example1\nT = 1\nM = 1000 2000\nN = {n}\n",
    # the chain marches in lockstep and is compared level by level;
    # keeping every level of two neighbouring runs would add 300 levels
    # of 600 floats (1.4 MB) at N = 400
    "convergence": "experiment = example2\nT = 1\nM = 100 200 400\nN = {n}\nposterior = on\n",
}


@pytest.mark.parametrize("mode", sorted(CONFIGS))
def test_peak_memory_does_not_grow_with_steps(tmp_path, mode):
    cfg = CONFIGS[mode]
    short = _peak_bytes(cfg.format(n=100), mode, tmp_path / "short")
    long = _peak_bytes(cfg.format(n=400), mode, tmp_path / "long")
    assert long < PEAK_GROWTH * short, (
        f"{mode}: peak {long / 1e6:.2f} MB at N = 400 vs {short / 1e6:.2f} MB at N = 100")


# A steady-state step of march may allocate, beyond the workspace that
# march keeps for the whole case, at most this many packed step systems
# (2 * 7 * M floats): its (u, v) solution is 1/7 of one, and the
# solver's block products about as much (0.29 in all with numpy 2.4.6).
# Assembly and the residual gate work in the workspace's scratch rows.
STEP_TRANSIENT_SYSTEMS = 0.35


def test_march_step_allocates_less_than_two_systems():
    m = 5000
    grid, params = example2_grid(m, 20), example2_params()
    system_bytes = 2 * 7 * m * 8
    tracemalloc.start()
    try:
        steps = march(example2_phi, grid, params)
        for _ in range(3):
            next(steps)
        worst = 0
        for _ in range(10):
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            next(steps)
            worst = max(worst, tracemalloc.get_traced_memory()[1] - held)
    finally:
        tracemalloc.stop()
    assert worst < STEP_TRANSIENT_SYSTEMS * system_bytes, (
        f"a step allocated {worst / system_bytes:.2f} packed systems")
