"""Memory regression: a run holds O(M) memory, whatever the step count."""

import tracemalloc

import pytest

from bbmb.cli import run_experiment
from bbmb.config import parse_config_text

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
}


@pytest.mark.parametrize("mode", sorted(CONFIGS))
def test_peak_memory_does_not_grow_with_steps(tmp_path, mode):
    cfg = CONFIGS[mode]
    short = _peak_bytes(cfg.format(n=100), mode, tmp_path / "short")
    long = _peak_bytes(cfg.format(n=400), mode, tmp_path / "long")
    assert long < PEAK_GROWTH * short, (
        f"{mode}: peak {long / 1e6:.2f} MB at N = 400 vs {short / 1e6:.2f} MB at N = 100")
