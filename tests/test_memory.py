"""Memory regressions: a run holds O(M) memory, whatever the step count,
and a step reuses its case's buffers instead of allocating new ones."""

import tracemalloc

import pytest

import bbmb.cli
import bbmb.scheme
from bbmb.cli import run_experiment
from bbmb.config import parse_config_text
from bbmb.scheme import StepWorkspace, init_state, march

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


# id -> (subcommand, config); n is 100 for the short run and 400 for the
# long one, half and twice are n/2 and 2n
CONFIGS = {
    "invariants": ("invariants", "experiment = example2\nT = 1\nM = 2000\nN = {n}\n"),
    "stability": ("stability", "experiment = example1\nT = 1\nM = 1000 2000\nN = {n}\n"),
    # the chain marches in lockstep and is compared level by level;
    # keeping every level of two neighbouring runs would add 300 levels
    # of 600 floats (1.4 MB) at N = 400
    "convergence": ("convergence",
                    "experiment = example2\nT = 1\nM = 100 200 400\nN = {n}\n"
                    "posterior = on\n"),
    # the runs are driven in step, one level each; keeping the levels of
    # the last two runs would add 900 levels of 100 floats (0.7 MB)
    "temporal": ("convergence",
                 "experiment = example2\nT = 1\nM = 100\nN = {half} {n} {twice}\n"
                 "posterior = on\n"),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_peak_memory_does_not_grow_with_steps(monkeypatch, tmp_path, name):
    # one process, so that tracemalloc sees the whole march
    monkeypatch.setattr(bbmb.cli, "_usable_cores", lambda: 1)
    mode, cfg = CONFIGS[name]
    short, long = (_peak_bytes(cfg.format(n=n, half=n // 2, twice=2 * n), mode, tmp_path / str(n))
                   for n in (100, 400))
    assert long < PEAK_GROWTH * short, (
        f"{name}: peak {long / 1e6:.2f} MB at N = 400 vs {short / 1e6:.2f} MB at N = 100")


# A steady-state step of march may allocate, beyond the workspace that
# march keeps for the whole case, at most this many packed step systems
# (2 * 7 * M floats): its (u, v) solution is 1/7 of one, and numpy's
# iterator buffers, which the solver's block products and its pivots'
# adjugates fill and free within each call, about as much (0.29 in all
# with numpy 2.4.6).
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


# At M = 5000 a case's workspace holds its packed step system, one flat
# scratch array that assembly, the gate and the solver's levels share
# (18 rows of M floats, 1.29 packed systems, sized by level 0's reduce
# buffers and reduced system; each reduced system later holds its
# solution) and
# the levels' odd-block factors: 3.21 packed systems in all (3.74 when
# the reduced systems alternated between two flat buffers of their own
# and each level owned its solution, 5.07 when every level kept its own
# reduced system and four product buffers, 6.00 when each solver had
# scratch of its own).
WORKSPACE_SYSTEMS = 3.3
# init_state's curvature solve sweeps its rows in chunks of Python floats
# and reads its constant coefficients broadcast from one stencil, so its
# peak is a few arrays of M floats: 0.83 packed systems (1.04 when the
# coefficients were three arrays of M floats, 2.72 when it held lists of
# all M rows).
INIT_PEAK_SYSTEMS = 1.0
# A run whose steps all refine holds, above its level 0, the workspace,
# its (u, v) levels and nothing else: 3.36 packed systems at M = 4096
# (3.89 before the levels' reduced systems and solutions moved into the
# scratch, 5.20 before the levels shared their reduced-system and
# product buffers, 6.20 when each refined case's solver kept a copy of
# the system whose right-hand side was the residual).
REFINED_HELD_SYSTEMS = 3.5


def _traced_bytes(make):
    """The bytes make() leaves allocated and the peak it reached, both
    above what was allocated before it ran."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        kept = make()
        now, peak = tracemalloc.get_traced_memory()
        del kept  # held until the memory is read
    finally:
        tracemalloc.stop()
    return now - held, peak - held


def test_step_workspace_shares_one_scratch_array():
    m = 5000
    grid, params = example2_grid(m, 20), example2_params()
    held, _ = _traced_bytes(lambda: StepWorkspace(grid, params))
    assert held <= WORKSPACE_SYSTEMS * 2 * 7 * m * 8, (
        f"the workspace holds {held / (2 * 7 * m * 8):.2f} packed systems")


def test_init_state_peaks_below_one_system():
    m = 5000
    grid = example2_grid(m, 20)
    _, peak = _traced_bytes(lambda: init_state(example2_phi, grid))
    assert peak <= INIT_PEAK_SYSTEMS * 2 * 7 * m * 8, (
        f"init_state peaked at {peak / (2 * 7 * m * 8):.2f} packed systems")


def test_refined_steps_hold_no_second_system(monkeypatch):
    # nu < 0 outside the paper's regime: both steps of this run miss their
    # budget and are refined (one more solve each)
    m = 4096
    grid = example2_grid(m, 2, T=0.1308)
    params = example2_params(mu=0.0002663, nu=-0.04764)
    solve, solves = bbmb.scheme.solve_cyclic_block_tridiagonal, []

    def counted(*args, **kwargs):
        solves.append(args[0].m)  # not the system, which would stay alive
        return solve(*args, **kwargs)

    monkeypatch.setattr(bbmb.scheme, "solve_cyclic_block_tridiagonal", counted)
    tracemalloc.start()
    try:
        steps = march(example2_phi, grid, params)
        next(steps)
        level0 = tracemalloc.get_traced_memory()[0]
        held = []
        for state in steps:
            held.append(tracemalloc.get_traced_memory()[0] - level0)
    finally:
        tracemalloc.stop()
    assert solves == [m] * 4  # each step solved twice
    worst = max(held) / (2 * 7 * m * 8)
    assert worst <= REFINED_HELD_SYSTEMS, f"a refined run held {worst:.2f} packed systems"
