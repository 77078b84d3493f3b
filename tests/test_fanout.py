"""Sweeps over several time grids: the lockstep group of each N runs in
one of min(groups, usable cores) processes, with the same outputs and
exit codes for any number of them."""

import os
import pickle
import signal

import pytest

import bbmb.cli
from bbmb.cli import _bins, main
from bbmb.config import ConfigError
from bbmb.linalg import SingularSystemError
from bbmb.scheme import DivergenceError, SolverFailure

from test_lockstep import _corrupt_solver

STABILITY = "experiment = example1\nT = 1\nM = 4 8 16\nN = 8 16 32 64\n"
TEMPORAL = "experiment = example1\nT = 1\nM = 32\nN = 10 20 40\n"


@pytest.mark.parametrize("exc", [DivergenceError(3, "x"), SolverFailure("step 2: y"),
                                 SingularSystemError("z"), ConfigError(["a", "b"])],
                         ids=lambda exc: type(exc).__name__)
def test_exit_code_errors_survive_pickle(exc):
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert getattr(back, "step", None) == getattr(exc, "step", None)
    assert getattr(back, "violations", None) == getattr(exc, "violations", None)


def test_bins_put_the_largest_cost_first_on_the_least_loaded_bin():
    costs = {n: n for n in (8, 16, 32, 64, 128)}
    assert _bins(costs, 1) == [[128, 64, 32, 16, 8]]
    assert _bins(costs, 2) == [[128], [64, 32, 16, 8]]
    assert _bins(costs, 3) == [[128], [64], [32, 16, 8]]


def _cores(monkeypatch, w):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(w)))


def _count_forks(monkeypatch):
    forks = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forks


def _run(tmp_path, name, mode, text):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(text)
    out = tmp_path / name
    code = main([mode, "--config", str(cfg), "--out", str(out)])
    return code, {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("mode, text, groups", [("stability", STABILITY, 4),
                                                ("convergence", TEMPORAL, 3)],
                         ids=["stability", "temporal"])
def test_outputs_do_not_depend_on_the_number_of_processes(monkeypatch, tmp_path,
                                                          mode, text, groups):
    runs = {}
    for w in (1, 2, 8):
        _cores(monkeypatch, w)
        forks = _count_forks(monkeypatch)
        runs[w] = _run(tmp_path, f"w{w}", mode, text)
        assert len(forks) == min(groups, w) - 1
        _no_child_left()
    assert runs[1][1]  # the run wrote its files
    assert runs[1] == runs[2] == runs[8]


@pytest.mark.parametrize("w", [1, 2])
def test_solver_failure_exits_3_with_the_same_report(monkeypatch, tmp_path, capfd, w):
    _corrupt_solver(monkeypatch, 16, "u_and_v")
    _cores(monkeypatch, w)
    code, files = _run(tmp_path, "out", "stability", STABILITY)
    assert code == 3
    report = files["report.txt"].decode().splitlines()
    assert report[1].startswith("FAIL  solver: step 1: solve residual")
    assert report[1].endswith("(case M = 16)")
    assert "Traceback" not in capfd.readouterr().err
    _no_child_left()


@pytest.mark.parametrize("w", [1, 2])
def test_first_failing_n_in_config_order_is_reported(monkeypatch, tmp_path, w):
    # with two processes, N = 64 fails in this one and N = 16 in the child
    levels = bbmb.cli._levels

    def failing(config, batch):
        if batch.N in (16, 64):
            raise DivergenceError(batch.N, f"failed at N = {batch.N}")
        return levels(config, batch)

    monkeypatch.setattr(bbmb.cli, "_levels", failing)
    _cores(monkeypatch, w)
    code, files = _run(tmp_path, "out", "stability", STABILITY)
    assert code == 3
    assert files["report.txt"].decode().splitlines()[1] == (
        "FAIL  solver: step 16: failed at N = 16")
    _no_child_left()


def test_worker_killed_without_a_result_exits_3(monkeypatch, tmp_path, capfd):
    parent = os.getpid()
    levels = bbmb.cli._levels

    def killed(config, batch):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return levels(config, batch)

    monkeypatch.setattr(bbmb.cli, "_levels", killed)
    _cores(monkeypatch, 2)
    code, files = _run(tmp_path, "out", "stability", STABILITY)
    assert code == 3
    assert files["report.txt"].decode().splitlines()[1] == (
        "FAIL  solver: the worker for N = 8 16 32 was killed by signal 9 (Killed) "
        "before it sent its errors")
    assert "Traceback" not in capfd.readouterr().err
    _no_child_left()


def test_children_are_reaped_when_this_process_fails(monkeypatch, tmp_path):
    # an error outside the groups' own work, in this process's bin
    def interrupted(config, groups, ns):
        raise KeyboardInterrupt

    monkeypatch.setattr(bbmb.cli, "_group_errors", interrupted)
    _cores(monkeypatch, 2)
    forks = _count_forks(monkeypatch)
    with pytest.raises(KeyboardInterrupt):
        _run(tmp_path, "out", "stability", STABILITY)
    assert len(forks) == 1
    _no_child_left()
