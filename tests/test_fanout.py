"""Every command of several cases fans out: the groups one process would
march whole (each N of an exact-error run, or a posterior chain), or
parts of them split while there are fewer parts than usable cores, run
in min(parts, usable cores) processes, with the same outputs and exit
codes for any number of them."""

import errno
import os
import pickle
import signal

import pytest

import bbmb.cli
import bbmb.grid
from bbmb.cli import _bins, _parts, main
from bbmb.config import ConfigError
from bbmb.linalg import CyclicReductionSolver, SingularSystemError
from bbmb.scheme import SolverFailure

from test_lockstep import _corrupt_solver

STABILITY = "experiment = example1\nT = 1\nM = 4 8 16\nN = 8 16 32 64\n"
TEMPORAL = "experiment = example1\nT = 1\nM = 32\nN = 10 20 40\n"
SPATIAL = "experiment = example1\nT = 1\nM = 8 16 32 64\nN = 50\n"
POSTERIOR_SPATIAL = ("experiment = example2\nT = 0.5\nM = 16 32 64 128\nN = 20\n"
                     "posterior = on\n")
POSTERIOR_TEMPORAL = ("experiment = example2\nT = 0.5\nM = 32\nN = 10 20 40 80\n"
                      "posterior = on\n")


@pytest.mark.parametrize("exc", [SolverFailure("step 2: y"), SingularSystemError("z"),
                                 ConfigError(["a", "b"])],
                         ids=lambda exc: type(exc).__name__)
def test_exit_code_errors_survive_pickle(exc):
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert getattr(back, "violations", None) == getattr(exc, "violations", None)


def test_bins_put_the_largest_cost_first_on_the_least_loaded_bin():
    costs = {n: n for n in (8, 16, 32, 64, 128)}
    assert _bins(costs, 1) == [[128, 64, 32, 16, 8]]
    assert _bins(costs, 2) == [[128], [64, 32, 16, 8]]
    assert _bins(costs, 3) == [[128], [64], [32, 16, 8]]


def test_a_lone_group_is_split_by_cost_until_every_core_has_a_part():
    narrow = [(m, 1000) for m in (8, 16, 32, 64)]

    def ms(w):
        return [[m for m, _ in part] for part in _parts([narrow], w, 0)]

    assert ms(1) == [[8, 16, 32, 64]]
    assert ms(2) == [[8, 16, 32], [64]]
    assert ms(3) == [[8, 16], [32], [64]]
    assert ms(8) == [[8], [16], [32], [64]]  # never more parts than cases


def test_groups_are_left_whole_when_there_are_as_many_as_cores():
    groups = [[(m, n) for m in (4, 8, 16)] for n in (8, 16, 32, 64)]
    assert _parts(groups, 2, 0) == _parts(groups, 4, 0) == groups
    assert len(_parts(groups, 8, 0)) == 8
    assert sorted(size for part in _parts(groups, 8, 0) for size in part) == sorted(
        size for group in groups for size in group)


def _halving_parts(groups, w):
    """The earlier rule: while there are fewer than w parts, the costliest
    part of two or more cases is split in two by _bins on each case's cost."""
    parts = list(groups)
    while len(parts) < w:
        splittable = [i for i, part in enumerate(parts) if len(part) > 1]
        if not splittable:
            break
        i = max(splittable, key=lambda i: sum(m * n for m, n in parts[i]))
        part = parts[i]
        halves = _bins({j: m * n for j, (m, n) in enumerate(part)}, 2)
        parts[i:i + 1] = [[part[j] for j in sorted(half)] for half in halves]
    return parts


@pytest.mark.parametrize("ms, ns", [((8, 16, 32, 64), (1000,)),
                                    ((4, 8, 16, 32, 64, 128), (8, 16, 32, 64, 128))],
                         ids=["forced-narrow", "sweep-many"])
@pytest.mark.parametrize("w", range(1, 9))
def test_splitting_off_the_last_case_gives_the_halving_part_sets(ms, ns, w):
    groups = [[(m, n) for m in ms] for n in ns]

    def sets(parts):
        return sorted(sorted(part) for part in parts)

    assert sets(_parts(groups, w, 0)) == sets(_halving_parts(groups, w))


def test_a_posterior_chain_splits_into_parts_that_share_their_boundary_case():
    chain = [(m, 2000) for m in (40, 80, 160, 320, 640, 1280)]

    def ms(w):
        return [[m for m, _ in part] for part in _parts([chain], w, 1)]

    assert ms(1) == [[40, 80, 160, 320, 640, 1280]]
    assert ms(2) == [[40, 80, 160, 320, 640], [640, 1280]]
    assert ms(3) == [[40, 80, 160, 320], [320, 640], [640, 1280]]
    assert ms(8) == [[40, 80], [80, 160], [160, 320], [320, 640], [640, 1280]]


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


# a part holds at least one case, or one neighbouring pair of a
# posterior chain, so a chain of four runs has at most three parts
@pytest.mark.parametrize("mode, text, max_parts", [("stability", STABILITY, 12),
                                                   ("convergence", TEMPORAL, 3),
                                                   ("convergence", SPATIAL, 4),
                                                   ("convergence", POSTERIOR_SPATIAL, 3),
                                                   ("convergence", POSTERIOR_TEMPORAL, 3)],
                         ids=["stability", "temporal", "spatial", "posterior-spatial",
                              "posterior-temporal"])
def test_outputs_do_not_depend_on_the_number_of_processes(monkeypatch, tmp_path,
                                                          mode, text, max_parts):
    runs = {}
    for w in (1, 2, 4, 8):
        _cores(monkeypatch, w)
        forks = _count_forks(monkeypatch)
        runs[w] = _run(tmp_path, f"w{w}", mode, text)
        assert len(forks) == min(max_parts, w) - 1
        _no_child_left()
    assert runs[1][1]  # the run wrote its files
    assert runs[1] == runs[2] == runs[4] == runs[8]


def test_a_group_that_fails_in_this_process_is_marched_once(monkeypatch, tmp_path):
    _corrupt_solver(monkeypatch, 16, "u_and_v")
    marched = []
    march = bbmb.cli.march

    def counted(phi, batch, params):
        marched.append(batch.N)
        return march(phi, batch, params)

    monkeypatch.setattr(bbmb.cli, "march", counted)
    _cores(monkeypatch, 1)
    code, _ = _run(tmp_path, "out", "stability", STABILITY)
    assert code == 3
    assert marched == [8]  # and no group after it


def test_each_process_stops_marching_at_its_first_failing_part(monkeypatch, tmp_path):
    # on two cores the child holds N = 32, 16 and 8 and stops after N = 8,
    # which fails first in config order; this process marches N = 64 and
    # raises the error the child returned for N = 8, without marching it
    _corrupt_solver(monkeypatch, 16, "u_and_v")
    log = tmp_path / "marches"
    march = bbmb.cli.march

    def logged(phi, batch, params):
        with open(log, "a") as fh:
            fh.write(f"{batch.N}\n")
        return march(phi, batch, params)

    monkeypatch.setattr(bbmb.cli, "march", logged)
    reports, marched = {}, {}
    for w in (1, 2):
        _cores(monkeypatch, w)
        log.write_text("")
        code, files = _run(tmp_path, f"w{w}", "stability", STABILITY)
        assert code == 3
        reports[w] = files["report.txt"]
        marched[w] = sorted(int(n) for n in log.read_text().split())
        _no_child_left()
    assert reports[1] == reports[2]
    assert marched == {1: [8], 2: [8, 64]}


@pytest.mark.parametrize("w", [1, 2])
def test_solver_failure_exits_3_with_the_same_report(monkeypatch, tmp_path, capfd, w):
    _corrupt_solver(monkeypatch, 16, "u_and_v")
    _cores(monkeypatch, w)
    code, files = _run(tmp_path, "out", "stability", STABILITY)
    assert code == 3
    report = files["report.txt"].decode().splitlines()
    assert report[1].startswith("FAIL  solver: step 1: solve residual")
    assert report[1].endswith("(case M = 16, N = 8)")
    assert "Traceback" not in capfd.readouterr().err
    _no_child_left()


def _fail_at_n(monkeypatch, n):
    """Make the batch of N = n raise when it starts to march."""
    levels = bbmb.cli._levels

    def failing(config, batch):
        if batch.N == n:
            raise SolverFailure(f"step {batch.N}: failed at N = {batch.N}")
        return levels(config, batch)

    monkeypatch.setattr(bbmb.cli, "_levels", failing)


# M = 32 and N = 40 are in two parts each once the chains are split in three
@pytest.mark.parametrize("text, fault, reported", [
    (POSTERIOR_SPATIAL, lambda mp: _corrupt_solver(mp, 32, "u_and_v"),
     "step 1: solve residual"),
    (POSTERIOR_TEMPORAL, lambda mp: _fail_at_n(mp, 40), "step 40: failed at N = 40")],
    ids=["spatial", "temporal"])
def test_posterior_solver_failure_exits_3_with_the_same_report(monkeypatch, tmp_path,
                                                              capfd, text, fault, reported):
    fault(monkeypatch)
    reports = {}
    for w in (1, 2, 4):
        _cores(monkeypatch, w)
        code, files = _run(tmp_path, f"w{w}", "convergence", text)
        assert code == 3
        reports[w] = files["report.txt"]
        _no_child_left()
    assert reports[1] == reports[2] == reports[4]
    assert reports[1].decode().splitlines()[1].startswith(f"FAIL  solver: {reported}")
    assert "Traceback" not in capfd.readouterr().err


@pytest.mark.parametrize("w", [1, 2])
def test_first_failing_n_in_config_order_is_reported(monkeypatch, tmp_path, w):
    # with two processes, N = 64 fails in this one and N = 16 in the child
    levels = bbmb.cli._levels

    def failing(config, batch):
        if batch.N in (16, 64):
            raise SolverFailure(f"step {batch.N}: failed at N = {batch.N}")
        return levels(config, batch)

    monkeypatch.setattr(bbmb.cli, "_levels", failing)
    _cores(monkeypatch, w)
    code, files = _run(tmp_path, "out", "stability", STABILITY)
    assert code == 3
    assert files["report.txt"].decode().splitlines()[1] == (
        "FAIL  solver: step 16: failed at N = 16")
    _no_child_left()


def _kill_children(monkeypatch):
    """Make every forked worker kill itself when it starts to march."""
    parent = os.getpid()
    levels = bbmb.cli._levels

    def killed(config, batch):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return levels(config, batch)

    monkeypatch.setattr(bbmb.cli, "_levels", killed)


@pytest.mark.parametrize("mode, text", [("stability", STABILITY), ("convergence", SPATIAL),
                                        ("convergence", POSTERIOR_SPATIAL),
                                        ("convergence", POSTERIOR_TEMPORAL)],
                         ids=["stability", "spatial", "posterior-spatial",
                              "posterior-temporal"])
def test_killed_worker_gives_the_one_process_outputs(monkeypatch, tmp_path, capfd,
                                                     mode, text):
    # stability's child runs whole groups, the chains' a split part
    _kill_children(monkeypatch)
    runs = {}
    for w in (1, 2):
        _cores(monkeypatch, w)
        forks = _count_forks(monkeypatch)
        runs[w] = _run(tmp_path, f"w{w}", mode, text)
        assert len(forks) == w - 1
        _no_child_left()
    assert runs[1][1]
    assert runs[1] == runs[2]
    assert "Traceback" not in capfd.readouterr().err


def test_killed_worker_then_a_later_failing_group_gives_the_one_process_report(
        monkeypatch, tmp_path):
    # with two processes the child, which kills itself, has N = 8 16 32,
    # and N = 64, last in config order, fails in this process
    _kill_children(monkeypatch)
    levels = bbmb.cli._levels

    def failing(config, batch):
        if batch.N == 64:
            raise SolverFailure("step 64: failed at N = 64")
        return levels(config, batch)

    monkeypatch.setattr(bbmb.cli, "_levels", failing)
    runs = {}
    for w in (1, 2):
        _cores(monkeypatch, w)
        runs[w] = _run(tmp_path, f"w{w}", "stability", STABILITY)
        _no_child_left()
    assert runs[1] == runs[2]
    code, files = runs[2]
    assert code == 3
    assert files["report.txt"].decode().splitlines()[1] == (
        "FAIL  solver: step 64: failed at N = 64")


def test_children_are_reaped_when_this_process_fails(monkeypatch, tmp_path):
    # an error outside the parts' own work, in this process's bin
    def interrupted(config, part):
        raise KeyboardInterrupt

    monkeypatch.setattr(bbmb.cli, "_errors", interrupted)
    _cores(monkeypatch, 2)
    forks = _count_forks(monkeypatch)
    code, _ = _run(tmp_path, "out", "stability", STABILITY)
    assert code == 130
    assert len(forks) == 1
    _no_child_left()


def _singular_solver(monkeypatch, m):
    """Make every solve of the M = m case meet a singular pivot."""
    solve = CyclicReductionSolver.solve

    def singular(self, out=None):
        if self.m == m:
            raise SingularSystemError("singular 2x2 pivot")
        return solve(self, out)

    monkeypatch.setattr(CyclicReductionSolver, "solve", singular)


# With two processes the spatial chain runs as the parts {64}, in this
# process, and {8, 16, 32}, in the child.  The unsplit batch solves every
# case of a step before it checks their residuals, so a singular pivot is
# raised before a residual miss of the same step.
FAULTS = {
    "miss_16": ({16}, set(), "step 1: solve residual"),
    "singular_64_miss_16": ({16}, {64}, "step 1: singular 2x2 pivot (case M = 64, N = 50)"),
    "singular_16_miss_64": ({64}, {16}, "step 1: singular 2x2 pivot (case M = 16, N = 50)"),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_split_group_failure_gives_the_one_process_report(monkeypatch, tmp_path, capfd,
                                                          fault):
    missed, singular, reported = FAULTS[fault]
    for m in missed:
        _corrupt_solver(monkeypatch, m, "u_and_v")
    for m in singular:
        _singular_solver(monkeypatch, m)
    reports = {}
    for w in (1, 2):
        _cores(monkeypatch, w)
        forks = _count_forks(monkeypatch)
        code, files = _run(tmp_path, f"w{w}", "convergence", SPATIAL)
        assert code == 3
        assert len(forks) == w - 1
        reports[w] = files["report.txt"]
        _no_child_left()
    assert reports[1] == reports[2]
    assert reports[1].decode().splitlines()[1].startswith(f"FAIL  solver: {reported}")
    assert "Traceback" not in capfd.readouterr().err


# example1 with mu = 0.001 meets a singular pivot at M = 64: at step 2 for
# N = 4, and at step 4 for N = 8 and 16.  A posterior temporal chain drives
# its runs in step and reports N = 16.  The report names the case's M and
# N, on any number of cores.
FAILING = "experiment = example1\nT = 100\nmu = 0.001\n"


@pytest.mark.parametrize("mode, text, step, n", [
    ("stability", FAILING + "M = 8 16 32 64 128\nN = 4 8\n", 2, 4),
    ("convergence", FAILING + "M = 8 16 32 64 128\nN = 4\n", 2, 4),
    ("convergence", FAILING + "M = 8 16 32 64 128\nN = 4\nposterior = on\n", 2, 4),
    ("convergence", FAILING + "M = 64\nN = 4 8 16 32\n", 2, 4),
    ("convergence", FAILING + "M = 64\nN = 4 8 16 32\nposterior = on\n", 4, 16)],
    ids=["stability", "spatial", "posterior-spatial", "temporal", "posterior-temporal"])
@pytest.mark.parametrize("w", [1, 2])
def test_a_singular_pivot_is_reported_with_its_step_m_and_n(monkeypatch, tmp_path, capfd,
                                                            mode, text, step, n, w):
    _cores(monkeypatch, w)
    code, files = _run(tmp_path, "out", mode, text)
    assert code == 3
    report = files["report.txt"].decode().splitlines()
    assert report[1].startswith(f"FAIL  solver: step {step}: singular 2x2 pivot")
    assert report[1].endswith(f"(case M = 64, N = {n})")
    assert "Traceback" not in capfd.readouterr().err
    _no_child_left()


@pytest.mark.parametrize("fails_at", [1, 2])
@pytest.mark.parametrize("text", [STABILITY, FAILING + "M = 8 16 32 64 128\nN = 4 8 16\n"],
                         ids=["passing", "failing"])
def test_a_failing_fork_gives_the_one_process_outputs(monkeypatch, tmp_path, capfd, text,
                                                      fails_at):
    # out of process ids, os.fork raises EAGAIN; the run forks no more
    # children and marches the rest in this process
    monkeypatch.setattr(bbmb.cli, "_usable_cores", lambda: 1)
    want = _run(tmp_path, "one", "stability", text)
    calls = []
    fork = os.fork

    def failing():
        calls.append(None)
        if len(calls) == fails_at:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return fork()

    monkeypatch.setattr(os, "fork", failing)
    monkeypatch.setattr(bbmb.cli, "_usable_cores", lambda: 3)
    assert _run(tmp_path, "three", "stability", text) == want
    assert len(calls) == fails_at
    _no_child_left()
    assert "Traceback" not in capfd.readouterr().err


@pytest.mark.parametrize("mode, text", [("stability", STABILITY),
                                        ("stability", FAILING + "M = 8 16 32 64 128\nN = 4 8 16\n"),
                                        ("convergence", POSTERIOR_SPATIAL)],
                         ids=["stability", "failing-stability", "posterior-spatial"])
def test_outcomes_that_cannot_be_pickled_give_the_one_process_outputs(monkeypatch, tmp_path,
                                                                      capfd, mode, text):
    # a child whose pickle.dumps raises exits 1 and writes nothing, so its
    # parts have no outcome and their groups are marched again here
    parent = os.getpid()
    dumps = pickle.dumps

    def failing(*args, **kwargs):
        if os.getpid() != parent:
            raise pickle.PicklingError("cannot pickle")
        return dumps(*args, **kwargs)

    monkeypatch.setattr(pickle, "dumps", failing)
    runs = {}
    for w in (1, 2, 3):
        _cores(monkeypatch, w)
        forks = _count_forks(monkeypatch)
        runs[w] = _run(tmp_path, f"w{w}", mode, text)
        assert len(forks) == w - 1
        _no_child_left()
    assert runs[1][1]
    assert runs[1] == runs[2] == runs[3]
    assert "Traceback" not in capfd.readouterr().err


def test_a_memory_error_in_a_child_arrives_as_its_outcome(monkeypatch, tmp_path):
    # only the child fails to allocate, at M = 16 of N = 8, its first group;
    # a group marched again here would pass, so exit 3 means the child's
    # MemoryError reached this process
    parent = os.getpid()
    nodes = bbmb.grid.Grid1D.nodes

    def failing(self):
        if os.getpid() != parent and self.M == 16:
            raise MemoryError("Unable to allocate in the child")
        return nodes(self)

    monkeypatch.setattr(bbmb.grid.Grid1D, "nodes", failing)
    _cores(monkeypatch, 2)
    code, files = _run(tmp_path, "out", "stability", STABILITY)
    assert code == 3
    assert files["report.txt"].decode().splitlines()[1] == (
        "FAIL  memory: Unable to allocate in the child")
    _no_child_left()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd to count")
def test_fanned_out_runs_leave_no_file_descriptor_open(monkeypatch, tmp_path):
    # passing, failing and killed children, and a fork that fails
    def count():
        return len(os.listdir("/proc/self/fd"))

    _cores(monkeypatch, 4)
    before = count()
    _run(tmp_path, "passing", "stability", STABILITY)
    _run(tmp_path, "failing", "stability", FAILING + "M = 8 16 32 64 128\nN = 4 8 16\n")
    with monkeypatch.context() as mp:
        _kill_children(mp)
        _run(tmp_path, "killed", "convergence", POSTERIOR_SPATIAL)
    fork = os.fork
    calls = []

    def failing():
        calls.append(None)
        if len(calls) == 2:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return fork()

    monkeypatch.setattr(os, "fork", failing)
    _run(tmp_path, "unforked", "stability", STABILITY)
    assert len(calls) == 2
    _no_child_left()
    assert count() == before
