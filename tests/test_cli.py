"""CLI subcommands: outputs, determinism, exit codes."""

import contextlib
import functools
import io
import os
import pathlib
import subprocess
import sys
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bbmb.cli
import bbmb.scheme
from bbmb.cli import main
from bbmb.grid import Grid1D
from bbmb.linalg import SingularSystemError


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_run_emits_snapshots_and_energy(tmp_path):
    cfg = write(tmp_path, "run.cfg",
                "experiment = example2\nT = 1\nM = 50\nN = 64\n"
                "snapshot_times = 0 0.5 1\n")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    snaps = (out / "snapshots.csv").read_text().splitlines()
    assert snaps[0].startswith("x,")
    assert len(snaps) == 51
    assert (out / "energy.csv").exists()
    report = (out / "report.txt").read_text()
    assert "PASS" in report and "FAIL" not in report


def test_convergence_spatial_csv(tmp_path):
    cfg = write(tmp_path, "conv.cfg",
                "experiment = example1\nT = 1\nM = 8 16 32\nN = 400\n")
    out = tmp_path / "out"
    assert main(["convergence", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "spatial_orders.csv").read_text().splitlines()
    assert lines[0] == "step,error,order"
    assert len(lines) == 4
    last_order = float(lines[-1].split(",")[2])
    assert 3.5 <= last_order <= 4.5


def test_convergence_temporal_posterior(tmp_path):
    cfg = write(tmp_path, "convt.cfg",
                "experiment = example2\nT = 1\nM = 50\nN = 20 40 80\n"
                "posterior = on\n")
    out = tmp_path / "out"
    assert main(["convergence", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "temporal_orders.csv").read_text().splitlines()
    assert len(lines) == 3  # two pairs from three runs


def test_convergence_ambiguous_direction_is_config_error(tmp_path):
    cfg = write(tmp_path, "bad.cfg",
                "experiment = example1\nT = 1\nM = 8 16\nN = 100 200\n")
    assert main(["convergence", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_posterior_two_run_chain_is_config_error(tmp_path, capsys):
    # two runs give one posterior error, too few to fit an order
    for name, text in (
            ("spatial", "experiment = example2\nT = 1\nM = 40 80\nN = 50\nposterior = on\n"),
            ("temporal", "experiment = example3\nT = 1\nM = 40\nN = 10 20\n")):
        cfg = write(tmp_path, f"{name}.cfg", text)
        out = tmp_path / name
        assert main(["convergence", "--config", cfg, "--out", str(out)]) == 2
        assert not (out / "report.txt").exists()
        assert "too short for posterior" in capsys.readouterr().err


def test_run_and_invariants_accept_two_value_chain(tmp_path):
    # only convergence refines along a chain; the other commands use the
    # first M and N and ignore the rest
    cfg = write(tmp_path, "two.cfg",
                "experiment = example2\nT = 0.5\nM = 40 80\nN = 20 40\nposterior = on\n")
    for mode in ("invariants", "run"):
        out = tmp_path / mode
        assert main([mode, "--config", cfg, "--out", str(out)]) == 0
        assert "FAIL" not in (out / "report.txt").read_text()


def test_zero_errors_fail_the_order_check(tmp_path):
    # the zero solution leaves every posterior error at 0: no order can
    # be fitted, which is a failed check, not a crash
    cfg = write(tmp_path, "zero.cfg",
                "experiment = custom\nx_left = 0\nx_right = 1\nmu = 1\nT = 0.1\n"
                "phi = sine 0 1\nM = 16 32 64\nN = 10\n")
    out = tmp_path / "out"
    assert main(["convergence", "--config", cfg, "--out", str(out)]) == 4
    report = (out / "report.txt").read_text().splitlines()
    assert len(report) == 1 and report[0].startswith("FAIL  spatial order: ")
    rows = (out / "spatial_orders.csv").read_text().splitlines()
    assert rows[1:] == ["0.0625,0,", "0.03125,0,"]


def test_zero_initial_energy_uses_absolute_drift(tmp_path):
    cfg = write(tmp_path, "zero.cfg",
                "experiment = custom\nx_left = 0\nx_right = 1\nmu = 1\nT = 0.1\n"
                "M = 16\nN = 10\nphi = sine 0 1\n")
    for mode in ("invariants", "run"):
        out = tmp_path / mode
        assert main([mode, "--config", cfg, "--out", str(out)]) == 0
        report = (out / "report.txt").read_text()
        assert "PASS  energy drift: absolute drift 0.000e+00" in report


def _drift_line(mode, j):
    """The energy drift line of a linear run (gamma = 0) from
    sech2 0.5*2^-j 4, marched with M = 64 and N = 20."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write(pathlib.Path(tmp), "tiny.cfg",
                    "experiment = custom\nx_left = -25\nx_right = 25\nmu = 1\ngamma = 0\n"
                    f"kappa = 1\nnu = 1\nphi = sech2 {0.5 * 2.0 ** -j!r} 4\nT = 1\n"
                    "M = 64\nN = 20\n")
        out = pathlib.Path(tmp, "out")
        assert main([mode, "--config", cfg, "--out", str(out)]) == 0
        return next(line for line in (out / "report.txt").read_text().splitlines()
                    if "energy drift" in line)


@functools.cache
def _unscaled_drift_line(mode):
    return _drift_line(mode, 0)


@settings(max_examples=120, deadline=None)
@given(mode=st.sampled_from(["invariants", "run"]), j=st.integers(0, 1000))
@example(mode="invariants", j=1000)
@example(mode="run", j=540)
def test_drift_of_a_linear_run_does_not_depend_on_its_amplitude(mode, j):
    # a linear run scales every level by 2^-j, down to the smallest normal
    # float, so the drift of its energy series is the same for every j
    line = _drift_line(mode, j)
    assert line == _unscaled_drift_line(mode)
    assert "relative drift" in line


def test_invariants_and_determinism(tmp_path):
    cfg = write(tmp_path, "inv.cfg",
                "experiment = example2\nT = 0.5\nM = 64\nN = 128\n")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["invariants", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["invariants", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "energy.csv").read_bytes() == (out2 / "energy.csv").read_bytes()
    e = np.loadtxt(out1 / "energy.csv", delimiter=",", skiprows=1)
    assert np.max(np.abs(e[:, 1] - e[0, 1])) <= 1e-9 * abs(e[0, 1])


def test_stability_sweep_small(tmp_path):
    cfg = write(tmp_path, "st.cfg",
                "experiment = example1\nT = 1\nM = 4 8 16 32 64 128\nN = 32 64\n")
    out = tmp_path / "out"
    assert main(["stability", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "stability.csv").read_text().splitlines()
    assert lines[0].startswith("h,tau=")
    assert len(lines) == 7
    # the sweep measures errors against the exact solution, posterior or not
    cfg = write(tmp_path, "stp.cfg",
                "experiment = example1\nT = 1\nM = 4 8 16 32 64 128\nN = 32 64\n"
                "posterior = on\n")
    assert main(["stability", "--config", cfg, "--out", str(tmp_path / "post")]) == 0
    assert (tmp_path / "post" / "stability.csv").read_text() == "\n".join(lines) + "\n"


def test_stability_single_m_is_config_error(tmp_path, capsys):
    # the plateau check compares the last two M values of each curve
    cfg = write(tmp_path, "st1.cfg", "experiment = example1\nT = 1\nM = 64\nN = 16 32\n")
    out = tmp_path / "out"
    assert main(["stability", "--config", cfg, "--out", str(out)]) == 2
    assert not (out / "report.txt").exists()
    assert "at least two are needed" in capsys.readouterr().err


def test_bad_custom_coefficient_or_profile_exits_2(tmp_path, capsys):
    base = ("experiment = custom\nx_left = -10\nx_right = 10\nT = 0.1\n"
            "M = 16\nN = 4\n")
    for name, extra, needle in (("mu0", "mu = 0\nphi = sech2 1 4\n", "mu must be > 0"),
                                ("width0", "mu = 1\nphi = sech2 1 0\n", "width")):
        cfg = write(tmp_path, f"{name}.cfg", base + extra)
        out = tmp_path / name
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert not (out / "report.txt").exists()
        assert needle in capsys.readouterr().err


_HUGE = "1" + "0" * 400


@pytest.mark.parametrize("text, needle", [
    # T/N rounds to 0
    ("experiment = example2\nT = 5e-324\nM = 16\nN = 2\n", "N: time step tau = T/N = 0 "),
    # h = 6.25e298, whose fourth power the energy takes
    ("experiment = custom\nx_left = 0\nx_right = 1e300\nmu = 1\nphi = sine 1 1\n"
     "T = 1\nM = 16\nN = 4\n", "M: grid step h = L/M = 6.25e+298 at M = 16 "),
    # M and N past the float range, which no array length reaches
    (f"experiment = example2\nT = 1\nM = {_HUGE}\nN = 4\n",
     f"M: need integers from 4 to 2^53, got {_HUGE}"),
    (f"experiment = example2\nT = 1\nM = 16\nN = {_HUGE}\n",
     f"N: need integers from 2 to 2^53, got {_HUGE}"),
    # the sine profile's mode check compares against min(M)
    ("experiment = custom\nx_left = 0\nx_right = 1\nmu = 1\nphi = sine 1 1\n"
     f"T = 1\nM = {_HUGE}\nN = 4\n", f"M: need integers from 4 to 2^53, got {_HUGE}"),
], ids=["subnormal-tau", "huge-h", "huge-M", "huge-N", "huge-M-sine"])
def test_grid_steps_out_of_float_range_are_config_errors(tmp_path, capsys, text, needle):
    cfg = write(tmp_path, "steps.cfg", text)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert not (out / "report.txt").exists()
    assert f"config error: {needle}" in capsys.readouterr().err


def _unusable_input(tmp_path, case):
    """argv for one input that a run cannot use, and the message it gets."""
    cfg = write(tmp_path, "ok.cfg", "experiment = example2\nT = 1\nM = 16\nN = 4\n")
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    if case == "out-is-a-file":
        return ["run", "--config", cfg, "--out", str(blocker)], "File exists"
    if case == "out-below-a-file":
        return ["run", "--config", cfg, "--out", str(blocker / "out")], "Not a directory"
    if case == "config-not-utf8":
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"experiment = example2\n\xff\n")
        return ["run", "--config", str(bad), "--out", str(tmp_path / "out")], \
            "can't decode byte 0xff"
    if case == "out-key":  # --out alone names the output directory
        keyed = write(tmp_path, "out.cfg", "experiment = example2\nT = 1\nM = 16\nN = 4\n"
                                           "out = results\n")
        return ["run", "--config", keyed, "--out", str(tmp_path / "out")], \
            "line 5: unknown key 'out'"
    # M = 2^60 nodes would pass the float rules, but numpy cannot size its array
    big = write(tmp_path, "big.cfg", f"experiment = example2\nT = 1\nM = {2 ** 60}\nN = 4\n")
    return ["run", "--config", big, "--out", str(tmp_path / "out")], \
        f"M: need integers from 4 to 2^53, got {2 ** 60}"


@pytest.mark.parametrize("case", ["out-is-a-file", "out-below-a-file", "config-not-utf8",
                                  "out-key", "huge-M"])
def test_unusable_inputs_exit_2_with_one_line(tmp_path, capfd, case):
    argv, needle = _unusable_input(tmp_path, case)
    assert main(argv) == 2
    out, err = capfd.readouterr()
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: ") and needle in lines[0]
    assert "Traceback" not in out + err


CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize("mode, text, needles", [
    ("stability", None, ["stability sweep needs an exact solution",
                         "M: [500] is too short for a stability sweep"]),
    ("convergence", None, ["nothing to refine"]),
    ("convergence", "experiment = custom\nx_left = 0\nx_right = 1\nmu = 1\nT = 1\n"
                    "phi = sine 1 1\nM = 8 16\nN = 4 8\nposterior = off\n",
     ["ambiguous refinement direction", "no exact solution available"]),
    ("convergence", "experiment = example2\nT = 1\nM = 40 80\nN = 50\n",
     ["M: [40, 80] is too short for posterior"]),
    ("stability", "experiment = example1\nT = 1\nM = 64\nN = 16 32\n",
     ["at least two are needed"]),
], ids=["stability-example2_run", "convergence-example2_run", "both-chains-no-exact",
        "short-posterior-chain", "stability-one-M"])
def test_a_config_unfit_for_its_command_is_refused_before_out_is_made(tmp_path, capfd,
                                                                       mode, text, needles):
    # every rule the command's config breaks is printed, one line each
    cfg = (str(CONFIGS / "example2_run.cfg") if text is None
           else write(tmp_path, "cmd.cfg", text))
    out = tmp_path / "out"
    assert main([mode, "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    lines = capfd.readouterr().err.splitlines()
    assert len(lines) == len(needles)
    for line, needle in zip(lines, needles):
        assert line.startswith("config error: ") and needle in line


RUNNABLE = {
    "run": "experiment = example2\nT = 0.1\nM = 8\nN = 2\n",
    "invariants": "experiment = example2\nT = 0.1\nM = 8\nN = 2\n",
    "convergence": "experiment = example1\nT = 0.1\nM = 8 16 32\nN = 2\n",
    "stability": "experiment = example1\nT = 0.1\nM = 4 8\nN = 2 4\n",
}


@pytest.mark.parametrize("mode, name", [("run", "energy.csv"), ("run", "report.txt"),
                                        ("invariants", "energy.csv"),
                                        ("stability", "stability.csv"),
                                        ("convergence", "report.txt")])
def test_a_directory_at_an_output_file_exits_2_with_one_line(monkeypatch, tmp_path, capfd,
                                                             mode, name):
    # the path is refused before anything marches, and no file is written
    def unreachable(*args, **kwargs):
        raise AssertionError("marched before the output paths were checked")

    monkeypatch.setattr(bbmb.cli, "march", unreachable)
    monkeypatch.setattr(bbmb.cli, "run", unreachable)
    cfg = write(tmp_path, "ok.cfg", RUNNABLE[mode])
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    assert main([mode, "--config", cfg, "--out", str(out)]) == 2
    lines = capfd.readouterr().err.splitlines()
    assert lines == [f"config error: out: cannot write {out / name}: Is a directory"]
    assert [p.name for p in out.iterdir()] == [name] and not any((out / name).iterdir())


@pytest.mark.parametrize("mode", ["run", "invariants", "convergence", "stability"])
def test_an_output_directory_without_write_permission_exits_2(monkeypatch, tmp_path, capfd,
                                                                mode):
    # a process run as root may write anywhere, so chmod alone cannot make
    # the directory unwritable; instead creating a file in it is refused as
    # for a user without write permission, and opening a missing file
    # without O_CREAT still fails with ENOENT
    def unreachable(*args, **kwargs):
        raise AssertionError("marched in a directory that cannot be written")

    cfg = write(tmp_path, "ok.cfg", RUNNABLE[mode])
    out = tmp_path / "out"
    out.mkdir()

    def denied(path):
        return isinstance(path, (str, os.PathLike)) and os.path.dirname(path) == str(out)

    def open_denied(file, mode="r", *args, **kwargs):
        if denied(file) and set(mode) & set("wax+"):
            raise PermissionError(13, "Permission denied", str(file))
        return builtins_open(file, mode, *args, **kwargs)

    def os_open_denied(path, flags, *args, **kwargs):
        if denied(path) and flags & os.O_CREAT:
            raise PermissionError(13, "Permission denied", str(path))
        return os_open(path, flags, *args, **kwargs)

    builtins_open, os_open = open, os.open
    monkeypatch.setattr("builtins.open", open_denied)
    monkeypatch.setattr(os, "open", os_open_denied)
    monkeypatch.setattr(bbmb.cli, "march", unreachable)
    monkeypatch.setattr(bbmb.cli, "run", unreachable)
    assert main([mode, "--config", cfg, "--out", str(out)]) == 2
    lines = capfd.readouterr().err.splitlines()
    assert lines == [f"config error: out: cannot write {out / 'report.txt'}: Permission denied"]
    assert list(out.iterdir()) == []


def test_an_interrupted_run_leaves_a_stale_report(monkeypatch, tmp_path, capfd):
    cfg = str(CONFIGS / "example1_stability.cfg")
    out = tmp_path / "out"
    assert main(["stability", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "report.txt").read_text().startswith("PASS")

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(bbmb.cli, "_usable_cores", lambda: 1)
    monkeypatch.setattr(bbmb.cli, "march", interrupted)
    capfd.readouterr()
    assert main(["stability", "--config", cfg, "--out", str(out)]) == 130
    assert capfd.readouterr().err.splitlines() == ["interrupted: the run did not finish"]
    assert (out / "report.txt").read_text().splitlines()[0].startswith("STALE")


def _out_of_memory(monkeypatch, m):
    """Make the node array of every M = m grid fail to allocate."""
    nodes = Grid1D.nodes

    def failing(self):
        if self.M == m:
            raise MemoryError(f"Unable to allocate the nodes of M = {m}")
        return nodes(self)

    monkeypatch.setattr(Grid1D, "nodes", failing)


@pytest.mark.parametrize("mode", ["run", "invariants", "convergence", "stability"])
def test_out_of_memory_exits_3_with_a_stale_report(monkeypatch, tmp_path, capfd, mode):
    _out_of_memory(monkeypatch, 8)
    cfg = write(tmp_path, "ok.cfg", RUNNABLE[mode])
    out = tmp_path / "out"
    assert main([mode, "--config", cfg, "--out", str(out)]) == 3
    assert (out / "report.txt").read_text().splitlines() == [
        "STALE: the run failed; other output files may be left over from a previous run",
        "FAIL  memory: Unable to allocate the nodes of M = 8"]
    assert capfd.readouterr().err == ""


@pytest.mark.skipif(sys.platform != "linux", reason="needs RLIMIT_AS")
def test_a_node_array_beyond_memory_exits_3(tmp_path):
    # M = 2^50 passes every config rule, but its 8 PiB node array cannot
    # be allocated; the run's own process caps its address space at 4 GiB
    # first, so that the allocation fails at once on any host
    capped = ("import resource, sys; "
              "resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30)); "
              "from bbmb.cli import main; sys.exit(main(sys.argv[1:]))")
    cfg = write(tmp_path, "big.cfg", f"experiment = example2\nT = 1\nM = {2 ** 50}\nN = 4\n")
    out = tmp_path / "out"
    src = str(pathlib.Path(bbmb.cli.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", capped, "run", "--config", cfg,
                           "--out", str(out)], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 3
    assert done.stderr == ""
    report = (out / "report.txt").read_text().splitlines()
    assert report[0].startswith("STALE")
    assert report[1].startswith("FAIL  memory: Unable to allocate 8.00 PiB")


_OUTPUT_FILES = ["report.txt", "snapshots.csv", "energy.csv", "spatial_orders.csv",
                 "temporal_orders.csv", "stability.csv"]
# inserted bytes carry no digits, so no count or time can grow past the
# runnable configs' few milliseconds
_NO_DIGITS = bytes.maketrans(b"0123456789", b"xxxxxxxxxx")


@st.composite
def _raw_input(draw):
    """A mode, the raw bytes of a config (arbitrary, or a runnable config
    with arbitrary bytes, not UTF-8 ones too, inserted), and the kind of
    output path: new, an existing directory, an existing file, below a
    file, or a directory at one of the output files' names."""
    mode = draw(st.sampled_from(sorted(RUNNABLE)))
    if draw(st.booleans()):
        data = draw(st.binary(max_size=64))
    else:
        data = draw(st.sampled_from(sorted(set(RUNNABLE.values())))).encode()
        if draw(st.booleans()):
            at = draw(st.integers(0, len(data)))
            data = (data[:at] + draw(st.binary(min_size=1, max_size=8)).translate(_NO_DIGITS)
                    + data[at:])
    out = draw(st.sampled_from(["new", "directory", "file", "below-file", "output-name"]))
    return mode, data, out, draw(st.sampled_from(_OUTPUT_FILES))


@settings(max_examples=100, deadline=None)
@given(case=_raw_input())
@example(case=("run", RUNNABLE["run"].encode(), "output-name", "energy.csv"))
@example(case=("stability", RUNNABLE["stability"].encode(), "output-name", "report.txt"))
@example(case=("run", RUNNABLE["run"].encode(), "file", "report.txt"))
@example(case=("convergence", RUNNABLE["convergence"].encode(), "below-file", "report.txt"))
@example(case=("invariants", b"experiment = example2\n\xff\n", "new", "report.txt"))
def test_any_bytes_and_output_path_end_in_a_documented_exit_code(case):
    # every input reaches a documented exit code without a traceback;
    # exit 2 prints only config error lines
    mode, data, kind, name = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg = pathlib.Path(tmp, "raw.cfg")
        cfg.write_bytes(data)
        out = pathlib.Path(tmp, "out")
        if kind == "directory":
            out.mkdir()
        elif kind == "file":
            out.write_text("")
        elif kind == "below-file":
            out.write_text("")
            out = out / "out"
        elif kind == "output-name":
            (out / name).mkdir(parents=True)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([mode, "--config", str(cfg), "--out", str(out)])
    assert code in (0, 2, 3, 4)
    lines = err.getvalue().splitlines()
    assert all(line.startswith("config error: ") for line in lines)
    assert bool(lines) == (code == 2)


def test_example1_with_other_coefficients_keeps_its_spatial_order(tmp_path):
    # the preset's source is built from the coefficients, so
    # exp(t)*sin(pi*x) stays exact; with the mu = gamma = kappa = nu = 1
    # source this fitted order -0.0326
    cfg = write(tmp_path, "e1.cfg", "experiment = example1\nT = 0.5\nM = 8 16 32\nN = 400\n"
                                    "mu = 2\ngamma = 0.5\nkappa = 3\nnu = 0.25\n")
    out = tmp_path / "out"
    assert main(["convergence", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "report.txt").read_text().startswith("PASS  spatial order: fitted order 4.00")


@pytest.mark.filterwarnings("error")  # the failure is reported, not warned about
@pytest.mark.parametrize("amplitude, step, needle", [
    ("1e308", 0, "initial curvature"),  # second difference of u0 overflows
    ("1e200", 1, "step system"),        # advection products overflow
])
def test_overflowing_profile_exits_3(tmp_path, amplitude, step, needle):
    cfg = write(tmp_path, "big.cfg",
                "experiment = custom\nx_left = 0\nx_right = 2\nmu = 1\nT = 0.1\n"
                f"M = 16\nN = 4\nphi = sech2 {amplitude} 1\n")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 3
    report = (out / "report.txt").read_text().splitlines()
    assert report[0].startswith("STALE")
    assert report[1].startswith(f"FAIL  solver: step {step}: {needle}")


@pytest.mark.parametrize("mode", ["run", "invariants"])
def test_subnormal_profile_exits_3(tmp_path, mode):
    # data below the normal float range have no relative precision for the
    # drift and boundedness gates to hold, so the run fails at step 0
    cfg = write(tmp_path, "sub.cfg",
                "experiment = custom\nx_left = 0\nx_right = 1\nmu = 0.0546875\ngamma = 0\n"
                "kappa = 0\nnu = 0\nT = 1\nM = 5\nN = 10\nphi = sech2 5e-324 1.0\n")
    out = tmp_path / "out"
    assert main([mode, "--config", cfg, "--out", str(out)]) == 3
    report = (out / "report.txt").read_text().splitlines()
    assert report[0].startswith("STALE")
    assert report[1].startswith("FAIL  solver: step 0: initial data: ")
    assert report[1].endswith("(case M = 5, N = 10)")


def test_high_mode_small_amplitude_run_passes_boundedness(tmp_path):
    # sqrt(2*E(0)) bounds every level of a conservative run, however
    # high the mode of its data
    cfg = write(tmp_path, "sine.cfg",
                "experiment = custom\nx_left = 0\nx_right = 2\nmu = 1\ngamma = 1\n"
                "kappa = 0\nnu = 0\nT = 0.5\nM = 64\nN = 50\nphi = sine 0.01 10\n")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    report = (out / "report.txt").read_text()
    assert "PASS  boundedness: max ||u|| = 0.01 vs bound 0.443623, max |u|" in report


def test_coarse_small_step_run_passes_the_compact_relation_gate(tmp_path):
    # mu/(2*tau) >> 1/h^2: no backward-stable solve holds the compact row
    # to 1e-11 of its stencil scale; the residual gate holds it, like the
    # evolution row, to the case's solve budget
    cfg = write(tmp_path, "coarse.cfg",
                "experiment = custom\nx_left = 0\nx_right = 73\nmu = 1\ngamma = 0\n"
                "kappa = 2\nnu = 0\nT = 0.01171875\nM = 4\nN = 13\nphi = sine 1 1\n")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert "FAIL" not in (out / "report.txt").read_text()


@pytest.mark.parametrize("m, T, mu, nu", [
    (256, "0.1534", "0.02095", "-2.149"),
    (4096, "0.1308", "0.0002663", "-0.04764"),
])
def test_negative_diffusion_run_is_repaired_by_refinement(tmp_path, monkeypatch, m, T, mu, nu):
    # mu*rate + nu/2 < 0 leaves the eliminated operator indefinite at high
    # wavenumbers (linalg module docstring): the pivot-free solve misses its
    # budget and one refinement step through the same solver repairs it
    solve, solves = bbmb.scheme.solve_cyclic_block_tridiagonal, []

    def counted(*args, **kwargs):
        solves.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(bbmb.scheme, "solve_cyclic_block_tridiagonal", counted)
    cfg = write(tmp_path, "neg.cfg",
                f"experiment = example2\nT = {T}\nM = {m}\nN = 2\nmu = {mu}\nnu = {nu}\n")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert len(solves) > 2  # more solves than steps: a refinement ran


def test_singular_pivot_names_its_step_and_case(tmp_path):
    # tau = 2.5: rate + min F''/2 = 0.2 - 0.5 < 0 at the interior steps
    cfg = write(tmp_path, "sing.cfg", "experiment = example3\nT = 10\nM = 64\nN = 4\n")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 3
    report = (out / "report.txt").read_text().splitlines()
    assert report[1].startswith("FAIL  solver: step 3: singular 2x2 pivot")
    assert report[1].endswith("(case M = 64, N = 4)")


def test_singular_initial_curvature_names_step_0_and_its_case(tmp_path, monkeypatch):
    # the CLI maps SolverFailure alone to exit 3, so a pivot failure of the
    # initial curvature solve must reach it as one, naming step and case
    def singular(system):
        raise SingularSystemError("zero pivot in row 0")

    monkeypatch.setattr(bbmb.scheme, "solve_scalar_cyclic", singular)
    cfg = write(tmp_path, "sing0.cfg", "experiment = example2\nT = 1\nM = 16\nN = 4\n")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 3
    report = (out / "report.txt").read_text().splitlines()
    assert report[1] == ("FAIL  solver: step 0: initial curvature: zero pivot in row 0 "
                         "(case M = 16, N = 4)")


def test_invalid_config_exit_code(tmp_path):
    cfg = write(tmp_path, "bad.cfg", "experiment = example1\nM = 10 30\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert main(["run", "--config", str(tmp_path / "missing.cfg"),
                 "--out", str(tmp_path / "o")]) == 2


def test_importing_the_cli_loads_no_argparse():
    # only main parses arguments; a library user or a benchmark child
    # that imports the module does not pay for argparse and gettext
    src = str(pathlib.Path(bbmb.cli.__file__).parents[1])
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, bbmb.cli; print(*sorted({'argparse', 'gettext'} & set(sys.modules)))"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True)
    assert loaded.stdout.split() == []


def test_fifteen_digit_output(tmp_path):
    cfg = write(tmp_path, "inv.cfg",
                "experiment = example2\nT = 0.5\nM = 64\nN = 128\n")
    out = tmp_path / "out"
    main(["invariants", "--config", cfg, "--out", str(out)])
    line = (out / "energy.csv").read_text().splitlines()[1]
    value = line.split(",")[1]
    digits = value.replace(".", "").replace("-", "").lstrip("0")
    assert len(digits) >= 14


# Floats from the edges of the double range, ordinary ones of either
# sign, and moderate positive ones, which let many drawn configs march
_VALUE = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-160, 1e300,
                                    -1e300]),
                   st.floats(-1e3, 1e3), st.floats(0.01, 10.0))


def _chain(draw, starts, lengths):
    start, length = draw(st.sampled_from(starts)), draw(st.integers(*lengths))
    return " ".join(str(start * 2 ** i) for i in range(length))


@st.composite
def _any_config(draw):
    """A mode and the text of a config of any experiment, with wide
    coefficients, domain, T and profile amplitude, and short M and N
    chains, so every run takes milliseconds.  A sweep draws two or more
    M, and a convergence study one chain."""
    mode = draw(st.sampled_from(["run", "convergence", "invariants", "stability"]))
    experiment = draw(st.sampled_from(["example1", "example2", "example3", "custom"]))
    refined = draw(st.sampled_from("MN")) if mode == "convergence" else None
    m_chain = (2, 3) if mode == "stability" or refined == "M" else (1, 1)
    lines = [f"experiment = {experiment}",
             f"M = {_chain(draw, [4, 8], m_chain)}",
             f"N = {_chain(draw, [2, 4], (3, 3) if refined == 'N' else (1, 2))}"]
    custom = experiment == "custom"
    for key in ("T", "x_left", "x_right", "mu", "gamma", "kappa", "nu"):
        if custom and key in ("T", "x_left", "x_right", "mu") or draw(st.booleans()):
            lines.append(f"{key} = {draw(_VALUE)!r}")
    if custom:
        amp = draw(_VALUE)
        lines.append(f"phi = sech2 {amp!r} {draw(_VALUE)!r}" if draw(st.booleans())
                     else f"phi = sine {amp!r} 1")
    if draw(st.booleans()):
        lines.append(f"posterior = {draw(st.sampled_from(['on', 'off']))}")
    return mode, "\n".join(lines) + "\n"


def _outputs(cfg, mode, out):
    code = main([mode, "--config", cfg, "--out", str(out)])
    return code, {p.name: p.read_bytes() for p in sorted(out.glob("*"))}


@settings(max_examples=300, deadline=None)
@given(case=_any_config())
@example(case=("run", "experiment = example2\nT = 5e-324\nM = 16\nN = 2\n"))
@example(case=("run", "experiment = custom\nx_left = 0\nx_right = 1e300\nmu = 1\n"
                      "phi = sine 1 1\nT = 1\nM = 16\nN = 4\n"))
@example(case=("run", f"experiment = example2\nT = 1\nM = {_HUGE}\nN = 4\n"))
@example(case=("run", f"experiment = example2\nT = 1\nM = 16\nN = {_HUGE}\n"))
def test_any_config_ends_in_a_documented_exit_code(case):
    # every config ends in exit 0, 2, 3 or 4 with no traceback, and a
    # command that fans out writes the same on one core as on all
    mode, text = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write(pathlib.Path(tmp), "drawn.cfg", text)
        code, files = _outputs(cfg, mode, pathlib.Path(tmp, "all"))
        assert code in (0, 2, 3, 4)
        if mode in ("stability", "convergence"):
            with mock.patch.object(bbmb.cli, "_usable_cores", lambda: 1):
                assert _outputs(cfg, mode, pathlib.Path(tmp, "one")) == (code, files)
