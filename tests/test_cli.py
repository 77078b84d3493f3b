"""CLI subcommands: outputs, determinism, exit codes."""

import os

import numpy as np
import pytest

import bbmb.scheme
from bbmb.cli import main


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
    assert report[1].endswith("(case M = 64)")


def test_invalid_config_exit_code(tmp_path):
    cfg = write(tmp_path, "bad.cfg", "experiment = example1\nM = 10 30\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert main(["run", "--config", str(tmp_path / "missing.cfg"),
                 "--out", str(tmp_path / "o")]) == 2


def test_fifteen_digit_output(tmp_path):
    cfg = write(tmp_path, "inv.cfg",
                "experiment = example2\nT = 0.5\nM = 64\nN = 128\n")
    out = tmp_path / "out"
    main(["invariants", "--config", cfg, "--out", str(out)])
    line = (out / "energy.csv").read_text().splitlines()[1]
    value = line.split(",")[1]
    digits = value.replace(".", "").replace("-", "").lstrip("0")
    assert len(digits) >= 14
