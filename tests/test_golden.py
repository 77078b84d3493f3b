"""The bundled configs that run in under a second, and every edge-case
config, write their golden outputs, on all cores and on one, to within
one tolerance unit.  Other hardware may move a last printed digit with
no defect (numpy's SIMD dispatch and the BLAS kernels differ), so this
fails only on a larger difference; tests/golden.py, which checks every
golden, fails on any byte that moved."""

import math

import pytest

import golden


@pytest.mark.parametrize("name", ["example1_stability", "example1_temporal",
                                  "example2_temporal", "example3_spatial",
                                  "example3_temporal", *golden.EDGE_CASES])
def test_bundled_config_writes_its_golden_outputs(tmp_path, name):
    assert [text for text, units in golden.check(name, str(tmp_path)) if units > 1] == []


def _units(name, file, edit):
    """Tolerance units of a golden file against itself with one edit."""
    with open(f"{golden.GOLDEN}/{name}/{file}", "rb") as fh:
        want = fh.read()
    got = want.replace(*edit, 1)
    assert got != want
    return golden.diff(name, file, got, want)[1]


def test_a_roundoff_move_is_within_one_unit_and_a_defect_is_not():
    # E(0) = 1.4, so one unit of energy is 1.4e-11
    assert _units("example2_run", "energy.csv",
                  (b"0.00390625,1.39999999812511", b"0.00390625,1.39999999812512")) <= 1
    assert _units("example2_run", "energy.csv",
                  (b"0.00390625,1.39999999812511", b"0.00390625,1.39999999822511")) > 1
    # E(0) = 5.6e-320 is subnormal, so one unit is one ulp, 4.9e-324
    assert _units("tiny_run", "energy.csv",
                  (b"0.02,5.60023409561053e-320", b"0.02,5.60072816125637e-320")) <= 1
    assert _units("tiny_run", "energy.csv",
                  (b"0.02,5.60023409561053e-320", b"0.02,5.61023409561053e-320")) > 1
    # the order must follow from its row's step and error
    assert _units("example1_temporal", "temporal_orders.csv",
                  (b"2.00134854596911", b"2.00134854596912")) <= 1
    assert _units("example1_temporal", "temporal_orders.csv",
                  (b"2.00134854596911", b"2.00134864596911")) > 1
    # a printed number may move by one in its last digit
    assert _units("example1_temporal", "report.txt", (b"2.0109", b"2.0110")) == pytest.approx(1)
    assert _units("example1_temporal", "report.txt", (b"2.0109", b"2.0111")) > 1
    # words, integers and grid values have no tolerance
    assert _units("example1_temporal", "report.txt", (b"PASS", b"FAIL")) == math.inf
    assert _units("example1_temporal", "report.txt", (b"5 levels", b"4 levels")) == math.inf
    assert _units("example1_temporal", "temporal_orders.csv", (b"0.025,", b"0.026,")) == math.inf
    assert _units("example1_temporal", golden.EXIT_CODE, (b"0", b"3")) == math.inf
