"""Zero-list ingestion and comparison reports."""

import json

import numpy as np
import pytest

from excised_rmt.zeros import (
    ZeroDataError,
    ZeroRecord,
    compare_report,
    ingest_zero_list,
    lowest_zero_statistic,
)


def _write(tmp_path, text):
    p = tmp_path / "zeros.csv"
    p.write_text(text)
    return p


def test_ingest_basic(tmp_path):
    p = _write(tmp_path, "5,0.5,1.25,3\n# comment\n\n-8,0.75\n")
    recs = ingest_zero_list(p)
    assert [r.d for r in recs] == [5, -8]
    assert np.allclose(recs[0].ordinates, [0.5, 1.25, 3.0])


def test_ingest_rejects_bad_rows(tmp_path):
    with pytest.raises(ZeroDataError, match="line 1"):
        ingest_zero_list(_write(tmp_path, "abc,0.5\n"))
    with pytest.raises(ZeroDataError, match="line 2"):
        ingest_zero_list(_write(tmp_path, "5,0.5\n7\n"))
    with pytest.raises(ZeroDataError, match="line 1"):
        ingest_zero_list(_write(tmp_path, "5,-0.5\n"))
    with pytest.raises(ZeroDataError, match="line 1"):
        ingest_zero_list(_write(tmp_path, "5,0.5,0.5\n"))
    with pytest.raises(ZeroDataError, match="line 1"):
        ingest_zero_list(_write(tmp_path, "5,1.0,0.5\n"))


def test_ingest_records_exactly(tmp_path):
    # -0.0 is not negative
    p = _write(tmp_path, "# d,gamma...\n\n 12 , 0.5,2.75\n-3,-0.0,1e300\n")
    recs = ingest_zero_list(p)
    assert [r.d for r in recs] == [12, -3]
    expected = [[0.5, 2.75], [-0.0, 1e300]]
    for rec, ords in zip(recs, expected):
        assert rec.ordinates.dtype == np.float64
        assert np.array_equal(rec.ordinates.view(np.uint64), np.array(ords).view(np.uint64))


@pytest.mark.parametrize(
    "row, message",
    [
        ("5,0.5,x", "cannot parse: could not convert string to float: 'x'"),
        ("5.5,0.5", "cannot parse: invalid literal for int() with base 10: '5.5'"),
        ("5", "record has no ordinates"),
        ("5,0.5,-1", "negative ordinate"),
        ("5,-1,-0.5", "negative ordinate"),
        ("5,0.5,0.75,0.75", "ordinates not strictly increasing"),
        ("5,nan,2,1", "non-finite ordinate"),
        ("7,nan,0.25", "non-finite ordinate"),
        ("9,0.5,nan,0.25", "non-finite ordinate"),
        ("-3,-0.0,inf", "non-finite ordinate"),
        ("5,-1,-inf", "non-finite ordinate"),
    ],
)
def test_ingest_error_names_its_line(tmp_path, row, message):
    p = _write(tmp_path, f"# header\n3,0.25\n\n{row}\n4,0.5\n")
    with pytest.raises(ZeroDataError) as info:
        ingest_zero_list(p)
    assert str(info.value) == f"line 4: {message}"


def test_round_trip(tmp_path):
    # 17 significant digits name one double exactly
    back = ingest_zero_list(_write(tmp_path, "5,0.12345678901234560,2.5\n8,0.7\n"))
    assert [r.d for r in back] == [5, 8]
    assert back[0].ordinates.tolist() == [0.1234567890123456, 2.5]
    assert back[1].ordinates.tolist() == [0.7]


def test_lowest_zero_statistic_variants():
    recs = [
        ZeroRecord(d=1, ordinates=np.array([0.0, 0.4, 1.0])),
        ZeroRecord(d=2, ordinates=np.array([0.3, 0.9])),
    ]
    assert np.allclose(lowest_zero_statistic(recs, "lowest"), [0.0, 0.3])
    assert np.allclose(lowest_zero_statistic(recs, "lowest_nonvanishing"), [0.4, 0.3])
    assert np.allclose(lowest_zero_statistic(recs, "second_lowest"), [0.4, 0.9])
    with pytest.raises(ValueError):
        lowest_zero_statistic(recs, "bogus")
    with pytest.raises(ValueError):
        lowest_zero_statistic([], "lowest")
    with pytest.raises(ValueError):
        lowest_zero_statistic([ZeroRecord(d=3, ordinates=np.array([0.5]))], "second_lowest")


@pytest.mark.parametrize("vanish_tol", [float("nan"), float("inf"), -1.0])
def test_lowest_zero_statistic_rejects_a_vanish_tol_that_is_not_finite_and_nonnegative(vanish_tol):
    recs = [ZeroRecord(d=5, ordinates=np.array([0.0, 0.4]))]
    with pytest.raises(ValueError, match="vanish_tol"):
        lowest_zero_statistic(recs, "lowest_nonvanishing", vanish_tol)


def test_compare_report_structure():
    rng = np.random.default_rng(0)
    left = rng.exponential(1.0, 500)
    right = rng.exponential(1.0, 2000)
    rep = compare_report(left, right, bins=10)
    assert set(rep) == {"ks", "n_left", "n_right", "normalization", "bins"}
    assert rep["n_left"] == 500 and rep["n_right"] == 2000
    assert 0.0 <= rep["ks"] <= 1.0
    assert len(rep["bins"]) == 10
    row = rep["bins"][0]
    assert set(row) == {
        "bin_left",
        "bin_right",
        "density_left",
        "density_right",
        "residual",
        "se_left",
        "se_right",
    }
    assert row["residual"] == pytest.approx(row["density_left"] - row["density_right"])
    # identical inputs give ks 0
    same = compare_report(left, left, bins=5)
    assert same["ks"] == 0.0
    # report serializes
    assert json.loads(json.dumps(rep))["n_left"] == 500


def test_compare_report_normalizes_scale():
    rng = np.random.default_rng(1)
    base = rng.exponential(1.0, 3000)
    rep = compare_report(base, base * 100.0, bins=20)
    # same shape after mean-1 normalization; rounding in the mean division
    # can perturb a few ties, so allow a few parts in ten thousand
    assert rep["ks"] < 5e-3
