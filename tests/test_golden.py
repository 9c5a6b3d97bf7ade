"""Golden bytes of the CLI Monte Carlo outputs at fixed seeds.

Each output is pinned by its sha256 digest and must not change with the
worker count.  The sizes make every output span several sample blocks,
so a change to how the index range is split into blocks or shards shows
up here.

The digests were taken with numpy 2.4 on scipy-openblas 0.3.31 (x86-64).
The outputs are exact functions of the seed, but the low bits of
eigenvalues and determinants depend on the LAPACK build; with another
numpy or BLAS these digests may differ without any change to the code.
"""

import hashlib

import pytest

from excised_rmt.cli import main

RUNS = {
    "sample": (
        ["sample", "--group", "so_even", "--n", "10", "--count", "1500", "--seed", "11"],
        "5fe67c5d0d07eaefe0238bed9890cfc54b7d6d65d600775a752b72223dfa4fdd",
    ),
    # SO(11) draws an odd number (121) of Gaussians per matrix, so the last
    # Box-Muller pair is cut in half
    "sample_so_odd": (
        ["sample", "--group", "so_odd", "--n", "5", "--count", "700", "--seed", "14"],
        "26433349fad230ab2dbb233ee10aecd8a6b2e29092ecb0f0dbf4cff6f1d26623",
    ),
    "onelevel": (
        ["onelevel", "--group", "usp", "--n", "10", "--count", "1500", "--seed", "12",
         "--bins", "50"],
        "fa14f04cae2d8cee15d31d9d4c9fc6fcc60b7cf6c549873590dc045e93b3550a",
    ),
    "paircorr": (
        ["paircorr", "--group", "unitary", "--n", "30", "--count", "700", "--seed", "13",
         "--window", "3", "--bins", "40"],
        "087a26d2b8fde294f88d8619cee352b8727c99524c26809f71de8aee40e33f1e",
    ),
}
EXCISED_SAMPLE = "119b1bd2af1b6f67d9bd7b022d49bd0108e394955b1b0c84d3dceef88815f3f4"


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("workers", ["1", "3"])
@pytest.mark.parametrize("name", list(RUNS))
def test_golden_output(name, workers, tmp_path, capsys):
    argv, expected = RUNS[name]
    out = tmp_path / f"{name}.csv"
    assert main(argv + ["--workers", workers, "--out", str(out)]) == 0
    assert _digest(out) == expected
    if name == "sample":
        kept = tmp_path / "kept.csv"
        code = main(["excise", "--c", "0.5", "--k", "1", "--nstd", "8",
                     "--input", str(out), "--out", str(kept)])
        assert code == 0
        assert _digest(kept) == EXCISED_SAMPLE
        assert "kept 650 of 1500" in capsys.readouterr().err
