"""Golden bytes of the CLI Monte Carlo outputs at fixed seeds.

Each output is pinned by its sha256 digest and must not change with the
worker count.  The sizes make every output span several sample blocks,
so a change to how the index range is split into blocks shows up here.

The digests were taken with numpy 2.4 on scipy-openblas 0.3.31 (x86-64).
The outputs are exact functions of the seed, but the low bits of
eigenvalues and determinants depend on the LAPACK build; with another
numpy or BLAS these digests may differ without any change to the code.
"""

import hashlib

import numpy as np
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
    # SO(11) drops the forced zero angle of each matrix from the density
    "onelevel_so_odd": (
        ["onelevel", "--group", "so_odd", "--n", "5", "--count", "1500", "--seed", "15",
         "--bins", "50"],
        "c2d852e10ca214214ab9ef95b22a0cfd12b23bc45de2c1d033aa8c8371101d6b",
    ),
    # one run per group the density fold and the histograms serve but the
    # runs above do not: SO(20) and U(9) densities, a USp(20) pair
    # correlation and a USp(20) sample table
    "onelevel_so_even": (
        ["onelevel", "--group", "so_even", "--n", "10", "--count", "1500", "--seed", "16",
         "--bins", "50"],
        "d6c17d2bee2cf99e3e13cfd5c44dc49a738e817def1643ac71ffb026f54d0a6d",
    ),
    "onelevel_unitary": (
        ["onelevel", "--group", "unitary", "--n", "9", "--count", "1500", "--seed", "17",
         "--bins", "50"],
        "22ab3644da8a5157b7788facf10b1696485e167f2f0c643ac0804ba609c87064",
    ),
    "paircorr_usp": (
        ["paircorr", "--group", "usp", "--n", "10", "--count", "700", "--seed", "18",
         "--window", "3", "--bins", "40"],
        "fd006fc7e4d8947b6c6476febbd121b1ec787b22f0c42b43a9e0707a9376a253",
    ),
    "sample_usp": (
        ["sample", "--group", "usp", "--n", "10", "--count", "700", "--seed", "19"],
        "a3a4fd770de64d2fd091c48eb3d6bdf39ba2733195cfb35edd5f56dda44b99ad",
    ),
}
EXCISED_SAMPLE = "119b1bd2af1b6f67d9bd7b022d49bd0108e394955b1b0c84d3dceef88815f3f4"
# the `compare` JSON of the golden SO(20) `sample` table against _write_zero_list
COMPARED_SAMPLE = "400503322a0a0124b02db4a22262cdc9d1f42f6088da585c5e20c404e12bf5cb"


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_zero_list(path) -> None:
    """800 records d,gamma1,gamma2,gamma3 with strictly increasing ordinates."""
    rng = np.random.default_rng(3)
    ordinates = np.cumsum(rng.uniform(0.01, 1.0, size=(800, 3)), axis=1)
    path.write_text("".join(f"{5 + 4 * i}," + ",".join(f"{g:.17g}" for g in row) + "\n"
                            for i, row in enumerate(ordinates)))


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
        zero_list, report = tmp_path / "zeros.csv", tmp_path / "report.json"
        _write_zero_list(zero_list)
        code = main(["compare", "--zeros", str(zero_list), "--samples", str(out),
                     "--out", str(report)])
        assert code == 0
        assert _digest(report) == COMPARED_SAMPLE


# Family enumeration is exact integer arithmetic, so these digests do not
# depend on the numpy or BLAS build.  Each family is a condition on the
# residue of d mod M, so runs that reach the same condition through another
# case or sign (kronecker(d, 3) = -1 is d = 2 mod 3) share a digest.
DISCRIMINANT_RUNS = {
    "M3_principal_even": (["--M", "3", "--case", "principal_even"],
        "c218eeebc0bbaedcbddb6355909e2dbcf0ecbb169d14d03dd2bafe39189f2430"),
    "M3_principal_odd": (["--M", "3", "--case", "principal_odd"],
        "07c7da57c72f7adcefad955745d7924f3bd91ae925d17b3ea9e9c9d62d93aba5"),
    "M3_self_cm": (["--M", "3", "--case", "self_cm", "--delta", "-1"],
        "07c7da57c72f7adcefad955745d7924f3bd91ae925d17b3ea9e9c9d62d93aba5"),
    "M3_generic": (["--M", "3", "--case", "generic", "--residue", "2"],
        "07c7da57c72f7adcefad955745d7924f3bd91ae925d17b3ea9e9c9d62d93aba5"),
    "M11_principal_even": (["--M", "11", "--case", "principal_even", "--epsilon", "-1"],
        "beb53d0167b1df94e7e2fb235c1fe718faa18b1f28127dadaf67d5115ea93eaf"),
    "M11_principal_odd": (["--M", "11", "--case", "principal_odd", "--epsilon", "-1"],
        "d2b57633a5ca8823fdac1553a3fdc23e418a840a7cd06c15257596ada9f299b6"),
    "M11_self_cm": (["--M", "11", "--case", "self_cm"],
        "d2b57633a5ca8823fdac1553a3fdc23e418a840a7cd06c15257596ada9f299b6"),
    "M11_generic": (["--M", "11", "--case", "generic", "--residue", "7"],
        "9c909ff62c81a1900071a1dc14bde3e7f99acac1715a45b53af0ca44434b0155"),
}
DISCRIMINANT_X = "1000000"


@pytest.mark.parametrize("name", list(DISCRIMINANT_RUNS))
def test_golden_discriminants(name, tmp_path):
    flags, expected = DISCRIMINANT_RUNS[name]
    out = tmp_path / f"{name}.txt"
    assert main(["discriminants", *flags, "--X", DISCRIMINANT_X, "--out", str(out)]) == 0
    assert _digest(out) == expected


def test_discriminants_stdout_matches_file(tmp_path, capsysbinary):
    argv = ["discriminants", "--M", "11", "--case", "generic", "--residue", "7", "--X", "100000"]
    out = tmp_path / "family.txt"
    assert main(argv + ["--out", str(out)]) == 0
    capsysbinary.readouterr()
    assert main(argv) == 0
    assert capsysbinary.readouterr().out == out.read_bytes()


def test_empty_discriminant_family_writes_nothing(tmp_path, capsysbinary):
    argv = ["discriminants", "--M", "5", "--case", "generic", "--X", "3"]
    out = tmp_path / "family.txt"
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == b""
    assert main(argv) == 0
    captured = capsysbinary.readouterr()
    assert captured.out == b"" and b"count 0 " in captured.err
