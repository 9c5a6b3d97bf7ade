"""CLI behavior: outputs, determinism, config layering, and exit codes."""

import dataclasses
import inspect
import json
import math
import os
import shlex
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from excised_rmt import arith, cli, stats, theory, zeros
from excised_rmt.cli import (
    SAMPLE_HEADER,
    _decimal_lines,
    _digit_codes,
    _sample_table_chunks,
    _sample_table_text,
    build_parser,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_sample_csv_contract(capsys):
    code, out, _ = run(capsys, "sample", "--group", "so_even", "--n", "4", "--count", "3", "--seed", "1")
    assert code == 0
    lines = out.split("\n")
    assert lines[0] == SAMPLE_HEADER
    assert len(lines) == 5 and lines[-1] == ""
    fields = lines[1].split(",")
    assert len(fields) == 5 and fields[0] == "0"
    assert float(fields[4]) == pytest.approx(abs(complex(float(fields[2]), float(fields[3]))))


def test_negative_count_is_a_count_error(capsys):
    code, out, err = run(capsys, "sample", "--group", "unitary", "--n", "3", "--count", "-5")
    assert code == 1 and out == "" and err == "error: count must be >= 0\n"
    code, out, _ = run(capsys, "sample", "--group", "unitary", "--n", "3", "--count", "0")
    assert code == 0 and out == SAMPLE_HEADER + "\n"


@pytest.mark.parametrize(
    "flags, message",
    [(["--group", "so_evn", "--n", "3"], "unknown group name: 'so_evn'"),
     (["--group", "usp", "--n", "0"], "half-size N must be a positive integer"),
     (["--group", "usp", "--n", "3", "--count", "-1"], "count must be >= 0")],
)
def test_sample_argument_error_comes_before_any_output(flags, message, tmp_path, capsys):
    code, out, err = run(capsys, "sample", *flags)
    assert (code, out, err) == (1, "", f"error: {message}\n")
    result = tmp_path / "result.csv"
    code, out, err = run(capsys, "sample", *flags, "--out", str(result))
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert not result.exists()


@pytest.mark.parametrize("bins", ["0", "-2"])
@pytest.mark.parametrize(
    "argv",
    [
        ["onelevel", "--group", "usp", "--n", "3", "--count", "5"],
        ["paircorr", "--group", "unitary", "--n", "3", "--count", "5"],
    ],
)
def test_bins_below_one_is_a_data_error(argv, bins, capsys):
    code, out, err = run(capsys, *argv, "--bins", bins)
    assert code == 1 and out == "" and err == "error: bins must be >= 1\n"


def test_sample_table_text_formats_every_value():
    table = np.array(
        [(0, 0.1, -0.0, 1e-300, 2.5), (2**40, np.nan, np.inf, -np.inf, 1 / 3)],
        dtype=stats.SAMPLE_DTYPE,
    )
    assert _sample_table_text(table) == (
        "0,0.10000000000000001,-0,1e-300,2.5\n"
        "1099511627776,nan,inf,-inf,0.33333333333333331\n"
    )
    assert _sample_table_text(table[:0]) == ""


def test_sample_table_round_trips_bit_for_bit(tmp_path):
    rng = np.random.default_rng(5)
    table = np.empty(40, dtype=stats.SAMPLE_DTYPE)
    table["sample_index"] = rng.integers(-(2**63), 2**63 - 1, 40, endpoint=True)
    floats = stats.SAMPLE_DTYPE.names[1:]
    for name in floats:
        # 17-digit values over many magnitudes
        table[name] = rng.standard_normal(40) * 10.0 ** rng.integers(-300, 300, 40)
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308,
               0.1, 1 / 3, 2.0 / 3.0, 0.30000000000000004]
    for i, value in enumerate(special):
        table[floats[i % len(floats)]][i] = value
    table["sample_index"][:2] = 2**63 - 1, -(2**63)
    path = tmp_path / "samples.csv"
    path.write_text(SAMPLE_HEADER + "\n" + _sample_table_text(table))
    back = np.concatenate(list(_sample_table_chunks(path)))
    assert back.dtype == table.dtype and back.tobytes() == table.tobytes()


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    # every `excised-rmt` line of the README's CLI block, in order and with
    # --count lowered to 200, so samples.csv flows from sample into excise
    # and compare
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("excised-rmt ")]
    assert {argv[0] for argv in commands} == {
        "sample", "excise", "onelevel", "paircorr", "discriminants", "neff", "compare"}
    monkeypatch.chdir(tmp_path)
    (tmp_path / "zeros.csv").write_text("5,0.5,1.5\n8,0.25,2.0\n13,0.75,1.25\n")
    for argv in commands:
        if "--count" in argv:
            argv[argv.index("--count") + 1] = "200"
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)


def test_readme_library_block_runs():
    # the README's python block, as written: 500 SO(20) matrices
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    assert namespace["mats"].shape == (500, 20, 20)
    assert namespace["keep"].shape == (500,)


# one run of each subcommand, from a directory that holds s.csv and z.csv
SUBCOMMAND_RUNS = {
    "sample": ["sample", "--group", "so_even", "--n", "4", "--count", "30", "--seed", "2"],
    "onelevel": ["onelevel", "--group", "usp", "--n", "3", "--count", "30", "--bins", "7"],
    "paircorr": ["paircorr", "--group", "unitary", "--n", "4", "--count", "30", "--bins", "7"],
    "excise": ["excise", "--c", "0.5", "--k", "1", "--nstd", "5", "--input", "s.csv"],
    "compare": ["compare", "--zeros", "z.csv", "--samples", "s.csv", "--bins", "4"],
    "discriminants": ["discriminants", "--M", "5", "--case", "generic", "--X", "200"],
    "neff": ["neff", "--case", "principal_even", "--M", "11", "--X", "9960"],
}


def _subcommand_inputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["sample", "--group", "usp", "--n", "3", "--count", "40", "--out", "s.csv"]) == 0
    (tmp_path / "z.csv").write_text("5,0.5,1.5\n8,0.25,2.0\n")


@pytest.mark.parametrize("argv", list(SUBCOMMAND_RUNS.values()), ids=list(SUBCOMMAND_RUNS))
def test_stdout_matches_out_file(argv, tmp_path, monkeypatch, capsysbinary):
    # every subcommand writes the same bytes to stdout as to --out
    _subcommand_inputs(tmp_path, monkeypatch)
    assert main(argv + ["--out", "result"]) == 0
    capsysbinary.readouterr()
    assert main(argv) == 0
    out = capsysbinary.readouterr().out
    assert out and out == (tmp_path / "result").read_bytes()


def test_sample_deterministic_across_workers(tmp_path, capsys):
    outs = []
    # no --workers flag: every usable core
    for workers in ([], ["--workers", "1"], ["--workers", "3"], ["--workers", "7"]):
        p = tmp_path / f"s{len(outs)}.csv"
        code, _, _ = run(
            capsys, "sample", "--group", "usp", "--n", "5", "--count", "50",
            "--seed", "5", *workers, "--out", str(p),
        )
        assert code == 0
        outs.append(p.read_bytes())
    assert outs[0] == outs[1] == outs[2] == outs[3]


def test_onelevel_histogram_csv(capsys):
    code, out, _ = run(
        capsys, "onelevel", "--group", "so_even", "--n", "4", "--count", "200", "--seed", "3", "--bins", "8"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "bin_left,bin_right,density"
    assert len(lines) == 9
    assert float(lines[1].split(",")[0]) == 0.0
    assert float(lines[-1].split(",")[1]) == pytest.approx(math.pi)


def test_excise_pipeline(tmp_path, capsys):
    src = tmp_path / "s.csv"
    run(capsys, "sample", "--group", "so_even", "--n", "5", "--count", "100", "--seed", "7", "--out", str(src))
    dst = tmp_path / "kept.csv"
    code, _, err = run(
        capsys, "excise", "--c", "0.4", "--k", "1", "--nstd", "8.0",
        "--input", str(src), "--out", str(dst),
    )
    assert code == 0
    kept = dst.read_text().strip().split("\n")[1:]
    src_rows = src.read_text().strip().split("\n")[1:]
    assert 0 < len(kept) < len(src_rows)
    assert all(float(r.split(",")[4]) >= 0.4 for r in kept)
    assert "kept" in err


def test_discriminants_output(capsys):
    code, out, err = run(capsys, "discriminants", "--M", "5", "--case", "generic", "--X", "200")
    assert code == 0
    ds = [int(x) for x in out.split()]
    assert all(d % 5 == 1 for d in ds)
    assert "estimate" in err


def test_discriminants_rejects_x_beyond_the_sieve(capsys):
    code, out, err = run(capsys, "discriminants", "--M", "3", "--case", "generic", "--X", str(10**30))
    assert (code, out, err) == (1, "", "error: X must be < 2**62\n")


def _decimal_reference(values) -> bytes:
    return "".join(f"{v}\n" for v in values).encode()


def test_decimal_lines_at_every_width_boundary():
    # 10**(4k) - 1, 10**(4k) and 10**(4k) + 1 also end a group of four digits
    values = [0]
    for k in range(1, 19):
        values += [10**k - 1, 10**k, 10**k + 1]
    values.append(2**63 - 1)
    array = np.array(values, dtype=np.int64)
    assert _decimal_lines(array) == _decimal_reference(values)
    # every slice that starts or ends at a boundary
    for i in range(len(values)):
        assert _decimal_lines(array[i:]) == _decimal_reference(values[i:])
        assert _decimal_lines(array[:i]) == _decimal_reference(values[:i])


@pytest.mark.parametrize("value", [0, 7, 10, 123456789, 10**18, 2**63 - 1])
def test_decimal_lines_single_value(value):
    assert _decimal_lines(np.array([value], dtype=np.int64)) == f"{value}\n".encode()


@given(st.lists(st.integers(min_value=0, max_value=2**63 - 1), max_size=40))
@settings(max_examples=200, deadline=None)
def test_decimal_lines_matches_python_formatting(values):
    values = sorted(values)
    assert _decimal_lines(np.array(values, dtype=np.int64)) == _decimal_reference(values)


def test_decimal_lines_every_integer_below_2e5():
    assert _decimal_lines(np.arange(2 * 10**5)) == _decimal_reference(range(2 * 10**5))


@pytest.mark.parametrize("width", range(6, 20))
def test_decimal_lines_seeded_values_of_each_width(width):
    # the largest width-digit value that fits in int64, inclusive
    high = min(10**width, 2**63) - 1
    values = np.random.default_rng(width).integers(10 ** (width - 1), high, 10**4, endpoint=True)
    values[0] = high
    values.sort()
    assert _decimal_lines(values) == _decimal_reference(values.tolist())


def test_digit_codes_hold_zero_padded_ascii_digits():
    assert _digit_codes(4)[1234].tobytes() == b"1234"
    assert _digit_codes(3)[7].tobytes()[:3] == b"007"
    for k in range(1, 5):
        codes = _digit_codes(k)
        assert codes.dtype == np.dtype("<u4") and codes.size == 10**k
        expected = "".join(f"{r:0{k}d}" + "\0" * (4 - k) for r in range(10**k)).encode()
        assert codes.tobytes() == expected
        assert not codes.flags.writeable
        with pytest.raises(ValueError):
            codes[0] = 0


def test_decimal_lines_memory_per_value():
    # one sieve window's worth of 7-digit values
    values = np.arange(10**6, 10**6 + 35_000, dtype=np.int64)
    _decimal_lines(values)  # builds the code tables
    tracemalloc.start()
    try:
        _decimal_lines(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / values.size <= 33, peak / values.size


def _peak_bytes(*argv):
    """The tracemalloc peak of one successful CLI run."""
    tracemalloc.start()
    try:
        assert main(list(argv)) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _discriminants_peak_bytes(tmp_path, X):
    return _peak_bytes("discriminants", "--M", "3", "--case", "principal_even", "--X", str(X),
                       "--out", str(tmp_path / "d.txt"))


def test_discriminants_memory_does_not_grow_with_x(tmp_path, capsys):
    _discriminants_peak_bytes(tmp_path, 1000)  # first-call allocations
    small = _discriminants_peak_bytes(tmp_path, 10**6)
    large = _discriminants_peak_bytes(tmp_path, 10**7)
    assert large <= 4 * 2**20, large
    assert large <= 1.1 * small, (small, large)


def test_sample_memory_does_not_grow_with_the_count(tmp_path, monkeypatch):
    # blocks of 250 SO(4) matrices, so that both counts are whole blocks of
    # one size: rows are formatted and written block by block
    monkeypatch.setattr(stats, "_BLOCK_ELEMENTS", 250 * 16)
    argv = ["sample", "--group", "so_even", "--n", "2", "--workers", "1",
            "--out", str(tmp_path / "s.csv"), "--count"]
    _peak_bytes(*argv, "500")  # first-call allocations
    small = _peak_bytes(*argv, "5000")
    large = _peak_bytes(*argv, "50000")
    assert large <= 1.1 * small, (small, large)


def _excise_peak_bytes(tmp_path, count):
    # every row is kept at the threshold 0.5, the most that excise holds
    rows = np.empty(count, dtype=stats.SAMPLE_DTYPE)
    rows["sample_index"] = np.arange(count)
    for name in stats.SAMPLE_DTYPE.names[1:]:
        rows[name] = np.random.default_rng(count).uniform(1.0, 2.0, count)
    samples = tmp_path / "samples.csv"
    samples.write_text(SAMPLE_HEADER + "\n" + _sample_table_text(rows))
    del rows
    return _peak_bytes("excise", "--c", "0.5", "--k", "1", "--nstd", "5",
                       "--input", str(samples), "--out", str(tmp_path / "kept.csv"))


def test_excise_holds_one_structured_row_per_kept_row(tmp_path, capsys):
    # the kept rows, 40 bytes each, and one chunk of lines at a time
    _excise_peak_bytes(tmp_path, 100)  # first-call allocations
    small = _excise_peak_bytes(tmp_path, 5_000)
    large = _excise_peak_bytes(tmp_path, 50_000)
    assert stats.SAMPLE_DTYPE.itemsize == 40
    assert (large - small) / 45_000 <= 64, (small, large)
    assert (tmp_path / "kept.csv").read_text() == (tmp_path / "samples.csv").read_text()


def test_sample_failure_mid_run_keeps_the_rows_before_it(tmp_path, monkeypatch, capsys):
    # blocks of 10 SO(4) matrices on one thread; the third block fails
    monkeypatch.setattr(stats, "_BLOCK_ELEMENTS", 10 * 16)
    argv = ["sample", "--group", "so_even", "--n", "2", "--count", "50", "--workers", "1",
            "--seed", "3", "--out"]
    code, _, _ = run(capsys, *argv, str(tmp_path / "whole.csv"))
    assert code == 0
    summary_rows = stats.summary_rows

    def failing(spec, start, mats):
        if start == 20:
            raise ValueError("planted failure")
        return summary_rows(spec, start, mats)

    monkeypatch.setattr(stats, "summary_rows", failing)
    code, _, err = run(capsys, *argv, str(tmp_path / "cut.csv"))
    assert (code, err) == (1, "error: planted failure\n")
    whole = (tmp_path / "whole.csv").read_text().splitlines(keepends=True)
    assert (tmp_path / "cut.csv").read_text() == "".join(whole[:21])


@pytest.mark.parametrize("command", list(SUBCOMMAND_RUNS))
def test_only_the_sampling_subcommands_keep_block_memory(command, tmp_path, monkeypatch, capsys):
    _subcommand_inputs(tmp_path, monkeypatch)
    calls = []
    monkeypatch.setattr(cli, "_keep_block_memory", lambda: calls.append(command))
    assert main(SUBCOMMAND_RUNS[command] + ["--out", "result"]) == 0
    assert calls == ([command] if command in ("sample", "onelevel", "paircorr") else [])


def _fake_libc(result):
    """A libc whose mallopt returns result, and the list of its calls."""
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return result

    return types.SimpleNamespace(mallopt=mallopt), calls


def _no_libc(name):
    raise OSError("no libc")


@pytest.mark.parametrize("cdll", [lambda name: types.SimpleNamespace(), _no_libc],
                         ids=["no-mallopt", "oserror"])
@pytest.mark.parametrize("command", ["sample", "onelevel", "paircorr"])
def test_sampling_without_mallopt_writes_the_same_bytes(command, cdll, tmp_path, monkeypatch,
                                                        capsys):
    _subcommand_inputs(tmp_path, monkeypatch)
    assert main(SUBCOMMAND_RUNS[command] + ["--out", "with"]) == 0
    monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    assert main(SUBCOMMAND_RUNS[command] + ["--out", "without"]) == 0
    assert (tmp_path / "with").read_bytes() == (tmp_path / "without").read_bytes()


@pytest.mark.parametrize("result, taken", [(1, 2), (0, 1)], ids=["taken", "refused"])
def test_keep_block_memory_sets_both_thresholds_or_neither(result, taken, monkeypatch):
    libc, calls = _fake_libc(result)
    monkeypatch.setattr(cli.os, "confstr", lambda name: "glibc 2.36", raising=False)
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc)
    cli._keep_block_memory()
    block_bytes = 16 * stats._BLOCK_ELEMENTS
    # M_MMAP_THRESHOLD first: the trim threshold is set only if it was taken
    assert calls == [(-3, 4 * block_bytes), (-1, 8 * block_bytes)][:taken]


def _unknown_confstr_name(name):
    raise ValueError("unrecognized configuration name")


@pytest.mark.parametrize("confstr", [lambda name: None, _unknown_confstr_name],
                         ids=["other-libc", "unknown-name"])
def test_keep_block_memory_leaves_other_libcs_alone(confstr, monkeypatch):
    libc, calls = _fake_libc(1)
    monkeypatch.setattr(cli.os, "confstr", confstr, raising=False)
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc)
    cli._keep_block_memory()
    assert calls == []


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError):
        return False


def _child_minor_faults(tmp_path, count) -> int:
    """The minor page faults of one `onelevel` run in a child process."""
    import resource

    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    subprocess.run([sys.executable, "-m", "excised_rmt.cli", "onelevel", "--group", "usp",
                    "--n", "10", "--workers", "2", "--count", str(count),
                    "--out", str(tmp_path / "density.csv")], env=env, check=True, timeout=120)
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before


@pytest.mark.skipif(not (sys.platform.startswith("linux") and _glibc()),
                    reason="counts glibc's page faults on Linux")
def test_block_memory_is_not_faulted_in_again_for_every_block(tmp_path):
    # about 13 and 50 blocks of 163 USp(20) matrices: freed blocks stay in
    # the process, so the faults are the interpreter's and the first blocks'
    small = _child_minor_faults(tmp_path, 2048)
    large = _child_minor_faults(tmp_path, 8192)
    assert large <= 1.25 * small, (small, large)


def test_decimal_lines_empty():
    assert _decimal_lines(np.empty(0, dtype=np.int64)) == b""


def test_neff_generic_json(capsys):
    code, out, _ = run(capsys, "neff", "--case", "generic", "--e1", "0.02", "--e2", "2.0", "--R", "8")
    assert code == 0
    data = json.loads(out)
    assert data["n_eff"] == pytest.approx(8.0 / math.sqrt(5.92))


def test_neff_principal_json(capsys):
    code, out, _ = run(capsys, "neff", "--case", "principal_even", "--M", "11", "--X", "9960")
    assert code == 0
    data = json.loads(out)
    assert "a1" in data["coefficients"]
    assert data["n_eff"] > 0


def _neff_principal(capsys, *extra):
    return run(capsys, "neff", "--case", "principal_even", "--M", "11", "--X", "9960", *extra)


def test_neff_coeffs_file(tmp_path, capsys):
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text(json.dumps({"k": 4, "Lp_sym": 0.5, "A1_00": None}))
    code, out, _ = _neff_principal(capsys, "--coeffs", str(coeffs))
    assert code == 0
    raw = theory.CoefficientInputs(k=4, Lp_sym=0.5)
    cs = theory.coefficient_assembly(theory.SymmetryCase.PrincipalEven, raw)
    data = json.loads(out)
    assert data["coefficients"] == cs
    assert data["n_eff"] == theory.n_eff(theory.SymmetryCase.PrincipalEven, 11, 9960, cs)
    # a null value keeps the default
    coeffs.write_text(json.dumps({"A1_00": None}))
    assert _neff_principal(capsys, "--coeffs", str(coeffs)) == _neff_principal(capsys)


# A --coeffs file that moves every principal-case coefficient, and the
# exact neff stdout with and without it.  The floats are the shortest
# reprs that round-trip, so dumping a dict of them gives the exact bytes.
NEFF_COEFFS = {"A1_00": 0.125, "Lp_sym": -0.375, "L1_chi": 0.75, "xi0": 0.5,
               "eta": 1.5, "Atilde_00": 0.25, "L1_sym": 2.0}
NEFF_STDOUT = {
    ("principal_even", False): ({"a1": 2.1544313298030655, "a2": 3.120850198188922},
                                1.9883211876035105),
    ("principal_even", True): ({"a1": 2.4044313298030655, "a2": 4.736673695541221},
                               1.781586110273774),
    ("principal_odd", False): ({"a3": 3.008799638835712, "a4": -3.932837736771713},
                               2.1812695722372037),
    ("principal_odd", True): ({"a3": 3.508799638835712, "a4": -7.164484731476311},
                              1.7991916754886024),
    ("self_cm", False): ({"b1": 1.5772156649015328, "b2": 1.1544313298030657},
                         5.431979348939167),
    ("self_cm", True): ({"b1": 1.0772156649015328, "b2": -0.028480418873083835},
                        7.953284750414042),
}


@pytest.mark.parametrize("case, with_coeffs", list(NEFF_STDOUT))
def test_neff_stdout_is_pinned(case, with_coeffs, tmp_path, capsys):
    extra = []
    if with_coeffs:
        (tmp_path / "coeffs.json").write_text(json.dumps(NEFF_COEFFS))
        extra = ["--coeffs", str(tmp_path / "coeffs.json")]
    code, out, err = run(capsys, "neff", "--case", case, "--M", "11", "--X", "9960", *extra)
    coefficients, n_eff = NEFF_STDOUT[case, with_coeffs]
    expected = {"M": 11, "X": 9960, "case": case, "coefficients": coefficients, "n_eff": n_eff}
    assert (code, err) == (0, "")
    assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_neff_stdout_coefficients_match_the_formula_at_50_digits(monkeypatch):
    # coefficient_assembly run on mpmath numbers, with psi(k/2), gamma and
    # gamma_1 to 50 digits: each pin is within one unit in the last place
    # of max(1, |value|), the scale of the terms that cancel in b2
    monkeypatch.setattr(theory, "digamma_half", lambda k: mpmath.digamma(mpmath.mpf(k) / 2))
    with mpmath.workdps(50):
        monkeypatch.setattr(theory, "EULER_GAMMA", +mpmath.euler)
        monkeypatch.setattr(theory, "STIELTJES_GAMMA1", mpmath.stieltjes(1))
        for (case, with_coeffs), (coefficients, _) in NEFF_STDOUT.items():
            given = NEFF_COEFFS if with_coeffs else {}
            raw = theory.CoefficientInputs(**{key: mpmath.mpf(v) for key, v in given.items()})
            exact = theory.coefficient_assembly(theory.SymmetryCase(case), raw)
            for name, value in coefficients.items():
                assert abs(value - exact[name]) <= math.ulp(max(1.0, abs(value))), (case, name)


def test_neff_generic_stdout_is_pinned(capsys):
    code, out, err = run(capsys, "neff", "--case", "generic", "--e1", "0.024", "--e2", "2.0",
                         "--R", "8.5")
    assert (code, err) == (0, "")
    assert out == (
        '{\n  "R": 8.5,\n  "case": "generic",\n  "e1": 0.024,\n  "e2": 2.0,\n'
        '  "n_eff": 3.498208988133963\n}\n'
    )


@pytest.mark.parametrize(
    "text, message",
    [
        ("{not json", "invalid JSON in "),
        ("[1, 2]", "coeffs root must be a JSON object"),
        ('{"k": "x"}', "coeffs field 'k' must be an integer, got 'x'"),
        ('{"k": 2.5}', "coeffs field 'k' must be an integer, got 2.5"),
        ('{"k": true}', "coeffs field 'k' must be an integer, got True"),
        ('{"k": 0}', "weight k must be >= 1"),
        ('{"A1_00": "0.1"}', "coeffs field 'A1_00' must be a number, got '0.1'"),
        ('{"b1": 7}', "unknown coefficient keys: ['b1']"),
        ('{"a1": 1.5, "kappa": 0}', "unknown coefficient keys: ['a1', 'kappa']"),
        ('{"euler_gamma": 0.5}', "unknown coefficient keys: ['euler_gamma']"),
        ('{"stieltjes1": null}', "unknown coefficient keys: ['stieltjes1']"),
    ],
)
def test_neff_bad_coeffs_file_is_data_error(text, message, tmp_path, capsys):
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text(text)
    code, out, err = _neff_principal(capsys, "--coeffs", str(coeffs))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize(
    "argv, unused",
    [
        (("--case", "generic", "--e1", "0.024", "--e2", "2.0", "--R", "8.5", "--coeffs", "bad.json"),
         "--coeffs"),
        (("--case", "generic", "--e1", "0.024", "--e2", "2.0", "--R", "8.5", "--M", "11", "--X", "9960"),
         "--M, --X"),
        (("--case", "principal_even", "--M", "11", "--X", "9960", "--e1", "5", "--R", "-3"),
         "--e1, --R"),
        (("--case", "self_cm", "--M", "11", "--X", "9960", "--e2", "2.0"), "--e2"),
    ],
)
def test_neff_rejects_the_other_branchs_flags(argv, unused, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.json").write_text('{"k": "not read"}')
    code, out, err = run(capsys, "neff", *argv, "--out", "result")
    assert (code, out) == (1, "")
    assert err == f"error: --case {argv[1]} does not use {unused}\n"
    assert not (tmp_path / "result").exists()


@pytest.mark.parametrize("argv, missing", [(("--case", "generic", "--e1", "0.1", "--R", "8"), "--e2"),
                                           (("--case", "principal_odd", "--X", "9960"), "--M")])
def test_neff_missing_flag_is_data_error(argv, missing, capsys):
    code, out, err = run(capsys, "neff", *argv)
    assert (code, out, err) == (1, "", f"error: --case {argv[1]} requires {missing}\n")


def test_neff_that_is_not_positive_is_data_error(capsys):
    code, out, err = run(capsys, "neff", "--case", "principal_even", "--M", "11", "--X", "1")
    assert (code, out) == (1, "")
    assert "not positive" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("neff", "--case", "generic", "--e1", "nan", "--e2", "2", "--R", "8"),
        ("neff", "--case", "generic", "--e1", "0.02", "--e2", "inf", "--R", "8"),
        ("neff", "--case", "generic", "--e1", "0.02", "--e2", "2", "--R", "-8.5"),
        ("neff", "--case", "principal_even", "--M", "11", "--X", "9960", "--coeffs", "nan.json"),
        ("paircorr", "--group", "unitary", "--n", "3", "--count", "5", "--window", "inf"),
        ("paircorr", "--group", "unitary", "--n", "3", "--count", "5", "--window", "nan"),
        ("excise", "--c", "nan", "--k", "1", "--nstd", "5", "--input", "s.csv"),
        ("excise", "--c", "0.5", "--k", "2", "--nstd", "inf", "--input", "s.csv"),
    ],
)
def test_non_finite_parameter_is_data_error(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run(capsys, "sample", "--group", "so_even", "--n", "3", "--count", "5", "--out", "s.csv")
    (tmp_path / "nan.json").write_text('{"A1_00": NaN}')
    code, out, err = run(capsys, *argv, "--out", "result")
    assert code == 1 and out == ""
    assert err.startswith("error: ")
    assert not (tmp_path / "result").exists()


@pytest.mark.parametrize("kind", ["neff", "excise"])
def test_integer_too_large_for_a_float_is_data_error(kind, tmp_path, capsys):
    huge = 10**400
    if kind == "neff":
        argv = ["neff", "--case", "principal_even", "--M", "11", "--X", str(huge)]
    else:
        (tmp_path / "c.json").write_text(json.dumps({"kind": "excise", "c": huge}))
        argv = ["excise", "--config", str(tmp_path / "c.json"), "--k", "1", "--nstd", "5",
                "--input", str(tmp_path / "s.csv")]
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "result"))
    assert code == 1 and out == ""
    assert err == "error: int too large to convert to float\n"
    assert not (tmp_path / "result").exists()


def _read_through(command, samples, tmp_path, capsys):
    """Runs excise or compare on a sample CSV; (exit code, stdout, stderr)."""
    if command == "excise":
        return run(capsys, "excise", "--c", "0.5", "--k", "1", "--nstd", "5", "--input", str(samples))
    zeros = tmp_path / "z.csv"
    zeros.write_text("5,0.5,1.5\n8,0.25,2.0\n")
    return run(capsys, "compare", "--zeros", str(zeros), "--samples", str(samples), "--bins", "4")


@pytest.mark.parametrize("command", ["excise", "compare"])
@pytest.mark.parametrize(
    "text, message",
    [
        ("wrong,header\n0,0.5,1,0,1\n", f"expected header {SAMPLE_HEADER!r}"),
        ("", f"expected header {SAMPLE_HEADER!r}"),
        (SAMPLE_HEADER + "\n0,0.5,1\n", "line 2: expected 5 fields"),
        (SAMPLE_HEADER + "\n0,0.5,1,0,1\n1,0.5,1,0,1,2\n", "line 3: expected 5 fields"),
        (SAMPLE_HEADER + "\n0,0.5,1,0,1\n\n1,0.5,x,0,1\n",
         "line 4: could not convert string to float: 'x'"),
        (SAMPLE_HEADER + "\n1.5,0.5,1,0,1\n", "line 2: invalid literal for int() with base 10: '1.5'"),
    ],
)
def test_bad_sample_table_is_data_error(command, text, message, tmp_path, capsys):
    samples = tmp_path / "bad.csv"
    samples.write_text(text)
    code, out, err = _read_through(command, samples, tmp_path, capsys)
    assert code == 1 and out == ""
    assert err == f"error: {samples}: {message}\n"


@pytest.mark.parametrize("command", ["excise", "compare"])
def test_sample_table_blank_lines_are_skipped(command, tmp_path, capsys):
    rows = ["0,0.5,1,0,1", "1,0.25,0.10000000000000001,0,0.10000000000000001"]
    plain = tmp_path / "plain.csv"
    plain.write_text("\n".join([SAMPLE_HEADER, *rows]) + "\n")
    blank = tmp_path / "blank.csv"
    blank.write_text("\n".join([SAMPLE_HEADER, "", rows[0], "   ", rows[1], ""]) + "\n\n")
    result = _read_through(command, blank, tmp_path, capsys)
    assert result[0] == 0
    assert result == _read_through(command, plain, tmp_path, capsys)
    if command == "excise":
        assert result[1:] == (SAMPLE_HEADER + "\n" + rows[0] + "\n", "kept 1 of 2 (threshold 0.5)\n")


@pytest.mark.parametrize("blank", ["", "\n", "  \n\t\n"])
def test_excise_header_only_table(blank, tmp_path, capsys):
    # no numpy "input contained no data" warning escapes (warnings are errors here)
    samples = tmp_path / "empty.csv"
    samples.write_text(SAMPLE_HEADER + "\n" + blank)
    code, out, err = _read_through("excise", samples, tmp_path, capsys)
    assert (code, out, err) == (0, SAMPLE_HEADER + "\n", "kept 0 of 0 (threshold 0.5)\n")


def test_compare_header_only_table(tmp_path, capsys):
    samples = tmp_path / "empty.csv"
    samples.write_text(SAMPLE_HEADER + "\n\n")
    code, out, err = _read_through("compare", samples, tmp_path, capsys)
    assert (code, out, err) == (1, "", "error: mean_normalize: empty input\n")


@pytest.mark.parametrize("command", ["excise", "compare"])
@pytest.mark.parametrize(
    "line, lineno",
    [("# a comment", 3), ("#0,0.5,1,0,1", 3), ("\t#", 3)],
)
def test_sample_table_has_no_comment_lines(command, line, lineno, tmp_path, capsys):
    samples = tmp_path / "comment.csv"
    samples.write_text("\n".join([SAMPLE_HEADER, "0,0.5,1,0,1", line, "1,0.5,1,0,1"]) + "\n")
    code, out, err = _read_through(command, samples, tmp_path, capsys)
    assert (code, out) == (1, "")
    if line.count(",") == 4:
        message = "invalid literal for int() with base 10: '#0'"
    else:
        message = "expected 5 fields"
    assert err == f"error: {samples}: line {lineno}: {message}\n"


# Each of these rows reads as the row beside it: spaces around a field,
# an explicit sign and PEP 515 underscores are what int() and float() accept
EQUIVALENT_ROWS = [
    (" 0 , 0.5 ,1,\t0 ,1 ", "0,0.5,1,0,1"),
    ("+7,+0.25,-1e0,0.0,1E0", "7,0.25,-1,0,1"),
    ("1_0,1_0.5,2_0,0,3_0", "10,10.5,20,0,30"),
    ("3,NaN,-Infinity,INF,+inf", "3,nan,-inf,inf,inf"),
]


@pytest.mark.parametrize("command", ["excise", "compare"])
def test_sample_table_fields_read_as_python_numbers(command, tmp_path, capsys):
    written = tmp_path / "written.csv"
    written.write_text("\n".join([SAMPLE_HEADER, *(row for row, _ in EQUIVALENT_ROWS)]) + "\n")
    plain = tmp_path / "plain.csv"
    plain.write_text("\n".join([SAMPLE_HEADER, *(row for _, row in EQUIVALENT_ROWS)]) + "\n")
    result = _read_through(command, written, tmp_path, capsys)
    assert result[0] == 0
    assert result == _read_through(command, plain, tmp_path, capsys)
    if command == "excise":
        assert result[1] == "\n".join([SAMPLE_HEADER, "0,0.5,1,0,1", "7,0.25,-1,0,1",
                                       "10,10.5,20,0,30", "3,nan,-inf,inf,inf"]) + "\n"


@pytest.mark.parametrize("command", ["excise", "compare"])
def test_sample_table_special_values_round_trip(command, tmp_path, capsys):
    # every row is kept at the threshold 0.5, so excise writes back the bytes it read
    rows = ["1099511627776,nan,inf,-0,inf", "0,-0,-inf,nan,1",
            "9223372036854775807,0.10000000000000001,-1.7976931348623157e+308,"
            "4.9406564584124654e-324,0.5"]
    samples = tmp_path / "special.csv"
    samples.write_text("\n".join([SAMPLE_HEADER, *rows]) + "\n")
    code, out, err = _read_through(command, samples, tmp_path, capsys)
    assert code == 0
    if command == "excise":
        assert (out, err) == (samples.read_text(), "kept 3 of 3 (threshold 0.5)\n")
    else:
        # the NaN first angle is left out
        assert json.loads(out)["n_right"] == 2


def test_compare_report(tmp_path, capsys):
    samples = tmp_path / "s.csv"
    run(capsys, "sample", "--group", "usp", "--n", "4", "--count", "300", "--seed", "4", "--out", str(samples))
    zpath = tmp_path / "z.csv"
    rng = np.random.default_rng(0)
    rows = []
    for i, d in enumerate(range(5, 65)):
        g = np.sort(rng.uniform(0.05, 3.0, 3))
        rows.append(f"{d}," + ",".join(f"{x:.8f}" for x in g))
    zpath.write_text("\n".join(rows) + "\n")
    out_path = tmp_path / "rep.json"
    code, _, _ = run(
        capsys, "compare", "--zeros", str(zpath), "--samples", str(samples),
        "--bins", "12", "--out", str(out_path),
    )
    assert code == 0
    rep = json.loads(out_path.read_text())
    assert rep["n_left"] == 60 and rep["n_right"] == 300
    assert len(rep["bins"]) == 12


@pytest.mark.parametrize("ordinate", ["nan", "inf"])
def test_compare_rejects_non_finite_ordinates(tmp_path, capsys, ordinate):
    samples = tmp_path / "s.csv"
    run(capsys, "sample", "--group", "usp", "--n", "2", "--count", "20", "--seed", "4", "--out", str(samples))
    zpath = tmp_path / "z.csv"
    zpath.write_text(f"5,0.5,1.5\n8,0.25,{ordinate}\n")
    out_path = tmp_path / "rep.json"
    code, _, err = run(
        capsys, "compare", "--zeros", str(zpath), "--samples", str(samples), "--out", str(out_path),
    )
    assert code == 1
    assert err == "error: line 2: non-finite ordinate\n"
    assert not out_path.exists()


def test_compare_rejects_ordinates_whose_mean_overflows(tmp_path, capsys):
    # the mean of these ordinates overflows to inf, and dividing by it
    # would put every zero sample at 0
    samples = tmp_path / "s.csv"
    run(capsys, "sample", "--group", "usp", "--n", "2", "--count", "20", "--seed", "4", "--out", str(samples))
    zpath = tmp_path / "z.csv"
    zpath.write_text("5,1e308,1.5e308\n8,1.2e308,1.6e308\n")
    code, out, err = run(capsys, "compare", "--zeros", str(zpath), "--samples", str(samples))
    assert code == 1 and out == ""
    assert err == "error: mean_normalize: mean inf is not positive and finite\n"


def test_config_provides_defaults_flags_override(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"kind": "sample", "count": 2, "seed": 42}))
    code, out, _ = run(capsys, "sample", "--group", "unitary", "--n", "3", "--config", str(cfg))
    assert code == 0
    assert len(out.strip().split("\n")) == 3  # header + 2 rows from config
    code, out, _ = run(
        capsys, "sample", "--group", "unitary", "--n", "3", "--count", "4", "--config", str(cfg)
    )
    assert len(out.strip().split("\n")) == 5  # flag wins


def test_explicit_flag_beats_config_even_at_its_default(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"kind": "sample", "count": 3, "seed": 5}))
    base = ["sample", "--group", "unitary", "--n", "3", "--count", "3"]
    _, seed0, _ = run(capsys, *base, "--seed", "0")
    _, seed5, _ = run(capsys, *base, "--seed", "5")
    _, merged, _ = run(capsys, *base, "--seed", "0", "--config", str(cfg))
    assert seed0 != seed5
    assert merged == seed0


def test_config_supplies_required_flags(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"kind": "sample", "group": "usp", "n": 2, "count": 2}))
    code, out, _ = run(capsys, "sample", "--config", str(cfg))
    assert code == 0
    assert out == run(capsys, "sample", "--group", "usp", "--n", "2", "--count", "2")[1]


@pytest.mark.parametrize("workers", [0, -4])
def test_workers_below_one_is_data_error(workers, tmp_path, capsys):
    argv = ["sample", "--group", "unitary", "--n", "3", "--count", "2"]
    code, out, err = run(capsys, *argv, "--workers", str(workers))
    assert code == 1 and out == "" and err == f"error: --workers must be >= 1, got {workers}\n"
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"kind": "sample", "workers": workers}))
    assert run(capsys, *argv, "--config", str(cfg)) == (1, "", err)


@pytest.mark.parametrize(
    "argv",
    [
        ("excise", "--c", "1", "--k", "1", "--nstd", "5", "--input", "s.csv"),
        ("discriminants", "--M", "5", "--case", "generic", "--X", "50"),
        ("neff", "--case", "generic", "--e1", "0.1", "--e2", "2", "--R", "8"),
        ("compare", "--zeros", "z.csv", "--samples", "s.csv"),
    ],
)
def test_workers_only_on_monte_carlo_commands(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--workers", "2"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


def test_flag_defaults_restate_the_library_defaults():
    def cli(command):
        # the parser leaves required flags to main, so a bare subcommand parses
        return vars(build_parser().parse_args([command]))

    def library(func):
        return {name: p.default for name, p in inspect.signature(func).parameters.items()}

    for command in ("onelevel", "paircorr", "compare"):
        assert cli(command)["bins"] == stats.DEFAULT_BINS
    assert library(zeros.compare_report)["bins"] == stats.DEFAULT_BINS
    assert cli("paircorr")["window"] == library(stats.pair_correlation_mc)["window"]
    compare, statistic = cli("compare"), library(zeros.lowest_zero_statistic)
    assert (compare["which"], compare["vanish_tol"]) == (statistic["which"], statistic["vanish_tol"])
    for which in zeros.SELECTORS:
        assert build_parser().parse_args(["compare", "--which", which]).which == which
    family = {f.name: f.default for f in dataclasses.fields(arith.FamilySpec)}
    discriminants = cli("discriminants")
    assert (discriminants["epsilon"], discriminants["delta"], discriminants["residue"]) == (
        family["epsilon_f"], family["Delta"], family["residue_u"])


@pytest.mark.parametrize(
    "field, value",
    [("count", 2.5), ("bins", 8.0), ("n", True), ("seed", "7"), ("group", 3),
     ("out", ["o.csv"]), ("window", False), ("window", "5"), ("workers", "2")],
)
def test_config_value_of_wrong_type_is_data_error(field, value, tmp_path, capsys):
    data = {"kind": "paircorr", "group": "unitary", "n": 3, "count": 2, field: value}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(data))
    code, out, err = run(capsys, "paircorr", "--config", str(cfg))
    assert code == 1 and out == ""
    assert err.startswith(f"error: config field {field!r} must be ")


@pytest.mark.parametrize(
    "data, argv",
    [({"kind": "compare", "which": "highest"}, ["--zeros", "z.csv", "--samples", "s.csv"]),
     ({"kind": "discriminants", "epsilon": 2}, ["--M", "5", "--case", "generic", "--X", "50"])],
)
def test_config_value_out_of_choices_is_data_error(data, argv, tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(data))
    code, out, err = run(capsys, data["kind"], *argv, "--config", str(cfg))
    field = next(key for key in data if key != "kind")
    assert code == 1 and out == ""
    assert err.startswith(f"error: config field {field!r} must be one of ")


def test_config_integer_for_a_float_flag(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"kind": "paircorr", "window": 5}))
    argv = ["paircorr", "--group", "unitary", "--n", "3", "--count", "4", "--bins", "5"]
    code, out, _ = run(capsys, *argv, "--config", str(cfg))
    assert code == 0
    assert out == run(capsys, *argv, "--window", "5")[1]


@pytest.mark.parametrize(
    "text, message",
    [
        ("{not json", "invalid JSON in "),
        ("[1, 2]", "config root must be a JSON object"),
        ('{"group": "usp"}', "config must declare an experiment kind"),
        ('{"kind": "frobnicate"}', "config kind 'frobnicate' does not match subcommand 'sample'"),
        ('{"kind": "sample", "grupo": "usp"}', "config sets 'grupo', which 'sample' has no flag for"),
        ('{"kind": "sample", "help": true}', "config sets 'help', which 'sample' has no flag for"),
        ('{"kind": "sample", "config": "c.json"}',
         "config sets 'config', which 'sample' has no flag for"),
    ],
)
def test_malformed_config_is_data_error(text, message, tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(text)
    code, out, err = run(capsys, "sample", "--group", "usp", "--n", "2", "--config", str(cfg))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {message}")


def test_config_field_without_a_flag_is_data_error(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(
        {"kind": "discriminants", "M": 5, "case": "generic", "X": 50, "workers": 0, "bins": 4}))
    code, out, err = run(capsys, "discriminants", "--config", str(cfg))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "'bins'" in err and "'workers'" in err
    cfg.write_text(json.dumps({"kind": "discriminants", "M": 5, "case": "generic", "X": 50}))
    code, out, _ = run(capsys, "discriminants", "--config", str(cfg))
    assert code == 0 and out == "21\n41\n"


def test_config_kind_mismatch_is_data_error(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"kind": "onelevel"}))
    code, _, err = run(capsys, "sample", "--group", "unitary", "--n", "3", "--config", str(cfg))
    assert code == 1
    assert "error" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--n", "3"])  # missing --group
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_data_error_exit_code(tmp_path, capsys):
    code, _, err = run(capsys, "excise", "--c", "1", "--k", "1", "--nstd", "5",
                       "--input", str(tmp_path / "missing.csv"))
    assert code == 1
    assert "error" in err
    bad = tmp_path / "bad.csv"
    bad.write_text("wrong,header\n1,2\n")
    code, _, _ = run(capsys, "excise", "--c", "1", "--k", "1", "--nstd", "5", "--input", str(bad))
    assert code == 1
    zbad = tmp_path / "z.csv"
    zbad.write_text("5,1.0,0.5\n")
    code, _, _ = run(capsys, "compare", "--zeros", str(zbad), "--samples", str(bad))
    assert code == 1


def test_unknown_group_is_data_error(capsys):
    code, _, err = run(capsys, "sample", "--group", "nope", "--n", "3", "--count", "1")
    assert code == 1
    assert "error" in err
