"""CLI behavior: outputs, determinism, config layering, and exit codes."""

import json
import math
import shlex
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from excised_rmt import stats, theory
from excised_rmt.cli import (
    SAMPLE_HEADER,
    _decimal_lines,
    _read_sample_table,
    _sample_table_text,
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
        SAMPLE_HEADER + "\n"
        "0,0.10000000000000001,-0,1e-300,2.5\n"
        "1099511627776,nan,inf,-inf,0.33333333333333331\n"
    )
    assert _sample_table_text(table[:0]) == SAMPLE_HEADER + "\n"


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
    path.write_text(_sample_table_text(table))
    back = _read_sample_table(path)
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


def _discriminants_peak_bytes(tmp_path, X):
    argv = ["discriminants", "--M", "3", "--case", "principal_even", "--X", str(X),
            "--out", str(tmp_path / "d.txt")]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_discriminants_memory_does_not_grow_with_x(tmp_path, capsys):
    _discriminants_peak_bytes(tmp_path, 1000)  # first-call allocations
    small = _discriminants_peak_bytes(tmp_path, 10**6)
    large = _discriminants_peak_bytes(tmp_path, 10**7)
    assert large <= 4 * 2**20, large
    assert large <= 1.1 * small, (small, large)


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


def test_excise_header_only_table(tmp_path, capsys):
    samples = tmp_path / "empty.csv"
    samples.write_text(SAMPLE_HEADER + "\n")
    code, out, err = _read_through("excise", samples, tmp_path, capsys)
    assert (code, out, err) == (0, SAMPLE_HEADER + "\n", "kept 0 of 0 (threshold 0.5)\n")


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
