"""Smoke test of the benchmark at tiny sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

from excised_rmt import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace,
                  "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "excise-so20", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _cli(*argv):
    assert cli.main([str(a) for a in argv]) == 0


def _rewrite_density(path: Path, change) -> None:
    lines = path.read_text().split("\n")
    rows = [ln.split(",") for ln in lines[1:] if ln]
    for i, factor in change.items():
        rows[i][2] = repr(float(rows[i][2]) * factor)
    path.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")


def test_onelevel_check_catches_altered_bins(tmp_path):
    out = tmp_path / "density.csv"
    _cli("onelevel", "--group", "usp", "--n", 10, "--count", 2048, "--seed", 5,
         "--bins", workloads.ONELEVEL_BINS, "--out", out)
    workloads.check_onelevel(out, 2048)
    # move mass between two mid-range bins: the integral stays exact, the z-scores do not
    _rewrite_density(out, {40: 1.5, 60: 0.5})
    with pytest.raises(workloads.CheckFailure, match=r"\|z\|"):
        workloads.check_onelevel(out, 2048)


def test_paircorr_check_catches_an_altered_bin(tmp_path):
    out = tmp_path / "pc.csv"
    _cli("paircorr", "--group", "unitary", "--n", 30, "--count", 1024, "--seed", 5,
         "--window", workloads.PAIRCORR_WINDOW, "--bins", workloads.PAIRCORR_BINS, "--out", out)
    workloads.check_paircorr(out, 1024)
    _rewrite_density(out, {30: 6.0})
    with pytest.raises(workloads.CheckFailure, match="L1"):
        workloads.check_paircorr(out, 1024)


def _pass_outputs(tmp_path, workload):
    """Plan and checked outputs of one tiny pass, run in this process."""
    import worker
    from calibrate import ReferenceKernel

    plan = workloads.make_plan(workload, 2, tmp_path, "tiny")
    records = worker.run_pass(plan["steps"], tmp_path / "pass0", ReferenceKernel())
    stderr = {r["name"]: r["stderr"] for r in records}
    assert not any(workloads.check(plan, tmp_path / "pass0", stderr).values())
    return plan, records, stderr


def test_excise_check_catches_a_dropped_row(tmp_path):
    plan, _, stderr = _pass_outputs(tmp_path, "excise-so20")
    kept = tmp_path / "pass0" / "kept.csv"
    lines = kept.read_text().split("\n")
    kept.write_text("\n".join(lines[:1] + lines[2:]))
    verdict = workloads.check(plan, tmp_path / "pass0", stderr)
    assert verdict["excise"] and not verdict["sample"]


def test_family_check_catches_unordered_output(tmp_path):
    plan, _, stderr = _pass_outputs(tmp_path, "family-x1e7")
    name = plan["steps"][0]["name"]
    path = tmp_path / "pass0" / plan["steps"][0]["outputs"][0]
    d = path.read_text().split()
    d[0], d[1] = d[1], d[0]
    path.write_text("\n".join(d) + "\n")
    assert workloads.check(plan, tmp_path / "pass0", stderr)[name]


def test_a_changed_digest_counts_as_a_failed_operation(tmp_path):
    plan, records, _ = _pass_outputs(tmp_path, "onelevel-usp20")
    second = [dict(r, digest="0" * 64) for r in records]
    passes = [{"traced": False, "steps": records}, {"traced": False, "steps": second}]
    attempted, failed, _ = run.count_failures(plan, passes, tmp_path / "pass0")
    assert (attempted, failed) == (2, 1)


def test_self_times_add_up_to_the_cli_span(tmp_path):
    original = np.linalg.eigvals
    tracer = Tracer()
    tracer.install()
    try:
        _cli("sample", "--group", "so_even", "--n", 4, "--count", 300, "--seed", 1,
             "--out", tmp_path / "s.csv")
        _cli("onelevel", "--group", "usp", "--n", 4, "--count", 300, "--seed", 1,
             "--out", tmp_path / "d.csv")
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary["missing"] == []
    assert summary["inclusive_s"]["cli.main"] == pytest.approx(summary["root_s"], rel=1e-12)
    assert sum(summary["self_s"].values()) == pytest.approx(summary["root_s"], rel=1e-9)
    assert summary["counts"]["groups.sample_batch.matrices"] == 600
    # sample cross-checks det(I - A) with a second eigvals call; onelevel does not
    assert summary["counts"]["numpy.linalg.eigvals.rows"] == 900
    assert np.linalg.eigvals is original
