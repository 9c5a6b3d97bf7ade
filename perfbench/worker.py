"""Runs one workload's plan in a fresh process and records its timings.

Usage: python3 perfbench/worker.py PLAN.json RESULT.json

The plan (see workloads.py) also carries the run settings: ``workdir``,
``seconds``, ``trace`` and ``min_passes``.  The worker first runs a tiny
warm-up plan, then repeats the pass until ``seconds`` have elapsed.  Only
the package calls are timed; hashing the outputs and the reference kernel
(calibrate.py) run between calls.
With tracing on, odd-numbered passes run with the outside-in tracer
installed and even-numbered passes without it.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

from excised_rmt import arith, cli
from excised_rmt.theory import SymmetryCase

from calibrate import ReferenceKernel
from spans import Tracer
from workloads import digest


def _jsonable(value):
    if isinstance(value, complex):
        return [value.real, value.imag]
    return value


def run_step(step: dict, pass_dir: Path) -> tuple:
    """Execute one step; returns (seconds, exit code, stderr text)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        if "argv" in step:
            argv = [a.replace("{pass}", str(pass_dir)) for a in step["argv"]]
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 2
            elapsed = time.perf_counter() - start
        else:
            fam = dict(step["family"], case=SymmetryCase(step["family"]["case"]))
            spec = arith.FamilySpec(**fam)
            fn = getattr(arith, step["call"])
            start = time.perf_counter()
            result = fn(spec, **step["kwargs"])
            elapsed = time.perf_counter() - start
            payload = {k: _jsonable(v) for k, v in result.items()}
            (pass_dir / step["outputs"][0]).write_text(json.dumps(payload) + "\n")
            code = 0
    return elapsed, code, err.getvalue()


def run_pass(steps, pass_dir: Path, reference: ReferenceKernel) -> list:
    """Run the steps once; each record carries the reference-kernel time
    measured around its step (the mean of the runs just before and after)."""
    pass_dir.mkdir(parents=True, exist_ok=True)
    records = []
    before = reference()
    for step in steps:
        start = time.perf_counter()
        try:
            elapsed, code, err = run_step(step, pass_dir)
        except Exception:  # a crashing step is a failed operation, not a crashed run
            elapsed, code, err = time.perf_counter() - start, 1, traceback.format_exc()
        after = reference()
        outputs = [pass_dir / name for name in step["outputs"]]
        ok = code == 0 and all(p.exists() for p in outputs)
        records.append({
            "name": step["name"],
            "seconds": elapsed,
            "ref_seconds": 0.5 * (before + after),
            "code": code,
            "stderr": err,
            "digest": digest(outputs) if ok else None,
            "bytes": sum(p.stat().st_size for p in outputs) if ok else 0,
        })
        before = after
    return records


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    workdir = Path(plan["workdir"])
    reference = ReferenceKernel()
    run_pass(plan["warmup"]["steps"], workdir / "warmup", reference)
    shutil.rmtree(workdir / "warmup")

    tracer = Tracer() if plan["trace"] else None
    passes = []
    deadline = time.perf_counter() + plan["seconds"]
    while time.perf_counter() < deadline or len(passes) < plan["min_passes"]:
        index = len(passes)
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install()
        try:
            records = run_pass(plan["steps"], workdir / f"pass{index}", reference)
        finally:
            if traced:
                tracer.uninstall()
        if index > 0:
            shutil.rmtree(workdir / f"pass{index}")
        passes.append({"traced": traced, "steps": records})

    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {"passes": passes, "peak_rss_kb": usage}
    if tracer is not None:
        result["trace"] = tracer.summary()
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
