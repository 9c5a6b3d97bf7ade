"""excised-rmt benchmark: one workload per invocation.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in workloads.py.  The run measures set-up time
(fresh interpreters importing ``excised_rmt.cli``), then a worker process
repeats the workload's pass of CLI calls for S seconds.  Outputs of the
first pass are checked and every later pass must reproduce them byte for
byte; checking is never timed.  With ``--trace 0`` the last line carries
the end-to-end metrics, with ``--trace 1`` the per-layer metrics of the
outside-in trace.  A line starting with ``facts`` before it records the
machine and software the run measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import workloads  # noqa: E402
from calibrate import NOMINAL_S, ReferenceKernel  # noqa: E402
from spans import warn_missing  # noqa: E402

SETUP_REPEATS = 9
RUN_LIMIT_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(env: dict) -> float:
    """Median nominal seconds for a fresh interpreter to import excised_rmt.cli."""
    cmd = [sys.executable, "-c", "import excised_rmt.cli"]
    # the first import writes bytecode caches, which users pay once
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60)
    reference = ReferenceKernel()
    before = reference()
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60)
        elapsed = time.perf_counter() - start
        after = reference()
        times.append(nominal(elapsed, 0.5 * (before + after)))
        before = after
    return statistics.median(times)


def nominal(seconds: float, ref_seconds: float) -> float:
    """Measured seconds expressed at the nominal core speed (see calibrate.py)."""
    return seconds * NOMINAL_S / ref_seconds


def facts() -> dict:
    """Run facts recorded beside the metrics; none of them is gated."""
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = None
    threads = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                          "MKL_NUM_THREADS") if k in os.environ}
    src_lines = sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "git_commit": commit,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads or "unset (library default)",
        "src_lines": src_lines,
    }


def _medians(passes, traced: bool, raw: bool = False) -> dict:
    """Per step: median over the (un)traced passes of its nominal seconds."""
    steps = {}
    for p in passes:
        if p["traced"] == traced:
            for rec in p["steps"]:
                t = rec["seconds"] if raw else nominal(rec["seconds"], rec["ref_seconds"])
                steps.setdefault(rec["name"], []).append(t)
    return {name: statistics.median(ts) for name, ts in steps.items()}


def count_failures(plan, passes, pass0: Path) -> tuple:
    """(attempted, failed, messages) over every operation of every pass."""
    first = {rec["name"]: rec for rec in passes[0]["steps"]}
    verdict = workloads.check(plan, pass0, {n: r["stderr"] for n, r in first.items()})
    attempted = failed = 0
    messages = [f"{name}: {msg}" for name, msg in verdict.items() if msg]
    for p in passes:
        for rec in p["steps"]:
            attempted += 1
            bad = (rec["code"] != 0 or rec["digest"] is None
                   or rec["digest"] != first[rec["name"]]["digest"] or verdict.get(rec["name"]))
            failed += bool(bad)
    for rec in first.values():
        if rec["code"] != 0:
            messages.append(f"{rec['name']}: exit {rec['code']}: {rec['stderr'].strip()[-500:]}")
    return attempted, failed, messages


def end_to_end(plan, result, pass0: Path, setup_s: float) -> dict:
    med = _medians(result["passes"], traced=False)
    items = seconds = 0.0
    for step in plan["steps"]:
        if step["items"] == "lines":
            out = pass0 / step["outputs"][0]
            n = len(out.read_bytes().splitlines()) if out.exists() else 0
        else:
            n = step["items"]
        if n:
            items += n
            seconds += med[step["name"]]
    return {
        "wall_s": (sum(med.values()), "s"),
        "items_per_s": (items / seconds if seconds else 0.0, "1/s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(plan, result) -> dict:
    trace = result["trace"]
    warn_missing(trace["missing"])
    traced = [p for p in result["passes"] if p["traced"]]
    n_pass = len(traced)
    # span times are converted to nominal seconds with the traced passes' median speed
    ref_s = statistics.median(r["ref_seconds"] for p in traced for r in p["steps"])
    speed = NOMINAL_S / ref_s
    self_s = {k: v * speed for k, v in trace["self_s"].items()}
    incl_s = {k: v * speed for k, v in trace["inclusive_s"].items()}
    counts = trace["counts"]
    matrices = counts.get("groups.sample_batch.matrices", 0)
    rows = counts.get("cli.csv.rows", 0)

    def per_matrix_us(seconds):
        return seconds * 1e6 / matrices if matrices else 0.0

    def per_pass_ms(seconds):
        return seconds * 1e3 / n_pass

    med_traced = sum(_medians(result["passes"], traced=True).values())
    med_plain = sum(_medians(result["passes"], traced=False).values())
    cli_steps = {step["name"] for step in plan["steps"] if "argv" in step}
    cli_bytes = sum(r["bytes"] for p in traced for r in p["steps"] if r["name"] in cli_steps)
    # (metric, unit, trace targets it needs, value)
    table = [
        ("groups.sample_batch.us_per_matrix", "us", ["excised_rmt.stats.sample_batch"],
         lambda: per_matrix_us(self_s.get("groups.sample_batch", 0.0))),
        ("groups.sample_batch.calls", "count", ["excised_rmt.stats.sample_batch"],
         lambda: counts.get("groups.sample_batch.calls", 0) / n_pass),
        ("groups.sample_batch.matrices", "count", ["excised_rmt.stats.sample_batch"],
         lambda: matrices / n_pass),
        ("spectral.eigenangles_batch.us_per_matrix", "us", ["excised_rmt.stats.eigenangles_batch"],
         lambda: per_matrix_us(self_s.get("spectral.eigenangles_batch", 0.0))),
        ("spectral.char_poly_batch.us_per_matrix", "us", ["excised_rmt.stats.char_poly_batch"],
         lambda: per_matrix_us(self_s.get("spectral.char_poly_batch", 0.0))),
        ("spectral.first_angles_batch.us_per_matrix", "us",
         ["excised_rmt.stats.first_angles_batch"],
         lambda: per_matrix_us(self_s.get("spectral.first_angles_batch", 0.0))),
        ("spectral.eigvals_rows_per_matrix", "rows/matrix",
         ["numpy.linalg.eigvals", "excised_rmt.stats.sample_batch"],
         lambda: counts.get("numpy.linalg.eigvals.rows", 0) / matrices if matrices else 0.0),
        ("stats.driver_self.us_per_matrix", "us",
         ["excised_rmt.stats.sample_summaries", "excised_rmt.stats.one_level_density_mc",
          "excised_rmt.stats.pair_correlation_mc"],
         lambda: per_matrix_us(self_s.get("stats.driver", 0.0))),
        ("stats.Histogram.add.us_per_matrix", "us", ["excised_rmt.stats.Histogram.add"],
         lambda: per_matrix_us(self_s.get("stats.Histogram.add", 0.0))),
        ("stats.Histogram.add.values", "count", ["excised_rmt.stats.Histogram.add"],
         lambda: counts.get("stats.Histogram.add.values", 0) / n_pass),
        ("stats.Histogram.add.dropped", "count", ["excised_rmt.stats.Histogram.add"],
         lambda: counts.get("stats.Histogram.add.dropped", 0) / n_pass),
        ("cli.main_self_ms", "ms", ["excised_rmt.cli.main"],
         lambda: per_pass_ms(self_s.get("cli.main", 0.0))),
        ("cli.csv_us_per_row", "us",
         ["excised_rmt.cli._sample_table_text", "excised_rmt.cli._read_sample_table"],
         lambda: incl_s.get("cli.csv", 0.0) * 1e6 / rows if rows else 0.0),
        ("cli.bytes_written", "bytes", [], lambda: cli_bytes / n_pass),
        ("zeros.ingest_zero_list_ms", "ms", ["excised_rmt.zeros.ingest_zero_list"],
         lambda: per_pass_ms(incl_s.get("zeros.ingest_zero_list", 0.0))),
        ("zeros.compare_report_ms", "ms", ["excised_rmt.zeros.compare_report"],
         lambda: per_pass_ms(incl_s.get("zeros.compare_report", 0.0))),
        ("arith.fundamental_discriminants_up_to_ms", "ms",
         ["excised_rmt.arith.fundamental_discriminants_up_to"],
         lambda: per_pass_ms(incl_s.get("arith.fundamental_discriminants_up_to", 0.0))),
        ("arith.enumerate_family_self_ms", "ms", ["excised_rmt.arith.enumerate_family"],
         lambda: per_pass_ms(self_s.get("arith.enumerate_family", 0.0))),
        ("arith.sum_log_family_ms", "ms", ["excised_rmt.arith.sum_log_family"],
         lambda: per_pass_ms(incl_s.get("arith.sum_log_family", 0.0))),
        ("arith.oscillatory_family_sum_ms", "ms", ["excised_rmt.arith.oscillatory_family_sum"],
         lambda: per_pass_ms(incl_s.get("arith.oscillatory_family_sum", 0.0))),
        ("bench.trace_overhead_share", "share", [], lambda: med_traced / med_plain - 1.0),
        ("bench.raw_wall_s", "s", [],
         lambda: sum(_medians(result["passes"], traced=False, raw=True).values())),
        ("bench.ref_kernel_ms", "ms", [], lambda: ref_s * 1e3),
    ]
    missing = set(trace["missing"])
    return {name: (fn(), unit) for name, unit, needs, fn in table if not missing.intersection(needs)}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                   help="per-pass input size; 'tiny' is for the smoke test")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    if not (SRC / "excised_rmt" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no excised_rmt package under {SRC}\n")
        return 2
    env = child_env()
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "warmup").mkdir(parents=True)
    try:
        try:
            setup_s = measure_setup(env)
        except (subprocess.SubprocessError, OSError) as exc:
            sys.stderr.write(f"perfbench: importing excised_rmt.cli failed: {exc}\n")
            return 1
        plan = workloads.make_plan(args.workload, args.seed, workdir, args.size)
        plan.update(
            workdir=str(workdir),
            seconds=args.seconds,
            trace=bool(args.trace),
            min_passes=4 if args.trace else 3,
            warmup=workloads.make_plan(args.workload, args.seed, workdir / "warmup", "tiny"),
        )
        plan_path, result_path = workdir / "plan.json", workdir / "result.json"
        plan_path.write_text(json.dumps(plan))
        budget = RUN_LIMIT_S - (time.perf_counter() - started)
        try:
            subprocess.run([sys.executable, str(HERE / "worker.py"), str(plan_path),
                            str(result_path)], env=env, cwd=ROOT, check=True,
                           stdout=subprocess.DEVNULL, timeout=budget)
        except (subprocess.SubprocessError, OSError) as exc:
            sys.stderr.write(f"perfbench: worker failed: {exc}\n")
            return 1
        result = json.loads(result_path.read_text())
        pass0 = workdir / "pass0"
        attempted, failed, messages = count_failures(plan, result["passes"], pass0)
        for msg in messages:
            sys.stderr.write(f"perfbench: check failed: {msg}\n")
        if args.trace:
            metrics = per_layer(plan, result)
        else:
            metrics = end_to_end(plan, result, pass0, setup_s)
        first = "".join(r["digest"] or "" for r in result["passes"][0]["steps"])
        run_facts = dict(facts(), workload=args.workload, seed=args.seed,
                         passes=len(result["passes"]),
                         output_digest=hashlib.sha256(first.encode()).hexdigest())
        print("facts " + json.dumps(run_facts))
        print(json.dumps({
            "correct": failed == 0 and not messages,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
