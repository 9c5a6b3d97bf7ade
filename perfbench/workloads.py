"""The four benchmark workloads: their plans and their output checks.

A plan is a JSON-serialisable list of steps.  A step is one operation:
either a CLI call (``argv``, run through ``excised_rmt.cli.main``) or a
direct library call (``call`` naming a public ``excised_rmt.arith``
function).  ``worker.py`` executes the plan; ``check`` validates what the
first pass wrote.  Inputs are a pure function of the workload seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np

WORKLOADS = ("excise-so20", "onelevel-usp20", "paircorr-u30", "family-x1e7")

# Per-pass sizes.  A run repeats its pass until --seconds have elapsed, so
# these set the granularity of the medians, not the length of a run.
SIZES = {
    "full": {"so20": 4096, "usp20": 2048, "u30": 1024, "zeros": 2000, "X": 10_000_000},
    "tiny": {"so20": 64, "usp20": 64, "u30": 32, "zeros": 50, "X": 100_000},
}

ONELEVEL_BINS = 100
ONELEVEL_MAX_Z = 5.0
PAIRCORR_WINDOW = 3.0
PAIRCORR_BINS = 60
PAIRCORR_L1_FACTOR = 3.0
COMPARE_BINS = 50
FAMILY_LEVELS = (3, 11)
FAMILY_CASES = ("principal_even", "principal_odd", "self_cm", "generic")
EXCISION = {"c": math.exp(-1.0), "k": 1, "nstd": 8.5674}

_KEPT_RE = re.compile(r"kept (\d+) of (\d+) \(threshold (\S+)\)")
_COUNT_RE = re.compile(r"count (\d+) estimate (\S+)")


class CheckFailure(Exception):
    """An output failed its workload check."""


def _cli(name, argv, outputs, items=0):
    return {"name": name, "argv": [str(a) for a in argv], "outputs": outputs, "items": items}


def write_zero_list(path: Path, seed: int, records: int) -> None:
    """Synthetic zero list: rows d,gamma1,gamma2,gamma3, strictly increasing."""
    rng = np.random.default_rng([seed, 7])
    ds = np.sort(rng.choice(np.arange(5, 50 * records), size=records, replace=False))
    first = rng.gamma(3.0, 0.25, size=records) + 1e-3
    gaps = rng.exponential(1.0, size=(records, 2)) + 1e-2
    ords = np.cumsum(np.column_stack([first, gaps]), axis=1)
    with open(path, "w", newline="\n") as fh:
        for d, row in zip(ds, ords):
            fh.write(f"{int(d)}," + ",".join(f"{g:.17g}" for g in row) + "\n")


def make_plan(workload: str, seed: int, workdir: Path, size: str = "full") -> dict:
    """Steps of one pass of ``workload``; writes any input files into workdir."""
    s = SIZES[size]
    if workload == "excise-so20":
        count = s["so20"]
        write_zero_list(workdir / "zeros.csv", seed, s["zeros"])
        steps = [
            _cli("sample", ["sample", "--group", "so_even", "--n", 10, "--count", count,
                            "--seed", seed, "--workers", 1, "--out", "{pass}/samples.csv"],
                 ["samples.csv"], items=count),
            _cli("excise", ["excise", "--c", repr(EXCISION["c"]), "--k", EXCISION["k"],
                            "--nstd", EXCISION["nstd"], "--input", "{pass}/samples.csv",
                            "--out", "{pass}/kept.csv"], ["kept.csv"]),
            _cli("compare", ["compare", "--zeros", str(workdir / "zeros.csv"),
                             "--samples", "{pass}/samples.csv", "--bins", COMPARE_BINS,
                             "--out", "{pass}/report.json"], ["report.json"]),
        ]
        params = {"count": count}
    elif workload == "onelevel-usp20":
        count = s["usp20"]
        steps = [_cli("onelevel", ["onelevel", "--group", "usp", "--n", 10, "--count", count,
                                   "--seed", seed, "--bins", ONELEVEL_BINS, "--workers", 2,
                                   "--out", "{pass}/density.csv"], ["density.csv"], items=count)]
        params = {"count": count}
    elif workload == "paircorr-u30":
        count = s["u30"]
        steps = [_cli("paircorr", ["paircorr", "--group", "unitary", "--n", 30, "--count", count,
                                   "--seed", seed, "--window", PAIRCORR_WINDOW,
                                   "--bins", PAIRCORR_BINS, "--workers", 2,
                                   "--out", "{pass}/pc.csv"], ["pc.csv"], items=count)]
        params = {"count": count}
    elif workload == "family-x1e7":
        X = s["X"]
        rng = np.random.default_rng([seed, 11])
        epsilon = int(rng.choice([1, -1]))
        delta = int(rng.choice([1, -1]))
        steps = []
        for M in FAMILY_LEVELS:
            residue = int(rng.integers(1, M))
            for case in FAMILY_CASES:
                name = f"disc-M{M}-{case}"
                steps.append(_cli(name, ["discriminants", "--M", M, "--case", case, "--X", X,
                                         "--epsilon", epsilon, "--delta", delta,
                                         "--residue", residue, "--out", f"{{pass}}/{name}.txt"],
                                  [f"{name}.txt"], items="lines"))
        family = {"M": 11, "case": "principal_even", "X": X, "epsilon_f": epsilon}
        tau = float(rng.uniform(0.5, 2.0))
        R = math.log(math.sqrt(11) * X / (2.0 * math.pi)) - 1.0
        steps.append({"name": "sum_log_family", "call": "sum_log_family",
                      "family": family, "kwargs": {}, "outputs": ["sum_log.json"], "items": 0})
        steps.append({"name": "oscillatory_family_sum", "call": "oscillatory_family_sum",
                      "family": family, "kwargs": {"tau": tau, "R": R},
                      "outputs": ["oscillatory.json"], "items": 0})
        params = {"X": X}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"workload": workload, "seed": seed, "size": size, "params": params, "steps": steps}


def digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------- checks
#
# Each check takes the plan, the directory of the first pass and the
# stderr text of each step, and returns {step name: None | failure text}.


def _read_histogram(path: Path):
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1], data[:, 2]


def _bin_means(fn, left, right, nodes: int = 16) -> np.ndarray:
    """Average of fn over each bin by Gauss-Legendre quadrature."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    mid = 0.5 * (left + right)[:, None]
    half = 0.5 * (right - left)[:, None]
    return (fn(mid + half * x[None, :]) * w[None, :]).sum(axis=1) / 2.0


def check_onelevel(path: Path, count: int) -> None:
    """Per-bin z-score against the exact finite-N USp(20) density."""
    from excised_rmt.groups import GroupKind
    from excised_rmt.theory import finite_n_density

    left, right, density = _read_histogram(path)
    if left.size != ONELEVEL_BINS or abs(right[-1] - math.pi) > 1e-12:
        raise CheckFailure(f"onelevel: expected {ONELEVEL_BINS} bins over [0, pi]")
    width = right - left
    exact = _bin_means(lambda t: finite_n_density(GroupKind.USp, 10, t), left, right)
    se = np.sqrt(exact * count * width) / (count * width)
    z = np.abs(density - exact) / se
    if not np.all(np.isfinite(z)) or z.max() > ONELEVEL_MAX_Z:
        raise CheckFailure(f"onelevel: max per-bin |z| = {np.nanmax(z):.2f} > {ONELEVEL_MAX_Z}")
    # every USp(20) matrix has exactly 10 angles in (0, pi]
    total = float(np.sum(density * width))
    if abs(total - 10.0) > 1e-9:
        raise CheckFailure(f"onelevel: density integrates to {total!r}, expected 10")


def check_paircorr(path: Path, count: int) -> None:
    """L1 distance to the finite-size U(30) pair correlation, against its noise."""
    from excised_rmt.theory import u_pair_corr

    left, right, density = _read_histogram(path)
    if left.size != PAIRCORR_BINS or abs(right[-1] - PAIRCORR_WINDOW) > 1e-12:
        raise CheckFailure(f"paircorr: expected {PAIRCORR_BINS} bins over (0, {PAIRCORR_WINDOW}]")
    width = right - left
    exact = _bin_means(lambda x: u_pair_corr(x, 30), left, right)
    events = count * 30
    se = np.sqrt(exact * events * width) / (events * width)
    l1 = float(np.sum(np.abs(density - exact) * width))
    # mean absolute deviation of a normal variable is sqrt(2/pi) sigma
    limit = PAIRCORR_L1_FACTOR * float(np.sum(math.sqrt(2.0 / math.pi) * se * width))
    if not l1 <= limit:
        raise CheckFailure(f"paircorr: L1 = {l1:.4f} > {limit:.4f}")


def _read_samples(path: Path):
    lines = path.read_text().split("\n")
    if lines[0] != "sample_index,first_angle,charpoly_re,charpoly_im,charpoly_abs":
        raise CheckFailure(f"{path.name}: unexpected header")
    rows = [ln for ln in lines[1:] if ln]
    table = np.array([[float(v) for v in ln.split(",")] for ln in rows]).reshape(-1, 5)
    return rows, table


def check_excise(pass_dir: Path, count: int, stderr: dict, zero_records: int) -> dict:
    out = {"sample": None, "excise": None, "compare": None}
    try:
        rows, table = _read_samples(pass_dir / "samples.csv")
        if len(rows) != count or not np.array_equal(table[:, 0], np.arange(count)):
            raise CheckFailure(f"sample: expected indices 0..{count - 1}")
        angle, re_, im_, mag = table[:, 1], table[:, 2], table[:, 3], table[:, 4]
        if not np.all((angle > 0) & (angle <= math.pi)):
            raise CheckFailure("sample: first angle outside (0, pi]")
        if not np.allclose(mag, np.hypot(re_, im_), rtol=1e-12, atol=0.0):
            raise CheckFailure("sample: charpoly_abs differs from |charpoly|")
    except (CheckFailure, ValueError, OSError) as exc:
        out["sample"] = str(exc)
        return out
    try:
        match = _KEPT_RE.search(stderr.get("excise", ""))
        if not match:
            raise CheckFailure("excise: no 'kept K of T' report on stderr")
        kept_n, total, threshold = int(match[1]), int(match[2]), float(match[3])
        expect_threshold = EXCISION["c"] * math.exp((1 - EXCISION["k"]) * EXCISION["nstd"] / 2)
        if threshold != expect_threshold:
            raise CheckFailure(f"excise: threshold {threshold!r} != {expect_threshold!r}")
        kept_rows, kept = _read_samples(pass_dir / "kept.csv")
        dropped = int(np.count_nonzero(mag < threshold))
        if kept.shape[0] != kept_n or kept_n + dropped != total or total != count:
            raise CheckFailure(f"excise: kept {kept_n} + dropped {dropped} != {count}")
        if np.any(kept[:, 4] < threshold):
            raise CheckFailure("excise: a kept row lies below the threshold")
        if kept_rows != [r for r, m in zip(rows, mag) if m >= threshold]:
            raise CheckFailure("excise: kept rows differ from the qualifying sample rows")
    except (CheckFailure, ValueError, OSError) as exc:
        out["excise"] = str(exc)
    try:
        report = json.loads((pass_dir / "report.json").read_text())
        expect = {"ks", "n_left", "n_right", "normalization", "bins"}
        if set(report) != expect:
            raise CheckFailure(f"compare: report keys {sorted(report)} != {sorted(expect)}")
        if report["n_left"] != zero_records or report["n_right"] != count:
            raise CheckFailure("compare: sample counts do not match the inputs")
        if not 0.0 <= report["ks"] <= 1.0 or len(report["bins"]) != COMPARE_BINS:
            raise CheckFailure("compare: ks outside [0, 1] or wrong bin count")
        fields = {"bin_left", "bin_right", "density_left", "density_right", "residual",
                  "se_left", "se_right"}
        if any(set(b) != fields for b in report["bins"]):
            raise CheckFailure("compare: a bin lacks the expected fields")
    except (CheckFailure, ValueError, KeyError, TypeError, OSError) as exc:
        out["compare"] = str(exc)
    return out


def check_family(plan: dict, pass_dir: Path, stderr: dict) -> dict:
    from excised_rmt.arith import FamilySpec, cardinality_estimate
    from excised_rmt.theory import SymmetryCase

    out = {}
    counts = {}
    for step in plan["steps"]:
        name = step["name"]
        out[name] = None
        try:
            if "argv" in step:
                argv = step["argv"]
                arg = dict(zip(argv[1::2], argv[2::2]))
                spec = FamilySpec(M=int(arg["--M"]), case=SymmetryCase(arg["--case"]),
                                  X=int(arg["--X"]), epsilon_f=int(arg["--epsilon"]),
                                  Delta=int(arg["--delta"]), residue_u=int(arg["--residue"]))
                d = np.array((pass_dir / step["outputs"][0]).read_text().split(), dtype=np.int64)
                if d.size and (np.any(np.diff(d) <= 0) or d[0] <= 1 or d[-1] > spec.X):
                    raise CheckFailure(f"{name}: output not strictly increasing in (1, X]")
                estimate = cardinality_estimate(spec)
                if abs(d.size - estimate) > 10.0 * math.sqrt(spec.X):
                    raise CheckFailure(f"{name}: count {d.size} too far from {estimate:.0f}")
                match = _COUNT_RE.search(stderr.get(name, ""))
                if not match or int(match[1]) != d.size:
                    raise CheckFailure(f"{name}: stderr count does not match the output")
                counts[(spec.M, spec.case.value)] = d.size
            else:
                fam = step["family"]
                result = json.loads((pass_dir / step["outputs"][0]).read_text())
                if result["count"] != counts.get((fam["M"], fam["case"])):
                    raise CheckFailure(f"{name}: count differs from the discriminants output")
                direct = result["direct"]
                if not all(math.isfinite(v) for v in np.ravel(direct)):
                    raise CheckFailure(f"{name}: direct sum is not finite")
        except (CheckFailure, ValueError, KeyError, OSError) as exc:
            out[name] = str(exc)
    return out


def check(plan: dict, pass_dir: Path, stderr: dict) -> dict:
    """Check the outputs of one pass; {step name: None or failure text}."""
    workload = plan["workload"]
    p = plan["params"]
    if workload == "excise-so20":
        return check_excise(pass_dir, p["count"], stderr, SIZES[plan["size"]]["zeros"])
    if workload == "family-x1e7":
        return check_family(plan, pass_dir, stderr)
    name = plan["steps"][0]["name"]
    path = pass_dir / plan["steps"][0]["outputs"][0]
    fn = check_onelevel if workload == "onelevel-usp20" else check_paircorr
    try:
        fn(path, p["count"])
    except (CheckFailure, ValueError, OSError) as exc:
        return {name: str(exc)}
    return {name: None}
