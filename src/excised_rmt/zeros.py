"""External zero-data ingestion and comparison reports.

Zero ordinates are always ingested from files, never computed: the
L-function side of the model is an external input by design.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from excised_rmt.stats import DEFAULT_BINS, Histogram, ks_distance, mean_normalize


# the selectors of lowest_zero_statistic, which `compare --which` offers
SELECTORS = ("lowest", "lowest_nonvanishing", "second_lowest")


class ZeroDataError(ValueError):
    """Malformed zero-list input."""


@dataclass(frozen=True)
class ZeroRecord:
    d: int
    ordinates: np.ndarray  # strictly increasing positive reals


def ingest_zero_list(path) -> List[ZeroRecord]:
    """Parse CSV rows `d,gamma1,gamma2,...` with variable width.

    Ordinates must be finite, nonnegative and strictly increasing;
    errors carry the offending 1-based line number.
    """
    records: List[ZeroRecord] = []
    with open(path, newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            try:
                d = int(parts[0])
                ordinates = [float(x) for x in parts[1:]]
            except ValueError as exc:
                raise ZeroDataError(f"line {lineno}: cannot parse: {exc}") from None
            if not ordinates:
                raise ZeroDataError(f"line {lineno}: record has no ordinates")
            # a NaN would fail neither check below, and an infinite one would
            # make every statistic of the comparison NaN
            if not all(math.isfinite(x) for x in ordinates):
                raise ZeroDataError(f"line {lineno}: non-finite ordinate")
            if any(x < 0 for x in ordinates):
                raise ZeroDataError(f"line {lineno}: negative ordinate")
            if any(b <= a for a, b in zip(ordinates, ordinates[1:])):
                raise ZeroDataError(f"line {lineno}: ordinates not strictly increasing")
            records.append(ZeroRecord(d=d, ordinates=np.array(ordinates)))
    return records


def lowest_zero_statistic(
    records: Sequence[ZeroRecord], which: str = "lowest", vanish_tol: float = 1e-8
) -> np.ndarray:
    """Per-record selected ordinate.

    which: "lowest" takes the first ordinate; "lowest_nonvanishing" first
    drops ordinates below vanish_tol (finite, >= 0); "second_lowest" takes
    index 1.
    """
    if not records:
        raise ValueError("no zero records")
    if not 0 <= vanish_tol < math.inf:
        raise ValueError(f"vanish_tol must be finite and >= 0, got {vanish_tol!r}")
    if which not in SELECTORS:
        raise ValueError(f"unknown selector {which!r}")
    out = []
    for rec in records:
        if which == "lowest":
            out.append(rec.ordinates[0])
        elif which == "lowest_nonvanishing":
            nonzero = rec.ordinates[rec.ordinates >= vanish_tol]
            if nonzero.size == 0:
                raise ValueError(f"record d={rec.d} has no nonvanishing ordinate")
            out.append(nonzero[0])
        else:
            if rec.ordinates.size < 2:
                raise ValueError(f"record d={rec.d} too short for second_lowest")
            out.append(rec.ordinates[1])
    return np.asarray(out, dtype=float)


def compare_report(zero_samples, ensemble_samples, bins: int = DEFAULT_BINS) -> dict:
    """Mean-1 normalize both sample sets and compare their distributions.

    Both sides are normalized identically (divided by their own sample
    mean); a negative sample raises ValueError.  Returns the KS distance,
    sample counts, Monte Carlo standard errors per bin, and bin-wise
    density residuals on shared edges.
    """
    left = mean_normalize(zero_samples)
    right = mean_normalize(ensemble_samples)
    hi = float(max(left.max(), right.max())) * (1.0 + 1e-12)
    hleft = Histogram(0.0, hi, bins, left.size)
    hright = Histogram(0.0, hi, bins, right.size)
    hleft.add(left)
    hright.add(right)
    vleft = hleft.values()
    vright = hright.values()
    se_left = hleft.errors()
    se_right = hright.errors()
    rows = []
    for i in range(bins):
        rows.append(
            {
                "bin_left": float(hleft.edges[i]),
                "bin_right": float(hleft.edges[i + 1]),
                "density_left": float(vleft[i]),
                "density_right": float(vright[i]),
                "residual": float(vleft[i] - vright[i]),
                "se_left": float(se_left[i]),
                "se_right": float(se_right[i]),
            }
        )
    return {
        "ks": ks_distance(left, right),
        "n_left": int(left.size),
        "n_right": int(right.size),
        "normalization": "both sample sets divided by their own sample mean",
        "bins": rows,
    }
