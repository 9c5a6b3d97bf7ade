"""Streaming Monte Carlo statistics for sampled spectra.

Every ensemble statistic is one reduction over ``_blocks``, which walks
the sample-index range in order as blocks of Haar matrices.  With more
than one worker, blocks are sampled and reduced on a thread pool (numpy's
LAPACK and ufunc loops release the GIL) and handed back in index order;
the blocks in flight share one memory budget.  Each matrix is a pure
function of (seed, index) and histogram counts are integer sums, so no
output byte depends on the worker count.
"""

from __future__ import annotations

import os
from collections import deque
from typing import Callable, Iterable, Optional, Union

import numpy as np

from excised_rmt.groups import GroupKind, GroupSpec, sample_batch
from excised_rmt.spectral import char_poly_batch, eigenangles_batch, first_angles_batch

DEFAULT_BINS = 100
# Matrix entries over all blocks in flight; bounds memory for any matrix
# size and worker count.
_BLOCK_ELEMENTS = 2**18

# One row per sample of the CLI ``sample`` table and the excision pipeline.
SAMPLE_DTYPE = np.dtype(
    [
        ("sample_index", np.int64),
        ("first_angle", float),
        ("charpoly_re", float),
        ("charpoly_im", float),
        ("charpoly_abs", float),
    ]
)


class Histogram:
    """Fixed-edge bin counts with underflow, overflow and NaN tracking.

    normalization selects how ``values()`` reports the bins:

    - "raw": integer counts
    - "density": counts / (in-range total * width), integrating to 1
    - "per_event": counts / (events * width), a per-sample density whose
      event weight is supplied by the builder (e.g. matrices sampled)
    - "mean_one_density" behaves like "density" but records that samples
      were rescaled to unit mean before binning
    """

    def __init__(self, edges, normalization: str = "density", events: Optional[float] = None):
        edges = np.asarray(edges, dtype=float)
        if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
            raise ValueError("edges must be strictly increasing with >= 2 entries")
        self.edges = edges
        self.counts = np.zeros(edges.size - 1, dtype=np.int64)
        self.underflow = 0
        self.overflow = 0
        self.nan = 0
        self.normalization = normalization
        self.events = events

    @classmethod
    def uniform(cls, lo: float, hi: float, bins: int = DEFAULT_BINS, **kw) -> "Histogram":
        return cls(np.linspace(lo, hi, bins + 1), **kw)

    def add(self, values) -> None:
        values = np.asarray(values, dtype=float).ravel()
        if values.size == 0:
            return
        lo, hi = self.edges[0], self.edges[-1]
        self.nan += int(np.count_nonzero(np.isnan(values)))
        self.underflow += int(np.count_nonzero(values < lo))
        self.overflow += int(np.count_nonzero(values > hi))
        inside = values[(values >= lo) & (values <= hi)]
        counts, _ = np.histogram(inside, bins=self.edges)
        self.counts += counts

    def merge(self, other: "Histogram") -> "Histogram":
        if not np.array_equal(self.edges, other.edges):
            raise ValueError("cannot merge histograms with different edges")
        self.counts += other.counts
        self.underflow += other.underflow
        self.overflow += other.overflow
        self.nan += other.nan
        if self.events is not None and other.events is not None:
            self.events += other.events
        return self

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.edges)

    @property
    def total_in_range(self) -> int:
        return int(self.counts.sum())

    def values(self) -> np.ndarray:
        if self.normalization == "raw":
            return self.counts.astype(float)
        if self.normalization == "per_event":
            if not self.events:
                raise ValueError("per_event normalization requires an event count")
            return self.counts / (self.events * self.widths)
        total = self.total_in_range
        if total == 0:
            return np.zeros_like(self.counts, dtype=float)
        return self.counts / (total * self.widths)

    def to_csv_text(self) -> str:
        vals = self.values()
        lines = ["bin_left,bin_right,density"]
        for left, right, v in zip(self.edges[:-1], self.edges[1:], vals):
            lines.append(f"{left:.17g},{right:.17g},{v:.17g}")
        return "\n".join(lines) + "\n"

    def to_csv(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write(self.to_csv_text())


def mean_normalize(samples) -> np.ndarray:
    """Divide samples by their mean; requires nonempty input, positive mean."""
    xs = np.asarray(samples, dtype=float)
    if xs.size == 0:
        raise ValueError("mean_normalize: empty input")
    m = xs.mean()
    if m <= 0.0:
        raise ValueError("mean_normalize: nonpositive mean")
    return xs / m


def mean_one_histogram(samples, bins: int = DEFAULT_BINS, hi: Optional[float] = None) -> Histogram:
    scaled = mean_normalize(samples)
    if hi is None:
        hi = float(scaled.max()) * (1.0 + 1e-12)
    hist = Histogram.uniform(0.0, hi, bins, normalization="mean_one_density")
    hist.add(scaled)
    return hist


def _index_shards(count: int, workers: int):
    """Deterministic contiguous shards of the sample index range, at most count of them."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    shards = max(1, min(int(workers), count))
    base, extra = divmod(count, shards)
    start = 0
    for w in range(shards):
        size = base + (1 if w < extra else 0)
        if size:
            yield start, size
        start += size


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _blocks(
    spec: GroupSpec, count: int, master_seed: int, workers: int, reduce=lambda mats: mats
):
    """Yields (start, reduce(mats)) for sample indices 0..count-1 in index order.

    mats holds the Haar samples start..start+len(mats)-1; a block never
    spans two shards.  Up to min(workers, count, usable cores) threads
    sample and reduce blocks, and at most one block per thread is started
    ahead of the one the caller is consuming, so the blocks in flight share
    a budget of about _BLOCK_ELEMENTS matrix entries.  An exception in a
    block is raised here, in index order.  One thread runs inline.
    """
    threads = max(1, min(workers, count, _usable_cores()))
    block = max(1, _BLOCK_ELEMENTS // (threads * spec.dim**2))

    def run(first: int, size: int):
        return first, reduce(sample_batch(spec, master_seed, first, size))

    spans = (
        (first, min(block, start + size - first))
        for start, size in _index_shards(count, workers)
        for first in range(start, start + size, block)
    )
    if threads == 1:
        for first, size in spans:
            yield run(first, size)
        return
    # imported here: one-worker runs do not pay for concurrent.futures
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(threads) as pool:
        pending = deque()
        for first, size in spans:
            pending.append(pool.submit(run, first, size))
            if len(pending) > threads:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def density_angles(spec: GroupSpec, angle_rows: np.ndarray) -> np.ndarray:
    """Fold a batch of spectra to the one-level-density support.

    Symmetric groups with paired spectra keep the nonnegative half on
    [0, pi]; the full-circle groups map onto [0, 2pi).  For odd orthogonal
    matrices the structural zero eigenangle is excluded, leaving 2N
    genuine angles per matrix.
    """
    if spec.group in (GroupKind.SOEven, GroupKind.USp):
        return angle_rows[angle_rows > 0.0]
    if spec.group is GroupKind.SOOdd:
        zero_col = np.argmin(np.abs(angle_rows), axis=1)
        keep = np.ones(angle_rows.shape, dtype=bool)
        keep[np.arange(angle_rows.shape[0]), zero_col] = False
        theta = angle_rows[keep]
    else:
        theta = angle_rows.ravel()
    return np.mod(theta, 2.0 * np.pi)


def one_level_range(spec: GroupSpec) -> float:
    return np.pi if spec.group in (GroupKind.SOEven, GroupKind.USp) else 2.0 * np.pi


def one_level_density_mc(
    spec: GroupSpec,
    count: int,
    master_seed: int,
    bins: int = DEFAULT_BINS,
    workers: int = 1,
) -> Histogram:
    """Empirical eigenangle density per matrix per radian."""
    if count < 1:
        raise ValueError("count must be >= 1")
    hi = one_level_range(spec)
    hist = Histogram.uniform(0.0, hi, bins, normalization="per_event", events=0.0)

    def reduce(mats):
        return len(mats), density_angles(spec, eigenangles_batch(spec, mats))

    for _, (size, angles) in _blocks(spec, count, master_seed, workers, reduce):
        hist.add(angles)
        hist.events += size
    return hist


def pair_correlation_mc(
    spec: GroupSpec,
    count: int,
    master_seed: int,
    window: float = 5.0,
    bins: int = DEFAULT_BINS,
    workers: int = 1,
) -> Histogram:
    """Density of scaled eigenangle differences over (0, window].

    Differences (theta_i - theta_j) mod 2pi are scaled by dim/(2pi); all
    ordered pairs i != j contribute and the histogram is normalized per
    matrix, so it converges to the two-point correlation density.
    """
    if count < 1 or window <= 0:
        raise ValueError("need count >= 1 and window > 0")
    dim = spec.dim
    hist = Histogram.uniform(0.0, window, bins, normalization="per_event", events=0.0)
    scale = dim / (2.0 * np.pi)
    off_diagonal = ~np.eye(dim, dtype=bool)

    def reduce(mats):
        theta = eigenangles_batch(spec, mats)
        diffs = np.mod(theta[:, :, None] - theta[:, None, :], 2.0 * np.pi)
        x = diffs[:, off_diagonal].ravel() * scale
        return len(mats), x[x > 0.0]

    for _, (size, x) in _blocks(spec, count, master_seed, workers, reduce):
        hist.add(x)
        hist.events += size * dim
    return hist


def nearest_neighbor_spacings(
    spectra: Iterable[np.ndarray], bins: int = DEFAULT_BINS, hi: float = 4.0
) -> Histogram:
    """Unit-mean-scaled gaps between consecutive positive angles."""
    gaps = []
    for angles in spectra:
        positive = np.sort(np.asarray(angles)[np.asarray(angles) > 0.0])
        if positive.size >= 2:
            gaps.append(np.diff(positive))
    hist = Histogram.uniform(0.0, hi, bins, normalization="density")
    if not gaps:
        return hist
    pooled = np.concatenate(gaps)
    hist.add(mean_normalize(pooled))
    return hist


def ks_distance(a, b: Union[np.ndarray, Callable[[np.ndarray], np.ndarray]]) -> float:
    """Supremum CDF gap between a sample set and samples or a CDF callable."""
    a = np.sort(np.asarray(a, dtype=float))
    if a.size == 0:
        raise ValueError("ks_distance: empty first sample")
    if callable(b):
        cdf = np.asarray(b(a), dtype=float)
        n = a.size
        hi = np.max(np.arange(1, n + 1) / n - cdf)
        lo = np.max(cdf - np.arange(0, n) / n)
        return float(max(hi, lo, 0.0))
    b = np.sort(np.asarray(b, dtype=float))
    if b.size == 0:
        raise ValueError("ks_distance: empty second sample")
    everything = np.concatenate([a, b])
    ca = np.searchsorted(a, everything, side="right") / a.size
    cb = np.searchsorted(b, everything, side="right") / b.size
    return float(np.max(np.abs(ca - cb)))


def first_eigenangle_samples(
    spec: GroupSpec,
    count: int,
    master_seed: int,
    workers: int = 1,
) -> np.ndarray:
    """Smallest positive eigenangle of each sampled matrix, in index order."""
    out = np.empty(count)

    def reduce(mats):
        return first_angles_batch(eigenangles_batch(spec, mats))

    for start, angles in _blocks(spec, count, master_seed, workers, reduce):
        out[start : start + len(angles)] = angles
    return out


def sample_summaries(
    spec: GroupSpec,
    count: int,
    master_seed: int,
    workers: int = 1,
) -> np.ndarray:
    """Per-sample summary table: first angle and det(I - A).

    Returns a SAMPLE_DTYPE array in sample-index order; the backbone of
    the CLI ``sample`` output and the excision pipeline.
    """
    out = np.empty(count, dtype=SAMPLE_DTYPE)

    def reduce(mats):
        theta = eigenangles_batch(spec, mats)
        cp = char_poly_batch(mats)
        return first_angles_batch(theta), cp, np.abs(cp)

    for start, (angles, cp, cp_abs) in _blocks(spec, count, master_seed, workers, reduce):
        rows = out[start : start + len(angles)]
        rows["sample_index"] = np.arange(start, start + len(angles))
        rows["first_angle"] = angles
        rows["charpoly_re"] = cp.real
        rows["charpoly_im"] = cp.imag
        rows["charpoly_abs"] = cp_abs
    return out


def char_poly_magnitudes(
    spec: GroupSpec, count: int, master_seed: int, workers: int = 1
) -> np.ndarray:
    """|det(I - A)| per sample, without the eigen cross-check (fast path)."""
    out = np.empty(count)

    def reduce(mats):
        return np.abs(char_poly_batch(mats, check=False))

    for start, magnitudes in _blocks(spec, count, master_seed, workers, reduce):
        out[start : start + len(magnitudes)] = magnitudes
    return out
