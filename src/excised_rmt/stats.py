"""Streaming Monte Carlo statistics for sampled spectra.

Every ensemble statistic is one reduction over ``_blocks``, which cuts
the sample-index range into near-equal blocks of Haar matrices and hands
them back in index order; per-sample arrays are filled by ``_collect``.
With more than one worker, blocks are sampled and reduced on a thread
pool (numpy's LAPACK and ufunc loops release the GIL), and the blocks in
flight share one memory budget.  workers=None, the default here and in
the CLI when --workers is unset, uses every usable core.  Each matrix is
a pure function of (seed, index) and histogram counts are integer sums,
so no output byte depends on the worker count or the block layout.
"""

from __future__ import annotations

import os
from collections import deque
from typing import Callable, Optional, Union

import numpy as np

from excised_rmt.groups import GroupKind, GroupSpec, one_level_range, sample_batch
from excised_rmt.special import require_integer
from excised_rmt.spectral import char_poly_batch, eigenangles_batch, first_angles_batch

DEFAULT_BINS = 100
# Matrix entries over all blocks in flight; bounds memory for any matrix
# size and worker count.
_BLOCK_ELEMENTS = 2**18

# One row per sample of the CLI ``sample`` table and the excision pipeline;
# the CSV's columns, their order and their number format follow from it.
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

    ``values()`` is a density: counts / (events * width) when the builder
    gives an event count (e.g. matrices sampled), a per-event density;
    otherwise counts / (in-range total * width), which integrates to 1.
    """

    def __init__(self, edges, events: Optional[int] = None):
        edges = np.asarray(edges, dtype=float)
        # a NaN edge fails no comparison, and an infinite one makes a bin
        # of infinite width
        if not np.all(np.isfinite(edges)):
            raise ValueError("edges must be finite")
        if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
            raise ValueError("edges must be strictly increasing with >= 2 entries")
        if events is not None and events <= 0:
            raise ValueError("events must be positive")
        self.edges = edges
        self.counts = np.zeros(edges.size - 1, dtype=np.int64)
        self.underflow = 0
        self.overflow = 0
        self.nan = 0
        self.events = events

    @classmethod
    def uniform(cls, lo: float, hi: float, bins: int = DEFAULT_BINS, **kw) -> "Histogram":
        require_integer("bins", bins)
        if bins < 1:
            raise ValueError("bins must be >= 1")
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

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.edges)

    @property
    def total_in_range(self) -> int:
        return int(self.counts.sum())

    def values(self) -> np.ndarray:
        if self.events is not None:
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


def mean_one_histogram(samples, bins: int = DEFAULT_BINS) -> Histogram:
    """Density of the mean-normalized samples on [0, just above their max]."""
    scaled = mean_normalize(samples)
    hist = Histogram.uniform(0.0, float(scaled.max()) * (1.0 + 1e-12), bins)
    hist.add(scaled)
    return hist


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _blocks(
    spec: GroupSpec,
    count: int,
    master_seed: int,
    workers: Optional[int] = None,
    reduce=lambda mats: mats,
):
    """Iterates (start, reduce(mats)) over sample indices 0..count-1 in index order.

    mats holds the Haar samples start..start+len(mats)-1.  Up to
    min(workers, count, usable cores) threads (usable cores when workers
    is None) sample and reduce blocks, and at most one block per thread is
    started ahead of the one the caller is consuming, so the blocks in
    flight share a budget of about _BLOCK_ELEMENTS matrix entries.  The
    range is cut into near-equal blocks, a multiple of the thread count of
    them unless that would exceed count, so every thread gets the same
    work.  A count or workers that is not an integer raises TypeError at
    the call, a negative count or workers < 1 ValueError; an exception in
    a block is raised by the iterator, in index order.  One thread runs
    inline.
    """
    require_integer("count", count)
    if count < 0:
        raise ValueError("count must be >= 0")
    cores = _usable_cores()
    if workers is None:
        workers = cores
    require_integer("workers", workers)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    threads = max(1, min(workers, count, cores))
    per_block = max(1, _BLOCK_ELEMENTS // (threads * spec.dim**2))
    blocks = min(count, threads * -(-count // (threads * per_block)))

    def run(i: int):
        first = count * i // blocks
        size = count * (i + 1) // blocks - first
        return first, reduce(sample_batch(spec, master_seed, first, size))

    if threads == 1:
        return map(run, range(blocks))
    return _in_order_on_threads(run, blocks, threads)


def _in_order_on_threads(run, blocks: int, threads: int):
    """Yields run(0), ..., run(blocks-1), computed on a pool of threads."""
    # imported here: one-worker runs do not pay for concurrent.futures
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(threads) as pool:
        pending = deque()
        for i in range(blocks):
            pending.append(pool.submit(run, i))
            if len(pending) > threads:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def _collect(
    spec: GroupSpec, count: int, master_seed: int, workers: Optional[int], reduce, dtype=float
):
    """One array of count rows, filled block by block from reduce's rows."""
    blocks = _blocks(spec, count, master_seed, workers, reduce)
    out = np.empty(count, dtype=dtype)
    for start, rows in blocks:
        out[start : start + len(rows)] = rows
    return out


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


def one_level_density_mc(
    spec: GroupSpec,
    count: int,
    master_seed: int,
    bins: int = DEFAULT_BINS,
    workers: Optional[int] = None,
) -> Histogram:
    """Empirical eigenangle density per matrix per radian."""
    if count < 1:
        raise ValueError("count must be >= 1")
    hist = Histogram.uniform(0.0, one_level_range(spec), bins, events=count)

    def reduce(mats):
        return density_angles(spec, eigenangles_batch(spec, mats))

    for _, angles in _blocks(spec, count, master_seed, workers, reduce):
        hist.add(angles)
    return hist


def pair_correlation_mc(
    spec: GroupSpec,
    count: int,
    master_seed: int,
    window: float = 5.0,
    bins: int = DEFAULT_BINS,
    workers: Optional[int] = None,
) -> Histogram:
    """Density of scaled eigenangle differences over (0, window].

    Differences (theta_i - theta_j) mod 2pi are scaled by dim/(2pi); all
    ordered pairs i != j contribute and the histogram is normalized per
    matrix, so it converges to the two-point correlation density.
    """
    if count < 1 or not 0 < window < np.inf:
        raise ValueError("need count >= 1 and a finite window > 0")
    dim = spec.dim
    hist = Histogram.uniform(0.0, window, bins, events=count * dim)
    scale = dim / (2.0 * np.pi)
    off_diagonal = ~np.eye(dim, dtype=bool)

    def reduce(mats):
        theta = eigenangles_batch(spec, mats)
        diffs = np.mod(theta[:, :, None] - theta[:, None, :], 2.0 * np.pi)
        x = diffs[:, off_diagonal].ravel() * scale
        return x[x > 0.0]

    for _, x in _blocks(spec, count, master_seed, workers, reduce):
        hist.add(x)
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
    workers: Optional[int] = None,
) -> np.ndarray:
    """Smallest positive eigenangle of each sampled matrix, in index order."""

    def reduce(mats):
        return first_angles_batch(eigenangles_batch(spec, mats))

    return _collect(spec, count, master_seed, workers, reduce)


def sample_summaries(
    spec: GroupSpec,
    count: int,
    master_seed: int,
    workers: Optional[int] = None,
) -> np.ndarray:
    """Per-sample summary table: first angle and det(I - A), checked against those angles.

    Returns a SAMPLE_DTYPE array in sample-index order; the backbone of
    the CLI ``sample`` output and the excision pipeline.
    """

    def reduce(mats):
        theta = eigenangles_batch(spec, mats)
        cp = char_poly_batch(mats, theta)
        rows = np.empty(len(mats), dtype=SAMPLE_DTYPE)
        rows["first_angle"] = first_angles_batch(theta)
        rows["charpoly_re"] = cp.real
        rows["charpoly_im"] = cp.imag
        rows["charpoly_abs"] = np.abs(cp)
        return rows

    out = _collect(spec, count, master_seed, workers, reduce, SAMPLE_DTYPE)
    out["sample_index"] = np.arange(count)
    return out


def char_poly_magnitudes(
    spec: GroupSpec, count: int, master_seed: int, workers: Optional[int] = None
) -> np.ndarray:
    """|det(I - A)| per sample by LU alone: no eigen-solve, no cross-check (fast path)."""

    def reduce(mats):
        return np.abs(char_poly_batch(mats))

    return _collect(spec, count, master_seed, workers, reduce)
