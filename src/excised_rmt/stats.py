"""Streaming Monte Carlo statistics for sampled spectra.

Every ensemble statistic is one reduction over ``_blocks``, which cuts
the sample-index range into near-equal blocks of Haar matrices and hands
them back in index order; per-sample arrays are filled by ``_collect``.
``_blocks`` is the one place that sizes a batch: a block holds at most
_BLOCK_ELEMENTS matrix entries, and sampling and eigen-solves take each
block whole.  For every worker count, one included, blocks are sampled
and reduced on a thread pool (numpy's LAPACK and ufunc loops release the
GIL), with at most one block per thread plus one in flight.
workers=None, the default here and in the CLI when --workers is unset,
uses every usable core.  Each matrix is a pure function of (seed, index)
and histogram counts are integer sums, so no output byte depends on the
worker count or the block layout.

A complex block is 1 MiB, above glibc's dynamic trim threshold, so
malloc returns each block's arrays to the kernel and faults them in
again for the next block.  This module leaves the allocator alone: the
setting that keeps them is process-wide, so ``cli.main`` makes it for
the subcommands that sample blocks, and a host process that imports the
library keeps its own.
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
# Matrix entries per block, whatever the matrix size and worker count; the
# memory of a run is a few times this per block in flight.
_BLOCK_ELEMENTS = 2**16

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
    """Equal-width bin counts on [lo, hi] with underflow, overflow and NaN tracking.

    ``values()`` is a density per event: counts / (events * width), where
    events is what the builder counts (a matrix, a pair or a sample), and
    ``errors()`` is its Poisson standard error.
    """

    def __init__(self, lo: float, hi: float, bins: int, events: int):
        # an infinite bound makes linspace warn, and a NaN one fails no comparison
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError("lo and hi must be finite")
        require_integer("bins", bins)
        if bins < 1:
            raise ValueError("bins must be >= 1")
        edges = np.linspace(lo, hi, bins + 1)
        if np.any(np.diff(edges) <= 0):
            raise ValueError("edges must be strictly increasing")
        require_integer("events", events)
        if events < 1:
            raise ValueError("events must be >= 1")
        self.edges = edges
        self.counts = np.zeros(bins, dtype=np.int64)
        self.underflow = 0
        self.overflow = 0
        self.nan = 0
        self.events = events

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

    def values(self) -> np.ndarray:
        return self.counts / (self.events * self.widths)

    def errors(self) -> np.ndarray:
        """Poisson standard error of values(), an empty bin counted as one."""
        return np.sqrt(np.maximum(self.counts, 1)) / (self.events * self.widths)

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
    """Divide samples by their mean; requires nonempty nonnegative input
    and a positive finite mean (one that overflows, or is NaN, raises)."""
    xs = np.asarray(samples, dtype=float)
    if xs.size == 0:
        raise ValueError("mean_normalize: empty input")
    if np.any(xs < 0.0):
        raise ValueError("mean_normalize: negative sample")
    with np.errstate(over="ignore", invalid="ignore"):
        m = xs.mean()
    if not 0.0 < m < np.inf:
        raise ValueError(f"mean_normalize: mean {m} is not positive and finite")
    return xs / m


def mean_one_histogram(samples, bins: int = DEFAULT_BINS) -> Histogram:
    """Density of the mean-normalized samples on [0, just above their max]."""
    scaled = mean_normalize(samples)
    hist = Histogram(0.0, float(scaled.max()) * (1.0 + 1e-12), bins, scaled.size)
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
    reduce=lambda start, mats: mats,
):
    """Iterates (start, reduce(start, mats)) over sample indices 0..count-1 in index order.

    mats holds the Haar samples start..start+len(mats)-1, at most
    _BLOCK_ELEMENTS // dim**2 of them (one when a matrix alone is larger).
    Up to min(workers, count, usable cores) threads (usable cores when
    workers is None) sample and reduce blocks, and at most one block per
    thread is started ahead of the one the caller is consuming.  The range
    is cut into near-equal blocks, a multiple of the thread count of them
    unless that would exceed count, so every thread gets the same work.  A
    count or workers that is not an integer raises TypeError at the call,
    a negative count or workers < 1 ValueError; an exception in a block is
    raised by the iterator, in index order.  Every thread count, one
    included, runs on the same in-order pool.
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
    per_block = max(1, _BLOCK_ELEMENTS // spec.dim**2)
    blocks = min(count, threads * -(-count // (threads * per_block)))

    def run(i: int):
        first = count * i // blocks
        size = count * (i + 1) // blocks - first
        return first, reduce(first, sample_batch(spec, master_seed, first, size))

    return _in_order_on_threads(run, blocks, threads)


def _in_order_on_threads(run, blocks: int, threads: int):
    """Yields run(0), ..., run(blocks-1), computed on a pool of threads."""
    # imported here: importing excised_rmt.stats does not pay for concurrent.futures
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

    U(N) angles map onto [0, 2pi).  The self-dual groups' spectra come in
    +- pairs, so each row's sorted magnitudes are taken one per pair; a -1
    pair at +pi counts once, and SO(2N+1)'s forced zero sorts first and is
    skipped.  SO(2N) and USp(2N) keep those N angles on [0, pi]; SO(2N+1)
    keeps them and 2pi minus them, on [0, 2pi).
    """
    if spec.group is GroupKind.Unitary:
        return np.mod(angle_rows, 2.0 * np.pi)
    half = np.sort(np.abs(angle_rows), axis=1)[:, 1::2]
    if spec.group is GroupKind.SOOdd:
        return np.concatenate([half, 2.0 * np.pi - half], axis=1)
    return half


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
    hist = Histogram(0.0, one_level_range(spec), bins, events=count)

    def reduce(start, mats):
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
    hist = Histogram(0.0, window, bins, events=count * dim)
    scale = dim / (2.0 * np.pi)

    def reduce(start, mats):
        theta = eigenangles_batch(spec, mats)
        diffs = np.mod(theta[:, :, None] - theta[:, None, :], 2.0 * np.pi)
        x = diffs.ravel() * scale
        # drops the diagonal, whose differences are exactly 0.0
        return x[x > 0.0]

    for _, x in _blocks(spec, count, master_seed, workers, reduce):
        hist.add(x)
    return hist


def ks_distance(a, b: Union[np.ndarray, Callable[[np.ndarray], np.ndarray]]) -> float:
    """Supremum CDF gap between a sample set and samples or a CDF callable."""
    a = np.sort(np.asarray(a, dtype=float))
    if a.size == 0:
        raise ValueError("ks_distance: empty first sample")
    # np.sort puts NaN last
    if np.isnan(a[-1]):
        raise ValueError("ks_distance: NaN in first sample")
    if callable(b):
        cdf = np.asarray(b(a), dtype=float)
        if np.isnan(cdf).any():
            raise ValueError("ks_distance: NaN in the CDF's values")
        n = a.size
        hi = np.max(np.arange(1, n + 1) / n - cdf)
        lo = np.max(cdf - np.arange(0, n) / n)
        return float(max(hi, lo, 0.0))
    b = np.sort(np.asarray(b, dtype=float))
    if b.size == 0:
        raise ValueError("ks_distance: empty second sample")
    if np.isnan(b[-1]):
        raise ValueError("ks_distance: NaN in second sample")
    # the gap between the two step CDFs peaks at a sample point; taking the
    # points one sample at a time keeps one sample's worth of quotients
    gap = 0.0
    for points in (a, b):
        diff = np.searchsorted(a, points, side="right") / a.size
        diff -= np.searchsorted(b, points, side="right") / b.size
        gap = max(gap, float(np.max(np.abs(diff, out=diff))))
    return gap


def first_eigenangle_samples(
    spec: GroupSpec,
    count: int,
    master_seed: int,
    workers: Optional[int] = None,
) -> np.ndarray:
    """Smallest positive eigenangle of each sampled matrix, in index order."""

    def reduce(start, mats):
        return first_angles_batch(eigenangles_batch(spec, mats))

    return _collect(spec, count, master_seed, workers, reduce)


def summary_rows(spec: GroupSpec, start: int, mats: np.ndarray) -> np.ndarray:
    """The SAMPLE_DTYPE rows of samples start..start+len(mats)-1, whose
    matrices are mats: first angle and det(I - A), checked against those
    angles."""
    theta = eigenangles_batch(spec, mats)
    cp = char_poly_batch(mats, theta)
    rows = np.empty(len(mats), dtype=SAMPLE_DTYPE)
    rows["sample_index"] = np.arange(start, start + len(mats))
    rows["first_angle"] = first_angles_batch(theta)
    rows["charpoly_re"] = cp.real
    rows["charpoly_im"] = cp.imag
    rows["charpoly_abs"] = np.abs(cp)
    return rows


def sample_summaries(
    spec: GroupSpec,
    count: int,
    master_seed: int,
    workers: Optional[int] = None,
) -> np.ndarray:
    """Per-sample summary table: summary_rows of every sample, in
    sample-index order.  The CLI ``sample`` streams the same rows block
    by block."""

    def reduce(start, mats):
        return summary_rows(spec, start, mats)

    return _collect(spec, count, master_seed, workers, reduce, SAMPLE_DTYPE)


def char_poly_magnitudes(
    spec: GroupSpec, count: int, master_seed: int, workers: Optional[int] = None
) -> np.ndarray:
    """|det(I - A)| per sample by LU alone: no eigen-solve, no cross-check (fast path)."""

    def reduce(start, mats):
        return np.abs(char_poly_batch(mats))

    return _collect(spec, count, master_seed, workers, reduce)
