"""Streaming statistics: histograms, KS distance, sharding, threaded blocks."""

import sys
import threading

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from excised_rmt import stats
from excised_rmt.groups import GroupKind, GroupSpec
from excised_rmt.spectral import SpectralError
from excised_rmt.stats import (
    Histogram,
    _blocks,
    _index_shards,
    char_poly_magnitudes,
    first_eigenangle_samples,
    ks_distance,
    mean_normalize,
    mean_one_histogram,
    nearest_neighbor_spacings,
    one_level_density_mc,
    pair_correlation_mc,
    sample_summaries,
)


def test_histogram_density_integrates_to_one():
    h = Histogram.uniform(0.0, 2.0, 10, normalization="density")
    h.add(np.random.default_rng(0).uniform(0.0, 2.0, 1000))
    assert float(np.sum(h.values() * h.widths)) == pytest.approx(1.0)


def test_histogram_tracks_out_of_range():
    h = Histogram.uniform(0.0, 1.0, 4)
    h.add([-0.5, 0.2, 0.7, 3.0])
    assert h.total_in_range == 2


def test_histogram_counts_nan():
    h = Histogram.uniform(0.0, 1.0, 4)
    h.add([np.nan, 0.5, np.inf])
    assert (h.nan, h.overflow, h.underflow, h.total_in_range) == (1, 1, 0, 1)
    other = Histogram.uniform(0.0, 1.0, 4)
    other.add([np.nan, np.nan])
    assert h.merge(other).nan == 3


def test_histogram_merge_matches_whole():
    a = Histogram.uniform(0.0, 1.0, 5)
    b = Histogram.uniform(0.0, 1.0, 5)
    whole = Histogram.uniform(0.0, 1.0, 5)
    xs = np.linspace(0.01, 0.99, 37)
    a.add(xs[:20])
    b.add(xs[20:])
    whole.add(xs)
    merged = a.merge(b)
    assert np.array_equal(merged.counts, whole.counts)


def test_histogram_merge_rejects_mismatched_edges():
    a = Histogram.uniform(0.0, 1.0, 5)
    b = Histogram.uniform(0.0, 2.0, 5)
    with pytest.raises(ValueError):
        a.merge(b)


def test_histogram_csv_contract():
    h = Histogram.uniform(0.0, 1.0, 2)
    h.add([0.25, 0.25, 0.75])
    text = h.to_csv_text()
    lines = text.split("\n")
    assert lines[0] == "bin_left,bin_right,density"
    assert len(lines) == 4 and lines[-1] == ""
    left, right, dens = lines[1].split(",")
    assert float(left) == 0.0 and float(right) == 0.5
    assert float(dens) == pytest.approx(2.0 / 3.0 / 0.5)
    assert "\r" not in text


def test_mean_normalize():
    xs = np.array([1.0, 2.0, 3.0])
    out = mean_normalize(xs)
    assert out.mean() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        mean_normalize(np.array([0.0, 0.0]))


def test_mean_one_histogram_has_unit_mean_support():
    rng = np.random.default_rng(1)
    h = mean_one_histogram(rng.exponential(3.0, 5000), bins=20)
    mids = 0.5 * (h.edges[:-1] + h.edges[1:])
    est_mean = float(np.sum(mids * h.values() * h.widths))
    assert est_mean == pytest.approx(1.0, abs=0.05)


def test_index_shards_partition():
    for count in (0, 1, 7, 100):
        for workers in (1, 2, 3, 8):
            spans = list(_index_shards(count, workers))  # (start, size) pairs
            assert sum(size for _, size in spans) == count
            # contiguous, ordered, nonempty
            pos = 0
            for start, size in spans:
                assert start == pos and size > 0
                pos = start + size
            assert len(spans) == min(count, workers)
    # the shard count is capped by the sample count, not looped over
    assert list(_index_shards(3, 10**12)) == [(0, 1), (1, 1), (2, 1)]
    with pytest.raises(ValueError):
        list(_index_shards(10, 0))


def test_block_size_follows_matrix_size():
    # 2**18 matrix entries per block: 655 matrices of SO(20), 291 of U(30)
    for spec, block in ((GroupSpec(GroupKind.SOEven, 10), 655),
                        (GroupSpec(GroupKind.Unitary, 30), 291)):
        starts = [start for start, _ in _blocks(spec, block + 1, 1, workers=1)]
        assert starts == [0, block]


def test_threads_share_the_block_budget(monkeypatch):
    # two threads split 2**18 entries: 327 matrices of SO(20) per block
    monkeypatch.setattr(stats, "_usable_cores", lambda: 2)
    spec = GroupSpec(GroupKind.SOEven, 10)
    starts = [start for start, _ in _blocks(spec, 700, 1, workers=2)]
    assert starts == [0, 327, 350, 677]


@pytest.fixture
def small_blocks(monkeypatch):
    """Many small blocks, and four usable cores whatever the machine has."""
    monkeypatch.setattr(stats, "_BLOCK_ELEMENTS", 600)
    monkeypatch.setattr(stats, "_usable_cores", lambda: 4)


@pytest.mark.parametrize("fn", [sample_summaries, first_eigenangle_samples, char_poly_magnitudes])
def test_threaded_arrays_are_byte_identical(fn, small_blocks):
    spec = GroupSpec(GroupKind.USp, 3)
    base = fn(spec, 50, 4, workers=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for workers in (2, 3, 8):
            assert fn(spec, 50, 4, workers=workers).tobytes() == base.tobytes()
    finally:
        sys.setswitchinterval(interval)


def test_block_error_propagates_and_stops_sampling(monkeypatch, small_blocks):
    # 3 threads, blocks of 600 // (3 * 16) = 12 matrices of U(4)
    calls = []
    real = stats.sample_batch

    def tagged(spec, seed, first, size):
        calls.append(first)
        return first, real(spec, seed, first, size)

    def reduce(block):
        first, mats = block
        if first == 36:
            raise SpectralError("block 36")
        return mats

    monkeypatch.setattr(stats, "sample_batch", tagged)
    spec = GroupSpec(GroupKind.Unitary, 4)
    seen = []
    with pytest.raises(SpectralError, match="block 36"):
        for start, _ in _blocks(spec, 600, 1, workers=3, reduce=reduce):
            seen.append(start)
    assert seen == [0, 12, 24]
    assert len([first for first in calls if first > 36]) <= 3


@pytest.mark.parametrize("workers, count", [(1, 50), (2, 50), (3, 50), (8, 50), (8, 2), (3, 1)])
def test_thread_count_is_capped(workers, count, monkeypatch):
    monkeypatch.setattr(stats, "_BLOCK_ELEMENTS", 600)
    spec = GroupSpec(GroupKind.Unitary, 4)
    for cores in (stats._usable_cores(), 2):
        monkeypatch.setattr(stats, "_usable_cores", lambda: cores)
        idents = set()

        def reduce(mats):
            idents.add(threading.get_ident())
            return mats

        starts = [start for start, _ in _blocks(spec, count, 1, workers, reduce)]
        assert starts == sorted(starts) and len(starts) >= min(workers, count)
        assert 1 <= len(idents) <= min(workers, count, cores)
        if min(workers, count, cores) == 1:
            assert idents == {threading.get_ident()}


def test_huge_worker_count_matches_one_worker():
    spec = GroupSpec(GroupKind.SOEven, 3)
    huge = list(_blocks(spec, 3, 1, workers=10**12))
    one = list(_blocks(spec, 3, 1, workers=1))
    assert [start for start, _ in huge] == [0, 1, 2]
    assert np.concatenate([m for _, m in huge]).tobytes() == one[0][1].tobytes()


def test_ks_distance_against_scipy():
    rng = np.random.default_rng(2)
    a = rng.normal(0, 1, 400)
    b = rng.normal(0.3, 1, 300)
    ours = ks_distance(a, b)
    ref = scipy.stats.ks_2samp(a, b).statistic
    assert ours == pytest.approx(ref, abs=1e-12)


def test_ks_distance_against_cdf():
    rng = np.random.default_rng(3)
    a = rng.uniform(0, 1, 500)
    ours = ks_distance(a, lambda x: np.clip(x, 0.0, 1.0))
    ref = scipy.stats.kstest(a, "uniform").statistic
    assert ours == pytest.approx(ref, abs=1e-12)


@pytest.mark.parametrize("workers", [1, 2, 5])
def test_one_level_density_worker_invariant(workers):
    spec = GroupSpec(GroupKind.SOEven, 4)
    base = one_level_density_mc(spec, 300, 17, bins=10, workers=1)
    other = one_level_density_mc(spec, 300, 17, bins=10, workers=workers)
    assert np.array_equal(base.counts, other.counts)
    assert base.to_csv_text() == other.to_csv_text()


@pytest.mark.parametrize("workers", [1, 3])
def test_pair_correlation_worker_invariant(workers):
    spec = GroupSpec(GroupKind.Unitary, 8)
    base = pair_correlation_mc(spec, 200, 23, window=3, bins=12, workers=1)
    other = pair_correlation_mc(spec, 200, 23, window=3, bins=12, workers=workers)
    assert base.to_csv_text() == other.to_csv_text()


def test_unitary_one_level_density_is_flat():
    spec = GroupSpec(GroupKind.Unitary, 8)
    h = one_level_density_mc(spec, 5000, 5, bins=20)
    # per-matrix density on [0, 2pi) is N/(2pi)
    expect = 8 / (2 * np.pi)
    assert np.max(np.abs(h.values() - expect)) < 0.1


def test_sample_summaries_worker_invariant_and_consistent():
    spec = GroupSpec(GroupKind.SOEven, 5)
    t1 = sample_summaries(spec, 40, 9, workers=1)
    t2 = sample_summaries(spec, 40, 9, workers=4)
    assert np.array_equal(t1, t2)
    assert np.array_equal(t1["sample_index"], np.arange(40))
    assert np.allclose(t1["charpoly_abs"], np.abs(t1["charpoly_re"] + 1j * t1["charpoly_im"]))


def test_first_eigenangle_samples_positive():
    spec = GroupSpec(GroupKind.USp, 5)
    xs = first_eigenangle_samples(spec, 200, 3)
    assert xs.size == 200
    assert np.all(xs > 0)


def test_nearest_neighbor_spacings_mean_one():
    rng = np.random.default_rng(7)
    rows = np.sort(rng.uniform(0, 2 * np.pi, (200, 20)), axis=1)
    h = nearest_neighbor_spacings(rows)
    mids = 0.5 * (h.edges[:-1] + h.edges[1:])
    mean = float(np.sum(mids * h.values() * h.widths))
    # spacings are rescaled to unit mean; mass above the histogram range is small
    assert mean == pytest.approx(1.0, abs=0.1)
