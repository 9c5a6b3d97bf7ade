"""Streaming statistics: histograms, KS distance, the block split, threaded blocks."""

import math
import sys
import threading

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from excised_rmt import stats
from excised_rmt.groups import GroupKind, GroupSpec, sample_batch
from excised_rmt.spectral import SpectralError
from excised_rmt.stats import (
    Histogram,
    _blocks,
    char_poly_magnitudes,
    first_eigenangle_samples,
    ks_distance,
    mean_normalize,
    mean_one_histogram,
    one_level_density_mc,
    pair_correlation_mc,
    sample_summaries,
)


def test_histogram_density_integrates_to_one():
    h = Histogram.uniform(0.0, 2.0, 10)
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
    h.add([np.nan, np.nan])
    assert h.nan == 3


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_histogram_rejects_non_finite_edges(bad):
    edges = [0.0, 0.5, 1.0]
    for i in range(len(edges)):
        with pytest.raises(ValueError, match="finite"):
            Histogram(edges[:i] + [bad] + edges[i + 1:])


def test_histogram_per_event_density():
    # with an event count the density is per event, not per binned value
    h = Histogram.uniform(0.0, 1.0, 2, events=4)
    h.add([0.25, 0.25, 0.75, 3.0])
    assert h.values().tolist() == [2 / (4 * 0.5), 1 / (4 * 0.5)]
    for events in (0, -1):
        with pytest.raises(ValueError, match="events"):
            Histogram.uniform(0.0, 1.0, 2, events=events)


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


@pytest.mark.parametrize("cores", [1, 2, 4])
def test_blocks_split_the_range_evenly(cores, monkeypatch):
    # 60 entries per budget: 15, 7 or 3 matrices of U(2) per block on 1, 2 or 4 threads
    monkeypatch.setattr(stats, "_BLOCK_ELEMENTS", 60)
    monkeypatch.setattr(stats, "_usable_cores", lambda: cores)
    monkeypatch.setattr(stats, "sample_batch", lambda spec, seed, first, size: (first, size))
    spec = GroupSpec(GroupKind.Unitary, 2)
    for count in (0, 1, 2, 3, 7, 100):
        for workers in (1, 2, 3, 8, None):
            threads = max(1, min(cores if workers is None else workers, count, cores))
            per_block = max(1, 60 // (threads * 4))
            spans = [span for _, span in _blocks(spec, count, 1, workers)]
            pos = 0
            for first, size in spans:  # contiguous, ordered, nonempty, within the budget
                assert first == pos and 0 < size <= per_block
                pos += size
            assert pos == count
            assert len(spans) == min(count, threads * math.ceil(count / (threads * per_block)))
            assert len(spans) % threads == 0 or len(spans) == count
            sizes = [size for _, size in spans]
            assert not sizes or max(sizes) - min(sizes) <= 1


def test_blocks_reject_bad_count_and_workers():
    spec = GroupSpec(GroupKind.Unitary, 2)
    with pytest.raises(ValueError, match="count must be >= 0"):
        list(_blocks(spec, -2, 1, 1))
    with pytest.raises(ValueError, match="workers must be >= 1"):
        list(_blocks(spec, 10, 1, 0))


_DRIVERS = [one_level_density_mc, pair_correlation_mc, first_eigenangle_samples,
            sample_summaries, char_poly_magnitudes]


@pytest.mark.parametrize(
    "fn, count, workers",
    [(fn, count, workers) for fn in _DRIVERS
     for count, workers in [(True, 1), (2.0, 1), (2, True), (2, 2.0)]]
    + [(sample_batch, True, None), (sample_batch, 2.0, None)],
)
def test_counts_and_workers_must_be_integers(fn, count, workers):
    # a bool or float count or workers is refused at the call, before any sampling
    spec = GroupSpec(GroupKind.Unitary, 2)
    with pytest.raises(TypeError, match="must be an integer"):
        if fn is sample_batch:
            fn(spec, 1, 0, count)
        else:
            fn(spec, count, 1, workers=workers)


@pytest.mark.parametrize("bins", [True, 2.0])
def test_histogram_bins_must_be_an_integer(bins):
    with pytest.raises(TypeError, match="bins must be an integer"):
        Histogram.uniform(0.0, 1.0, bins)


def test_block_size_follows_matrix_size(monkeypatch):
    # 2**18 matrix entries per block: at most 655 matrices of SO(20), 291 of
    # U(30), so one more than that splits into two near-equal blocks
    monkeypatch.setattr(stats, "_usable_cores", lambda: 1)
    for spec, block, second in ((GroupSpec(GroupKind.SOEven, 10), 655, 328),
                                (GroupSpec(GroupKind.Unitary, 30), 291, 146)):
        blocks = list(_blocks(spec, block + 1, 1, workers=1))
        assert [start for start, _ in blocks] == [0, second]
        streamed = np.concatenate([mats for _, mats in blocks])
        assert streamed.tobytes() == stats.sample_batch(spec, 1, 0, block + 1).tobytes()


def test_threads_share_the_block_budget(monkeypatch):
    # two threads split 2**18 entries: at most 327 matrices of SO(20) per
    # block, so 700 matrices make 2 * ceil(700 / 654) = 4 blocks of 175
    monkeypatch.setattr(stats, "_usable_cores", lambda: 2)
    spec = GroupSpec(GroupKind.SOEven, 10)
    blocks = list(_blocks(spec, 700, 1, workers=2))
    assert [start for start, _ in blocks] == [0, 175, 350, 525]
    streamed = np.concatenate([mats for _, mats in blocks])
    assert streamed.tobytes() == stats.sample_batch(spec, 1, 0, 700).tobytes()


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
    # 3 threads, at most 600 // (3 * 16) = 12 matrices of U(4) per block, so
    # 576 matrices make 48 blocks of exactly 12
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
        for start, _ in _blocks(spec, 576, 1, workers=3, reduce=reduce):
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
        threads = min(workers, count, cores)
        assert starts == sorted(starts) and len(starts) >= threads
        assert 1 <= len(idents) <= threads
        if threads == 1:
            assert idents == {threading.get_ident()}


def test_huge_worker_count_matches_one_worker(monkeypatch):
    monkeypatch.setattr(stats, "_usable_cores", lambda: 4)
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


def test_sample_summaries_checks_char_poly_against_its_angles(monkeypatch):
    spec = GroupSpec(GroupKind.SOEven, 4)
    solve = stats.eigenangles_batch

    def shifted(spec, mats):
        angles = solve(spec, mats)
        angles[-1] += 1e-3
        return angles

    monkeypatch.setattr(stats, "eigenangles_batch", shifted)
    with pytest.raises(SpectralError, match="cross-check"):
        sample_summaries(spec, 50, 3, workers=1)


def test_sample_summaries_solves_each_matrix_once(monkeypatch):
    # det(I - A) is checked against the angles already solved, not a second eigvals
    rows = []
    eigvals = np.linalg.eigvals

    def counted(a):
        rows.append(len(a))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    sample_summaries(GroupSpec(GroupKind.SOEven, 4), 300, 11, workers=1)
    assert sum(rows) == 300
