"""Streaming statistics: histograms, KS distance, the block split, threaded blocks."""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from excised_rmt import stats
from excised_rmt.groups import GroupKind, GroupSpec, sample_batch
from excised_rmt.spectral import SpectralError, eigenangles_batch
from excised_rmt.stats import (
    Histogram,
    _blocks,
    char_poly_magnitudes,
    density_angles,
    first_eigenangle_samples,
    ks_distance,
    mean_normalize,
    mean_one_histogram,
    one_level_density_mc,
    pair_correlation_mc,
    sample_summaries,
)
from excised_rmt.zeros import compare_report


def test_histogram_density_integrates_to_one():
    h = Histogram(0.0, 2.0, 10, 1000)
    h.add(np.random.default_rng(0).uniform(0.0, 2.0, 1000))
    assert float(np.sum(h.values() * h.widths)) == pytest.approx(1.0)


def test_histogram_tracks_out_of_range():
    h = Histogram(0.0, 1.0, 4, 4)
    h.add([-0.5, 0.2, 0.7, 3.0])
    assert (h.counts.sum(), h.underflow, h.overflow) == (2, 1, 1)


def test_histogram_counts_nan():
    h = Histogram(0.0, 1.0, 4, 3)
    h.add([np.nan, 0.5, np.inf])
    assert (h.nan, h.overflow, h.underflow, h.counts.sum()) == (1, 1, 0, 1)
    h.add([np.nan, np.nan])
    assert h.nan == 3


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_histogram_rejects_non_finite_edges(bad):
    for lo, hi in ((bad, 1.0), (0.0, bad)):
        with pytest.raises(ValueError, match="finite"):
            Histogram(lo, hi, 2, 1)


@pytest.mark.parametrize("lo, hi", [(1.0, 1.0), (1.0, 0.0)])
def test_histogram_rejects_empty_range(lo, hi):
    with pytest.raises(ValueError, match="strictly increasing"):
        Histogram(lo, hi, 2, 1)


def test_histogram_errors_match_compare_report():
    rng = np.random.default_rng(4)
    left, right = rng.exponential(1.0, 300), rng.exponential(1.0, 200)
    report = compare_report(left, right, bins=12)
    hi = report["bins"][-1]["bin_right"]
    for side, xs in (("left", left), ("right", right)):
        hist = Histogram(0.0, hi, 12, xs.size)
        hist.add(mean_normalize(xs))
        se = np.array([row[f"se_{side}"] for row in report["bins"]])
        assert hist.errors().tobytes() == se.tobytes()


def test_histogram_per_event_density():
    # the density is per event, not per binned value: 3.0 is out of range
    h = Histogram(0.0, 1.0, 2, events=4)
    h.add([0.25, 0.25, 0.75, 3.0])
    assert h.values().tolist() == [2 / (4 * 0.5), 1 / (4 * 0.5)]
    for events in (0, -1):
        with pytest.raises(ValueError, match="events"):
            Histogram(0.0, 1.0, 2, events=events)


@pytest.mark.parametrize("events", [True, 4.0, None])
def test_histogram_events_must_be_an_integer(events):
    with pytest.raises(TypeError, match="events must be an integer"):
        Histogram(0.0, 1.0, 2, events)


def test_histogram_csv_contract():
    h = Histogram(0.0, 1.0, 2, 3)
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
    # dividing by an overflowed or NaN mean would give zeros and NaNs
    for bad in ([1e308, 1e308], [np.inf, 1.0], [np.nan, 1.0]):
        with pytest.raises(ValueError, match="not positive and finite"):
            mean_normalize(np.array(bad))


@pytest.mark.parametrize("fn", [
    pytest.param(mean_normalize, id="mean_normalize"),
    pytest.param(mean_one_histogram, id="mean_one_histogram"),
    pytest.param(lambda xs: compare_report(xs, [1.0, 2.0]), id="compare_report-left"),
    pytest.param(lambda xs: compare_report([1.0, 2.0], xs), id="compare_report-right"),
])
def test_mean_one_normalization_rejects_a_negative_sample(fn):
    # the mean stays positive, but a value below the bins' 0 would be lost
    # from a density per sample
    with pytest.raises(ValueError, match="negative sample"):
        fn(np.array([2.0, 1.0, -0.5]))


def test_mean_one_histogram_has_unit_mean_support():
    rng = np.random.default_rng(1)
    h = mean_one_histogram(rng.exponential(3.0, 5000), bins=20)
    mids = 0.5 * (h.edges[:-1] + h.edges[1:])
    est_mean = float(np.sum(mids * h.values() * h.widths))
    assert est_mean == pytest.approx(1.0, abs=0.05)


@pytest.mark.parametrize("cores", [1, 2, 4])
def test_blocks_split_the_range_evenly(cores, monkeypatch):
    # 60 entries per block: at most 15 matrices of U(2), on any number of threads
    monkeypatch.setattr(stats, "_BLOCK_ELEMENTS", 60)
    monkeypatch.setattr(stats, "_usable_cores", lambda: cores)
    monkeypatch.setattr(stats, "sample_batch", lambda spec, seed, first, size: (first, size))
    spec = GroupSpec(GroupKind.Unitary, 2)
    for count in (0, 1, 2, 3, 7, 100):
        for workers in (1, 2, 3, 8, None):
            threads = max(1, min(cores if workers is None else workers, count, cores))
            per_block = 60 // 4
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
        Histogram(0.0, 1.0, bins, 1)


def test_block_size_follows_matrix_size(monkeypatch):
    # 2**16 matrix entries per block: at most 163 matrices of SO(20), 72 of
    # U(30), so one more than that splits into two near-equal blocks
    monkeypatch.setattr(stats, "_usable_cores", lambda: 1)
    for spec, block, second in ((GroupSpec(GroupKind.SOEven, 10), 163, 82),
                                (GroupSpec(GroupKind.Unitary, 30), 72, 36)):
        blocks = list(_blocks(spec, block + 1, 1, workers=1))
        assert [start for start, _ in blocks] == [0, second]
        streamed = np.concatenate([mats for _, mats in blocks])
        assert streamed.tobytes() == stats.sample_batch(spec, 1, 0, block + 1).tobytes()


def test_block_count_is_a_multiple_of_the_threads(monkeypatch):
    # the thread count does not shrink a block: at most 163 matrices of
    # SO(20) per block, so 700 matrices on two threads make
    # 2 * ceil(700 / 326) = 6 blocks of 116 or 117
    monkeypatch.setattr(stats, "_usable_cores", lambda: 2)
    spec = GroupSpec(GroupKind.SOEven, 10)
    blocks = list(_blocks(spec, 700, 1, workers=2))
    assert [start for start, _ in blocks] == [0, 116, 233, 350, 466, 583]
    streamed = np.concatenate([mats for _, mats in blocks])
    assert streamed.tobytes() == stats.sample_batch(spec, 1, 0, 700).tobytes()


def _traced_peak(fn, spec, count, workers):
    tracemalloc.start()
    try:
        fn(spec, count, 1, workers=workers)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fn, spec", [(pair_correlation_mc, GroupSpec(GroupKind.Unitary, 30)),
                                      (one_level_density_mc, GroupSpec(GroupKind.USp, 10))])
def test_driver_memory_does_not_grow_with_the_block_count(fn, spec, monkeypatch):
    # 8 and then 32 full blocks: on one thread the peak is one block's, and
    # on two threads at most the three blocks in flight; which phases of the
    # two threads' blocks meet varies from run to run, so that peak is
    # bounded by three one-thread peaks, not compared run to run
    monkeypatch.setattr(stats, "_usable_cores", lambda: 2)
    per_block = stats._BLOCK_ELEMENTS // spec.dim**2
    fn(spec, 2, 1, workers=2)  # first-call allocations are not the blocks'
    one = _traced_peak(fn, spec, 8 * per_block, workers=1)
    assert _traced_peak(fn, spec, 32 * per_block, workers=1) <= 1.1 * one
    assert _traced_peak(fn, spec, 32 * per_block, workers=2) <= 3 * one


@pytest.fixture
def small_blocks(monkeypatch):
    """Many small blocks, and four usable cores whatever the machine has."""
    monkeypatch.setattr(stats, "_BLOCK_ELEMENTS", 200)
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
    # at most 200 // 16 = 12 matrices of U(4) per block, so 576 matrices
    # make 48 blocks of exactly 12 on 1 or 3 threads
    calls = []
    real = stats.sample_batch

    def tagged(spec, seed, first, size):
        calls.append(first)
        return first, real(spec, seed, first, size)

    def reduce(start, block):
        first, mats = block
        if first == 36:
            raise SpectralError("block 36")
        return mats

    monkeypatch.setattr(stats, "sample_batch", tagged)
    spec = GroupSpec(GroupKind.Unitary, 4)
    for workers in (1, 3):
        calls.clear()
        seen = []
        with pytest.raises(SpectralError, match="block 36"):
            for start, _ in _blocks(spec, 576, 1, workers=workers, reduce=reduce):
                seen.append(start)
        assert seen == [0, 12, 24]
        assert len([first for first in calls if first > 36]) <= workers


@pytest.mark.parametrize("workers, count", [(1, 50), (2, 50), (3, 50), (8, 50), (8, 2), (3, 1)])
def test_thread_count_is_capped(workers, count, monkeypatch):
    monkeypatch.setattr(stats, "_BLOCK_ELEMENTS", 600)
    spec = GroupSpec(GroupKind.Unitary, 4)
    for cores in (stats._usable_cores(), 2):
        monkeypatch.setattr(stats, "_usable_cores", lambda: cores)
        idents = set()

        def reduce(start, mats):
            idents.add(threading.get_ident())
            return mats

        starts = [start for start, _ in _blocks(spec, count, 1, workers, reduce)]
        threads = min(workers, count, cores)
        assert starts == sorted(starts) and len(starts) >= threads
        assert 1 <= len(idents) <= threads
        if threads == 1:
            assert len(idents) == 1


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


def test_ks_distance_matches_the_gap_over_both_samples():
    # the gap at every point of a and b together, as one array; small
    # integer draws give ties within and across the samples
    rng = np.random.default_rng(4)
    for size_a, size_b, values in [(1, 1, 3), (7, 3, 4), (50, 200, 10), (333, 120, 1000)]:
        a = rng.integers(0, values, size_a).astype(float)
        b = rng.integers(0, values, size_b).astype(float)
        a.sort()
        b.sort()
        everything = np.concatenate([a, b])
        ca = np.searchsorted(a, everything, side="right") / a.size
        cb = np.searchsorted(b, everything, side="right") / b.size
        assert ks_distance(a, b) == float(np.max(np.abs(ca - cb)))


def test_ks_distance_memory_per_row():
    # sorted copies of both samples plus one sample's quotients, about 20
    # bytes per row at equal sizes
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=2 * 10**5), rng.normal(0.1, 1.0, 2 * 10**5)
    ks_distance(a[:10], b[:10])  # first-call allocations
    tracemalloc.start()
    try:
        ks_distance(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 24 * (a.size + b.size), peak


def test_ks_distance_against_cdf():
    rng = np.random.default_rng(3)
    a = rng.uniform(0, 1, 500)
    ours = ks_distance(a, lambda x: np.clip(x, 0.0, 1.0))
    ref = scipy.stats.kstest(a, "uniform").statistic
    assert ours == pytest.approx(ref, abs=1e-12)


@pytest.mark.parametrize(
    "a, b",
    [
        ([np.nan, 0.5, 0.7], [0.5, 0.7, 0.9]),
        ([0.5, 0.7, 0.9], [0.5, np.nan, 0.9]),
        ([0.5, 0.7, 0.9], lambda x: np.where(x > 0.6, np.nan, x)),
    ],
    ids=["first-sample", "second-sample", "cdf"],
)
def test_ks_distance_rejects_nan(a, b):
    # a NaN sorts last and so would be read as an ordinary largest value
    with pytest.raises(ValueError, match="NaN"):
        ks_distance(a, b)


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


def _conjugated(core):
    q, _ = np.linalg.qr(np.random.default_rng(6).standard_normal(core.shape))
    return (q @ core @ q.T)[None]


_PI = np.pi
_R07 = np.array([[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]])


@pytest.mark.parametrize("spec, mats, rows, folded", [
    pytest.param(GroupSpec(GroupKind.SOOdd, 1), _conjugated(np.diag([-1.0, -1.0, 1.0])),
                 [0.0, _PI, _PI], [_PI, _PI], id="SO(3)"),
    pytest.param(GroupSpec(GroupKind.SOEven, 2),
                 _conjugated(np.block([[_R07, np.zeros((2, 2))], [np.zeros((2, 2)), -np.eye(2)]])),
                 [-0.7, 0.7, _PI, _PI], [0.7, _PI], id="SO(4)"),
    # exactly -I: the Cayley solve's singular I + A
    pytest.param(GroupSpec(GroupKind.USp, 1), -np.eye(2, dtype=complex)[None],
                 [_PI, _PI], [_PI], id="USp(2)"),
])
def test_density_angles_counts_a_minus_one_pair_once(spec, mats, rows, folded):
    # a planted -1 pair comes back as [pi, pi], not as a +- pair; the fold
    # still takes one angle per pair, and SO(2N+1) drops its forced zero
    angle_rows = eigenangles_batch(spec, mats)
    assert np.all(angle_rows[0][np.array(rows) == _PI] == _PI)
    assert np.allclose(angle_rows[0], rows, rtol=0.0, atol=1e-12)
    out = np.sort(density_angles(spec, angle_rows), axis=None)
    assert out.size == len(folded) and np.allclose(out, folded, rtol=0.0, atol=1e-12)


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
