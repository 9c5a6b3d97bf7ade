"""Eigenangle extraction, characteristic polynomial, and excision."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from excised_rmt.groups import GroupKind, GroupSpec, sample, sample_batch
from excised_rmt.spectral import (
    ExcisionRule,
    char_poly_batch,
    eigenangles_batch,
    excise_mask,
    first_angles_batch,
)

ALL_KINDS = list(GroupKind)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_angles_sorted_and_in_range(kind):
    spec = GroupSpec(kind, 6)
    angles = eigenangles_batch(spec, sample_batch(spec, 3, 0, 1))[0]
    assert angles.size == spec.dim
    assert np.all(np.diff(angles) >= 0)
    assert np.all(angles > -np.pi) and np.all(angles <= np.pi)


@pytest.mark.parametrize("kind", [GroupKind.SOEven, GroupKind.SOOdd, GroupKind.USp])
def test_self_dual_spectra_exactly_symmetric(kind):
    # Real-orthogonal and symplectic spectra come in exact +/- pairs
    spec = GroupSpec(kind, 5)
    rows = eigenangles_batch(spec, sample_batch(spec, 4, 0, 20))
    for row in rows:
        paired = row[np.abs(row) < np.pi]  # exclude possible -1 eigenvalues at +pi
        assert np.allclose(np.sort(paired), -np.sort(-paired)[::-1], atol=0.0)


def test_so_odd_has_forced_zero():
    spec = GroupSpec(GroupKind.SOOdd, 5)
    rows = eigenangles_batch(spec, sample_batch(spec, 8, 0, 50))
    assert np.all(np.min(np.abs(rows), axis=1) == 0.0)


def test_eigenvalues_reconstruct_matrix_spectrum():
    # angles must reproduce the actual eigenvalues of the sampled matrix
    spec = GroupSpec(GroupKind.Unitary, 7)
    m = sample(spec, 12, 5)
    angles = eigenangles_batch(spec, m[None])[0]
    w = np.sort_complex(np.linalg.eigvals(m))
    recon = np.sort_complex(np.exp(1j * angles))
    assert np.max(np.abs(w - recon)) < 1e-9


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_char_poly_dual_route_agrees(kind):
    spec = GroupSpec(kind, 5)
    mats = sample_batch(spec, 6, 0, 100)
    char_poly_batch(mats, check=True)  # raises on dual-route disagreement


def test_char_poly_matches_eigen_product():
    spec = GroupSpec(GroupKind.SOEven, 6)
    m = sample(spec, 2, 9)
    value = complex(char_poly_batch(m[None])[0])
    w = np.linalg.eigvals(m)
    assert value == pytest.approx(complex(np.prod(1.0 - w)), rel=1e-8)


def test_so_odd_char_poly_vanishes():
    spec = GroupSpec(GroupKind.SOOdd, 10)
    mats = sample_batch(spec, 1, 0, 200)
    vals = char_poly_batch(mats)
    assert np.max(np.abs(vals)) < 1e-10


def test_first_eigenangle_is_smallest_positive():
    spec = GroupSpec(GroupKind.USp, 6)
    angles = eigenangles_batch(spec, sample_batch(spec, 3, 1, 1))[0]
    first = first_angles_batch(angles[None])[0]
    assert first == angles[angles > 0].min()


def test_first_angles_batch_matches_scalar():
    spec = GroupSpec(GroupKind.SOEven, 5)
    rows = eigenangles_batch(spec, sample_batch(spec, 7, 0, 10))
    batch = first_angles_batch(rows)
    for i, row in enumerate(rows):
        assert batch[i] == row[row > 0].min()


def test_excision_rule_threshold():
    assert ExcisionRule(c=0.5, k=1, n_std=8.0).threshold == 0.5
    r = ExcisionRule(c=0.5, k=3, n_std=8.0)
    assert r.threshold == pytest.approx(0.5 * np.exp(-8.0))
    with pytest.raises(ValueError):
        ExcisionRule(c=-1.0, k=1, n_std=8.0)
    with pytest.raises(ValueError):
        ExcisionRule(c=1.0, k=0, n_std=8.0)


@given(
    mags=st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=50),
    c=st.floats(min_value=0.0, max_value=5.0),
)
@settings(max_examples=50, deadline=None)
def test_excision_boundary_is_inclusive(mags, c):
    rule = ExcisionRule(c=c, k=1, n_std=1.0)
    mask = excise_mask(np.asarray(mags), rule)
    assert mask.tolist() == [m >= rule.threshold for m in mags]


def test_boundary_value_is_kept_exactly():
    rule = ExcisionRule(c=0.25, k=1, n_std=3.0)
    assert excise_mask(np.array([0.25, np.nextafter(0.25, 0.0)]), rule).tolist() == [True, False]
