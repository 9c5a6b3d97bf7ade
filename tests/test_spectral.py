"""Eigenangle extraction, characteristic polynomial, and excision."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from excised_rmt.groups import GroupKind, GroupSpec, sample_batch
from excised_rmt.spectral import (
    ExcisionRule,
    SpectralError,
    _canonical_angles,
    _symmetrize,
    char_poly_batch,
    eigenangles_batch,
    excise_mask,
    first_angles_batch,
    unitary_angles,
)

ALL_GROUPS = list(GroupKind)


@pytest.mark.parametrize("kind", ALL_GROUPS)
def test_angles_sorted_and_in_range(kind):
    spec = GroupSpec(kind, 6)
    angles = eigenangles_batch(spec, sample_batch(spec, 3, 0, 1))[0]
    assert angles.size == spec.dim
    assert np.all(np.diff(angles) >= 0)
    assert np.all(angles > -np.pi) and np.all(angles <= np.pi)


# the last two are the golden `sample` runs, whose SO rows are only sorted
@pytest.mark.parametrize(
    "kind,n,seed,count",
    [
        pytest.param(GroupKind.SOEven, 5, 4, 20, id="GroupKind.SOEven"),
        pytest.param(GroupKind.SOOdd, 5, 4, 20, id="GroupKind.SOOdd"),
        pytest.param(GroupKind.USp, 5, 4, 20, id="GroupKind.USp"),
        pytest.param(GroupKind.SOEven, 10, 11, 1500, id="golden-SO(20)"),
        pytest.param(GroupKind.SOOdd, 5, 14, 700, id="golden-SO(11)"),
    ],
)
def test_self_dual_spectra_exactly_symmetric(kind, n, seed, count):
    # Real-orthogonal and symplectic spectra come in exact +/- pairs: for SO
    # because LAPACK returns each complex eigenvalue with its exact conjugate
    spec = GroupSpec(kind, n)
    rows = eigenangles_batch(spec, sample_batch(spec, seed, 0, count))
    for row in rows:
        paired = row[np.abs(row) < np.pi]  # exclude possible -1 eigenvalues at +pi
        assert np.array_equal(paired, -paired[::-1])


def test_so_odd_has_forced_zero():
    spec = GroupSpec(GroupKind.SOOdd, 5)
    # the second is the golden SO(11) `sample` run
    for seed, count in ((8, 50), (14, 700)):
        rows = eigenangles_batch(spec, sample_batch(spec, seed, 0, count))
        # sorted +- pairs around it, so the zero is column N, which
        # stats.density_angles drops
        assert np.all(rows[:, spec.n] == 0.0)


@pytest.mark.parametrize("kind", ALL_GROUPS)
def test_empty_stack_gives_empty_rows(kind):
    spec = GroupSpec(kind, 3)
    mats = np.empty((0, spec.dim, spec.dim))
    angles = eigenangles_batch(spec, mats)
    assert angles.shape == (0, spec.dim)
    assert char_poly_batch(mats, angles).shape == (0,)
    assert first_angles_batch(angles).shape == (0,)


def test_eigenvalues_reconstruct_matrix_spectrum():
    # angles must reproduce the actual eigenvalues of the sampled matrix
    spec = GroupSpec(GroupKind.Unitary, 7)
    m = sample_batch(spec, 12, 5, 1)[0]
    angles = eigenangles_batch(spec, m[None])[0]
    w = np.sort_complex(np.linalg.eigvals(m))
    recon = np.sort_complex(np.exp(1j * angles))
    assert np.max(np.abs(w - recon)) < 1e-9


def _haar(dim, seed, count):
    return sample_batch(GroupSpec(GroupKind.Unitary, dim), seed, 0, count)


def _eigvals_route(mats):
    """The eigen-solve unitary_angles replaced: eigvals, radial projection, sort."""
    return np.sort(_canonical_angles(np.linalg.eigvals(mats)), axis=1)


def _circle_gap(a, b):
    return np.max(np.abs(np.exp(1j * np.asarray(a)) - np.exp(1j * np.asarray(b))))


@pytest.mark.parametrize("dim", [6, 9, 30])
def test_cayley_angles_on_planted_spectra(dim):
    # Q diag(e^{i theta}) Q^* with Q Haar: one angle within eps of -1 (from
    # either side) and one small angle; every angle must come back within 1e-13
    rng = np.random.default_rng(dim)
    rows = []
    for eps in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10):
        for small in (1e-5, 1e-6, 1e-7, 1e-8):
            block = rng.uniform(-np.pi, np.pi, (20, dim))
            block[:10, 0] = np.pi - eps
            block[10:, 0] = -np.pi + eps
            block[:, 1] = small
            rows.append(block)
    rows = np.sort(np.concatenate(rows), axis=1)
    q = _haar(dim, 100 + dim, len(rows))
    mats = (q * np.exp(1j * rows)[:, None, :]) @ q.conj().transpose(0, 2, 1)
    assert np.max(np.abs(unitary_angles(mats) - rows)) <= 1e-13


@pytest.mark.parametrize("dim", [1, 2, 6, 9, 30])
def test_cayley_angles_match_eigvals_on_haar_blocks(dim):
    for seed in range(5):
        mats = _haar(dim, seed, 400)
        got = unitary_angles(mats)
        assert np.all(got > -np.pi) and np.all(got <= np.pi)
        assert np.max(np.abs(got - _eigvals_route(mats))) <= 1e-12
        spec = GroupSpec(GroupKind.Unitary, dim)
        assert np.array_equal(eigenangles_batch(spec, mats), got)


@pytest.mark.parametrize("kind,n", [(GroupKind.SOEven, 10), (GroupKind.SOOdd, 10), (GroupKind.USp, 10)])
def test_cayley_angles_take_any_unitary_stack(kind, n):
    # real orthogonal and symplectic stacks go through the same solver
    mats = sample_batch(GroupSpec(kind, n), 9, 0, 300)
    assert np.max(np.abs(unitary_angles(mats) - _eigvals_route(mats))) <= 1e-12


def test_exactly_singular_i_plus_a():
    # np.linalg.solve fails a whole stack on one singular I + A
    lone = np.diag([-1.0, 1.0, 1.0]).astype(complex)
    assert _circle_gap(unitary_angles(lone[None]), [[0.0, 0.0, np.pi]]) <= 1e-15
    assert _circle_gap(unitary_angles(-np.eye(4)[None]), np.full((1, 4), np.pi)) <= 1e-15
    mats = _haar(3, 4, 50)
    mats[17] = lone
    got = unitary_angles(mats)
    assert _circle_gap(got[17], [0.0, 0.0, np.pi]) <= 1e-15
    rest = np.arange(50) != 17
    assert np.max(np.abs(got[rest] - _eigvals_route(mats[rest]))) <= 1e-12


def test_a_singular_solve_turns_only_its_own_rows():
    # U(2) matrices with I + A' exactly singular at psi = 0, pi/2, pi and
    # -pi/2, the turns a singular row takes from one pass to the next:
    # were every row of a failed pass turned, each pass would fail again
    turns = [0.0, np.pi / 2, np.pi, -np.pi / 2]
    mats = np.array([np.diag([-np.exp(1j * psi), 1.0]) for psi in turns])
    assert _circle_gap(unitary_angles(mats), _eigvals_route(mats)) <= 1e-15


@pytest.mark.parametrize("dim", [158, 200, 201])
def test_cyclic_shift_with_every_gap_narrow(dim):
    # eigenvalues e^{2 pi i k / dim}: no rotation brings max|t| under
    # cot(pi / (2 dim)), which is above 100 from dim = 158 on; -1 is an
    # eigenvalue for even dim and sits mid-gap for odd dim
    shift = np.roll(np.eye(dim), 1, axis=0).astype(complex)[None]
    got = unitary_angles(shift)[0]
    want = np.exp(2j * np.pi * np.arange(dim) / dim)
    # each angle within 1e-13 on the circle of a distinct eigenvalue
    gaps = np.abs(np.exp(1j * got)[:, None] - want[None, :])
    assert np.max(gaps.min(axis=1)) <= 1e-13
    assert len(set(gaps.argmin(axis=1))) == dim


def test_cayley_angles_match_eigvals_at_large_n():
    # at U(400) most rows keep a max|t| above 100 because their widest gap is narrow
    mats = _haar(400, 1, 6)
    assert np.max(np.abs(unitary_angles(mats) - _eigvals_route(mats))) <= 1e-12


def test_non_unitary_input_raises():
    mats = _haar(30, 2, 4)
    with pytest.raises(SpectralError):
        unitary_angles(1.001 * mats)
    usp = GroupSpec(GroupKind.USp, 10)
    with pytest.raises(SpectralError):
        eigenangles_batch(usp, 1.001 * sample_batch(usp, 2, 0, 4))
    bumped = mats.copy()
    bumped[2, 3, 4] += 1e-4
    with pytest.raises(SpectralError):
        eigenangles_batch(GroupSpec(GroupKind.Unitary, 30), bumped)
    broken = mats.copy()
    broken[1, 0, 0] = np.nan
    with pytest.raises(SpectralError):
        unitary_angles(broken)


def _usp_eigvals_route(mats):
    """The eigen-solve the USp Cayley route replaced: eigvals, radial projection, pairing."""
    return _symmetrize(_canonical_angles(np.linalg.eigvals(mats)))


@pytest.mark.parametrize("n,per_case", [(10, 20), (30, 4)])
def test_usp_angles_on_planted_spectra(n, per_case):
    # V diag(e^{i theta}, e^{-i theta}) V^* with V Haar on USp(2n): a +/- pair
    # within eps of -1 and a +/- pair of small angles; every angle must come
    # back within 1e-13
    spec = GroupSpec(GroupKind.USp, n)
    rng = np.random.default_rng(n)
    rows = []
    for eps in (1e-2, 1e-4, 1e-6, 1e-8):
        for small in (1e-5, 1e-6, 1e-7, 1e-8):
            block = rng.uniform(0.0, np.pi, (per_case, n))
            block[:, 0] = np.pi - eps
            block[:, 1] = small
            rows.append(block)
    half = np.concatenate(rows)
    v = sample_batch(spec, 200 + n, 0, len(half))
    phases = np.exp(1j * np.concatenate([half, -half], axis=1))
    mats = (v * phases[:, None, :]) @ v.conj().transpose(0, 2, 1)
    want = np.sort(np.concatenate([half, -half], axis=1), axis=1)
    assert np.max(np.abs(eigenangles_batch(spec, mats) - want)) <= 1e-13


@pytest.mark.parametrize("n,count", [(10, 400), (30, 60)])
def test_usp_angles_match_eigvals_on_haar_blocks(n, count):
    spec = GroupSpec(GroupKind.USp, n)
    for seed in range(3):
        mats = sample_batch(spec, seed, 0, count)
        assert np.max(np.abs(eigenangles_batch(spec, mats) - _usp_eigvals_route(mats))) <= 1e-12


def test_a_singular_row_leaves_every_row_as_solved_alone():
    # I + A of matrix 50 is singular, which fails the first pass's solve
    # for the whole stack of 100 U(30) matrices
    mats = _haar(30, 6, 100)
    mats[50] = np.diag(np.r_[-1.0, np.ones(29)]).astype(complex)
    alone = np.concatenate([unitary_angles(m[None]) for m in mats])
    assert np.array_equal(unitary_angles(mats), alone)


@pytest.mark.parametrize("kind", ALL_GROUPS)
def test_char_poly_dual_route_agrees(kind):
    spec = GroupSpec(kind, 5)
    mats = sample_batch(spec, 6, 0, 100)
    # raises when LU and the product over the angles disagree
    char_poly_batch(mats, eigenangles_batch(spec, mats))


@pytest.mark.parametrize("kind", ALL_GROUPS)
def test_char_poly_check_catches_shifted_angles(kind):
    spec = GroupSpec(kind, 5)
    mats = sample_batch(spec, 6, 0, 20)
    angles = eigenangles_batch(spec, mats)
    angles[7] += 1e-3
    with pytest.raises(SpectralError, match="cross-check"):
        char_poly_batch(mats, angles)


# det(I - A) = 0 for every odd orthogonal matrix, so a swap there is invisible
@pytest.mark.parametrize("kind", [GroupKind.SOEven, GroupKind.USp, GroupKind.Unitary])
def test_char_poly_check_catches_a_replaced_matrix(kind):
    spec = GroupSpec(kind, 5)
    mats = sample_batch(spec, 6, 0, 20)
    angles = eigenangles_batch(spec, mats)
    mats[7] = sample_batch(spec, 7, 0, 1)[0]
    with pytest.raises(SpectralError, match="cross-check"):
        char_poly_batch(mats, angles)


def test_char_poly_without_angles_is_the_lu_value():
    spec = GroupSpec(GroupKind.USp, 4)
    mats = sample_batch(spec, 6, 0, 20)
    lu = np.linalg.det(np.eye(spec.dim) - mats)
    assert np.array_equal(char_poly_batch(mats), lu)
    assert np.array_equal(char_poly_batch(mats, eigenangles_batch(spec, mats)), lu)


def test_char_poly_matches_eigen_product():
    spec = GroupSpec(GroupKind.SOEven, 6)
    m = sample_batch(spec, 2, 9, 1)[0]
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_excision_rule_rejects_non_finite_parameters(bad):
    with pytest.raises(ValueError, match="finite"):
        ExcisionRule(c=bad, k=1, n_std=8.0)
    with pytest.raises(ValueError, match="finite"):
        ExcisionRule(c=0.5, k=2, n_std=bad)


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
