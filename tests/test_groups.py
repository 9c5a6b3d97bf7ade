"""Haar sampling: group membership, determinism, and distributional checks."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from excised_rmt import groups, stats
from excised_rmt.groups import (
    _MASK64,
    GroupKind,
    GroupSpec,
    group_from_name,
    sample_batch,
    _gaussian_block,
    _gaussian_count,
)
from excised_rmt.stats import _blocks, ks_distance
from group_invariants import GroupInvariantError, symplectic_form, verify_invariants

ALL_GROUPS = list(GroupKind)


@pytest.mark.parametrize("kind", ALL_GROUPS)
def test_invariants_hold(kind):
    spec = GroupSpec(kind, 6)
    for idx in range(5):
        verify_invariants(spec, sample_batch(spec, 11, idx, 1)[0])


def test_verify_invariants_rejects_non_members():
    spec = GroupSpec(GroupKind.SOEven, 3)
    a = sample_batch(spec, 1, 0, 1)[0]
    flipped = a.copy()
    flipped[:, -1] = -flipped[:, -1]  # orthogonal with determinant -1
    for bad in (flipped, 1.01 * a):
        with pytest.raises(GroupInvariantError):
            verify_invariants(spec, bad)
    unitary = sample_batch(GroupSpec(GroupKind.Unitary, 6), 1, 0, 1)[0]
    with pytest.raises(GroupInvariantError):
        verify_invariants(GroupSpec(GroupKind.USp, 3), unitary)


@given(
    kind=st.sampled_from(ALL_GROUPS),
    n=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**63 - 1),
    idx=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=40, deadline=None)
def test_invariants_hold_property(kind, n, seed, idx):
    spec = GroupSpec(kind, n)
    verify_invariants(spec, sample_batch(spec, seed, idx, 1)[0])


@pytest.mark.parametrize("kind", ALL_GROUPS)
def test_sample_is_deterministic(kind):
    spec = GroupSpec(kind, 4)
    a = sample_batch(spec, 7, 3, 1)[0]
    b = sample_batch(spec, 7, 3, 1)[0]
    assert np.array_equal(a, b)
    assert np.array_equal(a, sample_batch(spec, 7, 0, 4)[3])


@pytest.mark.parametrize("kind", ALL_GROUPS)
def test_batches_are_offset_invariant(kind):
    # sample i must not depend on the batch it was generated in
    spec = GroupSpec(kind, 3)
    whole = sample_batch(spec, 5, 0, 8)
    parts = np.concatenate([sample_batch(spec, 5, 0, 3), sample_batch(spec, 5, 3, 5)])
    assert np.array_equal(whole, parts)


@pytest.mark.parametrize("kind", ALL_GROUPS)
def test_stream_matches_batch(kind, monkeypatch):
    # the block stream every Monte Carlo statistic reduces over, split here
    # into one near-equal block per thread, concatenates to one whole batch
    monkeypatch.setattr(stats, "_usable_cores", lambda: 4)
    spec = GroupSpec(kind, 3)
    blocks = list(_blocks(spec, 7, 9, workers=3))
    assert [start for start, _ in blocks] == [0, 2, 4]
    streamed = np.concatenate([mats for _, mats in blocks])
    assert np.array_equal(streamed, sample_batch(spec, 9, 0, 7))


def _reference_gaussians(master_seed, sample_index, need):
    """The per-sample recipe: a fresh Generator(Philox) and Box-Muller on one row."""
    key = (master_seed & _MASK64) | ((sample_index & _MASK64) << 64)
    gen = np.random.Generator(np.random.Philox(key=key))
    pairs = (need + 1) // 2
    u1 = gen.random(pairs)
    u2 = gen.random(pairs)
    r = np.sqrt(-2.0 * np.log1p(-u1))
    z = np.empty(2 * pairs)
    z[0::2] = r * np.cos(2.0 * np.pi * u2)
    z[1::2] = r * np.sin(2.0 * np.pi * u2)
    return z[:need]


GAUSSIAN_NEEDS = sorted(
    {1, 3, 400, 441, 1800} | {_gaussian_count(GroupSpec(kind, 5)) for kind in ALL_GROUPS}
)


@pytest.mark.parametrize("count", [1, 5])
@pytest.mark.parametrize("need", GAUSSIAN_NEEDS)
@pytest.mark.parametrize("start", [0, 2**64 - 3])
@pytest.mark.parametrize("seed", [0, -1, 2**64 - 1, 7])
def test_gaussian_block_matches_per_sample_recipe(seed, start, need, count):
    # bit for bit, including the wrap of the sample index past 2**64 - 1
    block = np.full((count, need), np.nan)
    _gaussian_block(seed, start, block)
    expected = np.stack([_reference_gaussians(seed, start + i, need) for i in range(count)])
    assert np.array_equal(block.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("kind", ALL_GROUPS)
def test_sample_batch_rows_equal_matrices_sampled_alone(kind):
    # SO(2N+1) has an odd Gaussian count; the starts wrap past 2**64 - 1
    spec = GroupSpec(kind, 4)
    count = 11
    for start in (0, 2**64 - 5):
        whole = sample_batch(spec, 3, start, count)
        single = np.stack([sample_batch(spec, 3, start + i, 1)[0] for i in range(count)])
        assert single.dtype == whole.dtype
        assert np.array_equal(single.view(np.uint8), whole.view(np.uint8))


@pytest.mark.parametrize("name, seed, start", [("master seed", 1.7, 0), ("master seed", True, 0),
                                               ("start", 1, 1.9), ("start", 1, True)])
def test_sample_batch_seed_and_start_must_be_integers(name, seed, start):
    with pytest.raises(TypeError, match=f"{name} must be an integer"):
        sample_batch(GroupSpec(GroupKind.Unitary, 2), seed, start, 1)


@pytest.mark.parametrize(
    "kind, n, count",
    [
        (GroupKind.SOEven, 10, 655),
        (GroupKind.USp, 10, 655),
        (GroupKind.Unitary, 30, 291),
        (GroupKind.USp, 30, 72),
    ],
)
def test_sample_batch_memory_stays_near_its_output(kind, n, count):
    # the whole batch is orthogonalized at once: its Gaussians, the QR's
    # factors and their copies peak at 4-5 times the output
    spec = GroupSpec(kind, n)
    sample_batch(spec, 1, 0, 1)  # first-call allocations are not the batch's
    tracemalloc.start()
    try:
        out = sample_batch(spec, 1, 0, count)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6 * out.nbytes, (peak, out.nbytes)


@pytest.mark.parametrize("kind", ALL_GROUPS)
def test_sample_index_wraps_past_2_64(kind):
    # sample index 2**64 under master seed -1 is index 0 under 2**64 - 1;
    # SO(2N+1) is the only group with an odd Gaussian count
    spec = GroupSpec(kind, 5)
    need = _gaussian_count(spec)
    assert (need % 2 == 1) == (kind is GroupKind.SOOdd)
    wrapped = sample_batch(spec, -1, 2**64 - 1, 2)
    assert np.array_equal(wrapped[1], sample_batch(spec, 2**64 - 1, 0, 1)[0])


def test_distinct_seeds_differ():
    spec = GroupSpec(GroupKind.Unitary, 4)
    a = sample_batch(spec, 1, 0, 1)[0]
    b = sample_batch(spec, 2, 0, 1)[0]
    c = sample_batch(spec, 1, 1, 1)[0]
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_special_orthogonal_determinant_is_one():
    for kind in (GroupKind.SOEven, GroupKind.SOOdd):
        mats = sample_batch(GroupSpec(kind, 5), 3, 0, 50)
        assert mats.dtype == np.float64
        assert np.allclose(np.linalg.det(mats), 1.0, atol=1e-8)


@pytest.mark.parametrize("dim", [2, 3, 20, 21, 24, 25])
def test_so_determinant_sign_comes_from_the_qr(dim):
    # _so_batch reads det(q) = (-1)^(dim - 1) * prod(sign R_ii) off its QR;
    # the matrices must equal those of a flip on the determinant's sign
    for seed in range(20):
        g = np.empty((200, dim * dim))
        _gaussian_block(seed, 0, g)
        q, signs = groups._qr_phases(g.reshape(-1, dim, dim))
        q *= signs[:, None, :]
        rule = (-1.0) ** (dim - 1) * np.prod(signs, axis=1)
        det_sign = np.sign(np.linalg.det(q))
        assert np.array_equal(rule, det_sign)
        q[det_sign < 0, :, -1] *= -1.0
        assert np.array_equal(groups._so_batch(dim, g), q)

def _reference_usp(n, g):
    """USp(2N) by quaternionic modified Gram-Schmidt, with one re-pass.

    A quaternion a + b j is stored as the complex pair (a, b); column c of
    the quaternionic Ginibre matrix is (x[:, :, c], y[:, :, c]).
    """
    g = g.reshape(-1, 4, n, n)
    x = g[:, 0] + 1j * g[:, 1]
    y = g[:, 2] + 1j * g[:, 3]
    for c in range(n):
        a = x[:, :, c]
        b = y[:, :, c]
        for _ in range(2):
            for d in range(c):
                u = x[:, :, d]
                v = y[:, :, d]
                # quaternionic inner product: conj(u_i) w_i summed over i
                sa = np.sum(np.conj(u) * a + v * np.conj(b), axis=1)
                sb = np.sum(np.conj(u) * b - v * np.conj(a), axis=1)
                a -= u * sa[:, None] - v * np.conj(sb)[:, None]
                b -= u * sb[:, None] + v * np.conj(sa)[:, None]
        norm = np.sqrt(np.sum(np.abs(a) ** 2 + np.abs(b) ** 2, axis=1))
        a /= norm[:, None]
        b /= norm[:, None]
    return np.block([[x, y], [-np.conj(y), np.conj(x)]])


@pytest.mark.parametrize("n", [1, 5, 10, 30])
def test_usp_qr_matches_quaternionic_gram_schmidt(n):
    spec = GroupSpec(GroupKind.USp, n)
    count = 40 if n < 30 else 12
    for seed, start in ((0, 0), (5, 1000), (-1, 2**64 - 7), (2**40 + 3, 77)):
        u = sample_batch(spec, seed, start, count)
        g = np.empty((count, _gaussian_count(spec)))
        _gaussian_block(seed, start, g)
        assert np.max(np.abs(u - _reference_usp(n, g))) <= 1e-13
        # the lower blocks are built from the upper ones, so the
        # quaternionic structure holds exactly
        assert np.array_equal(u[:, n:, n:], np.conj(u[:, :n, :n]))
        assert np.array_equal(u[:, n:, :n], -np.conj(u[:, :n, n:]))
        for a in u:
            verify_invariants(spec, a)


def test_symplectic_form_preserved():
    n = 5
    j = symplectic_form(n)
    mats = sample_batch(GroupSpec(GroupKind.USp, n), 3, 0, 20)
    for m in mats:
        assert np.max(np.abs(m.T @ j @ m - j)) < 1e-10


def test_dimensions():
    assert GroupSpec(GroupKind.SOEven, 7).dim == 14
    assert GroupSpec(GroupKind.SOOdd, 7).dim == 15
    assert GroupSpec(GroupKind.USp, 7).dim == 14
    assert GroupSpec(GroupKind.Unitary, 7).dim == 7


def test_group_from_name_aliases():
    assert group_from_name("so_even") is GroupKind.SOEven
    assert group_from_name("SO_ODD") is GroupKind.SOOdd
    assert group_from_name("usp") is GroupKind.USp
    assert group_from_name("unitary") is GroupKind.Unitary
    assert group_from_name(" USP ") is GroupKind.USp
    # the names are the GroupKind values and nothing else
    for name in ("nope", "u", "soeven", "soodd"):
        with pytest.raises(ValueError, match=f"unknown group name: {name!r}"):
            group_from_name(name)


def test_haar_invariance_of_trace_statistic():
    # If A is Haar on U(5), tr(U0 A) and tr(A) are identically distributed
    # for any fixed unitary U0; compare via the KS distance of Re tr.
    spec = GroupSpec(GroupKind.Unitary, 5)
    u0 = sample_batch(spec, 999, 0, 1)[0]
    verify_invariants(spec, u0)
    count = 100_000
    mats = sample_batch(spec, 4, 0, count)
    tr_plain = np.einsum("bii->b", mats).real
    tr_shift = np.einsum("ij,bji->b", u0, mats).real
    assert ks_distance(tr_plain, tr_shift) < 0.02


def test_haar_shift_preserves_membership():
    spec = GroupSpec(GroupKind.Unitary, 4)
    shifted = sample_batch(spec, 5, 0, 1)[0] @ sample_batch(spec, 6, 1, 1)[0]
    verify_invariants(spec, shifted)


def test_first_moment_of_trace_vanishes():
    # E[tr A] = 0 on U(N); the mean over 1e5 samples is O(1/sqrt(count)).
    mats = sample_batch(GroupSpec(GroupKind.Unitary, 6), 8, 0, 100_000)
    tr = np.einsum("bii->b", mats)
    assert abs(tr.mean()) < 0.02


def test_second_moment_of_trace_is_one():
    # E[|tr A|^2] = 1 on U(N) for N >= 1
    mats = sample_batch(GroupSpec(GroupKind.Unitary, 6), 8, 0, 100_000)
    tr = np.einsum("bii->b", mats)
    assert np.mean(np.abs(tr) ** 2) == pytest.approx(1.0, abs=0.03)


def test_invalid_spec_rejected():
    with pytest.raises(ValueError):
        GroupSpec(GroupKind.Unitary, 0)
    with pytest.raises(ValueError):
        GroupSpec(GroupKind.SOEven, -3)


@pytest.mark.parametrize("kind", ALL_GROUPS)
@pytest.mark.parametrize("n", [2.0, 2.5, True, False, "3", None])
def test_non_integer_half_size_rejected(kind, n):
    # a float or bool N used to pass and fail later inside numpy
    with pytest.raises(TypeError, match="must be an integer"):
        GroupSpec(kind, n)


def test_numpy_integer_half_size_accepted():
    spec = GroupSpec(GroupKind.USp, np.int64(3))
    assert spec.dim == 6 and sample_batch(spec, 1, 0, 2).shape == (2, 6, 6)
