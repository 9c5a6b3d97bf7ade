"""Reproducible Haar-measure sampling from the four classical compact groups.

Sampling recipes:

- U(N): complex Ginibre matrix -> QR; each column of Q divided by the phase
  of the matching R diagonal entry so R has positive real diagonal.
- SO(n): real Ginibre -> QR with sign correction; if det = -1 the last
  column is negated to land on the det = +1 component.
- USp(2N): quaternionic Ginibre (x + y j, x and y complex N x N) -> one
  complex QR of the 2N x 2N matrix that interleaves each column
  c_k = [x_k; -conj(y_k)] with its partner [y_k; conj(x_k)].  The partner
  is orthogonal to c_k and to every earlier pair, so complex Gram-Schmidt
  in that order is quaternionic Gram-Schmidt (Mezzadri, Notices AMS 54,
  2007).  The phase-corrected even columns give the first N columns of U,
  and the last N are built from them, so U = [[x, y], [-conj(y), conj(x)]]
  preserves J = [[0, I], [-I, 0]] by construction.

All randomness is a pure function of (master_seed, sample_index): each
sample owns a counter-based Philox stream and Gaussians come from
Box-Muller, so results are identical regardless of scheduling or worker
count.  A batch is built in chunks of about _CHUNK_WORDS Gaussians, each
drawn, orthogonalized and written into the output before the next, so
its temporaries stay cache-sized whatever the batch size.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from excised_rmt.special import require_integer

_MASK64 = (1 << 64) - 1
# Gaussians drawn and orthogonalized per chunk of a batch (256 KiB); a
# chunk this size stays in cache and keeps a batch's memory near its output's
_CHUNK_WORDS = 2**15
# Round-off bounds of verify_invariants: max |A A^* - I| (and |A^T J A - J|
# on USp) and |det A - 1| on SO
_UNITARY_TOL = 1e-10
_DET_TOL = 1e-8


class GroupKind(enum.Enum):
    SOEven = "so_even"
    SOOdd = "so_odd"
    USp = "usp"
    Unitary = "unitary"


@dataclass(frozen=True)
class GroupSpec:
    """A compact group choice plus its half-size parameter N."""

    group: GroupKind
    n: int

    def __post_init__(self):
        if not isinstance(self.group, GroupKind):
            raise TypeError("group must be a GroupKind")
        require_integer("half-size N", self.n)
        if self.n < 1:
            raise ValueError("half-size N must be a positive integer")

    @property
    def dim(self) -> int:
        if self.group is GroupKind.SOEven:
            return 2 * self.n
        if self.group is GroupKind.SOOdd:
            return 2 * self.n + 1
        if self.group is GroupKind.USp:
            return 2 * self.n
        return self.n


def one_level_range(spec: GroupSpec) -> float:
    return np.pi if spec.group in (GroupKind.SOEven, GroupKind.USp) else 2.0 * np.pi


class GroupInvariantError(RuntimeError):
    """A constructed matrix failed its group invariants (internal defect)."""


def symplectic_form(n: int) -> np.ndarray:
    """The skew form J with blocks [[0, I_n], [-I_n, 0]]."""
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = np.eye(n)
    j[n:, :n] = -np.eye(n)
    return j


def _gaussian_block(master_seed: int, start: int, out: np.ndarray) -> None:
    """Fills out, shape (count, need), with normals for indices start..start+count-1.

    Row i is drawn from the Philox stream keyed by (master_seed, start + i)
    from counter 0.  One generator is reset per row through its state, and
    the raw words of all rows go through Box-Muller together.
    """
    start = int(start)
    count, need = out.shape
    pairs = (need + 1) // 2
    bitgen = np.random.Philox(0)
    key = [int(master_seed) & _MASK64, 0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": key},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,  # empty buffer, as after construction
        "has_uint32": 0,
        "uinteger": 0,
    }
    bits = np.empty((count, 2 * pairs), dtype=np.uint64)
    for row, index in zip(bits, range(start, start + count)):
        key[1] = index & _MASK64
        bitgen.state = state
        row[...] = bitgen.random_raw(2 * pairs)
    _box_muller(bits, out)


def _box_muller(bits: np.ndarray, out: np.ndarray) -> None:
    """Fills `out` with standard normals from raw Philox words, overwriting `bits`.

    A row of `bits` holds `pairs` words for u1, then `pairs` for u2; entries
    2j and 2j+1 of the row of `out` are r cos(2 pi u2_j) and r sin(2 pi u2_j)
    with r = sqrt(-2 log(1 - u1_j)).
    """
    pairs = bits.shape[1] // 2
    # numpy's random(): the top 53 bits scaled into [0, 1), here in place
    bits >>= 11
    u = bits.view(np.float64)
    np.multiply(bits, 2.0**-53, out=u, casting="unsafe")
    u1 = u[:, :pairs]
    u2 = u[:, pairs:]
    # 1 - u1 lies in (0, 1], keeping the logarithm finite.
    np.negative(u1, out=u1)
    np.log1p(u1, out=u1)
    np.multiply(u1, -2.0, out=u1)
    r = np.sqrt(u1, out=u1)
    theta = np.multiply(u2, 2.0 * np.pi, out=u2)
    even = out[:, 0::2]
    odd = out[:, 1::2]  # one column short of `pairs` when the row length is odd
    np.cos(theta, out=even)
    even *= r
    np.sin(theta[:, : odd.shape[1]], out=odd)
    odd *= r[:, : odd.shape[1]]


def _gaussian_count(spec: GroupSpec) -> int:
    d = spec.dim
    if spec.group in (GroupKind.SOEven, GroupKind.SOOdd):
        return d * d
    if spec.group is GroupKind.Unitary:
        return 2 * d * d
    return 4 * spec.n * spec.n  # quaternionic: two complex matrices of size N


def _qr_phases(z: np.ndarray):
    """Batched QR of z (B, n, n): Q and the unit-modulus phases of R's diagonal.

    A zero diagonal entry gets phase 1.  Q with each column times the
    conjugate of its phase is the Haar-distributed factor.
    """
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    mod = np.abs(d)
    zero = mod == 0.0
    d[zero] = 1.0
    mod[zero] = 1.0
    return q, d / mod


def _so_batch(dim: int, g: np.ndarray) -> np.ndarray:
    q, signs = _qr_phases(g.reshape(-1, dim, dim))
    q *= signs[:, None, :]
    # Householder QR makes Q a product of dim - 1 reflections (the last
    # reflector is the identity), so det = (-1)^(dim - 1) * prod(signs)
    flip = np.prod(signs, axis=1) * (-1.0) ** (dim - 1) < 0.0
    q[flip, :, -1] = -q[flip, :, -1]
    return q


def _usp_batch(n: int, g: np.ndarray) -> np.ndarray:
    # columns 2k and 2k + 1 of z are c_k and its partner (module docstring)
    g = g.reshape(-1, 4, n, n)
    x = g[:, 0] + 1j * g[:, 1]
    y = g[:, 2] + 1j * g[:, 3]
    z = np.empty((len(g), 2 * n, 2 * n), dtype=np.complex128)
    z[:, :n, 0::2] = x
    z[:, n:, 0::2] = -np.conj(y)
    z[:, :n, 1::2] = y
    z[:, n:, 1::2] = np.conj(x)
    q, phases = _qr_phases(z)
    c = q[:, :, 0::2] * np.conj(phases[:, None, 0::2])
    u = np.empty_like(z)
    u[:, :, :n] = c
    u[:, :n, n:] = -np.conj(c[:, n:])
    u[:, n:, n:] = np.conj(c[:, :n])
    return u


def _unitary_batch(d: int, g: np.ndarray) -> np.ndarray:
    q, phases = _qr_phases((g[:, : d * d] + 1j * g[:, d * d :]).reshape(-1, d, d))
    return q * np.conj(phases)[:, None, :]


def _orthogonalize(spec: GroupSpec, g: np.ndarray) -> np.ndarray:
    """Haar matrices from rows of Gaussians, one matrix per row."""
    if spec.group in (GroupKind.SOEven, GroupKind.SOOdd):
        return _so_batch(spec.dim, g)
    if spec.group is GroupKind.Unitary:
        return _unitary_batch(spec.dim, g)
    return _usp_batch(spec.n, g)


def sample_batch(spec: GroupSpec, master_seed: int, start: int, count: int) -> np.ndarray:
    """Samples `count` matrices for indices start..start+count-1.

    Returns a (count, dim, dim) array; real dtype for the SO groups,
    complex128 otherwise.  Element i equals the single-sample result for
    sample_index = start + i.
    """
    require_integer("count", count)
    if count < 1:
        raise ValueError("count must be >= 1")
    d = spec.dim
    real = spec.group in (GroupKind.SOEven, GroupKind.SOOdd)
    out = np.empty((count, d, d), dtype=np.float64 if real else np.complex128)
    need = _gaussian_count(spec)
    rows = max(1, _CHUNK_WORDS // need)
    g = np.empty((min(rows, count), need))
    for lo in range(0, count, rows):
        chunk = g[: count - lo]
        _gaussian_block(master_seed, start + lo, chunk)
        out[lo : lo + len(chunk)] = _orthogonalize(spec, chunk)
    return out


def sample(spec: GroupSpec, master_seed: int, sample_index: int) -> np.ndarray:
    """One Haar sample, checked against its group invariants.

    A pure function of (spec, master_seed, sample_index); equal to row
    sample_index - start of any sample_batch that covers that index.
    """
    a = sample_batch(spec, master_seed, sample_index, 1)[0]
    verify_invariants(spec, a)
    return a


def verify_invariants(spec: GroupSpec, a: np.ndarray) -> None:
    """Checks unitarity, determinant, and symplectic-form invariants of one matrix.

    Raises GroupInvariantError on violation; such a failure indicates an
    internal sampling defect, not bad user input.
    """
    d = spec.dim
    gram = a @ a.conj().T
    err = np.max(np.abs(gram - np.eye(d)))
    if err > _UNITARY_TOL:
        raise GroupInvariantError(f"unitarity violated: max |A A^* - I| = {err:.3e}")
    if spec.group in (GroupKind.SOEven, GroupKind.SOOdd):
        if np.max(np.abs(a.imag)) != 0.0:
            raise GroupInvariantError("orthogonal sample has nonzero imaginary part")
        det = np.linalg.det(a.real)
        if abs(det - 1.0) > _DET_TOL:
            raise GroupInvariantError(f"determinant {det} is not +1 within {_DET_TOL}")
    elif spec.group is GroupKind.USp:
        j = symplectic_form(spec.n)
        err = np.max(np.abs(a.T @ j @ a - j))
        if err > _UNITARY_TOL:
            raise GroupInvariantError(f"symplectic form violated: max |A^T J A - J| = {err:.3e}")


def group_from_name(name: str) -> GroupKind:
    """The GroupKind whose value is name, in any case."""
    try:
        return GroupKind(name.strip().lower())
    except ValueError:
        raise ValueError(f"unknown group name: {name!r}") from None
