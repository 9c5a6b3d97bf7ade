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
count.  A batch is drawn and orthogonalized in one step, so its
temporaries are a few times its output; the Monte Carlo drivers keep that
small by sampling in blocks sized in `stats`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from excised_rmt.special import require_integer

_MASK64 = (1 << 64) - 1


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
    """Normals per matrix: dim**2, doubled for U(N)'s complex entries (USp(2N)'s
    two complex N x N matrices are 4N**2 = dim**2 normals)."""
    return (1 + (spec.group is GroupKind.Unitary)) * spec.dim**2


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
    complex128 otherwise.  Element i depends only on master_seed and
    start + i, so it equals sample_batch(spec, master_seed, start + i, 1)[0].
    The seed and the indices are taken mod 2**64.  The whole batch is
    drawn and orthogonalized at once, with temporaries a few times the
    size of its output.
    """
    require_integer("master seed", master_seed)
    require_integer("start", start)
    require_integer("count", count)
    if count < 1:
        raise ValueError("count must be >= 1")
    g = np.empty((count, _gaussian_count(spec)))
    _gaussian_block(master_seed, start, g)
    return _orthogonalize(spec, g)


def group_from_name(name: str) -> GroupKind:
    """The GroupKind whose value is name, in any case."""
    try:
        return GroupKind(name.strip().lower())
    except ValueError:
        raise ValueError(f"unknown group name: {name!r}") from None
