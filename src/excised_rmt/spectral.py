"""Eigenangle extraction, characteristic polynomial at 1, and excision.

U(N) and USp(2N) eigenangles come from a Hermitian eigen-solve
(`eigvalsh`) of the Cayley transform, with rows that have an eigenvalue near
-1 solved again after a rotation (`unitary_angles`); USp rows are then
paired as +/- theta (`_symmetrize`).  SO eigenangles alone come from
`eigvals`, projected to the unit circle and sorted: LAPACK's exact conjugate
pairs (and exact 0 for SO(2N+1)) are already exact +/- theta.
det(I - A) comes from LU, checked against angles already solved (`char_poly_batch`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from excised_rmt.groups import GroupKind, GroupSpec
from excised_rmt.special import require_integer

_MODULUS_TOL = 1e-6
# The two limits of the Cayley acceptance rule (`unitary_angles`), and the
# passes a row may take.  On planted U(2)-U(30) spectra one pass kept every
# angle within 5e-14 up to max|t| = 100, 9.4e-14 up to 150 and 1.2e-13 up
# to 200; for U(N) with N above about 150, cot(g / 4) can exceed 100.
_CAYLEY_T_MAX = 100.0
_CAYLEY_GAP_SLACK = 1.25
_CAYLEY_PASSES = 6
# det(I - A) by LU against the product over (1 - e^{i theta_j})
_CHARPOLY_REL_TOL = 1e-6
_CHARPOLY_ABS_TOL = 1e-9


class SpectralError(RuntimeError):
    """Eigen-solve failure or tolerance breach."""


@dataclass(frozen=True)
class ExcisionRule:
    """Keep samples with |det(I - A)| >= c * exp((1 - k) * n_std / 2)."""

    c: float
    k: int
    n_std: float

    def __post_init__(self):
        if not (math.isfinite(self.c) and math.isfinite(self.n_std)):
            raise ValueError("cutoff constant c and n_std must be finite")
        if self.c < 0:
            raise ValueError("cutoff constant c must be nonnegative")
        require_integer("weight k", self.k)
        if self.k < 1:
            raise ValueError("weight k must be >= 1")

    @property
    def threshold(self) -> float:
        return self.c * math.exp((1.0 - self.k) * self.n_std / 2.0)


def _canonical_angles(w: np.ndarray) -> np.ndarray:
    """Project eigenvalues radially to the unit circle and take angles.

    Ties at -pi are mapped to +pi so every angle lies in (-pi, pi].
    """
    mod = np.abs(w)
    drift = np.max(np.abs(mod - 1.0), initial=0.0)
    if drift > _MODULUS_TOL:
        raise SpectralError(f"eigenvalue modulus drifted from 1 by {drift:.3e}")
    return _wrap(np.arctan2(w.imag, w.real))


def _symmetrize(theta: np.ndarray) -> np.ndarray:
    """Enforce the theta -> -theta symmetry on a batch of USp angle rows.

    Angles are ranked by magnitude, paired consecutively, and each pair is
    replaced by +/- the mean magnitude; rows come back sorted.
    """
    mags = np.sort(np.abs(theta), axis=1)
    paired = 0.5 * (mags[:, 0::2] + mags[:, 1::2])
    out = _wrap(np.concatenate([-paired, paired], axis=1))
    out.sort(axis=1)
    return out


def _wrap(theta: np.ndarray) -> np.ndarray:
    """Angles in (-2 pi, 2 pi] mapped into (-pi, pi]."""
    theta = np.where(theta > np.pi, theta - 2.0 * np.pi, theta)
    return np.where(theta <= -np.pi, theta + 2.0 * np.pi, theta)


def _cayley(a: np.ndarray):
    """Hermitian parts of i(I - A)(I + A)^-1 for a stack, and their defects.

    The defect is the Frobenius norm of H - H^*, zero for unitary A in
    exact arithmetic.  Dropping the skew part before `eigvalsh`, which reads
    one triangle, cuts the error of small angles about tenfold.  One exactly
    singular I + A makes np.linalg.solve raise LinAlgError for the stack.
    """
    diag = np.arange(a.shape[-1])
    lhs = a + np.eye(a.shape[-1])
    rhs = -1j * a
    rhs[:, diag, diag] += 1j
    h = np.linalg.solve(lhs, rhs)
    del lhs, rhs
    # h + h^* and h - h^* with one temporary
    skew = h.conj().swapaxes(1, 2)
    h += skew
    skew *= -2.0
    skew += h
    h *= 0.5
    return h, np.linalg.norm(skew, axis=(1, 2))


def _widest_gap(theta: np.ndarray):
    """Middle and width of the largest gap between the angles of each sorted row, round the circle."""
    gaps = np.empty_like(theta)
    gaps[:, :-1] = np.diff(theta, axis=1)
    gaps[:, -1] = theta[:, 0] + 2.0 * np.pi - theta[:, -1]
    widest = gaps.argmax(axis=1)
    pick = np.arange(len(theta))
    width = gaps[pick, widest]
    return theta[pick, widest] + 0.5 * width, width


def unitary_angles(mats: np.ndarray) -> np.ndarray:
    """Eigenangles in (-pi, pi] of a (B, dim, dim) unitary stack; rows sorted.

    One pass takes A' = e^{-i psi} A (psi = 0 at first) to its Cayley
    transform H = i(I - A')(I + A')^-1, which is Hermitian with eigenvalues
    t = tan((theta - psi) / 2), so `eigvalsh(H)` gives the angles.  Their
    error grows like eps * max|t|**2, and no rotation gets max|t| below
    cot(g / 4), g the widest gap between the angles.  A pass keeps a row
    when its H is Hermitian within _MODULUS_TOL and

        max|t| <= max(_CAYLEY_T_MAX, _CAYLEY_GAP_SLACK * cot(g / 4)),

    and solves every other row again with psi moving -1 to the middle of
    that gap.  Each pass sorts the rows it solves, for that gap search and
    for the caller.  The whole stack goes through each pass at once, with
    a few stack-sized temporaries; the Monte Carlo drivers keep the stack
    to one block of `stats`.  When I + A' of a row is exactly singular (-1
    an eigenvalue), the solve fails for the whole pass; that row is turned
    by half the mean spacing, pi / dim, so that the next pass finds the
    gap, and every row is solved again.  A row not kept within
    _CAYLEY_PASSES passes, such as one of a non-unitary input, raises
    SpectralError.
    """
    count, dim = mats.shape[:2]
    theta = np.empty((count, dim))
    rows = np.arange(count)
    psi = np.zeros(count)
    a = mats
    # what the error below reports should every pass fail its solve
    defect = np.zeros(count)
    for _ in range(_CAYLEY_PASSES):
        try:
            h, defect = _cayley(a)
        except np.linalg.LinAlgError:
            # the rows whose I + A' is exactly singular have a zero LU determinant
            singular = np.linalg.det(a + np.eye(dim)) == 0
            psi = _wrap(np.where(singular, psi + np.pi / dim, psi))
            a = mats[rows] * np.exp(-1j * psi)[:, None, None]
            continue
        if not np.all(np.isfinite(defect)):
            raise SpectralError("matrix with non-finite entries")
        t = np.linalg.eigvalsh(h)
        theta[rows] = np.sort(_wrap(psi[:, None] + 2.0 * np.arctan(t)), axis=1)
        centre, width = _widest_gap(theta[rows])
        limit = np.maximum(_CAYLEY_T_MAX, _CAYLEY_GAP_SLACK / np.tan(0.25 * width))
        # the defect of a unitary row stays near eps * max|t|**2, far below
        # _MODULUS_TOL, except when I + A' is nearly singular
        far = (np.abs(t).max(axis=1) > limit) | (defect > _MODULUS_TOL)
        if not far.any():
            return theta
        rows, defect = rows[far], defect[far]
        psi = _wrap(centre[far] - np.pi)
        a = mats[rows] * np.exp(-1j * psi)[:, None, None]
    raise SpectralError(
        f"no Cayley pass of {len(rows)} matrices was Hermitian within {_MODULUS_TOL} "
        f"(largest defect {np.max(defect):.3e}) with max|t| near its least: "
        "input not unitary"
    )


def eigenangles_batch(spec: GroupSpec, mats: np.ndarray) -> np.ndarray:
    """Eigenangles for a (B, dim, dim) stack; returns (B, dim) sorted rows."""
    if spec.group is GroupKind.Unitary:
        return unitary_angles(mats)
    if spec.group is GroupKind.USp:
        return _symmetrize(unitary_angles(mats))
    return np.sort(_canonical_angles(np.linalg.eigvals(mats)), axis=1)


def char_poly_batch(mats: np.ndarray, angles: np.ndarray | None = None) -> np.ndarray:
    """det(I - A) for a stack of matrices by LU, checked against their eigenangles if given.

    The LU value is authoritative.  Given the (B, dim) angle rows of
    `eigenangles_batch`, the product over (1 - e^{i theta_j}) of each row
    must agree within relative _CHARPOLY_REL_TOL, plus the absolute floor
    _CHARPOLY_ABS_TOL for the structurally singular odd orthogonal case.
    """
    lu = np.linalg.det(np.eye(mats.shape[-1], dtype=mats.dtype) - mats)
    if angles is not None:
        prod = np.prod(1.0 - np.exp(1j * angles), axis=1)
        gap = np.abs(lu - prod)
        allow = _CHARPOLY_REL_TOL * np.maximum(np.abs(lu), np.abs(prod)) + _CHARPOLY_ABS_TOL
        if np.any(gap > allow):
            worst = int(np.argmax(gap - allow))
            raise SpectralError(
                "characteristic polynomial cross-check failed: "
                f"LU={lu[worst]!r} product={prod[worst]!r}"
            )
    return lu


def first_angles_batch(angle_rows: np.ndarray) -> np.ndarray:
    """Smallest strictly positive angle per row; rows without one get NaN."""
    masked = np.where(angle_rows > 0.0, angle_rows, np.inf)
    out = masked.min(axis=1)
    return np.where(np.isinf(out), np.nan, out)


def excise_mask(magnitudes: np.ndarray, rule: ExcisionRule) -> np.ndarray:
    """Boolean keep-mask for an array of |det(I - A)| magnitudes."""
    return np.asarray(magnitudes) >= rule.threshold
