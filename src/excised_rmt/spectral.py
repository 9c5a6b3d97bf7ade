"""Eigenangle extraction, characteristic polynomial at 1, and excision.

U(N) eigenangles come from a Hermitian eigen-solve of the Cayley
transform, with rows that have an eigenvalue near -1 solved again after a
rotation (`unitary_angles`).  SO and USp eigenangles come from `eigvals`,
projected to the unit circle and paired as +/- theta (`_symmetrize`).
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
    drift = np.max(np.abs(mod - 1.0))
    if drift > _MODULUS_TOL:
        raise SpectralError(f"eigenvalue modulus drifted from 1 by {drift:.3e}")
    theta = np.arctan2(w.imag, w.real)
    return np.where(theta <= -np.pi, np.pi, theta)


def _symmetrize(theta: np.ndarray, forced_zero: bool) -> np.ndarray:
    """Enforce the theta -> -theta symmetry on a batch of angle rows.

    Angles are ranked by magnitude; for odd orthogonal matrices the
    smallest-magnitude angle is the structural zero and is pinned to 0
    exactly.  The remaining angles are paired consecutively and each pair
    is replaced by +/- the mean magnitude.
    """
    mags = np.sort(np.abs(theta), axis=1)
    if forced_zero:
        mags = mags[:, 1:]
    paired = 0.5 * (mags[:, 0::2] + mags[:, 1::2])
    parts = [-paired, paired]
    if forced_zero:
        parts.append(np.zeros((theta.shape[0], 1)))
    out = np.concatenate(parts, axis=1)
    # a pair of angles exactly at pi averages to pi; its negative copy
    # belongs at +pi in the canonical branch
    out = np.where(out <= -np.pi, np.pi, out)
    out.sort(axis=1)
    return out


def _wrap(theta: np.ndarray) -> np.ndarray:
    """Angles in (-2 pi, 2 pi] mapped into (-pi, pi]."""
    theta = np.where(theta > np.pi, theta - 2.0 * np.pi, theta)
    return np.where(theta <= -np.pi, theta + 2.0 * np.pi, theta)


def _cayley(a: np.ndarray):
    """Hermitian parts of i(I - A)(I + A)^-1 for a stack, their defects, and a solved mask.

    The defect is the Frobenius norm of H - H^*, zero for unitary A in
    exact arithmetic.  Dropping the skew part before `eigvalsh`, which reads
    one triangle, cuts the error of small angles about tenfold.  A matrix
    whose I + A is exactly singular gets a zero H and False in the mask;
    np.linalg.solve would otherwise fail the whole stack for it.
    """
    diag = np.arange(a.shape[-1])
    lhs = a + np.eye(a.shape[-1])
    rhs = -1j * a
    rhs[:, diag, diag] += 1j
    solved = np.ones(len(a), dtype=bool)
    try:
        h = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError:
        h = np.zeros_like(rhs)
        for k in range(len(a)):
            try:
                h[k] = np.linalg.solve(lhs[k], rhs[k])
            except np.linalg.LinAlgError:
                solved[k] = False
    del lhs, rhs
    # h + h^* and h - h^* with one temporary
    skew = h.conj().swapaxes(1, 2)
    h += skew
    skew *= -2.0
    skew += h
    h *= 0.5
    return h, np.linalg.norm(skew, axis=(1, 2)), solved


def _widest_gap(theta: np.ndarray):
    """Middle and width of the largest gap between the angles of each row, going round the circle."""
    theta = np.sort(theta, axis=1)
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
    that gap.  A row not kept within _CAYLEY_PASSES passes, such as one of
    a non-unitary input, raises SpectralError.
    """
    count, dim = mats.shape[:2]
    theta = np.empty((count, dim))
    rows = np.arange(count)
    psi = np.zeros(count)
    a = mats
    for _ in range(_CAYLEY_PASSES):
        h, defect, solved = _cayley(a)
        if not np.all(np.isfinite(defect)):
            raise SpectralError("matrix with non-finite entries")
        t = np.linalg.eigvalsh(h)
        theta[rows] = _wrap(psi[:, None] + 2.0 * np.arctan(t))
        centre, width = _widest_gap(theta[rows])
        limit = np.maximum(_CAYLEY_T_MAX, _CAYLEY_GAP_SLACK / np.tan(0.25 * width))
        # the defect of a unitary row stays near eps * max|t|**2, far below
        # _MODULUS_TOL, except when I + A' is nearly singular
        far = ~solved | (np.abs(t).max(axis=1) > limit) | (defect > _MODULUS_TOL)
        if not far.any():
            theta.sort(axis=1)
            return theta
        rows, psi, solved, defect, centre = rows[far], psi[far], solved[far], defect[far], centre[far]
        # an exactly singular I + A' has -1 as an eigenvalue: turn it by
        # half the mean spacing and let the next pass find the gap
        psi = _wrap(np.where(solved, centre - np.pi, psi + np.pi / dim))
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
    w = np.linalg.eigvals(mats)
    theta = _canonical_angles(w)
    return _symmetrize(theta, forced_zero=spec.group is GroupKind.SOOdd)


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
