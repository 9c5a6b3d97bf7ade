"""Eigenangle extraction, characteristic polynomial at 1, and excision."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from excised_rmt.groups import GroupKind, GroupSpec

_MODULUS_TOL = 1e-6
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
        if self.c < 0:
            raise ValueError("cutoff constant c must be nonnegative")
        if int(self.k) != self.k or self.k < 1:
            raise ValueError("weight k must be an integer >= 1")

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


def eigenangles_batch(spec: GroupSpec, mats: np.ndarray) -> np.ndarray:
    """Eigenangles for a (B, dim, dim) stack; returns (B, dim) sorted rows."""
    w = np.linalg.eigvals(mats)
    theta = _canonical_angles(w)
    if spec.group is GroupKind.Unitary:
        theta.sort(axis=1)
        return theta
    return _symmetrize(theta, forced_zero=spec.group is GroupKind.SOOdd)


def char_poly_batch(mats: np.ndarray, check: bool = True) -> np.ndarray:
    """det(I - A) for a stack of matrices, via LU with a product cross-check.

    The LU value is authoritative; the spectral product over (1 - e^{i
    theta_j}) must agree within relative _CHARPOLY_REL_TOL (plus the
    absolute floor _CHARPOLY_ABS_TOL for the structurally singular odd
    orthogonal case).
    """
    dim = mats.shape[-1]
    eye = np.eye(dim, dtype=mats.dtype)
    lu = np.linalg.det(eye[None, :, :] - mats)
    if check:
        w = np.linalg.eigvals(mats)
        w = w / np.abs(w)
        prod = np.prod(1.0 - w, axis=1)
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
