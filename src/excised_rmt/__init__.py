"""Excised random-matrix model for families of quadratic twists.

Library layout:

- ``groups``   — reproducible Haar sampling from SO(2N), SO(2N+1), USp(2N), U(N)
- ``spectral`` — eigenangles, characteristic polynomial at 1, excision
- ``stats``    — streaming Monte Carlo statistics (histograms, pair correlation)
- ``theory``   — closed-form density kernels, lower-order terms, matrix sizes
- ``special``  — the integer rule, psi(k/2), constants, Gauss-Legendre quadrature, sinc and sin(m t)/sin(t)
- ``arith``    — fundamental-discriminant families and Euler-product estimators
- ``zeros``    — external zero-data ingestion and comparison reports
- ``cli``      — command-line driver
"""

from excised_rmt.groups import GroupKind, GroupSpec, sample, sample_batch
from excised_rmt.spectral import (
    ExcisionRule,
    char_poly_batch,
    eigenangles_batch,
    excise_mask,
    first_angles_batch,
)
from excised_rmt.theory import SymmetryCase

__all__ = [
    "GroupKind",
    "GroupSpec",
    "sample",
    "sample_batch",
    "ExcisionRule",
    "eigenangles_batch",
    "char_poly_batch",
    "first_angles_batch",
    "excise_mask",
    "SymmetryCase",
]
