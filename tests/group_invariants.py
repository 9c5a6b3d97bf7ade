"""The invariants of each compact group, stated once for every test.

A member of its group is unitary, max |A A^* - I|; an SO(n) member is also
real with det A = 1, and a USp(2N) member preserves the skew form J,
max |A^T J A - J|.  Each violation is checked against a round-off bound.
"""

import numpy as np

from excised_rmt.groups import GroupKind

INVARIANT_TOLS = {"unitary": 1e-10, "real": 0.0, "det": 1e-8, "symplectic": 1e-10}


class GroupInvariantError(RuntimeError):
    """A matrix failed its group invariants."""


def symplectic_form(n: int) -> np.ndarray:
    """The skew form J with blocks [[0, I_n], [-I_n, 0]]."""
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = np.eye(n)
    j[n:, :n] = -np.eye(n)
    return j


def invariant_errors(spec, mats) -> dict:
    """Largest violation of each invariant of spec's group over a (B, dim, dim) stack."""
    errors = {"unitary": np.max(np.abs(mats @ np.swapaxes(mats, 1, 2).conj() - np.eye(spec.dim)))}
    if spec.group in (GroupKind.SOEven, GroupKind.SOOdd):
        errors["real"] = np.max(np.abs(mats.imag))
        errors["det"] = np.max(np.abs(np.linalg.det(mats.real) - 1.0))
    if spec.group is GroupKind.USp:
        j = symplectic_form(spec.n)
        errors["symplectic"] = np.max(np.abs(np.swapaxes(mats, 1, 2) @ j @ mats - j))
    return errors


def verify_invariants(spec, a) -> None:
    """Raises GroupInvariantError when the matrix a breaks an invariant of spec's group."""
    for name, err in invariant_errors(spec, np.asarray(a)[None]).items():
        if err > INVARIANT_TOLS[name]:
            raise GroupInvariantError(f"{name} invariant violated by {err:.3e}")
