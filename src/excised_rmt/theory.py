"""Closed-form evaluators: density kernels, lower-order terms, matrix sizes,
small-value asymptotics, and the vanishing-frequency model."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from excised_rmt import special
from excised_rmt.groups import GroupKind, GroupSpec, one_level_range
from excised_rmt.special import (
    EULER_GAMMA,
    GLAISHER,
    STIELTJES_GAMMA1,
    digamma_half,
    float_or_array,
    gauss_legendre,
    require_integer,
    sin_ratio,
    sinc2pi,
)

_PI = math.pi


class SymmetryCase(enum.Enum):
    PrincipalEven = "principal_even"
    PrincipalOdd = "principal_odd"
    SelfCM = "self_cm"
    Generic = "generic"

    @property
    def group(self) -> GroupKind:
        return {
            SymmetryCase.PrincipalEven: GroupKind.SOEven,
            SymmetryCase.PrincipalOdd: GroupKind.SOOdd,
            SymmetryCase.SelfCM: GroupKind.USp,
            SymmetryCase.Generic: GroupKind.Unitary,
        }[self]


@dataclass(frozen=True)
class CoefficientInputs:
    """Raw L-function constants of the lower-order terms.

    They default to 0 (L1_ad to 1) so toy evaluations work out of the box;
    coefficient_assembly turns them into each case's coefficients.
    """

    k: int = 2
    A1_00: float = 0.0
    Bp0: float = 0.0
    Bpp0: float = 0.0
    Lp_sym: float = 0.0
    Lpp_sym: float = 0.0
    Lp_chi: float = 0.0
    Lpp_chi: float = 0.0
    xi0: float = 0.0
    xi1: float = 0.0
    L1_chi: float = 0.0
    L1_ad: float = 1.0
    # extra raw inputs used only by the generic-case c2/d1 coefficients
    eta: float = 0.0
    Atilde_00: float = 0.0
    Btilde_p0: float = 0.0
    L1_sym: float = 0.0
    Lp_sym_value: float = 0.0


@dataclass(frozen=True)
class VanishingModel:
    k: int
    delta_f: float
    kappa_f: float
    a_f_half: float = 1.0

    def __post_init__(self):
        require_integer("weight k", self.k)
        if self.k < 2:
            raise ValueError("weight k must be >= 2")
        if not all(map(math.isfinite, (self.delta_f, self.kappa_f, self.a_f_half))):
            raise ValueError("delta_f, kappa_f and a_f_half must be finite")
        if self.delta_f < 0 or self.kappa_f < 0:
            raise ValueError("delta_f and kappa_f must be nonnegative")


def finite_n_density(group: GroupKind, n: int, theta) -> np.ndarray:
    """Exact eigenangle density per matrix per radian,
    (m + sign sin(m theta) / sin(theta)) / (2 pi).

    Its support is groups.one_level_range: [0, pi] for the even orthogonal
    and symplectic groups, [0, 2pi] for the odd orthogonal and unitary
    groups; an angle outside it raises ValueError.  Removable
    singularities of sin(m*theta)/sin(theta) are evaluated by limit.
    """
    spec = GroupSpec(group, n)
    theta = np.asarray(theta, dtype=float)
    if not np.all((theta >= 0.0) & (theta <= one_level_range(spec))):
        raise ValueError("theta must lie in the support of the density")
    m, sign = {
        GroupKind.SOEven: (2 * n - 1, 1.0),
        GroupKind.SOOdd: (2 * n, -1.0),
        GroupKind.USp: (2 * n + 1, -1.0),
        GroupKind.Unitary: (n, 0.0),
    }[group]
    return float_or_array((m + sign * sin_ratio(m, theta)) / (2 * _PI))


def exact_scaled_density(group: GroupKind, n: int, tau) -> np.ndarray:
    """The finite-size kernel rescaled to unit mean eigenangle spacing."""
    dim = GroupSpec(group, n).dim
    theta = 2.0 * _PI * np.asarray(tau, dtype=float) / dim
    return (2.0 * _PI / dim) * finite_n_density(group, n, theta)


# Basis values computed per batch of angles (about 1 MB per batch)
_CDF_CHUNK_WORDS = 2**17

# Each symmetric group's rank-N kernel on (0, pi), K_N(x, y) = sum_k
# phi_k(x) phi_k(y), as a row (f, shift): phi_k = sqrt(2/pi) f((k + shift) x),
# k = 0..N-1, and 1/sqrt(pi) where the frequency is 0.  S_M(z) =
# sin(M z / 2) / (2 pi sin(z / 2)).
_KERNEL_BASES = {
    GroupKind.USp: (np.sin, 1.0),  # S_{2N+1}(x - y) - S_{2N+1}(x + y)
    GroupKind.SOEven: (np.cos, 0.0),  # S_{2N-1}(x - y) + S_{2N-1}(x + y)
    GroupKind.SOOdd: (np.sin, 0.5),  # S_{2N}(x - y) - S_{2N}(x + y)
}


def first_angle_cdf(group: GroupKind, n: int, theta) -> np.ndarray:
    """Exact law of the smallest eigenangle in (0, pi] on USp(2N), SO(2N)
    or SO(2N+1), whose forced angle 0 is not counted.

    P(theta_1 <= theta) = 1 - det(I - K_N), K_N from _KERNEL_BASES
    restricted to (0, theta), by a Gauss-Legendre Nystrom method
    (Bornemann, Math. Comp. 79, 2010) taken as the equal N x N determinant
    det(I - G), G = B^T B, B = W^(1/2) Phi on the nodes.  The determinant is
    summed in log space from the eigenvalues of G, so small probabilities
    keep their relative accuracy.  theta may be an array, evaluated in
    batches of bounded memory.  n above 2 * special._CDF_NODES raises: 40
    nodes are within 1e-14 of 600 at N = 80, but off by 2.3e-4 for USp(2N)
    at N = 100.
    """
    GroupSpec(group, n)  # validates n
    if group not in _KERNEL_BASES:
        raise ValueError("first_angle_cdf covers USp(2N), SO(2N) and SO(2N+1) only")
    nodes = special._CDF_NODES
    if n > 2 * nodes:
        raise ValueError(f"first_angle_cdf: n = {n} is past 2 * {nodes} quadrature nodes")
    basis, shift = _KERNEL_BASES[group]
    freq = shift + np.arange(n)
    scale = np.sqrt(np.where(freq == 0, 1.0, 2.0) / _PI)
    theta = np.asarray(theta, dtype=float)
    if not np.all((theta >= 0.0) & (theta <= _PI)):
        raise ValueError("theta must lie in [0, pi]")
    flat = theta.ravel()
    out = np.empty(flat.shape)
    rows = max(1, _CDF_CHUNK_WORDS // (nodes * n))
    for start in range(0, flat.size, rows):
        x, w = gauss_legendre(0.0, flat[start : start + rows])
        b = basis(x[:, :, None] * freq) * scale
        b *= np.sqrt(w)[:, :, None]
        lam = np.clip(np.linalg.eigvalsh(np.matmul(b.transpose(0, 2, 1), b)), 0.0, 1.0)
        # an eigenvalue 1 (theta = pi) gives log 0 = -inf and F = 1; 0.0 -
        # rather than unary minus keeps F(0) = +0.0
        with np.errstate(divide="ignore"):
            out[start : start + rows] = 0.0 - np.expm1(np.log1p(-lam).sum(axis=1))
    return float_or_array(out.reshape(theta.shape))


# Each group's own lower-order coefficients, as q_lower_order names them
# for the group's symmetry case: its scaled density is 1 + Q at R = N.
_GROUP_COEFFS = {
    GroupKind.SOEven: {"a1": 1.0 / 2.0, "a2": 1.0 / 6.0},
    GroupKind.SOOdd: {"a3": 1.0, "a4": 1.0 / 3.0},
    GroupKind.USp: {"b1": 1.0 / 2.0, "b2": 1.0 / 6.0},
    GroupKind.Unitary: {"c1": 0.0, "c2": 0.0, "d1": 0.0},
}


def scaled_density_expansion(group: GroupKind, n, tau, order: int = 2):
    """Partial sums of the large-size expansion of the scaled density,
    1 + q_lower_order at R = n with the group's own coefficients.

    order 0 keeps the limiting kernel, order 1 adds the 1/size term,
    order 2 adds the 1/size^2 term: order k keeps the first k
    coefficients and zeroes the rest.  n may be math.inf for the limit,
    where every 1/size term vanishes.
    """
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1, or 2")
    if n != math.inf:
        GroupSpec(group, n)  # validates n
    case = next(c for c in SymmetryCase if c.group is group)
    coeffs = {name: value if i < order else 0.0
              for i, (name, value) in enumerate(_GROUP_COEFFS[group].items())}
    return 1.0 + q_lower_order(case, tau, n, coeffs)


def coefficient_assembly(case: SymmetryCase, raw: CoefficientInputs) -> dict:
    """The lower-order-term coefficients of a symmetry case, by name.

    The principal-nebentypus cases have (a1, a2) or (a3, a4), the self-CM
    case (b1, b2), and the generic case (c1, c2, d1).  Euler's gamma and
    the Stieltjes gamma_1 are fixed constants.  Dual-form inputs are
    treated as equal to the given form's inputs (real-valued
    symmetrization), so e.g. c1 collapses to a single set of constants.
    """
    psi = digamma_half(raw.k)
    g = EULER_GAMMA
    g1 = STIELTJES_GAMMA1
    if case is SymmetryCase.PrincipalEven:
        a1 = 1.0 - psi - raw.A1_00 + g - raw.Lp_sym
        a2 = (
            -2.0 * psi
            - 2.0 * psi * g
            + 2.0 * g
            - 2.0 * g1
            + (2.0 * psi - 2.0 - 2.0 * g - raw.Bp0) * raw.Lp_sym
            + (g + 1.0 - psi) * raw.Bp0
            + 0.25 * raw.Bpp0
            + 2.0 * raw.Lpp_sym
        )
        return {"a1": a1, "a2": a2}
    if case is SymmetryCase.PrincipalOdd:
        a3 = 2.0 - 2.0 * psi + 2.0 * g1 - 2.0 * raw.Lp_sym - 2.0 * raw.A1_00
        a4 = (
            4.0 * psi
            + 4.0 * psi * g
            + 4.0 * g1
            + (2.0 * psi - 2.0 - 2.0 * g) * raw.Bp0
            + (4.0 + 4.0 * g + 2.0 * raw.Bp0 - 4.0 * psi) * raw.Lp_sym
            - 0.5 * raw.Bpp0
            - raw.Lpp_sym
        )
        return {"a3": a3, "a4": a4}
    if raw.L1_ad <= 0:
        raise ValueError("L1_ad must be positive (appears as a denominator)")
    if case is SymmetryCase.SelfCM:
        ratio = raw.L1_chi / raw.L1_ad
        b1 = 1.0 - psi - raw.xi0 * ratio - raw.A1_00 + raw.Lp_chi
        b2 = (
            -2.0 * psi
            + raw.Bp0
            - psi * raw.Bp0
            + 0.25 * raw.Bpp0
            + 2.0 * raw.Lpp_chi
            + raw.Lp_chi * (-2.0 * raw.xi0 + raw.Bp0 + 2.0 - 2.0 * psi)
            + ratio * (2.0 * psi * raw.xi0 - 2.0 * raw.xi0 + 2.0 * raw.xi1 - raw.xi0 * raw.Bp0)
        )
        return {"b1": b1, "b2": b2}
    # generic
    c1 = psi + raw.A1_00 - raw.Lp_chi + raw.Lp_sym
    c2 = -raw.eta * raw.Atilde_00 * raw.L1_chi * raw.L1_sym / raw.L1_ad
    d1 = 2.0 * raw.eta * (
        (raw.L1_sym / raw.L1_ad)
        * (-0.5 * raw.Btilde_p0 * raw.L1_chi + (psi - 1.0) * raw.Atilde_00 * raw.L1_chi)
        + (raw.Lp_sym_value / raw.L1_ad) * raw.Atilde_00 * raw.L1_chi
    )
    return {"c1": c1, "c2": c2, "d1": d1}


def e_coefficients_from_inputs(
    M: int,
    lambda_M_sq: float,
    App0: float = 0.0,
    Appp0: float = 0.0,
    Lp_ad_prime: float = 0.0,
) -> tuple[float, float, float]:
    """Pair-correlation coefficients (e1, e2, e3) from raw inputs.

    App0, Appp0 and Lp_ad_prime are raw constants of the e2 and e3
    formulas, like the fields of CoefficientInputs; at their default 0
    their terms drop out.
    """
    if not math.isfinite(M):
        raise ValueError("M must be finite")
    if not lambda_M_sq > 0:
        raise ValueError("|lambda(M)|^2 must be positive")
    ratio = M / lambda_M_sq
    if not ratio > 1:
        raise ValueError("M / |lambda(M)|^2 must exceed 1 (e1 divides by it minus 1)")
    e1 = 0.5 * math.log(M) ** 2 / (ratio - 1.0)
    e2 = -2.0 + EULER_GAMMA ** 2 + 2.0 * STIELTJES_GAMMA1 - App0 / 2.0 - Lp_ad_prime
    e3 = (16.0 + Appp0) / 12.0
    return e1, e2, e3


def q_lower_order(case: SymmetryCase, tau, R: float, coeffs: dict):
    """Lower-order term Q(tau) of the scaled one-level density, from the
    case's coefficients as coefficient_assembly names them.  R may be
    math.inf, where Q is its limit."""
    if not R > 0:
        raise ValueError("R must be positive")
    tau = np.asarray(tau, dtype=float)
    s = sinc2pi(tau)
    cos2 = np.cos(2.0 * _PI * tau)
    sin2 = np.sin(2.0 * _PI * tau)
    if case is SymmetryCase.PrincipalEven:
        out = (s - coeffs["a1"] * (1.0 + cos2) / R
               - coeffs["a2"] * _PI * tau * sin2 / (R * R))
    elif case is SymmetryCase.PrincipalOdd:
        denom = 2.0 * R + 1.0
        out = (-s - coeffs["a3"] * (1.0 - cos2) / denom
               + coeffs["a4"] * 2.0 * _PI * tau * sin2 / (denom * denom))
    elif case is SymmetryCase.SelfCM:
        out = -s + coeffs["b1"] * (1.0 - cos2) / R + coeffs["b2"] * _PI * tau * sin2 / (R * R)
    else:
        out = (coeffs["c1"] + coeffs["c2"] * cos2) / R + coeffs["d1"] * _PI * tau * sin2 / (R * R)
    return float_or_array(out)


def n_std(M: float, d: float) -> float:
    """Standard matrix size from matching mean densities."""
    if not (0.0 < M < math.inf and 0.0 < d < math.inf):
        raise ValueError("level and discriminant must be positive and finite")
    return math.log(math.sqrt(M) * d / (2.0 * _PI))


def n_eff(case: SymmetryCase, M: float, X: float, coeffs: dict) -> float:
    """Effective matrix size of a principal or self-CM family, from
    n_std(M, X) = log(sqrt(M) X / (2 pi)) and the case's a1, a3 or b1 as
    coefficient_assembly names them; a size that is not positive raises
    ValueError.  The generic case has no such form; its size is n_eff_generic."""
    logterm = n_std(M, X)
    forms = {
        SymmetryCase.PrincipalEven: ("a1", lambda c: logterm / (2.0 * c)),
        SymmetryCase.PrincipalOdd: ("a3", lambda c: (logterm - 0.5) / c - 0.5),
        SymmetryCase.SelfCM: ("b1", lambda c: logterm / c),
    }
    if case not in forms:
        raise ValueError("the generic case's effective size is n_eff_generic(e1, e2, R)")
    name, size_of = forms[case]
    if coeffs[name] == 0:
        raise ValueError(f"{name} must be nonzero")
    size = size_of(coeffs[name])
    if not size > 0:
        raise ValueError(f"n_eff = {size!r} is not positive: the closed form does not hold here")
    return size


def n_eff_generic(e1: float, e2: float, R: float) -> float:
    """Effective matrix size R / sqrt(3 e2 - 4 e1) of a generic family,
    from its pair-correlation coefficients and the caller's scale R: the
    exact minimizer over N of the L2 mismatch _pair_corr_objective, whose
    minimum is at a = -4b/3."""
    if not all(map(math.isfinite, (e1, e2, R))):
        raise ValueError("e1, e2 and R must be finite")
    if R <= 0:
        raise ValueError("R must be positive")
    disc = 3.0 * e2 - 4.0 * e1
    # 3 e2 may overflow to inf, and inf - inf is NaN, which fails this too
    if not 0 < disc < math.inf:
        raise ValueError("3<e2> - 4<e1> must be positive and finite for the generic case")
    return R / math.sqrt(disc)


def _pair_corr_objective(e1: float, e2: float, R: float, n: float) -> float:
    """The L2 mismatch between the R^-2 pair-correlation term and the
    1/N^2 unitary correction: the integral over 0 <= y <= 1 of
    (b + a sin^2(pi y))^2, with b = e1 / R^2 and a = 1 / (3 n^2) - e2 / R^2,
    in exact form: the means of sin^2 and sin^4 over a period are 1/2 and 3/8."""
    b = e1 / (R * R)
    a = 1.0 / (3.0 * n * n) - e2 / (R * R)
    return b * b + a * b + 0.375 * a * a


def montgomery_r2(y):
    """Montgomery's limiting pair correlation 1 - (sin pi y / pi y)^2."""
    return float_or_array(1.0 - np.sinc(y) ** 2)


def u_pair_corr(x, n: int):
    """Finite-size unitary pair correlation with the 1/N^2 correction."""
    GroupSpec(GroupKind.Unitary, n)  # validates n
    x = np.asarray(x, dtype=float)
    return float_or_array(montgomery_r2(x) - np.sin(_PI * x) ** 2 / (3.0 * n * n))


def u_pair_corr_exact(x, n: int):
    """Exact U(N) pair correlation 1 - (sin pi x / (N sin(pi x / N)))^2.

    x is an eigenangle difference scaled to unit mean spacing; the
    function has period N and vanishes at multiples of N.
    """
    GroupSpec(GroupKind.Unitary, n)  # validates n
    x = np.asarray(x, dtype=float)
    return float_or_array(1.0 - (sin_ratio(n, _PI * x / n) / n) ** 2)


def pair_corr_expansion(y, R: float, e1: float, e2: float, e3: float):
    """Pair-correlation integrand including the R^-2 and R^-3 terms."""
    if not all(map(math.isfinite, (e1, e2, e3, R))):
        raise ValueError("e1, e2, e3 and R must be finite")
    if R <= 0:
        raise ValueError("R must be positive")
    y = np.asarray(y, dtype=float)
    s2 = np.sin(_PI * y) ** 2
    return float_or_array(
        montgomery_r2(y)
        + (e1 - e2 * s2) / (R * R)
        - e3 * _PI * y * np.sin(2.0 * _PI * y) / (R ** 3)
    )


def barnes_g_half() -> float:
    """G(1/2) from the Glaisher-constant closed form
    G(1/2) = 2^(1/24) e^(1/8) pi^(-1/4) A^(-3/2)."""
    return 2.0 ** (1.0 / 24.0) * math.exp(0.125) * _PI ** (-0.25) * GLAISHER ** (-1.5)


def h_asymp(n: float, group: GroupKind = GroupKind.SOEven) -> float:
    """Large-size residue prefactor h(N) of the small-value density."""
    if not 0 < n < math.inf:
        raise ValueError("N must be positive and finite")
    g_half = barnes_g_half()
    if group is GroupKind.SOEven:
        return 2.0 ** (-7.0 / 8.0) * g_half * _PI ** (-0.25) * n ** (3.0 / 8.0)
    if group is GroupKind.USp:
        return 2.0 ** (-3.0 / 8.0) * g_half * _PI ** (-0.25) * n ** (3.0 / 8.0)
    if group is GroupKind.Unitary:
        return g_half ** 2 * n ** 0.25
    raise ValueError("no small-value prefactor for this group")


def h_exact(n: int) -> float:
    """Exact SO(2N) small-value prefactor h(N), the residue at s = -1/2 of
    the Keating-Snaith Mellin transform E|det(I - A)|^s (Comm. Math. Phys.
    214, 2000):

        h(N) = 2^(-N) prod_{j=1}^{N} Gamma(N + j - 1)
               / (Gamma(j - 1/2) Gamma(j + N - 3/2)) * prod_{j=2}^{N} Gamma(j - 1),

    evaluated in lgamma.  So P(|det(I - A)| <= rho) = 2 h(N) sqrt(rho) up
    to the order rho^(3/2) log rho of the double pole at s = -3/2, and
    h_asymp is its large-N form.
    """
    GroupSpec(GroupKind.SOEven, n)  # validates n
    log_h = -n * math.log(2.0)
    for j in range(1, n + 1):
        log_h += math.lgamma(n + j - 1) - math.lgamma(j - 0.5) - math.lgamma(j + n - 1.5)
    for j in range(2, n + 1):
        log_h += math.lgamma(j - 1)
    return math.exp(log_h)


def small_value_prob(rho: float, n: float) -> float:
    """SO(2N) small-value law: P(0 <= |char poly at 1| <= rho) ~ 2 h(N) sqrt(rho).

    This is the small-rho leading term only, so a value above 1, which no
    probability takes, raises ValueError.  The square-root law is specific
    to SO(2N); USp(2N) and U(N) follow other powers of rho, so this
    function covers SO(2N) only.
    """
    if not rho >= 0:
        raise ValueError("rho must be nonnegative")
    leading = 2.0 * h_asymp(n, GroupKind.SOEven) * math.sqrt(rho)
    if leading > 1.0:
        raise ValueError(f"2 h(N) sqrt(rho) = {leading!r} exceeds 1: rho is not small")
    return leading


def vanishing_count(X: float, model: VanishingModel) -> dict:
    """Predicted count of vanishing central values over prime twists up to X.

    Divergent (i.e. a growing count, hence discretization) iff the weight
    k < 3; the leading term follows the small-value law with the SO(2N)
    prefactor h_asymp evaluated at N = log X.
    """
    if not 2 < X < math.inf:
        raise ValueError("X must be finite and exceed 2")
    divergent = model.k < 3
    leading = 0.0
    if divergent:
        logx = math.log(X)
        leading = ((1.0 / (4.0 * logx)) * 2.0 * model.a_f_half
                   * math.sqrt(model.delta_f * model.kappa_f) * h_asymp(logx, GroupKind.SOEven)
                   * (4.0 / (5.0 - 2.0 * model.k)) * X ** ((5.0 - 2.0 * model.k) / 4.0))
    return {"divergent": divergent, "leading_term": leading}
