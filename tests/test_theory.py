"""Closed-form densities, coefficients, effective sizes, and small-value law."""

import math

import mpmath
import numpy as np
import pytest

from excised_rmt.groups import GroupKind, GroupSpec, one_level_range
from excised_rmt.spectral import ExcisionRule
from excised_rmt.stats import first_eigenangle_samples, ks_distance
from excised_rmt import special, theory
from excised_rmt.special import (
    EULER_GAMMA,
    STIELTJES_GAMMA1,
    digamma_half,
    gauss_legendre,
    sin_ratio,
    sinc2pi,
)
from excised_rmt.theory import (
    CoefficientInputs,
    SymmetryCase,
    VanishingModel,
    barnes_g_half,
    coefficient_assembly,
    e_coefficients_from_inputs,
    exact_scaled_density,
    finite_n_density,
    first_angle_cdf,
    h_asymp,
    h_exact,
    montgomery_r2,
    n_eff,
    n_eff_generic,
    n_std,
    pair_corr_expansion,
    q_lower_order,
    scaled_density_expansion,
    small_value_prob,
    u_pair_corr,
    u_pair_corr_exact,
    vanishing_count,
)


# --- finite-size densities -------------------------------------------------

@pytest.mark.parametrize(
    "group,n,hi,mass",
    [
        (GroupKind.SOEven, 7, math.pi, 7.0),
        (GroupKind.USp, 7, math.pi, 7.0),
        (GroupKind.SOOdd, 7, 2 * math.pi, 14.0),  # forced zero excluded
        (GroupKind.Unitary, 7, 2 * math.pi, 7.0),
    ],
)
def test_density_total_mass(group, n, hi, mass):
    edges = np.linspace(0.0, hi, 9)
    x, w = gauss_legendre(edges[:-1], edges[1:])
    assert np.sum(finite_n_density(group, n, x) * w) == pytest.approx(mass, abs=1e-12)


def _mp_density(group, n, theta):
    """finite_n_density's closed form, evaluated in mpmath."""
    m, sign = {
        GroupKind.SOEven: (2 * n - 1, 1),
        GroupKind.SOOdd: (2 * n, -1),
        GroupKind.USp: (2 * n + 1, -1),
        GroupKind.Unitary: (n, 0),
    }[group]
    return (m + sign * mpmath.sin(m * theta) / mpmath.sin(theta)) / (2 * mpmath.pi)


def _mp_bin_averages(f, edges):
    with mpmath.workdps(30):
        return np.array([float(mpmath.quad(f, [a, b]) / (mpmath.mpf(b) - mpmath.mpf(a)))
                         for a, b in zip(edges[:-1], edges[1:])])


def _gl_bin_averages(f, edges):
    x, w = gauss_legendre(edges[:-1], edges[1:])
    return np.sum(f(x) * w, axis=-1) / np.diff(edges)


@pytest.mark.parametrize("group,n", [(GroupKind.SOEven, 10), (GroupKind.SOOdd, 10),
                                     (GroupKind.USp, 10), (GroupKind.Unitary, 9)])
def test_bin_averages_of_the_density_match_mpmath(group, n):
    # criterion 3's 100 bins over the support
    edges = np.linspace(0.0, one_level_range(GroupSpec(group, n)), 101)
    ref = _mp_bin_averages(lambda t: _mp_density(group, n, t), edges)
    got = _gl_bin_averages(lambda t: finite_n_density(group, n, t), edges)
    assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-12


@pytest.mark.parametrize("n", [6, 30])
def test_bin_averages_of_the_pair_correlation_match_mpmath(n):
    # criterion 4's 60 bins over (0, 3]
    edges = np.linspace(0.0, 3.0, 61)
    ref = _mp_bin_averages(
        lambda x: 1 - (mpmath.sin(mpmath.pi * x) / (n * mpmath.sin(mpmath.pi * x / n))) ** 2, edges)
    got = _gl_bin_averages(lambda x: u_pair_corr_exact(x, n), edges)
    assert np.max(np.abs(got - ref)) <= 1e-12


def test_density_nonnegative():
    grid = np.linspace(0.0, math.pi, 400)
    for group in (GroupKind.SOEven, GroupKind.USp):
        assert np.all(finite_n_density(group, 9, grid) > -1e-12)
    grid2 = np.linspace(0.0, 2 * math.pi, 400)
    for group in (GroupKind.SOOdd, GroupKind.Unitary):
        assert np.all(finite_n_density(group, 9, grid2) > -1e-12)


def test_density_against_eigen_kernel_oracle():
    # independent oracle: the density of a classical compact group is the
    # diagonal of the Christoffel-Darboux-type kernel, computed here by the
    # raw trig sums
    n = 6
    theta = 0.37
    # direct form: (2N-1)/(2pi) + sin((2N-1)t)/(2pi sin t)
    direct = (2 * n - 1) / (2 * math.pi) + math.sin((2 * n - 1) * theta) / (
        2 * math.pi * math.sin(theta)
    )
    assert finite_n_density(GroupKind.SOEven, n, theta) == pytest.approx(direct, rel=1e-12)
    # Dirichlet-kernel identity: sin((2N-1)t)/sin t = 1 + 2 sum_{m<N} cos(2mt)
    dirichlet = 1.0 + 2.0 * sum(math.cos(2 * m * theta) for m in range(1, n))
    assert direct == pytest.approx(((2 * n - 1) + dirichlet) / (2 * math.pi), rel=1e-10)


@pytest.mark.parametrize("group", [GroupKind.SOEven, GroupKind.SOOdd, GroupKind.USp])
def test_scaled_expansion_converges_to_exact(group):
    # the order-2 expansion must approach the exact scaled kernel at rate 1/N^3
    taus = np.linspace(0.07, 2.9, 41)
    errs = []
    for n in (20, 40):
        exact = np.array([exact_scaled_density(group, n, t) for t in taus])
        approx = np.array([scaled_density_expansion(group, n, t, order=2) for t in taus])
        errs.append(np.max(np.abs(exact - approx)))
    assert errs[1] < errs[0] / 6.0  # at least ~1/N^3 decay between N=20 and 40


def test_scaled_expansion_orders_nested():
    # order 1 must beat order 0, order 2 must beat order 1 (in L1 over a grid)
    taus = np.linspace(0.05, 3.0, 200)
    n = 15
    group = GroupKind.USp
    exact = np.array([exact_scaled_density(group, n, t) for t in taus])
    l1 = []
    for order in (0, 1, 2):
        approx = np.array([scaled_density_expansion(group, n, t, order=order) for t in taus])
        l1.append(np.mean(np.abs(exact - approx)))
    assert l1[1] < l1[0] and l1[2] < l1[1]


def test_scaled_expansion_infinite_size_is_limit():
    assert scaled_density_expansion(GroupKind.SOEven, math.inf, 0.4, order=0) == pytest.approx(
        1.0 + math.sin(2 * math.pi * 0.4) / (2 * math.pi * 0.4)
    )
    assert scaled_density_expansion(GroupKind.Unitary, math.inf, 1.3, order=2) == 1.0


# Each formula holds only for a positive integer N (and positive finite
# level and discriminant); outside that range it must raise, not return a
# plausible number
@pytest.mark.parametrize(
    "call",
    [
        lambda: finite_n_density(GroupKind.SOEven, 0, 1.0),
        lambda: scaled_density_expansion(GroupKind.SOEven, -3, 0.5),
        lambda: u_pair_corr(1.0, 0),
        lambda: n_std(math.nan, 3),
        lambda: n_std(11, math.inf),
        lambda: n_eff(SymmetryCase.PrincipalEven, math.inf, 9960, {"a1": 1.0}),
        lambda: n_eff(SymmetryCase.SelfCM, 11, math.nan, {"b1": 1.0}),
        lambda: h_asymp(math.nan),
        lambda: h_asymp(math.inf),
        lambda: small_value_prob(math.nan, 10),
        lambda: small_value_prob(0.01, math.nan),
        lambda: small_value_prob(0.0, math.inf),
        lambda: vanishing_count(math.nan, VanishingModel(k=2, delta_f=1.0, kappa_f=1.0)),
        lambda: vanishing_count(math.inf, VanishingModel(k=2, delta_f=1.0, kappa_f=1.0)),
        lambda: VanishingModel(k=2, delta_f=math.nan, kappa_f=1.0),
        lambda: VanishingModel(k=2, delta_f=math.inf, kappa_f=1.0),
        lambda: VanishingModel(k=2, delta_f=1.0, kappa_f=1.0, a_f_half=math.nan),
        lambda: q_lower_order(SymmetryCase.PrincipalEven, 0.5, math.nan, {"a1": 1.0, "a2": 1.0}),
        lambda: pair_corr_expansion(0.5, math.nan, 0.1, 1.0, 1.0),
        lambda: pair_corr_expansion(0.5, math.inf, 0.1, 1.0, 1.0),
        lambda: pair_corr_expansion(0.5, 8.0, math.nan, 1.0, 1.0),
        lambda: pair_corr_expansion(0.5, 8.0, 0.1, math.inf, 1.0),
        lambda: pair_corr_expansion(0.5, 8.0, 0.1, 1.0, -math.inf),
        # e1 divides by M / |lambda(M)|^2 - 1, which is 0 and then negative
        lambda: e_coefficients_from_inputs(11, 11.0),
        lambda: e_coefficients_from_inputs(11, 22.0),
        # log(M)^2 / (M / |lambda(M)|^2 - 1) is inf / inf at an infinite level
        lambda: e_coefficients_from_inputs(math.inf, 1.0),
    ],
    ids=["density-n0", "expansion-n-3", "u-pair-n0", "n-std-nan", "n-std-inf",
         "n-eff-m-inf", "n-eff-x-nan", "h-asymp-nan", "h-asymp-inf", "small-value-rho-nan",
         "small-value-n-nan", "small-value-n-inf", "vanishing-x-nan", "vanishing-x-inf", "vanishing-delta-nan",
         "vanishing-delta-inf", "vanishing-a-nan", "q-r-nan",
         "pair-corr-r-nan", "pair-corr-r-inf", "pair-corr-e1-nan", "pair-corr-e2-inf",
         "pair-corr-e3-inf", "e1-ratio-1", "e1-ratio-half", "e1-m-inf"],
)
def test_outside_the_formula_range_raises(call):
    with pytest.raises(ValueError):
        call()


def test_non_integer_n_is_a_type_error():
    # N is checked by GroupSpec, for which a non-integer N is a type error,
    # as for every sampler
    with pytest.raises(TypeError):
        finite_n_density(GroupKind.USp, 2.5, 1.0)
    # a float N is a type error even when it is whole
    for pair_corr in (u_pair_corr, u_pair_corr_exact):
        for n in (2.5, 30.0):
            with pytest.raises(TypeError):
                pair_corr(0.5, n)


@pytest.mark.parametrize("group", list(GroupKind))
@pytest.mark.parametrize("theta", [-1.0, 5.0, 7.0, math.nan, [0.5, -1e-12]])
def test_density_outside_its_support_raises(group, theta):
    # the support is [0, pi] or [0, 2pi]; 5.0 lies inside the latter
    if theta == 5.0 and group in (GroupKind.SOOdd, GroupKind.Unitary):
        assert finite_n_density(group, 10, theta) > 0.0
        return
    with pytest.raises(ValueError, match="support"):
        finite_n_density(group, 10, theta)
    dim = GroupSpec(group, 10).dim
    with pytest.raises(ValueError, match="support"):
        exact_scaled_density(group, 10, np.asarray(theta) * dim / (2 * math.pi))


# every function that returns a float for a scalar argument and keeps the
# shape of an array one, each called with angles or distances in [0, 1]
SCALAR_OR_ARRAY = {
    "finite_n_density": lambda x: finite_n_density(GroupKind.USp, 10, x),
    "exact_scaled_density": lambda x: exact_scaled_density(GroupKind.SOOdd, 4, x),
    "first_angle_cdf": lambda x: first_angle_cdf(GroupKind.SOEven, 3, x),
    "scaled_density_expansion": lambda x: scaled_density_expansion(GroupKind.USp, math.inf, x),
    "q_lower_order": lambda x: q_lower_order(SymmetryCase.Generic, x, 8.0,
                                             {"c1": 1.0, "c2": 0.5, "d1": 0.2}),
    "montgomery_r2": montgomery_r2,
    "u_pair_corr": lambda x: u_pair_corr(x, 30),
    "u_pair_corr_exact": lambda x: u_pair_corr_exact(x, 30),
    "pair_corr_expansion": lambda x: pair_corr_expansion(x, 8.0, 0.1, 1.0, 1.0),
    "sinc2pi": sinc2pi,
    "sin_ratio": lambda x: sin_ratio(7, x),
}


@pytest.mark.parametrize("name", sorted(SCALAR_OR_ARRAY))
def test_range_checks_keep_what_the_callers_pass(name):
    f = SCALAR_OR_ARRAY[name]
    for scalar in (0.375, np.float64(0.375), np.array(0.375)):
        assert type(f(scalar)) is float
    grid = np.linspace(0.0, 1.0, 12)
    assert f(grid).shape == (12,)
    assert f(grid.reshape(3, 4)).shape == (3, 4)
    assert np.array_equal(f(grid.reshape(3, 4)), f(grid).reshape(3, 4))
    assert f(grid)[5] == f(float(grid[5]))


# The expansion as its terms were first written out, group by group; the
# coefficient table of scaled_density_expansion must reproduce each order
def _expansion_by_hand(group, n, tau, order):
    s = np.sin(2 * np.pi * tau) / (2 * np.pi * tau)
    cos2, sin2 = np.cos(2 * np.pi * tau), np.sin(2 * np.pi * tau)
    if group is GroupKind.Unitary:
        return np.ones_like(tau)
    if n == math.inf:
        order = 0
    if group is GroupKind.SOEven:
        terms = [1 + s, -(1 + cos2) / (2 * n), -np.pi * tau * sin2 / (6 * n * n)]
    elif group is GroupKind.SOOdd:
        size = 2 * n + 1
        terms = [1 - s, -(1 - cos2) / size, 2 * np.pi * tau * sin2 / (3 * size * size)]
    else:
        terms = [1 - s, (1 - cos2) / (2 * n), np.pi * tau * sin2 / (6 * n * n)]
    return sum(terms[: order + 1])


@pytest.mark.parametrize("group", list(GroupKind))
@pytest.mark.parametrize("n", [1, 5, 30, math.inf])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_scaled_expansion_coefficients_pinned(group, n, order):
    tau = np.linspace(0.01, 4.0, 400)
    got = scaled_density_expansion(group, n, tau, order)
    assert np.max(np.abs(got - _expansion_by_hand(group, n, tau, order))) < 1e-13


# --- coefficient assembly --------------------------------------------------

def test_coefficient_names_per_case():
    names = {case: sorted(coefficient_assembly(case, CoefficientInputs())) for case in SymmetryCase}
    assert names == {
        SymmetryCase.PrincipalEven: ["a1", "a2"],
        SymmetryCase.PrincipalOdd: ["a3", "a4"],
        SymmetryCase.SelfCM: ["b1", "b2"],
        SymmetryCase.Generic: ["c1", "c2", "d1"],
    }


def test_a1_with_toy_inputs():
    # with all L-function constants zeroed and weight 2,
    # a1 = 1 - psi(1) + gamma = 1 + 2 gamma
    cs = coefficient_assembly(SymmetryCase.PrincipalEven, CoefficientInputs())
    assert cs["a1"] == pytest.approx(1.0 + 2.0 * EULER_GAMMA, abs=1e-12)


def test_a3_with_toy_inputs():
    cs = coefficient_assembly(SymmetryCase.PrincipalOdd, CoefficientInputs())
    assert cs["a3"] == pytest.approx(2.0 + 2.0 * EULER_GAMMA + 2.0 * STIELTJES_GAMMA1, abs=1e-12)


def test_b1_with_toy_inputs():
    cs = coefficient_assembly(SymmetryCase.SelfCM, CoefficientInputs())
    assert cs["b1"] == pytest.approx(1.0 + EULER_GAMMA, abs=1e-12)


def test_c1_with_toy_inputs():
    cs = coefficient_assembly(SymmetryCase.Generic, CoefficientInputs())
    assert cs["c1"] == pytest.approx(-EULER_GAMMA, abs=1e-12)
    assert cs["c2"] == 0.0 and cs["d1"] == 0.0


def test_weight_enters_through_digamma():
    # psi(k/2) changes with k; a1 = 1 - psi(k/2) + gamma for zeroed inputs
    for k in (2, 4, 6):
        cs = coefficient_assembly(SymmetryCase.PrincipalEven, CoefficientInputs(k=k))
        expected = 1.0 - float(mpmath.digamma(k / 2)) + EULER_GAMMA
        assert cs["a1"] == pytest.approx(expected, abs=1e-11)


@pytest.mark.parametrize("case", [SymmetryCase.SelfCM, SymmetryCase.Generic])
def test_l1_ad_must_be_positive_where_it_divides(case):
    with pytest.raises(ValueError, match="L1_ad"):
        coefficient_assembly(case, CoefficientInputs(L1_ad=0.0))
    # the principal cases do not read it
    coefficient_assembly(SymmetryCase.PrincipalEven, CoefficientInputs(L1_ad=0.0))


def test_e1_reference_value():
    e1, _, _ = e_coefficients_from_inputs(11, 1.0 / 11.0)
    assert e1 == pytest.approx(0.5 * math.log(11) ** 2 / 120.0, rel=1e-12)
    assert e1 == pytest.approx(0.02396, abs=5e-5)


def test_e2_e3_structure():
    _, e2, e3 = e_coefficients_from_inputs(11, 1.0 / 11.0, App0=0.0, Appp0=0.0, Lp_ad_prime=0.0)
    assert e2 == pytest.approx(-2.0 + EULER_GAMMA**2 + 2.0 * STIELTJES_GAMMA1, rel=1e-12)
    assert e3 == pytest.approx(16.0 / 12.0, rel=1e-12)


@pytest.mark.parametrize(
    "term, e2_weight, e3_weight",
    [("App0", -0.5, 0.0), ("Appp0", 0.0, 1.0 / 12.0), ("Lp_ad_prime", -1.0, 0.0)],
)
def test_e2_e3_term_signs_and_weights(term, e2_weight, e3_weight):
    # e2 = ... - App0 / 2 - Lp_ad_prime and e3 = (16 + Appp0) / 12; e1 reads none of them
    e1, e2, e3 = e_coefficients_from_inputs(11, 1.0 / 11.0)
    f1, f2, f3 = e_coefficients_from_inputs(11, 1.0 / 11.0, **{term: 0.75})
    assert f1 == e1
    assert f2 - e2 == pytest.approx(0.75 * e2_weight, abs=1e-15)
    assert f3 - e3 == pytest.approx(0.75 * e3_weight, abs=1e-15)


def test_e_coefficients_reject_bad_lambda():
    with pytest.raises(ValueError):
        e_coefficients_from_inputs(11, 0.0)


def test_q_lower_order_requires_assembled():
    # the raw inputs are not coefficients, and another case's have other names
    with pytest.raises(TypeError):
        q_lower_order(SymmetryCase.PrincipalEven, 0.5, 8.0, CoefficientInputs())
    odd = coefficient_assembly(SymmetryCase.PrincipalOdd, CoefficientInputs())
    with pytest.raises(KeyError, match="a1"):
        q_lower_order(SymmetryCase.PrincipalEven, 0.5, 8.0, odd)


def test_q_lower_order_limits():
    # as R -> inf, Q approaches +/- sinc (principal cases) or 0 (generic)
    cs_e = coefficient_assembly(SymmetryCase.PrincipalEven, CoefficientInputs())
    cs_o = coefficient_assembly(SymmetryCase.PrincipalOdd, CoefficientInputs())
    cs_g = coefficient_assembly(SymmetryCase.Generic, CoefficientInputs())
    tau = 0.63
    sinc = math.sin(2 * math.pi * tau) / (2 * math.pi * tau)
    assert q_lower_order(SymmetryCase.PrincipalEven, tau, 1e9, cs_e) == pytest.approx(sinc, abs=1e-7)
    assert q_lower_order(SymmetryCase.PrincipalOdd, tau, 1e9, cs_o) == pytest.approx(-sinc, abs=1e-7)
    assert q_lower_order(SymmetryCase.Generic, tau, 1e9, cs_g) == pytest.approx(0.0, abs=1e-7)


# --- effective sizes -------------------------------------------------------

def test_n_std_reference_value():
    assert n_std(11, 9960) == pytest.approx(math.log(math.sqrt(11) * 9960 / (2 * math.pi)))
    assert n_std(11, 9960) == pytest.approx(8.5674, abs=5e-4)


def test_n_eff_closed_forms():
    cs = coefficient_assembly(SymmetryCase.PrincipalEven, CoefficientInputs())
    logterm = math.log(math.sqrt(11) * 9960 / (2 * math.pi))
    assert n_eff(SymmetryCase.PrincipalEven, 11, 9960, cs) == pytest.approx(
        logterm / (2 * cs["a1"])
    )
    cs_o = coefficient_assembly(SymmetryCase.PrincipalOdd, CoefficientInputs())
    assert n_eff(SymmetryCase.PrincipalOdd, 11, 9960, cs_o) == pytest.approx(
        (logterm - 0.5) / cs_o["a3"] - 0.5
    )
    cs_b = coefficient_assembly(SymmetryCase.SelfCM, CoefficientInputs())
    assert n_eff(SymmetryCase.SelfCM, 11, 9960, cs_b) == pytest.approx(logterm / cs_b["b1"])


@pytest.mark.parametrize(
    "case, M, X, coeffs",
    [
        # log(sqrt(11) * 0.5 / (2 pi)) < 0
        (SymmetryCase.PrincipalEven, 11, 0.5, None),
        (SymmetryCase.SelfCM, 11, 0.5, None),
        # (log - 0.5) / a3 - 0.5 < 0 when log < 0.5 + a3 / 2, here 0.75 < 2.0
        (SymmetryCase.PrincipalOdd, 11, 4.0, None),
        (SymmetryCase.PrincipalEven, 11, 9960, {"a1": -1.0}),
    ],
)
def test_n_eff_that_is_not_positive_raises(case, M, X, coeffs):
    coeffs = coeffs or coefficient_assembly(case, CoefficientInputs())
    with pytest.raises(ValueError, match="not positive"):
        n_eff(case, M, X, coeffs)


def test_n_eff_generic_closed_form_and_errors():
    assert n_eff_generic(0.1, 1.0, 7.0) == pytest.approx(7.0 / math.sqrt(3.0 - 0.4))
    with pytest.raises(ValueError):
        n_eff_generic(1.0, 1.0, 7.0)
    # the generic case has no closed form in M and X
    generic = coefficient_assembly(SymmetryCase.Generic, CoefficientInputs())
    with pytest.raises(ValueError, match="n_eff_generic"):
        n_eff(SymmetryCase.Generic, 11, 9960, generic)


@pytest.mark.parametrize(
    "e1, e2, R",
    [(0.1, 1.0, -8.5), (0.1, 1.0, 0.0), (math.nan, 1.0, 7.0), (0.1, math.inf, 7.0),
     (0.1, 1.0, math.inf), (0.1, 1.0, math.nan), (0.0, 1e308, 1.0), (1e308, 1e308, 1.0)],
)
def test_n_eff_generic_rejects_non_finite_or_non_positive_R(e1, e2, R):
    with pytest.raises(ValueError):
        n_eff_generic(e1, e2, R)


@pytest.mark.parametrize("e1, e2, R", [(0.024, 2.0, 8.5), (0.0, 1.0, 5.0), (0.3, 3.0, 12.0), (-0.3, 0.7, 3.0)])
@pytest.mark.parametrize("n", [0.5, 3.0, 40.0])
def test_pair_corr_objective_matches_quadrature(e1, e2, R, n):
    # the squared mismatch over one period, integrated in mpmath
    def integrand(y):
        s2 = mpmath.sin(mpmath.pi * y) ** 2
        val = (e1 - e2 * s2) / (R * R) + s2 / (3.0 * n * n)
        return val * val

    with mpmath.workdps(30):
        ref = float(mpmath.quad(integrand, [0, 1]))
    assert theory._pair_corr_objective(e1, e2, R, n) == pytest.approx(ref, rel=1e-10)


# --- pair correlation ------------------------------------------------------

def test_montgomery_r2_values():
    assert montgomery_r2(0.0) == pytest.approx(0.0)
    assert montgomery_r2(1.0) == pytest.approx(1.0)
    assert montgomery_r2(0.5) == pytest.approx(1.0 - (2.0 / math.pi) ** 2)


def test_u_pair_corr_reduces_at_half_integers():
    # the finite-size correction is -sin^2(pi x)/(3 N^2), largest at x=1/2
    n = 6
    assert u_pair_corr(0.5, n) == pytest.approx(montgomery_r2(0.5) - 1.0 / (3 * n * n))
    assert u_pair_corr(1.0, n) == pytest.approx(montgomery_r2(1.0))


def test_u_pair_corr_exact_against_its_expansion():
    # u_pair_corr is the exact form to order 1/N^2; the next term is 1/N^4,
    # so doubling N shrinks the gap about 16-fold
    x = np.linspace(0.0, 3.0, 301)
    gap30 = np.max(np.abs(u_pair_corr_exact(x, 30) - u_pair_corr(x, 30)))
    gap60 = np.max(np.abs(u_pair_corr_exact(x, 60) - u_pair_corr(x, 60)))
    assert 14.0 < gap30 / gap60 < 18.0
    n = 2000
    limit = np.max(np.abs(u_pair_corr_exact(x, n) - montgomery_r2(x)))
    assert 0.0 < limit <= 1.0 / (3 * n * n) * 1.01


def test_u_pair_corr_exact_values():
    # zero at multiples of N, period N, and identically zero for U(1)
    assert u_pair_corr_exact(0.0, 7) == 0.0
    assert u_pair_corr_exact(7.0, 7) == pytest.approx(0.0, abs=1e-12)
    assert u_pair_corr_exact(2.3, 7) == pytest.approx(u_pair_corr_exact(9.3, 7), abs=1e-12)
    assert u_pair_corr_exact(0.5, 2) == pytest.approx(1.0 - (1.0 / (2 * math.sin(math.pi / 4))) ** 2)
    assert np.all(u_pair_corr_exact(np.array([0.0, 0.3, 1.7]), 1) == 0.0)
    for bad in (0, -3):
        with pytest.raises(ValueError):
            u_pair_corr_exact(0.5, bad)

# --- first eigenangle -------------------------------------------------------

FIRST_ANGLE_GROUPS = [GroupKind.USp, GroupKind.SOEven, GroupKind.SOOdd]


def _gram_cdf(group, n, theta):
    """1 - det(I - G) with G the exact Gram matrix of the kernel's basis on (0, theta)."""
    k = {
        GroupKind.USp: np.arange(1, n + 1),
        GroupKind.SOEven: np.arange(n),
        GroupKind.SOOdd: np.arange(1, n + 1) - 0.5,
    }[group]
    diff = (k[:, None] - k[None, :]).astype(float)
    add = (k[:, None] + k[None, :]).astype(float)

    def integral_of_cos(a):  # int_0^theta cos(a x) dx
        safe = np.where(a == 0.0, 1.0, a)
        return np.where(a == 0.0, theta, np.sin(a * theta) / safe)

    if group is GroupKind.SOEven:  # 2 cos(kx) cos(lx) = cos((k-l)x) + cos((k+l)x), phi_0 = 1/sqrt(pi)
        gram = (integral_of_cos(diff) + integral_of_cos(add)) / math.pi
        gram[0, :] /= math.sqrt(2.0)
        gram[:, 0] /= math.sqrt(2.0)
    else:  # 2 sin(kx) sin(lx) = cos((k-l)x) - cos((k+l)x)
        gram = (integral_of_cos(diff) - integral_of_cos(add)) / math.pi
    return 1.0 - np.linalg.det(np.eye(n) - gram)


def _nystrom_cdf(group, n, theta, nodes=40):
    """The Nystrom determinant on the S_M kernel as stated, at nodes x nodes."""
    t, w = np.polynomial.legendre.leggauss(nodes)
    x = 0.5 * theta * (1.0 + t)
    root_w = np.sqrt(0.5 * theta * w)
    m, sign = {
        GroupKind.USp: (2 * n + 1, -1.0),
        GroupKind.SOEven: (2 * n - 1, 1.0),
        GroupKind.SOOdd: (2 * n, -1.0),
    }[group]

    def s_m(z):  # sin(m z / 2) / (2 pi sin(z / 2))
        return sin_ratio(m, 0.5 * z) / (2.0 * math.pi)

    kernel = s_m(x[:, None] - x[None, :]) + sign * s_m(x[:, None] + x[None, :])
    return 1.0 - np.linalg.det(np.eye(nodes) - root_w[:, None] * kernel * root_w[None, :])


def test_first_angle_cdf_of_the_rank_one_groups():
    # USp(2) = SU(2) has angle density (2/pi) sin^2; SO(2) is uniform on [0, pi]
    theta = np.linspace(0.0, math.pi, 33)
    usp = (theta - np.sin(theta) * np.cos(theta)) / math.pi
    assert np.max(np.abs(first_angle_cdf(GroupKind.USp, 1, theta) - usp)) < 1e-14
    assert np.max(np.abs(first_angle_cdf(GroupKind.SOEven, 1, theta) - theta / math.pi)) < 1e-14
    # SO(3)'s one free angle has density (1 - cos) / pi on [0, pi]
    so3 = (theta - np.sin(theta)) / math.pi
    assert np.max(np.abs(first_angle_cdf(GroupKind.SOOdd, 1, theta) - so3)) < 1e-14


@pytest.mark.parametrize("group, exact", [
    pytest.param(GroupKind.USp, lambda t: (2 * t - mpmath.sin(2 * t)) / (2 * mpmath.pi),
                 id="USp(2)"),
    pytest.param(GroupKind.SOEven, lambda t: t / mpmath.pi, id="SO(2)"),
    pytest.param(GroupKind.SOOdd, lambda t: (t - mpmath.sin(t)) / mpmath.pi, id="SO(3)"),
])
def test_first_angle_cdf_keeps_its_relative_accuracy_at_small_angles(group, exact):
    # F ~ theta^3 for USp(2) and SO(3), so 1 - det(I - G) in double
    # precision keeps no digit of it at theta = 1e-5
    for theta in (1e-5, 1e-4, 1e-3, 1e-2):
        with mpmath.workdps(40):
            want = exact(mpmath.mpf(theta))
            assert abs((first_angle_cdf(group, 1, theta) - want) / want) < 1e-13


@pytest.mark.parametrize("group", FIRST_ANGLE_GROUPS)
@pytest.mark.parametrize("n", [2, 5, 10, 30])
def test_first_angle_cdf_matches_exact_gram_and_stated_kernel(group, n):
    theta = np.concatenate([np.geomspace(1e-4, 0.2, 12), np.linspace(0.25, math.pi, 12)])
    cdf = first_angle_cdf(group, n, theta)
    gram = np.array([_gram_cdf(group, n, th) for th in theta])
    stated = np.array([_nystrom_cdf(group, n, th) for th in theta])
    assert np.max(np.abs(cdf - gram)) < 1e-13
    assert np.max(np.abs(cdf - stated)) < 1e-13


@pytest.mark.parametrize("group", FIRST_ANGLE_GROUPS)
def test_first_angle_cdf_is_a_distribution(group, monkeypatch):
    n = 10
    theta = np.linspace(0.0, math.pi, 2001)
    cdf = first_angle_cdf(group, n, theta)
    assert cdf[0] == 0.0 and abs(cdf[-1] - 1.0) < 1e-12
    assert np.all(np.diff(cdf) >= -1e-15)
    # the quadrature has converged: 20 and 60 nodes agree with 40
    at40 = first_angle_cdf(group, n, 0.5)
    for nodes in (20, 60):
        monkeypatch.setattr(special, "_CDF_NODES", nodes)
        assert abs(first_angle_cdf(group, n, 0.5) - at40) < 1e-14


@pytest.mark.parametrize("group", FIRST_ANGLE_GROUPS)
def test_first_angle_cdf_holds_up_to_twice_its_nodes(group, monkeypatch):
    # past N = 2 * 40 the 40-node rule drifts: USp(200) is off by 2.3e-4
    theta = np.linspace(0.01, math.pi, 24)
    cdf = first_angle_cdf(group, 80, theta)
    with pytest.raises(ValueError, match="nodes"):
        first_angle_cdf(group, 81, theta)
    monkeypatch.setattr(special, "_CDF_NODES", 400)
    assert np.max(np.abs(cdf - first_angle_cdf(group, 80, theta))) < 1e-13


def test_first_angle_cdf_reads_the_node_count_it_integrates_with(monkeypatch):
    # the limit follows the rule gauss_legendre uses, not a copy taken at import
    monkeypatch.setattr(special, "_CDF_NODES", 20)
    first_angle_cdf(GroupKind.USp, 40, 0.5)
    with pytest.raises(ValueError, match="2 \\* 20 quadrature nodes"):
        first_angle_cdf(GroupKind.USp, 41, 0.5)


@pytest.mark.parametrize("group", FIRST_ANGLE_GROUPS)
def test_first_angle_cdf_batches_match_scalars(group, monkeypatch):
    theta = np.random.default_rng(3).uniform(0.0, math.pi, (7, 5))
    whole = first_angle_cdf(group, 6, theta)
    assert whole.shape == theta.shape
    scalars = np.array([[first_angle_cdf(group, 6, float(th)) for th in row] for row in theta])
    assert np.array_equal(whole, scalars)
    monkeypatch.setattr(theory, "_CDF_CHUNK_WORDS", 3 * 40 * 6 + 1)  # batches of 3
    assert np.array_equal(first_angle_cdf(group, 6, theta), whole)
    assert isinstance(first_angle_cdf(group, 6, 1.0), float)


def test_first_angle_cdf_rejects_what_it_does_not_cover():
    with pytest.raises(ValueError, match="USp"):
        first_angle_cdf(GroupKind.Unitary, 5, 0.5)
    for theta in (-1e-9, math.pi + 1e-9, float("nan"), [0.1, 4.0]):
        with pytest.raises(ValueError, match="theta"):
            first_angle_cdf(GroupKind.USp, 5, theta)
    with pytest.raises(ValueError):
        first_angle_cdf(GroupKind.USp, 0, 0.5)
    with pytest.raises(TypeError):
        first_angle_cdf(GroupKind.SOEven, 2.0, 0.5)


@pytest.mark.parametrize("group", FIRST_ANGLE_GROUPS)
@pytest.mark.parametrize("n", [1, 4, 10])
def test_kernel_basis_diagonal_is_the_density(group, n):
    basis, shift = theory._KERNEL_BASES[group]
    freq = shift + np.arange(n)
    x = np.linspace(0.0, math.pi, 1003)[1:-1]
    phi = np.sqrt(np.where(freq == 0, 1.0, 2.0) / math.pi) * basis(x[:, None] * freq)
    assert np.max(np.abs(np.sum(phi**2, axis=1) - finite_n_density(group, n, x))) < 1e-13


@pytest.mark.parametrize("group", FIRST_ANGLE_GROUPS)
@pytest.mark.parametrize("n", [1, 2, 5, 10])
def test_first_angle_cdf_tends_to_the_density_mass_at_small_angles(group, n):
    # P(theta_1 <= theta) = int_0^theta rho - P(two angles below theta) + ...
    x, w = gauss_legendre(0.0, 0.01)
    mass = np.sum(finite_n_density(group, n, x) * w)
    assert abs(first_angle_cdf(group, n, 0.01) / mass - 1.0) <= 1e-6


@pytest.mark.parametrize("n", [1, 5, 10])
def test_odd_orthogonal_first_angles_follow_the_law(n):
    angles = first_eigenangle_samples(GroupSpec(GroupKind.SOOdd, n), 40_000, 3)
    bound = 1.63 / math.sqrt(angles.size)  # 1% critical value of the one-sample KS
    assert ks_distance(angles, lambda x: first_angle_cdf(GroupKind.SOOdd, n, x)) <= bound
    # planted fault: the same angles against the symplectic law must fail
    assert ks_distance(angles, lambda x: first_angle_cdf(GroupKind.USp, n, x)) > bound


def test_pair_corr_expansion_limits():
    e1, e2, e3 = 0.5, 1.5, 2.0
    y = 0.77
    assert pair_corr_expansion(y, 1e9, e1, e2, e3) == pytest.approx(montgomery_r2(y), abs=1e-9)
    # R^-2 term has the stated sign structure
    R = 10.0
    expected = (
        montgomery_r2(y)
        + (e1 - e2 * math.sin(math.pi * y) ** 2) / R**2
        - e3 * math.pi * y * math.sin(2 * math.pi * y) / R**3
    )
    assert pair_corr_expansion(y, R, e1, e2, e3) == pytest.approx(expected, rel=1e-12)


# --- small values and vanishing --------------------------------------------

def test_barnes_g_half_matches_oracle():
    assert barnes_g_half() == pytest.approx(float(mpmath.barnesg(mpmath.mpf(1) / 2)), abs=1e-12)


def test_h_asymp_forms():
    g = barnes_g_half()
    assert h_asymp(12, GroupKind.SOEven) == pytest.approx(
        2 ** (-7 / 8) * g * math.pi ** (-0.25) * 12 ** (3 / 8)
    )
    assert h_asymp(12, GroupKind.USp) == pytest.approx(
        2 ** (-3 / 8) * g * math.pi ** (-0.25) * 12 ** (3 / 8)
    )
    assert h_asymp(12, GroupKind.Unitary) == pytest.approx(g**2 * 12**0.25)
    with pytest.raises(ValueError):
        h_asymp(12, GroupKind.SOOdd)


def test_h_exact_closed_forms():
    # SO(2): |det(I - A)| = 4 sin^2(theta / 2) <= rho iff |theta| <~ sqrt(rho)
    assert 2 * h_exact(1) == pytest.approx(1 / math.pi, rel=1e-14)
    assert 2 * h_exact(12) == pytest.approx(1.2247577, abs=5e-8)
    assert 2 * h_asymp(12, GroupKind.SOEven) == pytest.approx(1.25466, abs=5e-6)
    for n in (2, 7, 30):
        half = mpmath.mpf(1) / 2
        product = mpmath.mpf(2) ** -n
        for j in range(1, n + 1):
            product *= mpmath.gamma(n + j - 1) / (mpmath.gamma(j - half) * mpmath.gamma(j + n - 3 * half))
        for j in range(2, n + 1):
            product *= mpmath.gamma(j - 1)
        assert h_exact(n) == pytest.approx(float(product), rel=1e-12)


def test_h_exact_approaches_h_asymp():
    ratios = [h_exact(n) / h_asymp(n, GroupKind.SOEven) for n in (12, 100, 1000)]
    assert ratios[1] == pytest.approx(0.9972, abs=5e-5)
    assert ratios[0] < ratios[1] < ratios[2] < 1.0
    assert ratios[2] == pytest.approx(1.0, abs=5e-4)


@pytest.mark.parametrize("n, error", [(True, TypeError), (12.0, TypeError), (0, ValueError), (-3, ValueError)])
def test_h_exact_rejects_bad_n(n, error):
    with pytest.raises(error):
        h_exact(n)


def test_small_value_prob_scaling():
    # P scales as sqrt(rho)
    p1 = small_value_prob(1e-4, 10)
    p2 = small_value_prob(4e-4, 10)
    assert p2 == pytest.approx(2.0 * p1, rel=1e-12)
    assert small_value_prob(0.0, 10) == 0.0


def test_small_value_prob_raises_where_the_leading_term_exceeds_one():
    # 2 h(12) sqrt(rho) passes 1 near rho = 0.64
    assert 0.0 < small_value_prob(0.5, 12) < 1.0
    for rho in (1.0, 100.0):
        with pytest.raises(ValueError, match="exceeds 1"):
            small_value_prob(rho, 12)


def test_small_value_prob_is_so_even_only():
    # USp(2N) and U(N) do not follow the square-root law; a call that names
    # another group must fail rather than return the SO(2N) value
    assert small_value_prob(0.01, 6) == pytest.approx(0.2 * h_asymp(6, GroupKind.SOEven))
    for group in (GroupKind.USp, GroupKind.Unitary):
        with pytest.raises(TypeError):
            small_value_prob(0.01, 6, group)


def test_vanishing_count_weight_threshold():
    m2 = VanishingModel(k=2, delta_f=1.0, kappa_f=1.0)
    assert vanishing_count(1e6, m2)["divergent"]
    assert vanishing_count(1e6, m2)["leading_term"] > 0
    m3 = VanishingModel(k=3, delta_f=1.0, kappa_f=1.0)
    assert not vanishing_count(1e6, m3)["divergent"]
    with pytest.raises(ValueError):
        vanishing_count(1e6, VanishingModel(k=1, delta_f=1.0, kappa_f=1.0))


@pytest.mark.parametrize(
    "make, least",
    [
        (lambda k: ExcisionRule(c=0.5, k=k, n_std=8.0), 1),
        (lambda k: VanishingModel(k=k, delta_f=1.0, kappa_f=1.0), 2),
        (digamma_half, 1),
    ],
    ids=["ExcisionRule", "VanishingModel", "digamma_half"],
)
def test_every_reader_of_the_weight_applies_one_integer_rule(make, least):
    for bad in (2.0, 2.5, True, "2"):
        with pytest.raises(TypeError, match=f"^weight k must be an integer, got {bad!r}$"):
            make(bad)
    with pytest.raises(ValueError, match=f"^weight k must be >= {least}$"):
        make(least - 1)
    make(np.int64(least))


def test_vanishing_count_growth_rate():
    # for weight 2 the count grows like X^(1/4) / log X up to constants
    m = VanishingModel(k=2, delta_f=1.0, kappa_f=1.0)
    r1 = vanishing_count(1e6, m)["leading_term"]
    r2 = vanishing_count(1e8, m)["leading_term"]
    ratio = r2 / r1
    expected = (1e8 / 1e6) ** 0.25 * (math.log(1e6) / math.log(1e8)) * (
        math.log(1e8) / math.log(1e6)
    ) ** (3 / 8)
    assert ratio == pytest.approx(expected, rel=1e-10)


def test_symmetry_case_group_map():
    assert SymmetryCase.PrincipalEven.group is GroupKind.SOEven
    assert SymmetryCase.PrincipalOdd.group is GroupKind.SOOdd
    assert SymmetryCase.SelfCM.group is GroupKind.USp
    assert SymmetryCase.Generic.group is GroupKind.Unitary
