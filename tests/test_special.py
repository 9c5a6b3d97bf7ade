"""Scalar special functions against independent oracles."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from excised_rmt.special import (
    EULER_GAMMA,
    GLAISHER,
    STIELTJES_GAMMA1,
    digamma_half,
    gauss_legendre,
    sin_ratio,
    sinc2pi,
)


def test_constants_match_oracle():
    assert abs(EULER_GAMMA - float(mpmath.euler)) < 1e-15
    assert abs(STIELTJES_GAMMA1 - float(mpmath.stieltjes(1))) < 1e-14
    assert abs(GLAISHER - float(mpmath.glaisher)) < 1e-15


@pytest.mark.parametrize("k", range(1, 61))
def test_digamma_half_matches_oracle(k):
    with mpmath.workdps(50):
        exact = mpmath.digamma(mpmath.mpf(k) / 2)
        assert abs(digamma_half(k) - exact) <= 8 * math.ulp(float(exact))


def test_digamma_half_integer_values():
    # psi(1) = -gamma, psi(1/2) = -gamma - 2 log 2 are classical identities
    assert digamma_half(2) == -EULER_GAMMA
    assert digamma_half(1) == -EULER_GAMMA - 2.0 * math.log(2.0)


def test_gauss_legendre_on_an_array_of_intervals():
    # exact for degree 79 on each interval; lo and hi broadcast
    lo, hi = np.broadcast_arrays(np.array([[0.0], [0.25]]), np.array([0.5, 2.0, 3.0]))
    x, w = gauss_legendre(lo, hi)
    assert x.shape == w.shape == (2, 3, 40)
    assert np.all((x > lo[..., None]) & (x < hi[..., None]))
    exact = (hi**80 - lo**80) / 80.0
    assert np.allclose(np.sum(x**79 * w, axis=-1), exact, rtol=1e-12, atol=0.0)
    x, w = gauss_legendre(0.0, math.pi)
    assert np.sum(np.sin(x) * w) == pytest.approx(2.0, abs=1e-14)


@given(st.floats(min_value=-20.0, max_value=20.0))
@settings(max_examples=80, deadline=None)
def test_sinc2pi_matches_direct(tau):
    if abs(tau) > 1e-6:
        assert sinc2pi(tau) == pytest.approx(
            math.sin(2 * math.pi * tau) / (2 * math.pi * tau), rel=1e-12
        )


def test_sinc2pi_at_zero():
    assert sinc2pi(0.0) == 1.0
    assert sinc2pi(1e-10) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("m", [2, 3, 7, 19, 20, 21])
def test_sin_ratio_matches_direct(m):
    theta = np.linspace(0.05, 2 * math.pi - 0.05, 97)
    theta = theta[np.abs(np.sin(theta)) > 1e-3]
    direct = np.sin(m * theta) / np.sin(theta)
    assert np.allclose(sin_ratio(m, theta), direct, atol=1e-10)


@pytest.mark.parametrize("m", [2, 3, 7, 20])
@pytest.mark.parametrize("s", [0, 1, 2])
def test_sin_ratio_at_multiples_of_pi(m, s):
    # limit of sin(m t)/sin(t) at t = s*pi is m * (-1)^(s(m-1))
    expected = m * (-1) ** (s * (m - 1))
    assert sin_ratio(m, s * math.pi) == pytest.approx(expected, abs=1e-9)
    assert sin_ratio(m, s * math.pi + 1e-10) == pytest.approx(expected, abs=1e-6)


@pytest.mark.parametrize("m", [1, 2, 5, 19, 21, 61, 201])
def test_sin_ratio_matches_mpmath(m):
    # 40-digit quotient at the float angle itself, so near a multiple of pi
    # it checks the shift to u as well as the sinc quotient
    rng = np.random.default_rng(0)
    theta = np.concatenate([
        rng.uniform(0.0, 2 * math.pi, 400),
        [0.0, math.pi / 2, math.pi, 2 * math.pi, 1e-9, 1e-7, math.pi - 1e-9, math.pi + 1e-12],
    ])
    got = sin_ratio(m, theta)
    with mpmath.workdps(40):
        for t, g in zip(theta, got):
            s = mpmath.sin(mpmath.mpf(t))
            exact = m if s == 0 else mpmath.sin(m * mpmath.mpf(t)) / s
            assert abs(g - exact) <= 2e-14 * m, t
