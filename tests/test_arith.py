"""Discriminants, Kronecker symbols, family sums, and the Euler product."""

import cmath
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from excised_rmt import arith
from excised_rmt.arith import (
    FamilySpec,
    NewformLocalData,
    a1_00,
    a_f_value,
    cardinality_estimate,
    enumerate_family,
    family_windows,
    fundamental_discriminants_up_to,
    is_prime,
    kronecker,
    oscillatory_family_sum,
    primes,
    satake,
    sum_log_family,
    twisted_root_number,
)
from excised_rmt.theory import SymmetryCase


# --- primes and squarefree machinery ---------------------------------------

@pytest.mark.parametrize("limit", [0, 1, 2, 3, 4, 1000, 2**20 - 1, 2**20, 2**20 + 1, 2 * 10**6])
def test_primes_against_sympy(limit):
    ours = primes(limit)
    assert ours.dtype == np.int64
    assert ours.tolist() == list(sympy.sieve.primerange(2, limit + 1))


@given(st.integers(min_value=2, max_value=10**6))
@settings(max_examples=80, deadline=None)
def test_is_prime_against_sympy(n):
    assert is_prime(n) == sympy.isprime(n)


# --- fundamental discriminants ---------------------------------------------

def _is_fund_brute(d: int) -> bool:
    # oracle: d is a fundamental discriminant iff it is the discriminant of
    # a quadratic field, i.e. squarefree and 1 mod 4, or 4m with m squarefree
    # and 2 or 3 mod 4 (d=1 counts as the trivial one)
    def squarefree(m):
        m = abs(m)
        return all(m % (p * p) != 0 for p in range(2, int(math.isqrt(m)) + 1))

    if d % 4 == 1:
        return squarefree(d)
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and squarefree(m)
    return False


def test_fundamental_discriminants_exhaustive():
    X = 10_000
    ours = set(fundamental_discriminants_up_to(X).tolist())
    ref = {d for d in range(1, X + 1) if _is_fund_brute(d)}
    assert ours == ref


def test_fundamental_discriminants_every_small_bound():
    # the sieve fills d = 1 (mod 4), 8 and 12 (mod 16) as separate slices,
    # so every residue of X mod 16 ends them differently
    ref = [d for d in range(1, 301) if _is_fund_brute(d)]
    assert fundamental_discriminants_up_to(0).size == 0
    for X in range(1, 301):
        ours = fundamental_discriminants_up_to(X)
        assert ours.dtype == np.int64
        assert ours.tolist() == [d for d in ref if d <= X], X


@pytest.mark.parametrize("window", [16, 64, 1000])
def test_fundamental_discriminants_at_every_window(monkeypatch, window):
    # window >> 5 is below 121 for these windows, so no square is struck
    # by a slice: 9, 25 and 49 come pre-struck in the pattern and every
    # larger one goes through the index write;
    # test_sieve_strikes_every_square_from_every_start covers the slices
    monkeypatch.setattr(arith, "_WINDOW", window)
    X = 5000
    ref = [d for d in range(1, X + 1) if _is_fund_brute(d)]
    assert fundamental_discriminants_up_to(X).tolist() == ref
    spec = FamilySpec(M=7, case=SymmetryCase.SelfCM, X=X, Delta=-1)
    windows = list(family_windows(spec))
    assert len(windows) == -(-(X - 1) // window)  # d = 2..X
    for i, members in enumerate(windows):
        assert members.dtype == np.int64
        lo = 2 + i * window
        assert members.size == 0 or lo <= members[0] <= members[-1] < lo + window
    assert np.array_equal(np.concatenate(windows), _family_brute(spec))


@pytest.mark.parametrize("window, starts_at", [(2**12, (9, 25, 49)), (4373, (9, 25, 49, 121, 841))],
                         ids=["4096", "4373"])
def test_sieve_strikes_every_square_from_every_start(monkeypatch, window, starts_at):
    # 9, 25 and 49 come pre-struck in the pattern, 121 is struck by a
    # slice (below window / 32), and 169 up to the window take several
    # index writes per window; some window starts on a multiple of each
    # square in starts_at, so its first hit is at offset 0
    monkeypatch.setattr(arith, "_WINDOW", window)
    X = 60_000
    for sq in starts_at:
        assert any(lo % sq == 0 for lo in range(2, X + 1, window)), sq
    ref = [d for d in range(1, X + 1) if _is_fund_brute(d)]
    assert fundamental_discriminants_up_to(X).tolist() == ref
    spec = FamilySpec(M=11, case=SymmetryCase.PrincipalOdd, X=X)
    assert np.array_equal(np.concatenate(list(family_windows(spec))), _family_brute(spec))


# --- Kronecker symbol ------------------------------------------------------

@given(st.integers(min_value=-500, max_value=500), st.integers(min_value=-500, max_value=500))
@settings(max_examples=200, deadline=None)
def test_kronecker_against_sympy(a, n):
    # sympy's jacobi_symbol covers odd positive n; extend via the standard
    # kronecker rules using sympy.ntheory.kronecker_symbol as full oracle
    from sympy.ntheory.residue_ntheory import jacobi_symbol  # noqa: F401

    ref = sympy.kronecker_symbol(a, n)
    assert kronecker(a, n) == ref


@given(st.integers(min_value=-200, max_value=200),
       st.integers(min_value=1, max_value=60),
       st.integers(min_value=1, max_value=60))
@settings(max_examples=100, deadline=None)
def test_kronecker_multiplicative_in_modulus(a, m, n):
    assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)


# --- family enumeration ----------------------------------------------------

def _family_brute(spec: FamilySpec) -> np.ndarray:
    out = []
    for d in range(2, spec.X + 1):
        if not _is_fund_brute(d):
            continue
        if spec.case is SymmetryCase.Generic:
            if d % spec.M == spec.residue_u:
                out.append(d)
            continue
        chi = sympy.kronecker_symbol(d, spec.M)
        if spec.case is SymmetryCase.PrincipalEven and chi * spec.epsilon_f == 1:
            out.append(d)
        elif spec.case is SymmetryCase.PrincipalOdd and chi * spec.epsilon_f == -1:
            out.append(d)
        elif spec.case is SymmetryCase.SelfCM and chi == spec.Delta:
            out.append(d)
    return np.asarray(out, dtype=np.int64)


@pytest.mark.parametrize(
    "epsilon_f, Delta, residue_u", [(1, 1, 1), (1, -1, 2), (-1, 1, 2), (-1, -1, 1)]
)
@pytest.mark.parametrize("M", [3, 5, 7, 11, 13, 17])
@pytest.mark.parametrize(
    "case", [SymmetryCase.PrincipalEven, SymmetryCase.PrincipalOdd, SymmetryCase.SelfCM, SymmetryCase.Generic]
)
def test_enumerate_family_matches_brute_force(M, case, epsilon_f, Delta, residue_u):
    spec = FamilySpec(M=M, case=case, X=10_000, epsilon_f=epsilon_f, Delta=Delta,
                      residue_u=residue_u)
    assert np.array_equal(enumerate_family(spec), _family_brute(spec))


def _legendre_by_euler(M: int) -> np.ndarray:
    """Euler's criterion, r^((M - 1) / 2) mod M, one residue at a time."""
    table = np.zeros(M, dtype=np.int64)
    for r in range(1, M):
        table[r] = 1 if pow(r, (M - 1) // 2, M) == 1 else -1
    return table


def test_legendre_table_matches_euler_criterion():
    for M in map(int, primes(3000)[1:]):
        euler = _legendre_by_euler(M)
        for psi in (1, -1):
            assert np.array_equal(arith._legendre_mask(M, psi), euler == psi), (M, psi)


@pytest.mark.parametrize("case", [SymmetryCase.PrincipalEven, SymmetryCase.Generic])
def test_family_residue_mask_stays_near_one_byte_per_residue(case):
    # a large prime level and a small family: the residue mask is one bool
    # per residue, plus the int64 square roots r < M / 2 while it is built
    M = 5_000_011
    spec = FamilySpec(M=M, case=case, X=1000, residue_u=2)
    tracemalloc.start()
    try:
        windows = family_windows(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * M, peak
    assert np.concatenate(list(windows)).tolist() == _family_brute(spec).tolist()


def _family_whole_mask(spec: FamilySpec) -> np.ndarray:
    """The recipe the windowed sieve replaced: one squarefree mask of
    length X + 1, one of length X // 4 + 1, and the residue table tiled
    over the whole range."""

    def squarefree(n):
        mask = np.ones(n + 1, dtype=bool)
        mask[0] = False
        for i in range(2, math.isqrt(n) + 1):
            if mask[i]:
                mask[i * i :: i * i] = False
        return mask

    X, M = spec.X, spec.M
    fd = np.zeros(X + 1, dtype=bool)
    fd[1::4] = squarefree(X)[1::4]
    quarter = squarefree(X // 4)
    fd[8::16] = quarter[2::4]
    fd[12::16] = quarter[3::4]
    fd[1] = False
    chi = np.array([sympy.legendre_symbol(r, M) if r else 0 for r in range(M)])
    if spec.case is SymmetryCase.Generic:
        keep = np.arange(M) == spec.residue_u
    elif spec.case is SymmetryCase.PrincipalEven:
        keep = chi == spec.epsilon_f
    elif spec.case is SymmetryCase.PrincipalOdd:
        keep = chi == -spec.epsilon_f
    else:
        keep = chi == spec.Delta
    fd &= np.tile(keep, -(-(X + 1) // M))[: X + 1]
    return np.flatnonzero(fd)


@pytest.mark.parametrize("X", [2**18 - 1, 2**18, 2**18 + 1, 2**18 + 2, 2**18 + 8, 2**18 + 12])
@pytest.mark.parametrize("M, epsilon_f, Delta, residue_u", [(3, 1, 1, 1), (11, -1, -1, 2)])
@pytest.mark.parametrize("case", list(SymmetryCase))
def test_enumerate_family_across_the_first_window_end(case, M, epsilon_f, Delta, residue_u, X):
    # the first window holds d = 2 .. 2**18 + 1
    spec = FamilySpec(M=M, case=case, X=X, epsilon_f=epsilon_f, Delta=Delta, residue_u=residue_u)
    assert np.array_equal(enumerate_family(spec), _family_whole_mask(spec))


def test_enumerate_family_epsilon_flip():
    even = enumerate_family(FamilySpec(M=11, case=SymmetryCase.PrincipalEven, X=2000, epsilon_f=-1))
    odd = enumerate_family(FamilySpec(M=11, case=SymmetryCase.PrincipalOdd, X=2000, epsilon_f=1))
    assert np.array_equal(even, odd)  # flipping epsilon swaps the two principal families


def test_cardinality_estimate_accuracy():
    for M in (3, 11):
        for case in (SymmetryCase.PrincipalEven, SymmetryCase.Generic):
            spec = FamilySpec(M=M, case=case, X=1_000_000)
            count = enumerate_family(spec).size
            assert abs(count - cardinality_estimate(spec)) < 10 * math.sqrt(spec.X)


def test_family_spec_validation():
    with pytest.raises(ValueError):
        FamilySpec(M=9, case=SymmetryCase.PrincipalEven, X=100)
    with pytest.raises(ValueError):
        FamilySpec(M=4, case=SymmetryCase.PrincipalEven, X=100)
    with pytest.raises(ValueError):
        FamilySpec(M=11, case=SymmetryCase.PrincipalEven, X=100, epsilon_f=2)
    with pytest.raises(ValueError):
        FamilySpec(M=11, case=SymmetryCase.Generic, X=100, residue_u=11)
    # the sieve's int64 strike positions reach 2X
    with pytest.raises(ValueError, match=r"X must be < 2\*\*62"):
        FamilySpec(M=3, case=SymmetryCase.Generic, X=2**62, residue_u=1)
    FamilySpec(M=3, case=SymmetryCase.Generic, X=2**62 - 1, residue_u=1)


@pytest.mark.parametrize("X", [2**62, 2**63 - 1, 10**30])
def test_fundamental_discriminants_reject_x_beyond_the_sieve(X):
    # refused before the sieve allocates anything
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^X must be < 2\*\*62$"):
            fundamental_discriminants_up_to(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16, peak


@pytest.mark.parametrize(
    "field, value",
    [("M", 11.0), ("M", True), ("X", 1e5), ("X", False), ("residue_u", 2.5), ("residue_u", True)],
)
def test_family_spec_rejects_non_integers(field, value):
    kwargs = {"M": 11, "case": SymmetryCase.Generic, "X": 10**5, "residue_u": 2, field: value}
    with pytest.raises(TypeError, match=f"^{field} must be an integer"):
        FamilySpec(**kwargs)


def test_family_spec_accepts_numpy_integers():
    spec = FamilySpec(M=np.int64(11), case=SymmetryCase.Generic, X=np.int32(3000),
                      residue_u=np.int64(2))
    plain = FamilySpec(M=11, case=SymmetryCase.Generic, X=3000, residue_u=2)
    assert np.array_equal(enumerate_family(spec), enumerate_family(plain))
    assert cardinality_estimate(spec) == cardinality_estimate(plain)


# --- root numbers ----------------------------------------------------------

def test_twisted_root_number_values():
    # principal nebentypus: chi_f(d) = 1 for d coprime to M
    assert twisted_root_number(11, 1, 5, 1) == kronecker(5, 11)
    assert twisted_root_number(11, -1, 5, 1) == -kronecker(5, 11)
    with pytest.raises(ValueError):
        twisted_root_number(11, 1, 22, 1)
    with pytest.raises(ValueError):
        twisted_root_number(11, 1, -5, 1)


@pytest.mark.parametrize(
    "call",
    [lambda: twisted_root_number(11, 3, 5, 1), lambda: twisted_root_number(11, 1, 5, 2),
     lambda: twisted_root_number(11, math.nan, 5, 1), lambda: twisted_root_number(11, 1, 5, 0.5j),
     lambda: twisted_root_number(7, 3, 5, kronecker(-7, 5)),
     lambda: twisted_root_number(7, 0, 5, kronecker(-7, 5))],
)
def test_root_numbers_reject_values_off_the_unit_circle(call):
    with pytest.raises(ValueError, match=r"must be 1$"):
        call()


def test_root_numbers_take_complex_units():
    # a non-principal nebentypus gives complex epsilon_f and chi_f(d)
    unit = cmath.exp(0.7j)
    assert twisted_root_number(11, unit, 5, 1j) == pytest.approx(1j * kronecker(5, 11) * unit)
    # a self-CM form of discriminant D = -7 has chi_f(d) = kronecker(D, d)
    assert twisted_root_number(7, unit, 5, kronecker(-7, 5)) == pytest.approx(unit)


def test_self_cm_root_number_reciprocity():
    # a self-CM form of level M = |D|, D = -M with M = 3 (mod 4) prime, has
    # chi_f(d) = kronecker(D, d); by quadratic reciprocity kronecker(D, d)
    # = kronecker(d, M) for positive d coprime to M, so every twist keeps
    # the form's own root number
    for M in (int(q) for q in primes(200)[1:] if q % 4 == 3):
        for d in range(1, 400):
            if d % M:
                for epsilon_f in (1, -1):
                    assert twisted_root_number(M, epsilon_f, d, kronecker(-M, d)) == epsilon_f, (M, d)


# --- family sums -----------------------------------------------------------

def test_sum_log_family_gap_shrinks():
    gaps = []
    for X in (10_000, 100_000):
        spec = FamilySpec(M=11, case=SymmetryCase.PrincipalEven, X=X)
        r = sum_log_family(spec)
        assert abs(r["gap"]) < 10 * math.sqrt(X)
        gaps.append(abs(r["gap"]) / math.sqrt(X))
    assert gaps[1] <= gaps[0]


def test_oscillatory_family_sum_matched_r():
    gaps = []
    for X in (10_000, 100_000):
        spec = FamilySpec(M=11, case=SymmetryCase.PrincipalEven, X=X)
        R = math.log(math.sqrt(11) * X / (2 * math.pi)) - 1.0
        r = oscillatory_family_sum(spec, 1.0, R)
        assert abs(r["gap"]) < 10 * math.sqrt(X)
        gaps.append(abs(r["gap"]) / math.sqrt(X))
    assert gaps[1] <= gaps[0]


@pytest.mark.parametrize("M, case, tau", [(11, SymmetryCase.PrincipalEven, 1.0),
                                          (3, SymmetryCase.Generic, 0.37),
                                          (7, SymmetryCase.SelfCM, 1.9)])
def test_family_sums_match_the_plain_expression(M, case, tau):
    # the window-by-window sums must equal the plain array expression bit
    # for bit; X = 700_000 spans three sieve windows of 2**18
    for X in (100_000, 700_000):
        spec = FamilySpec(M=M, case=case, X=X)
        R = math.log(math.sqrt(M) * spec.X / (2 * math.pi)) - 1.0
        d = enumerate_family(spec).astype(float)
        base = np.log(math.sqrt(M) * d / (2.0 * math.pi))
        assert sum_log_family(spec)["direct"] == float(np.sum(base)), X
        expect = complex(np.sum(np.exp(-2j * math.pi * tau / R * base)))
        assert oscillatory_family_sum(spec, tau, R)["direct"] == expect, X


@pytest.mark.parametrize("name, bytes_per_member", [("enumerate_family", 8),
                                                    ("sum_log_family", 8),
                                                    ("oscillatory_family_sum", 16)])
def test_family_arrays_hold_only_the_result(name, bytes_per_member):
    # each fills one array of exactly the family's size, window by window;
    # the rest is the sieve's per-window masks and members
    spec = FamilySpec(M=11, case=SymmetryCase.PrincipalEven, X=10**7)
    R = math.log(math.sqrt(11) * spec.X / (2 * math.pi)) - 1.0
    call = {
        "enumerate_family": lambda s: enumerate_family(s).size,
        "sum_log_family": lambda s: sum_log_family(s)["count"],
        "oscillatory_family_sum": lambda s: oscillatory_family_sum(s, 1.0, R)["count"],
    }[name]
    call(FamilySpec(M=11, case=SymmetryCase.PrincipalEven, X=1000))  # first-call allocations
    tracemalloc.start()
    try:
        count = call(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count > 10**6
    assert peak - bytes_per_member * count < 4 * 2**20, peak


def test_empty_family():
    spec = FamilySpec(M=3, case=SymmetryCase.Generic, X=4, residue_u=2)
    members = enumerate_family(spec)
    assert members.dtype == np.int64 and members.size == 0
    for r in (sum_log_family(spec), oscillatory_family_sum(spec, 1.0, 2.0)):
        assert r["count"] == 0 and r["direct"] == 0


def test_oscillatory_family_sum_rejects_bad_r():
    # at R = inf the phase is 0, so direct and closed would be count and -count;
    # a non-finite tau would make both sums NaN
    spec = FamilySpec(M=11, case=SymmetryCase.PrincipalEven, X=1000)
    for R in (0.0, -2.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="R must be positive and finite"):
            oscillatory_family_sum(spec, 1.0, R)
    for tau in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="tau must be finite"):
            oscillatory_family_sum(spec, tau, 5.0)


# --- Satake parameters and Hecke recursion ---------------------------------

def test_satake_roots():
    a, b = satake(1.2, 1.0)
    assert a + b == pytest.approx(1.2)
    assert a * b == pytest.approx(1.0)


def _toy_data(P=200, lam_M=None):
    lam = {p: 0.0 for p in primes(P)}
    chi = {p: 1.0 for p in primes(P)}
    lam[11] = lam_M if lam_M is not None else 1.0 / math.sqrt(11.0)
    chi[11] = 0.0
    return NewformLocalData(M=11, lam=lam, chi=chi)


def _hecke_series(lam, chi, x, parity):
    """sum over m of lambda(p^(2m + parity)) x^m, the lambda(p^j) from the
    Hecke recurrence lambda(p^(j+1)) = lambda lambda(p^j) - chi lambda(p^(j-1)),
    summed until the terms left are below 1e-17 of the sum.  With rho the
    larger root of t^2 - lambda t + chi and q = rho^2 |x| < 1,
    |lambda(p^j)| <= (j + 1) rho^j bounds the terms from m on by
    2 max(1, rho) (m + 1) q^m / (1 - q)^2."""
    rho = max(abs(np.roots([1.0, -lam, chi])))
    q = rho * rho * abs(x)
    assert q < 1.0
    prev, cur = 1.0 + 0j, lam  # lambda(p^0), lambda(p^1)
    total, xm, m = 0j, 1.0 + 0j, 0
    for j in range(100_000):
        if j % 2 == parity:
            total += prev * xm
            xm *= x
            m += 1
            if 2.0 * max(1.0, rho) * (m + 1) * q**m / (1.0 - q) ** 2 < 1e-17 * abs(total):
                return total
        prev, cur = cur, lam * cur - chi * prev
    raise AssertionError("the reference series did not converge")


@pytest.mark.parametrize(
    "lam, chi",
    [(0.5, 1.0), (1.99, 1.0), (-1.99, 1.0), (0.3, -1.0), (1.0 + 1.0j, 1j), (1.2 - 0.5j, cmath.exp(-0.5j))],
)
@pytest.mark.parametrize("p", [2, 3, 13])
@pytest.mark.parametrize("alpha, gamma", [(0.0, 0.0), (0.1, -0.15), (-0.2 + 0.3j, 0.05)])
def test_local_factor_closed_sums_match_the_hecke_recurrence(p, lam, chi, alpha, gamma):
    # the closed even sum (1 + chi x)/D and odd sum lambda/D inside the
    # unramified factor, against the recurrence summed to convergence
    data = NewformLocalData(M=11, lam={p: lam, 11: 0.1}, chi={p: chi, 11: 0.0})
    x = p ** (-(1.0 + 2.0 * alpha))
    even, odd = _hecke_series(lam, chi, x, 0), _hecke_series(lam, chi, x, 1)
    s1 = even - 1.0
    s2 = lam * p ** (-(1.0 + alpha + gamma)) * odd
    s3 = chi * p ** (-(1.0 + 2.0 * gamma)) * even
    ref = 1.0 + p / (p + 1.0) * (s1 - s2 + s3)
    assert abs(arith._v_unramified(data, p, alpha, gamma) - ref) <= 1e-13 * abs(ref)


@pytest.mark.parametrize("lam", [
    {2: 3.0, 11: 0.0}, {2: math.nan, 11: 0.0}, {2: math.inf, 11: 0.0}, {2: complex(math.nan, 0.0), 11: 0.0},
    {2: 1.0, 11: math.nan}, {2: 1.0, 11: math.inf}, {2: 1.0, 11: complex(0.0, math.inf)},
])
def test_ramanujan_bound_enforced(lam):
    # a NaN fails every comparison, so the bound must be written to fail it;
    # lambda(M) has no bound but must be finite
    with pytest.raises(ValueError, match="lambda"):
        NewformLocalData(M=11, lam=lam, chi={2: 1.0, 11: 0.0})


# --- the arithmetic factor A_f ----------------------------------------------

def _family(case, **signs):
    """A family at the toy data's level M = 11; a1_00 reads only its M and sign."""
    return FamilySpec(M=11, case=case, X=100, **signs)


@pytest.mark.parametrize("sign", [7, 0, -2, 0.5, 1j])
def test_a_f_readers_reject_signs_other_than_plus_minus_one(sign):
    # e is a real quadratic character at a prime not dividing d
    with pytest.raises(ValueError, match=r"must be \+1 or -1"):
        a_f_value(_toy_data(P=50), sign, 0.1, 0.1, 50)
    for field in ("epsilon_f", "Delta"):
        with pytest.raises(ValueError, match=r"must be \+1 or -1"):
            _family(SymmetryCase.SelfCM, **{field: sign})


def test_a1_00_requires_the_family_level():
    with pytest.raises(ValueError, match="level M must equal the newform's"):
        a1_00(_toy_data(P=50), FamilySpec(M=7, case=SymmetryCase.PrincipalEven, X=100), 50)


@pytest.mark.parametrize("lam_p", [0.0, 1.999, -1.999, "alternating"])
def test_a_f_diagonal_is_one(lam_p):
    # the arithmetic factor is identically 1 on the diagonal alpha = gamma;
    # lambda_p near +-2 makes the two Satake roots nearly equal, near +1 or -1
    data = _toy_data()
    for p in data.lam:
        if p != 11:
            data.lam[p] = (1.999 if p % 4 == 1 else -1.999) if lam_p == "alternating" else lam_p
    for r in (0.0, 0.1, -0.1, -0.2, 0.24, -0.24):
        assert abs(a_f_value(data, -1, r, r, 200) - 1.0) <= 1e-12, r


@pytest.mark.parametrize("chi_3, a1_even, a1_odd", [
    (-1.0, -0.37646496396219015 + 0j, 0.06314916948049754 + 0j),
    (1j, -0.7060486506707911 - 0.16479184333380167j, -0.26643451723449657 - 0.16479184333145483j),
])
def test_a_f_off_the_principal_character(chi_3, a1_even, a1_odd):
    # a chi(3) other than 1 makes the nebentypus non-principal, so the
    # primitive character vanishes at the level as well; the a1_00 pins are
    # the values when non-principal data had to be flagged by hand, taken
    # at e = psi_d(M): +1 for the even family and -1 for the odd one
    data = _toy_data()
    data.chi[3] = chi_3
    assert not data.principal
    for r in (0.0, 0.1, -0.2, 0.24):
        assert abs(a_f_value(data, 1, r, r, 200) - 1.0) <= 1e-12
    assert a1_00(data, _family(SymmetryCase.PrincipalEven), 200) == a1_even
    assert a1_00(data, _family(SymmetryCase.PrincipalOdd), 200) == a1_odd


@pytest.mark.parametrize("alternating, a1_even, a1_odd, diagonal", [
    (False, -1.0282340996537465 + 0j, -0.5886199661962096 + 0j,
     0.9999999999999996 + 6.949994588768232e-17j),
    (True, 0.6228376727542192 + 1.9776601213847994e-15j, 1.0624518061179422 + 1.975779354168125e-15j,
     0.9999999999999987 - 7.377879330246168e-17j),
])
def test_a_f_pins_on_principal_data(alternating, a1_even, a1_odd, diagonal):
    # the values of the Euler product before principal-ness was read from chi,
    # at e = psi_d(M): +1 for the even family and -1 for the odd one
    data = _toy_data()
    if alternating:
        for p in data.lam:
            if p != 11:
                data.lam[p] = 1.999 if p % 4 == 1 else -1.999
    assert data.principal
    assert a1_00(data, _family(SymmetryCase.PrincipalEven), 200) == a1_even
    assert a1_00(data, _family(SymmetryCase.PrincipalOdd), 200) == a1_odd
    r = 0.1 + 0.05j
    assert a_f_value(data, 1, r, r, 200) == diagonal


_ORACLE_FAMILIES = [
    *({"case": case, "epsilon_f": sign} for case in (SymmetryCase.PrincipalEven, SymmetryCase.PrincipalOdd)
      for sign in (1, -1)),
    *({"case": SymmetryCase.SelfCM, "Delta": sign} for sign in (1, -1)),
    {"case": SymmetryCase.Generic, "residue_u": 3},  # a square mod 11
    {"case": SymmetryCase.Generic, "residue_u": 2},  # a non-square mod 11
]


def _kronecker_column(d: np.ndarray, p: int) -> np.ndarray:
    """kronecker(d, p) for every d: Euler's criterion for odd p, and for
    p = 2 the mod-8 rule (0 on even d, +1 on d = +-1 and -1 on d = +-3)."""
    if p == 2:
        return np.array([0, 1, 0, -1, 0, -1, 0, 1])[d % 8]
    return _legendre_by_euler(p)[d % p]


@pytest.mark.parametrize(
    "signs", _ORACLE_FAMILIES,
    ids=lambda signs: "-".join(v.value if isinstance(v, SymmetryCase) else f"{k}={v}" for k, v in signs.items()),
)
def test_a_f_local_factors_are_the_family_average(signs):
    # A_f's local factor at p is the average over the family of
    # L_p(1/2 + alpha, f x psi_d) / L_p(1/2 + gamma, f x psi_d), where
    # 1 / L_p(s, f x psi_d) = 1 - lambda(p) psi_d(p) p^-s + chi(p) psi_d(p)^2 p^-2s;
    # at the level psi_d(M) is the one value the family keeps, so the
    # average is exact, and away from it psi_d(p) is equidistributed
    alpha, gamma = 0.1, -0.05
    data = _toy_data()
    for p in data.lam:
        if p != 11:
            data.lam[p] = 2.0 * math.cos(p)
    family = FamilySpec(M=11, X=200_000, **signs)
    d = enumerate_family(family)
    n = d.size
    e = family.psi_d_M
    assert np.all(_kronecker_column(d, 11) == e)

    def ratio(p, chi):
        psi = _kronecker_column(d, p)

        def inverse_l(s):
            return 1.0 - data.lam[p] * psi * p ** -s + chi * psi * psi * p ** (-2.0 * s)

        return inverse_l(0.5 + gamma) / inverse_l(0.5 + alpha)

    level = np.mean(ratio(11, 0.0))
    assert abs(level - arith._v_ramified(data, e, alpha, gamma)) <= 1e-14
    assert abs(level - arith._v_ramified(data, -e, alpha, gamma)) > 1e-2
    for p in (2, 3, 5, 7, 13):
        average = np.mean(ratio(p, data.chi[p]))
        assert abs(average - arith._v_unramified(data, p, alpha, gamma)) <= 4.0 / math.sqrt(n), p


def test_a_f_raises_where_a_local_series_diverges():
    # |alpha_2| = 2.33 at lambda_2 = 1.9, chi(2) = -1: max |root|^2 |x| = 2.7
    # at p = 2, alpha = 0, and 2.05 at alpha = 0.2, where |root| |x| = 0.88
    data = _toy_data()
    data.lam[2], data.chi[2] = 1.9, -1.0
    for alpha in (0.0, 0.2):
        with pytest.raises(ValueError, match="diverges at p = 2"):
            a_f_value(data, e=-1, alpha=alpha, gamma=0.0, P=200)
    # lambda(M) = 5: |x| = 5 / sqrt(11) = 1.5 at the level
    with pytest.raises(ValueError, match="diverges at the level"):
        a_f_value(_toy_data(lam_M=5.0), e=-1, alpha=0.0, gamma=0.0, P=200)
    with pytest.raises(ValueError, match="diverges at the level"):
        a_f_value(_toy_data(lam_M=5.0), e=-1, alpha=0.1, gamma=0.1, P=200)


def test_a_f_off_diagonal_is_not_one():
    data = _toy_data()
    assert abs(a_f_value(data, e=-1, alpha=0.1, gamma=0.0, P=200) - 1.0) > 1e-3


def test_a_f_requires_prime_coverage():
    data = _toy_data(P=50)
    with pytest.raises(ValueError):
        a_f_value(data, e=1, alpha=0.0, gamma=0.0, P=500)
    del data.chi[7]
    with pytest.raises(ValueError, match="first missing 7"):
        a_f_value(data, e=1, alpha=0.0, gamma=0.0, P=50)


def test_a_f_cutoff_is_an_integer_of_at_least_two():
    data = _toy_data(P=50)
    for bad in (1, 0, -5):
        with pytest.raises(ValueError, match="P must be >= 2"):
            a_f_value(data, e=-1, alpha=0.1, gamma=0.1, P=bad)
    for bad in (50.0, True):
        with pytest.raises(TypeError, match="P must be an integer"):
            a1_00(data, _family(SymmetryCase.PrincipalEven), bad)


def test_importing_arith_does_not_load_the_monte_carlo_stack():
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, excised_rmt.arith; assert 'excised_rmt.stats' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_a1_00_derivative_matches_coarse_difference():
    data = _toy_data()
    family = _family(SymmetryCase.PrincipalEven)
    d_fine = a1_00(data, family, 200)
    h = 1e-5
    up = a_f_value(data, e=family.psi_d_M, alpha=h, gamma=0.0, P=200)
    dn = a_f_value(data, e=family.psi_d_M, alpha=-h, gamma=0.0, P=200)
    coarse = (up - dn) / (2 * h)
    assert d_fine.real == pytest.approx(coarse.real, abs=1e-5)
    assert abs(d_fine.imag) < 1e-8

