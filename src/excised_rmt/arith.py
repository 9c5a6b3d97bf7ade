"""Fundamental-discriminant machinery and truncated Euler-product estimators.

Conventions documented once here:

- psi_d denotes the real quadratic character attached to a fundamental
  discriminant d, computed as a Kronecker symbol (d/.).
- psi_d(-M) factors as psi_d(-1) * psi_d(M), and psi_d(-1) = +1 for the
  positive fundamental discriminants this module enumerates, so the
  family conditions reduce to conditions on kronecker(d, M).
- d = 1 is excluded from every family (the untwisted form).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Dict, Iterator, Tuple

import numpy as np

from excised_rmt.special import require_integer
from excised_rmt.theory import SymmetryCase

_PI = math.pi


def primes(limit: int) -> np.ndarray:
    """All primes <= limit, as int64, by the sieve of Eratosthenes."""
    limit = int(limit)
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve).astype(np.int64)


def is_prime(n: int) -> bool:
    n = int(n)
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        if n % p == 0:
            return n == p
    i = 37
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


def is_fundamental_discriminant(d: int) -> bool:
    """d is squarefree = 1 (mod 4), or 4m with m squarefree = 2, 3 (mod 4)."""
    d = int(d)
    if d == 0:
        raise ValueError("0 is not a discriminant")

    def squarefree(m: int) -> bool:
        m = abs(m)
        if m == 0:
            return False
        for i in range(2, int(math.isqrt(m)) + 1):
            if m % (i * i) == 0:
                return False
        return True

    if d % 4 == 1:
        return squarefree(d)
    if d % 4 == 0:
        m = d // 4
        return (m % 4 in (2, 3)) and squarefree(m)
    return False


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n), extending the Jacobi/Legendre symbols."""
    a, n = int(a), int(n)
    if n == 0:
        return 1 if abs(a) == 1 else 0
    if a % 2 == 0 and n % 2 == 0:
        return 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    while n % 2 == 0:
        n //= 2
        if a % 8 in (3, 5):
            result = -result
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


@dataclass(frozen=True)
class FamilySpec:
    """Arithmetic data selecting a family of quadratic twists."""

    M: int
    case: SymmetryCase
    X: int
    epsilon_f: int = 1
    Delta: int = 1
    residue_u: int = 1

    def __post_init__(self):
        for name in ("M", "X", "residue_u"):
            require_integer(name, getattr(self, name))
        if self.M % 2 == 0 or not is_prime(self.M):
            raise ValueError("level M must be an odd prime")
        if self.epsilon_f not in (1, -1) or self.Delta not in (1, -1):
            raise ValueError("epsilon_f and Delta must be +1 or -1")
        if self.X < 3:
            raise ValueError("X must be >= 3")
        if self.case is SymmetryCase.Generic and not (0 < self.residue_u < self.M):
            raise ValueError("residue class U must satisfy 0 < U < M")


# Integers per window of the family sieve: its masks and members stay in
# cache (2**20 measured slower).
_WINDOW = 1 << 18


def _sieve_windows(X: int, keep: np.ndarray) -> Iterator[np.ndarray]:
    """Fundamental discriminants 2 <= d <= X with keep[d % keep.size], as
    sorted int64 arrays, one window of _WINDOW integers at a time.

    d is fundamental iff d = 1, 5, 9, 13, 8 or 12 (mod 16) and no odd
    prime square divides d: for d = 4m with m = 2, 3 (mod 4), an odd p^2
    divides m iff it divides d.  So each window starts from the tiled
    mod-16 and residue patterns and strikes the multiples of every odd
    p^2 <= X, by a strided slice for p^2 below the window length and by
    one index write for the larger squares, which have at most one
    multiple per window.
    """
    window = _WINDOW
    admissible = np.isin(np.arange(16), (1, 5, 9, 13, 8, 12))
    mod16 = np.tile(admissible, window // 16 + 2)
    period = keep.size
    residues = np.tile(keep, window // period + 2)
    odd = primes(math.isqrt(X))[1:]
    squares = odd * odd
    small = squares[squares < window].tolist()
    large = squares[squares >= window]
    # the first window starts at 2, so d = 0 and d = 1 are never members
    for lo in range(2, X + 1, window):
        n = min(window, X + 1 - lo)
        mask = np.logical_and(mod16[lo % 16 : lo % 16 + n], residues[lo % period : lo % period + n])
        for sq in small:
            mask[-lo % sq :: sq] = False
        first = -(-lo // large) * large
        mask[first[first < lo + n] - lo] = False
        yield np.flatnonzero(mask) + lo


def fundamental_discriminants_up_to(X: int) -> np.ndarray:
    """Sorted positive fundamental discriminants d <= X (d = 1 included)."""
    X = int(X)
    if X < 1:
        return np.empty(0, dtype=np.int64)
    return np.concatenate([np.ones(1, dtype=np.int64), *_sieve_windows(X, np.ones(1, dtype=bool))])


def _legendre_table(M: int) -> np.ndarray:
    """The Legendre symbol (r / M) for 0 <= r < M, M an odd prime: 1 on
    the nonzero squares, which are r * r % M for 1 <= r < (M + 1) / 2."""
    table = np.full(M, -1, dtype=np.int64)
    table[0] = 0
    # r * r < M**2 / 4 fits int64 up to M = 6e9, where the table is 48 GB
    r = np.arange(1, (M + 1) // 2, dtype=np.int64)
    table[r * r % M] = 1
    return table


def family_windows(spec: FamilySpec) -> Iterator[np.ndarray]:
    """The admissible fundamental discriminants 1 < d <= X, sorted, as one
    int64 array per sieve window.

    Case conditions on psi_d(-M) (equal to kronecker(d, M) for positive d):
    +epsilon_f for even principal twists, -epsilon_f for odd ones, Delta
    with gcd(d, M) = 1 for the self-CM case.  The generic case keeps one
    residue class d = U (mod M), matching its closed-form cardinality.
    Each condition depends on d mod M only, so it is one length-M mask of
    residues, tiled over the sieve.
    """
    M = int(spec.M)
    if spec.case is SymmetryCase.Generic:
        keep = np.arange(M) == spec.residue_u
    elif spec.case is SymmetryCase.PrincipalEven:
        keep = _legendre_table(M) == spec.epsilon_f
    elif spec.case is SymmetryCase.PrincipalOdd:
        keep = _legendre_table(M) == -spec.epsilon_f
    else:
        keep = _legendre_table(M) == spec.Delta
    return _sieve_windows(int(spec.X), keep)


def enumerate_family(spec: FamilySpec) -> np.ndarray:
    """All admissible fundamental discriminants 1 < d <= X, sorted."""
    return np.concatenate(list(family_windows(spec)))


def cardinality_estimate(spec: FamilySpec) -> float:
    """Closed-form size of the family up to O(sqrt(X))."""
    M, X = spec.M, spec.X
    if spec.case is SymmetryCase.Generic:
        return 3.0 * M * X / (_PI ** 2 * (M * M - 1.0))
    return 3.0 * M * X / (2.0 * _PI ** 2 * (M + 1.0))


def twisted_root_number(M: int, epsilon_f: complex, d: int, chi_f_of_d: complex) -> complex:
    """Root number of the quadratic twist: chi_f(d) * psi_d(-M) * epsilon_f."""
    d = int(d)
    if d <= 0:
        raise ValueError("d must be positive")
    if math.gcd(d, M) != 1:
        raise ValueError("d must be coprime to the level")
    psi = kronecker(d, M)  # psi_d(-M) for positive d
    return chi_f_of_d * psi * epsilon_f


def _odd_part(n: int) -> int:
    n = abs(n)
    while n % 2 == 0:
        n //= 2
    return n


def self_cm_root_number(D: int, d: int, epsilon_f: complex) -> complex:
    """Twisted root number for a self-CM form of level M = |D|.

    Evaluates chi_f(d) * psi_d(M) * epsilon_f via Kronecker symbols and
    cross-checks the reciprocity factor (-1)^((D'-1)(d'-1)/4) over the odd
    parts; for positive d coprime to the level both give epsilon_f.
    """
    M = abs(D)
    if math.gcd(d, M) != 1 or d <= 0:
        raise ValueError("d must be positive and coprime to the level")
    direct = kronecker(D, d) * kronecker(d, M) * epsilon_f
    dp = _odd_part(D) * (1 if D > 0 else -1)
    ddp = _odd_part(d)
    recip = (-1) ** (((dp - 1) * (ddp - 1)) // 4) * epsilon_f
    if direct != recip:
        raise ArithmeticError("reciprocity cross-check failed")
    return direct


def _log_scaled(d: np.ndarray, M: int) -> np.ndarray:
    """log(sqrt(M) d / 2 pi) as float, computed in one array."""
    d = d.astype(float)
    np.multiply(d, math.sqrt(M), out=d)
    np.divide(d, 2.0 * _PI, out=d)
    return np.log(d, out=d)


def sum_log_family(spec: FamilySpec) -> dict:
    """Direct and closed-form values of sum over d of log(sqrt(M) d / 2 pi)."""
    d = _log_scaled(enumerate_family(spec), spec.M)
    count = d.size
    direct = float(np.sum(d))
    closed = count * (math.log(math.sqrt(spec.M) * spec.X / (2.0 * _PI)) - 1.0)
    return {"direct": direct, "closed": closed, "gap": direct - closed, "count": count}


def oscillatory_family_sum(spec: FamilySpec, tau: float, R: float) -> dict:
    """Direct and closed-form values of the oscillatory family average
    sum over d of (sqrt(M) d / 2 pi)^(-2 pi i tau / R).

    The closed form is exact to O(sqrt(X)) only when R is tied to the
    family cutoff by R = log(sqrt(M) X / (2 pi)) - 1; for other R the
    residual phase does not cancel and the gap grows with X.
    """
    if not R > 0:
        raise ValueError("R must be positive")
    d = _log_scaled(enumerate_family(spec), spec.M)
    count = d.size
    z = np.multiply(d, -2j * _PI * tau / R)
    del d
    direct = complex(np.sum(np.exp(z, out=z)))
    closed = (
        count
        * cmath.exp(-2j * _PI * tau - 2j * _PI * tau / R)
        / (1.0 - 2j * _PI * tau / R)
    )
    return {"direct": direct, "closed": closed, "gap": direct - closed, "count": count}


def satake(lambda_p: complex, chi_p: complex) -> Tuple[complex, complex]:
    """Roots (alpha, beta) of x^2 - lambda x + chi."""
    disc = cmath.sqrt(lambda_p * lambda_p - 4.0 * chi_p)
    return (lambda_p + disc) / 2.0, (lambda_p - disc) / 2.0


@dataclass
class NewformLocalData:
    """Hecke eigenvalue and nebentypus data at the primes of lam and chi."""

    M: int
    lam: Dict[int, complex]
    chi: Dict[int, complex]
    principal: bool = True

    def __post_init__(self):
        for p, lp in self.lam.items():
            if p != self.M and abs(lp) > 2.0 + 1e-9:
                raise ValueError(f"|lambda({p})| violates the Hecke eigenvalue bound")
        for p, cp in self.chi.items():
            if p == self.M:
                if cp != 0:
                    raise ValueError("chi must vanish at the level in the ramified convention")
            elif abs(abs(cp) - 1.0) > 1e-9:
                raise ValueError(f"|chi({p})| must be 1 away from the level")

    def chi_prime(self, p: int) -> complex:
        """Value of the primitive character inducing the nebentypus."""
        if self.principal:
            return 1.0
        return self.chi[p]


def _lambda_powers(data: NewformLocalData, p: int, top: int) -> list:
    """lambda(p^0), ..., lambda(p^top) from the Hecke recurrence
    lambda(p^(j+1)) = lambda(p) lambda(p^j) - chi(p) lambda(p^(j-1))."""
    lam, chi = data.lam[p], data.chi[p]
    values = [1.0 + 0j, lam]
    for j in range(1, top):
        values.append(lam * values[j] - chi * values[j - 1])
    return values


def lambda_power(data: NewformLocalData, p: int, m: int) -> complex:
    """lambda(p^m) from the Hecke recurrence; 0 for m < 0."""
    return _lambda_powers(data, p, m)[m] if m >= 0 else 0.0


def e_factor(case: SymmetryCase, epsilon_f: int = 1, Delta: int = 1, psi_d_M: int = 1) -> float:
    """The constant value of psi_d(M) over the family, per symmetry case.
    Each sign must be +1 or -1, as FamilySpec requires of epsilon_f and Delta."""
    if any(sign not in (1, -1) for sign in (epsilon_f, Delta, psi_d_M)):
        raise ValueError("epsilon_f, Delta and psi_d_M must be +1 or -1")
    if case is SymmetryCase.PrincipalEven:
        return -epsilon_f
    if case is SymmetryCase.PrincipalOdd:
        return float(epsilon_f)
    if case is SymmetryCase.SelfCM:
        return -Delta
    return float(psi_d_M)


def _sym_sq_local(data: NewformLocalData, p: int, s: complex) -> complex:
    """Local factor of the symmetric-square L-function at s."""
    if p == data.M:
        lam = data.lam[p]
        return 1.0 / (1.0 - lam * lam * p ** (-s))
    alpha, beta = satake(data.lam[p], data.chi[p])
    x = p ** (-s)
    return 1.0 / ((1.0 - alpha * alpha * x) * (1.0 - alpha * beta * x) * (1.0 - beta * beta * x))


def _chi_local(data: NewformLocalData, p: int, s: complex) -> complex:
    cp = data.chi_prime(p)
    if cp == 0:
        return 1.0
    return 1.0 / (1.0 - cp * p ** (-s))


def _y_local(data: NewformLocalData, p: int, alpha: complex, gamma: complex) -> complex:
    return (
        _chi_local(data, p, 1.0 + 2.0 * gamma)
        * _sym_sq_local(data, p, 1.0 + 2.0 * alpha)
        / (_chi_local(data, p, 1.0 + alpha + gamma) * _sym_sq_local(data, p, 1.0 + alpha + gamma))
    )


# Terms kept in each local Euler-factor series of A_f, the last-decade
# drift up to which truncated_a_f reports convergence, and a1_00's
# central-difference step
_EULER_TERMS = 40
_TAIL_TOL = 1e-3
_DERIV_STEP = 1e-3


def _v_unramified(data: NewformLocalData, p: int, alpha: complex, gamma: complex) -> complex:
    terms = _EULER_TERMS
    lam_pows = _lambda_powers(data, p, 2 * terms + 1)
    x = p ** (-(1.0 + 2.0 * alpha))
    s1 = sum(lam_pows[2 * m] * x ** m for m in range(1, terms + 1))
    s2 = (data.lam[p] * p ** (-(1.0 + alpha + gamma))) * sum(
        lam_pows[2 * m + 1] * x ** m for m in range(0, terms + 1)
    )
    s3 = (data.chi_prime(p) * p ** (-(1.0 + 2.0 * gamma))) * sum(
        lam_pows[2 * m] * x ** m for m in range(0, terms + 1)
    )
    return 1.0 + p / (p + 1.0) * (s1 - s2 + s3)


def _v_ramified(data: NewformLocalData, e: float, alpha: complex, gamma: complex) -> complex:
    M = data.M
    lam = data.lam[M]
    x = lam * e * M ** (-(0.5 + alpha))
    series = sum(x ** m for m in range(_EULER_TERMS + 1))
    return series - (lam / M ** (0.5 + gamma)) * e * series


def a_f_value(
    data: NewformLocalData, e: float, alpha: complex, gamma: complex, P: int
) -> Tuple[complex, float]:
    """Truncated arithmetic factor A_f(alpha, gamma) over primes <= P.

    Returns (value, tail_estimate), where the tail estimate is the total
    multiplicative drift contributed by the last decade of primes used —
    a proxy for the truncation error.
    """
    required = [int(p) for p in primes(P)]
    missing = [p for p in required if p not in data.lam]
    if missing:
        raise ValueError(f"newform data missing primes up to {P}: first missing {missing[0]}")
    plist = required
    value = 1.0 + 0.0j
    last_decade = 1.0 + 0.0j
    cutoff = P / 10.0
    for p in plist:
        if p == data.M:
            factor = _v_ramified(data, e, alpha, gamma) / _y_local(data, p, alpha, gamma)
        else:
            factor = _v_unramified(data, p, alpha, gamma) / _y_local(data, p, alpha, gamma)
        value *= factor
        if p > cutoff:
            last_decade *= factor
    return value, abs(last_decade - 1.0)


def truncated_a_f(
    data: NewformLocalData,
    case: SymmetryCase,
    r: complex,
    P: int,
    epsilon_f: int = 1,
    Delta: int = 1,
) -> dict:
    """A_f(r, r) truncated at P, with tail estimate and convergence flag."""
    if abs(r.real if isinstance(r, complex) else r) >= 0.25:
        raise ValueError("need |Re r| < 1/4")
    e = e_factor(case, epsilon_f=epsilon_f, Delta=Delta)
    value, tail = a_f_value(data, e, r, r, P)
    return {"value": value, "tail_estimate": tail, "converged": tail <= _TAIL_TOL}


def a1_00(
    data: NewformLocalData,
    case: SymmetryCase,
    P: int,
    epsilon_f: int = 1,
    Delta: int = 1,
) -> complex:
    """d/d alpha at (0,0) of A_f, via central differences with Richardson
    extrapolation (steps h and 2h)."""
    e = e_factor(case, epsilon_f=epsilon_f, Delta=Delta)

    def deriv(h: float) -> complex:
        plus, _ = a_f_value(data, e, h, 0.0, P)
        minus, _ = a_f_value(data, e, -h, 0.0, P)
        return (plus - minus) / (2.0 * h)

    d1 = deriv(_DERIV_STEP)
    d2 = deriv(2.0 * _DERIV_STEP)
    return (4.0 * d1 - d2) / 3.0
