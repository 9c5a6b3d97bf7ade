"""Fundamental-discriminant machinery, family sums, root numbers, and the
arithmetic factor A_f of the ratios conjecture.

A_f is an Euler product truncated to the primes p <= P.  Each local
factor is in closed form: its Hecke series are rational in
x = p^-(1 + 2 alpha), and one that diverges raises ValueError.

Conventions documented once here:

- psi_d denotes the real quadratic character attached to a fundamental
  discriminant d, computed as a Kronecker symbol (d/.).
- psi_d(-M) factors as psi_d(-1) * psi_d(M), and psi_d(-1) = +1 for the
  positive fundamental discriminants this module enumerates, so the
  family conditions reduce to conditions on kronecker(d, M).
- Every member d of a family shares one value of kronecker(d, M),
  `FamilySpec.psi_d_M`, and that is the one sign rule: the sieve keeps
  the d with it, and A_f's factor at the level takes it as its sign e,
  since a_M(f x psi_d) = a_M(f) psi_d(M).
- d = 1 is excluded from every family (the untwisted form).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Tuple

import numpy as np

from excised_rmt.special import require_integer
from excised_rmt.theory import SymmetryCase, n_std

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
    """Whether n is prime: no prime up to sqrt(n) divides it."""
    n = int(n)
    return n >= 2 and all(n % p for p in primes(math.isqrt(n)).tolist())


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


def _require_sieve_bound(X: int) -> None:
    # the sieve's int64 window starts and members are at most X
    if X >= 2**62:
        raise ValueError("X must be < 2**62")


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
        _require_sieve_bound(self.X)
        if self.case is SymmetryCase.Generic and not (0 < self.residue_u < self.M):
            raise ValueError("residue class U must satisfy 0 < U < M")

    @property
    def psi_d_M(self) -> int:
        """kronecker(d, M), the value every member d shares: epsilon_f for
        even principal twists, -epsilon_f for odd ones, Delta for the
        self-CM case and kronecker(U, M) for the generic class d = U (mod M)."""
        if self.case is SymmetryCase.PrincipalEven:
            return self.epsilon_f
        if self.case is SymmetryCase.PrincipalOdd:
            return -self.epsilon_f
        if self.case is SymmetryCase.SelfCM:
            return self.Delta
        return kronecker(self.residue_u, self.M)


# Integers per window of the family sieve: its masks and members stay in
# cache (2**20 measured slower).
_WINDOW = 1 << 18


def _sieve_windows(X: int, keep: np.ndarray) -> Iterator[Tuple[int, np.ndarray]]:
    """The fundamental discriminants 2 <= d <= X with keep[d % keep.size],
    one window of _WINDOW integers at a time, as (lo, mask) pairs:
    mask[i] says whether lo + i is one.

    d is fundamental iff d = 1, 5, 9, 13, 8 or 12 (mod 16) and no odd
    prime square divides d: for d = 4m with m = 2, 3 (mod 4), an odd p^2
    divides m iff it divides d.  So each window starts from two tiled
    patterns: the residue one, and one of period 16 * 9 * 25 * 49 that
    holds the mod-16 rule with the multiples of 9, 25 and 49 already
    struck.  It then strikes the multiples of every other odd p^2 <= X:
    by a strided slice for the few p^2 below _WINDOW / 32, which have
    many multiples per window, and by one index write for all larger
    squares together, whose positions np.repeat lays out.
    """
    window = _WINDOW
    span = 16 * 9 * 25 * 49
    # span is a multiple of 16 and of each square struck here
    base = np.tile(np.isin(np.arange(16), (1, 5, 9, 13, 8, 12)), (span + window) // 16 + 1)
    for sq in (9, 25, 49):
        base[::sq] = False
    period = keep.size
    residues = np.tile(keep, window // period + 2)
    # the odd primes from 11 on
    odd = primes(math.isqrt(X))[4:]
    squares = odd * odd
    sliced = squares[squares < window >> 5].tolist()
    indexed = squares[squares >= window >> 5]
    # the first window starts at 2, so d = 0 and d = 1 are never members
    for lo in range(2, X + 1, window):
        n = min(window, X + 1 - lo)
        mask = np.logical_and(base[lo % span : lo % span + n], residues[lo % period : lo % period + n])
        for sq in sliced:
            mask[-lo % sq :: sq] = False
        # the first multiple of each square at or past lo, as an offset
        # below sq, and how many of its multiples fall in the window
        first = np.remainder(-lo, indexed)
        hits = (n - 1 - first) // indexed + 1
        starts = np.repeat(np.cumsum(hits) - hits, hits)
        k = np.arange(starts.size) - starts
        mask[np.repeat(first, hits) + np.repeat(indexed, hits) * k] = False
        yield lo, mask


def _members(windows: Iterator[Tuple[int, np.ndarray]]) -> Iterator[np.ndarray]:
    """Each window's members, as a sorted int64 array."""
    for lo, mask in windows:
        d = np.flatnonzero(mask)
        d += lo
        yield d


def fundamental_discriminants_up_to(X: int) -> np.ndarray:
    """Sorted positive fundamental discriminants d <= X (d = 1 included)."""
    X = int(X)
    if X < 1:
        return np.empty(0, dtype=np.int64)
    _require_sieve_bound(X)
    windows = _members(_sieve_windows(X, np.ones(1, dtype=bool)))
    return np.concatenate([np.ones(1, dtype=np.int64), *windows])


def _legendre_mask(M: int, psi: int) -> np.ndarray:
    """The residues 0 <= r < M whose Legendre symbol (r / M) equals psi
    (+1 or -1), M an odd prime: the nonzero squares, which are r * r % M
    for 1 <= r < (M + 1) / 2, or the other nonzero residues."""
    mask = np.full(M, psi < 0)
    mask[0] = False
    # r * r < M**2 / 4 fits int64 up to M = 6e9
    r = np.arange(1, (M + 1) // 2, dtype=np.int64)
    np.multiply(r, r, out=r)
    np.remainder(r, M, out=r)
    mask[r] = psi > 0
    return mask


def _residue_keep(spec: FamilySpec) -> np.ndarray:
    """The family's condition on d mod M, as a length-M mask of residues.

    A principal or self-CM family keeps every d with kronecker(d, M) =
    spec.psi_d_M, which for the self-CM case also means gcd(d, M) = 1.
    The generic case keeps one residue class d = U (mod M), matching its
    closed-form cardinality.
    """
    M = int(spec.M)
    if spec.case is SymmetryCase.Generic:
        keep = np.zeros(M, dtype=bool)
        keep[spec.residue_u] = True
        return keep
    return _legendre_mask(M, spec.psi_d_M)


def family_windows(spec: FamilySpec) -> Iterator[np.ndarray]:
    """The admissible fundamental discriminants 1 < d <= X, sorted, as one
    int64 array per sieve window.  Each family condition depends on d mod
    M only, so it is one mask of residues, tiled over the sieve."""
    return _members(_sieve_windows(int(spec.X), _residue_keep(spec)))


def _family_array(
    spec: FamilySpec, dtype, fill: Callable[[np.ndarray, np.ndarray], None]
) -> np.ndarray:
    """One array of exactly the family's size, whose slice for each sieve
    window fill(d, out) writes from that window's members d.

    The sieve runs twice, once to count the members and once to fill, so
    no family-sized array is held beside the result, and np.sum reads the
    same contiguous array that a whole-family expression would give.
    """
    X, keep = int(spec.X), _residue_keep(spec)
    count = sum(int(np.count_nonzero(mask)) for _, mask in _sieve_windows(X, keep))
    out = np.empty(count, dtype=dtype)
    start = 0
    for d in _members(_sieve_windows(X, keep)):
        fill(d, out[start : start + d.size])
        start += d.size
    return out


def enumerate_family(spec: FamilySpec) -> np.ndarray:
    """All admissible fundamental discriminants 1 < d <= X, sorted."""
    return _family_array(spec, np.int64, lambda d, out: np.copyto(out, d))


def cardinality_estimate(spec: FamilySpec) -> float:
    """Closed-form size of the family up to O(sqrt(X))."""
    M, X = spec.M, spec.X
    if spec.case is SymmetryCase.Generic:
        return 3.0 * M * X / (_PI ** 2 * (M * M - 1.0))
    return 3.0 * M * X / (2.0 * _PI ** 2 * (M + 1.0))


def _require_unit(name: str, value: complex) -> None:
    """Raise ValueError unless |value| = 1 within 1e-9, as a root number
    and a character value at a prime away from the level must be; NaN
    fails.  Complex values are allowed, which a non-principal nebentypus
    needs."""
    if not abs(abs(value) - 1.0) <= 1e-9:
        raise ValueError(f"|{name}| must be 1")


def twisted_root_number(M: int, epsilon_f: complex, d: int, chi_f_of_d: complex) -> complex:
    """Root number of the quadratic twist: chi_f(d) * psi_d(-M) * epsilon_f.
    For a self-CM form of discriminant D, M = |D| and chi_f(d) = kronecker(D, d)."""
    _require_unit("epsilon_f", epsilon_f)
    _require_unit("chi_f(d)", chi_f_of_d)
    d = int(d)
    if d <= 0:
        raise ValueError("d must be positive")
    if math.gcd(d, M) != 1:
        raise ValueError("d must be coprime to the level")
    psi = kronecker(d, M)  # psi_d(-M) for positive d
    return chi_f_of_d * psi * epsilon_f


def _log_scaled(d: np.ndarray, M: int, out: np.ndarray) -> np.ndarray:
    """Writes log(sqrt(M) d / 2 pi) into the float array out, in place."""
    np.copyto(out, d)
    np.multiply(out, math.sqrt(M), out=out)
    np.divide(out, 2.0 * _PI, out=out)
    return np.log(out, out=out)


def sum_log_family(spec: FamilySpec) -> dict:
    """Direct and closed-form values of sum over d of log(sqrt(M) d / 2 pi)."""
    logs = _family_array(spec, np.float64, lambda d, out: _log_scaled(d, spec.M, out))
    count = logs.size
    direct = float(np.sum(logs))
    closed = count * (n_std(spec.M, spec.X) - 1.0)
    return {"direct": direct, "closed": closed, "gap": direct - closed, "count": count}


def oscillatory_family_sum(spec: FamilySpec, tau: float, R: float) -> dict:
    """Direct and closed-form values of the oscillatory family average
    sum over d of (sqrt(M) d / 2 pi)^(-2 pi i tau / R).

    The closed form is exact to O(sqrt(X)) only when R is tied to the
    family cutoff by R = log(sqrt(M) X / (2 pi)) - 1; for other R the
    residual phase does not cancel and the gap grows with X.
    """
    if not math.isfinite(tau):
        raise ValueError("tau must be finite")
    if not 0 < R < math.inf:
        raise ValueError("R must be positive and finite")
    # each term is exp(i y) with y = -2 pi tau / R * log(...), filled as
    # (cos y, sin y): the same bits as np.exp where libm's cexp goes
    # through sincos, as glibc's does
    rate = -2.0 * _PI * tau / R

    def fill(d: np.ndarray, out: np.ndarray) -> None:
        y = _log_scaled(d, spec.M, np.empty(d.size))
        y *= rate
        np.cos(y, out=out.real)
        np.sin(y, out=out.imag)

    z = _family_array(spec, np.complex128, fill)
    count = z.size
    direct = complex(np.sum(z))
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

    def __post_init__(self):
        for p, lp in self.lam.items():
            if p == self.M:
                if not cmath.isfinite(lp):
                    raise ValueError(f"lambda({p}) at the level must be finite")
            elif not abs(lp) <= 2.0 + 1e-9:
                raise ValueError(f"|lambda({p})| violates the Hecke eigenvalue bound")
        for p, cp in self.chi.items():
            if p == self.M:
                if cp != 0:
                    raise ValueError("chi must vanish at the level in the ramified convention")
            else:
                _require_unit(f"chi({p})", cp)

    @property
    def principal(self) -> bool:
        """Whether the nebentypus is principal: chi(p) = 1 at every p != M."""
        return all(cp == 1 for p, cp in self.chi.items() if p != self.M)


def _sym_sq_local(data: NewformLocalData, p: int, s: complex) -> complex:
    """Local factor of the symmetric-square L-function at s."""
    if p == data.M:
        lam = data.lam[p]
        return 1.0 / (1.0 - lam * lam * p ** (-s))
    alpha, beta = satake(data.lam[p], data.chi[p])
    x = p ** (-s)
    return 1.0 / ((1.0 - alpha * alpha * x) * (1.0 - alpha * beta * x) * (1.0 - beta * beta * x))


def _chi_local(data: NewformLocalData, p: int, s: complex) -> complex:
    """Local factor at s of the L-function of the primitive character
    inducing the nebentypus: it is chi away from the level, and at the
    level 1 if chi is principal and 0 otherwise."""
    cp = data.chi[p] if p != data.M else float(data.principal)
    if cp == 0:
        return 1.0
    return 1.0 / (1.0 - cp * p ** (-s))


def _y_local(data: NewformLocalData, p: int, alpha: complex, gamma: complex) -> complex:
    return (
        _chi_local(data, p, 1.0 + 2.0 * gamma)
        * _sym_sq_local(data, p, 1.0 + 2.0 * alpha)
        / (_chi_local(data, p, 1.0 + alpha + gamma) * _sym_sq_local(data, p, 1.0 + alpha + gamma))
    )


# a1_00's central-difference step
_DERIV_STEP = 1e-3


def _v_unramified(data: NewformLocalData, p: int, alpha: complex, gamma: complex) -> complex:
    """The local factor of A_f at a prime p other than the level.

    With x = p^-(1 + 2 alpha), the Hecke series sum lambda(p^2m) x^m and
    sum lambda(p^(2m+1)) x^m are (1 + chi x) / D and lambda / D, where
    D = 1 - (lambda^2 - 2 chi) x + chi^2 x^2 = (1 - a^2 x)(1 - b^2 x) for
    the Satake roots a, b.  They diverge, and so raise ValueError, where
    max(|a|, |b|)^2 |x| >= 1.
    """
    lam, chi = data.lam[p], data.chi[p]
    x = p ** (-(1.0 + 2.0 * alpha))
    if not max(abs(root) for root in satake(lam, chi)) ** 2 * abs(x) < 1.0:
        raise ValueError(f"the local series of A_f diverges at p = {p}")
    D = 1.0 - (lam * lam - 2.0 * chi) * x + chi * chi * x * x
    s1 = x * (lam * lam - chi - chi * chi * x) / D
    s2 = lam * p ** (-(1.0 + alpha + gamma)) * lam / D
    s3 = chi * p ** (-(1.0 + 2.0 * gamma)) * (1.0 + chi * x) / D
    return 1.0 + p / (p + 1.0) * (s1 - s2 + s3)


def _v_ramified(data: NewformLocalData, e: int, alpha: complex, gamma: complex) -> complex:
    """The local factor of A_f at the level M: its series is geometric in
    x = lambda(M) e M^-(1/2 + alpha), and diverges, so raises ValueError,
    where |x| >= 1."""
    M = data.M
    lam = data.lam[M]
    x = lam * e * M ** (-(0.5 + alpha))
    if not abs(x) < 1.0:
        raise ValueError(f"the local series of A_f diverges at the level M = {M}")
    return (1.0 - lam * e * M ** (-(0.5 + gamma))) / (1.0 - x)


def a_f_value(
    data: NewformLocalData, e: int, alpha: complex, gamma: complex, P: int
) -> complex:
    """Arithmetic factor A_f(alpha, gamma) as the Euler product over the
    primes <= P, each local factor in closed form; a local series that
    diverges raises ValueError.

    e is the sign at the level, kronecker(d, M) of the family's members: a
    real quadratic character at a prime not dividing d, so +1 or -1.
    """
    require_integer("P", P)
    if P < 2:
        raise ValueError("P must be >= 2")
    if e not in (1, -1):
        raise ValueError("e must be +1 or -1")
    required = [int(p) for p in primes(P)]
    missing = [p for p in required if p not in data.lam or (p != data.M and p not in data.chi)]
    if missing:
        raise ValueError(f"newform data missing primes up to {P}: first missing {missing[0]}")
    value = 1.0 + 0.0j
    for p in required:
        if p == data.M:
            factor = _v_ramified(data, e, alpha, gamma) / _y_local(data, p, alpha, gamma)
        else:
            factor = _v_unramified(data, p, alpha, gamma) / _y_local(data, p, alpha, gamma)
        value *= factor
    return value


def a1_00(data: NewformLocalData, family: FamilySpec, P: int) -> complex:
    """d/d alpha at (0,0) of A_f averaged over the family, via central
    differences with Richardson extrapolation (steps h and 2h).  The sign
    at the level is e = family.psi_d_M, so the family's level must be the
    newform's."""
    if family.M != data.M:
        raise ValueError("the family's level M must equal the newform's")
    e = family.psi_d_M

    def deriv(h: float) -> complex:
        plus = a_f_value(data, e, h, 0.0, P)
        minus = a_f_value(data, e, -h, 0.0, P)
        return (plus - minus) / (2.0 * h)

    d1 = deriv(_DERIV_STEP)
    d2 = deriv(2.0 * _DERIV_STEP)
    return (4.0 * d1 - d2) / 3.0
