"""End-to-end acceptance criteria.

Each test prints a single PASS/FAIL line for its criterion; the assert
carries the same condition.  Heavier Monte Carlo runs share module-level
caches so each ensemble is sampled once.
"""

import math
import time

import numpy as np
import pytest

from excised_rmt.cli import main as cli_main
from excised_rmt.groups import GroupKind, GroupSpec, sample
from excised_rmt.spectral import ExcisionRule, char_poly_batch, excise_mask
from excised_rmt.special import gauss_legendre
from excised_rmt.stats import (
    char_poly_magnitudes,
    first_eigenangle_samples,
    ks_distance,
    mean_normalize,
    mean_one_histogram,
    one_level_density_mc,
    pair_correlation_mc,
    sample_summaries,
)
from excised_rmt.theory import (
    SymmetryCase,
    finite_n_density,
    first_angle_cdf,
    h_asymp,
    h_exact,
    montgomery_r2,
    n_eff_l2_optimize,
    u_pair_corr,
    u_pair_corr_exact,
)
from excised_rmt.arith import FamilySpec, cardinality_estimate, enumerate_family, oscillatory_family_sum, sum_log_family
from excised_rmt.groups import sample_batch


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\nCRITERION {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_sampling_speed_and_invariants():
    spec_n = 10
    start = time.perf_counter()
    for kind in GroupKind:
        spec = GroupSpec(kind, spec_n)
        mats = sample_batch(spec, 101, 0, 1000)
        # vectorized invariant checks (same tolerances as verify_invariants)
        mc = mats.astype(np.complex128)
        gram = np.einsum("bij,bkj->bik", mc, mc.conj())
        eye = np.eye(spec.dim)
        assert np.max(np.abs(gram - eye)) <= 1e-10, kind
        if kind in (GroupKind.SOEven, GroupKind.SOOdd):
            assert np.max(np.abs(np.linalg.det(mats) - 1.0)) <= 1e-8, kind
    elapsed = time.perf_counter() - start
    # spot-check the per-sample verifier too (sample raises on a violation)
    for kind in GroupKind:
        sample(GroupSpec(kind, spec_n), 101, 0)
    ok = elapsed < 10.0
    _report(1, ok, f"1000 samples/group at N=10 with invariants in {elapsed:.2f}s (< 10s)")


def test_criterion_02_so_odd_char_poly_vanishes():
    spec = GroupSpec(GroupKind.SOOdd, 10)
    mats = sample_batch(spec, 7, 0, 1000)
    vals = char_poly_batch(mats)
    worst = float(np.max(np.abs(vals)))
    ok = worst < 1e-10
    _report(2, ok, f"max |det(I-A)| over 1000 SO(21) samples = {worst:.2e} (< 1e-10)")


def _max_bin_z(hist, f) -> float:
    """Largest per-bin |MC - exact| / se against the bin averages of f."""
    x, w = gauss_legendre(hist.edges[:-1], hist.edges[1:])
    exact = np.sum(f(x) * w, axis=-1) / hist.widths
    se = np.sqrt(np.maximum(hist.counts, 1)) / (hist.events * hist.widths)
    return float(np.max(np.abs(hist.values() - exact) / se))


@pytest.mark.parametrize(
    "kind,n",
    [
        (GroupKind.SOEven, 10),
        (GroupKind.SOOdd, 10),
        (GroupKind.USp, 10),
        (GroupKind.Unitary, 9),
    ],
)
def test_criterion_03_one_level_density(kind, n):
    spec = GroupSpec(kind, n)
    count = 200_000
    hist = one_level_density_mc(spec, count, 42, bins=100)
    worst = _max_bin_z(hist, lambda t: finite_n_density(kind, n, t))
    ok = worst <= 4.0
    _report(3, ok, f"{kind.name} N={n}: max per-bin |MC - exact|/se = {worst:.2f} over 100 bins (<= 4)")


def test_criterion_04_pair_correlation():
    # U(30): L1 distance to the limiting pair correlation on [0, 3]
    spec = GroupSpec(GroupKind.Unitary, 30)
    hist = pair_correlation_mc(spec, 100_000, 11, window=3.0, bins=60)
    mids = 0.5 * (hist.edges[:-1] + hist.edges[1:])
    widths = hist.widths
    l1_limit = float(np.sum(np.abs(hist.values() - montgomery_r2(mids)) * widths))
    cond_a = l1_limit <= 0.02

    # U(6): including the finite-size -sin^2(pi x)/(3 N^2) term must strictly
    # improve the L1 fit
    spec6 = GroupSpec(GroupKind.Unitary, 6)
    hist6 = pair_correlation_mc(spec6, 100_000, 12, window=3.0, bins=60)
    mids6 = 0.5 * (hist6.edges[:-1] + hist6.edges[1:])
    w6 = hist6.widths
    v6 = hist6.values()
    l1_without = float(np.sum(np.abs(v6 - montgomery_r2(mids6)) * w6))
    l1_with = float(np.sum(np.abs(v6 - u_pair_corr(mids6, 6)) * w6))
    cond_b = l1_with < l1_without

    # both histograms against the exact finite-N form, bin by bin
    z30 = _max_bin_z(hist, lambda x: u_pair_corr_exact(x, 30))
    z6 = _max_bin_z(hist6, lambda x: u_pair_corr_exact(x, 6))
    cond_c = max(z30, z6) <= 4.0
    ok = cond_a and cond_b and cond_c
    _report(
        4,
        ok,
        f"U(30) L1 vs limit = {l1_limit:.4f} (<= 0.02); "
        f"U(6) L1 with finite-size term {l1_with:.4f} < without {l1_without:.4f}; "
        f"max per-bin |MC - exact|/se U(30) {z30:.2f}, U(6) {z6:.2f} over 60 bins (<= 4)",
    )


def test_criterion_05_family_counts():
    details = []
    ok = True
    for M in (3, 11):
        for case in (SymmetryCase.PrincipalEven, SymmetryCase.PrincipalOdd, SymmetryCase.SelfCM, SymmetryCase.Generic):
            spec = FamilySpec(M=M, case=case, X=1_000_000)
            count = enumerate_family(spec).size
            est = cardinality_estimate(spec)
            gap = abs(count - est)
            ok = ok and gap < 10 * math.sqrt(spec.X)
            details.append(f"M={M} {case.value}: |{count}-{est:.0f}|={gap:.0f}")
    # sieve equals brute force at X = 1e4
    import sympy

    spec = FamilySpec(M=11, case=SymmetryCase.PrincipalEven, X=10_000)
    sieved = enumerate_family(spec)
    brute = np.array(
        [d for d in range(2, 10_001) if _is_fund(d) and sympy.kronecker_symbol(d, 11) == 1],
        dtype=np.int64,
    )
    exact = bool(np.array_equal(sieved, brute))
    ok = ok and exact
    _report(5, ok, f"counts within 10 sqrt(X) at X=1e6 for M in (3,11); sieve==brute at 1e4: {exact}")


def _is_fund(d: int) -> bool:
    def squarefree(m):
        m = abs(m)
        return all(m % (p * p) != 0 for p in range(2, int(math.isqrt(m)) + 1))

    if d % 4 == 1:
        return squarefree(d)
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and squarefree(m)
    return False


def test_criterion_06_family_sum_identities():
    ok = True
    gaps_log, gaps_osc = [], []
    for X in (10_000, 100_000):
        spec = FamilySpec(M=11, case=SymmetryCase.PrincipalEven, X=X)
        r_log = sum_log_family(spec)
        R = math.log(math.sqrt(11) * X / (2 * math.pi)) - 1.0
        r_osc = oscillatory_family_sum(spec, 1.0, R)
        ok = ok and abs(r_log["gap"]) <= 10 * math.sqrt(X)
        ok = ok and abs(r_osc["gap"]) <= 10 * math.sqrt(X)
        gaps_log.append(abs(r_log["gap"]) / math.sqrt(X))
        gaps_osc.append(abs(r_osc["gap"]) / math.sqrt(X))
    ok = ok and gaps_log[1] <= gaps_log[0] and gaps_osc[1] <= gaps_osc[0]
    _report(
        6,
        ok,
        f"M=11 tau=1: log-sum gap/sqrtX {gaps_log[0]:.3f}->{gaps_log[1]:.3f}, "
        f"oscillatory {gaps_osc[0]:.3f}->{gaps_osc[1]:.3f} (<= 10, non-growing)",
    )


def test_criterion_07_small_value_law():
    n = 12
    spec = GroupSpec(GroupKind.SOEven, n)
    mags = np.sort(char_poly_magnitudes(spec, 1_000_000, 2024))
    rho = np.geomspace(1e-6, 1e-2, 25)
    cdf = np.searchsorted(mags, rho, side="right") / mags.size
    mask = cdf > 0
    slope, intercept = np.polyfit(np.log(rho[mask]), np.log(cdf[mask]), 1)
    prefactor = math.exp(intercept)
    target = 2.0 * h_asymp(n, GroupKind.SOEven)
    cond_slope = abs(slope - 0.5) <= 0.05
    cond_pref = abs(prefactor - target) <= 0.2 * target
    # counts against the exact law 2 h(N) sqrt(rho) at the binomial standard
    # error; at rho = 1e-2 the next order of the law shows (z about -12)
    exact = 2.0 * h_exact(n)
    z = []
    for r in (1e-6, 1e-5, 1e-4, 1e-3):
        p = exact * math.sqrt(r)
        hits = int(np.searchsorted(mags, r, side="right"))
        z.append((hits - mags.size * p) / math.sqrt(mags.size * p * (1.0 - p)))
    cond_exact = max(abs(v) for v in z) <= 4.0
    ok = cond_slope and cond_pref and cond_exact
    _report(
        7,
        ok,
        f"SO(24) |det(I-A)| CDF slope {slope:.3f} (0.50 +/- 0.05), "
        f"prefactor {prefactor:.3f} vs 2h(12)={target:.3f} (within 20%); "
        f"counts vs exact 2h(12)={exact:.7f} at rho=1e-6..1e-3: z "
        + " ".join(f"{v:.2f}" for v in z)
        + " (|z| <= 4)",
    )


def test_criterion_08_excision():
    spec = GroupSpec(GroupKind.SOEven, 10)
    table = sample_summaries(spec, 100_000, 5)
    rule = ExcisionRule(c=math.exp(-1.0), k=1, n_std=8.5674)
    keep = excise_mask(table["charpoly_abs"], rule)
    kept_mags = table["charpoly_abs"][keep]
    cond_exact = bool(kept_mags.min() >= rule.threshold)
    angles = table["first_angle"]
    decile = np.quantile(angles, 0.1)
    frac_all = float(np.mean(angles <= decile))
    frac_kept = float(np.mean(angles[keep] <= decile))
    cond_depleted = frac_kept < frac_all
    ok = cond_exact and cond_depleted
    _report(
        8,
        ok,
        f"kept min {kept_mags.min():.3e} >= threshold {rule.threshold:.3e}; "
        f"lowest-decile mass excised {frac_kept:.4f} < unexcised {frac_all:.4f}",
    )


def test_criterion_09_l2_optimizer():
    rng = np.random.default_rng(0)
    worst = 0.0
    checked = 0
    while checked < 100:
        e1 = float(rng.uniform(0.0, 0.5))
        e2 = float(rng.uniform(0.5, 4.0))
        R = float(rng.uniform(3.0, 15.0))
        disc = 3.0 * e2 - 4.0 * e1
        if disc <= 0.1:
            continue
        closed = R / math.sqrt(disc)
        numeric = n_eff_l2_optimize(e1, e2, R)
        worst = max(worst, abs(numeric - closed) / closed)
        checked += 1
    with pytest.raises(ValueError):
        n_eff_l2_optimize(1.0, 0.5, 8.0)
    ok = worst <= 1e-3
    _report(9, ok, f"L2 minimizer vs closed form: worst relative gap {worst:.2e} over 100 grid points (<= 1e-3); inadmissible raises")


def test_criterion_10_symplectic_first_eigenvalue(tmp_path):
    spec = GroupSpec(GroupKind.USp, 10)
    a = first_eigenangle_samples(spec, 100_000, 1)
    b = first_eigenangle_samples(spec, 100_000, 2)
    ks = ks_distance(mean_normalize(a), mean_normalize(b))
    cond_ks = ks <= 0.01
    # each seed's raw first angles against the exact finite-N law, at the
    # 1% critical value of the one-sample KS statistic
    exact_bound = 1.63 / math.sqrt(a.size)
    ks_exact = [
        ks_distance(angles, lambda x: first_angle_cdf(GroupKind.USp, 10, x)) for angles in (a, b)
    ]
    cond_exact = max(ks_exact) <= exact_bound
    hist = mean_one_histogram(a, bins=100)
    path = tmp_path / "usp_first.csv"
    hist.to_csv(path)
    raw = path.read_bytes()
    text = raw.decode()
    lines = text.split("\n")
    cond_csv = (
        b"\r" not in raw
        and lines[0] == "bin_left,bin_right,density"
        and len(lines) == 102
        and lines[-1] == ""
        and all(len(line.split(",")) == 3 for line in lines[1:-1])
    )
    # contiguous bins, reparsable at full precision
    parsed = [tuple(map(float, line.split(","))) for line in lines[1:-1]]
    cond_csv = cond_csv and all(
        parsed[i][1] == parsed[i + 1][0] for i in range(len(parsed) - 1)
    )
    ok = cond_ks and cond_exact and bool(cond_csv)
    _report(
        10,
        ok,
        f"USp(20) first-eigenvalue KS across seeds = {ks:.4f} (<= 0.01); "
        f"KS against the exact law = {ks_exact[0]:.4f}, {ks_exact[1]:.4f} (<= {exact_bound:.4f}); "
        f"CSV contract holds: {bool(cond_csv)}",
    )


def test_criterion_11_cli_worker_determinism(tmp_path):
    outputs = []
    for workers in (1, 2, 8):
        p = tmp_path / f"sample_w{workers}.csv"
        code = cli_main(
            [
                "sample", "--group", "so_even", "--n", "6", "--count", "500",
                "--seed", "9", "--workers", str(workers), "--out", str(p),
            ]
        )
        assert code == 0
        h = tmp_path / f"hist_w{workers}.csv"
        code = cli_main(
            [
                "onelevel", "--group", "usp", "--n", "5", "--count", "2000",
                "--seed", "9", "--bins", "50", "--workers", str(workers), "--out", str(h),
            ]
        )
        assert code == 0
        outputs.append((p.read_bytes(), h.read_bytes()))
    ok = outputs[0] == outputs[1] == outputs[2]
    _report(11, ok, "CLI sample and onelevel outputs byte-identical for workers 1, 2, 8")
