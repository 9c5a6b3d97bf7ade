#!/usr/bin/env python3
"""Small-value law of |det(I - A)| on SO(2N) versus 2 h(N) sqrt(rho).

Samples characteristic-polynomial magnitudes, fits the log-log slope of the
empirical CDF on [1e-6, 1e-2], and compares the prefactor with 2 h(N), both
the exact finite-N value and its large-N form.
"""

import argparse

import numpy as np

from excised_rmt.groups import GroupKind, GroupSpec
from excised_rmt.stats import char_poly_magnitudes
from excised_rmt.theory import h_asymp, h_exact


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=12)
    ap.add_argument("--count", type=int, default=1_000_000)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    spec = GroupSpec(GroupKind.SOEven, args.n)
    mags = np.sort(char_poly_magnitudes(spec, args.count, args.seed))
    rho = np.geomspace(1e-6, 1e-2, 25)
    cdf = np.searchsorted(mags, rho, side="right") / mags.size
    ok = cdf > 0
    slope, intercept = np.polyfit(np.log(rho[ok]), np.log(cdf[ok]), 1)
    pref = np.exp(intercept)
    exact = 2.0 * h_exact(args.n)
    asymp = 2.0 * h_asymp(args.n, GroupKind.SOEven)
    print(f"log-log slope: {slope:.4f} (limit 0.5)")
    print(f"prefactor: {pref:.4f}  2 h_exact(N): {exact:.4f}  ratio {pref / exact:.3f}")
    print(f"prefactor: {pref:.4f}  2 h_asymp(N): {asymp:.4f}  ratio {pref / asymp:.3f}")


if __name__ == "__main__":
    main()
