#!/usr/bin/env python3
"""Mean-1 histogram of the lowest eigenangle of USp(20) matrices.

Writes first_eigenvalue_usp.csv (bin_left,bin_right,density) and prints the
sample mean before normalization, the KS distance of the raw angles to the
exact finite-N law of the lowest angle, and the KS distance between two
independent seeds as a stability check.
"""

import argparse
import pathlib

from excised_rmt.groups import GroupKind, GroupSpec
from excised_rmt.stats import first_eigenangle_samples, ks_distance, mean_one_histogram, mean_normalize
from excised_rmt.theory import first_angle_cdf


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=10)
    ap.add_argument("--count", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--bins", type=int, default=100)
    args = ap.parse_args()

    spec = GroupSpec(GroupKind.USp, args.n)
    a = first_eigenangle_samples(spec, args.count, args.seed)
    b = first_eigenangle_samples(spec, args.count, args.seed + 1)
    hist = mean_one_histogram(a, bins=args.bins)
    out = pathlib.Path(__file__).with_name("first_eigenvalue_usp.csv")
    hist.to_csv(out)
    print(f"samples: {a.size}  raw mean: {a.mean():.6f}")
    exact = ks_distance(a, lambda x: first_angle_cdf(GroupKind.USp, args.n, x))
    print(f"KS of seed {args.seed} against the exact law: {exact:.5f}")
    print(f"KS between seeds {args.seed} and {args.seed + 1}: "
          f"{ks_distance(mean_normalize(a), mean_normalize(b)):.5f}")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
