#!/usr/bin/env python3
"""Effect of excision on the lowest-eigenangle distribution of SO(2N).

Compares the lowest-decile mass of the first-eigenangle distribution with
and without the excision cutoff on |det(I - A)|.
"""

import argparse

import numpy as np

from excised_rmt.groups import GroupKind, GroupSpec
from excised_rmt.spectral import ExcisionRule, excise_mask
from excised_rmt.stats import sample_summaries


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=10)
    ap.add_argument("--count", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--c", type=float, default=np.exp(-1.0))
    ap.add_argument("--k", type=int, default=1)
    ap.add_argument("--nstd", type=float, default=8.57)
    args = ap.parse_args()

    spec = GroupSpec(GroupKind.SOEven, args.n)
    table = sample_summaries(spec, args.count, args.seed)
    rule = ExcisionRule(c=args.c, k=args.k, n_std=args.nstd)
    keep = excise_mask(table["charpoly_abs"], rule)
    all_angles = table["first_angle"]
    kept_angles = all_angles[keep]
    decile = np.quantile(all_angles, 0.1)
    frac_all = np.mean(all_angles <= decile)
    frac_kept = np.mean(kept_angles <= decile)
    print(f"threshold {rule.threshold:.6g}: kept {keep.sum()} of {table.size}")
    print(f"mass below the unexcised 10% quantile ({decile:.4f}):")
    print(f"  unexcised {frac_all:.4f}   excised {frac_kept:.4f}")


if __name__ == "__main__":
    main()
