#!/usr/bin/env python3
"""Monte Carlo one-level eigenangle density against the exact kernel.

Writes one CSV per group (bin_left,bin_right,density) and prints the
maximum deviation from the exact finite-size density in units of the
per-bin Monte Carlo standard error.
"""

import argparse
import pathlib

import numpy as np

from excised_rmt.groups import GroupKind, GroupSpec
from excised_rmt.special import gauss_legendre
from excised_rmt.stats import one_level_density_mc
from excised_rmt.theory import finite_n_density


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=10)
    ap.add_argument("--count", type=int, default=200_000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--bins", type=int, default=100)
    args = ap.parse_args()

    here = pathlib.Path(__file__).parent
    for kind in GroupKind:
        n = args.n - 1 if kind is GroupKind.Unitary else args.n
        spec = GroupSpec(kind, n)
        hist = one_level_density_mc(spec, args.count, args.seed, bins=args.bins)
        # bin-averaged exact density: midpoint values are biased where the
        # kernel has curvature comparable to the bin width
        x, w = gauss_legendre(hist.edges[:-1], hist.edges[1:])
        exact = np.sum(finite_n_density(kind, n, x) * w, axis=-1) / hist.widths
        se = np.sqrt(np.maximum(hist.counts, 1)) / (hist.events * hist.widths)
        dev = np.max(np.abs(hist.values() - exact) / se)
        out = here / f"one_level_{kind.name.lower()}.csv"
        hist.to_csv(out)
        print(f"{kind.name:8s} N={n:3d}  max |MC - exact| / se = {dev:.2f}  -> {out.name}")


if __name__ == "__main__":
    main()
