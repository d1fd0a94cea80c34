#!/usr/bin/env python3
"""Locate the empirical birth of an equatorial defect ring on the sphere.

Sweeps odd sphere sizes around the analytic threshold for a given rank and
reports, for each n, whether a detected ring spans the equator. The analytic
threshold should split the sweep into an absent and a present regime.
"""

import argparse

from phyllo.analysis import detect_grain_boundaries, ring_spans_equator, sphere_thresholds
from phyllo.generator import generate
from phyllo.tessellation import tessellate


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rank", type=int, default=9,
                        help="dipole rank of the nascent ring")
    parser.add_argument("--halfwidth", type=int, default=8,
                        help="sweep n* +- this many sites")
    args = parser.parse_args()

    n_star = sphere_thresholds(args.rank)[-1]
    print(f"rank {args.rank}: analytic threshold n* = {n_star}")
    first_present = None
    for n in range(n_star - args.halfwidth, n_star + args.halfwidth + 1):
        if n % 2 == 0:
            continue  # even n has no equatorial site row
        tess = tessellate(generate("sphere", n))
        present = ring_spans_equator(detect_grain_boundaries(tess), n)
        if present and first_present is None:
            first_present = n
        print(f"  n={n}  equatorial ring: {'present' if present else 'absent'}")
    if first_present is not None:
        print(f"first odd n with the ring: {first_present}")


if __name__ == "__main__":
    main()
