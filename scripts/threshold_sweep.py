#!/usr/bin/env python3
"""Locate the empirical birth window of an equatorial defect ring on the sphere.

Sweeps odd sphere sizes around the analytic threshold n* for a given rank
and reports, for each n, whether a detected ring spans the equator. The
sweep shows three regimes: no such ring up to n* + 1; a ring holding the
equator from n* + 2 or n* + 3 on, for nine to eleven sites (n = 197-205 at
rank 7, 1333-1343 at rank 9); and none again beyond, where two complete
rings, one in each hemisphere, flank the equator. The first and last odd n
with the ring bound the middle regime.
"""

import argparse

from phyllo.analysis import ring_spans_equator, sphere_thresholds
from phyllo.generator import generate
from phyllo.tessellation import tessellate


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rank", type=int, default=9,
                        help="dipole rank of the nascent ring")
    parser.add_argument("--halfwidth", type=int, default=14,
                        help="sweep n* +- this many sites")
    args = parser.parse_args()

    n_star = sphere_thresholds(args.rank)[-1]
    print(f"rank {args.rank}: analytic threshold n* = {n_star}")
    with_ring = []
    for n in range(n_star - args.halfwidth, n_star + args.halfwidth + 1):
        if n % 2 == 0:
            continue  # even n has no equatorial site row
        present = ring_spans_equator(tessellate(generate("sphere", n)))
        if present:
            with_ring.append(n)
        print(f"  n={n}  equatorial ring: {'present' if present else 'absent'}")
    if with_ring:
        print(f"first odd n with the ring: {with_ring[0]}, last: {with_ring[-1]}")


if __name__ == "__main__":
    main()
