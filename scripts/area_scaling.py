#!/usr/bin/env python3
"""Cell-area spread vs pattern size on the plane.

Tessellates a range of plane patterns, measures the normalized cell-area
standard deviation over the interior window, and fits the 1/sqrt(n) decay.
"""

import argparse
import math

import numpy as np

from phyllo.analysis import area_series
from phyllo.generator import generate
from phyllo.tessellation import tessellate

DEFAULT_SIZES = [750, 1060, 1500, 2121, 3000, 4243, 6000]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+", default=DEFAULT_SIZES)
    args = parser.parse_args()

    rows = []
    for n in args.sizes:
        ar = area_series(tessellate(generate("plane", n)))
        rows.append((n, ar.mean, ar.stddev, int(ar.window.sum())))
        print(f"n={n:6d}  window={rows[-1][3]:6d}  mean={ar.mean:.6f}"
              f"  stddev={ar.stddev:.6f}  stddev*sqrt(n)={ar.stddev * math.sqrt(n):.4f}")

    ns = np.array([r[0] for r in rows], dtype=float)
    stds = np.array([r[2] for r in rows])
    c = float(np.exp(np.mean(np.log(stds) + 0.5 * np.log(ns))))
    resid = stds / (c / np.sqrt(ns)) - 1.0
    print(f"\nfit: stddev ~ {c:.4f} / sqrt(n)"
          f"  (max deviation {100.0 * np.abs(resid).max():.2f}%)")


if __name__ == "__main__":
    main()
