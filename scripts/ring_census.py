#!/usr/bin/env python3
"""Tabulate detected defect rings against their closed-form predictions.

For each reference pattern, prints one row per detected ring: the cell
census, index range, mean radius and perimeter, and the relative error
against the predicted ring radius and circumference.
"""

import argparse

from phyllo.analysis import (
    boundary_perimeter_prediction,
    boundary_radius,
    detect_grain_boundaries,
)
from phyllo.generator import generate
from phyllo.tessellation import tessellate

PATTERNS = [
    ("plane", 3000, {}),
    ("hyperbolic", 3000, {"a": 0.025}),
    ("sphere", 1351, {}),
    ("sphere", 9301, {}),
]


def main() -> None:
    argparse.ArgumentParser(description=__doc__).parse_args()

    for geometry, n, kwargs in PATTERNS:
        tess = tessellate(generate(geometry, n, **kwargs))
        print(f"\n{geometry} n={n}")
        print(f"  {'census':>14} {'s range':>12} {'side':>4} "
              f"{'radius':>8} {'dr%':>6} {'perim':>9} {'dp%':>6} word")
        for b in detect_grain_boundaries(tess):
            if b.complete:
                r_pred = boundary_radius(tess.pattern.surface, b.rank - 1)
                p_pred = boundary_perimeter_prediction(b.rank - 1)
                dr = 100.0 * (b.mean_radius / r_pred - 1.0)
                dp = 100.0 * (b.perimeter / p_pred - 1.0)
                err = f"{b.mean_radius:8.3f} {dr:+6.2f} {b.perimeter:9.3f} {dp:+6.2f}"
            else:
                err = f"{b.mean_radius:8.3f} {'-':>6} {b.perimeter:9.3f} {'-':>6}"
            word = str(b.word) if b.word is not None else "-"
            print(f"  {str(b.counts):>14} {str(list(b.s_range)):>12} "
                  f"{b.pole_side:>4} {err} {word}")


if __name__ == "__main__":
    main()
