"""The four CLI workloads: their inputs per seed and their output checks.

A workload is a list of ``phyllo`` argv lists run in one process, the files
they must leave in the work directory, and a check of what those files say.
The seed picks n from nine evenly spaced sizes within 1% of the nominal
size (odd on the sphere, which the generator requires), so runs differ in
input without differing in cost by more than about a percent.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: half-width of the band the seed picks n from, as a share of nominal n,
#: and the number of evenly spaced sizes on each side of nominal
BAND = 0.01
STEPS = 4


@dataclass(frozen=True)
class Plan:
    commands: list[list[str]]
    outputs: list[str]  # files (relative to the work dir) the run must write


def _plane(n):
    return Plan(
        [
            ["generate", "--geometry", "plane", "--n", str(n), "--out", "pattern.json"],
            ["analyze", "--in", "pattern.json", "--out", "report"],
        ],
        ["pattern.json", "report/summary.json", "report/tessellation.json"],
    )


def _sphere(n):
    return Plan(
        [["analyze", "--geometry", "sphere", "--n", str(n), "--format", "csv", "--out", "report"]],
        ["report/summary.json", "report/boundaries.csv", "report/distances.csv", "report/areas.csv"],
    )


def _hyperbolic(n):
    return Plan(
        [["render", "--geometry", "hyperbolic", "--n", str(n), "--a", "0.025", "--out", "figure.svg"]],
        ["figure.svg"],
    )


def _thresholds(u_max):
    return Plan([["thresholds", "--u-max", str(u_max), "--empirical"]], [])


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def _summary_problem(n, workdir: Path) -> str | None:
    summary = json.loads(_read(workdir / "report/summary.json"))
    if summary["n"] != n:
        return f"summary n={summary['n']}, expected {n}"
    failed = [k for k, ok in summary["invariants"].items() if not ok]
    return f"invariants failed: {failed}" if failed else None


def _check_plane(n, workdir, stdout):
    pattern = json.loads(_read(workdir / "pattern.json"))
    if len(pattern["sites"]) != n:
        return f"pattern.json holds {len(pattern['sites'])} sites, expected {n}"
    tess = json.loads(_read(workdir / "report/tessellation.json"))
    if len(tess["cells"]) != n:
        return f"tessellation.json holds {len(tess['cells'])} cells, expected {n}"
    return _summary_problem(n, workdir)


def _check_sphere(n, workdir, stdout):
    rows = _read(workdir / "report/areas.csv").count("\n") - 1
    if rows != n:
        return f"areas.csv has {rows} rows, expected {n}"
    return _summary_problem(n, workdir)


def _check_hyperbolic(n, workdir, stdout):
    svg = _read(workdir / "figure.svg")
    if not svg.startswith("<svg") or not svg.endswith("</svg>\n"):
        return "figure.svg is not a complete SVG document"
    polygons = svg.count("<polygon")
    if not 0.5 * n < polygons <= n:
        return f"figure.svg draws {polygons} cells for n={n}"
    return None


def _check_thresholds(u_max, workdir, stdout):
    lines = stdout.splitlines()
    if len(lines) != u_max or any("FAILED" in line for line in lines):
        return "threshold table incomplete or an empirical bracket failed"
    if not any("empirical=confirmed" in line for line in lines):
        return "no threshold was confirmed empirically"
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    size_arg: str  # the CLI argument the size goes to
    nominal: int
    tiny: int  # size for the smoke test
    seeded: bool  # False: fixed input, the seed is unused
    odd: bool  # the size must be odd
    plan: Callable[[int], Plan]
    check: Callable[[int, Path, str], str | None]  # why outputs are wrong, or None

    def pick_size(self, seed: int) -> int:
        if not self.seeded:
            return self.nominal
        step = random.Random(seed).randint(-STEPS, STEPS)
        size = round(self.nominal * (1 + BAND * step / STEPS))
        return size | 1 if self.odd else size

    def sizes(self) -> list[int]:
        """Every size a seed can pick."""
        return sorted({self.pick_size(seed) for seed in range(1000)})


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "plane-analyze",
            "README pipeline, generate then analyze to JSON; export (pattern and "
            "tessellation documents, 17-digit JSON) takes about half the time",
            "n", 30000, 600, True, False, _plane, _check_plane,
        ),
        Workload(
            "sphere-analyze-csv",
            "convex-hull tessellation and per-cell solid angles dominate; CSV "
            "writers replace JSON, so an export change should not move it",
            "n", 20001, 401, True, True, _sphere, _check_sphere,
        ),
        Workload(
            "hyperbolic-render",
            "only path through hyperbolic-area quadrature and render_svg; no "
            "analysis and no JSON export",
            "n", 20000, 500, True, False, _hyperbolic, _check_hyperbolic,
        ),
        Workload(
            "thresholds-empirical",
            "12 small sphere tessellations (25 to 3487 sites) where per-call fixed "
            "cost competes with per-site cost; fixed input, the seed is unused",
            "u-max", 10, 6, False, False, _thresholds, _check_thresholds,
        ),
    )
}
