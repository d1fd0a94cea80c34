"""Command-line front end: generate patterns, analyze them, sweep sphere
thresholds, and render SVG figures.

Exit codes: 0 on success, 1 on usage or input errors, 2 when the analysis
finds an anomaly (a defect ring off the Fibonacci census or a failed
invariant).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .analysis import (
    CORE_DEPTH,
    DISTANCE_MAX,
    DISTANCE_MIN,
    area_series,
    boundary_polar_angle,
    detect_grain_boundaries,
    distance_series,
    ring_spans_equator,
    sphere_thresholds,
    verify_inflation,
)
from .export import (
    _surface_document,
    area_csv,
    boundaries_csv,
    boundary_rows,
    distance_csv,
    dumps_json,
    load_pattern,
    pattern_document,
    tessellation_document,
    write_json,
)
from .generator import generate, normalization_scale
from .geometry import SPHERE, SURFACE_KINDS
from .numerics import DIVERGENCE
from .render import PROJECTIONS, render_svg
from .tessellation import tessellate

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ANOMALY = 2

#: empirical threshold sweeps refuse spheres larger than this
EMPIRICAL_N_CAP = 4001

#: characters of a text written to a file at a time
_WRITE_CHARS = 1 << 20


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract here wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_lambda(text: str) -> float:
    if text == "golden":
        return DIVERGENCE
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"lambda must be a number or 'golden', got {text!r}")


def _add_pattern_args(p: _Parser, with_input: bool) -> None:
    if with_input:
        p.add_argument("--in", dest="input", metavar="FILE", help="pattern JSON file")
    p.add_argument("--geometry", choices=sorted(SURFACE_KINDS))
    p.add_argument("--n", type=int, help="number of sites")
    p.add_argument("--a", type=float, help="lattice scale (plane/hyperbolic only)")
    p.add_argument(
        "--lambda",
        dest="lam",
        type=_parse_lambda,
        default=DIVERGENCE,
        metavar="X",
        help="divergence; a number or 'golden' (default)",
    )
    p.add_argument(
        "--indexing", choices=("integer", "half-integer"), default="integer"
    )


def _pattern_from_args(parser: _Parser, args) -> "PhylloPattern":
    if getattr(args, "input", None):
        if args.geometry or args.n is not None:
            parser.error("--in replaces --geometry/--n")
        try:
            return load_pattern(args.input)
        except OSError as err:
            parser.error(f"cannot read {args.input}: {err.strerror or err}")
        except json.JSONDecodeError as err:
            parser.error(f"{args.input}:{err.lineno}:{err.colno}: {err.msg}")
        except ValueError as err:
            parser.error(f"{args.input}: {err}")
        except MemoryError:
            parser.error(f"{args.input}: not enough memory for its sites")
    if not args.geometry or args.n is None:
        parser.error("need --geometry and --n (or --in FILE)")
    if args.geometry == SPHERE and args.a is not None:
        parser.error("the sphere fixes a = 2/sqrt(n); --a is not accepted")
    kwargs = {"lam": args.lam, "indexing": args.indexing}
    if args.geometry != SPHERE:
        kwargs["a"] = args.a if args.a is not None else (1.0 if args.geometry == "plane" else 0.05)
    try:
        return generate(args.geometry, args.n, **kwargs)
    except (ValueError, TypeError) as err:
        parser.error(str(err))
    except MemoryError:
        parser.error(f"not enough memory for {args.n} sites")


def _write_text(parser: _Parser, path: Path, content: str | dict) -> None:
    """Write text to path; a JSON document (a dict) is written block by block.

    A write that fails part-way removes the partial file.
    """
    fh = None
    try:
        fh = open(path, "w", encoding="utf-8", newline="\n")
        with fh:
            if isinstance(content, str):
                # a slice at a time: the file encodes what it is given as a whole
                for lo in range(0, len(content), _WRITE_CHARS):
                    fh.write(content[lo : lo + _WRITE_CHARS])
            else:
                write_json(content, fh)
    except BaseException as err:
        if fh is not None and path.is_file() and not path.is_symlink():  # not /dev/stdout
            try:
                path.unlink()
            except OSError:
                pass
        if isinstance(err, MemoryError):
            parser.error(f"not enough memory to write {path}")
        if isinstance(err, OSError):
            parser.error(f"cannot write {path}: {err.strerror or err}")
        raise


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_generate(parser: _Parser, args) -> int:
    pattern = _pattern_from_args(parser, args)
    doc = pattern_document(pattern)
    scale = normalization_scale(pattern.surface)
    summary = (
        f"{pattern.surface.kind} pattern: n={pattern.n}"
        f" R={pattern.surface.R if pattern.surface.R is not None else 'inf'}"
        f" mean cell width={math.sqrt(math.pi) * scale:.6g}"
    )
    if args.out:
        _write_text(parser, Path(args.out), doc)
        print(summary)
    else:
        write_json(doc, sys.stdout)
        print(summary, file=sys.stderr)
    return EXIT_OK


def _invariants(tess, boundaries, dist, areas) -> dict:
    checks = {}
    if tess.pattern.surface.kind == SPHERE:
        checks["topological_charge_12"] = int(np.sum(6 - tess.cells.sides)) == 12
    complete = [b for b in boundaries if b.complete]
    checks["no_anomalous_boundary"] = not any(b.anomalous for b in boundaries)
    checks["defect_balance"] = all(b.counts[0] == b.counts[2] for b in complete)
    lo, hi = dist.confinement()
    checks["distance_confinement"] = (
        lo > 0.99 * DISTANCE_MIN and hi < 1.01 * DISTANCE_MAX
    )
    checks["inflation"] = all(ok for _, _, ok in verify_inflation(boundaries))
    checks["mean_area_pi"] = abs(areas.mean - math.pi) < 0.01 * math.pi
    return checks


def _cmd_analyze(parser: _Parser, args) -> int:
    pattern = _pattern_from_args(parser, args)
    try:
        tess = tessellate(pattern)
        boundaries = detect_grain_boundaries(tess)
        dist = distance_series(tess)
        areas = area_series(tess)
        checks = _invariants(tess, boundaries, dist, areas)
    except ValueError as err:
        parser.error(str(err).partition("\n")[0])
    except MemoryError:
        parser.error(f"not enough memory for {pattern.n} sites")

    for b in boundaries:
        word = str(b.word) if b.word is not None else "-"
        print(
            f"ring rank={b.rank} side={b.pole_side} census={b.counts}"
            f" s=[{b.s_range[0]},{b.s_range[1]}]"
            f" complete={b.complete} word={word}"
        )
    for name, ok in checks.items():
        print(f"{'PASS' if ok else 'FAIL'} {name}")

    if args.out:
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as err:
            parser.error(f"cannot create {out}: {err.strerror or err}")
        summary = {
            "surface": _surface_document(pattern.surface),
            "n": pattern.n,
            "boundaries": boundary_rows(boundaries),
            "distance": dist.summary(),
            "area": {"mean": areas.mean, "stddev": areas.stddev,
                     "window": int(areas.window.sum())},
            "invariants": checks,
        }
        _write_text(parser, out / "summary.json", dumps_json(summary))
        if args.format == "json":
            _write_text(parser, out / "tessellation.json", tessellation_document(tess))
        else:
            _write_text(parser, out / "boundaries.csv", boundaries_csv(boundaries))
            _write_text(parser, out / "distances.csv", distance_csv(dist))
            _write_text(parser, out / "areas.csv", area_csv(areas))

    return EXIT_OK if all(checks.values()) else EXIT_ANOMALY


def _cmd_thresholds(parser: _Parser, args) -> int:
    if not 1 <= args.u_max <= 20:
        parser.error("--u-max must be between 1 and 20")
    thresholds = sphere_thresholds(args.u_max)

    def equator_ring(n: int) -> bool:
        return ring_spans_equator(detect_grain_boundaries(tessellate(generate(SPHERE, n))), n)

    rows = []
    for u, n_star in enumerate(thresholds, start=1):
        row = {"u": u, "threshold": n_star}
        # rings born inside the disordered core (depth < CORE_DEPTH at the
        # equator) are invisible to the detector, so skip those thresholds
        if args.empirical and 2 * CORE_DEPTH + 1 < n_star <= EMPIRICAL_N_CAP:
            below = n_star - 2 if (n_star - 2) % 2 == 1 else n_star - 3
            above = n_star + 2 if (n_star + 2) % 2 == 1 else n_star + 3
            row["born_between"] = [below, above]
            row["confirmed"] = (not equator_ring(below)) and equator_ring(above)
        rows.append(row)
        line = f"u={u:2d} threshold={n_star}"
        if "confirmed" in row:
            line += f" empirical={'confirmed' if row['confirmed'] else 'FAILED'}"
        print(line)

    if args.out:
        if args.format == "csv":
            lines = ["u,threshold"] + [f"{r['u']},{r['threshold']}" for r in rows]
            _write_text(parser, Path(args.out), "\n".join(lines) + "\n")
        else:
            curves = []
            for u in range(1, args.u_max + 1):
                birth = thresholds[u - 1]
                # (np.unique would import numpy.ma, about 35 ms, the first time it runs)
                ns = sorted(set(np.round(np.geomspace(birth, 100.0 * birth, 25)).astype(int).tolist()))
                pts = []
                for n in ns:
                    # even n rounds nu down, so the ring may not fit exactly
                    # at the birth threshold; start the curve where it does
                    try:
                        angle = boundary_polar_angle(u, (n - 1) // 2)
                    except ValueError:
                        continue
                    pts.append([n, angle])
                curves.append({"u": u, "points": pts})
            _write_text(
                parser,
                Path(args.out),
                dumps_json({"thresholds": rows, "polar_angle_curves": curves}),
            )
    ok = all(r.get("confirmed", True) for r in rows)
    return EXIT_OK if ok else EXIT_ANOMALY


def _cmd_render(parser: _Parser, args) -> int:
    if args.size < 1:
        parser.error(f"--size must be at least 1, got {args.size}")
    pattern = _pattern_from_args(parser, args)
    try:
        text = render_svg(tessellate(pattern), projection=args.projection, size=args.size)
    except ValueError as err:
        parser.error(str(err).partition("\n")[0])
    except MemoryError:
        parser.error(f"not enough memory for {pattern.n} sites")
    if args.out:
        _write_text(parser, Path(args.out), text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _Parser(prog="phyllo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a pattern as JSON")
    _add_pattern_args(p, with_input=False)
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("analyze", help="tessellate and run the full analysis")
    _add_pattern_args(p, with_input=True)
    p.add_argument("--out", metavar="DIR", help="directory for report files")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("thresholds", help="sphere defect-ring birth thresholds")
    p.add_argument("--u-max", type=int, default=12)
    p.add_argument("--empirical", action="store_true",
                   help="tessellate spheres bracketing each threshold")
    p.add_argument("--out", metavar="FILE")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_thresholds)

    p = sub.add_parser("render", help="draw the tessellation as SVG")
    _add_pattern_args(p, with_input=True)
    p.add_argument("--projection", choices=PROJECTIONS)
    p.add_argument("--size", type=int, default=900, help="image size in px")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=_cmd_render)

    args = parser.parse_args(argv)
    # subparser errors must exit 1 as well; they share the _Parser class
    try:
        return args.func(parser, args)
    except MemoryError:  # one that no command step names more precisely
        parser.error(f"not enough memory to finish {args.command}")


if __name__ == "__main__":
    sys.exit(main())
