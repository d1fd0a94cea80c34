"""Deterministic serialization of patterns, tessellations and reports.

JSON is the interchange format and CSV the plotting convenience.  Output is
byte-stable: floats are always written with 17 significant digits (which
round-trips any double exactly), keys keep a fixed order, and nothing
records a timestamp.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

from .generator import PhylloPattern, generate
from .geometry import SPHERE, SurfaceSpec
from .tessellation import Tessellation

__all__ = [
    "PATTERN_SCHEMA",
    "TESSELLATION_SCHEMA",
    "dumps_json",
    "pattern_document",
    "pattern_from_document",
    "load_pattern",
    "tessellation_document",
    "boundary_rows",
    "boundaries_csv",
    "distance_csv",
    "area_csv",
]

PATTERN_SCHEMA = "phyllo.pattern/1"
TESSELLATION_SCHEMA = "phyllo.tessellation/1"

TWO_PI = 2.0 * math.pi


def _format_float(x: float) -> str:
    if math.isnan(x):
        return "null"
    return format(x, ".17g")


def dumps_json(doc) -> str:
    """Canonical JSON text: fixed key order, 17-significant-digit floats."""
    out = io.StringIO()
    _write_json(doc, out)
    out.write("\n")
    return out.getvalue()


def _write_json(node, out) -> None:
    if node is None:
        out.write("null")
    elif node is True:
        out.write("true")
    elif node is False:
        out.write("false")
    elif isinstance(node, str):
        out.write(json.dumps(node))
    elif isinstance(node, (int, np.integer)):
        out.write(str(int(node)))
    elif isinstance(node, (float, np.floating)):
        out.write(_format_float(float(node)))
    elif isinstance(node, dict):
        out.write("{")
        for k, key in enumerate(node):
            if k:
                out.write(", ")
            out.write(json.dumps(key))
            out.write(": ")
            _write_json(node[key], out)
        out.write("}")
    elif isinstance(node, (list, tuple, np.ndarray)):
        out.write("[")
        for k, item in enumerate(node):
            if k:
                out.write(", ")
            _write_json(item, out)
        out.write("]")
    else:
        raise TypeError(f"cannot serialize {type(node).__name__}")


def _surface_document(surface: SurfaceSpec) -> dict:
    return {
        "kind": surface.kind,
        "R": surface.R,
        "a": surface.a,
        "lambda": surface.lam,
    }


def pattern_document(pattern: PhylloPattern) -> dict:
    """Pattern as a JSON-ready document; angles reduced to [0, 2pi) here only."""
    sites = []
    for k in range(pattern.n):
        site = {
            "s": int(pattern.s[k]),
            "rho": float(pattern.rho[k]),
            "theta": float(np.mod(pattern.theta[k], TWO_PI)),
            "r": float(pattern.r[k]),
        }
        if pattern.phi is not None:
            site["phi"] = float(pattern.phi[k])
        if pattern.xyz is not None:
            site["xyz"] = [float(v) for v in pattern.xyz[k]]
        sites.append(site)
    return {
        "schema": PATTERN_SCHEMA,
        "surface": _surface_document(pattern.surface),
        "n": pattern.n,
        "indexing": pattern.indexing,
        "sites": sites,
    }


def pattern_from_document(doc: dict) -> PhylloPattern:
    """Regenerate a pattern from its JSON document.

    Generation is deterministic, so the stored parameters are authoritative
    and the sites are rebuilt rather than trusted; stored coordinates are
    cross-checked against the rebuild (theta modulo full turns).
    """
    if doc.get("schema") != PATTERN_SCHEMA:
        raise ValueError(f"not a pattern document (schema {doc.get('schema')!r})")
    surface = doc["surface"]
    kind = surface["kind"]
    kwargs = {"lam": surface["lambda"], "indexing": doc.get("indexing", "integer")}
    if kind != SPHERE:
        kwargs["a"] = surface["a"]
    pattern = generate(kind, int(doc["n"]), **kwargs)
    stored = doc["sites"]
    if len(stored) != pattern.n:
        raise ValueError("site list does not match n")
    rho = np.array([site["rho"] for site in stored])
    theta = np.array([site["theta"] for site in stored])
    if not np.allclose(rho, pattern.rho, rtol=1e-12, atol=1e-12):
        raise ValueError("stored radii disagree with regeneration")
    dev = np.abs(np.mod(pattern.theta, TWO_PI) - theta)
    if not np.all(np.minimum(dev, TWO_PI - dev) < 1e-9):
        raise ValueError("stored azimuths disagree with regeneration")
    return pattern


def load_pattern(path) -> PhylloPattern:
    with open(path, "r", encoding="utf-8") as fh:
        return pattern_from_document(json.load(fh))


def tessellation_document(tess: Tessellation) -> dict:
    pattern = tess.pattern
    cells = []
    for cell in tess.cells:
        cells.append(
            {
                "s": cell.s,
                "vertices": [[float(x), float(y)] for x, y in cell.vertices],
                "sides": int(cell.sides),
                "area": None if cell.is_boundary else float(cell.area),
                "isBoundary": bool(cell.is_boundary),
                "neighborDeltas": [link.delta_s for link in tess.adjacency[cell.s]],
            }
        )
    return {
        "schema": TESSELLATION_SCHEMA,
        "surface": _surface_document(pattern.surface),
        "n": pattern.n,
        "cells": cells,
    }


BOUNDARY_COLUMNS = [
    "rank",
    "pole_side",
    "s_lo",
    "s_hi",
    "heptagons",
    "hexagons",
    "pentagons",
    "complete",
    "anomalous",
    "dipoles",
    "mean_radius",
    "perimeter",
    "word",
]


def boundary_rows(boundaries) -> list[dict]:
    rows = []
    for b in boundaries:
        rows.append(
            {
                "rank": b.rank,
                "pole_side": b.pole_side,
                "s_lo": b.s_range[0],
                "s_hi": b.s_range[1],
                "heptagons": b.counts[0],
                "hexagons": b.counts[1],
                "pentagons": b.counts[2],
                "complete": b.complete,
                "anomalous": b.anomalous,
                "dipoles": len(b.dipoles),
                "mean_radius": b.mean_radius,
                "perimeter": b.perimeter,
                "word": str(b.word) if b.word is not None else "",
            }
        )
    return rows


def _csv_text(columns, rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(
            [
                format(v, ".17g") if isinstance(v, float) else v
                for v in (row[c] for c in columns)
            ]
        )
    return out.getvalue()


def boundaries_csv(boundaries) -> str:
    return _csv_text(BOUNDARY_COLUMNS, boundary_rows(boundaries))


DISTANCE_COLUMNS = ["s_from", "s_to", "rank", "measured", "analytic", "interior"]


def distance_csv(series) -> str:
    rows = [
        {
            "s_from": int(series.s_from[k]),
            "s_to": int(series.s_to[k]),
            "rank": int(series.rank[k]),
            "measured": float(series.measured[k]),
            "analytic": float(series.analytic[k]),
            "interior": bool(series.interior[k]),
        }
        for k in range(len(series.measured))
    ]
    return _csv_text(DISTANCE_COLUMNS, rows)


AREA_COLUMNS = ["s", "area", "in_window"]


def area_csv(series) -> str:
    rows = [
        {
            "s": int(series.s[k]),
            "area": float(series.area[k]),
            "in_window": bool(series.window[k]),
        }
        for k in range(len(series.s))
    ]
    return _csv_text(AREA_COLUMNS, rows)
