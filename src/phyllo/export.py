"""Deterministic serialization of patterns, tessellations and reports.

JSON is the interchange format and CSV the plotting convenience.  Output is
byte-stable: floats are always written with 17 significant digits (which
round-trips any double exactly), keys keep a fixed order, and nothing
records a timestamp.

The documents are dicts written by one generic writer, dumps_json, except
for their large lists: the sites of a pattern and the cells of a
tessellation.  Those are written column by column, at most
tessellation._BLOCK rows at a time.  Each block formats its numeric columns
from ``.tolist()`` with ``format(x, ".17g")`` (NaN as null), each distinct
value once (_distinct_text, which render_svg uses as well): the chart
vertices that neighboring cells share, and on the plane the equal radii
rho and r.  The columns fill one row template per document.  A document
holds its list as a _JsonRows, which renders the blocks only while it is
written: write_json writes each block's text to its stream as soon as it
is made and keeps nothing, so the whole text of a tessellation is never in
memory.  The text is the same as the generic writer gives for a list of
per-row dicts.  The three CSV files fill a row template from slices of
their columns in the same way, _BLOCK rows at a time, and return their
text.
"""

from __future__ import annotations

import io
import json
import math
from itertools import islice, repeat

import numpy as np

from .generator import PhylloPattern, generate
from .geometry import SPHERE, SurfaceSpec
from .tessellation import _BLOCK, Tessellation

__all__ = [
    "dumps_json",
    "write_json",
    "pattern_document",
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


def _g17(values: np.ndarray) -> list[str]:
    """17-significant-digit text of each value of a 1-D float array."""
    return list(map(format, values.tolist(), repeat(".17g")))


def _json_floats(values: np.ndarray) -> list[str]:
    """JSON text of each value of a 1-D float array: _g17, NaN as null."""
    text = _g17(values)
    for k in np.flatnonzero(np.isnan(values)).tolist():
        text[k] = "null"
    return text


def _distinct_text(values: np.ndarray, fmt):
    """Iterator over the strings fmt(values.ravel()) gives, each distinct value formatted once.

    Values compare bit for bit, which keeps -0.0 apart from 0.0.
    """
    bits, inverse = np.unique(values.ravel().view(np.int64), return_inverse=True)
    return map(fmt(bits.view(np.float64)).__getitem__, inverse.tolist())


class _JsonRows:
    """JSON list of n rows, rendered _BLOCK rows at a time whenever it is iterated.

    rows(lo, hi) yields the text of rows lo..hi-1.  Iteration yields the
    text of one block at a time, which _write_json writes verbatim and
    separates with ", " like any list items; nothing is kept between
    blocks, so a document can be written any number of times.
    """

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows):
        self.n, self.rows = n, rows

    def __iter__(self):
        for lo in range(0, self.n, _BLOCK):
            yield ", ".join(self.rows(lo, min(lo + _BLOCK, self.n)))


def dumps_json(doc) -> str:
    """Canonical JSON text: fixed key order, 17-significant-digit floats."""
    out = io.StringIO()
    write_json(doc, out)
    return out.getvalue()


def write_json(doc, out) -> None:
    """dumps_json(doc) written to a text stream, without building the whole text."""
    _write_json(doc, out)
    out.write("\n")


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
    elif isinstance(node, (list, tuple, np.ndarray, _JsonRows)):
        # the items of a _JsonRows are blocks of JSON text already
        write = out.write if isinstance(node, _JsonRows) else lambda item: _write_json(item, out)
        out.write("[")
        for k, item in enumerate(node):
            if k:
                out.write(", ")
            write(item)
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
    template = '{"s": %d, "rho": %s, "theta": %s, "r": %s'
    columns = [pattern.rho, np.mod(pattern.theta, TWO_PI), pattern.r]
    if pattern.phi is not None:
        template += ', "phi": %s'
        columns.append(pattern.phi)
    if pattern.xyz is not None:
        template += ', "xyz": [%s, %s, %s]'
        columns.extend(pattern.xyz.T)
    template += "}"

    def rows(lo: int, hi: int):
        # row by row, so that one iterator fills every float of a row
        text = _distinct_text(np.column_stack([column[lo:hi] for column in columns]), _json_floats)
        return map(template.__mod__, zip(pattern.s[lo:hi].tolist(), *[text] * len(columns)))

    return {
        "schema": PATTERN_SCHEMA,
        "surface": _surface_document(pattern.surface),
        "n": pattern.n,
        "indexing": pattern.indexing,
        "sites": _JsonRows(pattern.n, rows),
    }


_JSON_TYPES = {
    int: "an integer",
    float: "a number",
    str: "a string",
    dict: "an object",
    list: "an array",
}


def _field(node, key: str, kind: type, where: str):
    """node[key] if node is an object holding a value of that JSON type.

    float accepts any JSON number that a double can hold and returns it as
    a float.  Anything else raises a ValueError that names the missing or
    mistyped field.
    """
    if not isinstance(node, dict):
        raise ValueError(f"{where} is not a JSON object")
    if key not in node:
        raise ValueError(f"{where} has no {key!r} field")
    value = node[key]
    kinds = (int, float) if kind is float else kind
    if not isinstance(value, kinds) or isinstance(value, bool):
        raise ValueError(f"{where} field {key!r} is not {_JSON_TYPES[kind]}")
    if kind is float:
        try:
            return float(value)
        except OverflowError:
            raise ValueError(f"{where} field {key!r} is too large for a double") from None
    return value


def _site_numbers(sites: list, key: str) -> np.ndarray:
    """The number under key in every site; a ValueError names the first bad site."""
    try:
        values = [site[key] for site in sites]
        if set(map(type, values)) <= {int, float}:
            return np.array(values, dtype=float)
    except (KeyError, TypeError, OverflowError):
        pass
    return np.array([_field(site, key, float, f"site {k}") for k, site in enumerate(sites)])


def pattern_from_document(doc: dict) -> PhylloPattern:
    """Regenerate a pattern from its JSON document.

    Generation is deterministic, so the stored parameters are authoritative
    and the sites are rebuilt rather than trusted; stored coordinates are
    cross-checked against the rebuild (theta modulo full turns).  A missing
    or mistyped field raises a ValueError that names it.
    """
    if not isinstance(doc, dict):
        raise ValueError("not a pattern document (the top level is not a JSON object)")
    if doc.get("schema") != PATTERN_SCHEMA:
        raise ValueError(f"not a pattern document (schema {doc.get('schema')!r})")
    surface = _field(doc, "surface", dict, "document")
    kind = _field(surface, "kind", str, "surface")
    kwargs = {"lam": _field(surface, "lambda", float, "surface")}
    if "indexing" in doc:
        kwargs["indexing"] = _field(doc, "indexing", str, "document")
    if kind != SPHERE:
        kwargs["a"] = _field(surface, "a", float, "surface")
    n = _field(doc, "n", int, "document")
    stored = _field(doc, "sites", list, "document")
    if len(stored) != n:  # before regenerating: n may ask for any amount of memory
        raise ValueError("site list does not match n")
    pattern = generate(kind, n, **kwargs)
    rho = _site_numbers(stored, "rho")
    theta = _site_numbers(stored, "theta")
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
    cells, adjacency, offsets = tess.cells, tess.adjacency, tess.vertex_offsets
    template = (
        '{"s": %d, "vertices": [%s], "sides": %d, "area": %s, "isBoundary": %s,'
        ' "neighborDeltas": [%s]}'
    )
    delta, indptr = adjacency.delta, adjacency.indptr

    def rows(lo: int, hi: int):
        xy = _distinct_text(tess.vertices[offsets[lo] : offsets[hi]], _json_floats)
        points = map("[%s, %s]".__mod__, zip(xy, xy))
        polygons = [", ".join(islice(points, k)) for k in np.diff(offsets[lo : hi + 1]).tolist()]
        sides = cells.sides[lo:hi].tolist()
        steps = iter(map(str, delta[indptr[lo] : indptr[hi]].tolist()))
        deltas = [", ".join(islice(steps, k)) for k in sides]
        boundary = cells.is_boundary[lo:hi]
        areas = _json_floats(np.where(boundary, math.nan, cells.area[lo:hi]))  # boundary: null
        flags = map(("false", "true").__getitem__, boundary.tolist())
        return map(template.__mod__, zip(range(lo, hi), polygons, sides, areas, flags, deltas))

    return {
        "schema": TESSELLATION_SCHEMA,
        "surface": _surface_document(pattern.surface),
        "n": pattern.n,
        "cells": _JsonRows(pattern.n, rows),
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


def _csv_text(columns, template: str, *values) -> str:
    """CSV text of a header row and one template row per entry of the value arrays.

    Rows are filled _BLOCK at a time from slices of the arrays: float
    columns as 17-digit text (_g17), the others as their Python values.
    """
    n = len(values[0])
    blocks = [",".join(columns) + "\n"]
    for lo in range(0, n, _BLOCK):
        fields = [
            _g17(v[lo : lo + _BLOCK]) if v.dtype.kind == "f" else v[lo : lo + _BLOCK].tolist()
            for v in values
        ]
        blocks.append("".join(map(template.__mod__, zip(*fields))))
    return "".join(blocks)


def _csv_cell(v) -> str:
    """CSV text of one boundary value: 17-digit floats, an empty field for None."""
    return "" if v is None else format(v, ".17g") if isinstance(v, float) else str(v)


def boundaries_csv(boundaries) -> str:
    rows = boundary_rows(boundaries)
    cells = [np.array([_csv_cell(row[c]) for row in rows], dtype=object) for c in BOUNDARY_COLUMNS]
    return _csv_text(BOUNDARY_COLUMNS, ",".join(["%s"] * len(BOUNDARY_COLUMNS)) + "\n", *cells)


DISTANCE_COLUMNS = ["s_from", "s_to", "rank", "measured", "analytic", "interior"]


def distance_csv(series) -> str:
    return _csv_text(
        DISTANCE_COLUMNS,
        "%d,%d,%d,%s,%s,%s\n",
        series.s_from,
        series.s_to,
        series.rank,
        series.measured,
        series.analytic,
        series.interior,
    )


AREA_COLUMNS = ["s", "area", "in_window"]


def area_csv(series) -> str:
    return _csv_text(AREA_COLUMNS, "%d,%s,%s\n", series.s, series.area, series.window)
