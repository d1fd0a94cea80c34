"""Deterministic serialization of patterns, tessellations and reports.

JSON is the interchange format and CSV the plotting convenience.  Output is
byte-stable: floats are always written with 17 significant digits (which
round-trips any double exactly), keys keep a fixed order, and nothing
records a timestamp.

The documents are dicts written by one generic writer, dumps_json, except
for their large lists: the sites of a pattern and the cells of a
tessellation.  A document holds each as a function that yields the texts of
at most tessellation._BLOCK rows at a time, made column by column while it
is written; write_json calls it anew on each writing and writes each block
as soon as it is made, so the whole text of a tessellation is never in
memory.  Floats are formatted from ``.tolist()`` with ``format(x, ".17g")``
(NaN as null).  The sites and the distance and area CSV tables are made by
one row loop (_row_blocks) that makes each column of a block into text
once, by its dtype (on the plane, r is the array rho).  Each row of the
tessellation's vertex table is formatted into ``[x, y]`` once per writing,
by the first block that lists it, and kept until the last (_shared_rows,
which joins each cell's polygon and which render_svg uses as well); within
a block, each distinct list of a cell's link steps is made into text once
(_distinct_rows).  The text is the same as the generic writer gives for a
list of per-row dicts.  The ring columns are declared once, in
BOUNDARY_COLUMNS.
"""

from __future__ import annotations

import io
import json
import math
from itertools import islice, repeat

import numpy as np

from .generator import PhylloPattern, generate
from .geometry import SPHERE, SurfaceSpec
from .tessellation import _BLOCK, Tessellation, _blocks

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


def _row_blocks(columns: list, fmt, template: str):
    """Per block of at most _BLOCK rows, an iterator over template % row of the columns.

    Float columns are made into text by fmt, which maps a 1-D array to a
    list, and other columns by ``.tolist()``; a column listed twice (the
    same array) is made into text once per block.
    """
    for lo in range(0, len(columns[0]), _BLOCK):
        parts = {id(column): column[lo : lo + _BLOCK] for column in columns}
        text = {key: fmt(part) if part.dtype.kind == "f" else part.tolist() for key, part in parts.items()}
        yield map(template.__mod__, zip(*[text[id(column)] for column in columns]))


def _distinct_rows(rows: np.ndarray, template: str):
    """Iterator over template % tuple(row) for each row of an (m, k) integer array.

    Each distinct row is filled once, and equal rows share its text.
    """
    m = len(rows)
    order = np.lexsort(rows.T)
    ordered = rows[order]
    first = np.ones(m, dtype=bool)
    np.any(ordered[1:] != ordered[:-1], axis=1, out=first[1:])
    inverse = np.empty(m, dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    filled = list(map(template.__mod__, map(tuple, ordered[first].tolist())))
    return map(filled.__getitem__, inverse.tolist())


def _shared_rows(table: np.ndarray, index: np.ndarray, offsets: np.ndarray, fmt, template: str, sep: str):
    """Per block of at most _BLOCK polygons, the text of each polygon.

    Polygon j has the corners table[index[offsets[j]:offsets[j + 1]]], and
    its text is sep.join(template % tuple(fmt(corner)) for each corner).
    Each row of the (m, k) table is formatted and filled once, by the first
    block that reads it (fmt is called once per block, on those rows
    flattened), and its text is dropped after the last block that reads it.
    """
    last = np.full(len(table), -1)
    np.maximum.at(last, index, np.arange(len(index)))
    text, done = np.empty(len(table), dtype=object), np.zeros(len(table), dtype=bool)
    for lo in range(0, len(offsets) - 1, _BLOCK):
        corners = offsets[lo : lo + _BLOCK + 1]
        read = index[corners[0] : corners[-1]]
        new = np.sort(read[~done[read]])
        new = new[np.diff(new, prepend=-1) != 0]
        done[new] = True
        values = iter(fmt(table[new].ravel()))
        text[new] = list(map(template.__mod__, zip(*[values] * table.shape[1])))
        texts = iter(text[read].tolist())
        text[read[last[read] < corners[-1]]] = None
        yield [sep.join(islice(texts, k)) for k in np.diff(corners).tolist()]


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
    elif isinstance(node, (list, tuple, np.ndarray)) or callable(node):
        # a function is a list made while it is written: it yields the JSON
        # texts of one block of items at a time
        items = map(", ".join, node()) if callable(node) else node
        write = out.write if callable(node) else lambda item: _write_json(item, out)
        out.write("[")
        for k, item in enumerate(items):
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
    columns = [pattern.r]  # on the plane the array rho itself, made into text once
    if pattern.phi is not None:
        template += ', "phi": %s'
        columns.append(pattern.phi)
    if pattern.xyz is not None:
        template += ', "xyz": [%s, %s, %s]'
        columns.extend(pattern.xyz.T)
    template += "}"
    return {
        "schema": PATTERN_SCHEMA,
        "surface": _surface_document(pattern.surface),
        "n": pattern.n,
        "indexing": pattern.indexing,
        "sites": lambda: _row_blocks(
            [pattern.s, pattern.rho, np.mod(pattern.theta, TWO_PI), *columns], _json_floats, template
        ),
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

    def blocks():
        polygons = _shared_rows(tess.vertices, tess.vertex_index, offsets, _json_floats, "[%s, %s]", ", ")
        for lo, texts in zip(range(0, pattern.n, _BLOCK), polygons):
            hi = min(lo + _BLOCK, pattern.n)
            sides = cells.sides[lo:hi]
            deltas = np.empty(hi - lo, dtype=object)
            for k, rows in _blocks(sides):  # the steps of k-sided cells as (m, k) rows
                steps = delta[indptr[lo + rows, None] + np.arange(k)]
                deltas[rows] = list(_distinct_rows(steps, ", ".join(["%d"] * k)))
            areas = _json_floats(cells.area[lo:hi])  # a boundary cell's nan: null
            flags = map(("false", "true").__getitem__, cells.is_boundary[lo:hi].tolist())
            yield map(template.__mod__, zip(range(lo, hi), texts, sides.tolist(), areas, flags, deltas))

    return {
        "schema": TESSELLATION_SCHEMA,
        "surface": _surface_document(pattern.surface),
        "n": pattern.n,
        "cells": blocks,
    }


#: The ring columns of summary.json and boundaries.csv, with each one's value.
BOUNDARY_COLUMNS = {
    "rank": lambda b: b.rank,
    "pole_side": lambda b: b.pole_side,
    "s_lo": lambda b: b.s_range[0],
    "s_hi": lambda b: b.s_range[1],
    "heptagons": lambda b: b.counts[0],
    "hexagons": lambda b: b.counts[1],
    "pentagons": lambda b: b.counts[2],
    "complete": lambda b: b.complete,
    "anomalous": lambda b: b.anomalous,
    "dipoles": lambda b: len(b.dipoles),
    "mean_radius": lambda b: b.mean_radius,
    "perimeter": lambda b: b.perimeter,
    "word": lambda b: b.word or "",
}


def boundary_rows(boundaries) -> list[dict]:
    return [{name: value(b) for name, value in BOUNDARY_COLUMNS.items()} for b in boundaries]


def _csv_cell(v) -> str:
    """CSV text of one boundary value: 17-digit floats, an empty field for None."""
    return "" if v is None else format(v, ".17g") if isinstance(v, float) else str(v)


def boundaries_csv(boundaries) -> str:
    lines = [",".join(BOUNDARY_COLUMNS)]
    lines += [",".join(map(_csv_cell, row.values())) for row in boundary_rows(boundaries)]
    return "\n".join(lines) + "\n"


def _csv_text(columns: dict) -> str:
    """CSV text of a {name: array} table: a header of the names, then one row per entry."""
    template = ",".join(["%s"] * len(columns)) + "\n"
    blocks = _row_blocks(list(columns.values()), _g17, template)
    return "".join([",".join(columns) + "\n", *map("".join, blocks)])


def distance_csv(series) -> str:
    names = ("s_from", "s_to", "rank", "measured", "analytic", "interior")
    return _csv_text({name: getattr(series, name) for name in names})


def area_csv(series) -> str:
    return _csv_text({"s": series.s, "area": series.area, "in_window": series.window})
