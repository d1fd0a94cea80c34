"""Deterministic serialization of patterns, tessellations and reports.

JSON is the interchange format and CSV the plotting convenience.  Output is
byte-stable: floats are always written with 17 significant digits (which
round-trips any double exactly), keys keep a fixed order, and nothing
records a timestamp.

The documents are dicts written by one generic writer, dumps_json, except
for their large lists: the sites of a pattern and the cells of a
tessellation.  A document holds each as a function that yields the text of
at most tessellation._BLOCK rows at a time, made column by column while it
is written; write_json calls it anew on each writing and writes each block
as soon as it is made, so the whole text of a tessellation is never in
memory.  The floats of a column are made into text by one numpy kernel
(_g_rows), byte for byte ``format(x, ".17g")`` (NaN as null in JSON), and
render_svg's by the same kernel at 6 digits: for a value that the format
writes without an exponent it scales |x| by a power of ten that is exactly
a double, takes the product exactly with Dekker's two-product, rounds it
half to even and writes the digits' ASCII through a table of four-digit
groups; zeros and NaN are constant texts, and every other value is given
to format itself.  Each row's digits are a window of those groups; where
every value of a block has one decimal exponent the windows are the same
plain slices in every row, and otherwise they are gathered row by row.
Every table is then made from two primitives.  A layout (_layout) copies
parts side by side into one 0-filled byte array: a column's ASCII rows
padded with 0 fill its slot row by row, and a literal fills its slot in
every row; the text is the array's nonzero bytes.  A list layout
(_list_layout) puts each row's items, rows of ASCII themselves, into
padded slots, with a separator before every item but the first.  The
sites and the distance and area CSV tables are a layout per block of
their columns and literals (_byte_rows), each column made into rows once
by its dtype: floats by the kernel, integers by the same four-digit
groups, booleans from a table of two rows (on the plane, r is the array
rho).  A block of tessellation.json's cells is one layout of s, the list
layout of its vertices, sides, area, isBoundary and the list layout of
its link steps; each distinct vertex the block lists is made into one
``[x, y]`` row once, and its polygons take those rows in order.
render_svg draws its polygons with the same two primitives.  The text is
the same as the generic writer gives for a list of per-row dicts.  The
ring columns are declared once, in BOUNDARY_COLUMNS.
"""

from __future__ import annotations

import io
import json
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


#: 10**p for p = 0..20, each exactly a double (5**20 < 2**53)
_POW10 = np.array([float(10**p) for p in range(21)])
_SPLITTER = 2.0**27 + 1.0  # Veltkamp's split of a double into two 26-bit halves


def _four_digit_table() -> np.ndarray:
    """The ASCII of each k < 10**4 as four digits in one uint32, then again with trailing zeros 0.

    Every digit's byte has the bit 32 set, so OR-ing a blank byte (32 or 0)
    into the second half writes those trailing zeros as that blank.
    """
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + 48  # row k: the digits of k
    trailing = np.logical_and.accumulate(digits[:, ::-1] == 48, axis=1)[:, ::-1]
    return np.concatenate([digits, np.where(trailing, 0, digits)]).copy().view(np.uint32).ravel()


_FOUR_DIGITS = _four_digit_table()


def _split(a: np.ndarray):
    """Veltkamp's split: (high, low) with high + low == a, each of at most 26 significant bits."""
    high = _SPLITTER * a
    high -= high - a
    return high, a - high


def _g_rows(values: np.ndarray, digits: int, blank: int = 32, nan: str = "nan") -> np.ndarray:
    """format(x, f".{digits}g") of each value of a 1-D float array, as rows of ASCII.

    Row k of the (m, w) uint8 array is the text of values[k] (nan for NaN)
    followed by at least one blank byte: 32, or 0 where the rows are joined
    by dropping their blanks (no text holds a 0).  digits is 6 or 17.

    A value of decimal exponent -4 <= E < digits, which the format writes
    without an exponent, has the digits D = round(|x| * 10**(digits - 1 - E)).
    10**(digits - 1 - E) is a double, and Dekker's two-product gives the
    product exactly as p + err.  D is q = floor(p) + rint(err) plus a
    carry of one where the rest ((p - floor(p)) - 0.5) + (err - rint(err))
    is positive, or zero and q odd: half to even, as format rounds.  The
    sign of the rest is exact, for its two terms are exact differences of
    doubles and a rounded sum has the sign of the exact sum.  At 17 digits
    p exceeds 2**53, so it is an even integer and the carry is 0; at 6
    digits rint(err) is 0.  Zeros and NaN are constant texts; any other
    value, and one whose D shows that log10 misjudged E or that the
    rounding carried into a new digit (999999.5 at 6 digits), is given to
    format.
    """
    x = np.asarray(values, dtype=float)
    m = len(x)
    magnitude = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        exponent = np.floor(np.log10(magnitude))
    fast = (exponent >= -4) & (exponent < digits)  # false for zeros, infinities and NaN
    exponent = np.where(fast, exponent, 0).astype(np.intp)
    magnitude = np.where(fast, magnitude, 1.0)
    scale = _POW10[digits - 1 - exponent]
    p = magnitude * scale
    (x_hi, x_lo), (s_hi, s_lo) = _split(magnitude), _split(scale)
    err = ((x_hi * s_hi - p) + x_hi * s_lo + x_lo * s_hi) + x_lo * s_lo
    floor, step = np.floor(p), np.rint(err)
    rest = ((p - floor) - 0.5) + (err - step)
    q = floor.astype(np.int64) + step.astype(np.int64)
    q += (rest > 0) | ((rest == 0) & (q & 1 == 1))
    fast &= (q >= 10 ** (digits - 1)) & (q < 10**digits)
    # D as a lead digit and g four-digit groups, first group first, padded
    # with trailing zeros; rows whose text is replaced below get any digits
    q[~fast] = 10 ** (digits - 1)
    g = (digits + 2) // 4
    q *= 10 ** (4 * g + 1 - digits)
    high, low = np.divmod(q, 10**8)
    groups = np.empty((m, g), dtype=np.uint32)
    groups[:, -2], groups[:, -1] = np.divmod(low.astype(np.uint32), 10**4)
    lead = high.astype(np.uint32)
    for k in range(g - 3, -1, -1):
        lead, groups[:, k] = np.divmod(lead, 10**4)
    lead = lead.astype(np.uint8) + 48
    # The integer part of a value, with its sign, is the window of head that
    # ends at the digit of 10**0; its fraction is the window of tail that
    # starts at the digit of 10**-1, where trailing zeros are blank.
    head = np.full((m, digits + 3 + 4 * g), blank, dtype=np.uint8)  # blanks, the sign, the digits
    head[:, digits + 1] = np.where(np.signbit(x), 45, blank)
    head[:, digits + 2] = np.where(exponent < 0, 48, lead)  # the integer part of |x| < 1 is 0
    head[:, digits + 3 :] = np.take(_FOUR_DIGITS, groups).view(np.uint8)
    stripped = np.zeros((m, g), dtype=np.uint32)  # 10**4 where every later group is 0
    stripped[:, -1] = 10_000
    for k in range(g - 2, -1, -1):
        stripped[:, k] = np.where(groups[:, k + 1] == 0, stripped[:, k + 1], 0)
    tail = np.full((m, 2 * digits + 7), blank, dtype=np.uint8)  # "0000", the digits, blanks
    tail[:, :4] = 48
    tail[:, 4] = lead
    blanks = np.uint32(0x01010101 * blank)  # the blank byte in each byte of a group
    tail[:, 5 : 5 + 4 * g] = (np.take(_FOUR_DIGITS, groups + stripped) | blanks).view(np.uint8)
    zero, nans = x == 0, np.isnan(x)
    slow = np.flatnonzero(~(fast | zero | nans)).tolist()
    texts = [format(x[k].item(), f".{digits}g") for k in slow]
    # A row of text: the sign and integer digits right-aligned, the point,
    # the fraction digits and blanks, each part as wide as this array needs.
    width = int(exponent.max(initial=0)) + 2
    places = digits - 1 - int(exponent.min(initial=0))
    size = max(width + places + 2, len(nan) + 1, *[len(text) + 1 for text in texts])
    out = np.empty((m, size), dtype=np.uint8)
    if m and exponent.min() == exponent.max():  # one exponent: the same windows in every row
        e = int(exponent[0])
        start = digits + 3 - width + max(e, 0)
        out[:, :width] = head[:, start : start + width]
        out[:, width + 1 : width + 1 + places] = tail[:, e + 5 : e + 5 + places]
    else:
        rows = np.arange(m)
        start = digits + 3 - width + np.maximum(exponent, 0)
        out[:, :width] = sliding_window_view(head, width, axis=1)[rows, start]
        out[:, width + 1 : width + 1 + places] = sliding_window_view(tail, places, axis=1)[rows, exponent + 5]
    out[:, width] = np.where(out[:, width + 1] == blank, blank, 46)
    out[:, width + 1 + places :] = blank
    out[zero, width - 1] = 48
    out[zero, width:] = blank
    for where, text in [(nans, nan), *zip(slow, texts)]:
        out[where] = np.frombuffer(text.ljust(size, chr(blank)).encode(), dtype=np.uint8)
    return out


#: 10**k for k = 1..19: an integer of magnitude at least 10**k has more than k digits
_DIGIT_EDGES = 10 ** np.arange(1, 20, dtype=np.uint64)

#: str(False) and str(True), and JSON's false and true, as 0-padded rows of ASCII
_BOOLS = np.array([list(b"False"), list(b"True\0")], dtype=np.uint8)
_JSON_BOOLS = np.array([list(b"false"), list(b"true\0")], dtype=np.uint8)


def _int_rows(values: np.ndarray) -> np.ndarray:
    """str(k) of each value of a 1-D integer array, as rows of ASCII padded with 0.

    |k| is written as four-digit groups through _FOUR_DIGITS, as many as the
    largest |k| needs, with its leading zeros blanked, and a negative k has a
    - before its first digit.
    """
    k = np.asarray(values, dtype=np.int64)
    magnitude = np.abs(k).astype(np.uint64)  # -2**63 is its own absolute value, 2**63 as unsigned
    count = np.searchsorted(_DIGIT_EDGES, magnitude, side="right") + 1  # the digits of |k|
    g = (int(count.max(initial=1)) + 3) // 4
    groups = np.empty((len(k), g), dtype=np.uint32)
    for j in range(g - 1, -1, -1):
        magnitude, groups[:, j] = np.divmod(magnitude, 10**4)
    out = np.zeros((len(k), 4 * g + 1), dtype=np.uint8)  # a sign, then the groups
    out[:, 1:] = np.take(_FOUR_DIGITS, groups).view(np.uint8)
    first = 4 * g + 1 - count  # the column of the first digit
    out *= np.arange(4 * g + 1) >= first[:, None]
    negative = np.flatnonzero(k < 0)
    out[negative, first[negative] - 1] = 45
    return out


def _layout(parts: list) -> np.ndarray:
    """The parts side by side, in order, in one 0-filled uint8 array.

    A part of (m, w) bytes fills its slot of w columns row by row, and a
    literal (bytes) fills its slot in every row.  The text of the rows is
    the array's nonzero bytes (_text).
    """
    widths = [len(part) if isinstance(part, bytes) else part.shape[1] for part in parts]
    m = next(len(part) for part in parts if not isinstance(part, bytes))
    out = np.zeros((m, sum(widths)), dtype=np.uint8)
    at = 0
    for part, width in zip(parts, widths):
        out[:, at : at + width] = np.frombuffer(part, dtype=np.uint8) if isinstance(part, bytes) else part
        at += width
    return out


def _list_layout(items: np.ndarray, counts: np.ndarray, sep: bytes) -> np.ndarray:
    """Row j of the (m, kmax * (len(sep) + w)) uint8 array: the next counts[j] rows of items.

    The (sum(counts), w) rows of items are taken in turn, each into a slot
    of len(sep) + w bytes that starts with sep, except the first slot of a
    row; slots past a row's count, like the padding of an item, are 0.
    """
    m, (n, w), k = len(counts), items.shape, int(counts.max(initial=0))
    out = np.zeros((m * k, len(sep) + w), dtype=np.uint8)  # a row per slot
    at = np.arange(n) + np.repeat(np.arange(m) * k - (np.cumsum(counts) - counts), counts)
    out[at, len(sep) :] = items
    out[at, : len(sep)] = np.frombuffer(sep, dtype=np.uint8)
    out[:: k or 1, : len(sep)] = 0  # no sep before a row's first item
    return out.reshape(m, k * (len(sep) + w))


def _text(rows: np.ndarray) -> str:
    """The nonzero bytes of a uint8 array, row after row, as ASCII text."""
    return str(rows[rows != 0], "ascii")


def _byte_rows(columns: list, literals: list[str], nan: str = "nan"):
    """Per block of at most _BLOCK rows, the text of its rows: literals and column texts in turn.

    Row k is literals[0], the text of columns[0][k], literals[1], ..., the
    text of columns[-1][k], literals[-1].  A float is written as
    format(x, ".17g") (nan as the text of NaN), an integer and a boolean as
    str writes them.  Each column of a block is made into ASCII rows padded
    with 0 once, even if listed twice (the same array), and laid out with
    the literals.
    """

    def rows(part: np.ndarray) -> np.ndarray:
        if part.dtype.kind == "f":
            return _g_rows(part, 17, blank=0, nan=nan)
        return _BOOLS[part.view(np.uint8)] if part.dtype.kind == "b" else _int_rows(part)

    literals = [literal.encode() for literal in literals]
    distinct = {id(column): column for column in columns}
    for lo in range(0, len(columns[0]), _BLOCK):
        made = {key: rows(column[lo : lo + _BLOCK]) for key, column in distinct.items()}
        parts = [literals[0]]
        for column, literal in zip(columns, literals[1:]):
            parts += [made[id(column)], literal]
        yield _text(_layout(parts))


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
        # text of one block of items at a time
        items = node() if callable(node) else node
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
    literals = ['{"s": ', ', "rho": ', ', "theta": ', ', "r": ']
    columns = [pattern.r]  # on the plane the array rho itself, made into text once
    if pattern.phi is not None:
        literals.append(', "phi": ')
        columns.append(pattern.phi)
    if pattern.xyz is not None:
        literals += [', "xyz": [', ", ", ", "]
        columns.extend(pattern.xyz.T)
    literals.append("]}, " if pattern.xyz is not None else "}, ")

    def sites():
        blocks = _byte_rows([pattern.s, pattern.rho, np.mod(pattern.theta, TWO_PI), *columns], literals, "null")
        return (text[:-2] for text in blocks)  # each block's rows, joined by ", "

    return {
        "schema": PATTERN_SCHEMA,
        "surface": _surface_document(pattern.surface),
        "n": pattern.n,
        "indexing": pattern.indexing,
        "sites": sites,
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
    cells, offsets, index = tess.cells, tess.vertex_offsets, tess.vertex_index
    delta, indptr = tess.adjacency.delta, tess.adjacency.indptr

    def points(lo: int, hi: int) -> np.ndarray:
        """The [x, y] row of each vertex cells lo..hi-1 list; each distinct vertex is made into text once."""
        read = index[offsets[lo] : offsets[hi]]
        order = np.argsort(read, kind="stable")  # not np.unique: see tessellation._blocks
        ordered = read[order]
        first = np.ones(len(read), dtype=bool)
        np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
        inverse = np.empty(len(read), dtype=np.intp)
        inverse[order] = np.cumsum(first) - 1
        xy = _g_rows(tess.vertices[ordered[first]].ravel(), 17, blank=0, nan="null")
        return _layout([b"[", xy[0::2], b", ", xy[1::2], b"]"])[inverse]

    def parts(lo: int, hi: int) -> list:
        """The parts of the rows of cells lo..hi-1, for _layout."""
        sides = cells.sides[lo:hi]
        return [
            b'{"s": ',
            _int_rows(np.arange(lo, hi)),
            b', "vertices": [',
            _list_layout(points(lo, hi), np.diff(offsets[lo : hi + 1]), b", "),
            b'], "sides": ',
            _int_rows(sides),
            b', "area": ',
            _g_rows(cells.area[lo:hi], 17, blank=0, nan="null"),  # a boundary cell's nan: null
            b', "isBoundary": ',
            _JSON_BOOLS[cells.is_boundary[lo:hi].view(np.uint8)],
            b', "neighborDeltas": [',
            _list_layout(_int_rows(delta[indptr[lo] : indptr[hi]]), sides, b", "),
            b"]}, ",
        ]

    def blocks():
        for lo in range(0, pattern.n, _BLOCK):
            # the block's cells, joined by ", "; in one expression, so that
            # none of the block's arrays is kept while the text is written
            yield _text(_layout(parts(lo, min(lo + _BLOCK, pattern.n))))[:-2]

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
    literals = ["", *[","] * (len(columns) - 1), "\n"]
    return "".join([",".join(columns) + "\n", *_byte_rows(list(columns.values()), literals)])


def distance_csv(series) -> str:
    names = ("s_from", "s_to", "rank", "measured", "analytic", "interior")
    return _csv_text({name: getattr(series, name) for name in names})


def area_csv(series) -> str:
    return _csv_text({"s": series.s, "area": series.area, "in_window": series.window})
