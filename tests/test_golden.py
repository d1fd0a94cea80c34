"""Byte-stability gate: sha256 of every CLI output for fixed inputs.

Each CLI case runs ``cli.main`` in-process and hashes its standard output
and every file it writes.  A change that alters any output byte of
``generate``, ``analyze`` or ``render`` fails here; a deliberate format
change updates the digests and says why.  The library cases hash the
tessellation document and every neighbor link of patterns the CLI cases
miss: strong curvature (cells of 4 to 8 vertices), half-integer indexing,
and spheres from a few dozen to several thousand sites; further library
cases hash the pattern document of the plane, the disc and half-integer
patterns, whose ``pattern.json`` no CLI case writes.  The reference cases
keep the nested-dict document builders that the column writers of
``phyllo.export`` replaced, and the one-polygon-at-a-time writer that the
block writer of ``render_svg`` replaced, and require the same text from
both; they also take patterns that Qhull triangulates, whose link steps
are not Fibonacci numbers.  Every pattern with a digest is triangulated
from its parastichies, without Qhull, so the digests depend on numpy alone;
they were recorded with numpy 2.4.6, and other builds of numpy, its BLAS or
libm may move the last printed digit of some floats.
"""

import csv
import dataclasses
import hashlib
import io
import math
import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from phyllo import cli
from phyllo.analysis import area_series, detect_grain_boundaries, distance_series
from phyllo.export import (
    BOUNDARY_COLUMNS,
    _distinct_rows,
    _g17,
    _shared_rows,
    _json_floats,
    area_csv,
    boundaries_csv,
    boundary_rows,
    distance_csv,
    dumps_json,
    pattern_document,
    tessellation_document,
)
from phyllo.generator import generate
from phyllo.geometry import HYPERBOLIC
from phyllo.render import CELL_COLORS, FALLBACK_COLOR, render_svg
from phyllo.tessellation import _BLOCK, CELL_TYPE_BY_SIDES, tessellate

CASES = {
    "plane-analyze-json": (
        ["analyze", "--geometry", "plane", "--n", "3000", "--out", "{out}"],
        {
            "stdout": "1cd67734f1e0b2121faa59e377f6d53368485bc8940670efd14c922c09d4348b",
            "summary.json": "d0fc354143083685a97022bcbd861e3e3228782c136e26ed66a01e6126f488b7",
            "tessellation.json": "00f77b8edadeb0a5e1f97664a2d0c4f22d5a4b36977a2e1e3a0ceaab34a049e6",
        },
    ),
    "hyperbolic-analyze-json": (
        ["analyze", "--geometry", "hyperbolic", "--n", "3000", "--a", "0.025",
         "--out", "{out}"],
        {
            "stdout": "77e359a4b93cd27577722d04f0599148f0f981cc6f93aab069d04e40999c50ef",
            "summary.json": "9226434fe94988252a67df072ffa3ab0bc33a4265188aff58a7b0dec1e731fb9",
            "tessellation.json": "831adb10a581a062ac748996ef9d53b41d98a782b319ec7b79648244f5a13acb",
        },
    ),
    "sphere-analyze-csv": (
        ["analyze", "--geometry", "sphere", "--n", "3001", "--format", "csv",
         "--out", "{out}"],
        {
            "stdout": "3b4c8a9346733dfe06d320c3888231609524876e5997fbe4bb8286f7d4d9286c",
            "areas.csv": "c2b150cf01d3eb80748a6cb39c591eae7894fdd63452b0067423eb27e552f1de",
            "boundaries.csv": "4c349e0dbfb07bfdde2aa254b2b4eeee5aa98d5bbc0c9db5d0a00e4591df6bf4",
            "distances.csv": "72d5830252dcf9806b0db4d54710f0517c02459f4f3a85f9c574a7e681dcd26b",
            "summary.json": "40f8a01ea15464df68b50e2d51c12d13a0ba96d935b9553427c17d8128655528",
        },
    ),
    # boundary cells write nan areas and False window rows, which no sphere
    # CSV has
    "plane-analyze-csv": (
        ["analyze", "--geometry", "plane", "--n", "3000", "--format", "csv",
         "--out", "{out}"],
        {
            "stdout": "1cd67734f1e0b2121faa59e377f6d53368485bc8940670efd14c922c09d4348b",
            "areas.csv": "fc6af484416df3721a2abea750d2772857c182361faf03f299d863fa9f577374",
            "boundaries.csv": "9f4d0696aa4c166dc60d271f656ccfaf9b503412a649d6d24b2afebf68bae5b1",
            "distances.csv": "d281ac2903564393daf2f4678d253a18e9241029eee36309ee79cc0ca135f1c4",
            "summary.json": "d0fc354143083685a97022bcbd861e3e3228782c136e26ed66a01e6126f488b7",
        },
    ),
    # the disc's CSV report: five links whose analytic distance is nan
    "hyperbolic-analyze-csv": (
        ["analyze", "--geometry", "hyperbolic", "--n", "3000", "--a", "0.025",
         "--format", "csv", "--out", "{out}"],
        {
            "stdout": "77e359a4b93cd27577722d04f0599148f0f981cc6f93aab069d04e40999c50ef",
            "areas.csv": "5c13ebb2498f5f9158157f04efc8789facecd027289007a509551757346c664b",
            "boundaries.csv": "7663e5160cf0caef0f308d257623c208fdced595ee37319fb0379f4ed17b8d93",
            "distances.csv": "9bc46871a1c7f40cab390357dc8a3bd8a6d08e0036b85e41d21e1eb79756a38a",
            "summary.json": "9226434fe94988252a67df072ffa3ab0bc33a4265188aff58a7b0dec1e731fb9",
        },
    ),
    # the divergence by name: the default's report
    "plane-analyze-lambda-golden": (
        ["analyze", "--geometry", "plane", "--n", "3000", "--lambda", "golden"],
        {"stdout": "1cd67734f1e0b2121faa59e377f6d53368485bc8940670efd14c922c09d4348b"},
    ),
    "hyperbolic-render": (
        ["render", "--geometry", "hyperbolic", "--n", "3000", "--a", "0.025",
         "--out", "{out}/figure.svg"],
        {
            "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "figure.svg": "a47794bf2e2b8f99890fd06c729a0e5ae729ef2da82cf7d3bd2dce85549b6786",
        },
    ),
    "sphere-render": (
        ["render", "--geometry", "sphere", "--n", "3001", "--out", "{out}/figure.svg"],
        {
            "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "figure.svg": "2761ad67a0d74bd1a291088975649e2b42c94b81f838cb57000b30f4c6158ce0",
        },
    ),
    # the plane's extent is computed from the drawn vertices
    "plane-render": (
        ["render", "--geometry", "plane", "--n", "3000", "--out", "{out}/figure.svg"],
        {
            "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "figure.svg": "e8d366da13fdb65ec70355a067906a3205b8dd1c1026d8b3cb0ed42cd4dc03d6",
        },
    ),
    "sphere-render-stereographic": (
        ["render", "--geometry", "sphere", "--n", "3001", "--projection", "stereographic",
         "--out", "{out}/figure.svg"],
        {
            "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "figure.svg": "8d912ee8fec5338cc32e66375d426ea3fa7868afa4b46b68319e912ca5da986b",
        },
    ),
    "sphere-render-chart": (
        ["render", "--geometry", "sphere", "--n", "3001", "--projection", "chart",
         "--out", "{out}/figure.svg"],
        {
            "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "figure.svg": "a8951643a7317a4ad0c021a71b53c6b155a2922b08f5a95936fa9f7b4cf8187d",
        },
    ),
    # cells of 4 to 8 sides: yellow and lightgray fills
    "hyperbolic-render-a0.4": (
        ["render", "--geometry", "hyperbolic", "--n", "3000", "--a", "0.4",
         "--out", "{out}/figure.svg"],
        {
            "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "figure.svg": "82783670c57604942c5043b2d3106a8c96b50347ce09a6e585b3e8b294bb81ca",
        },
    ),
    "sphere-generate": (
        ["generate", "--geometry", "sphere", "--n", "3001", "--out", "{out}/pattern.json"],
        {
            "stdout": "66f6890c517cb750ae8f0a654d9f9cdb7f705c24b96c93f5141fe955a64947e9",
            "pattern.json": "54469c1a852f573e48ed42a7df797364d2e9f9ea2c6fc201040f008d18c38cc8",
        },
    ),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_digests(name, tmp_path, capsys):
    argv, expected = CASES[name]
    out = tmp_path / "out"
    out.mkdir()
    code = cli.main([arg.replace("{out}", str(out)) for arg in argv])
    assert code == 0
    got = {"stdout": _sha256(capsys.readouterr().out.encode("utf-8"))}
    for path in sorted(out.iterdir()):
        got[path.name] = _sha256(path.read_bytes())
    assert got == expected


LIBRARY_CASES = {
    # (generate arguments, tessellation document sha256, link bytes sha256)
    "hyperbolic-3000-a0.4": (
        ("hyperbolic", 3000, {"a": 0.4}),
        "e187a28fee7615d2a7a4beae58b4bf8c3cb3c5042d4e0f11b9a1f7e9116a63e2",
        "3d37179c03b16f226d5d58a9e763290b5aafea5c2395581ef002bfcbefc25d2c",
    ),
    "plane-3000-half": (
        ("plane", 3000, {"indexing": "half-integer"}),
        "0af937b502e399b9fa46c61c54852ceb8523cee670931c26e5e938aa91e5febe",
        "1104f595d5e70f50acd7049eaff7e18afdb186b5e5d13b08605c4a71ab6a308c",
    ),
    "hyperbolic-3000-half": (
        ("hyperbolic", 3000, {"a": 0.025, "indexing": "half-integer"}),
        "6f969dda259d2e640b203c12371be10b5bfba6abf48a5dc2bb87eb7564520c53",
        "dad14d8e1cd0a40817e83fdf29ae02d3cd2ace8dd20d58d0f62e3ae27b367f5d",
    ),
    "sphere-25": (
        ("sphere", 25, {}),
        "2018aba493f7afcc6299281b7a89812696d843653ca1b059b971b093f16c9cac",
        "a2784521fbee964b278153de5796cdaec67f3229481fefc5274781aaf91b0154",
    ),
    "sphere-377": (
        ("sphere", 377, {}),
        "9f1d5cf07d439d869bad689cbb2f5a17daee4ea6528bb3731486461c77e10981",
        "6adc17efaae475f3958dbb4b36f2f0eb28cecc2b7e17e30b41af0d91d57e875a",
    ),
    "sphere-5001": (
        ("sphere", 5001, {}),
        "70186153812a66de56944cb314f68f30716889759b12ebb32c946130cabed344",
        "6c1f4c768f5ee7b6093321bb7ee26f585927f4feb81f83b06b7c71d687b99a45",
    ),
}


def _link_bytes(tess) -> bytes:
    adjacency, dist, n = tess.adjacency, distance_series(tess), tess.n
    s, t = adjacency.source, adjacency.indices
    # every link direction with its length: a backward link (t, s) takes the
    # length of its forward link (s, t) from the distance series
    forward = dist.s_from * n + dist.s_to  # ascending: the forward links in CSR order
    lengths = dist.measured[np.searchsorted(forward, np.minimum(s, t) * n + np.maximum(s, t))]
    st = np.column_stack((s, t)).astype("<i8")
    return st.tobytes() + lengths.astype("<f8").tobytes()


@pytest.mark.parametrize("name", sorted(LIBRARY_CASES))
def test_tessellation_digests(name):
    (kind, n, kwargs), document, links = LIBRARY_CASES[name]
    tess = tessellate(generate(kind, n, **kwargs))
    got = (
        _sha256(dumps_json(tessellation_document(tess)).encode("utf-8")),
        _sha256(_link_bytes(tess)),
    )
    assert got == (document, links)


PATTERN_CASES = {
    # generate arguments -> pattern document sha256
    "plane-3000": (
        ("plane", 3000, {}),
        "692b11d264789fb6a518481fd11875a3f443f0ad19a726d101f3838817cac8f7",
    ),
    "hyperbolic-3000": (
        ("hyperbolic", 3000, {"a": 0.025}),
        "b253b833424e6c2af1e644f34d8020f3010e281465318b574a60b514ae700663",
    ),
    "plane-3000-half": (
        ("plane", 3000, {"indexing": "half-integer"}),
        "211158dba326974a9bc5810eed9591f8742e6cf4bae0ae87f4b48997d6c4e25a",
    ),
    "sphere-3000-half": (
        ("sphere", 3000, {"indexing": "half-integer"}),
        "a17af132728ea23f4a365a43789bce968282cf2ca115995b46d3f545a290c663",
    ),
}


@pytest.mark.parametrize("name", sorted(PATTERN_CASES))
def test_pattern_digests(name):
    (kind, n, kwargs), document = PATTERN_CASES[name]
    text = dumps_json(pattern_document(generate(kind, n, **kwargs)))
    assert _sha256(text.encode("utf-8")) == document


def _reference_pattern_document(pattern):
    """One dict per site, as the generic writer was fed before the column writer."""
    sites = []
    for k in range(pattern.n):
        site = {
            "s": int(pattern.s[k]),
            "rho": float(pattern.rho[k]),
            "theta": float(np.mod(pattern.theta[k], 2.0 * np.pi)),
            "r": float(pattern.r[k]),
        }
        if pattern.phi is not None:
            site["phi"] = float(pattern.phi[k])
        if pattern.xyz is not None:
            site["xyz"] = [float(v) for v in pattern.xyz[k]]
        sites.append(site)
    doc = pattern_document(pattern)
    return {**doc, "sites": sites}


def _reference_tessellation_document(tess):
    """One dict per cell and one list per vertex, fed to the generic writer."""
    offsets, index = tess.vertex_offsets, tess.vertex_index
    cells = [
        {
            "s": s,
            "vertices": [
                [float(x), float(y)] for x, y in tess.vertices[index[offsets[s] : offsets[s + 1]]]
            ],
            "sides": int(cell.sides),
            "area": None if cell.is_boundary else float(cell.area),
            "isBoundary": bool(cell.is_boundary),
            "neighborDeltas": [int(t) - s for t in tess.adjacency[s]],
        }
        for s, cell in enumerate(tess.cells)
    ]
    doc = tessellation_document(tess)
    return {**doc, "cells": cells}


@pytest.mark.parametrize(
    "kind, n, kwargs",
    [
        ("sphere", 7, {}),
        ("sphere", 25, {}),
        ("plane", 600, {}),  # many boundary cells with null areas
        ("hyperbolic", 3000, {"a": 0.4}),  # cells of 4 to 8 vertices
        ("plane", 600, {"indexing": "half-integer"}),
        ("sphere", 600, {"indexing": "half-integer"}),
        ("sphere", 2 * _BLOCK + 1, {}),  # a block seam and a one-row last block
        ("plane", 3000, {"lam": 0.4}),  # Qhull's triangles
        ("hyperbolic", 3000, {"a": 0.1, "lam": 1.0 / 3.0}),  # Qhull's triangles
        ("hyperbolic", 3000, {"a": 1.0}),  # 86% of the areas null
    ],
)
def test_documents_match_generic_writer(kind, n, kwargs):
    pattern = generate(kind, n, **kwargs)
    _assert_same_text(
        dumps_json(pattern_document(pattern)),
        dumps_json(_reference_pattern_document(pattern)),
    )
    tess = tessellate(pattern)
    _assert_same_text(
        dumps_json(tessellation_document(tess)),
        dumps_json(_reference_tessellation_document(tess)),
    )


def test_tessellation_document_keeps_signed_zeros_and_nans():
    tess = tessellate(generate("plane", 600))
    # vertex values the generated patterns do not produce: zeros of both
    # signs in one block, and a NaN
    offsets, index = tess.vertex_offsets, tess.vertex_index
    polygons = [tess.vertices[index[offsets[s] : offsets[s + 1]]] for s in range(tess.n)]
    polygons[1] = np.array([[0.0, -0.0], [np.nan, 1.0], [-0.0, 0.0]])
    polygons[2] = np.array([[-0.0, 0.0]])
    tess = dataclasses.replace(
        tess,
        vertex_offsets=np.concatenate(([0], np.cumsum([len(p) for p in polygons]))),
        vertices=np.concatenate(polygons),
        vertex_index=np.arange(sum(map(len, polygons))),  # one table row per corner
    )
    text = dumps_json(tessellation_document(tess))
    _assert_same_text(text, dumps_json(_reference_tessellation_document(tess)))
    assert '"vertices": [[0, -0], [null, 1], [-0, 0]]' in text


def _reference_boundaries_csv(boundaries) -> str:
    """One csv.writer row per ring, as boundaries_csv wrote before the column writer."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(BOUNDARY_COLUMNS)
    for row in boundary_rows(boundaries):
        writer.writerow(
            [format(row[c], ".17g") if isinstance(row[c], float) else row[c] for c in BOUNDARY_COLUMNS]
        )
    return out.getvalue()


def test_boundaries_csv_matches_csv_writer(tess_plane_3000):
    boundaries = detect_grain_boundaries(tess_plane_3000)
    # an anomalous ring has no rank and no word: both write empty fields
    anomalous = dataclasses.replace(boundaries[0], rank=None, word=None, complete=False, anomalous=True)
    text = boundaries_csv([*boundaries, anomalous])
    _assert_same_text(text, _reference_boundaries_csv([*boundaries, anomalous]))
    last = text.splitlines()[-1].split(",")
    assert (last[0], last[-1], last[7], last[8]) == ("", "", "False", "True")


def _reference_csv(columns: dict) -> str:
    """A header, then each row joined from format(x, ".17g") of its floats and str of the rest."""
    rows = zip(*[column.tolist() for column in columns.values()])
    cells = [[format(v, ".17g") if isinstance(v, float) else str(v) for v in row] for row in rows]
    return "".join(",".join(row) + "\n" for row in [list(columns), *cells])


@pytest.mark.parametrize(
    "kind, n, kwargs",
    [
        ("sphere", 2 * _BLOCK + 1, {}),  # two block seams, a one-row last block
        ("hyperbolic", 3000, {"a": 1.0}),  # nan areas and analytic distances
    ],
)
def test_distance_and_area_csv_match_per_value_format(kind, n, kwargs):
    tess = tessellate(generate(kind, n, **kwargs))
    dist, areas = distance_series(tess), area_series(tess)
    names = ("s_from", "s_to", "rank", "measured", "analytic", "interior")
    _assert_same_text(distance_csv(dist), _reference_csv({name: getattr(dist, name) for name in names}))
    _assert_same_text(area_csv(areas), _reference_csv({"s": areas.s, "area": areas.area, "in_window": areas.window}))


def _assert_floats_format_17g(values: np.ndarray) -> None:
    text = [format(x, ".17g") for x in values.tolist()]
    assert _g17(values) == text
    assert _json_floats(values) == ["null" if math.isnan(x) else t for x, t in zip(values.tolist(), text)]


@given(arrays(np.float64, st.integers(0, 300), elements=st.floats() | st.floats(-1e17, 1e17)))
def test_floats_are_format_17g(values):
    # any double: subnormals, zeros of both signs, infinities and NaN, and
    # many of the exponents written without one
    _assert_floats_format_17g(values)


def _adversarial_floats() -> np.ndarray:
    values = [1e-5, 1.5e-5, 1e-4, 2.5e-4, 1e16, 3.5e16, 1e17, 2.5e17]  # E = -5, -4, 16, 17
    for k in range(-6, 19):
        # 40 doubles on either side of each power of ten
        power = float(10**k) if k >= 0 else 1.0 / 10**-k
        below = above = power
        for _ in range(40):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, math.inf)
            values += [below, above]
    for e in range(-4, 16):
        # exact ties of the 17th digit: k * 2**(e - 17) for odd k < 2**53, of
        # decimal exponent e, is halfway between two 17-digit decimals (no
        # double of exponent 16 has a fraction)
        first = 10**e * 2 ** (17 - e) if e >= 0 else 2 ** (17 - e) // 10**-e + 1
        values += [math.ldexp(k | 1, e - 17) for k in (first, 2 * first, 7 * first) if k < 2**53]
    values += [1000000000000000.25, 2.0**50 + 0.25, 2.0**50 + 0.5, 2.0**50 + 0.75, 2.0**53 - 1.0]
    values += [0.0, math.inf, math.nan]
    values = np.array(values)
    return np.concatenate([values, -values])


def test_adversarial_floats_are_format_17g():
    values = _adversarial_floats()
    assert format(1000000000000000.25, ".17g") == "1000000000000000.2"  # half to even
    _assert_floats_format_17g(values)


def _fmt(x: float) -> str:
    return format(x, ".6g")


def _polygon(points, color: str, stroke_width: float) -> str:
    coords = " ".join(f"{_fmt(x)},{_fmt(-y)}" for x, y in points)
    return (
        f'<polygon points="{coords}" fill="{color}" '
        f'stroke="black" stroke-width="{_fmt(stroke_width)}"/>'
    )


def _reference_render_svg(tess, projection: str, size: int = 900) -> str:
    """One formatted polygon per drawn cell, as render_svg wrote before the block writer."""
    kind = tess.pattern.surface.kind
    offsets, verts, index = tess.vertex_offsets, tess.vertices, tess.vertex_index
    polygons = [verts[index[offsets[s] : offsets[s + 1]]] for s in range(tess.n)]
    drawn = [not c.is_boundary for c in tess.cells]
    extent = 1.0
    if projection == "orthographic":
        for s, poly in enumerate(polygons):
            r2 = np.sum(poly * poly, axis=1)
            denom = 1.0 + r2
            drawn[s] = drawn[s] and not np.any((r2 - 1.0) / denom > 0.0)
            polygons[s] = np.column_stack([2.0 * poly[:, 0] / denom, 2.0 * poly[:, 1] / denom])
    elif projection == "stereographic":
        extent = 4.0
        for s, poly in enumerate(polygons):
            drawn[s] = drawn[s] and bool(np.all(np.sum(poly * poly, axis=1) <= 16.0))
    if projection == "chart" and kind != HYPERBOLIC:
        extent = 1.02 * max(float(np.max(np.abs(p))) for p, d in zip(polygons, drawn) if d)
    stroke = extent / 600.0
    box = _fmt(2.0 * extent)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="{_fmt(-extent)} {_fmt(-extent)} {box} {box}">',
        f'<rect x="{_fmt(-extent)}" y="{_fmt(-extent)}" width="{box}" height="{box}" fill="white"/>',
    ]
    if kind == HYPERBOLIC:
        lines.append(
            f'<circle cx="0" cy="0" r="1" fill="none" stroke="black" stroke-width="{_fmt(stroke)}"/>'
        )
    for s, cell in enumerate(tess.cells):
        if drawn[s]:
            color = CELL_COLORS.get(CELL_TYPE_BY_SIDES.get(cell.sides), FALLBACK_COLOR)
            lines.append(_polygon(polygons[s], color, stroke))
    lines.append(
        f'<circle cx="0" cy="0" r="{_fmt(6.0 * stroke)}" fill="white" stroke="black" '
        f'stroke-width="{_fmt(stroke)}"/>'
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "kind, n, kwargs, projection",
    [
        ("sphere", 401, {}, "orthographic"),
        ("sphere", 401, {}, "stereographic"),
        ("sphere", 401, {}, "chart"),
        ("plane", 600, {}, "chart"),  # extent from the drawn vertices
        ("hyperbolic", 3000, {"a": 0.4}, "chart"),  # yellow and lightgray fills
        ("sphere", 2 * _BLOCK + 1, {}, "chart"),  # two block seams, a one-cell last block
        ("plane", 3000, {"lam": 0.4}, "chart"),  # Qhull's polygons
    ],
)
def test_render_matches_polygon_writer(kind, n, kwargs, projection):
    tess = tessellate(generate(kind, n, **kwargs))
    text = render_svg(tess, projection)
    _assert_same_text(text, _reference_render_svg(tess, projection))
    if n > 2 * _BLOCK:
        assert text.count("<polygon") == n  # the chart draws every sphere cell


@pytest.mark.parametrize("m", [0, 1, 2 * _BLOCK])
def test_distinct_rows_fill_each_distinct_row_once(m):
    # integer rows from a small pool, with equal rows, negative steps and
    # (x, y) beside (y, x)
    pool = np.array([-2584, -1, 0, 1, 2, 13, 2584])
    rows = pool[np.random.default_rng(m).integers(len(pool), size=(m, 2))]
    keys = {tuple(row) for row in rows.tolist()}
    if m > 1:
        assert any(y != x and (y, x) in keys for x, y in keys)  # swapped pairs
    text = list(_distinct_rows(rows, "%d, %d"))
    assert text == ["%d, %d" % tuple(row) for row in rows.tolist()]
    # equal rows share the one text their distinct row was filled into
    assert len({id(t) for t in text}) == len(keys)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_shared_rows_format_each_row_once_in_the_first_span_that_reads_it(seed):
    # a table of values that print alike or compare equal, read by polygons
    # of zero to four corners in a random order, over three blocks
    rng = np.random.default_rng(seed)
    pool = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 0.25, np.nextafter(0.25, 1.0), -7.5])
    table = pool[rng.integers(len(pool), size=(5000, 2))]
    sizes = rng.integers(0, 5, size=2 * _BLOCK + 100)
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    index = rng.integers(len(table), size=offsets[-1])
    seen = []

    def fmt(values):
        seen.append(values.copy())
        return _json_floats(values)

    blocks = list(_shared_rows(table, index, offsets, fmt, "[%s, %s]", ", "))
    assert len(blocks) == len(seen) == 3
    corner = ["[%s, %s]" % tuple(_json_floats(row)) for row in table]
    assert sum(blocks, []) == [", ".join(corner[i] for i in index[lo:hi]) for lo, hi in zip(offsets, offsets[1:])]
    read_before = set()
    for lo, values in zip(range(0, len(sizes), _BLOCK), seen):
        # the values of the rows this block reads first, bit for bit
        read = index[offsets[lo] : offsets[min(lo + _BLOCK, len(sizes))]]
        first = sorted(set(read.tolist()) - read_before)
        assert first
        assert np.array_equal(values.view(np.int64), table[first].ravel().view(np.int64))
        read_before.update(first)


def test_render_keeps_signed_zeros_and_last_bits():
    tess = tessellate(generate("plane", 600))
    # zeros of both signs and two values one bit apart, in drawn cells of
    # one block
    offsets, index = tess.vertex_offsets, tess.vertex_index
    polygons = [tess.vertices[index[offsets[s] : offsets[s + 1]]] for s in range(tess.n)]
    close = np.nextafter(0.25, 1.0)
    polygons[1] = np.array([[0.0, -0.0], [0.25, close], [-0.0, 0.0], [close, 0.25]])
    polygons[2] = np.array([[-0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tess = dataclasses.replace(
        tess,
        vertex_offsets=np.concatenate(([0], np.cumsum([len(p) for p in polygons]))),
        vertices=np.concatenate(polygons),
        vertex_index=np.arange(sum(map(len, polygons))),  # one table row per corner
    )
    assert not tess.cells.is_boundary[1:3].any()
    text = render_svg(tess)
    _assert_same_text(text, _reference_render_svg(tess, "chart"))
    assert '<polygon points="0,0 0.25,-0.25 -0,-0 0.25,-0.25" ' in text
    assert '<polygon points="-0,-0 1,-0 0,-1" ' in text


def _assert_same_text(got: str, want: str) -> None:
    # a plain assert on megabytes of text makes pytest diff them for minutes
    if got != want:
        k = len(os.path.commonprefix([got, want]))
        pytest.fail(f"first difference at {k}: {got[k - 40 : k + 40]!r} vs {want[k - 40 : k + 40]!r}")
