"""Memory the writers of phyllo.export, the CLI and the pipeline stages allocate.

The peaks are tracemalloc's, which counts every block that Python and numpy
allocate while the writer runs.  Unlike RSS or time they do not depend on
the host, the allocator or what ran before, so the bounds can be tight.
Each writer's bound is a multiple of the output's size: a writer that keeps
its whole output as separate pieces, or whole columns as Python objects,
exceeds it at these sizes.  tessellate, distance_series and the whole
analyze command are bounded per site or per link, a little above what they
take today.
"""

import tracemalloc

import pytest

from phyllo import cli
from phyllo.analysis import distance_series
from phyllo.export import (
    distance_csv,
    dumps_json,
    pattern_document,
    tessellation_document,
    write_json,
)
from phyllo.generator import generate
from phyllo.render import render_svg
from phyllo.tessellation import _BLOCK, tessellate


class _CountingSink:
    """A text stream that keeps only the number of characters written to it."""

    def __init__(self):
        self.chars = 0

    def write(self, text: str) -> None:
        self.chars += len(text)


def _traced_peak(fn):
    """(fn(), the peak of traced memory while it ran, in bytes)."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_tessellation_json_is_streamed():
    tess = tessellate(generate("plane", 30000))
    # reading the vertices runs the polygon pass here, so the bound covers the
    # area pass (the document's cell areas) and the writer
    tess.vertices
    sink = _CountingSink()
    _, peak = _traced_peak(lambda: write_json(tessellation_document(tess), sink))
    # about 12 MB written from 15 blocks of rows; keeping every block's text
    # until the end took 1.5 times the output
    assert sink.chars > 11_000_000
    assert peak < 1.0 * sink.chars


def test_distance_csv_formats_block_by_block():
    dist = distance_series(tessellate(generate("sphere", 20001)))
    text, peak = _traced_peak(lambda: distance_csv(dist))
    # the text, the block texts it is joined from, and one block's fields;
    # formatting whole columns as Python strings took 7 times the text
    assert len(text) > 3_000_000
    assert peak < 3.0 * len(text)


def test_render_svg_keeps_point_tables_per_block():
    tess = tessellate(generate("hyperbolic", 20000, a=0.025))
    tess.vertices  # runs the polygon pass, the only one rendering reads: bound the writer alone
    text, peak = _traced_peak(lambda: render_svg(tess))
    # the text, the block texts it is joined from, the drawn vertices, and
    # one block's table of distinct points
    assert len(text) > 3_000_000
    assert peak < 3.5 * len(text)


@pytest.mark.parametrize("kind", ["plane", "sphere"])
def test_a_document_writes_the_same_text_twice(kind):
    # the rows are rendered while the document is written, so writing it
    # again must render them again
    pattern = generate(kind, 2 * _BLOCK + 1)
    for doc in (pattern_document(pattern), tessellation_document(tessellate(pattern))):
        first = dumps_json(doc)
        assert first.count('{"s": ') == pattern.n
        assert dumps_json(doc) == first


@pytest.mark.parametrize("kind, kwargs", [("sphere", {}), ("hyperbolic", {"a": 0.4})])
def test_a_tessellation_renders_the_same_text_twice(kind, kwargs):
    # each render carries the point texts shared across blocks afresh
    tess = tessellate(generate(kind, 2 * _BLOCK + 1, **kwargs))
    first = render_svg(tess, "chart")
    assert first.count("<polygon") == (~tess.cells.is_boundary).sum()
    assert render_svg(tess, "chart") == first


def test_generate_streams_its_document(tmp_path):
    path = tmp_path / "pattern.json"
    argv = ["generate", "--geometry", "plane", "--n", "30000", "--out", str(path)]
    code, peak = _traced_peak(lambda: cli.main(argv))
    # about 3 MB written block by block; making the whole text first took
    # 2.5 times the file
    assert code == 0
    assert peak < 1.0 * path.stat().st_size


def test_report_text_is_written_a_slice_at_a_time(tmp_path):
    text = "0123456789abcdef\n" * 500_000  # 8.5 MB
    path = tmp_path / "report.csv"
    _, peak = _traced_peak(lambda: cli._write_text(None, path, text))
    # the file encodes each text it is given whole: the text in one piece
    # took a second copy of it
    assert path.read_text() == text
    assert peak < 0.5 * len(text)


@pytest.mark.parametrize("kind, n", [("plane", 30000), ("sphere", 20001)])
def test_tessellate_peak_per_site(kind, n):
    pattern = generate(kind, n)
    _, peak = _traced_peak(lambda: tessellate(pattern))
    # 475 B/site on the plane and 546 on the sphere; the certificate's
    # triangles rotated least site first, keyed through np.where, took 574
    # and 647
    assert peak < {"plane": 520, "sphere": 590}[kind] * n


def test_distance_series_peak_per_link():
    tess = tessellate(generate("plane", 30000))
    dist, peak = _traced_peak(lambda: distance_series(tess))
    # 98 B per forward link; measuring every link in both directions, in
    # whole columns, took 191
    assert peak < 120 * len(dist.measured)


def test_analyze_peak_per_site(tmp_path):
    argv = ["analyze", "--geometry", "plane", "--n", "30000", "--format", "json", "--out", str(tmp_path)]
    code, peak = _traced_peak(lambda: cli.main(argv))
    # 621 B/site; measuring every link in both directions, in whole columns,
    # took 817
    assert code == 0
    assert peak < 700 * 30000
