"""The benchmark's span counts still read the results they count.

``perfbench/spans.py`` counts the links and boundary cells of every
``tessellate`` result and the polygons and bytes of every ``render_svg``
text for the traced benchmark runs, and wraps the names ``phyllo.cli``
calls.  It is loaded by path here, so a change to
``Tessellation`` that breaks those counts, or a change to ``phyllo.cli``
that drops or renames a wrapped name, fails the test suite, not only a
traced benchmark run.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from phyllo import cli
from phyllo.generator import generate
from phyllo.tessellation import tessellate

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("kind,n", [("plane", 600), ("sphere", 25)])
def test_tessellate_counts(kind, n):
    tess = tessellate(generate(kind, n))
    counts = _load_spans()._counts("tessellate", tess)
    assert counts["sites"] == n
    assert counts["links"] == len(tess.adjacency.indices) // 2
    assert counts["boundary_cells"] == tess.cells.is_boundary.sum()
    json.dumps(counts)  # the benchmark child writes its spans as JSON


def test_traced_analyze_run(tmp_path, capsys):
    spans = _load_spans()
    tracer = spans.Tracer("test")
    tracer.install(cli)
    try:
        assert cli.main(["analyze", "--geometry", "plane", "--n", "600", "--out", str(tmp_path)]) == 0
    finally:
        tracer.uninstall(cli)
    capsys.readouterr()
    metrics = spans.layer_metrics(tracer.spans, 0.0)
    json.dumps(metrics)  # the benchmark child writes its metrics as JSON
    tess = tessellate(generate("plane", 600))
    assert metrics["tessellation.calls"] == 1
    assert metrics["tessellation.links"] == len(tess.adjacency.indices) // 2
    assert metrics["tessellation.boundary_cells"] == tess.cells.is_boundary.sum()
    assert metrics["export.tessellation_document_s"] > 0
    assert metrics["export.bytes_out"] == len((tmp_path / "summary.json").read_bytes())
    assert sum(metrics[f"{layer}.errors"] for layer in spans.LAYERS) == 0


def test_traced_render_run(tmp_path, capsys):
    spans = _load_spans()
    tracer = spans.Tracer("test")
    tracer.install(cli)
    figure = tmp_path / "figure.svg"
    argv = ["render", "--geometry", "hyperbolic", "--n", "500", "--a", "0.05", "--out", str(figure)]
    try:
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall(cli)
    capsys.readouterr()
    metrics = spans.layer_metrics(tracer.spans, 0.0)
    json.dumps(metrics)
    data = figure.read_bytes()
    assert metrics["render.svg_s"] > 0
    assert metrics["render.polygons"] == data.count(b"<polygon") > 0
    assert metrics["render.bytes_out"] == len(data)
    assert sum(metrics[f"{layer}.errors"] for layer in spans.LAYERS) == 0


def test_traced_empirical_thresholds_run(capsys):
    # the thresholds-empirical workload's command at a smaller rank: six
    # sphere tessellations, whose links and boundary cells the spans count
    spans = _load_spans()
    tracer = spans.Tracer("test")
    tracer.install(cli)
    try:
        assert cli.main(["thresholds", "--u-max", "7", "--empirical"]) == 0
    finally:
        tracer.uninstall(cli)
    assert capsys.readouterr().out.count("empirical=confirmed") == 3
    metrics = spans.layer_metrics(tracer.spans, 0.0)
    json.dumps(metrics)
    sizes = [pattern.n for pattern in tracer.tessellated]
    assert metrics["tessellation.calls"] == len(sizes) == 6
    assert metrics["tessellation.sites"] == sum(sizes)
    # a triangulated sphere has 3n - 6 edges and no boundary cell
    assert metrics["tessellation.links"] == sum(3 * n - 6 for n in sizes)
    assert metrics["tessellation.boundary_cells"] == 0
    assert sum(metrics[f"{layer}.errors"] for layer in spans.LAYERS) == 0
