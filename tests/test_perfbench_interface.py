"""The benchmark's span counts still read the tessellation they count.

``perfbench/spans.py`` counts the links and boundary cells of every
``tessellate`` result for the traced benchmark runs.  It is loaded by path
here, so a change to ``Tessellation`` that breaks those counts fails the
test suite, not only a traced benchmark run.
"""

import importlib.util
import json
from pathlib import Path

import pytest

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
