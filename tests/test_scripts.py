"""The experiment scripts still import and run against the library.

Each script is loaded by path, which runs its imports but not its
``main``; the cheapest one also runs end to end.  Nothing is spawned.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_all_scripts_found():
    assert [p.stem for p in SCRIPTS] == [
        "area_scaling",
        "distance_profile",
        "render_gallery",
        "ring_census",
        "threshold_sweep",
    ]


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.stem)
def test_script_imports(path):
    assert callable(_load(path).main)


def test_threshold_sweep_runs(monkeypatch, capsys):
    script = _load(SCRIPTS[-1])
    monkeypatch.setattr(sys, "argv", ["threshold_sweep.py", "--rank", "5", "--halfwidth", "2"])
    script.main()
    assert capsys.readouterr().out.splitlines() == [
        "rank 5: analytic threshold n* = 28",
        "  n=27  equatorial ring: absent",
        "  n=29  equatorial ring: absent",
    ]
