"""The experiment scripts still import and run against the library.

Each script is loaded by path, which runs its imports but not its
``main``; the cheapest ones also run end to end, in-process.  Nothing is
spawned.
"""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(stem: str, argv: list[str], monkeypatch, capsys) -> list[str]:
    """The lines that a script's main prints when run with argv."""
    script = _load(next(p for p in SCRIPTS if p.stem == stem))
    monkeypatch.setattr(sys, "argv", [f"{stem}.py", *argv])
    script.main()
    return capsys.readouterr().out.splitlines()


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
    assert _run("threshold_sweep", ["--rank", "5", "--halfwidth", "2"], monkeypatch, capsys) == [
        "rank 5: analytic threshold n* = 28",
        "  n=27  equatorial ring: absent",
        "  n=29  equatorial ring: absent",
    ]


def test_ring_census_runs(monkeypatch, capsys):
    sections = "\n".join(_run("ring_census", [], monkeypatch, capsys)).strip().split("\n\n")
    assert [section.splitlines()[0] for section in sections] == [
        "plane n=3000",
        "hyperbolic n=3000",
        "sphere n=1351",
        "sphere n=9301",
    ]
    for section in sections:
        rows = section.splitlines()[2:]
        # each row: census, [s_lo, s_hi], side, radius, dr%, perimeter, dp%, word
        dr = [row.partition("]")[2].split()[2] for row in rows]
        assert dr and any(field != "-" for field in dr), section
        for field in dr:
            assert field == "-" or abs(float(field)) < 2.0, section


def test_area_scaling_runs(monkeypatch, capsys):
    lines = _run("area_scaling", ["--sizes", "750", "1060"], monkeypatch, capsys)
    assert [line[:8] for line in lines] == ["n=   750", "n=  1060", "", "fit: std"]
    for line in lines[:2]:
        mean = float(line.split("mean=")[1].split()[0])
        assert mean == pytest.approx(math.pi, rel=0.01)
