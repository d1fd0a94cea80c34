"""End-to-end checks of the command-line interface.

Everything runs in-process through ``cli.main`` so exit codes and stream
routing are observable without spawning subprocesses; only the check of
what a fresh interpreter imports spawns one.
"""

import errno
import io
import json
import math
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phyllo
from phyllo import cli, export, tessellation
from phyllo.export import (
    BOUNDARY_COLUMNS,
    PATTERN_SCHEMA,
    TESSELLATION_SCHEMA,
    dumps_json,
    load_pattern,
    pattern_document,
)
from phyllo.analysis import sphere_thresholds
from phyllo.generator import generate
from phyllo.numerics import fibonacci


def test_generate_writes_loadable_pattern(tmp_path, capsys):
    out = tmp_path / "pattern.json"
    code = cli.main(
        ["generate", "--geometry", "plane", "--n", "120", "--out", str(out)]
    )
    assert code == 0
    assert "plane pattern: n=120" in capsys.readouterr().out

    loaded = load_pattern(out)
    fresh = generate("plane", 120)
    assert loaded.surface == fresh.surface
    assert loaded.n == fresh.n


def test_commands_start_with_an_empty_young_generation(tmp_path):
    """argparse's reference cycles are collected before the command runs:
    render makes few tracked objects, so none would come due within it,
    and the pause would fall to main's caller."""
    import argparse
    import gc

    argv = ["render", "--geometry", "hyperbolic", "--n", "500", "--a", "0.025"]
    assert cli.main([*argv, "--out", str(tmp_path / "figure.svg")]) == 0
    young = gc.get_objects(0)
    assert not [o for o in young if type(o).__module__ == "argparse" or isinstance(o, argparse.ArgumentParser)]


def test_generate_is_byte_stable(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        cli.main(
            ["generate", "--geometry", "sphere", "--n", "101", "--out", str(p)]
        )
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_generate_stdout_carries_json_summary_on_stderr(capsys):
    code = cli.main(["generate", "--geometry", "hyperbolic", "--n", "50", "--a", "0.1"])
    captured = capsys.readouterr()
    assert code == 0
    doc = json.loads(captured.out)
    assert doc["schema"] == PATTERN_SCHEMA
    assert doc["n"] == 50
    assert "hyperbolic pattern" in captured.err


def test_analyze_file_matches_inline_arguments(tmp_path, capsys):
    pattern_file = tmp_path / "p400.json"
    cli.main(["generate", "--geometry", "plane", "--n", "400", "--out", str(pattern_file)])
    capsys.readouterr()

    from_file = tmp_path / "from_file"
    inline = tmp_path / "inline"
    assert cli.main(["analyze", "--in", str(pattern_file), "--out", str(from_file)]) == 0
    report = capsys.readouterr().out
    assert (
        cli.main(
            ["analyze", "--geometry", "plane", "--n", "400",
             "--out", str(inline), "--format", "csv"]
        )
        == 0
    )

    # the detector sees the complete rings of ranks 8 and 9 at n = 400
    assert "ring rank=8" in report and "ring rank=9" in report
    assert "FAIL" not in report
    assert (from_file / "summary.json").read_bytes() == (inline / "summary.json").read_bytes()

    tess_doc = json.loads((from_file / "tessellation.json").read_text())
    assert tess_doc["schema"] == TESSELLATION_SCHEMA
    assert len(tess_doc["cells"]) == 400

    header = (inline / "boundaries.csv").read_text().splitlines()[0]
    assert header == ",".join(BOUNDARY_COLUMNS)
    assert (inline / "distances.csv").exists()
    assert (inline / "areas.csv").exists()

    summary = json.loads((inline / "summary.json").read_text())
    assert all(summary["invariants"].values())
    assert summary["n"] == 400


def test_analyze_flags_non_golden_divergence(capsys):
    code = cli.main(
        ["analyze", "--geometry", "plane", "--n", "400", "--lambda", "0.55"]
    )
    assert code == 2
    assert "FAIL distance_confinement" in capsys.readouterr().out


def test_analyze_rejects_tampered_pattern_file(tmp_path):
    path = tmp_path / "pattern.json"
    cli.main(["generate", "--geometry", "plane", "--n", "60", "--out", str(path)])
    doc = json.loads(path.read_text())
    doc["sites"][30]["rho"] *= 1.1
    path.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as err:
        cli.main(["analyze", "--in", str(path)])
    assert err.value.code == 1


def test_pattern_file_site_count_is_checked_before_regenerating(tmp_path, monkeypatch):
    doc = json.loads(dumps_json(pattern_document(generate("plane", 3))))
    doc["n"] = 300000000000
    path = tmp_path / "pattern.json"
    path.write_text(json.dumps(doc))

    def refuse(*args, **kwargs):
        raise AssertionError("regenerated before the site count was checked")

    monkeypatch.setattr("phyllo.export.generate", refuse)
    with pytest.raises(ValueError, match="site list does not match n"):
        load_pattern(path)


def _write_inputs(tmp_path):
    """Pattern files that are valid JSON but not valid pattern documents."""
    no_rho = json.loads(dumps_json(pattern_document(generate("plane", 5))))
    del no_rho["sites"][3]["rho"]
    huge_rho = json.loads(dumps_json(pattern_document(generate("plane", 5))))
    huge_rho["sites"][2]["rho"] = 10**400  # a JSON integer no double can hold
    docs = {
        "p.json": json.loads(dumps_json(pattern_document(generate("plane", 400)))),
        "no-surface.json": {"schema": PATTERN_SCHEMA},
        "list.json": [],
        "no-rho.json": no_rho,
        "huge-rho.json": huge_rho,
    }
    for name, doc in docs.items():
        (tmp_path / name).write_text(json.dumps(doc))
    (tmp_path / "truncated.json").write_text('{"schema": ')
    # nested past the JSON decoder's recursion limit
    (tmp_path / "deep-array.json").write_text("[" * 100000 + "]" * 100000)
    (tmp_path / "deep-object.json").write_text('{"a": ' * 100000 + "1" + "}" * 100000)


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--geometry", "sphere", "--n", "101", "--a", "0.3"],
        ["generate", "--n", "100"],
        ["generate", "--geometry", "plane", "--n", "100", "--lambda", "phi"],
        ["analyze", "--in", "no-such-file.json"],
        ["analyze", "--in", "x.json", "--geometry", "plane", "--n", "10"],
        ["thresholds", "--u-max", "0"],
        ["render", "--geometry", "plane", "--n", "100", "--projection", "sideways"],
        # degenerate patterns: no interior links, too few sites to
        # triangulate, squared lengths that underflow (a normal and a
        # subnormal scale), sites off the convex hull
        ["analyze", "--geometry", "plane", "--n", "20"],
        ["analyze", "--geometry", "plane", "--n", "2"],
        ["analyze", "--geometry", "plane", "--n", "300", "--a", "1e-200"],
        ["analyze", "--geometry", "plane", "--n", "50", "--a", "5e-324"],
        ["analyze", "--geometry", "sphere", "--n", "301", "--lambda", "0.5"],
        ["render", "--geometry", "plane", "--n", "2"],
        # no cell left in the area window
        ["analyze", "--geometry", "plane", "--n", "4"],
        ["analyze", "--geometry", "plane", "--n", "300", "--lambda", "0.5"],
        ["analyze", "--geometry", "hyperbolic", "--n", "12", "--a", "0.3"],
        # malformed pattern files (written by _write_inputs)
        ["analyze", "--in", "{tmp}/no-surface.json"],
        ["analyze", "--in", "{tmp}/list.json"],
        ["analyze", "--in", "{tmp}/no-rho.json"],
        ["analyze", "--in", "{tmp}/huge-rho.json"],
        # file-system errors: a directory to read, a missing directory to
        # write into, a file where the report directory should go
        ["analyze", "--in", "{tmp}"],
        ["generate", "--geometry", "plane", "--n", "10", "--out", "{tmp}/missing/dir/p.json"],
        ["analyze", "--geometry", "plane", "--n", "600", "--out", "{tmp}/list.json"],
        # an image size below one pixel
        ["render", "--geometry", "plane", "--n", "300", "--size", "-5"],
        ["render", "--geometry", "plane", "--n", "300", "--size", "0"],
        # --n 0 is given, not missing
        ["analyze", "--in", "{tmp}/p.json", "--n", "0"],
        ["generate", "--geometry", "plane", "--n", "0"],
        # collinear chart sites, which Qhull leaves out of every triangle
        ["render", "--geometry", "plane", "--n", "300", "--lambda", "0.5"],
        ["render", "--geometry", "hyperbolic", "--n", "300", "--a", "0.1", "--lambda", "0.5"],
        ["analyze", "--geometry", "plane", "--n", "50", "--a", "1e-12", "--lambda", "0.5"],
        # every cell is a boundary cell, or on the far side of the sphere
        ["render", "--geometry", "hyperbolic", "--n", "5", "--a", "0.3"],
        ["render", "--geometry", "sphere", "--n", "5", "--indexing", "half-integer"],
        # a disc whose a*a underflows, so that every site sits at the center
        ["analyze", "--geometry", "hyperbolic", "--n", "100", "--a", "1e-300"],
        ["render", "--geometry", "hyperbolic", "--n", "100", "--a", "1e-300"],
    ],
)
def test_usage_errors_exit_1(argv, tmp_path, capsys):
    _write_inputs(tmp_path)
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    with warnings.catch_warnings(record=True) as caught, pytest.raises(SystemExit) as err:
        warnings.simplefilter("always")
        cli.main(argv)
    assert err.value.code == 1
    assert [str(w.message) for w in caught] == []
    stderr = capsys.readouterr().err
    assert "Traceback" not in stderr
    assert "Warning" not in stderr
    assert ": error: " in stderr.splitlines()[-1]
    # the message is the program's, not advice on a Qhull option
    assert "option" not in stderr.splitlines()[-1]


#: collinear chart sites (lambda = 1/2), which Qhull leaves out of every
#: triangle
COLLINEAR_MESSAGES = [
    (["render", "--geometry", "plane", "--n", "300", "--lambda", "0.5"],
     "site 91 lies in no Delaunay triangle"),
    (["render", "--geometry", "hyperbolic", "--n", "300", "--a", "0.1", "--lambda", "0.5"],
     "site 189 lies in no Delaunay triangle"),
    (["analyze", "--geometry", "plane", "--n", "50", "--a", "1e-12", "--lambda", "0.5"],
     "site 14 lies in no Delaunay triangle"),
]


@pytest.mark.parametrize(
    "argv,message",
    [
        (["generate", "--geometry", "plane", "--n", "0"], "need n >= 1, got 0"),
        (["render", "--geometry", "plane", "--n", "300", "--size", "-5"],
         "--size must be at least 1, got -5"),
        # every cell of these patterns is a boundary cell
        (["render", "--geometry", "plane", "--n", "4"],
         "nothing to draw: all 4 cells are boundary cells"),
        (["render", "--geometry", "plane", "--n", "5"],
         "nothing to draw: all 5 cells are boundary cells"),
        (["render", "--geometry", "hyperbolic", "--n", "5", "--a", "0.3"],
         "nothing to draw: all 5 cells are boundary cells"),
        (["render", "--geometry", "sphere", "--n", "5", "--indexing", "half-integer"],
         "nothing to draw: all 5 cells are out of view"),
        *COLLINEAR_MESSAGES,
        (["analyze", "--geometry", "plane", "--n", "50", "--a", "5e-324"],
         "scale a=5e-324 is too small: squared lengths at this scale underflow"),
        (["analyze", "--geometry", "plane", "--n", "2"],
         "a plane pattern needs at least 3 sites to tessellate, got 2"),
        (["render", "--geometry", "sphere", "--n", "3"],
         "a sphere pattern needs at least 4 sites to tessellate, got 3"),
        (["analyze", "--in", "{tmp}/truncated.json"], "{tmp}/truncated.json:1:12: Expecting value"),
        (["render", "--geometry", "plane", "--n", "10", "--a", "3e307"],
         "scale a=3e+307 is too large: Voronoi vertices overflow"),
        (["generate", "--geometry", "hyperbolic", "--n", "10", "--a", "5e-324"],
         "hyperbolic needs a finite R, got inf"),
        (["analyze", "--in", "{tmp}/deep-array.json"], "{tmp}/deep-array.json: JSON nested too deeply to read"),
        (["analyze", "--in", "{tmp}/deep-object.json"], "{tmp}/deep-object.json: JSON nested too deeply to read"),
    ],
)
def test_usage_error_messages(argv, message, tmp_path, capsys):
    _write_inputs(tmp_path)
    with pytest.raises(SystemExit) as err:
        cli.main([arg.replace("{tmp}", str(tmp_path)) for arg in argv])
    assert err.value.code == 1
    message = message.replace("{tmp}", str(tmp_path))
    assert capsys.readouterr().err.splitlines()[-1] == f"phyllo: error: {message}"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["render", "--geometry", "plane", "--n", "600", "--projection", "orthographic"],
         "projection 'orthographic' needs a sphere pattern"),
        (["generate", "--geometry", "sphere", "--n", "1"], "need n >= 3, got 1"),
    ],
)
def test_surface_errors_are_one_line(argv, message, capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 1
    assert capsys.readouterr().err.splitlines()[-1] == f"phyllo: error: {message}"


@pytest.mark.parametrize(
    "keys,value,message",
    [
        (["schema"], TESSELLATION_SCHEMA, f"not a pattern document (schema {TESSELLATION_SCHEMA!r})"),
        (["surface", "kind"], 5, "surface field 'kind' is not a string"),
        (["sites", 3], [1.0, 2.0], "site 3 is not a JSON object"),
        (["sites", 3, "rho"], "1.0", "site 3 field 'rho' is not a number"),
        (["sites", 2, "theta"], 0.5, "stored azimuths disagree with regeneration"),
    ],
)
def test_pattern_file_errors_name_what_is_wrong(keys, value, message, tmp_path, capsys):
    doc = json.loads(dumps_json(pattern_document(generate("plane", 5))))
    node = doc
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    path = tmp_path / "pattern.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as err:
        cli.main(["analyze", "--in", str(path)])
    assert err.value.code == 1
    assert capsys.readouterr().err.splitlines()[-1] == f"phyllo: error: {path}: {message}"


@pytest.mark.parametrize("argv,message", COLLINEAR_MESSAGES)
def test_forced_fallback_keeps_collinear_messages(argv, message, monkeypatch, capsys):
    # no certificate passes, so Qhull triangulates and names the lost site
    monkeypatch.setattr(tessellation, "_certify", lambda *args: (None, np.empty(0, dtype=np.int64)))
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 1
    assert capsys.readouterr().err.splitlines()[-1] == f"phyllo: error: {message}"


@pytest.mark.parametrize(
    "a, message",
    [
        ("inf", "scale a must be finite, got inf"),
        # a*sqrt(s) overflows from site 4 on
        ("1e308", "site 4 lies at a non-finite radius (rho=inf) with a=1e+308"),
    ],
)
def test_non_finite_sites_are_a_one_line_error(a, message, tmp_path, capsys):
    out = tmp_path / "p.json"
    with warnings.catch_warnings(record=True) as caught, pytest.raises(SystemExit) as err:
        warnings.simplefilter("always")
        cli.main(["generate", "--geometry", "plane", "--n", "10", "--a", a, "--out", str(out)])
    assert err.value.code == 1
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
    assert errors == [f"phyllo: error: {message}"]
    assert not out.exists()


def _out_of_memory(*args, **kwargs):
    raise MemoryError


@pytest.mark.parametrize(
    "stage, argv, message",
    [
        ("generate", ["generate", "--geometry", "plane", "--n", "300000000000"],
         "not enough memory for 300000000000 sites"),
        ("generate", ["render", "--geometry", "hyperbolic", "--n", "300000000000"],
         "not enough memory for 300000000000 sites"),
        ("tessellate", ["analyze", "--geometry", "plane", "--n", "60"],
         "not enough memory for 60 sites"),
        ("tessellate", ["render", "--geometry", "sphere", "--n", "61"],
         "not enough memory for 61 sites"),
        ("load_pattern", ["analyze", "--in", "pattern.json"],
         "pattern.json: not enough memory for its sites"),
    ],
)
def test_out_of_memory_is_a_one_line_error(stage, argv, message, monkeypatch, capsys):
    # the allocation fails by substitution: a real one of that size could
    # succeed on a host that overcommits memory, and exhaust it
    monkeypatch.setattr(cli, stage, _out_of_memory)
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 1
    stderr = capsys.readouterr().err
    assert "Traceback" not in stderr
    assert stderr.splitlines()[-1] == f"phyllo: error: {message}"


@pytest.mark.parametrize(
    "error, message",
    [
        (MemoryError(), "not enough memory to write {path}"),
        (OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)),
         f"cannot write {{path}}: {os.strerror(errno.ENOSPC)}"),
    ],
)
def test_failed_write_leaves_no_partial_file(error, message, tmp_path, monkeypatch, capsys):
    # the first block of cells formats its vertices, then fails on its areas,
    # after the file was opened and its head written
    g_rows = export._g_rows
    calls = []

    def fail_second_call(values, *args, **kwargs):
        calls.append(len(values))
        if len(calls) == 2:
            raise error
        return g_rows(values, *args, **kwargs)

    monkeypatch.setattr(export, "_g_rows", fail_second_call)
    with pytest.raises(SystemExit) as err:
        cli.main(["analyze", "--geometry", "plane", "--n", "600", "--out", str(tmp_path)])
    assert err.value.code == 1
    assert len(calls) == 2
    stderr = capsys.readouterr().err
    assert "Traceback" not in stderr
    path = tmp_path / "tessellation.json"
    errors = [line for line in stderr.splitlines() if "error" in line]
    assert errors == ["phyllo: error: " + message.format(path=path)]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["summary.json"]


def _fail_with(error):
    """A stand-in for export._g_rows that raises error: the first block of cells fails on its vertices."""

    def fail(*args, **kwargs):
        raise error

    return fail


def test_a_partial_file_that_cannot_be_removed_is_left(tmp_path, monkeypatch, capsys):
    def refuse(path, *args, **kwargs):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))

    monkeypatch.setattr(Path, "unlink", refuse)
    left = " (the partial file could not be removed)"
    for error, message in [
        (OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)),
         f"cannot write {{path}}: {os.strerror(errno.ENOSPC)}{left}"),
        (MemoryError(), f"not enough memory to write {{path}}{left}"),
    ]:
        out = tmp_path / type(error).__name__
        monkeypatch.setattr(export, "_g_rows", _fail_with(error))
        with pytest.raises(SystemExit) as err:
            cli.main(["analyze", "--geometry", "plane", "--n", "600", "--out", str(out)])
        assert err.value.code == 1
        path = out / "tessellation.json"
        errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
        assert errors == ["phyllo: error: " + message.format(path=path)]
        assert sorted(p.name for p in out.iterdir()) == ["summary.json", "tessellation.json"]


def test_a_failed_write_of_another_kind_propagates(tmp_path, monkeypatch):
    # not a one-line error: an exception that is neither OSError nor
    # MemoryError is a fault of the program, raised once the partial file
    # is removed
    monkeypatch.setattr(export, "_g_rows", _fail_with(RuntimeError("no rows")))
    with pytest.raises(RuntimeError, match="^no rows$"):
        cli.main(["analyze", "--geometry", "plane", "--n", "600", "--out", str(tmp_path)])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["summary.json"]


def test_out_of_memory_outside_any_step_is_a_one_line_error(tmp_path, monkeypatch, capsys):
    # the CSV text is made before its file is opened
    monkeypatch.setattr(cli, "distance_csv", _out_of_memory)
    with pytest.raises(SystemExit) as err:
        cli.main(["analyze", "--geometry", "plane", "--n", "600", "--format", "csv",
                  "--out", str(tmp_path)])
    assert err.value.code == 1
    stderr = capsys.readouterr().err
    assert "Traceback" not in stderr
    assert stderr.splitlines()[-1] == "phyllo: error: not enough memory to finish analyze"


@settings(derandomize=True, deadline=None, max_examples=50)
@given(
    command=st.sampled_from(["analyze", "render"]),
    geometry=st.sampled_from(["plane", "hyperbolic", "sphere"]),
    n=st.integers(min_value=1, max_value=400),
    a=st.floats(min_value=1e-12, max_value=1.5),
    lam=st.floats(min_value=-0.5, max_value=1.5),
    indexing=st.sampled_from(["integer", "half-integer"]),
)
def test_every_input_ends_in_report_or_one_line_error(command, geometry, n, a, lam, indexing):
    argv = [command, "--geometry", geometry, "--n", str(n), "--lambda", repr(lam),
            "--indexing", indexing]
    if geometry != "sphere":
        argv += ["--a", repr(a)]
    code, _, err, caught = _run(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert caught == []


def _run(argv):
    """(exit status, stdout, stderr, RuntimeWarning messages) of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    runtime = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    return code, out.getvalue(), err.getvalue(), runtime


@pytest.mark.parametrize("k", [-150, -120, 120, 150, 300])
def test_plane_report_does_not_depend_on_the_scale(k):
    # plane circumcenters, lengths and areas are computed on the chart scaled
    # by a power of two, so their squares and cubes stay in range at every a
    argv = ["analyze", "--geometry", "plane", "--n", "300"]
    code, out, err, caught = _run([*argv, "--a", f"1e{k}"])
    assert caught == []
    assert "Warning" not in err and "Traceback" not in err
    assert (code, out) == _run(argv)[:2]
    assert "PASS mean_area_pi" in out and "PASS distance_confinement" in out


@pytest.mark.parametrize("n, a", [(3000, "1e306"), (300, "5e306"), (4, "3e307")])
def test_plane_report_near_the_float_maximum(n, a, tmp_path):
    # ring perimeters and analytic distances are computed on the scaled
    # chart too, so 2 pi rho and the sums of chart lengths stay finite
    def run(scale):
        out_dir = tmp_path / scale
        argv = ["analyze", "--geometry", "plane", "--n", str(n), "--a", scale, "--out", str(out_dir)]
        code, out, err, caught = _run(argv)
        assert caught == []
        summary = out_dir / "summary.json"
        if summary.exists():
            json.loads(summary.read_text(), parse_constant=pytest.fail)  # no inf or nan
        return code, out, err.replace(str(out_dir), "<out>"), summary.exists()

    assert run(a) == run("1")


def test_threshold_table_and_reports(tmp_path, capsys):
    csv_path = tmp_path / "thresholds.csv"
    assert cli.main(["thresholds", "--u-max", "10", "--out", str(csv_path), "--format", "csv"]) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "u,threshold"
    values = [int(line.split(",")[1]) for line in lines[1:]]
    assert values == sphere_thresholds(10)

    json_path = tmp_path / "thresholds.json"
    assert cli.main(["thresholds", "--u-max", "4", "--out", str(json_path)]) == 0
    doc = json.loads(json_path.read_text())
    assert [row["threshold"] for row in doc["thresholds"]] == [1, 2, 4, 11]
    curves = {c["u"]: c["points"] for c in doc["polar_angle_curves"]}
    assert set(curves) == {1, 2, 3, 4}
    for pts in curves.values():
        ns = [n for n, _ in pts]
        angles = [angle for _, angle in pts]
        assert ns == sorted(ns)
        # rings drift toward the pole as the sphere grows
        assert angles[-1] < angles[0]
    capsys.readouterr()


def test_threshold_curves_use_each_points_own_site_count(tmp_path, capsys):
    # sin^2 of the ring's colatitude is f_{2u+1}/(n pi) at every n, even or odd
    path = tmp_path / "thresholds.json"
    assert cli.main(["thresholds", "--u-max", "12", "--out", str(path)]) == 0
    curves = json.loads(path.read_text())["polar_angle_curves"]
    points = [(c["u"], n, angle) for c in curves for n, angle in c["points"]]
    assert any(n % 2 == 0 for _, n, _ in points)
    for u, n, angle in points:
        assert angle == math.asin(math.sqrt(fibonacci(2 * u + 1) / (n * math.pi))), (u, n)
    capsys.readouterr()


def test_threshold_empirical_bracketing(capsys):
    assert cli.main(["thresholds", "--u-max", "5", "--empirical"]) == 0
    out = capsys.readouterr().out
    # thresholds inside the disordered core cannot be checked empirically
    assert "u= 4 threshold=11\n" in out
    assert "u= 5 threshold=28 empirical=confirmed" in out


RENDER_CASES = [
    (["--geometry", "plane", "--n", "400"], 345),
    (["--geometry", "sphere", "--n", "401"], 178),
    (["--geometry", "sphere", "--n", "401", "--projection", "stereographic"], 365),
    (["--geometry", "hyperbolic", "--n", "400", "--a", "0.05"], 336),
]


@pytest.mark.parametrize("argv,n_polygons", RENDER_CASES)
def test_render_polygon_counts(tmp_path, argv, n_polygons):
    out = tmp_path / "figure.svg"
    assert cli.main(["render", *argv, "--out", str(out)]) == 0
    text = out.read_text()
    assert text.count("<polygon") == n_polygons
    assert 'fill="white"' in text  # origin marker


def test_render_hyperbolic_draws_limit_circle(tmp_path):
    out = tmp_path / "disk.svg"
    cli.main(["render", "--geometry", "hyperbolic", "--n", "200", "--a", "0.05",
              "--out", str(out)])
    assert out.read_text().count("<circle") == 2


@pytest.mark.parametrize(
    "argv,status",
    [
        (None, 0),  # the import alone
        (["generate", "--geometry", "plane", "--n", "300", "--out", "{tmp}/p.json"], 0),
        (["analyze", "--geometry", "plane", "--n", "3000", "--out", "{tmp}/report"], 0),
        (["thresholds", "--u-max", "4", "--out", "{tmp}/t.json"], 0),
        (["render", "--geometry", "hyperbolic", "--n", "3000", "--a", "0.025", "--out", "{tmp}/f.svg"], 0),
        # too few sites to triangulate: a one-line error, not Qhull's
        (["analyze", "--geometry", "plane", "--n", "2"], 1),
        (["render", "--geometry", "sphere", "--n", "3"], 1),
    ],
    ids=["import", "generate", "analyze", "thresholds", "render", "tiny-plane", "tiny-sphere"],
)
def test_no_command_imports_scipy(argv, status, tmp_path):
    # scipy is only the fallback triangulator's; a golden pattern never
    # needs it, so no command on one may load it (checked in a fresh
    # interpreter, with no timing).  Nor numpy.ma, which np.unique(a) with
    # no return_* argument imports (about 35 ms) and no command needs
    code = "import sys\nimport phyllo.cli\n"
    if argv is not None:
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
        code += (
            f"try:\n    status = phyllo.cli.main({argv!r})\n"
            f"except SystemExit as exc:\n    status = exc.code\n"
            f"assert status == {status}, status\n"
        )
    code += "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m == 'numpy.ma'))\n"
    src = str(Path(phyllo.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
