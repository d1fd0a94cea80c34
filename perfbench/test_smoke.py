"""Smoke test of the benchmark itself, at tiny sizes (about 10 s).

Run with ``python3 -m pytest perfbench/test_smoke.py`` or
``python3 perfbench/test_smoke.py`` from the root of a checkout.

Each workload runs once untraced and once traced through the same
``run_rep`` path the benchmark uses.  The spans must nest, every self time
must be non-negative, the children of ``cli.main`` must fit inside it, the
outputs must pass the workload's check and be byte-identical across the
two runs, and the metric names and units must match ``BENCHMARK.json``.
The seed must pick sizes from the documented band.
"""

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import END_TO_END_UNITS, OUT, ROOT, run_rep  # noqa: E402
from spans import LAYER_UNITS, layer_metrics, self_times  # noqa: E402
from workloads import BAND, STEPS, WORKLOADS  # noqa: E402

EPS = 1e-9


def _run_both(workload):
    plan = workload.plan(workload.tiny)
    base = OUT / "smoke" / workload.name
    shutil.rmtree(base, ignore_errors=True)
    try:
        reps = []
        for trace in (False, True):
            workdir = base / f"trace{int(trace)}"
            rep = run_rep(plan, workdir, trace, f"smoke-{workload.name}")
            assert "problem" not in rep, rep["problem"]
            assert workload.check(workload.tiny, workdir, rep["stdout"]) is None
            reps.append(rep)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return reps


def _check_spans(spans):
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        assert s["start"] <= s["end"]
        assert s["error"] is None
        if s["parent"] is not None:
            parent = by_id[s["parent"]]
            assert parent["start"] - EPS <= s["start"] and s["end"] <= parent["end"] + EPS
    assert all(t >= -EPS for t in self_times(spans).values())
    mains = [s for s in spans if s["name"] == "main"]
    assert mains and all(s["parent"] is None for s in mains)
    for main in mains:
        children = [s for s in spans if s["parent"] == main["id"]]
        assert sum(c["end"] - c["start"] for c in children) <= main["end"] - main["start"] + EPS
    assert {s["name"] for s in spans if s["parent"] is None} == {"main"}


def test_workloads_trace_cleanly():
    for workload in WORKLOADS.values():
        plain, traced = _run_both(workload)
        assert plain["sha256"] == traced["sha256"], workload.name
        assert plain["sites"] == traced["sites"] > 0
        assert plain["setup_s"] > 0 and plain["scaled_wall_s"] > 0
        assert "run_probe" not in traced  # spans hold the program's time alone
        _check_spans(traced["spans"])
        metrics = layer_metrics(traced["spans"], traced["qhull_s"])
        assert metrics["tessellation.sites"] == plain["sites"]
        assert metrics["tessellation.qhull_s"] > 0
        assert all(metrics[f"{layer}.errors"] == 0 for layer in ("cli", "export", "tessellation"))


def test_seed_picks_from_a_narrow_band():
    for workload in WORKLOADS.values():
        sizes = workload.sizes()
        if not workload.seeded:
            assert sizes == [workload.nominal]
            continue
        assert len(sizes) == 2 * STEPS + 1
        assert all(abs(n - workload.nominal) <= BAND * workload.nominal + 1 for n in sizes)
        assert all(n % 2 == 1 for n in sizes) or not workload.odd
        assert workload.pick_size(7) == workload.pick_size(7)


def test_benchmark_json_matches_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS


if __name__ == "__main__":
    test_seed_picks_from_a_narrow_band()
    test_benchmark_json_matches_metrics()
    test_workloads_trace_cleanly()
    print("perfbench smoke test: ok")
