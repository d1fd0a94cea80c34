"""Span recorder that wraps the functions ``phyllo.cli`` calls by name.

The program itself carries no tracing.  ``Tracer.install`` swaps each
wrapped name in the ``phyllo.cli`` module namespace for a wrapper that
records a span (name, layer, start, end, parent span, run id) and a few
counts taken from the call's result.  Spans stay in memory; ``layer_metrics``
folds them into the per-layer metrics once the run has ended.

Counts are taken after the span closes, so they never inflate a layer's
time; they do land in the enclosing ``cli.main`` span's self time, which
is part of the tracing overhead the benchmark reports.
"""

from __future__ import annotations

import resource
import time

#: layer -> names of the phyllo.cli globals that belong to it
LAYER_FUNCTIONS = {
    "generator": ("generate",),
    "export": (
        "load_pattern",
        "pattern_document",
        "tessellation_document",
        "dumps_json",
        "boundaries_csv",
        "distance_csv",
        "area_csv",
    ),
    "tessellation": ("tessellate",),
    "analysis": (
        "detect_grain_boundaries",
        "distance_series",
        "area_series",
        "verify_inflation",
    ),
    "render": ("render_svg",),
}
LAYERS = ("cli",) + tuple(LAYER_FUNCTIONS)
CSV_WRITERS = ("boundaries_csv", "distance_csv", "area_csv")

_SPECIAL_UNITS = {
    "export.bytes_out": "B",
    "export.mb_per_s": "MB/s",
    "tessellation.us_per_site": "us/site",
    "tessellation.qhull_ratio": "x",
    "tessellation.rss_mb": "MB",
    "render.bytes_out": "B",
    "trace.overhead_s": "s",
}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _counts(name: str, result) -> dict:
    """Work done by one call, read off its result."""
    if name == "tessellate":
        return {
            "sites": result.n,
            "links": sum(len(links) for links in result.adjacency) // 2,
            "boundary_cells": sum(cell.is_boundary for cell in result.cells),
            "rss_mb": _peak_rss_mb(),
        }
    if name == "generate":
        return {"sites": result.n}
    if name == "detect_grain_boundaries":
        return {"rings": len(result), "complete_rings": sum(b.complete for b in result)}
    if name == "distance_series":
        return {"interior_links": int(result.interior.sum())}
    if name == "render_svg":
        return {"polygons": result.count("<polygon"), "bytes_out": len(result)}
    if name == "dumps_json" or name in CSV_WRITERS:
        return {"bytes_out": len(result)}  # the writers emit ASCII only
    return {}


class Tracer:
    """Collects spans for one run; ``install`` and ``uninstall`` bracket it."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._saved: dict = {}
        self.tessellated: list = []  # patterns handed to tessellate, for the Qhull floor

    def wrap(self, layer: str, name: str, fn):
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "layer": layer,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "run": self.run_id,
                "start": time.perf_counter(),
                "end": None,
                "error": None,
                "counts": {},
            }
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            span["counts"] = _counts(name, result)
            if name == "tessellate":
                self.tessellated.append(args[0])
            return result

        return traced

    def install(self, cli_module) -> None:
        for layer, names in LAYER_FUNCTIONS.items():
            for name in names:
                fn = getattr(cli_module, name)
                self._saved[name] = fn
                setattr(cli_module, name, self.wrap(layer, name, fn))

    def uninstall(self, cli_module) -> None:
        for name, fn in self._saved.items():
            setattr(cli_module, name, fn)
        self._saved.clear()


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> its duration minus the time its direct children cover.

    Children of one span never overlap (the program is single-threaded), so
    the covered time is the sum of their durations.
    """
    covered: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] = covered.get(s["parent"], 0.0) + s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - covered.get(s["id"], 0.0) for s in spans}


def layer_metrics(spans: list[dict], qhull_s: float) -> dict[str, float]:
    """Fold one run's spans into the per-layer metrics (see README.md)."""

    def total(name: str) -> float:
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name)

    def count(name: str, key: str) -> float:
        return sum(s["counts"].get(key, 0) for s in spans if s["name"] == name)

    def errors(layer: str) -> int:
        return sum(s["error"] is not None for s in spans if s["layer"] == layer)

    selfs = self_times(spans)
    tess_s = total("tessellate")
    sites = count("tessellate", "sites")
    export_bytes = count("dumps_json", "bytes_out") + sum(
        count(name, "bytes_out") for name in CSV_WRITERS
    )
    csv_s = sum(total(name) for name in CSV_WRITERS)
    export_s = (
        total("pattern_document") + total("tessellation_document") + total("dumps_json") + csv_s
    )
    m = {
        "cli.main_s": total("main"),
        "cli.self_s": sum(selfs[s["id"]] for s in spans if s["name"] == "main"),
        "generator.generate_s": total("generate"),
        "generator.sites": count("generate", "sites"),
        "export.load_pattern_s": total("load_pattern"),
        "export.pattern_document_s": total("pattern_document"),
        "export.tessellation_document_s": total("tessellation_document"),
        "export.dumps_json_s": total("dumps_json"),
        "export.csv_s": csv_s,
        "export.bytes_out": export_bytes,
        "export.mb_per_s": export_bytes / 1e6 / export_s if export_s > 0 else 0.0,
        "tessellation.tessellate_s": tess_s,
        "tessellation.calls": sum(s["name"] == "tessellate" for s in spans),
        "tessellation.sites": sites,
        "tessellation.us_per_site": 1e6 * tess_s / sites if sites else 0.0,
        "tessellation.qhull_s": qhull_s,
        "tessellation.qhull_ratio": tess_s / qhull_s if qhull_s > 0 else 0.0,
        "tessellation.links": count("tessellate", "links"),
        "tessellation.boundary_cells": count("tessellate", "boundary_cells"),
        "tessellation.rss_mb": max(
            (s["counts"].get("rss_mb", 0.0) for s in spans if s["name"] == "tessellate"),
            default=0.0,
        ),
        "analysis.rings_s": total("detect_grain_boundaries"),
        "analysis.distance_s": total("distance_series"),
        "analysis.area_s": total("area_series"),
        "analysis.inflation_s": total("verify_inflation"),
        "analysis.rings": count("detect_grain_boundaries", "rings"),
        "analysis.complete_rings": count("detect_grain_boundaries", "complete_rings"),
        "analysis.interior_links": count("distance_series", "interior_links"),
        "render.svg_s": total("render_svg"),
        "render.polygons": count("render_svg", "polygons"),
        "render.bytes_out": count("render_svg", "bytes_out"),
    }
    for layer in LAYERS:
        m[f"{layer}.errors"] = errors(layer)
    return m


#: every per-layer metric ``layer_metrics`` returns, plus the tracing
#: overhead the runner adds, with its unit
LAYER_UNITS = {
    name: _SPECIAL_UNITS.get(name, "s" if name.endswith("_s") else "count")
    for name in list(layer_metrics([], 0.0)) + ["trace.overhead_s"]
}
