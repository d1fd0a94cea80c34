"""One workload repetition in a fresh interpreter.

Usage: python3 child.py SPEC.json   (run with the rep's work directory as cwd)

SPEC holds ``commands`` (argv lists for ``phyllo.cli.main``), ``trace`` and
``result`` (where to write the outcome).  The parent puts the checkout's
``src`` first on PYTHONPATH.  The first thing timed is the import of
``phyllo.cli``: the parent subtracts its own spawn time from ``imported``
(both on the system-wide monotonic clock) to get one set-up sample.

An untraced repetition runs the host-speed probes of ``probe.py``, one
through the import and one through the workload, and reports what each
measured.  A traced repetition runs no probe, so
that its spans hold the program's time alone.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback

from probe import import_probe, run_probe


def _qhull_floor(patterns) -> float:
    """Best-of-three raw Qhull time on the sites each tessellate call saw."""
    from scipy.spatial import ConvexHull, Voronoi

    total = 0.0
    for pattern in patterns:
        if pattern.surface.kind == "sphere":
            points, build = pattern.xyz, ConvexHull
        else:
            points, build = pattern.chart_xy, Voronoi
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            build(points)
            best = min(best, time.perf_counter() - t0)
        total += best
    return total


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    probe = None if spec["trace"] else import_probe()
    if probe is not None:
        probe.start()
    import phyllo.cli

    imported = time.monotonic()
    out = {"imported": imported, "phyllo_file": phyllo.cli.__file__, "codes": [], "wall_s": 0.0}
    if probe is not None:
        out["import_probe"] = probe.stop()
    tracer = None
    entry = phyllo.cli.main
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer(spec["run_id"])
        tracer.install(phyllo.cli)
        entry = tracer.wrap("cli", "main", phyllo.cli.main)
        tessellated = tracer.tessellated
    else:
        # the untraced run only counts the sites it tessellates
        tessellated = []
        tessellate = phyllo.cli.tessellate

        def counted(pattern):
            tessellated.append(pattern)
            return tessellate(pattern)

        phyllo.cli.tessellate = counted

    probe = None if spec["trace"] else run_probe()
    if probe is not None:
        probe.start()
    stdout = io.StringIO()
    try:
        for argv in spec["commands"]:
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stdout):
                try:
                    code = entry(argv)
                except SystemExit as exc:
                    code = exc.code
            out["wall_s"] += time.perf_counter() - t0
            out["codes"].append(code)
            if code != 0:
                break
    except Exception:
        out["codes"].append("exception")
        out["traceback"] = traceback.format_exc()
    if probe is not None:
        out["run_probe"] = probe.stop()
        out["wall_s"] -= out["run_probe"]["spent_s"]
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["stdout"] = stdout.getvalue()
    out["sites"] = sum(pattern.n for pattern in tessellated)
    if tracer is not None:
        tracer.uninstall(phyllo.cli)
        out["spans"] = tracer.spans
        out["qhull_s"] = _qhull_floor(tracer.tessellated)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
