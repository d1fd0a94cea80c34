"""Benchmark of the ``phyllo`` command line, end to end and layer by layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition runs the workload's ``phyllo.cli.main`` calls in a fresh
interpreter (``child.py``) that imports ``phyllo`` from the checkout's
``src``.  Repetitions run back to back, one at a time, until the next would
overrun ``--seconds`` (at least three untraced, or with ``--trace 1`` at
least one untraced and one traced, alternating).  Every repetition's outputs are
checked; see README.md for the workloads, the metrics and the checks.

Untraced repetitions carry the host-speed probes of ``probe.py``: their
import and workload times are scaled to a fixed host speed, and the raw
times are kept in the record.

The last line of standard output is the result object; the line before it
is the machine/code record.  Both, plus the spans of traced runs, are also
written to ``perfbench/_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from spans import LAYER_UNITS, layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"

#: the whole run must end within 180 s, whatever --seconds says
RUN_CAP_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "sites_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def machine_record() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = proc.stdout.strip() or None
    src_lines = sum(
        p.read_bytes().count(b"\n") for p in sorted((ROOT / "src/phyllo").glob("*.py"))
    )
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_commit": commit,  # None outside a git checkout
        "src_lines": src_lines,  # wc -l src/phyllo/*.py, total
    }


def _digest(workdir: Path, outputs: list[str], stdout: str) -> str:
    h = hashlib.sha256(stdout.encode("utf-8"))
    for name in outputs:
        h.update(name.encode("utf-8") + b"\0")
        h.update((workdir / name).read_bytes())
    return h.hexdigest()


def run_rep(plan, workdir: Path, trace: bool, run_id: str, timeout: float = RUN_CAP_S) -> dict:
    """One repetition in a fresh interpreter; returns its measurements and problems."""
    workdir.mkdir(parents=True)
    spec = {
        "commands": plan.commands,
        "trace": trace,
        "run_id": run_id,
        "result": str(workdir / "_result.json"),
    }
    (workdir / "_spec.json").write_text(json.dumps(spec), encoding="utf-8")
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(workdir / "_spec.json")],
            cwd=workdir, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"trace": trace, "problem": f"timed out after {timeout:.0f} s"}
    if proc.returncode != 0:
        return {"trace": trace, "problem": f"child exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    out = json.loads((workdir / "_result.json").read_text(encoding="utf-8"))
    out["trace"] = trace
    out["raw_setup_s"] = out["imported"] - spawned
    if not trace:
        out["raw_setup_s"] -= out["import_probe"]["spent_s"]
        out["setup_s"] = out["raw_setup_s"] * out["import_probe"]["scale"]
        out["scaled_wall_s"] = out["wall_s"] * out["run_probe"]["scale"]
    stdout = out["stdout"]
    missing = [name for name in plan.outputs if not (workdir / name).is_file()]
    if not Path(out["phyllo_file"]).resolve().is_relative_to(Path(src).resolve()):
        out["problem"] = f"imported phyllo from {out['phyllo_file']}, not from the checkout"
    elif any(code != 0 for code in out["codes"]):
        out["problem"] = f"exit codes {out['codes']}: {out.get('traceback', stdout[-500:])}"
    elif any(line.startswith("FAIL ") for line in stdout.splitlines()):
        out["problem"] = "a FAIL invariant was printed"
    elif missing:
        out["problem"] = f"missing outputs {missing}"
    else:
        out["sha256"] = _digest(workdir, plan.outputs, stdout)
    return out


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    workload = WORKLOADS[workload_name]
    size = workload.pick_size(seed)
    plan = workload.plan(size)
    run_id = f"{workload_name}-s{seed}-t{int(trace)}-p{os.getpid()}"
    base = OUT / "work" / run_id
    shutil.rmtree(base, ignore_errors=True)

    reps: list[dict] = []
    durations: list[float] = []
    first_sha = None
    start = time.monotonic()
    min_reps = 2 if trace else 3
    try:
        while True:
            rep_trace = trace and len(reps) % 2 == 1
            workdir = base / f"rep{len(reps)}"
            t0 = time.monotonic()
            rep = run_rep(plan, workdir, rep_trace, run_id, RUN_CAP_S - (t0 - start))
            if "problem" not in rep:
                if first_sha is None:
                    first_sha = rep["sha256"]
                    problem = workload.check(size, workdir, rep["stdout"])
                    if problem:
                        rep["problem"] = problem
                elif rep["sha256"] != first_sha:
                    rep["problem"] = "output bytes differ from the first repetition"
            shutil.rmtree(workdir, ignore_errors=True)
            reps.append(rep)
            durations.append(time.monotonic() - t0)
            elapsed = time.monotonic() - start
            next_end = elapsed + statistics.median(durations)
            if len(reps) >= min_reps and next_end > seconds or next_end > RUN_CAP_S:
                break
    finally:
        shutil.rmtree(base, ignore_errors=True)

    good = [r for r in reps if "problem" not in r]
    failed = len(reps) - len(good)
    record = {
        "workload": workload_name,
        "why": workload.why,
        "seed": seed,
        "seed_used": workload.seeded,
        workload.size_arg: size,
        "sites": good[0]["sites"] if good else None,
        "trace": trace,
        "reps": len(reps),
        "traced_reps": sum(r["trace"] for r in reps),
        "sha256": first_sha,
        "problems": [r["problem"] for r in reps if "problem" in r],
        "machine": machine_record(),
    }
    plain = [r for r in good if not r["trace"]]
    traced = [r for r in good if r["trace"]]
    metrics: dict[str, tuple[float, str]] = {}
    if plain and not trace:
        wall = statistics.median(r["scaled_wall_s"] for r in plain)
        values = {
            "wall_s": wall,
            "sites_per_s": plain[0]["sites"] / wall,
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        metrics = {name: (v, END_TO_END_UNITS[name]) for name, v in values.items()}
        for key in ("scaled_wall_s", "wall_s", "setup_s", "raw_setup_s"):
            record[f"{key}_samples"] = [r[key] for r in plain]
        for key in ("import_probe", "run_probe"):
            record[f"{key}_s_samples"] = [r[key]["probe_s"] for r in plain]
    elif plain and traced:
        per_rep = [layer_metrics(r["spans"], r["qhull_s"]) for r in traced]
        for name in per_rep[0]:
            metrics[name] = (statistics.median(m[name] for m in per_rep), LAYER_UNITS[name])
        overhead = statistics.median(r["wall_s"] for r in traced) - statistics.median(
            r["wall_s"] for r in plain
        )
        metrics["trace.overhead_s"] = (overhead, "s")
        record["spans"] = [r["spans"] for r in traced]
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src/phyllo/cli.py").is_file():
        print(f"perfbench: no phyllo sources under {ROOT / 'src'}", file=sys.stderr)
        return 1

    record, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({"record": record, "result": result}), encoding="utf-8")
    record.pop("spans", None)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
