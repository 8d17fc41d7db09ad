"""Host-time benchmark over four shipped Spider II studies.

    python3 perfbench/run.py --workload storm --seed 2014 --seconds 24 --trace 0

Runs one workload (see ``workloads.py`` and README.md) for about
``--seconds``: each study call gets a fresh worker process (``worker.py``),
one at a time, until the time is spent, at least ``MIN_RUNS`` of them.

* ``--trace 0`` reports the end-to-end metrics as medians over the runs:
  ``setup_s``, ``run_s``, ``peak_rss_mib`` and ``pass_frac``.  The two
  times are in calibrated seconds: each is scaled by a fixed slice of
  work's reference time over that slice's mean time sampled while the
  span ran, which cancels the host's CPU-speed swings (see
  ``worker.HostSpeed``).  The table also shows the raw wall-time medians.
* ``--trace 1`` alternates untraced and traced runs and reports the
  per-layer metrics of ``layers.PER_LAYER``: self times as medians over
  the traced runs, counts (which must repeat exactly), the tracing
  overhead against the untraced runs, and the unattributed share.  The
  spans of the last traced run are written to ``.perfbench/``.

A run passes when its study raised nothing, broke none of the workload's
invariants, produced the same result as every other run of the seed
(traced or not) and, at a pinned seed, matched ``reference.json``.
The output is a table, a manifest line and, last, one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import results  # noqa: E402
import workloads  # noqa: E402

#: fewest study runs in one benchmark run, traced and untraced together
MIN_RUNS = {0: 3, 1: 4}
#: no run starts after this many seconds, and none outlives LIMIT_S
START_LIMIT_S = 120.0
LIMIT_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("pass_frac", "fraction"),
)


def run_worker(workload: str, seed: int, scale: str, traced: bool,
                trace_out: str | None, timeout: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--scale", scale]
    if traced:
        cmd += ["--traced", "--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"traced": traced, "error": f"timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"traced": traced,
                "error": f"worker exited {proc.returncode}: {tail[0]}"}
    return json.loads(lines[-1])


def _git_state() -> dict:
    """Commit and dirty flag of the checkout, when it is a git work tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return {"git_sha": None, "git_dirty": None}
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=30).stdout.strip()
    return {"git_sha": git("rev-parse", "HEAD") or None,
            "git_dirty": bool(git("status", "--porcelain",
                                  "--untracked-files=no"))}


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def judge(runs: list[dict], references: dict, workload: str, seed: int,
           scale: str) -> None:
    """Mark each run ``ok`` and give the reasons it is not."""
    first = next((r["fingerprint"] for r in runs if "fingerprint" in r), None)
    size = workloads.WORKLOADS[workload].sizes[scale]
    for run in runs:
        problems = [run["error"]] if run.get("error") else []
        problems += run.get("violations", [])
        if "fingerprint" in run:
            if run["fingerprint"] != first:
                problems.append("result differs from the first run's")
            pinned = results.check_reference(references, workload, seed,
                                             size, run["fingerprint"])
            problems += [f"reference: {p}" for p in pinned or []]
        run["problems"] = problems
        run["ok"] = not problems


def _layer_metrics(runs: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics over the traced runs, and the counts that did
    not repeat across them."""
    traced = [r["layers"] for r in runs if r["ok"] and "layers" in r]
    plain = [r["run_s"] for r in runs if r["ok"] and not r["traced"]]
    if not traced or not plain:
        return {}, ["no passing traced and untraced run pair"]
    metrics, unsteady = {}, []
    for name, unit in layers.PER_LAYER:
        if name == "trace.overhead_frac":
            traced_s = statistics.median(r["run_s"] for r in runs
                                         if r["ok"] and r["traced"])
            metrics[name] = traced_s / statistics.median(plain) - 1.0
            continue
        values = [t[name] for t in traced]
        if unit == "count":
            if len(set(values)) != 1:
                unsteady.append(f"{name} varies: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    return metrics, unsteady


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Time one Spider II study workload at one seed.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: the self-test's small inputs")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no simulator source at {ROOT}/src/repro",
              file=sys.stderr)
        return 2

    trace_out = None
    if args.trace:
        out_dir = os.path.join(ROOT, ".perfbench")
        os.makedirs(out_dir, exist_ok=True)
        trace_out = os.path.join(out_dir,
                                 f"trace-{args.workload}-s{args.seed}.json")
    start = time.perf_counter()
    runs: list[dict] = []
    durations: list[float] = []
    while True:
        elapsed = time.perf_counter() - start
        if len(runs) >= MIN_RUNS[args.trace] and (
                elapsed + statistics.median(durations) >= args.seconds):
            break
        if runs and elapsed >= START_LIMIT_S:
            break
        traced = bool(args.trace) and len(runs) % 2 == 1
        began = time.perf_counter()
        runs.append(run_worker(args.workload, args.seed, args.scale, traced,
                                trace_out, timeout=LIMIT_S - elapsed))
        durations.append(time.perf_counter() - began)

    judge(runs, results.load_references(), args.workload, args.seed,
           args.scale)
    attempted = len(runs)
    failed = sum(not r["ok"] for r in runs)
    problems = [f"run {i}: {p}" for i, r in enumerate(runs)
                for p in r["problems"]]
    plain = [r for r in runs if r["ok"] and not r["traced"]]

    if args.trace:
        values, unsteady = _layer_metrics(runs)
        problems += unsteady
        table = layers.PER_LAYER
    else:
        values = {}
        if plain:
            values = {name: statistics.median(r[name] for r in plain)
                      for name in ("setup_s", "run_s", "peak_rss_mib")}
        values["pass_frac"] = (attempted - failed) / attempted
        table = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in table if name in values}

    for problem in problems:
        print(f"FAIL {problem}")
    width = max(len(name) for name, _unit in table)
    print(f"{args.workload} seed {args.seed}: {attempted} runs "
          f"({'traced/untraced alternating' if args.trace else 'untraced'})")
    for name, unit in table:
        shown = metrics.get(name, {}).get("value", "n/a")
        print(f"  {name:<{width}}  {shown}  {unit}")
    if plain:
        print("  wall-time medians: setup_s {:.4f}, run_s {:.4f}".format(
            *(statistics.median(r[name] for r in plain)
              for name in ("setup_wall_s", "run_wall_s"))))
    print("  per run (setup_s, run_s, traced): " + ", ".join(
        f"({r['setup_s']:.3f}, {r['run_s']:.3f}, {int(r['traced'])})"
        for r in runs if "run_s" in r))
    inputs = next((r["inputs"] for r in runs if "inputs" in r), None)
    samples = [r["sample_s"] for r in runs if "sample_s" in r]
    manifest = {
        **_git_state(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "inputs": inputs,
        "runs": attempted,
        "traced_runs": sum(bool(r.get("traced")) for r in runs),
        "host_sample_s": statistics.median(samples) if samples else None,
    }
    print(json.dumps({"manifest": manifest}))
    print(json.dumps({
        "correct": not problems and len(metrics) == len(table),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
