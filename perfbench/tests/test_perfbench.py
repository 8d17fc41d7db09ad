"""Self-test of the benchmark at tiny input sizes (about a minute).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import dataclasses
import gc
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402
import pin  # noqa: E402
import results  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SEED = 3
COUNTS = [name for name, unit in layers.PER_LAYER if unit == "count"]


@pytest.fixture(scope="module")
def reports():
    """Per workload: one untraced and two traced tiny runs, in-process."""
    out = {}
    for name in workloads.WORKLOADS:
        out[name] = [worker.measure(name, SEED, "tiny", traced=traced)
                     for traced in (False, True, True)]
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_and_tracing_changes_nothing(reports, name):
    plain, traced, again = reports[name]
    for report in (plain, traced, again):
        assert report["error"] is None
        assert report["violations"] == []
        assert report["run_s"] > 0 and report["peak_rss_mib"] > 0
    assert traced["fingerprint"] == plain["fingerprint"]
    expected = {n for n, _u in layers.PER_LAYER} - {"trace.overhead_frac"}
    assert set(traced["layers"]) == expected
    assert {k: traced["layers"][k] for k in COUNTS} == \
        {k: again["layers"][k] for k in COUNTS}


def test_traced_workloads_reach_their_layers(reports):
    def layer(name, metric):
        return reports[name][1]["layers"][metric]

    assert layer("sched_week", "sched.alloc_rounds") > 0
    assert layer("sched_week", "workloads.replay.calls") > 0
    assert layer("sched_week", "core.path.resolves") == 0
    assert layer("fault_week", "core.flow.delta") > 0
    assert layer("fault_week", "faults.injected") > 0
    assert layer("fault_week", "resilience.remediations") > 0
    assert layer("storm", "network.torus.route_calls") > 0
    assert layer("storm", "obs.overlay.windows") > 0
    assert layer("storm", "sched.alloc_rounds") == 0
    assert layer("meta_day", "metatier.needles.compactions") > 0
    assert layer("meta_day", "lustre.mds.ops.per_file") > 0
    assert layer("meta_day", "core.flow.networks") == 0


def test_tracing_restores_the_program():
    from repro.analysis import interference
    from repro.core.flow import FlowNetwork

    before = (FlowNetwork.solve, FlowNetwork.__init__,
              interference.replay_trace)
    trace = layers.LayerTrace("restore").install()
    assert interference.replay_trace is not before[2]
    trace.uninstall()
    assert (FlowNetwork.solve, FlowNetwork.__init__,
            interference.replay_trace) == before


def test_host_speed_samples_without_touching_the_program():
    before = signal.getsignal(signal.SIGALRM)
    span = worker.HostSpeed().start()
    end = time.perf_counter() + 4 * worker.SAMPLE_PERIOD_S
    while time.perf_counter() < end:
        pass
    span.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(span.samples) >= 4  # ticks inside, plus one at each end
    assert 0 < span.sampling_s < span.wall_s
    assert span.seconds > 0

    tracked = gc.get_count()[0]
    worker._cal_slice()
    assert gc.get_count()[0] == tracked


def test_perturbed_reference_is_a_failure(reports):
    report = reports["meta_day"][0]
    size = workloads.WORKLOADS["meta_day"].sizes["tiny"]
    pinned = {"meta_day": {str(SEED): {
        "size": size, "fingerprint": dict(report["fingerprint"])}}}

    def judged(references):
        runs = [copy.deepcopy(report)]
        run.judge(runs, references, "meta_day", SEED, "tiny")
        return runs[0]

    assert judged(pinned)["ok"]
    fp = pinned["meta_day"][str(SEED)]["fingerprint"]
    fp[".aggregated.mds_busy_makespan"] *= 1 + 1e-12  # inside the slack
    assert judged(pinned)["ok"]
    fp[".aggregated.mds_busy_makespan"] *= 1 + 1e-6
    assert not judged(pinned)["ok"]
    fp[".aggregated.mds_busy_makespan"] = report["fingerprint"][
        ".aggregated.mds_busy_makespan"]
    fp[".baseline.mds_ops"] += 1
    failed = judged(pinned)
    assert not failed["ok"]
    assert any("mds_ops" in p for p in failed["problems"])


def test_fingerprint_checks_every_item_of_a_long_sequence():
    @dataclasses.dataclass(frozen=True)
    class Job:
        name: str
        censored: int
        finish: float | None

    jobs = [Job(f"j{i}", i % 3, None if i % 5 == 0 else 1e6 + i)
            for i in range(results.LIST_LIMIT * 4)]
    pinned = results.fingerprint(jobs)
    assert results.compare(results.fingerprint(list(jobs)), pinned) == []

    swapped = list(jobs)
    swapped[1], swapped[2] = (dataclasses.replace(swapped[1], censored=2),
                              dataclasses.replace(swapped[2], censored=1))
    assert any("censored#crc" in p
               for p in results.compare(results.fingerprint(swapped), pinned))

    def finish_moved(by):
        moved = list(jobs)
        moved[7] = dataclasses.replace(moved[7], finish=moved[7].finish + by)
        return results.compare(results.fingerprint(moved), pinned)

    assert finish_moved(1e-4) == []  # 1e-10 relative: inside the slack
    assert finish_moved(0.01) == ["[*].finish#values: [7] got "
                                  "1000007.01, pinned 1000007.0"]


def test_references_are_pinned_at_current_sizes():
    references = results.load_references()
    for name, workload in workloads.WORKLOADS.items():
        for seed in pin.PINNED_SEEDS:
            assert references[name][str(seed)]["size"] == \
                workload.sizes["full"]


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(layers.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_every_metric_with_its_unit(trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "meta_day",
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert json.loads(lines[-2])["manifest"]["runs"] == result["attempted"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    table = layers.PER_LAYER if trace else run.END_TO_END
    assert {n: m["unit"] for n, m in result["metrics"].items()} == dict(table)
    for name, unit in table:
        assert any(line.split()[:1] == [name] and line.endswith(unit)
                   for line in lines), name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "storm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
