"""The benchmark's four workloads: inputs from a seed, one study call each.

Each workload calls a shipped study's public entry point on Spider II.
``setup(seed, size)`` imports the study and fixes its specs, and returns
the study as a zero-argument callable plus a dict of input sizes, which
the call fills in.  The call builds each arm's system, jobs and fault
plan when the arm starts and drops them when it ends, as the CLI does,
so ``peak_rss_mib`` sees one arm's system live at a time, as the program
does.  The benchmark times the two parts separately (``setup_s`` and
``run_s``).  ``check(result, size)`` lists violated invariants, and
``census(result)`` reads exact counts from the frozen result.  Why each
workload exists is in README.md.

``repro`` is imported inside the functions, never at module level, so
``setup_s`` covers the simulator's import time too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

@dataclass(frozen=True)
class Workload:
    """One benchmark workload: sizes per scale plus its three hooks."""

    name: str
    #: input sizes: ``full`` is what the benchmark measures, ``tiny`` is
    #: the self-test's seconds-long version of the same shape
    sizes: dict
    setup: Callable
    check: Callable
    #: exact counts read from the result (most come from the traced run)
    census: Callable = lambda result: {}


# -- sched_week -----------------------------------------------------------------

def _sched_setup(seed: int, size: dict):
    from repro.core.spider import build_spider2
    from repro.faults import FaultPlan
    from repro.sched import FacilityScheduler, JobMix, QosPolicy, generate_jobs
    from repro.units import DAY

    duration = size["days"] * DAY
    inputs: dict = {}

    def arm(policy):
        # As `spider-repro sched --faults`: a fresh system, job list and
        # fault plan per arm, built when the arm starts.
        system = build_spider2(seed=seed, build_clients=False)
        jobs = generate_jobs(
            JobMix().scaled(size["rate_scale"]), duration=duration, seed=seed,
            reference_bandwidth=system.aggregate_bandwidth(fs_level=True))
        plan = FaultPlan.random(system, duration=duration,
                                n_faults=size["faults"], seed=seed)
        inputs.update(jobs=len(jobs), planned_faults=len(plan))
        return FacilityScheduler(system, jobs, policy=policy,
                                 fault_plan=plan, seed=seed).run()

    def study():
        return tuple(arm(policy)
                     for policy in (QosPolicy.disabled(), QosPolicy()))

    return study, inputs


def _sched_check(result, size: dict) -> list[str]:
    problems = []
    off, on = result
    if off.qos_enabled or not on.qos_enabled:
        problems.append("arms are not caps-off then caps-on")
    for arm in result:
        if arm.n_finished + arm.n_censored != arm.n_submitted:
            problems.append("finished + censored != submitted")
        if arm.n_submitted > arm.n_jobs or arm.n_finished < 1:
            problems.append("job accounting out of range")
    if off.n_jobs != on.n_jobs:
        problems.append("arms saw different job populations")
    return problems


def _sched_census(result) -> dict:
    return {
        "sched.jobs_finished": sum(arm.n_finished for arm in result),
        "sched.jobs_censored": sum(arm.n_censored for arm in result),
    }


# -- fault_week -------------------------------------------------------------------

def _fault_plan(system, seed: int, size: dict):
    """A random-fault week with one fault of every class, each drawn by a
    seeded :meth:`FaultPlan.random` of that class alone.  A plain
    ``FaultPlan.random`` draws the classes too, and router outages cost
    several times any other class, so its run time swings 2-3x from seed
    to seed; fixing the mix keeps that swing out of ``run_s``.  As in
    ``FaultPlan.random``, no two faults share a (mechanism, target): a
    draw that would stack on a taken target is redrawn."""
    from repro.faults import FaultClass, FaultPlan
    from repro.units import DAY

    cable = (FaultClass.CABLE_DEGRADE, FaultClass.CABLE_FAIL)
    plan, taken = FaultPlan(), set()
    for k, fault_class in enumerate(FaultClass):
        for draw in range(32):
            (fault,) = FaultPlan.random(
                system, duration=size["days"] * DAY, n_faults=1,
                seed=(seed * 16 + k) * 32 + draw, classes=[fault_class])
            key = ("cable" if fault_class in cable else fault_class.value,
                   fault.target)
            if key not in taken:
                break
        else:
            raise ValueError(f"no free target for {fault_class.value}")
        taken.add(key)
        plan = plan + FaultPlan([fault])
    return plan


def _fault_setup(seed: int, size: dict):
    from repro.core.spider import build_spider2
    from repro.resilience import run_paired_study
    from repro.units import DAY

    inputs: dict = {}

    def plan_factory(system):
        plan = _fault_plan(system, seed, size)
        inputs["planned_faults"] = len(plan)
        return plan

    def study():
        # As `spider-repro resilience --scenario week`: the study builds
        # one system and plan per arm, when the arm starts.
        return run_paired_study(lambda: build_spider2(seed=seed),
                                plan_factory, seed=seed,
                                duration=size["days"] * DAY)

    return study, inputs


def _fault_check(result, size: dict) -> list[str]:
    problems = []
    arms = (result.manual, result.automated, result.standard)
    if len({arm.n_injected for arm in arms}) != 1:
        problems.append("arms injected different fault counts")
    for arm in arms:
        if not 0.0 <= arm.availability <= 1.0:
            problems.append(f"{arm.name}: availability out of [0, 1]")
        if arm.n_repaired > arm.n_injected or arm.n_injected < 1:
            problems.append(f"{arm.name}: fault accounting out of range")
    if result.manual.remediation is not None \
            or result.automated.remediation is None:
        problems.append("remediation attached to the wrong arm")
    return problems


# -- storm --------------------------------------------------------------------------

def _storm_setup(seed: int, size: dict):
    from dataclasses import replace

    from repro.core.spider import SPIDER2, build_spider2
    from repro.network.storm import run_storm_study
    from repro.units import GB

    # The scarce-row regime of `spider-repro storm`: slow torus links.
    spec = replace(SPIDER2, torus=replace(
        SPIDER2.torus, link_bw=size["link_gbps"] * GB))

    def study():
        # As the CLI: the study builds one system per arm.
        return run_storm_study(
            lambda: build_spider2(seed=seed, build_clients=False, spec=spec),
            seed=seed, n_storm_clients=size["clients"], stripe=size["stripe"],
            duration=size["duration_s"], storm_start=size["storm_start_s"],
            storm_end=size["storm_end_s"])

    return study, {}


def _storm_check(result, size: dict) -> list[str]:
    problems = []
    static, flowlet = result.static, result.flowlet
    if static.rehashes or static.backpressure_engagements:
        problems.append("static arm adapted its routing")
    if len(static.samples) != len(flowlet.samples) or not static.samples:
        problems.append("arms sampled different timelines")
    if not any(s.storm_active for s in static.samples):
        problems.append("the storm never started")
    for arm in (static, flowlet):
        if any(s.probe_rate < 0 for s in arm.samples):
            problems.append(f"{arm.name}: negative probe rate")
    return problems


# -- meta_day -------------------------------------------------------------------------

def _meta_setup(seed: int, size: dict):
    from repro.metatier import MetaStudySpec, run_meta_study
    from repro.units import MiB

    spec = MetaStudySpec(n_files=size["files"], seed=seed,
                         segment_bytes=size["segment_mib"] * MiB)

    def study():
        return run_meta_study(spec)

    return study, {}


def _meta_check(result, size: dict) -> list[str]:
    problems = []
    base, agg = result.baseline, result.aggregated
    if base.logical_ops != agg.logical_ops:
        problems.append("arms issued different logical op counts")
    if base.n_creates != size["files"] or agg.n_creates != size["files"]:
        problems.append("creates != files")
    if not 0 < agg.mds_ops < base.mds_ops:
        problems.append("aggregation did not cut MDS ops")
    return problems


def _meta_census(result) -> dict:
    return {
        "lustre.mds.ops.per_file": result.baseline.mds_ops,
        "lustre.mds.ops.aggregated": result.aggregated.mds_ops,
    }


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "sched_week",
        sizes={"full": {"days": 7, "rate_scale": 0.5, "faults": 12},
               "tiny": {"days": 1, "rate_scale": 0.2, "faults": 3}},
        setup=_sched_setup, check=_sched_check, census=_sched_census),
    Workload(
        "fault_week",
        sizes={"full": {"days": 7}, "tiny": {"days": 1}},
        setup=_fault_setup, check=_fault_check),
    Workload(
        "storm",
        sizes={"full": {"duration_s": 480.0, "storm_start_s": 80.0,
                        "storm_end_s": 400.0, "clients": 6, "stripe": 12,
                        "link_gbps": 0.5},
               "tiny": {"duration_s": 240.0, "storm_start_s": 60.0,
                        "storm_end_s": 180.0, "clients": 3, "stripe": 4,
                        "link_gbps": 0.5}},
        setup=_storm_setup, check=_storm_check),
    Workload(
        "meta_day",
        sizes={"full": {"files": 15_000, "segment_mib": 1},
               "tiny": {"files": 2_000, "segment_mib": 8}},
        setup=_meta_setup, check=_meta_check, census=_meta_census),
)}
