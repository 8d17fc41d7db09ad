"""Determinism of every paired study, checked the same way for each.

Each :class:`~repro.study.PairedResult` subclass is keyed here to a
mini-scale run of its study.  Every registered study must give an
``==``-equal result for the same seed, a different result for another
seed, and the same result with telemetry and tracing on or off; its
comparison table must have one cell per arm.  A ``PairedResult`` type
anywhere in ``repro`` that this registry lacks fails the guard test, so
a new study cannot ship without these checks.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
from dataclasses import dataclass, replace
from typing import Callable

import pytest

import repro
from repro.core.spider import SpiderSystem
from repro.faults.plan import cable_failure_scenario
from repro.metatier import MetaStudyResult, MetaStudySpec, run_meta_study
from repro.network.storm import StormStudyResult, run_storm_study
from repro.obs.instruments import Telemetry, use_telemetry
from repro.obs.overlay import MttdStudyResult, run_mttd_study
from repro.obs.trace import Tracer, use_tracer
from repro.resilience import PairedStudyResult, run_paired_study
from repro.study import PairedResult
from repro.units import GB, MiB
from tests.conftest import mini_spec

SEED = 11
OTHER_SEED = 3


def _fresh_system() -> SpiderSystem:
    return SpiderSystem(mini_spec(), seed=7)


def _storm(seed: int) -> StormStudyResult:
    base = mini_spec()
    spec = replace(base, torus=replace(base.torus, link_bw=0.5 * GB))
    return run_storm_study(lambda: SpiderSystem(spec, seed=7), seed=seed,
                           duration=3600.0, storm_start=600.0,
                           storm_end=3000.0)


def _meta(seed: int) -> MetaStudyResult:
    return run_meta_study(MetaStudySpec(
        n_files=2_000, files_per_dir=200, n_epochs=1,
        segment_bytes=4 * MiB, seed=seed))


@dataclass(frozen=True)
class Study:
    """A registered study: its mini-scale run, and the telemetry counters
    that run must emit when telemetry is on."""

    run: Callable[[int], PairedResult]
    counters: tuple[str, ...] = ()


STUDIES: dict[type, Study] = {
    PairedStudyResult: Study(lambda seed: run_paired_study(
        _fresh_system, cable_failure_scenario, seed=seed)),
    MttdStudyResult: Study(lambda seed: run_mttd_study(
        _fresh_system, cable_failure_scenario, seed=seed)),
    StormStudyResult: Study(_storm),
    MetaStudyResult: Study(_meta, counters=("metatier.needle_writes",)),
}

registered = pytest.mark.parametrize(
    "kind", list(STUDIES), ids=lambda kind: kind.__name__)


@functools.cache
def _baseline(kind: type) -> PairedResult:
    """The study at ``SEED`` with telemetry and tracing off."""
    with use_telemetry(Telemetry(enabled=False)), \
            use_tracer(Tracer(enabled=False)):
        return STUDIES[kind].run(SEED)


@registered
def test_same_seed_is_equal(kind):
    assert STUDIES[kind].run(SEED) == _baseline(kind)


@registered
def test_different_seed_differs(kind):
    assert STUDIES[kind].run(OTHER_SEED) != _baseline(kind)


@registered
def test_telemetry_and_tracer_on_off_is_equal(kind):
    telemetry = Telemetry(enabled=True)
    with use_telemetry(telemetry), use_tracer(Tracer(enabled=True)):
        loud = STUDIES[kind].run(SEED)
    assert loud == _baseline(kind)
    emitted = {c.name for c in telemetry.counters()}
    assert set(STUDIES[kind].counters) <= emitted


@registered
def test_rows_have_one_cell_per_arm(kind):
    result = _baseline(kind)
    assert isinstance(result, kind)
    rows = result.rows()
    assert len(rows) == len(kind.METRICS)
    assert all(len(row) == 1 + len(result.arms) for row in rows)


def test_every_paired_result_is_registered():
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)
    unregistered = sorted(kind.__name__
                          for kind in PairedResult.__subclasses__()
                          if kind not in STUDIES)
    assert not unregistered, (
        f"register {unregistered} in tests/test_study_determinism.py")
