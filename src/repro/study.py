"""The paired-study kernel shared by every headline study.

Each study (remediation, detection, metadata tier, storm routing) runs
one seeded timeline once per arm and freezes every arm into a
plain-value dataclass, so identically seeded runs compare equal with
``==`` whether telemetry and tracing are on or off.  A study result
declares its comparison once, as two class variables of
:class:`PairedResult`:

* ``ARMS`` — the names of its arm fields, in table-column order;
* ``METRICS`` — ``(label, formatter)`` pairs, one per table row, each
  formatter turning one arm into its cell.

The mixin holds no dataclass field, so a result's ``==``, ``repr`` and
field set stay exactly its own.  Every subclass is registered in
``tests/test_study_determinism.py``, which checks same seed ``==``,
different seed ``!=`` and telemetry/tracer on/off ``==`` for each; a
subclass the registry lacks fails that suite.

:func:`campaign_arm` is the arm runner of the fault-campaign studies.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, ClassVar

if TYPE_CHECKING:
    from repro.core.spider import SpiderSystem
    from repro.faults.campaign import CampaignResult
    from repro.faults.plan import FaultPlan
    from repro.obs.overlay.config import OverlayConfig
    from repro.resilience.playbooks import RemediationPolicy

__all__ = ["PairedResult", "campaign_arm"]


class PairedResult:
    """Mixin for a frozen study result: arms and metric rows declared as
    class variables, the comparison table derived from them."""

    ARMS: ClassVar[tuple[str, ...]]
    METRICS: ClassVar[tuple[tuple[str, Callable[[Any], str]], ...]]

    @property
    def arms(self) -> tuple:
        """The arm values, in ``ARMS`` order."""
        return tuple(getattr(self, name) for name in self.ARMS)

    def rows(self) -> list[tuple[str, ...]]:
        """Comparison table rows: the metric label, then one cell per arm."""
        arms = self.arms
        return [(label, *(fmt(arm) for arm in arms))
                for label, fmt in self.METRICS]


def campaign_arm(
    system_factory: "Callable[[], SpiderSystem]",
    plan_factory: "Callable[[SpiderSystem], FaultPlan]",
    *,
    duration: float | None,
    threshold: float,
    remediation: "RemediationPolicy | None",
    overlay: "OverlayConfig | None" = None,
) -> "CampaignResult":
    """Run one arm of a fault-campaign study.

    Builds a fresh system and its fault plan (campaigns mutate hardware
    state, so arms cannot share one), attaches a monitoring overlay with
    the ``overlay`` knobs when given, and runs the
    :class:`~repro.faults.campaign.FaultCampaign` over ``duration``
    seconds (``None``: the plan's own horizon).
    """
    # Imported lazily to keep this module import-light; the campaign
    # itself lazy-imports the resilience runner the same way.
    from repro.faults.campaign import FaultCampaign

    system = system_factory()
    plan = plan_factory(system)
    monitor = None
    if overlay is not None:
        from repro.obs.overlay.runtime import MonitoringOverlay

        monitor = MonitoringOverlay(system, overlay)
    return FaultCampaign(
        system, plan,
        duration=duration,
        threshold=threshold,
        remediation=remediation,
        monitor=monitor,
    ).run()
