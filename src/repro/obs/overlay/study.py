"""The A16 experiment: analytic vs observed vs tightened MTTD.

:func:`run_mttd_study` runs the same fault plan on the same seed three
times, all with the closed-loop remediation enabled:

* **analytic** — the stock :class:`~repro.resilience.detector.Detector`
  (poll grid + geometric misses + debounce), no overlay;
* **observed** — the overlay rides the campaign and its
  :class:`~repro.obs.overlay.observed.ObservedDetector` feeds the
  pipeline, so MTTD now includes real tree lag and batch loss;
* **tight** — the same overlay with
  :meth:`~repro.obs.overlay.config.OverlayConfig.tightened` knobs
  (faster cadence, wider fan-in ⇒ shallower tree), demonstrating the
  acceptance criterion: tightening the monitoring pipeline strictly
  reduces MTTD, and the reduction is a closed-form function of scrape
  interval and tree depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.resilience.playbooks import RemediationPolicy
from repro.study import PairedResult, campaign_arm

from repro.obs.overlay.config import OverlayConfig
from repro.obs.overlay.runtime import OverlayOutcome

if TYPE_CHECKING:
    from repro.core.spider import SpiderSystem
    from repro.faults.plan import FaultPlan

__all__ = ["MttdArm", "MttdStudyResult", "run_mttd_study"]


@dataclass(frozen=True)
class MttdArm:
    """One arm of the MTTD study, reduced to comparable scalars."""

    name: str
    scrape_interval: float
    tree_depth: int
    mean_mttd_seconds: float
    mean_mttr_seconds: float
    availability: float
    n_faults: int
    overlay: OverlayOutcome | None = None


@dataclass(frozen=True)
class MttdStudyResult(PairedResult):
    """Analytic vs observed vs tightened-overlay detection, one seed."""

    ARMS = ("analytic", "observed", "tight")
    METRICS = (
        ("scrape/poll interval", lambda a: f"{a.scrape_interval:,.1f} s"),
        ("tree depth", lambda a: str(a.tree_depth) if a.tree_depth else "—"),
        ("mean MTTD", lambda a: f"{a.mean_mttd_seconds:,.1f} s"),
        ("mean MTTR", lambda a: f"{a.mean_mttr_seconds:,.1f} s"),
        ("availability", lambda a: f"{a.availability:.3%}"),
    )

    seed: int
    analytic: MttdArm
    observed: MttdArm
    tight: MttdArm

    @property
    def observed_penalty_seconds(self) -> float:
        """MTTD the monitoring pipeline adds over the analytic model."""
        return (self.observed.mean_mttd_seconds
                - self.analytic.mean_mttd_seconds)

    @property
    def tightening_gain_seconds(self) -> float:
        """MTTD removed by tightening cadence and fan-in."""
        return (self.observed.mean_mttd_seconds
                - self.tight.mean_mttd_seconds)


def run_mttd_study(
    system_factory: "Callable[[], SpiderSystem]",
    plan_factory: "Callable[[SpiderSystem], FaultPlan]",
    *,
    seed: int = 0,
    duration: float | None = None,
    threshold: float = 0.5,
    base: OverlayConfig | None = None,
) -> MttdStudyResult:
    """Run the analytic / observed / tightened triple on one plan.

    Args:
        system_factory: builds a *fresh* system per arm (campaigns mutate
            hardware state, so arms cannot share one instance).
        plan_factory: builds the fault plan from that system; must be
            deterministic so every arm faces the same faults.
        seed: seeds both the remediation policy and the overlay.
        duration: campaign horizon override.
        threshold: degradation threshold for the availability metric.
        base: the observed arm's overlay config (default
            :class:`OverlayConfig` with this ``seed``); the tight arm
            uses ``base.tightened()``.
    """
    if base is None:
        base = OverlayConfig(seed=seed)
    policy = RemediationPolicy(imperative=True, hp_journaling=True, seed=seed)

    def arm(name: str, config: OverlayConfig | None) -> MttdArm:
        result = campaign_arm(
            system_factory, plan_factory,
            duration=duration, threshold=threshold,
            remediation=policy, overlay=config)
        remediation, overlay = result.remediation, result.overlay
        assert remediation is not None
        return MttdArm(
            name=name,
            scrape_interval=(config.scrape_interval if config is not None
                             else policy.detection.poll_interval),
            tree_depth=overlay.tree_depth if overlay is not None else 0,
            mean_mttd_seconds=remediation.mean_mttd_seconds,
            mean_mttr_seconds=remediation.mean_mttr_seconds,
            availability=result.availability,
            n_faults=remediation.n_faults,
            overlay=overlay,
        )

    return MttdStudyResult(
        seed=seed,
        analytic=arm("analytic", None),
        observed=arm("observed", base),
        tight=arm("tight", base.tightened()),
    )
