"""The headline experiment: plan-scripted vs closed-loop remediation.

:func:`run_paired_study` runs the *same* fault plan on the *same* seed
three times — once with only the plan's scripted repairs (how the §IV-A
timeline actually played out: operators noticed, diagnosed, and walked to
the rack), once with the automated closed loop driving imperative
recovery + ARN, and once with the closed loop downgraded to standard
recovery (the §IV-D ablation).  Because the injected faults, flow
re-solves, and sampling grid are identical across arms, every difference
in availability and blackout seconds is attributable to remediation
alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.resilience.playbooks import RemediationPolicy
from repro.resilience.runner import RemediationOutcome
from repro.study import PairedResult, campaign_arm

if TYPE_CHECKING:
    from repro.core.spider import SpiderSystem
    from repro.faults.plan import FaultPlan

__all__ = ["StudyArm", "PairedStudyResult", "run_paired_study"]


@dataclass(frozen=True)
class StudyArm:
    """One arm of the paired study, reduced to comparable scalars."""

    name: str
    availability: float
    blackout_seconds: float
    worst_bw: float
    n_injected: int
    n_repaired: int
    remediation: RemediationOutcome | None = None


@dataclass(frozen=True)
class PairedStudyResult(PairedResult):
    """Manual vs automated vs standard-recovery ablation, one seed."""

    ARMS = ("manual", "automated", "standard")
    METRICS = (
        ("availability", lambda a: f"{a.availability:.3%}"),
        ("blackout", lambda a: f"{a.blackout_seconds:,.0f} s"),
        ("mean MTTR", lambda a: (
            "—" if a.remediation is None
            else f"{a.remediation.mean_mttr_seconds:,.1f} s")),
    )

    seed: int
    manual: StudyArm
    automated: StudyArm
    standard: StudyArm

    @property
    def blackout_reduction_seconds(self) -> float:
        """Blackout seconds the closed loop removed vs the scripted plan."""
        return self.manual.blackout_seconds - self.automated.blackout_seconds

    @property
    def availability_gain(self) -> float:
        """Availability delta, automated minus manual."""
        return self.automated.availability - self.manual.availability


def run_paired_study(
    system_factory: "Callable[[], SpiderSystem]",
    plan_factory: "Callable[[SpiderSystem], FaultPlan]",
    *,
    seed: int = 0,
    duration: float | None = None,
    threshold: float = 0.5,
) -> PairedStudyResult:
    """Run the manual / automated / standard-ablation triple.

    Args:
        system_factory: builds a *fresh* system per arm (arms mutate
            hardware state, so they cannot share one instance).
        plan_factory: builds the fault plan from that system; must be
            deterministic so all arms face the same faults.
        seed: seeds the remediation policy (detection misses, step
            failures, backoff jitter, nested recovery sims).
        duration: campaign horizon override, as in
            :class:`~repro.faults.campaign.FaultCampaign`.
        threshold: degradation threshold for the availability metrics.
    """
    def arm(name: str, remediation: RemediationPolicy | None) -> StudyArm:
        result = campaign_arm(
            system_factory, plan_factory,
            duration=duration, threshold=threshold, remediation=remediation)
        return StudyArm(
            name=name,
            availability=result.availability,
            blackout_seconds=result.total_blackout_seconds(),
            worst_bw=result.worst_bw,
            n_injected=result.n_injected,
            n_repaired=result.n_repaired,
            remediation=result.remediation,
        )

    return PairedStudyResult(
        seed=seed,
        manual=arm("manual", None),
        automated=arm("automated", RemediationPolicy(
            imperative=True, hp_journaling=True, seed=seed)),
        standard=arm("standard-recovery", RemediationPolicy(
            imperative=False, hp_journaling=False, seed=seed)),
    )
