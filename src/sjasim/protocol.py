"""Offer, interest, grant, materialize: the scheduling-round protocol.

The scheduler advertises free execution windows; waiting jobs signal
interest or decline after a dry-run segmentation of the window against
their memory profile; a grant policy picks one interested job per offer;
only then are subjobs minted from the winner's dry-run plan, which its
interest signal carries. No subjob state is created before the grant.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from . import policies as _policies
from .cluster import ExecutionWindow, SliceCatalog
from .profiles import RiskParams, envelope_peak
from .segmentation import FragmentPlan, PlanRefusal, SegmentationConfig, plan_segments
from .workload import JobRuntime, SubJob

__all__ = [
    "Offer",
    "InterestSignal",
    "Grant",
    "advertise",
    "collect_interest",
    "grant_offer",
    "materialize",
]

INTEREST = "interest"
DECLINE = "decline"


@dataclass(frozen=True)
class Offer:
    """An advertised execution window, decided in the round that issues it."""

    offer_id: str
    window: ExecutionWindow


class InterestSignal(NamedTuple):
    """One job's answer to one offer; a plain tuple, as each pair makes one."""

    offer_id: str
    job_id: str
    kind: str  # interest | decline
    reason: str = ""
    plan: list[FragmentPlan] | None = None  # the dry-run plan; None on a decline


@dataclass(frozen=True)
class Grant:
    offer_id: str
    job_id: str


def advertise(gaps: list[ExecutionWindow], seq_start: int = 0) -> list[Offer]:
    """One offer per discovered gap; ids are deterministic sequence numbers."""
    return [Offer(f"offer-{seq_start + i:06d}", w) for i, w in enumerate(gaps)]


def collect_interest(
    offer: Offer,
    waiting: list[JobRuntime],
    catalog: SliceCatalog,
    risk: RiskParams,
    seg: SegmentationConfig,
    resume_positions: dict[str, float] | None = None,
) -> list[InterestSignal]:
    """Dry-run each waiting job against the offer; pure, no state is created.

    A job signals interest iff segmentation yields at least one admissible
    fragment, and the signal carries that plan; plan_segments refuses
    non-atomizable jobs, which take the conventional placement path. A
    job's demand floor, when it has one, raises the envelope it is planned
    on. resume_positions lets the caller pipeline a job that already holds
    planned subjobs: its plan starts where the pending work ends.
    """
    offer_id, window = offer.offer_id, offer.window
    resume = resume_positions or {}
    signals: list[InterestSignal] = []
    for job in waiting:
        job_id = job.spec.job_id
        result = plan_segments(
            job, window, catalog, risk, seg, start_position_s=resume.get(job_id)
        )
        if isinstance(result, PlanRefusal):
            signals.append(InterestSignal(offer_id, job_id, DECLINE, result.reason))
        else:
            signals.append(InterestSignal(offer_id, job_id, INTEREST, "", result))
    return signals


def grant_offer(
    offer: Offer,
    interests: list[InterestSignal],
    policy: "_policies.GrantPolicy",
    ledger: "_policies.TenantLedger | None",
    ctx: "_policies.SelectionContext",
) -> Grant | None:
    """Apply the grant policy to the interested jobs; None when nobody wins."""
    job_id = _policies.select(policy, offer, interests, ledger, ctx)
    if job_id is None:
        return None
    return Grant(offer.offer_id, job_id)


def materialize(
    job: JobRuntime,
    granted: Grant,
    window: ExecutionWindow,
    plan: list[FragmentPlan],
    risk: RiskParams,
) -> tuple[SubJob, ...]:
    """Mint the granted job's subjobs from the winner's dry-run plan.

    plan is what the job's interest signal carried; nothing between dry
    run and grant moves a profile, demand floor or position. Each fragment
    becomes a subjob at window.start + offset_s, except any at or past the
    job's actual end; never the first, which starts at an unfinished
    position. Segmentation sizes fragments on the risk.eps envelope (raised
    by any demand floor) that methods_disagree checks: the flag is never set.
    """
    if granted.job_id != job.spec.job_id:
        raise ValueError("grant addressed to a different job")
    subjobs: list[SubJob] = []
    for frag in plan:
        if frag.pos_from_s >= job.actual_duration_s - 1e-9:
            break
        peak = envelope_peak(
            job.profile, risk.eps, (frag.pos_from_s, frag.pos_to_s - job.profile.grid_step)
        )
        subjobs.append(
            SubJob(
                subjob_id=job.next_subjob_id(),
                job_id=job.spec.job_id,
                slice_id=window.slice_id,
                physical_capacity_mb=window.capacity_mb,
                slice_capacity_mb=frag.capacity_mb,
                window_start_s=window.start + frag.offset_s,
                window_duration_s=frag.duration_s,
                pos_from_s=frag.pos_from_s,
                pos_to_s=frag.pos_to_s,
                offer_id=granted.offer_id,
                work_from=job.fraction_at(frag.pos_from_s),
                work_to=job.fraction_at(frag.pos_to_s),
                predicted_peak_mb=frag.predicted_peak_mb,
                admission_probability=frag.admission_probability,
                methods_disagree=peak > frag.capacity_mb,
            )
        )
    return tuple(subjobs)
