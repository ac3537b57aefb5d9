"""Offer, interest, grant, materialize: the scheduling-round protocol.

The scheduler advertises free execution windows; waiting jobs signal
interest when they can potentially fit a subjob into the window, or
decline with a reason; a grant policy picks one interested job per offer;
only then does the winner plan its subjobs for the window, and materialize
mints them. Interest is a verdict, not a plan: segmentation decides most
verdicts from bounds on the first fragment, and plans only the rest. No
subjob state is created before the grant.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from . import policies as _policies
from .cluster import ExecutionWindow, SliceCatalog
from .profiles import RiskParams
from .segmentation import (
    PlanRefusal,
    SegmentationConfig,
    interest_verdict,
    plan_segments,
    window_terms,
)
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
    """Each waiting job's verdict on the offer; pure, no state is created.

    A job signals interest iff plan_segments would plan at least one
    admissible fragment of the window, and declines with the reason it
    would refuse with otherwise; non-atomizable jobs decline and take the
    conventional placement path. The window's terms are worked out once
    per grid step, so a job whose verdict is cached costs one lookup. A
    job's demand floor, when it has one, raises the envelope it is judged
    on. resume_positions lets the caller pipeline a job that already holds
    planned subjobs: its verdict starts where the pending work ends.
    """
    offer_id, window = offer.offer_id, offer.window
    resume = resume_positions or {}
    terms = {}  # by grid step: a scenario has one, library callers may mix
    signals: list[InterestSignal] = []
    for job in waiting:
        job_id = job.spec.job_id
        h = job.profile.grid_step
        at = terms.get(h)
        if at is None:
            at = terms[h] = window_terms(window, h, catalog, risk, seg)
        reason = interest_verdict(job, at, resume.get(job_id))
        if reason:
            signals.append(InterestSignal(offer_id, job_id, DECLINE, reason))
        else:
            signals.append(InterestSignal(offer_id, job_id, INTEREST))
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
    catalog: SliceCatalog,
    risk: RiskParams,
    seg: SegmentationConfig,
    start_position_s: float | None = None,
) -> tuple[SubJob, ...]:
    """Plan the granted job's window and mint its subjobs.

    The plan starts where the job's verdict did: at start_position_s when
    the grant pipelines the job, else at its position. Nothing between
    verdict and grant moves a profile, demand floor or position, so an
    interested job's plan has a fragment; a refusal raises ValueError. Each
    fragment becomes a subjob at window.start + offset_s, except any at or
    past the job's actual end; never the first, which starts at an
    unfinished position. Segmentation sized each fragment on the risk.eps
    envelope (raised by any demand floor), so none peaks above its
    capacity there.
    """
    if granted.job_id != job.spec.job_id:
        raise ValueError("grant addressed to a different job")
    # Through the module global, where tracers hook it.
    plan = plan_segments(job, window, catalog, risk, seg, start_position_s=start_position_s)
    if isinstance(plan, PlanRefusal):
        raise ValueError(f"job {job.spec.job_id} has no plan for the window: {plan.reason}")
    subjobs: list[SubJob] = []
    for frag in plan:
        if frag.pos_from_s >= job.actual_duration_s - 1e-9:
            break
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
            )
        )
    return tuple(subjobs)
