"""Offer, interest, grant, materialize: the scheduling-round protocol.

The scheduler advertises free execution windows; waiting jobs signal
interest or decline after a dry-run segmentation of the window against
their memory profile; a grant policy picks one interested job per offer;
only then does the chosen job materialize subjob state and reservations.
No subjob state is created until a grant is issued.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from . import policies as _policies
from .cluster import ExecutionWindow, SliceCatalog
from .profiles import RiskParams, envelope_peak
from .segmentation import PlanRefusal, SegmentationConfig, plan_segments
from .workload import JobRuntime, SubJob

__all__ = [
    "Offer",
    "InterestSignal",
    "Grant",
    "advertise",
    "collect_interest",
    "grant_offer",
    "materialize",
    "MaterializeRefusal",
]

INTEREST = "interest"
DECLINE = "decline"


@dataclass(frozen=True)
class Offer:
    """An advertised execution window with an expiry."""

    offer_id: str
    window: ExecutionWindow
    issued_at: float
    expires_at: float

    def __post_init__(self) -> None:
        if self.expires_at <= self.issued_at:
            raise ValueError(f"{self.offer_id}: expiry must follow issue time")


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


@dataclass(frozen=True)
class MaterializeRefusal:
    reason: str


def advertise(
    gaps: list[ExecutionWindow], now: float, ttl: float, seq_start: int = 0
) -> list[Offer]:
    """One offer per discovered gap; ids are deterministic sequence numbers."""
    if ttl <= 0:
        raise ValueError("offer ttl must be positive")
    return [
        Offer(f"offer-{seq_start + i:06d}", w, now, now + ttl)
        for i, w in enumerate(gaps)
    ]


def collect_interest(
    offer: Offer,
    waiting: list[JobRuntime],
    catalog: SliceCatalog,
    risk: RiskParams,
    seg: SegmentationConfig,
    now: float,
    resume_positions: dict[str, float] | None = None,
) -> list[InterestSignal]:
    """Dry-run each waiting job against the offer; pure, no state is created.

    A job signals interest iff segmentation yields at least one admissible
    fragment; plan_segments refuses non-atomizable jobs, which take the
    conventional placement path. Only the verdict leaves the dry run: the
    plan stays memoized on the profile until materialize needs it. A job's
    demand floor, when it has one, raises the envelope it is planned on.
    resume_positions lets the caller pipeline a job that already holds
    planned subjobs: its plan starts where the pending work ends.
    """
    if now >= offer.expires_at:
        raise ValueError(f"{offer.offer_id} has expired")
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
) -> tuple[SubJob, ...] | MaterializeRefusal:
    """Re-validate the plan under the grant and mint its SubJob records.

    The plan is looked up again with plan_segments. When nothing changed
    since interest was signaled this is a cache hit on the job's profile;
    when the profile was refreshed or the demand floor moved, the plan is
    recomputed, and a refusal returns the offer to the pool. Each fragment
    becomes a subjob at window.start + offset_s. Fragments that would start
    at or past the job's actual completion are not materialized (the job
    side knows its remaining iteration count). Each kept fragment already
    passed joint admission; it is flagged methods_disagree when the
    envelope peak over its positions exceeds its capacity. Segmentation
    sizes every fragment to cover that same risk.eps envelope (raised by
    any demand floor), so no subjob minted here carries the flag.
    """
    if granted.job_id != job.spec.job_id:
        raise ValueError("grant addressed to a different job")
    result = plan_segments(
        job, window, catalog, risk, seg, start_position_s=start_position_s
    )
    if isinstance(result, PlanRefusal):
        return MaterializeRefusal(result.reason)
    span = job.actual_duration_s
    subjobs: list[SubJob] = []
    for plan in result:
        if plan.pos_from_s >= span - 1e-9:
            break
        peak = envelope_peak(
            job.profile, risk.eps, (plan.pos_from_s, plan.pos_to_s - job.profile.grid_step)
        )
        subjobs.append(
            SubJob(
                subjob_id=job.next_subjob_id(),
                job_id=job.spec.job_id,
                slice_id=window.slice_id,
                physical_capacity_mb=window.capacity_mb,
                slice_capacity_mb=plan.capacity_mb,
                window_start_s=window.start + plan.offset_s,
                window_duration_s=plan.duration_s,
                pos_from_s=plan.pos_from_s,
                pos_to_s=plan.pos_to_s,
                offer_id=granted.offer_id,
                work_from=job.fraction_at(plan.pos_from_s),
                work_to=job.fraction_at(plan.pos_to_s),
                predicted_peak_mb=plan.predicted_peak_mb,
                admission_probability=plan.admission_probability,
                methods_disagree=peak > plan.capacity_mb,
            )
        )
    if not subjobs:
        return MaterializeRefusal("no materializable fragment before job end")
    return tuple(subjobs)
