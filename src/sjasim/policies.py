"""Grant policies: who gets an offered window, plus fairness accounting.

All policies break ties deterministically by (policy key, arrival, job_id)
so identical inputs always produce identical grants.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .profiles import FunctionalProfile, RiskParams, deadline_admissible

if TYPE_CHECKING:  # protocol imports this module; keep the cycle type-only
    from .protocol import InterestSignal, Offer
    from .workload import JobRuntime

__all__ = [
    "GrantPolicy",
    "TenantLedger",
    "SelectionContext",
    "select",
    "offer_cost_tokens",
    "jain_index",
    "POLICY_KINDS",
]

POLICY_KINDS = ("fifo", "priority", "edf", "fair_tokens")


@dataclass(frozen=True)
class GrantPolicy:
    kind: str = field(default="fifo", metadata={"key": "policy.kind"})
    # tokens per GB-minute of offered window
    cost_rate: float = field(default=1.0, metadata={"key": "policy.cost_rate"})
    # one key per tenant: policy.budget.<tenant>
    token_budgets: dict[str, float] = field(
        default_factory=dict, metadata={"key": "policy.budget."}
    )

    def __post_init__(self) -> None:
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy.kind {self.kind!r}; choose from {POLICY_KINDS}")
        if not 0 <= self.cost_rate < math.inf:
            raise ValueError("cost_rate must be finite and >= 0")
        if any(math.isnan(b) for b in self.token_budgets.values()):
            raise ValueError("token budgets must not be nan")


class TenantLedger:
    """Token budgets per tenant; a grant debits its cost for good, as
    materialize mints the winner's planned subjobs and never refuses."""

    def __init__(self, budgets: dict[str, float] | None = None):
        self.budgets: dict[str, float] = dict(budgets or {})

    def remaining(self, tenant: str) -> float:
        return self.budgets.get(tenant, 0.0)

    def can_afford(self, tenant: str, cost: float) -> bool:
        return self.remaining(tenant) >= cost - 1e-12

    def debit(self, tenant: str, cost: float) -> None:
        if not self.can_afford(tenant, cost):
            raise ValueError(f"tenant {tenant} cannot afford {cost}")
        self.budgets[tenant] = self.remaining(tenant) - cost


def offer_cost_tokens(offer: Offer, cost_rate: float) -> float:
    """Token price of a window: capacity_GB x window_minutes x rate."""
    gb = offer.window.capacity_mb / 1024.0
    minutes = offer.window.duration / 60.0
    return gb * minutes * cost_rate


@dataclass
class SelectionContext:
    """What a policy may consult: the jobs, and each chained bidder's start
    (others start at position_s). Each edf verdict is kept by (job id,
    start), once: `reachable` holds the reachable pairs while `now` and the
    profiles stay fixed, as in a round; `parked` maps each unreachable pair
    to the profile it was screened on, and may outlive the round, since a
    deadline only gets closer."""

    now: float
    risk: RiskParams
    jobs: dict[str, JobRuntime]
    starts: dict[str, float] = field(default_factory=dict)
    reachable: set[tuple[str, float]] = field(default_factory=set)
    parked: dict[tuple[str, float], FunctionalProfile] = field(default_factory=dict)


def select(
    policy: GrantPolicy,
    offer: Offer,
    interests: list[InterestSignal],
    ledger: TenantLedger | None,
    ctx: SelectionContext,
) -> str | None:
    """Pick the job to grant the offer to, or None.

    fifo: earliest arrival. priority: highest priority first. edf: earliest
    deadline among jobs whose deadline is still probabilistically reachable
    (deadline_admissible at ctx.risk on the work left from the job's start,
    screened once per (job, start) and kept in ctx.reachable or, while the
    job keeps its profile, ctx.parked); jobs without deadlines rank last
    and jobs with unreachable deadlines are skipped.
    fair_tokens: among tenants whose budget covers the offer, the one with
    the largest remaining budget, fifo within the tenant.
    """
    jobs = ctx.jobs
    specs = {s.job_id: jobs[s.job_id].spec for s in interests if s.kind == "interest"}
    if not specs:
        return None
    fifo_key = lambda j: (specs[j].arrival_s, j)

    if policy.kind == "fifo":
        return min(specs, key=fifo_key)

    if policy.kind == "priority":
        return min(specs, key=lambda j: (-specs[j].priority, specs[j].arrival_s, j))

    if policy.kind == "edf":
        with_deadline = []
        free = []
        for j, spec in specs.items():
            deadline = spec.deadline_s
            if deadline is None:
                free.append(j)
                continue
            job = jobs[j]
            key = (j, ctx.starts.get(j, job.position_s))
            if ctx.parked.get(key) is job.profile:
                continue
            if key not in ctx.reachable:
                if not deadline_admissible(
                    job.profile,
                    1.0 - job.fraction_at(key[1]),
                    deadline - ctx.now,
                    ctx.risk,
                ).admissible:
                    ctx.parked[key] = job.profile
                    continue
                ctx.reachable.add(key)
            with_deadline.append(j)
        if with_deadline:
            return min(with_deadline, key=lambda j: (specs[j].deadline_s, specs[j].arrival_s, j))
        if free:
            return min(free, key=fifo_key)
        return None

    # fair_tokens: GrantPolicy admits no other kind.
    if ledger is None:
        raise ValueError("fair_tokens needs a tenant ledger")
    cost = offer_cost_tokens(offer, policy.cost_rate)
    affordable = [j for j, spec in specs.items() if ledger.can_afford(spec.tenant_id, cost)]
    if not affordable:
        return None
    richest = max(
        {specs[j].tenant_id for j in affordable},
        key=lambda t: (ledger.remaining(t), t),
    )
    return min((j for j in affordable if specs[j].tenant_id == richest), key=fifo_key)


def jain_index(service: list[float] | dict[str, float]) -> float:
    """Jain fairness index (sum x)^2 / (n sum x^2); all-zero counts as 1."""
    values = list(service.values()) if isinstance(service, dict) else list(service)
    if not values:
        return 1.0
    if any(v < 0 for v in values):
        raise ValueError("service shares must be non-negative")
    total = sum(values)
    if total == 0:
        return 1.0
    return total * total / (len(values) * sum(v * v for v in values))
