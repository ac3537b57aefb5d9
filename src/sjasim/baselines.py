"""Reference schedulers: monolithic placement, moldable sizing, preemption.

These run whole jobs on single slices. Monolithic placement needs a slice
whose capacity covers the user-declared peak, free for the job's full
estimated runtime (median of the profile's runtime samples). The moldable
variant fixes a capacity class at submission and scales runtime by that
class's speedup multiplier. The preempt-migrate variant may evict a
lower-priority running job, which then loses progress back to its last
periodic checkpoint and pays a state-transfer delay before resuming.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cluster import ClusterState
from .workload import JobRuntime, SubJob

__all__ = [
    "FIRST_FIT",
    "BEST_FIT",
    "MOLDABLE",
    "PREEMPT_MIGRATE",
    "BaselineParams",
    "Placement",
    "estimated_runtime_s",
    "monolithic_place",
    "moldable_capacity",
    "transfer_delay_s",
    "checkpointed_progress_s",
    "pick_preemption_victim",
]

FIRST_FIT = "first_fit"
BEST_FIT = "best_fit"
MOLDABLE = "moldable"
PREEMPT_MIGRATE = "preempt_migrate"


@dataclass(frozen=True)
class BaselineParams:
    migrate_bandwidth_mb_s: float = field(
        default=1024.0, metadata={"key": "baseline.migrate_bandwidth_mb_s"}
    )
    migrate_fixed_overhead_s: float = field(
        default=5.0, metadata={"key": "baseline.migrate_fixed_overhead_s"}
    )
    ckpt_interval_s: float = field(default=600.0, metadata={"key": "baseline.ckpt_interval_s"})
    # capacity_mb -> runtime multiplier, one key per class: baseline.speedup.<capacity>;
    # classes not listed run at 1.0
    speedup_table: dict[int, float] = field(
        default_factory=dict, metadata={"key": "baseline.speedup."}
    )

    def __post_init__(self) -> None:
        # Written so that nan fails every check. An infinite interval would
        # keep 0 * inf = nan progress on preemption.
        if not self.migrate_bandwidth_mb_s > 0:
            raise ValueError("migration bandwidth must be positive")
        if not 0 < self.ckpt_interval_s < math.inf:
            raise ValueError("checkpoint interval must be finite and positive")
        if not 0 <= self.migrate_fixed_overhead_s < math.inf:
            raise ValueError("fixed overhead must be finite and >= 0")
        if not all(0 < m < math.inf for m in self.speedup_table.values()):
            raise ValueError("speedup multipliers must be finite and positive")

    def multiplier(self, capacity_mb: int) -> float:
        return self.speedup_table.get(capacity_mb, 1.0)


@dataclass(frozen=True)
class Placement:
    job_id: str
    slice_id: str
    capacity_mb: int
    start_s: float
    est_end_s: float


def estimated_runtime_s(job: JobRuntime) -> float:
    """Median historical runtime, the statistical information parity point
    with the envelope-based path (no peeking at the actual run)."""
    samples = job.profile.runtime_samples
    return float(np.median(samples))


def monolithic_place(
    queue: list[JobRuntime],
    cluster: ClusterState,
    now: float,
    kind: str,
    params: BaselineParams,
) -> list[Placement]:
    """Greedy whole-job placement pass in arrival order; a pure dry run.

    Like collect_interest on the offer path, it creates no state: it only
    says where each job would go, and the engine books every placement it
    keeps. Baselines never schedule behind an existing reservation, so only
    slices with nothing current or future on them are candidates, and each
    slice takes at most one job per pass. first_fit takes the first fitting
    slice in slice order; best_fit the fitting slice with the least spare
    capacity (ties by slice order). Jobs that fit nowhere simply stay queued.
    """
    placements: list[Placement] = []
    # Nothing changes a slice's idleness within the pass; each placement
    # drops its slice from the list.
    idle = [s for s in cluster.slices if s.idle_everywhere_after(now)]
    if not idle:
        return placements
    for job in sorted(queue, key=lambda j: (j.spec.arrival_s, j.spec.job_id)):
        needed = job.spec.declared_peak_mb
        if kind == MOLDABLE:
            chosen = moldable_capacity(job, cluster)
            if chosen is None:
                continue  # engine rejects at submission; defensive here
            fitting = [s for s in idle if s.capacity_mb == chosen]
        else:
            fitting = [s for s in idle if s.capacity_mb >= needed]
            if kind == BEST_FIT:
                # The sort is stable, so ties keep slice order.
                fitting.sort(key=lambda s: s.capacity_mb - needed)
        if not fitting:
            continue
        target = fitting[0]
        mult = params.multiplier(target.capacity_mb) if kind == MOLDABLE else 1.0
        remaining_fraction = 1.0 - job.fraction_at(job.position_s)
        est = max(
            job.grid_step, estimated_runtime_s(job) * remaining_fraction * mult
        )
        placements.append(
            Placement(job.spec.job_id, target.slice_id, target.capacity_mb, now, now + est)
        )
        idle.remove(target)
        if not idle:
            break
    return placements


def moldable_capacity(job: JobRuntime, cluster: ClusterState) -> int | None:
    """Smallest capacity class present in the cluster covering the declared
    peak; fixed at submission. None means the job is rejected outright."""
    for cap in cluster.capacities_mb:
        if cap >= job.spec.declared_peak_mb:
            return cap
    return None


def transfer_delay_s(live_state_mb: float, params: BaselineParams) -> float:
    """Migration cost: live state over the wire plus a fixed restart charge."""
    return live_state_mb / params.migrate_bandwidth_mb_s + params.migrate_fixed_overhead_s


def checkpointed_progress_s(executed_s: float, params: BaselineParams) -> float:
    """Progress surviving an eviction: floor to the checkpoint cadence."""
    if executed_s <= 0:
        return 0.0
    periods = int(executed_s / params.ckpt_interval_s + 1e-9)
    return periods * params.ckpt_interval_s


def pick_preemption_victim(
    running: list[tuple[JobRuntime, SubJob]],
    waiting_job: JobRuntime,
) -> tuple[JobRuntime, SubJob] | None:
    """The pair in `running` (the object itself) of the lowest-priority job
    strictly below the waiter whose unit's slice would fit the waiter's
    declared peak. Ties go to later arrivals, then to the smaller job id; a
    job holds at most one running whole-job unit, so the choice is unique."""
    usable = [
        pair
        for pair in running
        if pair[0].spec.priority < waiting_job.spec.priority
        and pair[1].physical_capacity_mb >= waiting_job.spec.declared_peak_mb
    ]
    if not usable:
        return None
    return min(
        usable,
        key=lambda item: (item[0].spec.priority, -item[0].spec.arrival_s, item[0].spec.job_id),
    )
