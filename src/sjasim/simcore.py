"""Discrete-event engine: offer-driven atomized scheduling vs baselines.

One event loop serves both scheduler families. Ground truth for every job
is a trajectory drawn up front (fresh generator draw, or a bootstrap pick
from its historical ensemble) and keyed only by (seed, job index), so all
schedulers face identical workload realizations at a given seed. Execution
advances one grid-step of job progress per grid-step of wall time on the
assigned slice (scaled by a runtime multiplier for moldable sizing); the
engine precomputes, at unit start, whether and when the actual trajectory
first exceeds the enforced capacity, and schedules the kill then.

Scheduling happens in rounds, triggered by arrivals, completions, kills
and a periodic timer. A round either runs the offer/interest/grant cycle
(atomized path, with a conventional fallback for jobs that cannot be
split) or a monolithic placement pass (baselines). A baseline round is
skipped when no event but the periodic tick has come, and no slice has
turned idle, since the last round that logged nothing, and max_wait_s is
infinite: it would read the same queue and idle slices and log nothing
again. Identical inputs give identical event sequences; rerunning a seed
reproduces the log verbatim.
"""
from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .baselines import (
    FIRST_FIT,
    MOLDABLE,
    PREEMPT_MIGRATE,
    BaselineParams,
    checkpointed_progress_s,
    moldable_capacity,
    monolithic_place,
    pick_preemption_victim,
    transfer_delay_s,
)
from .cluster import (
    DEFAULT_CATALOG,
    ClusterState,
    SliceCatalog,
    check_layout,
    find_gaps,
)
from .policies import (
    GrantPolicy,
    SelectionContext,
    TenantLedger,
    jain_index,
    offer_cost_tokens,
)
from .profiles import (
    RiskParams,
    TrajectoryEnsemble,
    build_profile,
    check_inflation,
    nearest_rank,
    refresh_profile,
    single_run_profile,
)
from .protocol import (
    INTEREST,
    advertise,
    collect_interest,
    grant_offer,
    materialize,
)
from .segmentation import SegmentationConfig
from .workload import JobRuntime, JobSpec, ScenarioError, SubJob, generate_trajectory

__all__ = [
    "SCHEDULERS",
    "Scenario",
    "SimConfig",
    "SimulationTimeout",
    "DelaySummary",
    "MetricsReport",
    "ComparisonResult",
    "draw_actual_runs",
    "mean_sd",
    "run",
    "compare",
]

SCHEDULERS = ("sja", "first_fit", "best_fit", "moldable", "preempt_migrate")

# Sub-streams of the run seed; arbitrary distinct constants.
_ACTUAL_STREAM = 11
_FAILURE_STREAM = 29

# Same-timestamp event order: frees before claims, decisions last.
_KPRIO = {
    "oom_kill": 0,
    "subjob_end": 1,
    "failure_inject": 2,
    "arrival": 3,
    "offer_expire": 4,
    "subjob_start": 5,
    "round_timer": 6,
}

_EPS = 1e-9

# An offer is decided in the round that issues it, so nothing reads an
# expiry. Each offer without a grant still logs an offer_expire record this
# long after issue, because bench/references.json and the determinism table
# in tests/test_determinism.py pin every sja log byte for byte; deleting the
# record is a log change that must re-take both.
_OFFER_EXPIRE_AFTER_S = 60.0


class SimulationTimeout(RuntimeError):
    """The event clock passed the configured wall cap; likely a livelock."""


@dataclass
class Scenario:
    """A workload: job specs plus the historical ensembles they reference.

    Every job must name a known ensemble (its profile source), and all
    ensembles share one grid step; `truths` may pin explicit ground-truth
    trajectories for individual jobs, overriding the seeded draw.
    """

    jobs: list[JobSpec]
    ensembles: dict[str, TrajectoryEnsemble]
    truths: dict[str, np.ndarray] = field(default_factory=dict)
    name: str = "scenario"

    def __post_init__(self) -> None:
        steps = {e.grid_step for e in self.ensembles.values()}
        if len(steps) > 1:
            raise ScenarioError(f"mixed ensemble grid steps {sorted(steps)}")
        for spec in self.jobs:
            if spec.ensemble_key not in self.ensembles:
                raise ScenarioError(f"{spec.job_id}: unknown ensemble {spec.ensemble_key!r}")

    @classmethod
    def from_file(cls, path) -> "Scenario":
        from .workload import ingest_scenario

        jobs, ensembles, truths = ingest_scenario(path)
        return cls(jobs, ensembles, truths, name=str(path))


@dataclass(frozen=True)
class SimConfig:
    """Engine knobs. The scheduler itself is chosen per run, not here.

    risk (`risk.eps`, `risk.alpha_t`) and seg (`segmentation.tau_min_s`,
    `tau_max_s`, `smoothing_window_s`, `hysteresis_delta`) are the objects
    planning reads, nested like policy and baseline. Every leaf field, nested
    ones included, names its config-file key in its metadata; sjasim.config
    derives parsing and the echo from those.
    """

    risk: RiskParams = field(default_factory=RiskParams)
    seg: SegmentationConfig = field(default_factory=SegmentationConfig)
    lookahead_s: float = field(default=1800.0, metadata={"key": "protocol.lookahead_s"})
    round_cadence_s: float = field(default=60.0, metadata={"key": "protocol.round_cadence_s"})
    max_concurrent_subjobs_per_job: int = field(
        default=1, metadata={"key": "protocol.max_concurrent_subjobs_per_job"}
    )
    policy: GrantPolicy = field(default_factory=GrantPolicy)
    gpus: int = field(default=1, metadata={"key": "cluster.gpus"})
    slices_per_gpu: tuple[int, ...] = field(
        default=(20480, 10240, 5120, 5120), metadata={"key": "cluster.slices_per_gpu"}
    )
    catalog: SliceCatalog = DEFAULT_CATALOG
    failure_rate_per_hour: float = field(
        default=0.0, metadata={"key": "engine.failure_rate_per_hour"}
    )
    online_correction: bool = field(default=True, metadata={"key": "engine.online_correction"})
    max_oom_retries: int = field(default=3, metadata={"key": "engine.max_oom_retries"})
    n_historical_runs: int | None = field(
        default=None, metadata={"key": "engine.n_historical_runs"}
    )
    single_run_inflation: float = field(
        default=1.10, metadata={"key": "engine.single_run_inflation"}
    )
    max_wait_s: float = field(default=math.inf, metadata={"key": "engine.max_wait_s"})
    sim_time_cap_s: float = field(default=7 * 86400.0, metadata={"key": "engine.sim_time_cap_s"})
    baseline: BaselineParams = field(default_factory=BaselineParams)

    def __post_init__(self) -> None:
        # max_wait_s may be inf (never give up); these two may not.
        for name in ("lookahead_s", "round_cadence_s"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.round_cadence_s <= 0:
            raise ValueError("round cadence must be positive")
        if self.lookahead_s <= 0:
            raise ValueError("lookahead must be positive")
        # An infinite rate re-arms failures at zero delay, so the clock never
        # reaches the cap; a nan cap would switch the cap off.
        rate = self.failure_rate_per_hour
        if not (math.isfinite(rate) and rate >= 0):
            raise ValueError("failure_rate_per_hour must be finite and >= 0")
        if not self.sim_time_cap_s > 0:
            raise ValueError("sim_time_cap_s must be positive")
        if math.isnan(self.max_wait_s):
            raise ValueError("max_wait_s must not be nan")
        if self.n_historical_runs is not None and self.n_historical_runs < 1:
            raise ValueError("n_historical_runs must be >= 1")
        if self.max_oom_retries < 0:
            raise ValueError("max_oom_retries must be >= 0")
        if self.max_concurrent_subjobs_per_job < 1:
            raise ValueError("max_concurrent_subjobs_per_job must be >= 1")
        # Both are otherwise first used mid-run: the layout when the engine
        # builds its cluster, the inflation when a one-run profile is built.
        layout = check_layout(self.gpus, self.slices_per_gpu, self.catalog)
        object.__setattr__(self, "slices_per_gpu", layout)
        check_inflation(self.single_run_inflation)


def draw_actual_runs(
    scenario: Scenario, seed: int
) -> dict[str, np.ndarray]:
    """Ground-truth trajectory per job, identical across schedulers.

    Jobs with a generator get a fresh draw (duration jittered the same way
    their ensemble was built); jobs without one replay a uniformly chosen
    historical run. Explicit truths win over both.
    """
    out: dict[str, np.ndarray] = {}
    for idx, spec in enumerate(scenario.jobs):
        if spec.job_id in scenario.truths:
            out[spec.job_id] = np.asarray(scenario.truths[spec.job_id], dtype=float)
            continue
        ens = scenario.ensembles[spec.ensemble_key]
        rng = np.random.default_rng([seed, _ACTUAL_STREAM, idx])
        if spec.generator is not None:
            h = ens.grid_step
            factor = 1.0 + rng.uniform(-spec.duration_jitter, spec.duration_jitter)
            nominal = spec.generator.total_duration_s
            duration = max(h, round(nominal * factor / h) * h)
            out[spec.job_id] = generate_trajectory(spec.generator, duration, h, rng)
        else:
            pick = int(rng.integers(len(ens.runs)))
            out[spec.job_id] = ens.runs[pick].copy()
    return out


@dataclass(frozen=True)
class DelaySummary:
    mean_s: float
    p50_s: float
    p95_s: float
    max_s: float
    count: int


def _delay_summary(delays: list[float]) -> DelaySummary:
    if not delays:
        nan = float("nan")
        return DelaySummary(nan, nan, nan, nan, 0)
    ordered = sorted(delays)
    n = len(ordered)
    return DelaySummary(
        mean_s=float(sum(ordered) / n),
        p50_s=nearest_rank(ordered, 0.5, n),
        p95_s=nearest_rank(ordered, 0.95, n),
        max_s=float(ordered[-1]),
        count=n,
    )


@dataclass
class MetricsReport:
    scheduler: str
    seed: int
    total_time_s: float
    reserved_utilization: float
    used_utilization: float
    queueing_delay: DelaySummary
    rejection_rate: float
    interruptions: int
    oom_violation_rate: float | None
    fragmentation_loss: float
    jain_fairness: float
    admission_disagreement: float | None
    completed_jobs: int
    admitted_subjobs: int
    oom_kills: int
    injected_failures: int
    per_tenant_reserved: dict[str, float]
    per_job_completion: list[tuple[str, float, float]]

    def scalars(self) -> dict[str, float]:
        """Flat numeric view for tables and CSV output."""
        nan = float("nan")
        return {
            "total_time_s": self.total_time_s,
            "reserved_utilization": self.reserved_utilization,
            "used_utilization": self.used_utilization,
            "queueing_delay_mean_s": self.queueing_delay.mean_s,
            "queueing_delay_p50_s": self.queueing_delay.p50_s,
            "queueing_delay_p95_s": self.queueing_delay.p95_s,
            "queueing_delay_max_s": self.queueing_delay.max_s,
            "rejection_rate": self.rejection_rate,
            "interruptions": float(self.interruptions),
            "oom_violation_rate": (
                nan if self.oom_violation_rate is None else self.oom_violation_rate
            ),
            "fragmentation_loss": self.fragmentation_loss,
            "jain_fairness": self.jain_fairness,
            "admission_disagreement": (
                nan if self.admission_disagreement is None else self.admission_disagreement
            ),
            "completed_jobs": float(self.completed_jobs),
            "admitted_subjobs": float(self.admitted_subjobs),
            "oom_kills": float(self.oom_kills),
            "injected_failures": float(self.injected_failures),
        }


class _Engine:
    def __init__(self, scenario: Scenario, scheduler: str, cfg: SimConfig, seed: int):
        if scheduler not in SCHEDULERS:
            raise ValueError(f"unknown scheduler {scheduler!r}, pick from {SCHEDULERS}")
        self.scheduler = scheduler
        self.cfg = cfg
        self.seed = seed
        self.cluster = ClusterState.from_layout(
            cfg.gpus, cfg.slices_per_gpu, cfg.catalog
        )
        self.ledger = TenantLedger(cfg.policy.token_budgets)

        # Scenario checked that every ensemble has this one grid step.
        self.h = next((e.grid_step for e in scenario.ensembles.values()), 1.0)

        self.profiles = {
            key: self._initial_profile(ens) for key, ens in scenario.ensembles.items()
        }
        actuals = draw_actual_runs(scenario, seed)
        self._order: list[JobRuntime] = []
        self._index: dict[str, int] = {}
        self.jobs: dict[str, JobRuntime] = {}
        for spec in scenario.jobs:
            job = JobRuntime(
                spec=spec,
                profile=self.profiles[spec.ensemble_key],
                actual=actuals[spec.job_id],
                grid_step=self.h,
            )
            self._index[spec.job_id] = len(self._order)
            self._order.append(job)
            self.jobs[spec.job_id] = job

        self.now = 0.0
        self.heap: list = []
        self._seq = 0
        self._round_due = False
        # When a baseline round may be skipped; see _run_round.
        self._stale, self._wake_s = True, 0.0
        self._offer_seq = 0
        self._arrivals_pending = len(self._order)
        self._n_terminal = 0
        self.units: dict[str, SubJob] = {}
        # Jobs that have arrived, are unfinished and hold no live unit, as
        # job id -> scenario index.
        self._queue: dict[str, int] = {}

        self.event_log: list[dict] = []
        self.archive: list[tuple[str, int, float, float, str]] = []
        self.used_mem_time = 0.0
        self.queue_intervals: list[tuple[float, float]] = []
        self._queue_since: float | None = None

        self._failure_rng = np.random.default_rng([seed, _FAILURE_STREAM])
        for job in self._order:
            self._push(job.spec.arrival_s, "arrival", {"job": job.spec.job_id})
        self._push(0.0, "round_timer", {"periodic": True})
        if cfg.failure_rate_per_hour > 0:
            mean = 3600.0 / cfg.failure_rate_per_hour
            self._push(
                float(self._failure_rng.exponential(mean)), "failure_inject", {}
            )

    def _initial_profile(self, ens: TrajectoryEnsemble):
        n = self.cfg.n_historical_runs
        if n is not None and n < len(ens.runs):
            ens = TrajectoryEnsemble(grid_step=ens.grid_step, runs=ens.runs[:n])
        if len(ens.runs) == 1:
            return single_run_profile(ens.runs[0], ens.grid_step, self.cfg.single_run_inflation)
        return build_profile(ens)

    # ------------------------------------------------------------------
    # Event plumbing
    # ------------------------------------------------------------------

    def _push(self, t: float, kind: str, payload: dict) -> None:
        heapq.heappush(self.heap, (t, _KPRIO[kind], self._seq, kind, payload))
        self._seq += 1

    def _log(self, kind: str, **fields) -> None:
        self.event_log.append({"t": round(self.now, 6), "kind": kind, **fields})

    def run(self) -> tuple[MetricsReport, list[dict]]:
        while self.heap and self._n_terminal < len(self._order):
            t, _, _, kind, payload = heapq.heappop(self.heap)
            if t > self.cfg.sim_time_cap_s:
                raise SimulationTimeout(
                    f"event clock passed {self.cfg.sim_time_cap_s} s"
                )
            self.now = t
            self._dispatch(kind, payload)
            if not payload.get("periodic"):
                self._stale = True
            if self._round_due and (not self.heap or self.heap[0][0] > self.now + _EPS):
                self._round_due = False
                self._run_round()
        return self._report(), self.event_log

    def _dispatch(self, kind: str, p: dict) -> None:
        if kind == "arrival":
            self._on_arrival(p["job"])
        elif kind == "subjob_start":
            self._on_start(p["unit"])
        elif kind == "subjob_end":
            self._on_end(p["unit"], p["end_idx"])
        elif kind == "oom_kill":
            self._on_oom(p["unit"], p["kill_idx"])
        elif kind == "failure_inject":
            self._on_failure()
        elif kind == "offer_expire":
            self._log("offer_expire", offer=p["offer"])
        elif kind == "round_timer":
            self._round_due = True
            if p.get("periodic") and self._n_terminal < len(self._order):
                self._push(self.now + self.cfg.round_cadence_s, "round_timer", p)
        else:  # pragma: no cover - event kinds are closed
            raise ValueError(f"unknown event kind {kind!r}")

    # ------------------------------------------------------------------
    # Job state helpers
    # ------------------------------------------------------------------

    def _waiting(self) -> list[JobRuntime]:
        """The queue in scenario order."""
        return [self._order[i] for i in sorted(self._queue.values())]

    def _set_queued(self, job: JobRuntime, queued: bool) -> None:
        """Put a job in or take it out of the queue, and record in
        queue_intervals the spans when the queue is non-empty."""
        if queued:
            self._queue[job.spec.job_id] = self._index[job.spec.job_id]
        else:
            self._queue.pop(job.spec.job_id, None)
        if self._queue and self._queue_since is None:
            self._queue_since = self.now
        elif not self._queue and self._queue_since is not None:
            if self.now > self._queue_since:
                self.queue_intervals.append((self._queue_since, self.now))
            self._queue_since = None

    def _reject(self, job: JobRuntime, reason: str) -> None:
        self._n_terminal += 1
        self._log("job_rejected", job=job.spec.job_id, reason=reason)
        self._set_queued(job, False)

    def _complete(self, job: JobRuntime) -> None:
        job.finish_s = self.now
        self._n_terminal += 1
        self._log(
            "job_completed",
            job=job.spec.job_id,
            finish_s=round(self.now, 6),
            reexecuted_s=round(job.reexecuted_s, 6),
        )
        if self.cfg.online_correction:
            key = job.spec.ensemble_key
            fresh = self.profiles[key] = refresh_profile(self.profiles[key], job.actual)
            for other in self._order:
                if other.spec.ensemble_key == key:
                    other.profile = fresh

    def _reached_idx(self, unit: SubJob) -> int:
        """Grid index of job progress a running unit has reached by now."""
        steps = int((self.now - unit.window_start_s) / (self.h * unit.multiplier) + _EPS)
        return int(round(unit.pos_from_s / self.h)) + steps

    def _close(self, unit: SubJob, end_idx: int) -> None:
        """Account a unit that stops now at grid index end_idx: memory used,
        the unused tail of its reservation, and its busy span on the slice."""
        job = self.jobs[unit.job_id]
        i0 = int(round(unit.pos_from_s / self.h))
        self.used_mem_time += (
            float(np.sum(job.actual[i0:end_idx])) * self.h * unit.multiplier
        )
        if self.now < unit.reserved_end_s - _EPS:
            self.cluster.slice(unit.slice_id).release_tail(unit.subjob_id, self.now)
        if self.now > unit.window_start_s + _EPS:
            self.archive.append(
                (
                    unit.slice_id,
                    unit.physical_capacity_mb,
                    unit.window_start_s,
                    self.now,
                    job.spec.tenant_id,
                )
            )

    def _cancel_planned(self, job_id: str, reason: str) -> None:
        doomed = [
            uid
            for uid, u in self.units.items()
            if u.job_id == job_id and not u.started
        ]
        for uid in doomed:
            u = self.units.pop(uid)
            self.cluster.slice(u.slice_id).release_tail(uid, u.window_start_s)
            self._log("subjob_cancelled", unit=uid, job=job_id, reason=reason)

    def _stop(self, unit: SubJob, idx: int) -> tuple[float, float]:
        """Stop a running unit, already popped, at grid index idx. Its job
        rolls back to the last progress it keeps: the last periodic
        checkpoint for whole jobs under preempt_migrate, else the unit's
        start. Returns (kept, lost) progress in seconds."""
        job = self.jobs[unit.job_id]
        pos = idx * self.h
        kept = 0.0
        if unit.kind == "monolithic" and self.scheduler == PREEMPT_MIGRATE:
            kept = checkpointed_progress_s(pos - unit.pos_from_s, self.cfg.baseline)
        job.position_s = unit.pos_from_s + kept
        lost = pos - job.position_s
        job.reexecuted_s += lost
        self._close(unit, idx)
        return kept, lost

    def _book(self, unit: SubJob, reserved_end: float) -> None:
        """Reserve [window start, reserved_end) on the unit's slice under the
        unit's own id; the one booking the unit gets."""
        self.cluster.slice(unit.slice_id).reserve(
            unit.window_start_s, reserved_end, unit.subjob_id
        )
        self.units[unit.subjob_id] = unit
        self._push(unit.window_start_s, "subjob_start", {"unit": unit.subjob_id})

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------

    def _on_arrival(self, job_id: str) -> None:
        job = self.jobs[job_id]
        self._arrivals_pending -= 1
        self._log(
            "arrival",
            job=job_id,
            tenant=job.spec.tenant_id,
            declared_peak_mb=job.spec.declared_peak_mb,
            atomizable=job.spec.atomizable,
        )
        if self.scheduler == MOLDABLE and moldable_capacity(job, self.cluster) is None:
            self._reject(job, "no capacity class covers the declared peak")
            return
        self._set_queued(job, True)
        self._round_due = True

    def _on_start(self, unit_id: str) -> None:
        unit = self.units.get(unit_id)
        if unit is None:
            return  # plan was cancelled before its window opened
        job = self.jobs[unit.job_id]
        unit.started = True
        if job.first_start_s is None:
            job.first_start_s = self.now
        i0 = int(round(unit.pos_from_s / self.h))
        end_pos = min(unit.pos_to_s, job.actual_duration_s)
        i1 = int(round(end_pos / self.h))
        self._log(
            "subjob_start",
            unit=unit_id,
            job=unit.job_id,
            slice=unit.slice_id,
            capacity_mb=unit.slice_capacity_mb,
            pos_from_s=round(unit.pos_from_s, 6),
        )
        over = np.nonzero(job.actual[i0:i1] > unit.slice_capacity_mb + 1e-6)[0]
        if over.size:
            k = i0 + int(over[0])
            t_kill = self.now + (k - i0) * self.h * unit.multiplier
            self._push(t_kill, "oom_kill", {"unit": unit_id, "kill_idx": k})
        else:
            t_end = self.now + (i1 - i0) * self.h * unit.multiplier
            self._push(t_end, "subjob_end", {"unit": unit_id, "end_idx": i1})

    def _on_end(self, unit_id: str, end_idx: int) -> None:
        unit = self.units.pop(unit_id, None)
        if unit is None:
            return
        job = self.jobs[unit.job_id]
        end_pos = end_idx * self.h
        job.position_s = max(job.position_s, end_pos)
        self._close(unit, end_idx)
        done = end_pos >= job.actual_duration_s - _EPS
        self._log(
            "subjob_end",
            unit=unit_id,
            job=unit.job_id,
            pos_to_s=round(end_pos, 6),
            completed_job=done,
        )
        if done:
            self._cancel_planned(unit.job_id, "job already complete")
            self._complete(job)
        else:
            frac = job.fraction_at(end_pos)
            self._log(
                "checkpoint",
                job=unit.job_id,
                fraction=round(frac, 6),
                size_mb=job.spec.checkpoint_size_mb,
            )
            more = any(u.job_id == unit.job_id for u in self.units.values())
            self._set_queued(job, not more)
        self._round_due = True

    def _kill_unit(
        self, unit: SubJob, kill_idx: int, status_kind: str, reason_fields: dict
    ) -> None:
        """Shared teardown for OOM and injected kills; unit already popped."""
        _, lost = self._stop(unit, kill_idx)
        self._cancel_planned(unit.job_id, f"sibling {status_kind}")
        self._log(
            status_kind,
            unit=unit.subjob_id,
            job=unit.job_id,
            kill_pos_s=round(kill_idx * self.h, 6),
            planned_s=round(unit.pos_to_s - unit.pos_from_s, 6),
            lost_s=round(lost, 6),
            **reason_fields,
        )
        self._set_queued(self.jobs[unit.job_id], True)
        self._round_due = True

    def _on_oom(self, unit_id: str, kill_idx: int) -> None:
        unit = self.units.pop(unit_id, None)
        if unit is None:
            return
        job = self.jobs[unit.job_id]
        i0 = int(round(unit.pos_from_s / self.h))
        observed = float(job.actual[kill_idx])
        # Plans read any floor a job has, so this is correction's one gate.
        if self.cfg.online_correction:
            job.note_demand(i0, job.actual[i0 : kill_idx + 1])
        self._kill_unit(
            unit,
            kill_idx,
            "oom_kill",
            {
                "capacity_mb": unit.slice_capacity_mb,
                "observed_mb": round(observed, 6),
            },
        )
        # Without correction the next plan would repeat the mistake, so a
        # strike limit breaks the loop; monolithic placement never adapts.
        if unit.kind == "monolithic" or not self.cfg.online_correction:
            job.oom_strikes += 1
            if job.oom_strikes > self.cfg.max_oom_retries:
                self._reject(job, "out-of-memory retry budget exhausted")

    def _on_failure(self) -> None:
        mean = 3600.0 / self.cfg.failure_rate_per_hour
        running = sorted(uid for uid, u in self.units.items() if u.started)
        if running:
            victim_id = running[int(self._failure_rng.integers(len(running)))]
            unit = self.units.pop(victim_id)
            self._kill_unit(unit, self._reached_idx(unit), "failure_inject", {})
        if self._n_terminal < len(self._order):
            self._push(
                self.now + float(self._failure_rng.exponential(mean)),
                "failure_inject",
                {},
            )

    # ------------------------------------------------------------------
    # Scheduling rounds
    # ------------------------------------------------------------------

    def _run_round(self) -> None:
        """A baseline round reads the queue, job states, running units and
        which slices are idle now. Events, and rounds that log anything,
        change the first three and set _stale; a slice turns idle with no
        event only at _wake_s. With neither, and max_wait_s infinite, the
        round would log nothing, as the last one that ran did: skip it."""
        n_logged = len(self.event_log)
        if math.isfinite(self.cfg.max_wait_s):
            for job in self._waiting():
                if self.now - job.spec.arrival_s > self.cfg.max_wait_s:
                    self._reject(job, "max queue wait exceeded")
        elif self.scheduler != "sja" and not self._stale and self.now < self._wake_s:
            return
        if self.scheduler == "sja":
            progress = self._sja_round()
        else:
            progress = self._baseline_round()
        if (
            not progress
            and not self.units
            and self._arrivals_pending == 0
            and self._queue
            and not any(j.earliest_resume_s > self.now + _EPS for j in self._waiting())
        ):
            # Nothing running, nothing coming, and a full pass granted
            # nothing: these jobs will never place.
            for job in list(self._waiting()):
                self._reject(job, "no feasible placement; queue quiescent")
        self._stale = len(self.event_log) > n_logged
        busy = [s for s in self.cluster.slices if not s.idle_everywhere_after(self.now)]
        self._wake_s = min((s.reservations[-1].end for s in busy), default=math.inf)

    def _pipeline_candidates(self, window_start: float) -> tuple[list[JobRuntime], dict[str, float]]:
        """Scheduled jobs that may take a further grant beyond their pending
        plan (bounded by max_concurrent_subjobs_per_job; the new window must
        not overlap already planned subjobs)."""
        if self.cfg.max_concurrent_subjobs_per_job <= 1:
            return [], {}
        extra: list[JobRuntime] = []
        resume: dict[str, float] = {}
        by_job: dict[str, list[SubJob]] = {}
        for u in self.units.values():
            if u.kind == "subjob":
                by_job.setdefault(u.job_id, []).append(u)
        for job in self._order:
            units = by_job.get(job.spec.job_id)
            if not units:
                continue
            chains = len({u.offer_id for u in units})
            if chains >= self.cfg.max_concurrent_subjobs_per_job:
                continue
            wall_end = max(u.reserved_end_s for u in units)
            pending = max(u.pos_to_s for u in units)
            if window_start < wall_end - _EPS:
                continue
            if pending >= job.actual_duration_s - _EPS:
                continue
            extra.append(job)
            resume[job.spec.job_id] = pending
        return extra, resume

    def _sja_round(self) -> bool:
        waiting = self._waiting()
        if not waiting:
            return False
        progress = False
        # Grants only take jobs out of the queue until the round ends.
        queued = [j for j in waiting if j.spec.atomizable]
        if queued:
            gaps = find_gaps(
                self.cluster,
                self.now,
                self.cfg.lookahead_s,
                min_duration=self.cfg.seg.tau_min_s,
            )
            # Grant earliest-starting gaps first (longest on ties) so a job
            # never books a far-future stub while another slice idles now.
            gaps.sort(key=lambda w: (w.start, -w.duration, w.slice_id))
            offers = advertise(gaps, self._offer_seq)
            self._offer_seq += len(offers)
            ctx = SelectionContext(self.now, self.cfg.risk, self.jobs)
            for offer in offers:
                self._log(
                    "offer_issued",
                    offer=offer.offer_id,
                    slice=offer.window.slice_id,
                    capacity_mb=offer.window.capacity_mb,
                    window_start=round(offer.window.start, 6),
                    window_s=round(offer.window.duration, 6),
                )
                if self._grant_one(offer, ctx, queued):
                    progress = True
                else:
                    expire_at = self.now + _OFFER_EXPIRE_AFTER_S
                    self._push(expire_at, "offer_expire", {"offer": offer.offer_id})
        leftovers = [
            j for j in self._waiting() if not j.spec.atomizable
        ]
        if leftovers and self._place_monolithic(leftovers, FIRST_FIT):
            progress = True
        return progress

    def _grant_one(self, offer, ctx: SelectionContext, queued: list[JobRuntime]) -> bool:
        """Interest, grant, materialize for one offer of the round's context
        ctx, whose starts become this offer's resume positions. queued is the
        round's atomizable queue in scenario order. True on success."""
        candidates = [j for j in queued if j.spec.job_id in self._queue]
        extra, resume = self._pipeline_candidates(offer.window.start)
        candidates += extra
        if not candidates:
            return False
        cfg = self.cfg
        signals = collect_interest(
            offer, candidates, cfg.catalog, cfg.risk, cfg.seg, resume_positions=resume
        )
        # One record per signal, as _log writes it, all at one rounded t.
        t = round(self.now, 6)
        append = self.event_log.append
        interested = False
        for offer_id, job_id, kind, reason in signals:
            if kind == INTEREST:
                interested = True
                append({"t": t, "kind": kind, "offer": offer_id, "job": job_id})
            else:
                append({"t": t, "kind": kind, "offer": offer_id, "job": job_id, "reason": reason})
        if not interested:
            return False
        ctx.starts = resume
        granted = grant_offer(offer, signals, cfg.policy, self.ledger, ctx)
        if granted is None:
            return False
        job = self.jobs[granted.job_id]
        cost = 0.0
        if cfg.policy.kind == "fair_tokens":
            cost = offer_cost_tokens(offer, cfg.policy.cost_rate)
            self.ledger.debit(job.spec.tenant_id, cost)
        self._log(
            "grant",
            offer=offer.offer_id,
            job=granted.job_id,
            cost_tokens=round(cost, 6),
        )
        for sj in materialize(
            job, granted, offer.window, cfg.catalog, cfg.risk, cfg.seg, resume.get(job.spec.job_id)
        ):
            self._book(sj, sj.reserved_end_s)
            self._log(
                "subjob_created",
                unit=sj.subjob_id,
                job=sj.job_id,
                offer=offer.offer_id,
                slice=sj.slice_id,
                capacity_mb=sj.slice_capacity_mb,
                window_start=round(sj.window_start_s, 6),
                window_s=round(sj.window_duration_s, 6),
                pos_from_s=round(sj.pos_from_s, 6),
                pos_to_s=round(sj.pos_to_s, 6),
                work_from=round(sj.work_from, 6),
                work_to=round(sj.work_to, 6),
                admission_probability=round(sj.admission_probability, 6),
            )
        self._set_queued(job, False)
        return True

    def _place_monolithic(self, queue: list[JobRuntime], kind: str) -> bool:
        placements = monolithic_place(
            queue, self.cluster, self.now, kind, self.cfg.baseline
        )
        for p in placements:
            job = self.jobs[p.job_id]
            mult = (
                self.cfg.baseline.multiplier(p.capacity_mb) if kind == MOLDABLE else 1.0
            )
            remaining = job.actual_duration_s - job.position_s
            # When the estimate undershoots, book the job's real occupancy
            # so nothing double-books the slice.
            reserved_end = max(p.est_end_s, p.start_s + remaining * mult)
            uid = job.next_placement_id()
            unit = SubJob(
                subjob_id=uid,
                job_id=p.job_id,
                slice_id=p.slice_id,
                physical_capacity_mb=p.capacity_mb,
                slice_capacity_mb=p.capacity_mb,
                window_start_s=p.start_s,
                window_duration_s=reserved_end - p.start_s,
                pos_from_s=job.position_s,
                pos_to_s=job.actual_duration_s,
                kind="monolithic",
                multiplier=mult,
            )
            self._book(unit, reserved_end)
            self._set_queued(job, False)
            self._log(
                "placement",
                unit=uid,
                job=p.job_id,
                slice=p.slice_id,
                capacity_mb=p.capacity_mb,
                est_end_s=round(p.est_end_s, 6),
            )
        return bool(placements)

    def _baseline_round(self) -> bool:
        ready = [
            j for j in self._waiting() if j.earliest_resume_s <= self.now + _EPS
        ]
        if not ready:
            return False
        if self.scheduler != PREEMPT_MIGRATE:
            return self._place_monolithic(ready, self.scheduler)
        ready.sort(key=lambda j: (-j.spec.priority, j.spec.arrival_s, j.spec.job_id))
        # Units placed in this round start later, so within it only a
        # preemption changes which whole-job units are running.
        running = [
            (self.jobs[u.job_id], u)
            for u in self.units.values()
            if u.started and u.kind == "monolithic"
        ]
        progress = False
        for job in ready:
            if self._place_monolithic([job], FIRST_FIT):
                progress = True
                continue
            victim = pick_preemption_victim(running, job)
            if victim is None:
                continue
            running = [r for r in running if r is not victim]
            self._preempt(victim[1].subjob_id, job.spec.job_id)
            if self._place_monolithic([job], FIRST_FIT):
                progress = True
        return progress

    def _preempt(self, unit_id: str, by_job: str) -> None:
        unit = self.units.pop(unit_id)
        job = self.jobs[unit.job_id]
        cur_idx = self._reached_idx(unit)
        kept, lost = self._stop(unit, cur_idx)
        live_mb = float(job.actual[cur_idx]) if cur_idx < len(job.actual) else 0.0
        delay = transfer_delay_s(live_mb, self.cfg.baseline)
        job.earliest_resume_s = self.now + delay
        self._set_queued(job, True)
        self._log(
            "preemption",
            unit=unit_id,
            victim=unit.job_id,
            by=by_job,
            kept_s=round(kept, 6),
            lost_s=round(lost, 6),
            resume_at=round(job.earliest_resume_s, 6),
        )
        self._push(job.earliest_resume_s, "round_timer", {"periodic": False})

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def _report(self) -> MetricsReport:
        horizon = self.now
        cap_total = float(self.cluster.total_capacity_mb)
        denom = cap_total * horizon
        reserved = sum(cap * (e - s) for _, cap, s, e, _ in self.archive)

        tenants = sorted({j.spec.tenant_id for j in self._order})
        per_tenant = {t: 0.0 for t in tenants}
        for _, cap, s, e, tenant in self.archive:
            per_tenant[tenant] += cap * (e - s)

        delays = [
            j.first_start_s - j.spec.arrival_s
            for j in self._order
            if j.first_start_s is not None
        ]
        n_jobs = len(self._order)
        counts = Counter(rec["kind"] for rec in self.event_log)
        admitted = counts["subjob_start"]

        frag_loss = 0.0
        if denom > 0 and self.queue_intervals:
            busy_by_slice: dict[str, list[tuple[float, float]]] = {}
            for sid, _, s, e, _ in self.archive:
                busy_by_slice.setdefault(sid, []).append((s, e))
            for s in self.cluster.slices:
                busy = sorted(busy_by_slice.get(s.slice_id, []))
                idle = _complement(busy, 0.0, horizon)
                frag_loss += s.capacity_mb * _intersection_len(
                    idle, self.queue_intervals
                )
            frag_loss /= denom

        return MetricsReport(
            scheduler=self.scheduler,
            seed=self.seed,
            total_time_s=horizon,
            reserved_utilization=reserved / denom if denom > 0 else 0.0,
            used_utilization=self.used_mem_time / denom if denom > 0 else 0.0,
            queueing_delay=_delay_summary(delays),
            rejection_rate=counts["job_rejected"] / n_jobs if n_jobs else 0.0,
            interruptions=counts["preemption"],
            oom_violation_rate=counts["oom_kill"] / admitted if admitted else None,
            fragmentation_loss=frag_loss,
            jain_fairness=jain_index(per_tenant),
            # Constant: every fragment is sized on the envelope admission reads.
            admission_disagreement=0.0 if counts["subjob_created"] else None,
            completed_jobs=counts["job_completed"],
            admitted_subjobs=admitted,
            oom_kills=counts["oom_kill"],
            injected_failures=counts["failure_inject"],
            per_tenant_reserved=per_tenant,
            per_job_completion=[
                (j.spec.job_id, j.finish_s, j.reexecuted_s)
                for j in self._order
                if j.finish_s is not None
            ],
        )


def _complement(
    busy: list[tuple[float, float]], start: float, end: float
) -> list[tuple[float, float]]:
    out = []
    cursor = start
    for s, e in busy:
        if s > cursor:
            out.append((cursor, min(s, end)))
        cursor = max(cursor, e)
        if cursor >= end:
            break
    if cursor < end:
        out.append((cursor, end))
    return out


def _intersection_len(
    a: list[tuple[float, float]], b: list[tuple[float, float]]
) -> float:
    i = j = 0
    total = 0.0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            total += hi - lo
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return total


def run(
    scenario: Scenario,
    scheduler: str = "sja",
    config: SimConfig | None = None,
    seed: int = 0,
) -> tuple[MetricsReport, list[dict]]:
    """Simulate one scheduler over one workload realization."""
    cfg = config if config is not None else SimConfig()
    return _Engine(scenario, scheduler, cfg, seed).run()


@dataclass
class ComparisonResult:
    seeds: tuple[int, ...]
    reports: dict[str, list[MetricsReport]]

    def table(self) -> dict[str, dict[str, tuple[float, float]]]:
        """scheduler -> metric -> (mean, sample sd) over seeds, nan-skipping."""
        out: dict[str, dict[str, tuple[float, float]]] = {}
        for sched, reps in self.reports.items():
            cols: dict[str, list[float]] = {}
            for r in reps:
                for k, v in r.scalars().items():
                    cols.setdefault(k, []).append(v)
            out[sched] = {k: mean_sd(vs) for k, vs in cols.items()}
        return out


def mean_sd(values: list[float]) -> tuple[float, float]:
    """(mean, sample sd) of the non-nan values; (nan, 0) when none, sd 0 for one."""
    clean = [v for v in values if not math.isnan(v)]
    if not clean:
        return float("nan"), 0.0
    mean = sum(clean) / len(clean)
    return mean, math.sqrt(sum((v - mean) ** 2 for v in clean) / max(len(clean) - 1, 1))


def compare(
    scenario: Scenario,
    schedulers: tuple[str, ...] = SCHEDULERS,
    config: SimConfig | None = None,
    seeds: tuple[int, ...] = (0,),
) -> ComparisonResult:
    """Run every scheduler over every seed with shared workload draws."""
    cfg = config if config is not None else SimConfig()
    reports: dict[str, list[MetricsReport]] = {s: [] for s in schedulers}
    for sched in schedulers:
        for seed in seeds:
            report, _ = run(scenario, sched, cfg, seed)
            reports[sched].append(report)
    return ComparisonResult(tuple(seeds), reports)
