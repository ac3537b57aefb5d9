"""Jobs, subjobs, and synthetic trajectory generation.

Memory trajectories follow a phase model (warmup ramp, noisy steady state,
bursty phases). Work is a scalar fraction of the job's actual execution
span; a subjob covers a contiguous fraction interval and resumes where its
job's progress stands when it starts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .profiles import (FunctionalProfile, ProfileError, TrajectoryEnsemble, _checked_run,
                       load_ensemble, read_trajectory)

__all__ = [
    "ScenarioError",
    "Phase",
    "PhaseModel",
    "JobSpec",
    "SubJob",
    "JobRuntime",
    "generate_trajectory",
    "synth_ensemble",
    "ingest_scenario",
    "write_scenario",
    "SCENARIO_HEADER",
]

WARMUP = "warmup"
STEADY = "steady"
BURST = "burst"
PHASE_KINDS = (WARMUP, STEADY, BURST)


class ScenarioError(ValueError):
    """Malformed scenario input; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Phase:
    kind: str
    duration_s: float
    base_mb: float
    noise_sd_mb: float = 0.0
    burst_amp_mb: float = 0.0
    burst_prob: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in PHASE_KINDS:
            raise ScenarioError(f"unknown phase kind {self.kind!r}")
        if self.duration_s <= 0 or self.base_mb < 0 or self.noise_sd_mb < 0:
            raise ScenarioError("phase duration must be positive, levels non-negative")
        if not 0.0 <= self.burst_prob <= 1.0:
            raise ScenarioError("burst_prob must lie in [0, 1]")


@dataclass(frozen=True)
class PhaseModel:
    """Piecewise memory-demand generator, deterministic per seed."""

    phases: tuple[Phase, ...]

    def __post_init__(self) -> None:
        if not self.phases:
            raise ScenarioError("phase model needs at least one phase")
        object.__setattr__(self, "phases", tuple(self.phases))

    @property
    def total_duration_s(self) -> float:
        return sum(p.duration_s for p in self.phases)


def generate_trajectory(
    model: PhaseModel, duration_s: float, grid_step: float, seed
) -> np.ndarray:
    """Sample one run of `duration_s` on the grid; same seed, same run.

    Phase durations are scaled by duration_s / nominal so a jittered run
    keeps the same relative phase structure. Warmup ramps linearly from 0
    to base over the phase; steady adds clamped Gaussian noise around base;
    burst additionally spikes by burst_amp with burst_prob per grid step.
    """
    if duration_s <= 0 or grid_step <= 0:
        raise ScenarioError("duration and grid step must be positive")
    rng = np.random.default_rng(seed)
    n = int(round(duration_s / grid_step)) + 1
    t = np.arange(n) * grid_step
    scale = duration_s / model.total_duration_s
    bounds = np.cumsum([p.duration_s * scale for p in model.phases])
    starts = np.concatenate([[0.0], bounds[:-1]])
    out = np.empty(n)
    # Phase k takes the samples in its half-open interval [starts[k],
    # bounds[k]), a contiguous slice of the sorted grid; the last phase also
    # takes the final grid point.
    cuts = [0, *np.searchsorted(t, bounds[:-1]).tolist(), n]
    for k, phase in enumerate(model.phases):
        a, b = cuts[k], cuts[k + 1]
        m = b - a
        if m == 0:
            continue
        tk = t[a:b]
        if phase.kind == WARMUP:
            local = (tk - starts[k]) / (phase.duration_s * scale)
            vals = phase.base_mb * local
        else:
            vals = np.full(m, phase.base_mb)
            if phase.noise_sd_mb > 0:
                vals = vals + rng.normal(0.0, phase.noise_sd_mb, size=m)
            if phase.kind == BURST and phase.burst_amp_mb > 0:
                vals = vals + phase.burst_amp_mb * (rng.random(m) < phase.burst_prob)
        out[a:b] = vals
    return np.maximum(out, 0.0)


def synth_ensemble(
    model: PhaseModel,
    n_runs: int,
    duration_jitter: float,
    seed,
    grid_step: float = 60.0,
) -> TrajectoryEnsemble:
    """n_runs independent draws with durations jittered within +-jitter."""
    if n_runs < 2:
        raise ScenarioError("an ensemble needs at least 2 runs")
    if not 0.0 <= duration_jitter < 1.0:
        raise ScenarioError("duration_jitter must lie in [0, 1)")
    ss = np.random.SeedSequence(seed)
    jitter_rng = np.random.default_rng(ss.spawn(1)[0])
    children = ss.spawn(n_runs + 1)[1:]
    nominal = model.total_duration_s
    runs = []
    for child in children:
        factor = 1.0 + jitter_rng.uniform(-duration_jitter, duration_jitter)
        duration = max(grid_step, round(nominal * factor / grid_step) * grid_step)
        runs.append(generate_trajectory(model, duration, grid_step, child))
    return TrajectoryEnsemble(grid_step=grid_step, runs=runs)


@dataclass
class JobSpec:
    """Static description of one submitted job."""

    job_id: str
    tenant_id: str
    arrival_s: float
    total_work_s: float
    declared_peak_mb: float
    priority: int = 0
    deadline_s: float | None = None
    checkpoint_size_mb: float = 0.0
    atomizable: bool = True
    generator: PhaseModel | None = None
    duration_jitter: float = 0.0  # ground-truth draws jitter like the ensemble did
    ensemble_key: str | None = None

    def __post_init__(self) -> None:
        for name in ("arrival_s", "total_work_s", "declared_peak_mb", "checkpoint_size_mb"):
            if not math.isfinite(getattr(self, name)):
                raise ScenarioError(f"{self.job_id}: {name} must be finite")
        if self.deadline_s is not None and math.isnan(self.deadline_s):
            raise ScenarioError(f"{self.job_id}: deadline must not be nan")
        if not 0.0 <= self.duration_jitter < 1.0:
            raise ScenarioError(f"{self.job_id}: duration_jitter must lie in [0, 1)")
        if self.arrival_s < 0:
            raise ScenarioError(f"{self.job_id}: negative arrival")
        if self.total_work_s <= 0:
            raise ScenarioError(f"{self.job_id}: total work must be positive")
        if self.declared_peak_mb <= 0:
            raise ScenarioError(f"{self.job_id}: declared peak must be positive")
        if self.priority < 0:
            raise ScenarioError(f"{self.job_id}: priority must be >= 0")
        if self.checkpoint_size_mb < 0:
            raise ScenarioError(f"{self.job_id}: checkpoint size must be >= 0")


@dataclass
class SubJob:
    """One occupancy of a slice, from its grant or placement to its end.

    materialize mints one per admitted fragment of an atomized job (kind
    "subjob"); the whole-job schedulers mint one per placement (kind
    "monolithic") and keep the fragment-only defaults. The engine books
    both the same way, [window_start_s, reserved_end_s) on slice_id under
    subjob_id, and runs both the same way: job progress from pos_from_s
    toward pos_to_s, killed once the actual run exceeds slice_capacity_mb.
    """

    subjob_id: str
    job_id: str
    slice_id: str
    physical_capacity_mb: int  # the slice's own size
    slice_capacity_mb: int  # enforced: the assigned class, or the slice for whole jobs
    window_start_s: float
    window_duration_s: float  # reserved span on the slice
    pos_from_s: float
    pos_to_s: float  # planned end of the job-relative work
    kind: str = "subjob"  # subjob | monolithic
    multiplier: float = 1.0  # runtime scale (moldable sizing)
    offer_id: str | None = None
    started: bool = False
    # Fragment-only, set by materialize.
    work_from: float = 0.0
    work_to: float = 1.0
    predicted_peak_mb: float = 0.0
    admission_probability: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.work_from < self.work_to <= 1.0:
            raise ScenarioError(
                f"{self.subjob_id}: work segment [{self.work_from}, {self.work_to}] invalid"
            )
        if self.predicted_peak_mb > self.slice_capacity_mb:
            raise ScenarioError(
                f"{self.subjob_id}: predicted peak exceeds slice capacity"
            )

    @property
    def reserved_end_s(self) -> float:
        return self.window_start_s + self.window_duration_s


@dataclass
class JobRuntime:
    """Engine-side mutable state of one job.

    position_s walks the job-relative grid axis of the ground-truth run;
    the job completes when it reaches actual_duration_s.
    """

    spec: JobSpec
    profile: FunctionalProfile
    actual: np.ndarray
    grid_step: float
    position_s: float = 0.0
    first_start_s: float | None = None
    finish_s: float | None = None  # set once, when the job completes
    reexecuted_s: float = 0.0
    oom_strikes: int = 0
    subjob_seq: int = 0
    placement_seq: int = 0
    earliest_resume_s: float = 0.0  # migration delay gate (preempt baseline)
    demand_floor: np.ndarray | None = None  # observed-demand lower bound (online correction)
    demand_floor_version: int = 0  # bumped by note_demand; keys this job's floored plans

    @property
    def actual_duration_s(self) -> float:
        return (len(self.actual) - 1) * self.grid_step

    def fraction_at(self, position_s: float) -> float:
        if self.actual_duration_s <= 0:
            return 1.0
        return min(1.0, position_s / self.actual_duration_s)

    def next_subjob_id(self) -> str:
        sid = f"{self.spec.job_id}-s{self.subjob_seq}"
        self.subjob_seq += 1
        return sid

    def next_placement_id(self) -> str:
        pid = f"{self.spec.job_id}-p{self.placement_seq}"
        self.placement_seq += 1
        return pid

    def note_demand(self, start_idx: int, samples: np.ndarray) -> None:
        """Fold observed samples into the planning floor (online correction)."""
        end = start_idx + len(samples)
        if self.demand_floor is None or len(self.demand_floor) < end:
            grown = np.zeros(max(end, len(self.actual)))
            if self.demand_floor is not None:
                grown[: len(self.demand_floor)] = self.demand_floor
            self.demand_floor = grown
        self.demand_floor[start_idx:end] = np.maximum(
            self.demand_floor[start_idx:end], samples
        )
        self.demand_floor_version += 1


# ---------------------------------------------------------------------------
# Scenario files: one job per line, plus per-job ensemble manifests.
# ---------------------------------------------------------------------------

SCENARIO_HEADER = (
    "job_id,tenant,arrival_s,total_work_s,declared_peak_mb,priority,"
    "deadline_s,ckpt_mb,atomizable,ensemble_manifest_path"
)
_SCENARIO_COLS = SCENARIO_HEADER.split(",")
_TRUTH_COL = "truth_path"


def _fmtnum(x: float) -> str:
    return format(float(x), ".10g")


def write_scenario(
    path: str | Path,
    jobs: list[JobSpec],
    manifest_paths: dict[str, str],
    truth_paths: dict[str, str] | None = None,
) -> None:
    """Write a scenario file; manifest paths are stored as given (relative
    paths are resolved against the scenario file's directory on ingest)."""
    path = Path(path)
    header = SCENARIO_HEADER + ("," + _TRUTH_COL if truth_paths else "")
    rows = [header]
    for job in jobs:
        deadline = "none" if job.deadline_s is None else _fmtnum(job.deadline_s)
        row = ",".join(
            [
                job.job_id,
                job.tenant_id,
                _fmtnum(job.arrival_s),
                _fmtnum(job.total_work_s),
                _fmtnum(job.declared_peak_mb),
                str(job.priority),
                deadline,
                _fmtnum(job.checkpoint_size_mb),
                "1" if job.atomizable else "0",
                manifest_paths[job.job_id],
            ]
        )
        if truth_paths:
            row += "," + truth_paths.get(job.job_id, "")
        rows.append(row)
    path.write_text("\n".join(rows) + "\n")


def ingest_scenario(
    path: str | Path,
) -> tuple[list[JobSpec], dict[str, TrajectoryEnsemble], dict[str, np.ndarray]]:
    """Parse a scenario file.

    Returns (jobs, ensembles keyed by manifest path, explicit ground-truth
    trajectories keyed by job id). Jobs referencing one manifest share one
    ensemble object. Malformed rows raise ScenarioError with a line number.
    """
    path = Path(path)
    if not path.exists():
        raise ScenarioError(f"scenario not found: {path}")
    base = path.parent
    lines = path.read_text().splitlines()
    if not lines:
        raise ScenarioError("empty file, header required", line=1)
    header = [h.strip() for h in lines[0].split(",")]
    has_truth = header == _SCENARIO_COLS + [_TRUTH_COL]
    if not has_truth and header != _SCENARIO_COLS:
        raise ScenarioError(f"bad header, expected '{SCENARIO_HEADER}'", line=1)
    jobs: list[JobSpec] = []
    ensembles: dict[str, TrajectoryEnsemble] = {}
    truths: dict[str, np.ndarray] = {}
    seen_ids: set[str] = set()
    for ln, raw in enumerate(lines[1:], start=2):
        if not raw.strip() or raw.lstrip().startswith("#"):
            continue
        parts = [p.strip() for p in raw.split(",")]
        if len(parts) != len(header):
            raise ScenarioError(f"expected {len(header)} columns, got {len(parts)}", line=ln)
        try:
            job_id, tenant = parts[0], parts[1]
            arrival = float(parts[2])
            total_work = float(parts[3])
            declared_peak = float(parts[4])
            priority = int(parts[5])
            deadline = None if parts[6].lower() == "none" else float(parts[6])
            ckpt = float(parts[7])
            if parts[8] not in ("0", "1"):
                raise ValueError(f"atomizable must be 0 or 1, got {parts[8]!r}")
            atomizable = parts[8] == "1"
        except ValueError as exc:
            raise ScenarioError(str(exc), line=ln) from exc
        if job_id in seen_ids:
            raise ScenarioError(f"duplicate job id {job_id}", line=ln)
        seen_ids.add(job_id)
        manifest_rel = parts[9]
        if manifest_rel not in ensembles:
            manifest_path = base / manifest_rel  # an absolute path replaces base
            if not manifest_path.exists():
                raise ScenarioError(f"ensemble manifest not found: {manifest_rel}", line=ln)
            ensembles[manifest_rel] = load_ensemble(manifest_path)
        try:
            job = JobSpec(
                job_id=job_id,
                tenant_id=tenant,
                arrival_s=arrival,
                total_work_s=total_work,
                declared_peak_mb=declared_peak,
                priority=priority,
                deadline_s=deadline,
                checkpoint_size_mb=ckpt,
                atomizable=atomizable,
                ensemble_key=manifest_rel,
            )
        except ScenarioError as exc:
            raise ScenarioError(str(exc), line=ln) from exc
        if has_truth and parts[10]:
            truth_path = base / parts[10]
            if not truth_path.exists():
                raise ScenarioError(f"ground-truth run not found: {parts[10]}", line=ln)
            try:
                samples, step = read_trajectory(truth_path)
            except ProfileError as exc:
                raise ScenarioError(str(exc), line=ln) from exc
            if not math.isclose(step, ensembles[manifest_rel].grid_step, rel_tol=1e-9):
                raise ScenarioError("ground-truth grid step differs from ensemble", line=ln)
            try:  # the check every ensemble run gets
                truths[job_id] = _checked_run(parts[10], samples)
            except ProfileError as exc:
                raise ScenarioError(f"ground-truth {exc}", line=ln) from exc
        jobs.append(job)
    return jobs, ensembles, truths
