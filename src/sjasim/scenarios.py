"""Ready-made workloads exercising the scheduler family.

Each builder returns (Scenario, SimConfig): the job mix with its historical
ensembles, and the engine configuration the workload was designed around
(cluster layout, grant policy, segmentation bounds). Builders are pure
functions of their arguments, so two calls always yield the same scenario;
per-seed variation enters only through the engine's ground-truth draws.

export_scenario writes a scenario to disk in the tabular format the CLI
ingests: the job table plus, per ensemble, a manifest and one run file,
`runs.csv`, that holds all of the ensemble's runs. File-based scenarios
replay bootstrap picks from the stored ensembles (the synthetic generators
are an in-memory construct and are not serialized), which keeps file runs
self-consistent and reproducible.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from .baselines import BaselineParams
from .policies import GrantPolicy
from .profiles import write_ensemble
from .segmentation import SegmentationConfig
from .simcore import Scenario, SimConfig
from .workload import (
    BURST,
    STEADY,
    WARMUP,
    JobSpec,
    Phase,
    PhaseModel,
    synth_ensemble,
    write_scenario,
)

__all__ = [
    "GRID_STEP_S",
    "make_smoke_scenario",
    "make_calibration_scenario",
    "make_gap_reclaim_scenario",
    "make_priority_inversion_scenario",
    "make_deadline_scenario",
    "make_two_tenant_scenario",
    "make_fragmented_scenario",
    "SCENARIO_BUILDERS",
    "export_scenario",
]

GRID_STEP_S = 60.0

# Root entropy for ensemble synthesis; builders add (scenario id, class id)
# so every ensemble is deterministic and distinct.
_SEED_ROOT = 20240911


def _model(*phases: Phase) -> PhaseModel:
    return PhaseModel(phases=tuple(phases))


def _ensemble(model: PhaseModel, n_runs: int, jitter: float, scen: int, cls: int):
    return synth_ensemble(
        model, n_runs, jitter, seed=[_SEED_ROOT, scen, cls], grid_step=GRID_STEP_S
    )


def _steady(duration_s: float, base_mb: float, noise_mb: float = 0.0) -> Phase:
    return Phase(STEADY, duration_s, base_mb, noise_mb)


# ---------------------------------------------------------------------------
# Smoke: three small jobs, one of them non-atomizable. Cheap enough to run
# hundreds of times; used for protocol-ordering and determinism checks.
# ---------------------------------------------------------------------------


def make_smoke_scenario() -> tuple[Scenario, SimConfig]:
    scen = 1
    models = {
        "steady-mid": _model(_steady(1800, 8800, 250)),
        "ramped-high": _model(Phase(WARMUP, 300, 13000), _steady(2100, 13000, 300)),
        "steady-small": _model(_steady(1200, 6000, 200)),
    }
    ens = {
        key: _ensemble(m, 24, 0.05, scen, i)
        for i, (key, m) in enumerate(models.items())
    }
    jobs = [
        JobSpec(
            "smoke-a", "t0", 0.0, 1800.0, 9800.0, checkpoint_size_mb=512,
            generator=models["steady-mid"], duration_jitter=0.05,
            ensemble_key="steady-mid",
        ),
        JobSpec(
            "smoke-b", "t1", 120.0, 2400.0, 15000.0, checkpoint_size_mb=1024,
            generator=models["ramped-high"], duration_jitter=0.05,
            ensemble_key="ramped-high",
        ),
        JobSpec(
            "smoke-c", "t0", 240.0, 1200.0, 7500.0, atomizable=False,
            generator=models["steady-small"], duration_jitter=0.05,
            ensemble_key="steady-small",
        ),
    ]
    cfg = SimConfig(
        gpus=1, slices_per_gpu=(20480, 10240), seg=SegmentationConfig(tau_max_s=900.0)
    )
    return Scenario(jobs, ens, name="smoke"), cfg


# ---------------------------------------------------------------------------
# Calibration: a large mixed workload whose bursty class produces genuine
# capacity exceedances at roughly the configured risk level, so the realized
# OOM rate among admitted subjobs can be checked against eps.
# ---------------------------------------------------------------------------


def make_calibration_scenario(n_jobs: int = 56) -> tuple[Scenario, SimConfig]:
    scen = 2
    classes = [
        # (key, model, declared_peak, ckpt_mb, weight)
        ("steady-low", _model(_steady(2400, 3600, 140)), 4500.0, 256.0, 3),
        ("noisy-mid", _model(_steady(2700, 8700, 420)), 9900.0, 512.0, 3),
        (
            "bursty-mid",
            _model(Phase(BURST, 3600, 8800, 280, burst_amp_mb=1800, burst_prob=0.003)),
            11500.0,
            512.0,
            4,
        ),
        (
            "ramped-high",
            _model(Phase(WARMUP, 600, 13800), _steady(2700, 13800, 350)),
            15000.0,
            1024.0,
            2,
        ),
        ("steady-heavy", _model(_steady(3000, 17400, 550)), 19000.0, 2048.0, 2),
    ]
    ens = {
        key: _ensemble(model, 200, 0.10, scen, i)
        for i, (key, model, *_rest) in enumerate(classes)
    }
    picks = [i for i, c in enumerate(classes) for _ in range(c[4])]
    rng = np.random.default_rng([_SEED_ROOT, scen, 999])
    jobs: list[JobSpec] = []
    arrival = 0.0
    for j in range(n_jobs):
        key, model, declared, ckpt, _w = classes[picks[j % len(picks)]]
        jobs.append(
            JobSpec(
                f"cal-{j:03d}",
                f"t{j % 3}",
                round(arrival),
                model.total_duration_s,
                declared,
                checkpoint_size_mb=ckpt,
                generator=model,
                duration_jitter=0.10,
                ensemble_key=key,
            )
        )
        arrival += rng.exponential(240.0)
    cfg = SimConfig(
        gpus=2, slices_per_gpu=(20480, 10240, 5120, 5120), seg=SegmentationConfig(tau_max_s=900.0)
    )
    return Scenario(jobs, ens, name="calibration"), cfg


# ---------------------------------------------------------------------------
# Gap reclaim: one peaky training job that only fits the large slice as a
# whole, plus background jobs that leave a single ten-minute hole on the
# mid-size slice. Conventional placement leaves the hole idle; the offer
# path runs exactly one fragment there. Noise-free so timelines are exact.
# ---------------------------------------------------------------------------


def make_gap_reclaim_scenario() -> tuple[Scenario, SimConfig]:
    scen = 3
    models = {
        "bg-large": _model(_steady(10800, 29800)),
        "bg-small": _model(_steady(3600, 14200)),
        "train-peaky": _model(_steady(660, 14000), _steady(6540, 37000)),
    }
    ens = {
        key: _ensemble(m, 8, 0.0, scen, i) for i, (key, m) in enumerate(models.items())
    }
    jobs = [
        JobSpec(
            "bg-large", "ops", 0.0, 10800.0, 36000.0, atomizable=False,
            generator=models["bg-large"], ensemble_key="bg-large",
        ),
        JobSpec(
            "bg-small-a", "ops", 0.0, 3600.0, 15000.0, atomizable=False,
            generator=models["bg-small"], ensemble_key="bg-small",
        ),
        JobSpec(
            "train", "research", 1800.0, 7200.0, 39000.0,
            checkpoint_size_mb=4096, generator=models["train-peaky"],
            ensemble_key="train-peaky",
        ),
        JobSpec(
            "bg-small-b", "ops", 4200.0, 3600.0, 15000.0, atomizable=False,
            generator=models["bg-small"], ensemble_key="bg-small",
        ),
    ]
    # tau_min equals the hole's length so the advertised window is taken as
    # one fragment; lookahead is kept short so offers never extend past what
    # the background schedule will actually leave free.
    cfg = SimConfig(
        gpus=1,
        slices_per_gpu=(40960, 20480),
        seg=SegmentationConfig(tau_min_s=600.0),
        lookahead_s=600.0,
    )
    return Scenario(jobs, ens, name="gap-reclaim"), cfg


# ---------------------------------------------------------------------------
# Priority inversion: a long low-priority job holds the only slice when a
# high-priority job arrives. The preempting baseline evicts; the offer path
# never interrupts running work.
# ---------------------------------------------------------------------------


def make_priority_inversion_scenario() -> tuple[Scenario, SimConfig]:
    scen = 4
    models = {
        "low-long": _model(_steady(7200, 11800)),
        "high-short": _model(_steady(3600, 11800)),
    }
    ens = {
        key: _ensemble(m, 8, 0.0, scen, i) for i, (key, m) in enumerate(models.items())
    }
    jobs = [
        JobSpec(
            "low-task", "t0", 0.0, 7200.0, 15000.0, priority=0, atomizable=False,
            checkpoint_size_mb=1024, generator=models["low-long"],
            ensemble_key="low-long",
        ),
        JobSpec(
            "high-task", "t1", 1800.0, 3600.0, 15000.0, priority=5, atomizable=False,
            checkpoint_size_mb=1024, generator=models["high-short"],
            ensemble_key="high-short",
        ),
    ]
    cfg = SimConfig(
        gpus=1, slices_per_gpu=(20480,), policy=GrantPolicy(kind="priority")
    )
    return Scenario(jobs, ens, name="priority-inversion"), cfg


# ---------------------------------------------------------------------------
# Deadline workload: earliest-deadline grants with a probabilistic
# reachability screen. Most deadlines carry generous slack; a few are tight
# enough that the screen drops them immediately.
# ---------------------------------------------------------------------------


def make_deadline_scenario(n_jobs: int = 100) -> tuple[Scenario, SimConfig]:
    scen = 5
    classes = [
        ("steady-low", _model(_steady(1800, 3600, 140)), 4500.0),
        ("noisy-mid", _model(_steady(2400, 8700, 380)), 9900.0),
        ("ramped-high", _model(Phase(WARMUP, 480, 13800), _steady(2400, 13800, 320)), 15000.0),
    ]
    ens = {
        key: _ensemble(model, 200, 0.12, scen, i)
        for i, (key, model, _peak) in enumerate(classes)
    }
    rng = np.random.default_rng([_SEED_ROOT, scen, 999])
    # 5:3:2 mix; the big class is the scarce one (only the 20480 slices cover
    # it), so keeping it to a fifth of arrivals holds its queue near 65%
    # utilization and admitted deadlines stay reachable.
    pattern = (0, 1, 0, 2, 0, 1, 0, 0, 1, 2)
    jobs: list[JobSpec] = []
    arrival = 0.0
    for j in range(n_jobs):
        key, model, declared = classes[pattern[j % len(pattern)]]
        nominal = model.total_duration_s
        # Every ninth deadline is unreachable on purpose; the screen must
        # starve those jobs rather than burn windows on them.
        factor = 1.05 if j % 9 == 8 else rng.uniform(2.6, 3.6)
        jobs.append(
            JobSpec(
                f"dl-{j:03d}",
                f"t{j % 3}",
                round(arrival),
                nominal,
                declared,
                deadline_s=round(arrival + factor * nominal),
                checkpoint_size_mb=512,
                generator=model,
                duration_jitter=0.12,
                ensemble_key=key,
            )
        )
        arrival += rng.exponential(300.0)
    cfg = SimConfig(
        gpus=3,
        slices_per_gpu=(20480, 10240, 5120, 5120),
        seg=SegmentationConfig(tau_max_s=900.0),
        policy=GrantPolicy(kind="edf"),
    )
    return Scenario(jobs, ens, name="deadline"), cfg


# ---------------------------------------------------------------------------
# Two tenants with identical demand and equal token budgets; the budgeted
# policy grants to the tenant with the most tokens left, so service should
# stay near-symmetric all the way to the fairness index.
# ---------------------------------------------------------------------------


def make_two_tenant_scenario(jobs_per_tenant: int = 16) -> tuple[Scenario, SimConfig]:
    scen = 6
    model = _model(_steady(2400, 8800, 260))
    ens = {"steady-mid": _ensemble(model, 64, 0.08, scen, 0)}
    jobs: list[JobSpec] = []
    for k in range(jobs_per_tenant):
        for offset, tenant in ((0.0, "acme"), (600.0, "zen")):
            jobs.append(
                JobSpec(
                    f"{tenant}-{k:02d}",
                    tenant,
                    1200.0 * k + offset,
                    2400.0,
                    9900.0,
                    checkpoint_size_mb=512,
                    generator=model,
                    duration_jitter=0.08,
                    ensemble_key="steady-mid",
                )
            )
    cfg = SimConfig(
        gpus=1,
        slices_per_gpu=(20480, 10240, 10240),
        seg=SegmentationConfig(tau_max_s=900.0),
        lookahead_s=900.0,
        policy=GrantPolicy(
            kind="fair_tokens", token_budgets={"acme": 20000.0, "zen": 20000.0}
        ),
    )
    return Scenario(jobs, ens, name="two-tenant"), cfg


# ---------------------------------------------------------------------------
# Fragmented workload: bursty arrivals of mixed-footprint jobs on four
# partitioned GPUs. Includes a class whose declared peak is far above its
# real footprint, which monolithic placement must take at face value.
# ---------------------------------------------------------------------------


def make_fragmented_scenario(bursts: int = 4) -> tuple[Scenario, SimConfig]:
    scen = 7
    classes = {
        "tiny": (_model(_steady(1800, 3800, 120)), 4500.0, 256.0),
        "mid": (
            _model(Phase(WARMUP, 300, 9000), _steady(2400, 9000, 250)),
            10000.0,
            512.0,
        ),
        "big": (
            _model(Phase(WARMUP, 420, 17300), _steady(3180, 17300, 350)),
            19000.0,
            1024.0,
        ),
        "overdeclared": (_model(_steady(2400, 9200, 280)), 19500.0, 512.0),
    }
    ens = {
        key: _ensemble(model, 64, 0.10, scen, i)
        for i, (key, (model, _peak, _ckpt)) in enumerate(classes.items())
    }
    burst_mix = ["tiny"] * 2 + ["mid"] * 3 + ["big"] * 3 + ["overdeclared"] * 2
    rng = np.random.default_rng([_SEED_ROOT, scen, 999])
    jobs: list[JobSpec] = []
    for b in range(bursts):
        base = 2700.0 * b
        for m, key in enumerate(burst_mix):
            model, declared, ckpt = classes[key]
            jobs.append(
                JobSpec(
                    f"frag-{b}{m:02d}",
                    f"t{(b + m) % 3}",
                    round(base + rng.uniform(0.0, 300.0)),
                    model.total_duration_s,
                    declared,
                    checkpoint_size_mb=ckpt,
                    generator=model,
                    duration_jitter=0.10,
                    ensemble_key=key,
                )
            )
    cfg = SimConfig(
        gpus=4,
        slices_per_gpu=(20480, 10240, 5120, 5120),
        seg=SegmentationConfig(tau_max_s=900.0),
        baseline=BaselineParams(
            speedup_table={5120: 1.15, 10240: 1.08, 20480: 1.04}
        ),
    )
    return Scenario(jobs, ens, name="fragmented"), cfg


SCENARIO_BUILDERS = {
    "smoke": make_smoke_scenario,
    "calibration": make_calibration_scenario,
    "gap-reclaim": make_gap_reclaim_scenario,
    "priority-inversion": make_priority_inversion_scenario,
    "deadline": make_deadline_scenario,
    "two-tenant": make_two_tenant_scenario,
    "fragmented": make_fragmented_scenario,
}


def export_scenario(scenario: Scenario, directory: str | Path) -> Path:
    """Write a scenario under `directory`: `scenario.csv` and, per ensemble,
    `ensembles/<key>/manifest.txt` and `runs.csv`.

    Returns the scenario file path, ready for the CLI or ingest_scenario.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest_rel: dict[str, str] = {}
    for key, ensemble in scenario.ensembles.items():
        rel = f"ensembles/{key}/manifest.txt"
        write_ensemble(directory / "ensembles" / key, ensemble)
        manifest_rel[key] = rel
    paths = {job.job_id: manifest_rel[job.ensemble_key] for job in scenario.jobs}
    out = directory / "scenario.csv"
    write_scenario(out, scenario.jobs, paths)
    return out
