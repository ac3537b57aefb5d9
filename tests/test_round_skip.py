"""Skipped baseline rounds change nothing.

The engine skips a baseline round when no event but the periodic tick has
come since the last round that logged nothing, and no slice has turned
idle since (see simcore._Engine._run_round). These tests run every round
instead and compare the artifacts byte for byte, pin the one bundled run
where a slice turns idle between events, and bound how many rounds run.
"""
from dataclasses import replace

import numpy as np
import pytest

from sjasim.cli import events_text, metrics_csv_text
from sjasim.profiles import TrajectoryEnsemble
from sjasim.scenarios import SCENARIO_BUILDERS
from sjasim.simcore import Scenario, SimConfig, _Engine, run
from sjasim.workload import JobSpec

BASELINES = ("first_fit", "best_fit", "moldable", "preempt_migrate")
SMALL = ("smoke", "gap-reclaim", "priority-inversion", "two-tenant", "fragmented")
VARIANTS = {
    "default": {},
    "failures": {"failure_rate_per_hour": 1.5},
    "cadence-7": {"round_cadence_s": 7.0},
}


def run_every_round(monkeypatch):
    """From here on, every round runs: _stale reads True whatever the
    engine stores."""
    monkeypatch.setattr(
        _Engine, "_stale", property(lambda self: True, lambda self, v: None), raising=False
    )


def artifacts(scenario, scheduler, cfg, seed):
    report, log = run(scenario, scheduler, cfg, seed)
    return events_text(log), metrics_csv_text(report)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("name", SMALL)
def test_skipping_rounds_leaves_artifacts_unchanged(name, variant, monkeypatch):
    scenario, cfg = SCENARIO_BUILDERS[name]()
    cfg = replace(cfg, **VARIANTS[variant])
    cases = [(s, seed) for s in BASELINES for seed in (0, 1)]
    skipped = {(s, seed): artifacts(scenario, s, cfg, seed) for s, seed in cases}
    run_every_round(monkeypatch)
    for s, seed in cases:
        assert artifacts(scenario, s, cfg, seed) == skipped[s, seed], (s, seed)


def test_fragmented_run_has_a_tick_where_a_slice_turns_idle_with_no_event(monkeypatch):
    # frag-203-p1's booked end on g0s1 is under _EPS past its end event, so
    # _close keeps the booking and the slice turns idle only at the next
    # periodic tick. The wake time, not the stale flag, makes that tick run.
    woken = []
    run_round = _Engine._run_round

    def spy(self):
        if not self._stale and self.now >= self._wake_s:
            woken.append((self.now, self._wake_s))
        run_round(self)

    monkeypatch.setattr(_Engine, "_run_round", spy)
    scenario, cfg = SCENARIO_BUILDERS["fragmented"]()
    cfg = replace(cfg, failure_rate_per_hour=1.5)
    _, log = run(scenario, "preempt_migrate", cfg, 1)
    (end,) = [r for r in log if r["kind"] == "subjob_end" and r["unit"] == "frag-203-p1"]
    assert [t for t, _ in woken] == [8940.0]
    # The log rounds t to 6 places; the booked end is 8938.50151064481.
    assert round(woken[0][1], 6) == end["t"] and woken[0][1] < 8940.0
    assert not any(end["t"] < r["t"] < 8940.0 for r in log)


def _flat_ensemble(duration_s: float, mb: float) -> TrajectoryEnsemble:
    return TrajectoryEnsemble(grid_step=60.0, runs=[np.full(int(duration_s / 60) + 1, mb)] * 4)


def _late_idle_scenario() -> tuple[Scenario, SimConfig]:
    """low is preempted by high at 660.7 s keeping 600 s of its 1800 s, and
    resumes when high ends at 1260.7 s. Its booked end, 1260.7 plus the
    estimate 1800 * (1 - 600/1800), lies under _EPS past its end event at
    2460.7 s, so the big slice turns idle with no event. waiter fits only
    there and must take it at the 2520 s tick; filler keeps a unit running
    so the queue is not quiescent."""
    jobs = [
        JobSpec("low", "t0", 0.7, 1800.0, 15000.0, atomizable=False, ensemble_key="low"),
        JobSpec("filler", "t0", 0.0, 6000.0, 4000.0, atomizable=False, ensemble_key="filler"),
        JobSpec("high", "t1", 660.7, 600.0, 15000.0, priority=5, atomizable=False,
                ensemble_key="high"),
        JobSpec("waiter", "t1", 1000.0, 600.0, 15000.0, atomizable=False, ensemble_key="high"),
    ]
    ens = {
        "low": _flat_ensemble(1800.0, 12000.0),
        "filler": _flat_ensemble(6000.0, 3000.0),
        "high": _flat_ensemble(600.0, 12000.0),
    }
    cfg = SimConfig(gpus=1, slices_per_gpu=(5120, 20480))
    return Scenario(jobs, ens, name="late-idle"), cfg


def test_slice_idle_between_events_takes_waiting_job_at_next_tick(monkeypatch):
    scenario, cfg = _late_idle_scenario()
    report, log = run(scenario, "preempt_migrate", cfg, 0)
    ends = {r["unit"]: r["t"] for r in log if r["kind"] == "subjob_end"}
    placed = {r["job"]: r["t"] for r in log if r["kind"] == "placement"}
    assert ends["low-p1"] == 2460.7
    assert placed["waiter"] == 2520.0
    skipped = events_text(log), metrics_csv_text(report)
    run_every_round(monkeypatch)
    assert artifacts(scenario, "preempt_migrate", cfg, 0) == skipped


@pytest.mark.parametrize("scheduler", BASELINES)
def test_calibration_runs_few_baseline_rounds(scheduler, monkeypatch):
    # Run every round, as before the skip, and each baseline here runs
    # 1,030-1,086; the skip leaves 157-161. The first count also shows that
    # run_every_round takes effect, so the oracles above are not vacuous.
    calls = []
    baseline_round = _Engine._baseline_round

    def count(self):
        calls.append(self.now)
        return baseline_round(self)

    monkeypatch.setattr(_Engine, "_baseline_round", count)
    scenario, cfg = SCENARIO_BUILDERS["calibration"]()
    run(scenario, scheduler, cfg, 0)
    skipping = len(calls)
    calls.clear()
    run_every_round(monkeypatch)
    run(scenario, scheduler, cfg, 0)
    assert len(calls) >= 1000
    assert skipping <= 250
