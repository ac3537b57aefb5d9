"""Event-engine behavior: determinism, accounting, shared workload draws."""
import dataclasses
import json
import math
import statistics

import numpy as np
import pytest

from sjasim import profiles as pf
from sjasim import segmentation, simcore
from sjasim.cli import events_text, metrics_csv_text
from sjasim.policies import GrantPolicy
from sjasim.simcore import (
    SCHEDULERS,
    Scenario,
    SimConfig,
    SimulationTimeout,
    _Engine,
    compare,
    draw_actual_runs,
    mean_sd,
    run,
)
from sjasim.scenarios import SCENARIO_BUILDERS
from sjasim.segmentation import SegmentationConfig
from sjasim.workload import JobSpec, Phase, PhaseModel, ScenarioError, synth_ensemble
from test_determinism import DIGESTS, _digest

H = 60.0


def flat_model(duration_s, base_mb, noise=0.0):
    return PhaseModel(phases=(Phase("steady", duration_s, base_mb, noise),))


def tiny_scenario(n_jobs=2, base_mb=8000.0, noise=150.0, work=1200.0,
                  declared=9500.0, atomizable=True, jitter=0.05):
    model = flat_model(work, base_mb, noise)
    ens = {"m": synth_ensemble(model, 16, jitter, seed=[5, 0], grid_step=H)}
    jobs = [
        JobSpec(f"job-{k}", f"t{k % 2}", 120.0 * k, work, declared,
                checkpoint_size_mb=128.0, atomizable=atomizable,
                generator=model, duration_jitter=jitter, ensemble_key="m")
        for k in range(n_jobs)
    ]
    return Scenario(jobs, ens, name="tiny")


def serialize(log):
    return "\n".join(json.dumps(r, sort_keys=True, default=float) for r in log)


class TestDeterminism:
    def test_same_seed_same_log_and_metrics(self):
        scn = tiny_scenario()
        cfg = SimConfig(gpus=1, slices_per_gpu=(10240, 10240))
        r1, l1 = run(scn, "sja", cfg, seed=3)
        r2, l2 = run(scn, "sja", cfg, seed=3)
        assert serialize(l1) == serialize(l2)
        assert r1.scalars() == r2.scalars()

    def test_different_seed_differs(self):
        scn = tiny_scenario()
        cfg = SimConfig(gpus=1, slices_per_gpu=(10240, 10240))
        _, l1 = run(scn, "sja", cfg, seed=3)
        _, l2 = run(scn, "sja", cfg, seed=4)
        assert serialize(l1) != serialize(l2)


class TestSharedDraws:
    def test_truth_identical_across_schedulers(self):
        scn = tiny_scenario()
        draws_a = draw_actual_runs(scn, seed=9)
        draws_b = draw_actual_runs(scn, seed=9)
        assert all(np.array_equal(draws_a[j], draws_b[j]) for j in draws_a)

    def test_explicit_truth_wins(self):
        scn = tiny_scenario(n_jobs=1)
        pinned = np.full(11, 7777.0)
        scn.truths["job-0"] = pinned
        draws = draw_actual_runs(scn, seed=0)
        assert np.array_equal(draws["job-0"], pinned)

    def test_generator_free_jobs_bootstrap_from_ensemble(self):
        scn = tiny_scenario(n_jobs=1)
        spec = scn.jobs[0]
        scn.jobs[0] = dataclasses.replace(spec, generator=None)
        draws = draw_actual_runs(scn, seed=2)
        ens = scn.ensembles["m"]
        assert any(np.array_equal(draws["job-0"], r) for r in ens.runs)

    def test_completion_times_equal_where_no_contention(self):
        # One job, idle cluster: every scheduler faces the same truth, so
        # total executed work matches across schedulers.
        scn = tiny_scenario(n_jobs=1)
        cfg = SimConfig(gpus=1, slices_per_gpu=(10240,))
        durations = set()
        for sched in ("sja", "first_fit", "best_fit"):
            rpt, _ = run(scn, sched, cfg, seed=5)
            assert rpt.completed_jobs == 1
            job_id, finish, reex = rpt.per_job_completion[0]
            durations.add(finish - reex)  # pure execution span
        # sja may add round-boundary latency; execution span is identical
        assert len({round(d) for d in durations}) <= 2


class TestEmptyAndDegenerate:
    def test_empty_scenario_zero_metrics(self):
        scn = Scenario(jobs=[], ensembles={}, name="empty")
        rpt, log = run(scn, "sja", SimConfig(), seed=0)
        s = rpt.scalars()
        assert s["completed_jobs"] == 0 and s["admitted_subjobs"] == 0
        assert s["total_time_s"] == 0.0
        assert [r for r in log if r["kind"] == "subjob_created"] == []

    def test_pinned_truth_with_an_unknown_ensemble_fails_at_construction(self):
        # A pinned truth skips the ground-truth draw, so only the scenario's
        # own check stands between this job and the engine.
        ens = {"m": synth_ensemble(flat_model(600.0, 8000.0), 4, 0.0, seed=[1], grid_step=H)}
        jobs = [JobSpec("j", "t0", 0.0, 600.0, 9000.0, ensemble_key="typo")]
        with pytest.raises(ScenarioError, match="j: unknown ensemble 'typo'"):
            Scenario(jobs, ens, truths={"j": np.full(11, 8000.0)})

    def test_mixed_grid_steps_fail_at_construction(self):
        model = flat_model(600.0, 8000.0)
        ens = {f"m{h:.0f}": synth_ensemble(model, 4, 0.0, seed=[1], grid_step=h)
               for h in (60.0, 30.0)}
        with pytest.raises(ScenarioError, match=r"mixed ensemble grid steps \[30.0, 60.0\]"):
            Scenario([], ens)

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError):
            run(tiny_scenario(), "galaxy_brain", SimConfig(), seed=0)

    @pytest.mark.parametrize("name", ["lookahead_s", "round_cadence_s"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_config_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            SimConfig(**{name: value})

    @pytest.mark.parametrize(
        "name", ["tau_min_s", "tau_max_s", "smoothing_window_s", "hysteresis_delta"]
    )
    def test_non_finite_segmentation_config_rejected(self, name):
        with pytest.raises(ValueError, match=name):
            SimConfig(seg=SegmentationConfig(**{name: math.inf}))

    def test_infinite_max_wait_allowed(self):
        assert SimConfig(max_wait_s=math.inf).max_wait_s == math.inf

    @pytest.mark.parametrize(
        "name, value",
        [
            # inf re-armed failure injection at zero delay: a livelock
            ("failure_rate_per_hour", math.inf),
            ("failure_rate_per_hour", math.nan),
            ("failure_rate_per_hour", -1.0),  # used to be silently ignored
            ("sim_time_cap_s", math.nan),  # used to switch the cap off
            ("sim_time_cap_s", 0.0),
            ("sim_time_cap_s", -1.0),
            ("max_wait_s", math.nan),
        ],
    )
    def test_run_bounds_rejected(self, name, value):
        # Construction only: the engine never runs on these values.
        with pytest.raises(ValueError, match=name):
            SimConfig(**{name: value})

    @pytest.mark.parametrize(
        "fields, match",
        [
            ({"gpus": 0}, "GPU"),
            ({"gpus": -1}, "GPU"),
            ({"slices_per_gpu": (3000,)}, "not in catalog"),
            ({"slices_per_gpu": (5120,) * 8}, "more than 7"),
            ({"single_run_inflation": 0.5}, "inflation"),
            ({"single_run_inflation": math.nan}, "inflation"),
            ({"single_run_inflation": math.inf}, "inflation"),
        ],
    )
    def test_layout_and_inflation_rejected(self, fields, match):
        # Construction only: these used to fail mid-run, inside the engine.
        with pytest.raises(ValueError, match=match):
            SimConfig(**fields)

    def test_time_cap_raises(self):
        scn = tiny_scenario()
        cfg = SimConfig(sim_time_cap_s=30.0)
        with pytest.raises(SimulationTimeout):
            run(scn, "sja", cfg, seed=0)


class TestAccounting:
    def test_single_job_utilization_identity(self):
        # reserved_utilization = reserved MB*s / (total capacity * makespan);
        # recompute both sides from the event log and cluster arithmetic.
        scn = tiny_scenario(n_jobs=1, noise=0.0, jitter=0.0)
        cfg = SimConfig(gpus=1, slices_per_gpu=(10240, 5120))
        rpt, log = run(scn, "sja", cfg, seed=0)
        assert rpt.completed_jobs == 1
        reserved = 0.0
        ends = [r for r in log if r["kind"] == "subjob_end"]
        created = {r["unit"]: r for r in log if r["kind"] == "subjob_created"}
        for e in ends:
            c = created[e["unit"]]
            reserved += c["capacity_mb"] * (e["pos_to_s"] - c["pos_from_s"])
        total_cap = 10240 + 5120
        expect = reserved / (total_cap * rpt.total_time_s)
        assert rpt.scalars()["reserved_utilization"] == pytest.approx(expect, rel=1e-6)

    def test_grant_precedes_every_creation(self):
        scn = tiny_scenario(n_jobs=3)
        cfg = SimConfig(gpus=1, slices_per_gpu=(10240, 10240))
        for seed in range(5):
            _, log = run(scn, "sja", cfg, seed=seed)
            interested, granted, created = set(), set(), set()
            for r in log:
                if r["kind"] == "interest":
                    interested.add((r["offer"], r["job"]))
                elif r["kind"] == "grant":
                    # Only a job that signaled interest in the offer wins it.
                    assert (r["offer"], r["job"]) in interested
                    granted.add((r["offer"], r["job"]))
                elif r["kind"] == "subjob_created":
                    assert (r["offer"], r["job"]) in granted
                    created.add((r["offer"], r["job"]))
            # Every grant mints at least one subjob: none is refused.
            assert granted and granted == created

    def test_slice_occupancy_never_overlaps(self):
        scn = tiny_scenario(n_jobs=4)
        cfg = SimConfig(gpus=1, slices_per_gpu=(10240, 10240))
        _, log = run(scn, "sja", cfg, seed=1)
        spans = {}
        open_units = {}
        for r in log:
            if r["kind"] == "subjob_start":
                open_units[r["unit"]] = (r["slice"], r["t"])
            elif r["kind"] in ("subjob_end", "oom_kill", "failure_inject") and r.get("unit") in open_units:
                sl, t0 = open_units.pop(r["unit"])
                spans.setdefault(sl, []).append((t0, r["t"]))
        for sl, ivals in spans.items():
            ivals.sort()
            for (a0, a1), (b0, b1) in zip(ivals, ivals[1:]):
                assert a1 <= b0 + 1e-9

    @pytest.mark.parametrize("correction", [True, False], ids=["correction", "no_correction"])
    def test_oom_enforced_at_assigned_class(self, correction):
        # Actual demand 12 GB with declared 9.5 GB: subjobs sized at 10240
        # must be killed. With online correction the retry moves up a class;
        # without it every retry repeats 10240 until the strike limit.
        model = flat_model(1200.0, 12000.0, 0.0)
        ens = {"m": synth_ensemble(flat_model(1200.0, 9000.0, 100.0), 16, 0.0,
                                   seed=[5, 1], grid_step=H)}
        jobs = [JobSpec("liar", "t0", 0.0, 1200.0, 9500.0, checkpoint_size_mb=64.0,
                        generator=model, duration_jitter=0.0, ensemble_key="m")]
        scn = Scenario(jobs, ens, name="oom")
        cfg = SimConfig(gpus=1, slices_per_gpu=(20480, 10240), online_correction=correction)
        rpt, log = run(scn, "sja", cfg, seed=0)
        kills = [r for r in log if r["kind"] == "oom_kill"]
        assert kills, "expected at least one capacity kill"
        assert rpt.scalars()["oom_kills"] == len(kills)
        if correction:
            assert rpt.completed_jobs == 1  # correction re-plans at 20480
        else:
            assert [r["capacity_mb"] for r in kills] == [10240] * (cfg.max_oom_retries + 1)
            rejected = [r for r in log if r["kind"] == "job_rejected"]
            assert [r["reason"] for r in rejected] == ["out-of-memory retry budget exhausted"]
            assert rpt.completed_jobs == 0

    def test_injected_failure_rolls_back_to_checkpoint(self):
        scn = tiny_scenario(n_jobs=2)
        cfg = SimConfig(gpus=1, slices_per_gpu=(10240, 10240),
                        failure_rate_per_hour=6.0)
        rpt, log = run(scn, "sja", cfg, seed=11)
        fails = [r for r in log if r["kind"] == "failure_inject" and "unit" in r]
        assert rpt.scalars()["injected_failures"] == len(fails)
        for f in fails:
            assert f["lost_s"] <= f["planned_s"] + 1e-9

    def test_moldable_rejects_at_arrival_a_peak_no_slice_covers(self):
        # The catalog has a 40960 class, but no slice of this cluster is
        # that large, so the 30000 MB job is refused when it arrives.
        scn = tiny_scenario(n_jobs=2)
        scn.jobs[1] = dataclasses.replace(scn.jobs[1], declared_peak_mb=30000.0)
        cfg = SimConfig(gpus=1, slices_per_gpu=(20480, 10240))
        rpt, log = run(scn, "moldable", cfg, seed=0)
        rejected = [r for r in log if r["kind"] == "job_rejected"]
        assert rejected == [{"t": 120.0, "kind": "job_rejected", "job": "job-1",
                             "reason": "no capacity class covers the declared peak"}]
        assert all(r.get("job") != "job-1" for r in log if r["kind"] == "placement")
        assert rpt.rejection_rate == 0.5 and rpt.completed_jobs == 1


class TestPreemptMigrate:
    def test_one_round_preempts_a_different_victim_per_waiter(self):
        # Two low-priority jobs hold both slices; two higher-priority jobs
        # arrive together. The first waiter's victim is gone when the second
        # waiter looks, so the second must take the other slice's job.
        model = flat_model(3600.0, 8000.0)
        ens = {"m": synth_ensemble(model, 4, 0.0, seed=[1], grid_step=H)}
        jobs = [
            JobSpec(job_id, "t0", arrival, 3600.0, 9000.0, priority=prio,
                    generator=model, ensemble_key="m")
            for job_id, arrival, prio in (
                ("lo-a", 0.0, 0), ("lo-b", 0.0, 0), ("hi-a", 600.0, 2), ("hi-b", 600.0, 1)
            )
        ]
        cfg = SimConfig(gpus=1, slices_per_gpu=(10240, 10240))
        rpt, log = run(Scenario(jobs, ens), "preempt_migrate", cfg, seed=0)
        pre = [(r["t"], r["victim"], r["by"]) for r in log if r["kind"] == "preemption"]
        assert pre[:2] == [(600.0, "lo-a", "hi-a"), (600.0, "lo-b", "hi-b")]
        assert rpt.completed_jobs == 4

    def test_kill_queued_for_a_preempted_unit_is_dropped(self):
        # lo's actual run climbs past its 10240 MB slice at 1800 s, so its
        # unit starts with an oom_kill queued for then. hi preempts that unit
        # at 600 s; the queued kill then finds no unit and must log nothing.
        model = flat_model(3600.0, 8000.0)
        ens = {"m": synth_ensemble(model, 4, 0.0, seed=[1], grid_step=H)}
        jobs = [
            JobSpec(job_id, "t0", arrival, 3600.0, 9000.0, priority=prio, ensemble_key="m")
            for job_id, arrival, prio in (("lo", 0.0, 0), ("hi", 600.0, 1))
        ]
        lo_truth = np.full(61, 8000.0)
        lo_truth[30:] = 12000.0
        scn = Scenario(jobs, ens, truths={"lo": lo_truth, "hi": np.full(61, 8000.0)})
        cfg = SimConfig(gpus=1, slices_per_gpu=(10240,))
        rpt, log = run(scn, "preempt_migrate", cfg, seed=0)
        pre = [(r["t"], r["unit"], r["victim"]) for r in log if r["kind"] == "preemption"]
        assert pre == [(600.0, "lo-p0", "lo")]
        assert "lo-p0" not in {r["unit"] for r in log if r["kind"] == "oom_kill"}
        ends = [r["job"] for r in log if r["kind"] in ("job_completed", "job_rejected")]
        assert sorted(ends) == ["hi", "lo"]


class TestChainedGrants:
    def test_later_chain_continues_where_the_earlier_one_ends(self):
        scenario, cfg = SCENARIO_BUILDERS["fragmented"]()
        cfg = dataclasses.replace(cfg, max_concurrent_subjobs_per_job=2)
        _, log = run(scenario, "sja", cfg, seed=0)
        chains = {}  # (job, offer) -> that chain's subjob_created records
        live = {}  # unit -> (job, offer), until it ends, is killed or cancelled
        checked = 0
        for r in log:
            if r["kind"] == "subjob_created":
                key = (r["job"], r["offer"])
                held = {v for v in live.values() if v[0] == r["job"] and v != key}
                if held and key not in chains:
                    # A second offer's chain while the first still holds units.
                    earlier, = held
                    prev = chains[earlier]
                    assert r["pos_from_s"] == pytest.approx(max(c["pos_to_s"] for c in prev))
                    reserved_end = max(c["window_start"] + c["window_s"] for c in prev)
                    assert r["window_start"] >= reserved_end - 1e-6
                    checked += 1
                chains.setdefault(key, []).append(r)
                live[r["unit"]] = key
            elif r["kind"] in ("subjob_end", "oom_kill", "failure_inject", "subjob_cancelled"):
                live.pop(r.get("unit"), None)
        assert checked > 0

    def test_edf_screens_a_pipelined_bidder_at_its_resume_position(self):
        # job-0 runs 4800 s with a deadline at 4900 s; its first chain plans
        # [0, 1800). At t=600 the one slice offers [1800, 2400) to job-0
        # (pipelined) and job-1 (no deadline). Counted from its resume
        # position job-0 needs 3000 s of its 4300 s slack, so EDF picks it;
        # counted from its completed work (none yet) it needs 4800 s and
        # the screen would hand the offer to job-1.
        scn = tiny_scenario(n_jobs=2, work=4800.0, jitter=0.0)
        scn.jobs[0] = dataclasses.replace(scn.jobs[0], deadline_s=4900.0)
        scn.jobs[1] = dataclasses.replace(scn.jobs[1], arrival_s=600.0)
        cfg = SimConfig(gpus=1, slices_per_gpu=(10240,), max_concurrent_subjobs_per_job=2,
                        policy=GrantPolicy(kind="edf"))
        _, log = run(scn, "sja", cfg, seed=0)
        grants = [(r["t"], r["offer"], r["job"]) for r in log if r["kind"] == "grant"]
        bidders = {r["job"] for r in log if r["kind"] == "interest" and r["offer"] == grants[1][1]}
        assert grants[:2] == [(0.0, "offer-000000", "job-0"), (600.0, "offer-000001", "job-0")]
        assert bidders == {"job-0", "job-1"}
        first_chain_end = max(
            r["window_start"] + r["window_s"]
            for r in log if r["kind"] == "subjob_created" and r["offer"] == "offer-000000"
        )
        assert first_chain_end > 600.0


class TestMaxWait:
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_rejected_only_after_max_wait_and_never_started_after(self, scheduler):
        scenario, cfg = SCENARIO_BUILDERS["fragmented"]()
        cfg = dataclasses.replace(cfg, max_wait_s=1800.0)
        _, log = run(scenario, scheduler, cfg, seed=0)
        arrival = {j.job_id: j.arrival_s for j in scenario.jobs}
        rejected_at = {}
        for r in log:
            job = r.get("job")
            if r["kind"] == "job_rejected" and r["reason"] == "max queue wait exceeded":
                assert r["t"] - arrival[job] > cfg.max_wait_s
                rejected_at[job] = r["t"]
            elif r["kind"] in ("subjob_start", "placement"):
                assert job not in rejected_at, r
        assert rejected_at


class TestCompare:
    @pytest.mark.parametrize("values", [
        [], [math.nan], [3.5], [math.nan, 3.5, math.nan], [1.0, 2.0],
        [0.25, math.nan, 7.0, -1.5, math.nan, 1e6, 3.0],
    ])
    def test_mean_sd_skips_nan(self, values):
        clean = [v for v in values if not math.isnan(v)]
        mean, sd = mean_sd(values)
        if not clean:
            assert math.isnan(mean) and sd == 0.0
            return
        assert mean == pytest.approx(statistics.mean(clean), rel=1e-12)
        want_sd = statistics.stdev(clean) if len(clean) > 1 else 0.0
        assert sd == pytest.approx(want_sd, rel=1e-12)

    def test_table_shape_and_seed_sharing(self):
        scn = tiny_scenario(n_jobs=2)
        cfg = SimConfig(gpus=1, slices_per_gpu=(10240, 10240))
        result = compare(scn, ("sja", "first_fit"), cfg, seeds=(0, 1))
        tbl = result.table()
        assert set(tbl) == {"sja", "first_fit"}
        for sched in tbl:
            assert "used_utilization" in tbl[sched]
            mean, sd = tbl[sched]["completed_jobs"]
            assert mean == 2.0 and sd == 0.0


class TestLazyProfiles:
    """A profile summarizes its runs only when something reads a summary.
    Whole-job schedulers read runtime samples only, so after engine start-up
    they build no padded matrix and no column quantile, however many
    profiles their completions refresh."""

    @staticmethod
    def count_summaries(monkeypatch):
        calls = []
        quantiles, matrix = pf._column_quantiles, pf.TrajectoryEnsemble.padded_matrix
        monkeypatch.setattr(
            pf, "_column_quantiles", lambda *a: calls.append("quantiles") or quantiles(*a)
        )
        monkeypatch.setattr(
            pf.TrajectoryEnsemble, "padded_matrix",
            lambda self: calls.append("matrix") or matrix(self),
        )
        return calls

    @pytest.mark.parametrize("scheduler", ["first_fit", "best_fit", "moldable", "preempt_migrate"])
    def test_whole_job_runs_summarize_nothing(self, scheduler, monkeypatch):
        scenario, cfg = SCENARIO_BUILDERS["calibration"]()
        engine = _Engine(scenario, scheduler, cfg, 0)
        calls = self.count_summaries(monkeypatch)
        refreshes = []
        refresh = simcore.refresh_profile
        monkeypatch.setattr(
            simcore, "refresh_profile", lambda *a: refreshes.append(1) or refresh(*a)
        )
        report, _ = engine.run()
        assert len(refreshes) == report.completed_jobs > 0
        assert calls == []

    def test_sja_artifacts_match_eagerly_summarized_profiles(self, monkeypatch):
        scenario, cfg = SCENARIO_BUILDERS["calibration"]()
        calls = self.count_summaries(monkeypatch)
        report, log = run(scenario, "sja", cfg, 0)
        lazy = events_text(log), metrics_csv_text(report)
        assert "quantiles" in calls and "matrix" in calls  # sja does read them

        def eager(make):
            def summarized(*args):
                profile = make(*args)
                profile.support, profile.median_curve, profile.envelope(cfg.risk.eps)
                return profile
            return summarized

        monkeypatch.setattr(simcore, "build_profile", eager(simcore.build_profile))
        monkeypatch.setattr(simcore, "refresh_profile", eager(simcore.refresh_profile))
        report, log = run(scenario, "sja", cfg, 0)
        assert (events_text(log), metrics_csv_text(report)) == lazy


class TestParkedVerdicts:
    """The engine keeps unreachable edf verdicts across rounds, each with
    the profile it was screened on. A refresh drops every verdict parked on
    the profile it replaces, so no parked verdict keeps an old profile."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_a_refresh_drops_the_verdicts_parked_on_its_old_profile(self, seed, monkeypatch):
        scenario, cfg = SCENARIO_BUILDERS["deadline"]()
        engine = _Engine(scenario, "sja", cfg, seed)
        dropped = []
        complete = _Engine._complete

        def checked(self, job):
            before = len(self._parked)
            complete(self, job)
            dropped.append(before - len(self._parked))
            live = self.profiles.values()
            assert all(any(p is q for q in live) for p in self._parked.values())

        monkeypatch.setattr(_Engine, "_complete", checked)
        report, _ = engine.run()
        assert len(dropped) == report.completed_jobs
        assert sum(dropped) > 0 and engine._parked


class TestWinnerOnlyPlanning:
    """Offers are answered by interest verdicts: a window is planned in full
    only when a verdict's bounds leave it open or a job wins it. Counting
    plans needs no clock."""

    def test_deadline_plans_few_windows_and_keeps_its_log(self, monkeypatch):
        plans = []
        plan = segmentation._plan
        monkeypatch.setattr(segmentation, "_plan", lambda *a: plans.append(1) or plan(*a))
        scenario, cfg = SCENARIO_BUILDERS["deadline"]()
        assert _digest(scenario, "sja", cfg) == DIGESTS[("deadline", "sja")]
        # 328 at seed 0; planning every (offer, job) pair took 4,030.
        assert 0 < len(plans) <= 400
