"""Trajectory generation and scenario file round-trips."""
import math

import numpy as np
import pytest

from sjasim import profiles as pf
from sjasim import scenarios
from sjasim.scenarios import SCENARIO_BUILDERS
from sjasim.workload import (
    BURST,
    STEADY,
    WARMUP,
    JobSpec,
    Phase,
    PhaseModel,
    ScenarioError,
    SubJob,
    generate_trajectory,
    ingest_scenario,
    synth_ensemble,
    write_scenario,
)


def flat(duration_s, base_mb, noise=0.0):
    return PhaseModel(phases=(Phase(STEADY, duration_s, base_mb, noise),))


def mask_trajectory(model, duration_s, grid_step, seed):
    """generate_trajectory's reference: one boolean mask per phase picks its
    samples, the grid points in its half-open interval; the final grid
    point belongs to the last phase."""
    rng = np.random.default_rng(seed)
    n = int(round(duration_s / grid_step)) + 1
    t = np.arange(n) * grid_step
    scale = duration_s / model.total_duration_s
    bounds = np.cumsum([p.duration_s * scale for p in model.phases])
    starts = np.concatenate([[0.0], bounds[:-1]])
    out = np.empty(n)
    phase_idx = np.minimum(np.searchsorted(bounds, t, side="right"), len(model.phases) - 1)
    for k, phase in enumerate(model.phases):
        mask = phase_idx == k
        m = int(mask.sum())
        if m == 0:
            continue
        tk = t[mask]
        if phase.kind == WARMUP:
            local = (tk - starts[k]) / (phase.duration_s * scale)
            vals = phase.base_mb * local
        else:
            vals = np.full(m, phase.base_mb)
            if phase.noise_sd_mb > 0:
                vals = vals + rng.normal(0.0, phase.noise_sd_mb, size=m)
            if phase.kind == BURST and phase.burst_amp_mb > 0:
                vals = vals + phase.burst_amp_mb * (rng.random(m) < phase.burst_prob)
        out[mask] = vals
    return np.maximum(out, 0.0)


class TestGenerateTrajectory:
    def test_grid_length_includes_both_endpoints(self):
        run = generate_trajectory(flat(600, 1000.0), 600.0, 60.0, seed=1)
        assert len(run) == 11  # 600 s span on a 60 s grid -> 11 samples

    def test_noiseless_steady_is_constant(self):
        run = generate_trajectory(flat(600, 1234.5), 600.0, 60.0, seed=1)
        assert np.all(run == 1234.5)

    def test_warmup_ramps_linearly_to_base(self):
        model = PhaseModel(phases=(Phase(WARMUP, 300, 9000.0), Phase(STEADY, 300, 9000.0)))
        run = generate_trajectory(model, 600.0, 60.0, seed=1)
        # Ramp hits base at the warmup boundary (sample 5), flat afterwards.
        assert run[0] == 0.0
        assert run[2] == pytest.approx(9000.0 * 120.0 / 300.0)
        assert np.all(run[5:] == 9000.0)

    def test_jittered_duration_rescales_phases(self):
        model = PhaseModel(phases=(Phase(WARMUP, 300, 8000.0), Phase(STEADY, 900, 8000.0)))
        run = generate_trajectory(model, 600.0, 60.0, seed=1)  # half nominal span
        # Warmup now covers the first quarter: 150 s -> 2.5 grid steps.
        assert run[1] < 8000.0
        assert np.all(run[3:] == 8000.0)

    def test_same_seed_same_run(self):
        model = flat(600, 1000.0, noise=50.0)
        a = generate_trajectory(model, 600.0, 60.0, seed=42)
        b = generate_trajectory(model, 600.0, 60.0, seed=42)
        c = generate_trajectory(model, 600.0, 60.0, seed=43)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_burst_adds_amplitude_with_given_probability(self):
        model = PhaseModel(phases=(Phase(BURST, 60000, 1000.0, 0.0, 500.0, 0.25),))
        run = generate_trajectory(model, 60000.0, 60.0, seed=3)
        assert set(np.unique(run)) == {1000.0, 1500.0}
        frac = float(np.mean(run == 1500.0))
        assert 0.20 < frac < 0.30  # ~1000 samples, p=0.25

    def test_demand_never_negative(self):
        run = generate_trajectory(flat(6000, 10.0, noise=500.0), 6000.0, 60.0, seed=5)
        assert np.all(run >= 0.0)

    def test_phase_slices_equal_the_mask_reference(self, monkeypatch):
        # Every bundled phase model, at 300 durations each, on the 60 s grid
        # and on a 7 s one, whose points fall between phase bounds.
        models, make = [], scenarios._model

        def recorded(*phases):
            models.append(make(*phases))
            return models[-1]

        monkeypatch.setattr(scenarios, "_model", recorded)
        for build in SCENARIO_BUILDERS.values():
            build()
        models = list(dict.fromkeys(models))
        assert len(models) == 21
        for i, model in enumerate(models):
            for duration in model.total_duration_s * np.linspace(0.25, 1.75, 300):
                for step in (60.0, 7.0):
                    seed = [i, int(duration)]
                    assert np.array_equal(generate_trajectory(model, duration, step, seed),
                                          mask_trajectory(model, duration, step, seed))

    def test_validation(self):
        with pytest.raises(ScenarioError):
            Phase("mystery", 60, 100.0)
        with pytest.raises(ScenarioError):
            Phase(STEADY, 0, 100.0)
        with pytest.raises(ScenarioError):
            PhaseModel(phases=())
        with pytest.raises(ScenarioError):
            generate_trajectory(flat(60, 1.0), 0.0, 60.0, seed=1)


class TestSynthEnsemble:
    def test_runs_and_jitter_bounds(self):
        model = flat(1200, 2000.0)
        ens = synth_ensemble(model, 40, 0.10, seed=9)
        assert len(ens.runs) == 40
        durations = [(len(r) - 1) * ens.grid_step for r in ens.runs]
        assert min(durations) >= 1200 * 0.9 - ens.grid_step
        assert max(durations) <= 1200 * 1.1 + ens.grid_step
        assert len(set(durations)) > 1  # jitter actually moves durations

    def test_deterministic_per_seed(self):
        model = flat(600, 800.0, noise=30.0)
        a = synth_ensemble(model, 8, 0.05, seed=[1, 2])
        b = synth_ensemble(model, 8, 0.05, seed=[1, 2])
        assert all(np.array_equal(x, y) for x, y in zip(a.runs, b.runs))

    def test_needs_two_runs(self):
        with pytest.raises(ScenarioError):
            synth_ensemble(flat(600, 800.0), 1, 0.0, seed=1)


class TestJobSpecValidation:
    def test_rejects_bad_fields(self):
        ok = dict(job_id="j", tenant_id="t", arrival_s=0.0, total_work_s=60.0,
                  declared_peak_mb=100.0)
        JobSpec(**ok)
        for patch in (
            {"arrival_s": -1.0},
            {"total_work_s": 0.0},
            {"declared_peak_mb": 0.0},
            {"priority": -2},
            {"checkpoint_size_mb": -1.0},
        ):
            with pytest.raises(ScenarioError):
                JobSpec(**{**ok, **patch})

    @pytest.mark.parametrize(
        "name", ["arrival_s", "total_work_s", "declared_peak_mb", "checkpoint_size_mb"]
    )
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_rejects_non_finite(self, name, value):
        ok = dict(job_id="j", tenant_id="t", arrival_s=0.0, total_work_s=60.0,
                  declared_peak_mb=100.0)
        with pytest.raises(ScenarioError, match=name):
            JobSpec(**{**ok, name: value})

    def test_deadline_and_jitter_domains(self):
        ok = dict(job_id="j", tenant_id="t", arrival_s=0.0, total_work_s=60.0,
                  declared_peak_mb=100.0)
        assert JobSpec(**ok, deadline_s=math.inf).deadline_s == math.inf
        with pytest.raises(ScenarioError, match="deadline"):
            JobSpec(**ok, deadline_s=math.nan)
        assert JobSpec(**ok, duration_jitter=0.0).duration_jitter == 0.0
        for jitter in (-0.1, 1.0, math.nan):
            with pytest.raises(ScenarioError, match="duration_jitter"):
                JobSpec(**ok, duration_jitter=jitter)


class TestSubJobValidation:
    def test_work_segment_and_peak_checked(self):
        ok = dict(subjob_id="j-s0", job_id="j", slice_id="g0s0",
                  physical_capacity_mb=20480, slice_capacity_mb=10240,
                  window_start_s=0.0, window_duration_s=600.0,
                  pos_from_s=0.0, pos_to_s=600.0, work_from=0.0, work_to=0.5,
                  predicted_peak_mb=9000.0)
        assert SubJob(**ok).reserved_end_s == 600.0
        for patch in ({"work_to": 0.0}, {"work_from": 0.6}, {"work_to": 1.5},
                      {"predicted_peak_mb": 12000.0}):
            with pytest.raises(ScenarioError):
                SubJob(**{**ok, **patch})


class TestScenarioFiles:
    def _stage(self, tmp_path):
        ens = synth_ensemble(flat(600, 900.0, noise=20.0), 6, 0.05, seed=4)
        pf.write_ensemble(tmp_path / "ens", ens)
        jobs = [
            JobSpec("a", "t0", 0.0, 600.0, 1000.0, priority=2,
                    checkpoint_size_mb=64.0, ensemble_key="ens/manifest.txt"),
            JobSpec("b", "t1", 30.0, 600.0, 1000.0, deadline_s=4000.0,
                    atomizable=False, ensemble_key="ens/manifest.txt"),
        ]
        manifests = {j.job_id: "ens/manifest.txt" for j in jobs}
        return ens, jobs, manifests

    def test_round_trip(self, tmp_path):
        ens, jobs, manifests = self._stage(tmp_path)
        write_scenario(tmp_path / "scn.csv", jobs, manifests)
        got, ensembles, truths = ingest_scenario(tmp_path / "scn.csv")
        assert [j.job_id for j in got] == ["a", "b"]
        assert got[0].priority == 2 and got[0].checkpoint_size_mb == 64.0
        assert got[1].deadline_s == 4000.0 and not got[1].atomizable
        assert got[0].deadline_s is None
        assert truths == {}
        # both rows share one ensemble object
        assert got[0].ensemble_key == got[1].ensemble_key
        ens_back = ensembles[got[0].ensemble_key]
        assert len(ens_back.runs) == 6

    def test_truth_column_round_trip(self, tmp_path):
        ens, jobs, manifests = self._stage(tmp_path)
        truth = np.array([900.0, 910.0, 890.0, 900.0])
        pf.write_trajectory(tmp_path / "truth_a.csv", truth, 60.0)
        write_scenario(tmp_path / "scn.csv", jobs, manifests,
                       truth_paths={"a": "truth_a.csv"})
        got, _, truths = ingest_scenario(tmp_path / "scn.csv")
        assert set(truths) == {"a"}
        assert np.allclose(truths["a"], truth)

    def test_truth_file_of_several_runs_names_the_scenario_line(self, tmp_path):
        # An exported runs.csv holds the whole ensemble; it is no ground truth.
        ens, jobs, manifests = self._stage(tmp_path)
        write_scenario(tmp_path / "scn.csv", jobs, manifests,
                       truth_paths={"b": "ens/runs.csv"})
        with pytest.raises(ScenarioError) as err:
            ingest_scenario(tmp_path / "scn.csv")
        assert err.value.line == 3
        runs_csv = tmp_path / "ens" / "runs.csv"
        assert str(err.value) == f"line 3: {runs_csv}: holds 6 runs, expected one"

    def test_absolute_manifest_and_truth_paths(self, tmp_path):
        ens, jobs, manifests = self._stage(tmp_path)
        pf.write_trajectory(tmp_path / "truth_a.csv", [900.0, 910.0], 60.0)
        manifests = dict.fromkeys(manifests, str(tmp_path / "ens" / "manifest.txt"))
        (tmp_path / "elsewhere").mkdir()
        write_scenario(tmp_path / "elsewhere" / "scn.csv", jobs, manifests,
                       truth_paths={"a": str(tmp_path / "truth_a.csv")})
        got, ensembles, truths = ingest_scenario(tmp_path / "elsewhere" / "scn.csv")
        assert [len(e.runs) for e in ensembles.values()] == [6]
        assert truths["a"].tolist() == [900.0, 910.0]

    def test_malformed_rows_carry_line_numbers(self, tmp_path):
        ens, jobs, manifests = self._stage(tmp_path)
        write_scenario(tmp_path / "scn.csv", jobs, manifests)
        lines = (tmp_path / "scn.csv").read_text().splitlines()

        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join([lines[0], lines[1].replace(",2,", ",two,")]) + "\n")
        with pytest.raises(ScenarioError, match="line 2"):
            ingest_scenario(bad)

        dup = tmp_path / "dup.csv"
        dup.write_text("\n".join([lines[0], lines[1], lines[1]]) + "\n")
        with pytest.raises(ScenarioError, match="duplicate job id"):
            ingest_scenario(dup)

        hdr = tmp_path / "hdr.csv"
        hdr.write_text("who,what\n")
        with pytest.raises(ScenarioError, match="bad header"):
            ingest_scenario(hdr)

    @pytest.mark.parametrize("sample", ["nan", "inf", "-5"])
    def test_bad_truth_sample_rejected_with_line_number(self, tmp_path, sample):
        # Truth runs get the sample check every ensemble run gets.
        ens, jobs, manifests = self._stage(tmp_path)
        (tmp_path / "truth_b.csv").write_text(f"time_s,mem_mb\n0,900\n60,{sample}\n")
        write_scenario(tmp_path / "scn.csv", jobs, manifests, truth_paths={"b": "truth_b.csv"})
        with pytest.raises(ScenarioError, match="line 3: ground-truth run truth_b.csv has "
                                                "negative or non-finite samples") as err:
            ingest_scenario(tmp_path / "scn.csv")
        assert err.value.line == 3

    def test_nan_arrival_rejected_with_line_number(self, tmp_path):
        # A nan arrival used to pass, and the run timed out a simulated week later.
        ens, jobs, manifests = self._stage(tmp_path)
        write_scenario(tmp_path / "scn.csv", jobs, manifests)
        lines = (tmp_path / "scn.csv").read_text().splitlines()
        assert lines[2].startswith("b,t1,30,")
        lines[2] = lines[2].replace("b,t1,30,", "b,t1,nan,")
        (tmp_path / "nan.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(ScenarioError, match="line 3: b: arrival_s must be finite") as err:
            ingest_scenario(tmp_path / "nan.csv")
        assert err.value.line == 3

    def test_comments_and_blanks_skipped(self, tmp_path):
        ens, jobs, manifests = self._stage(tmp_path)
        write_scenario(tmp_path / "scn.csv", jobs, manifests)
        text = (tmp_path / "scn.csv").read_text().splitlines()
        text.insert(1, "# commentary")
        text.insert(2, "")
        (tmp_path / "scn2.csv").write_text("\n".join(text) + "\n")
        got, _, _ = ingest_scenario(tmp_path / "scn2.csv")
        assert [j.job_id for j in got] == ["a", "b"]

    def test_missing_manifest_rejected(self, tmp_path):
        ens, jobs, manifests = self._stage(tmp_path)
        manifests["a"] = manifests["b"] = "nowhere/manifest.txt"
        write_scenario(tmp_path / "scn.csv", jobs, manifests)
        with pytest.raises(ScenarioError, match="manifest not found"):
            ingest_scenario(tmp_path / "scn.csv")
