"""Command-line behavior: artifact layout, rerun identity, error paths."""
import dataclasses
import json

import numpy as np
import pytest

from sjasim.cli import OUTPUT_ROOT_ENV, events_text, main, metrics_csv_text
from sjasim.cluster import SliceCatalog
from sjasim.scenarios import export_scenario, make_deadline_scenario
from sjasim.simcore import Scenario, SimConfig, run
from sjasim.workload import JobSpec, Phase, PhaseModel, synth_ensemble

H = 60.0


def tiny_scenario(n_jobs=2):
    model = PhaseModel(phases=(Phase("steady", 1200.0, 8000.0, 150.0),))
    ens = {"m": synth_ensemble(model, 16, 0.05, seed=[5, 0], grid_step=H)}
    jobs = [
        JobSpec(f"job-{k}", f"t{k % 2}", 120.0 * k, 1200.0, 9500.0,
                checkpoint_size_mb=128.0, atomizable=True,
                generator=model, duration_jitter=0.05, ensemble_key="m")
        for k in range(n_jobs)
    ]
    return Scenario(jobs, ens, name="tiny")


@pytest.fixture(scope="module")
def scenario_file(tmp_path_factory):
    root = tmp_path_factory.mktemp("scn")
    return export_scenario(tiny_scenario(), root)


class TestRun:
    def test_artifact_layout(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        rc = main(["run", "--scenario", str(scenario_file),
                   "--out", str(out), "--seed", "3"])
        assert rc == 0
        assert (out / "config.txt").is_file()
        sd = out / "seed_0003"
        for name in ("events.jsonl", "metrics.csv", "metrics.txt", "per_job.csv"):
            assert (sd / name).is_file()

    def test_events_are_json_lines(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        main(["run", "--scenario", str(scenario_file), "--out", str(out)])
        lines = (out / "seed_0000" / "events.jsonl").read_text().splitlines()
        assert lines
        for line in lines:
            rec = json.loads(line)
            assert "t" in rec and "kind" in rec

    def test_metrics_csv_matches_direct_run(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        main(["run", "--scenario", str(scenario_file), "--out", str(out),
              "--seed", "7"])
        rows = (out / "seed_0007" / "metrics.csv").read_text().splitlines()
        assert rows[0] == "metric,value"
        got = dict(r.split(",") for r in rows[1:])
        report, _ = run(Scenario.from_file(scenario_file), "sja",
                        SimConfig(), seed=7)
        want = report.scalars()
        assert set(got) == set(want)
        assert got["completed_jobs"] == format(want["completed_jobs"], ".10g")

    def test_per_job_rows_cover_completed_jobs(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        main(["run", "--scenario", str(scenario_file), "--out", str(out)])
        per_job = (out / "seed_0000" / "per_job.csv").read_text().splitlines()
        assert per_job[0] == "job_id,finish_s,reexecuted_s"
        metrics = dict(
            r.split(",")
            for r in (out / "seed_0000" / "metrics.csv").read_text().splitlines()[1:]
        )
        assert len(per_job) - 1 == int(float(metrics["completed_jobs"]))

    def test_events_refuse_numpy_scalars(self):
        # The engine logs Python scalars only; a numpy one fails loudly
        # instead of being converted behind the log's back.
        with pytest.raises(TypeError):
            events_text([{"t": 0.0, "kind": "grant", "offer": "offer-000000",
                          "job": "job-0", "cost_tokens": np.int64(3)}])

    def test_numpy_capacities_give_the_int_artifacts(self):
        # Capacities become ints when the config is built, so a catalog and
        # layout from numpy arrays log and score exactly as plain ints do.
        scn, cfg = make_deadline_scenario(25)
        np_cfg = dataclasses.replace(
            cfg,
            catalog=SliceCatalog(tuple(np.array(cfg.catalog.capacities_mb))),
            slices_per_gpu=tuple(np.array(cfg.slices_per_gpu)),
        )
        want, got = run(scn, "sja", cfg, seed=0), run(scn, "sja", np_cfg, seed=0)
        assert events_text(got[1]) == events_text(want[1])
        assert metrics_csv_text(got[0]) == metrics_csv_text(want[0])

    def test_float_layout_capacity_rejected_at_construction(self):
        with pytest.raises(ValueError, match="integers"):
            SimConfig(slices_per_gpu=(20480.0, 10240))

    def test_rerun_writes_identical_bytes(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        args = ["run", "--scenario", str(scenario_file),
                "--out", str(out), "--seed", "1,2"]
        rels = ("config.txt", "seed_0001/events.jsonl",
                "seed_0002/events.jsonl", "seed_0001/metrics.csv")
        main(args)
        first = {rel: (out / rel).read_bytes() for rel in rels}
        main(args)
        for rel in rels:
            assert (out / rel).read_bytes() == first[rel]

    def test_multiple_seeds_make_multiple_dirs(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        main(["run", "--scenario", str(scenario_file), "--out", str(out),
              "--seeds", "0,5"])
        assert (out / "seed_0000").is_dir()
        assert (out / "seed_0005").is_dir()

    def test_output_root_env_is_default(self, scenario_file, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path / "artifacts"))
        rc = main(["run", "--scenario", str(scenario_file)])
        assert rc == 0
        assert (tmp_path / "artifacts" / "run" / "config.txt").is_file()


class TestOverrides:
    def test_flag_beats_config_file(self, scenario_file, tmp_path):
        cfg = tmp_path / "knobs.cfg"
        cfg.write_text("risk.eps = 0.1\n")
        out = tmp_path / "out"
        main(["run", "--scenario", str(scenario_file), "--config", str(cfg),
              "--out", str(out), "--eps", "0.2"])
        assert "risk.eps = 0.2\n" in (out / "config.txt").read_text()

    def test_budget_and_speedup_echoed(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        main(["run", "--scenario", str(scenario_file), "--out", str(out),
              "--policy", "fair_tokens", "--budget", "t0=500",
              "--budget", "t1=250", "--speedup", "20480=0.9"])
        echo = (out / "config.txt").read_text()
        assert "policy.budget.t0 = 500.0\n" in echo
        assert "policy.budget.t1 = 250.0\n" in echo
        assert "baseline.speedup.20480 = 0.9\n" in echo

    def test_bad_budget_item_exits_2(self, scenario_file, capsys):
        rc = main(["run", "--scenario", str(scenario_file), "--budget", "t0"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_online_correction_off_resolves_false(self, monkeypatch):
        import sjasim.cli

        seen = []
        monkeypatch.setattr(sjasim.cli, "cmd_run", lambda cfg: seen.append(cfg) or 0)
        assert main(["run", "--scenario", "s.csv", "--online-correction", "off"]) == 0
        assert seen[0].to_sim_config().online_correction is False

    def test_online_correction_bad_value_exits_2(self, scenario_file, capsys):
        rc = main(["run", "--scenario", str(scenario_file), "--online-correction", "mostly"])
        assert rc == 2
        assert "not a boolean" in capsys.readouterr().err

    def test_offer_ttl_flag_is_gone(self, scenario_file):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--scenario", str(scenario_file), "--offer-ttl", "30"])
        assert exc.value.code == 2


class TestErrorPaths:
    def test_eps_out_of_range_exits_2(self, scenario_file, capsys):
        rc = main(["run", "--scenario", str(scenario_file), "--eps", "1.5"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_scenario_exits_2(self, capsys):
        rc = main(["run", "--seed", "0"])
        assert rc == 2
        assert "scenario" in capsys.readouterr().err

    def test_nonexistent_scenario_exits_2(self, tmp_path, capsys):
        rc = main(["run", "--scenario", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "not found" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "flags",
        [("--gpus", "0"), ("--gpus", "-1"), ("--slices-per-gpu", "3000"),
         ("--single-run-inflation", "0.5")],
    )
    def test_bad_layout_or_inflation_exits_2_before_writing(
        self, scenario_file, tmp_path, capsys, flags
    ):
        out = tmp_path / "out"
        rc = main(["run", "--scenario", str(scenario_file), "--out", str(out), *flags])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [("--scheduler", "moldable", "--speedup", "5120=inf"), ("--cost-rate", "inf")],
    )
    def test_non_finite_policy_or_baseline_value_exits_2_before_writing(
        self, scenario_file, tmp_path, capsys, flags
    ):
        out = tmp_path / "out"
        rc = main(["run", "--scenario", str(scenario_file), "--out", str(out), *flags])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


class TestValidate:
    def test_reports_counts(self, scenario_file, capsys):
        rc = main(["validate", "--scenario", str(scenario_file)])
        assert rc == 0
        text = capsys.readouterr().out
        assert ": ok" in text
        assert "jobs            2" in text
        assert "ensemble" in text

    def test_missing_file_exits_2(self, tmp_path, capsys):
        rc = main(["validate", "--scenario", str(tmp_path / "nope.csv")])
        assert rc == 2
        assert "not found" in capsys.readouterr().err


class TestCompare:
    def test_writes_table_for_each_scheduler(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        rc = main(["compare", "--scenario", str(scenario_file),
                   "--out", str(out), "--schedulers", "sja,first-fit"])
        assert rc == 0
        rows = (out / "compare.csv").read_text().splitlines()
        assert rows[0] == "scheduler,metric,mean,sd"
        names = {r.split(",")[0] for r in rows[1:]}
        assert names == {"sja", "first_fit"}
        assert (out / "compare.txt").is_file()

    def test_single_scheduler_exits_2(self, scenario_file, capsys):
        rc = main(["compare", "--scenario", str(scenario_file),
                   "--schedulers", "sja"])
        assert rc == 2
        assert "at least two" in capsys.readouterr().err

    def test_duplicate_schedulers_exit_2(self, scenario_file, capsys):
        rc = main(["compare", "--scenario", str(scenario_file),
                   "--schedulers", "sja,sja"])
        assert rc == 2
        assert "distinct" in capsys.readouterr().err


class TestSweep:
    def test_axis_values_produce_tables(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        rc = main(["sweep", "--scenario", str(scenario_file),
                   "--out", str(out), "--axis", "eps",
                   "--values", "0.05,0.2"])
        assert rc == 0
        runs = (out / "sweep_runs.csv").read_text().splitlines()
        table = (out / "sweep.csv").read_text().splitlines()
        assert runs[0] == "axis,value,seed,metric,run_value"
        assert table[0] == "axis,value,metric,mean,sd"
        n_metrics = (len(table) - 1) // 2
        assert len(table) - 1 == 2 * n_metrics
        assert len(runs) - 1 == 2 * n_metrics  # one seed
        assert (out / "eps_0.05" / "seed_0000" / "events.jsonl").is_file()
        assert (out / "eps_0.2" / "seed_0000" / "events.jsonl").is_file()

    def test_empty_values_exit_2(self, scenario_file, capsys):
        rc = main(["sweep", "--scenario", str(scenario_file),
                   "--axis", "eps", "--values", " , "])
        assert rc == 2
        assert "at least one value" in capsys.readouterr().err
