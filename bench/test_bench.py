"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py -q

The traced test runs deadline-edf seed 0 twice (about a minute on two
cores); the rest take seconds.
"""
from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402  (first: it puts the checkout's src/ on the path)
import checks  # noqa: E402
import tracer as tracer_mod  # noqa: E402

import sjasim  # noqa: E402
import sjasim.cli  # noqa: E402
from sjasim.scenarios import make_calibration_scenario, make_smoke_scenario  # noqa: E402


@pytest.fixture(scope="module")
def deadline_traces():
    wl = bench.WORKLOADS["deadline-edf"]
    return [bench.benchmark(wl, seed=0, seconds=1, trace=True) for _ in range(2)]


def test_traced_counts_repeat_exactly(deadline_traces):
    (_, first), (_, second) = deadline_traces
    counts = [
        {k: v["value"] for k, v in r["metrics"].items() if v["unit"] != "s"}
        for r in (first, second)
    ]
    assert counts[0] == counts[1]
    c = counts[0]
    assert c["protocol.offers"] == 9584
    assert c["segmentation.plan_segments.calls"] == 56592
    assert c["profiles.memory_admissible.calls"] == 148560
    assert c["simcore.events"] == 76742
    assert c["simcore.offer_chatter"] == 75406
    assert c["trace.missing_hooks"] == 0
    assert first["correct"] and first["failed"] == 0


def test_self_times_add_up_to_traced_wall(deadline_traces):
    env, result = deadline_traces[0]
    m = {k: v["value"] for k, v in result["metrics"].items()}
    own = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert math.isclose(own + m["trace.unattributed_s"], m["trace.wall_s"], rel_tol=1e-9)
    assert 0 <= m["trace.unattributed_s"] < 0.01 * m["trace.wall_s"]


def test_metric_names_match_benchmark_json(deadline_traces):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    _, traced = deadline_traces[0]
    assert [m["name"] for m in spec["per_layer"]] == list(traced["metrics"])
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert units == {k: v["unit"] for k, v in traced["metrics"].items()}
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    _, plain = bench.benchmark(bench.WORKLOADS["whole-job"], seed=0, seconds=0.1, trace=False)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: v["unit"] for k, v in plain["metrics"].items()
    }
    assert plain["correct"] and plain["attempted"] >= 4


def test_cli_flags_resolve_to_the_builder_config(monkeypatch, tmp_path):
    seen = []
    monkeypatch.setattr(sjasim.cli, "cmd_run", lambda cfg: seen.append(cfg) or 0)
    base = ["run", "--scenario", str(tmp_path / "scenario.csv"), "--out", str(tmp_path)]
    assert sjasim.cli.main(base + list(bench.CLI_FLAGS)) == 0
    assert sjasim.cli.main(base) == 0
    _, builder_cfg = make_calibration_scenario()
    assert seen[0].to_sim_config() == builder_cfg
    assert seen[1].to_sim_config() != builder_cfg  # the pitfall: defaults differ


def test_log_checks_catch_each_violation():
    scenario, cfg = make_smoke_scenario()
    report, log = sjasim.run(scenario, "sja", cfg, 0)
    ids = [job.job_id for job in scenario.jobs]
    assert checks.log_violations(log, ids, "sja", False) == []

    def broken(mutate):
        bad = copy.deepcopy(log)
        mutate(bad)
        return checks.log_violations(bad, ids, "sja", False)

    end = next(r for r in log if r["kind"] == "job_completed")
    assert broken(lambda b: b.append(dict(end)))  # a job ends twice
    assert broken(lambda b: b.remove(next(r for r in b if r["kind"] == "job_completed")))
    assert broken(lambda b: b.remove(next(r for r in b if r["kind"] == "grant")))
    assert broken(lambda b: b.append({"t": 1.0, "kind": "preemption", "unit": "u",
                                      "victim": ids[0], "by": ids[1]}))

    def overlap(b):
        starts = [r for r in b if r["kind"] == "subjob_start"]
        first = starts[0]
        ends = [r for r in b if r.get("unit") == first["unit"] and r["kind"] == "subjob_end"]
        b.append({"t": first["t"], "kind": "subjob_start", "unit": "intruder",
                  "slice": first["slice"]})
        b.append({"t": ends[0]["t"], "kind": "subjob_end", "unit": "intruder"})

    assert any("overlap" in p for p in broken(overlap))


def test_digest_mismatch_is_a_violation():
    refs = {"w": {"3": {"sja": {"events": "a", "metrics": "b"}}}}
    assert checks.digest_violations(refs, "w", 3, "sja", {"events": "a", "metrics": "b"}) == []
    assert checks.digest_violations(refs, "w", 3, "sja", {"events": "x", "metrics": "b"})
    assert checks.digest_violations(refs, "w", 4, "sja", {"events": "x"}) == []


def test_missing_hook_is_reported_not_fatal(monkeypatch):
    hooks = tracer_mod.HOOKS + [("sjasim.simcore", "moved_away", "simcore.run")]
    monkeypatch.setattr(tracer_mod, "HOOKS", hooks)
    t = tracer_mod.Tracer()
    scenario, cfg = make_smoke_scenario()
    t.install()
    try:
        sjasim.run(scenario, "first_fit", cfg, 0)
    finally:
        t.uninstall()
    assert t.missing == ["sjasim.simcore.moved_away"]
    assert tracer_mod.layer_totals(t.spans())["simcore.run"]["calls"] == 1
    assert not hasattr(sjasim.run, "__wrapped__")  # hooks are removed again


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "whole-job", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
