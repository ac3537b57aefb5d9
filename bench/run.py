"""sjasim benchmark: host time and memory of whole simulations, per workload.

Run from the root of a checkout:

    python3 bench/run.py --workload deadline-edf --seed 0 --seconds 30 --trace 0

Each workload builds its inputs once per set-up (timed as `setup_s`), then
runs simulations one after another in a single thread, a closed loop, until
`--seconds` of run time have passed. The workload seed picks the simulation
seeds: pass i runs simulation seed `seed + i`. Every run's output is checked
outside the timed region (see checks.py); a run that raises or fails a
check counts as failed.

`--trace 0` prints the end-to-end metrics. `--trace 1` runs a fixed list of
passes twice each, untraced and then traced through the hooks in tracer.py,
and prints the per-layer metrics; the pass list is fixed so that its counts
repeat exactly. The last stdout line is the result object; the line before
it records the environment. Both, and the spans of a traced run, are also
written under `.bench_out/`.
"""
from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

if not (SRC / "sjasim" / "__init__.py").is_file():
    sys.exit(f"error: no sjasim package under {SRC}; run from the root of a full checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import sjasim  # noqa: E402
import sjasim.cli  # noqa: E402
from sjasim.scenarios import (  # noqa: E402
    export_scenario,
    make_calibration_scenario,
    make_deadline_scenario,
)

import checks  # noqa: E402
from tracer import LAYERS, Tracer, layer_totals  # noqa: E402

# Without --gpus and --tau-max the CLI runs SimConfig defaults (1 GPU,
# 3600 s fragments): a different simulation, about nine times longer. With
# them the resolved config equals make_calibration_scenario()'s own.
CLI_FLAGS = ("--scheduler", "sja", "--gpus", "2", "--tau-max", "900")
WHOLE_JOB_SCHEDULERS = ("first_fit", "best_fit", "moldable", "preempt_migrate")
OFFER_CHATTER = frozenset({"offer_issued", "interest", "decline", "offer_expire"})


@dataclass
class Inputs:
    scenario: sjasim.Scenario
    cfg: sjasim.SimConfig
    build_s: float
    scenario_csv: Path | None = None


@dataclass
class RunOutput:
    label: str
    log: list[dict]
    digests: dict[str, str]
    artifact_bytes: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    runs_per_pass: int
    setup_repeats: int
    trace_passes: int
    setup: Callable[[Path], Inputs]
    run_pass: Callable[[Inputs, int, Path], object]
    outputs: Callable[[Inputs, object, int], list[RunOutput]]


def _built(builder, *args) -> Inputs:
    t0 = time.perf_counter()
    scenario, cfg = builder(*args)
    return Inputs(scenario, cfg, time.perf_counter() - t0)


def _in_memory(schedulers: tuple[str, ...]):
    def run_pass(inputs: Inputs, sim_seed: int, work: Path):
        # Looked up on the module at call time, so a traced pass sees the hook.
        return [(s, *sjasim.run(inputs.scenario, s, inputs.cfg, sim_seed)) for s in schedulers]

    return run_pass


def _in_memory_outputs(inputs: Inputs, raw, sim_seed: int) -> list[RunOutput]:
    return [
        RunOutput(label, log, checks.in_memory_digests(report, log))
        for label, report, log in raw
    ]


def _setup_cli(work: Path) -> Inputs:
    inputs = _built(make_calibration_scenario)
    inputs.scenario_csv = export_scenario(inputs.scenario, work)
    return inputs


def _run_cli(inputs: Inputs, sim_seed: int, work: Path):
    out = work / f"run-{sim_seed}"
    argv = ["run", "--scenario", str(inputs.scenario_csv), *CLI_FLAGS,
            "--seeds", str(sim_seed), "--out", str(out)]
    with redirect_stdout(io.StringIO()):
        code = sjasim.cli.main(argv)
    return code, out


def _cli_outputs(inputs: Inputs, raw, sim_seed: int) -> list[RunOutput]:
    code, out = raw
    try:
        if code != 0:
            raise RuntimeError(f"sjasim run exited with code {code}")
        (seed_dir,) = out.glob("seed_*")
        events = (seed_dir / "events.jsonl").read_bytes()
        metrics = (seed_dir / "metrics.csv").read_bytes()
        size = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    finally:
        shutil.rmtree(out, ignore_errors=True)
    log = [json.loads(line) for line in events.splitlines()]
    digests = {"events": checks.sha256(events), "metrics": checks.sha256(metrics)}
    return [RunOutput("sja", log, digests, size)]


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "deadline-edf",
            runs_per_pass=1,
            setup_repeats=21,
            trace_passes=1,
            setup=lambda work: _built(make_deadline_scenario, 100),
            run_pass=_in_memory(("sja",)),
            outputs=_in_memory_outputs,
        ),
        Workload(
            "calibration-cli",
            runs_per_pass=1,
            setup_repeats=5,
            trace_passes=6,
            setup=_setup_cli,
            run_pass=_run_cli,
            outputs=_cli_outputs,
        ),
        Workload(
            "whole-job",
            runs_per_pass=len(WHOLE_JOB_SCHEDULERS),
            setup_repeats=21,
            trace_passes=10,
            setup=lambda work: _built(make_calibration_scenario),
            run_pass=_in_memory(WHOLE_JOB_SCHEDULERS),
            outputs=_in_memory_outputs,
        ),
    )
}


@dataclass
class Tally:
    """Runs attempted and failed, plus what the checked outputs contained."""

    attempted: int = 0
    failed: int = 0
    events: int = 0
    offer_chatter: int = 0
    artifact_bytes: int = 0
    referenced: set = field(default_factory=set)

    def record(self, outputs: list[RunOutput], inputs: Inputs, wl: str, sim_seed: int,
               references: dict) -> None:
        job_ids = [job.job_id for job in inputs.scenario.jobs]
        injected = inputs.cfg.failure_rate_per_hour > 0
        for out in outputs:
            self.attempted += 1
            self.events += len(out.log)
            self.offer_chatter += sum(1 for rec in out.log if rec["kind"] in OFFER_CHATTER)
            self.artifact_bytes += out.artifact_bytes
            problems = checks.log_violations(out.log, job_ids, out.label, injected)
            problems += checks.digest_violations(references, wl, sim_seed, out.label, out.digests)
            if str(sim_seed) in references.get(wl, {}):
                self.referenced.add(sim_seed)
            if problems:
                self.failed += 1
                print(f"{wl} seed {sim_seed} {out.label}: FAILED " + "; ".join(problems[:5]),
                      file=sys.stderr)


def run_pass(wl: Workload, inputs: Inputs, sim_seed: int, work: Path, references: dict,
             tally: Tally, tracer: Tracer | None = None) -> float:
    """One timed pass plus its untimed output check; returns the pass's seconds."""
    gc.collect()  # the previous pass's garbage is not this pass's cost
    if tracer is not None:
        tracer.new_pass()
        tracer.install()
    t0 = time.perf_counter()
    try:
        try:
            raw = wl.run_pass(inputs, sim_seed, work)
        finally:
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        outputs = wl.outputs(inputs, raw, sim_seed)
    except Exception:
        traceback.print_exc()
        tally.attempted += wl.runs_per_pass
        tally.failed += wl.runs_per_pass
        return elapsed
    tally.record(outputs, inputs, wl.name, sim_seed, references)
    return elapsed


def set_up(wl: Workload, work: Path) -> tuple[Inputs, list[float], list[float]]:
    """Build the inputs `setup_repeats` times; keep the last set.

    Returns the inputs, each set-up's seconds and each builder call's seconds.
    """
    times, builds = [], []
    for i in range(wl.setup_repeats):
        gc.collect()
        t0 = time.perf_counter()
        inputs = wl.setup(work / f"setup-{i}")
        times.append(time.perf_counter() - t0)
        builds.append(inputs.build_s)
        if i:
            shutil.rmtree(work / f"setup-{i - 1}", ignore_errors=True)
    return inputs, times, builds


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, arrays: dict, traced_s: float, untraced_s: float,
                      tally: Tally, build_s: float) -> dict[str, tuple[float, str]]:
    totals = layer_totals(arrays)
    c = tracer.counts
    m: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        t = totals[layer]
        m[f"{layer}.calls"] = (t["calls"], "count")
        m[f"{layer}.s"] = (t["s"], "s")
        m[f"{layer}.self_s"] = (t["self_s"], "s")
    plans = totals["segmentation.plan_segments"]["calls"]
    m.update({
        "profiles.admission_calls_per_plan": (
            _ratio(totals["profiles.memory_admissible"]["calls"], plans), "ratio"),
        "segmentation.plan_repeat_ratio": (_ratio(c["plan_repeats"], plans), "ratio"),
        "segmentation.plan_refusal_ratio": (_ratio(c["plan_refusals"], plans), "ratio"),
        "protocol.offers": (c["offers"], "count"),
        "protocol.interest_ratio": (_ratio(c["interests"], c["signals"]), "ratio"),
        "protocol.grants": (c["grants"], "count"),
        "protocol.grant_yield": (_ratio(c["grants"], c["offers"]), "ratio"),
        "protocol.dry_runs_per_grant": (_ratio(plans, c["grants"]), "ratio"),
        "protocol.materialize.refusals": (c["materialize_refusals"], "count"),
        "policies.select.no_winner": (c["no_winner"], "count"),
        "cluster.gaps": (c["gaps"], "count"),
        "baselines.placements": (c["placements"], "count"),
        "baselines.place_yield": (_ratio(c["placements"], c["placement_candidates"]), "ratio"),
        "cli.artifact_bytes": (tally.artifact_bytes, "bytes"),
        "scenarios.build.s": (build_s, "s"),
        "simcore.events": (tally.events, "count"),
        "simcore.offer_chatter": (tally.offer_chatter, "count"),
        "trace.wall_s": (traced_s, "s"),
        "trace.unattributed_s": (traced_s - float(arrays["self"].sum()), "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
        "trace.missing_hooks": (len(tracer.missing), "count"),
    })
    return m


def environment(wl: Workload, references: dict, load: tuple[float, float, float]) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(load),
        "platform": platform.platform(),
        "reference_seeds": sorted(int(s) for s in references.get(wl.name, {})),
    }


def benchmark(wl: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run: returns (environment, result object).

    A traced run also leaves its spans in `environment["spans"]`.
    """
    load = os.getloadavg()
    references = checks.load_references()
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{wl.name}-{seed}-{os.getpid()}"
    untraced, traced = Tally(), Tally()
    pass_times: list[float] = []
    traced_times: list[float] = []
    tracer = Tracer()
    try:
        inputs, setup_times, build_times = set_up(wl, work)
        if not trace:
            while sum(pass_times) < seconds:
                sim_seed = seed + len(pass_times)
                pass_times.append(run_pass(wl, inputs, sim_seed, work, references, untraced))
        else:
            for sim_seed in range(seed, seed + wl.trace_passes):
                pass_times.append(run_pass(wl, inputs, sim_seed, work, references, untraced))
                traced_times.append(
                    run_pass(wl, inputs, sim_seed, work, references, traced, tracer))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(wl, references, load)
    env.update({
        "workload": wl.name,
        "seed": seed,
        "sim_seeds": [seed, seed + len(pass_times) - 1],
        "reference_checked_seeds": sorted(untraced.referenced | traced.referenced),
        "pass_s": pass_times,
        "setup_repeat_s": setup_times,
    })
    if trace:
        arrays = tracer.spans()
        metrics = per_layer_metrics(
            tracer, arrays, sum(traced_times), sum(pass_times), traced,
            statistics.median(build_times))
        env.update(traced_pass_s=traced_times, missing_hooks=tracer.missing, spans=arrays)
    else:
        metrics = {
            "wall_s": (statistics.median(pass_times), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    failed = untraced.failed + traced.failed
    result = {
        "correct": failed == 0,
        "attempted": untraced.attempted + traced.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return env, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    env, result = benchmark(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = env.pop("spans", None)
    if spans is not None:
        spans_path = OUT / f"spans-{stem}.npz"
        np.savez(spans_path, layer_names=np.array(LAYERS), **spans)
        env["spans_file"] = str(spans_path.relative_to(ROOT))
    (OUT / f"result-{stem}.json").write_text(
        json.dumps({"environment": env, **result}, indent=1) + "\n")
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
