"""Command-line front end: run scenarios, sweep knobs, compare schedulers.

Subcommands: run, sweep, compare, validate. Every run writes its artifacts
(line-delimited event log, metric tables, a resolved-config echo) into the
output directory; rerunning the same invocation rewrites identical bytes.
The default output root comes from SJASIM_OUTPUT_ROOT (falling back to
./runs). Config files and flags share one key space; flags win.
"""
from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, load_config, normalize_scheduler, resolve, set_key
from .profiles import ProfileError
from .simcore import MetricsReport, Scenario, SimulationTimeout, compare, run
from .workload import ScenarioError

__all__ = ["main"]

OUTPUT_ROOT_ENV = "SJASIM_OUTPUT_ROOT"

SWEEP_AXES = {
    "eps": "risk.eps",
    "tau_min": "segmentation.tau_min_s",
    "smoothing_window": "segmentation.smoothing_window_s",
    "lookahead": "protocol.lookahead_s",
    "hysteresis_delta": "segmentation.hysteresis_delta",
    "n_historical_runs": "engine.n_historical_runs",
}

# (flag, dotted key, help)
_OVERRIDE_FLAGS = [
    ("--eps", "risk.eps", "memory risk tolerance in (0, 1)"),
    ("--alpha-t", "risk.alpha_t", "deadline risk tolerance in (0, 1)"),
    ("--tau-min", "segmentation.tau_min_s", "minimum fragment duration, s"),
    ("--tau-max", "segmentation.tau_max_s", "maximum fragment duration, s"),
    ("--smoothing-window", "segmentation.smoothing_window_s", "envelope sliding-max width, s"),
    ("--hysteresis-delta", "segmentation.hysteresis_delta", "min relative waste gain to split"),
    ("--lookahead", "protocol.lookahead_s", "gap discovery horizon, s"),
    ("--round-cadence", "protocol.round_cadence_s", "periodic round interval, s"),
    ("--max-chained-grants", "protocol.max_concurrent_subjobs_per_job",
     "max outstanding grant chains per job"),
    ("--policy", "policy.kind", "grant policy: fifo, priority, edf, fair_tokens"),
    ("--cost-rate", "policy.cost_rate", "tokens per GB-minute of granted window"),
    ("--gpus", "cluster.gpus", "number of GPUs"),
    ("--slices-per-gpu", "cluster.slices_per_gpu", "comma-separated slice MBs per GPU"),
    ("--catalog", "cluster.catalog", "comma-separated capacity classes, MB"),
    ("--failure-rate", "engine.failure_rate_per_hour", "injected failures per hour"),
    ("--online-correction", "engine.online_correction",
     "fold observed demand back into planning: on or off"),
    ("--max-oom-retries", "engine.max_oom_retries", "OOM strikes before rejection"),
    ("--n-historical-runs", "engine.n_historical_runs", "profile runs to keep ('none' = all)"),
    ("--single-run-inflation", "engine.single_run_inflation", "envelope factor for 1-run profiles"),
    ("--max-wait", "engine.max_wait_s", "queue wait before rejection, s"),
    ("--sim-time-cap", "engine.sim_time_cap_s", "hard cap on simulated time, s"),
    ("--ckpt-interval", "baseline.ckpt_interval_s", "periodic checkpoint interval, s"),
]


def _fmt(v: float) -> str:
    return format(float(v), ".10g")


def events_text(log: list[dict]) -> str:
    return "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in log)


def metrics_csv_text(report: MetricsReport) -> str:
    lines = ["metric,value"]
    lines += [f"{k},{_fmt(v)}" for k, v in report.scalars().items()]
    return "\n".join(lines) + "\n"


def per_job_csv_text(report: MetricsReport) -> str:
    lines = ["job_id,finish_s,reexecuted_s"]
    lines += [
        f"{job_id},{_fmt(finish)},{_fmt(reexec)}"
        for job_id, finish, reexec in report.per_job_completion
    ]
    return "\n".join(lines) + "\n"


def metrics_human_text(report: MetricsReport) -> str:
    d = report.queueing_delay
    none = "n/a"
    oom = none if report.oom_violation_rate is None else f"{report.oom_violation_rate:.4f}"
    dis = none if report.admission_disagreement is None else f"{report.admission_disagreement:.4f}"
    lines = [
        f"scheduler {report.scheduler}, seed {report.seed}",
        f"  simulated time        {report.total_time_s:.1f} s",
        f"  reserved utilization  {report.reserved_utilization:.4f}",
        f"  used utilization      {report.used_utilization:.4f}",
        f"  queueing delay        mean {d.mean_s:.1f} s, p50 {d.p50_s:.1f} s, "
        f"p95 {d.p95_s:.1f} s, max {d.max_s:.1f} s ({d.count} started)",
        f"  rejection rate        {report.rejection_rate:.4f}",
        f"  interruptions         {report.interruptions}",
        f"  oom violation rate    {oom} ({report.oom_kills} kills / "
        f"{report.admitted_subjobs} admitted)",
        f"  fragmentation loss    {report.fragmentation_loss:.4f}",
        f"  jain fairness         {report.jain_fairness:.4f}",
        f"  admission divergence  {dis}",
        f"  completed jobs        {report.completed_jobs}",
        f"  injected failures     {report.injected_failures}",
    ]
    return "\n".join(lines) + "\n"


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _seed_dir(out: Path, seed: int) -> Path:
    return out / f"seed_{seed:04d}"


def _run_one_seed(scenario, cfg: RunConfig, sim, seed: int, out: Path) -> MetricsReport:
    report, log = run(scenario, scheduler=cfg.scheduler, config=sim, seed=seed)
    sd = _seed_dir(out, seed)
    _write(sd / "events.jsonl", events_text(log))
    _write(sd / "metrics.csv", metrics_csv_text(report))
    _write(sd / "metrics.txt", metrics_human_text(report))
    _write(sd / "per_job.csv", per_job_csv_text(report))
    return report


def cmd_run(cfg: RunConfig) -> int:
    scenario = Scenario.from_file(cfg.scenario_path)
    sim = cfg.to_sim_config()
    out = Path(cfg.output_dir)
    _write(out / "config.txt", resolve(cfg))
    for seed in cfg.seeds:
        report = _run_one_seed(scenario, cfg, sim, seed, out)
        print(f"wrote {_seed_dir(out, seed)}")
        print(metrics_human_text(report), end="")
    return 0


def cmd_sweep(cfg: RunConfig, axis: str, raw_values: list[str]) -> int:
    key = SWEEP_AXES[axis]
    out = Path(cfg.output_dir)
    _write(out / "config.txt", resolve(cfg))
    metric_names: list[str] = []
    per_value: list[tuple[str, dict[int, dict[str, float]]]] = []
    for raw in raw_values:
        point = copy.deepcopy(cfg)
        set_key(point, key, raw)
        point.validate()
        scenario = Scenario.from_file(point.scenario_path)
        sim = point.to_sim_config()
        by_seed: dict[int, dict[str, float]] = {}
        for seed in point.seeds:
            report = _run_one_seed(
                scenario, point, sim, seed, out / f"{axis}_{raw}"
            )
            by_seed[seed] = report.scalars()
            if not metric_names:
                metric_names = list(by_seed[seed])
        per_value.append((raw, by_seed))

    runs_lines = ["axis,value,seed,metric,run_value"]
    table_lines = ["axis,value,metric,mean,sd"]
    for raw, by_seed in per_value:
        for seed in sorted(by_seed):
            for m in metric_names:
                runs_lines.append(f"{axis},{raw},{seed},{m},{_fmt(by_seed[seed][m])}")
        for m in metric_names:
            vals = [by_seed[s][m] for s in sorted(by_seed) if not math.isnan(by_seed[s][m])]
            mean = float(np.mean(vals)) if vals else float("nan")
            sd = float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0
            table_lines.append(f"{axis},{raw},{m},{_fmt(mean)},{_fmt(sd)}")
    _write(out / "sweep_runs.csv", "\n".join(runs_lines) + "\n")
    _write(out / "sweep.csv", "\n".join(table_lines) + "\n")
    print(f"wrote {out / 'sweep.csv'} ({len(raw_values)} values x {len(cfg.seeds)} seeds)")
    return 0


def cmd_compare(cfg: RunConfig, schedulers: list[str]) -> int:
    scenario = Scenario.from_file(cfg.scenario_path)
    sim = cfg.to_sim_config()
    out = Path(cfg.output_dir)
    _write(out / "config.txt", resolve(cfg))
    result = compare(scenario, schedulers=tuple(schedulers), config=sim, seeds=cfg.seeds)
    table = result.table()
    metric_names = list(next(iter(table.values())))
    csv_lines = ["scheduler,metric,mean,sd"]
    for name in schedulers:
        for m in metric_names:
            mean, sd = table[name][m]
            csv_lines.append(f"{name},{m},{_fmt(mean)},{_fmt(sd)}")
    _write(out / "compare.csv", "\n".join(csv_lines) + "\n")

    width = max(len(m) for m in metric_names) + 2
    cols = "".join(f"{name:>24}" for name in schedulers)
    text_lines = [f"{'metric':<{width}}{cols}"]
    for m in metric_names:
        cells = "".join(
            f"{table[name][m][0]:>15.4f} ±{table[name][m][1]:>6.3f}" for name in schedulers
        )
        text_lines.append(f"{m:<{width}}{cells}")
    text = "\n".join(text_lines) + "\n"
    _write(out / "compare.txt", text)
    print(text, end="")
    print(f"wrote {out / 'compare.csv'}")
    return 0


def cmd_validate(scenario_path: str) -> int:
    scenario = Scenario.from_file(scenario_path)
    print(f"{scenario_path}: ok")
    print(f"  jobs            {len(scenario.jobs)}")
    atomizable = sum(1 for j in scenario.jobs if j.atomizable)
    print(f"  atomizable      {atomizable}")
    print(f"  with deadlines  {sum(1 for j in scenario.jobs if j.deadline_s is not None)}")
    print(f"  tenants         {len({j.tenant_id for j in scenario.jobs})}")
    print(f"  pinned truths   {len(scenario.truths)}")
    for key in sorted(scenario.ensembles):
        ens = scenario.ensembles[key]
        print(
            f"  ensemble {key}: {ens.n_runs} runs, grid {_fmt(ens.grid_step)} s, "
            f"max horizon {_fmt((ens.max_len - 1) * ens.grid_step)} s"
        )
    return 0


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--scenario", help="scenario file (see validate)")
    sp.add_argument("--config", help="config file of key = value lines")
    sp.add_argument("--scheduler", help="sja, first-fit, best-fit, moldable, preempt")
    sp.add_argument("--seed", "--seeds", dest="seeds", help="comma-separated seed list")
    sp.add_argument("--out", help=f"output directory (default under ${OUTPUT_ROOT_ENV})")
    sp.add_argument(
        "--budget", action="append", default=[], metavar="TENANT=TOKENS",
        help="token budget for one tenant (repeatable)",
    )
    sp.add_argument(
        "--speedup", action="append", default=[], metavar="CAPACITY=MULT",
        help="runtime multiplier for one capacity class (repeatable)",
    )
    for flag, key, help_text in _OVERRIDE_FLAGS:
        sp.add_argument(flag, dest=f"k_{key}", metavar="V", help=help_text)


def _build_config(args: argparse.Namespace, command: str) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        cfg = load_config(args.config, cfg)
    if args.scenario:
        set_key(cfg, "run.scenario", args.scenario)
    if args.scheduler:
        set_key(cfg, "run.scheduler", args.scheduler)
    if args.seeds:
        set_key(cfg, "run.seeds", args.seeds)
    if args.out:
        set_key(cfg, "run.output_dir", args.out)
    for flag, key, _help in _OVERRIDE_FLAGS:
        raw = getattr(args, f"k_{key}")
        if raw is not None:
            set_key(cfg, key, raw)
    for spec, prefix in ((args.budget, "policy.budget."), (args.speedup, "baseline.speedup.")):
        for item in spec:
            name, eq, raw = item.partition("=")
            if not eq or not name:
                raise ConfigError(f"expected NAME=VALUE, got {item!r}")
            set_key(cfg, prefix + name.strip(), raw.strip())
    if not cfg.output_dir:
        root = os.environ.get(OUTPUT_ROOT_ENV, "runs")
        cfg.output_dir = str(Path(root) / command)
    if not cfg.scenario_path:
        raise ConfigError("a scenario is required (--scenario or run.scenario)")
    cfg.validate()
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="sjasim",
        description="Offer-driven job atomization vs conventional schedulers, simulated.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp_run = sub.add_parser("run", help="execute one scenario, write artifacts")
    _add_common(sp_run)

    sp_sweep = sub.add_parser("sweep", help="rerun a scenario across one knob's values")
    _add_common(sp_sweep)
    sp_sweep.add_argument("--axis", required=True, choices=sorted(SWEEP_AXES))
    sp_sweep.add_argument("--values", required=True, help="comma-separated axis values")

    sp_cmp = sub.add_parser("compare", help="run several schedulers on one scenario")
    _add_common(sp_cmp)
    sp_cmp.add_argument(
        "--schedulers", required=True, help="comma-separated list, at least two"
    )

    sp_val = sub.add_parser("validate", help="lint a scenario file")
    sp_val.add_argument("--scenario", required=True)

    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            return cmd_validate(args.scenario)
        cfg = _build_config(args, args.command)
        if args.command == "run":
            return cmd_run(cfg)
        if args.command == "sweep":
            values = [v.strip() for v in args.values.split(",") if v.strip()]
            if not values:
                raise ConfigError("--values must list at least one value")
            return cmd_sweep(cfg, args.axis, values)
        if args.command == "compare":
            names = [normalize_scheduler(s) for s in args.schedulers.split(",") if s.strip()]
            if len(names) < 2:
                print("error: compare needs at least two schedulers", file=sys.stderr)
                return 2
            if len(set(names)) != len(names):
                raise ConfigError("compare schedulers must be distinct")
            return cmd_compare(cfg, names)
        raise AssertionError(args.command)
    except (ConfigError, ScenarioError, ProfileError, SimulationTimeout) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
