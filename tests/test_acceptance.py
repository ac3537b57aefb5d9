"""End-to-end acceptance checks, one test per shipping criterion.

Each test prints a single `criterion NN [...]: PASS/FAIL` line so the suite
output doubles as a checklist. Tolerances are pinned here, not imported.
"""
import dataclasses
import time

import numpy as np

from sjasim.cli import events_text, metrics_csv_text
from sjasim.policies import jain_index
from sjasim.profiles import (
    RiskParams,
    TrajectoryEnsemble,
    build_profile,
    deadline_admissible,
    memory_admissible,
)
from sjasim.scenarios import (
    make_calibration_scenario,
    make_deadline_scenario,
    make_fragmented_scenario,
    make_gap_reclaim_scenario,
    make_priority_inversion_scenario,
    make_smoke_scenario,
    make_two_tenant_scenario,
)
from sjasim.segmentation import Fragment, InfeasiblePlan, SegmentationConfig, segment_window
from sjasim.simcore import compare, draw_actual_runs, run
from test_segmentation import CAT, H, check_postconditions, oracle_waste, random_instance


def verdict(num: int, label: str, checks: dict[str, bool]) -> None:
    ok = all(checks.values())
    print(f"criterion {num:02d} [{label}]: {'PASS' if ok else 'FAIL'}")
    failed = [name for name, good in checks.items() if not good]
    assert ok, f"criterion {num} failed: {', '.join(failed)}"


def unit_spans(log: list[dict], job_id: str) -> list[tuple[float, float]]:
    """(start, end) wall intervals of every executed unit of one job."""
    starts = {r["unit"]: r["t"] for r in log
              if r["kind"] == "subjob_start" and r["job"] == job_id}
    spans = []
    for rec in log:
        if rec["kind"] in ("subjob_end", "oom_kill", "failure_inject", "preemption"):
            uid = rec.get("unit", rec.get("victim"))
            if uid in starts:
                spans.append((starts.pop(uid), rec["t"]))
    return spans


def test_criterion_01_memory_risk_calibration():
    scenario, cfg = make_calibration_scenario()
    admitted = kills = 0
    slowest = 0.0
    for seed in range(10):
        t0 = time.perf_counter()
        report, _ = run(scenario, "sja", cfg, seed=seed)
        slowest = max(slowest, time.perf_counter() - t0)
        admitted += report.admitted_subjobs
        kills += report.oom_kills
    verdict(1, "memory risk calibration", {
        "scenario has >= 50 jobs": len(scenario.jobs) >= 50,
        "ensembles carry 200 runs": all(
            e.n_runs == 200 for e in scenario.ensembles.values()
        ),
        "eps is 0.05": cfg.risk.eps == 0.05,
        ">= 1000 admitted subjobs": admitted >= 1000,
        "violation rate <= 0.07": kills / admitted <= 0.05 + 0.02,
        "<= 60 s per seed": slowest <= 60.0,
    })


def brute_force_memory(ens: TrajectoryEnsemble, cap: float, lo: int, hi: int,
                       eps: float) -> tuple[float, bool]:
    ok = 0
    for r in ens.runs:
        last = len(r) - 1
        if lo > last or max(r[lo:min(hi, last) + 1]) <= cap:
            ok += 1  # a run that ended before the window never exceeds it
    prob = ok / ens.n_runs
    return prob, prob >= 1.0 - eps


def brute_force_deadline(ens: TrajectoryEnsemble, frac: float, deadline: float,
                         alpha: float) -> tuple[float, bool]:
    ok = sum(1 for r in ens.runs
             if (len(r) - 1) * ens.grid_step * frac <= deadline)
    prob = ok / ens.n_runs
    return prob, prob >= 1.0 - alpha


def test_criterion_02_admission_matches_brute_force():
    rng = np.random.default_rng(20260814)
    grid = 60.0
    mem_mismatch = dl_mismatch = 0
    admit_counts = {True: 0, False: 0}
    for i in range(100):
        n_runs = int(rng.integers(2, 1001)) if i % 10 == 0 else int(rng.integers(2, 200))
        runs = []
        for _ in range(n_runs):
            n = int(rng.integers(2, 40))
            base = float(rng.uniform(1000, 30000))
            runs.append(np.abs(base + np.cumsum(rng.normal(0, rng.uniform(0, 800), n))))
        ens = TrajectoryEnsemble(grid_step=grid, runs=runs)
        profile = build_profile(ens)
        eps = float(rng.uniform(0.01, 0.4))
        lo = int(rng.integers(0, ens.max_len - 1))
        hi = int(rng.integers(lo, ens.max_len))
        maxima = [
            max(r[lo:min(hi, len(r) - 1) + 1]) if lo <= len(r) - 1 else 0.0
            for r in runs
        ]
        cap = float(rng.choice(maxima)) * float(rng.uniform(0.98, 1.02))
        got = memory_admissible(profile, cap, (lo * grid, hi * grid), RiskParams(eps=eps))
        want_prob, want_ok = brute_force_memory(ens, cap, lo, hi, eps)
        mem_mismatch += (got.admissible, got.probability) != (want_ok, want_prob)
        admit_counts[want_ok] += 1

        frac = float(rng.uniform(0.0, 1.0))
        deadline = float(rng.uniform(0.0, (ens.max_len - 1) * grid * 1.2))
        alpha = float(rng.uniform(0.01, 0.4))
        got = deadline_admissible(profile, frac, deadline, RiskParams(alpha_t=alpha))
        want_prob, want_ok = brute_force_deadline(ens, frac, deadline, alpha)
        dl_mismatch += (got.admissible, got.probability) != (want_ok, want_prob)
    verdict(2, "admission equals brute-force counting", {
        "memory verdicts and probabilities exact": mem_mismatch == 0,
        "deadline verdicts and probabilities exact": dl_mismatch == 0,
        "both admit outcomes exercised": min(admit_counts.values()) >= 5,
    })


def integrate_used(log: list[dict], draws: dict, until: float, h: float) -> float:
    """Memory-time actually consumed before `until`, replayed from the log."""
    total = 0.0
    open_units: dict[str, dict] = {}
    for rec in log:
        if rec["kind"] == "subjob_start":
            open_units[rec["unit"]] = rec
        elif rec["kind"] in ("subjob_end", "oom_kill", "failure_inject"):
            started = open_units.pop(rec.get("unit"), None)
            if started is None or min(rec["t"], until) <= started["t"]:
                continue
            i0 = int(round(started["pos_from_s"] / h))
            steps = int(round((min(rec["t"], until) - started["t"]) / h))
            total += float(draws[rec["job"]][i0:i0 + steps].sum()) * h
    return total


def test_criterion_03_gap_reclaim_contrast():
    scenario, cfg = make_gap_reclaim_scenario()
    gap = (3600.0, 4200.0)  # hole on the 20 GB slice between backgrounds
    sja_rpt, sja_log = run(scenario, "sja", cfg, seed=0)
    ff_rpt, ff_log = run(scenario, "first_fit", cfg, seed=0)
    ff_overlap = [
        (a, b) for a, b in unit_spans(ff_log, "train")
        if a < gap[1] and b > gap[0]
    ]
    # Common-horizon check: same draws, same denominator, window ending when
    # the last non-atomizable background job finishes in either run.
    draws = draw_actual_runs(scenario, seed=0)
    background = {j.job_id for j in scenario.jobs if not j.atomizable}
    horizon = max(r["t"] for log in (sja_log, ff_log) for r in log
                  if r["kind"] == "subjob_end" and r["job"] in background)
    sja_used = integrate_used(sja_log, draws, horizon, 60.0)
    ff_used = integrate_used(ff_log, draws, horizon, 60.0)
    in_gap = [
        r for r in sja_log if r["kind"] == "subjob_created" and r["job"] == "train"
        and r["window_start"] >= gap[0]
        and r["window_start"] + r["window_s"] <= gap[1]
    ]
    ckpts = [r for r in sja_log if r["kind"] == "checkpoint" and r["job"] == "train"
             and gap[0] < r["t"] <= gap[1]]
    verdict(3, "gap reclamation contrast", {
        "first_fit: train idle through the gap": not ff_overlap,
        "sja: exactly one subjob inside the gap": len(in_gap) == 1,
        "sja: gap subjob leaves a checkpoint": len(ckpts) >= 1,
        "sja used utilization strictly higher":
            sja_rpt.used_utilization > ff_rpt.used_utilization,
        "strictly more memory-time used by common horizon": sja_used > ff_used,
        "both complete every job":
            sja_rpt.completed_jobs == ff_rpt.completed_jobs == len(scenario.jobs),
    })


def test_criterion_04_no_interruptions_without_failures():
    quiet = {}
    for name, maker in (
        ("smoke", make_smoke_scenario),
        ("gap-reclaim", make_gap_reclaim_scenario),
        ("priority-inversion", make_priority_inversion_scenario),
        ("fragmented", make_fragmented_scenario),
    ):
        scenario, cfg = maker()
        assert cfg.failure_rate_per_hour == 0.0
        report, _ = run(scenario, "sja", cfg, seed=0)
        quiet[name] = report.interruptions
    inv_scenario, inv_cfg = make_priority_inversion_scenario()
    pm_rpt, _ = run(inv_scenario, "preempt_migrate", inv_cfg, seed=0)
    checks = {f"sja zero interruptions on {n}": v == 0 for n, v in quiet.items()}
    checks["preempt_migrate interrupts under inversion"] = pm_rpt.interruptions >= 1
    verdict(4, "interruption-free execution", checks)


def test_criterion_05_segmentation_postconditions():
    rng = np.random.default_rng(77)
    feasible = drawn = 0
    while feasible < 1000:
        env, offered, c = random_instance(rng)
        drawn += 1
        assert drawn <= 4000, "feasible draws too rare to reach 1000 plans"
        try:
            frags = segment_window(env, H, CAT, offered, c)
        except InfeasiblePlan:
            continue
        feasible += 1
        check_postconditions(env, offered, c, frags)

    env = np.array([4096.0] * 10 + [18432.0] * 10)
    reserved, w_unsplit = oracle_waste(env, [Fragment(0, 20, 20480)])
    _, w_split = oracle_waste(
        env, [Fragment(0, 10, 5120), Fragment(10, 20, 20480)]
    )
    def seg(delta):
        return segment_window(env, H, CAT, 20480, SegmentationConfig(
            tau_min_s=300.0, tau_max_s=3600.0,
            smoothing_window_s=0.0, hysteresis_delta=delta,
        ))
    verdict(5, "segmentation postconditions", {
        "1000 random plans satisfy postconditions": feasible == 1000,
        "worked example gain is exactly 0.375":
            (w_unsplit - w_split) / reserved == 0.375,
        "splits at delta 0.2":
            seg(0.2) == [Fragment(0, 10, 5120), Fragment(10, 20, 20480)],
        "holds at delta 0.5": seg(0.5) == [Fragment(0, 20, 20480)],
    })


def test_criterion_06_no_subjob_without_grant():
    smoke, smoke_cfg = make_smoke_scenario()
    frag, frag_cfg = make_fragmented_scenario()
    orphans = runs = created = 0
    for scenario, cfg, seeds in (
        (smoke, smoke_cfg, range(60)),
        (frag, frag_cfg, range(40)),
    ):
        for seed in seeds:
            _, log = run(scenario, "sja", cfg, seed=seed)
            runs += 1
            granted = set()
            for rec in log:
                if rec["kind"] == "grant":
                    granted.add((rec["offer"], rec["job"]))
                elif rec["kind"] == "subjob_created":
                    created += 1
                    orphans += (rec["offer"], rec["job"]) not in granted
    verdict(6, "every subjob preceded by its grant", {
        "scanned 100 runs": runs == 100,
        "subjobs actually created": created > 0,
        "zero orphan creations": orphans == 0,
    })


def test_criterion_07_deadline_violations_bounded():
    scenario, cfg = make_deadline_scenario()
    deadlines = {j.job_id: j.deadline_s for j in scenario.jobs}
    completed = violations = 0
    for seed in range(5):
        report, _ = run(scenario, "sja", cfg, seed=seed)
        for job_id, finish, _reexec in report.per_job_completion:
            completed += 1
            violations += finish > deadlines[job_id] + 1e-6
    verdict(7, "deadline admission risk", {
        "workload has 100 jobs": len(scenario.jobs) == 100,
        "alpha_t is 0.05": cfg.risk.alpha_t == 0.05,
        "completions observed": completed > 0,
        "violation fraction <= 0.08": violations / completed <= 0.05 + 0.03,
    })


def test_criterion_08_two_tenant_fairness():
    scenario, cfg = make_two_tenant_scenario()
    tenants = {j.tenant_id for j in scenario.jobs}
    budgets = {cfg.policy.token_budgets[t] for t in tenants}
    worst_jain = 1.0
    shortest = float("inf")
    for seed in range(3):
        report, _ = run(scenario, "sja", cfg, seed=seed)
        worst_jain = min(worst_jain, jain_index(report.per_tenant_reserved))
        shortest = min(shortest, report.total_time_s)
    verdict(8, "two-tenant fairness", {
        "two tenants, equal budgets": len(tenants) == 2 and len(budgets) == 1,
        "fair_tokens policy": cfg.policy.kind == "fair_tokens",
        "horizon >= 4 h": shortest >= 4 * 3600.0,
        "jain index >= 0.95": worst_jain >= 0.95,
    })


def test_criterion_09_failure_containment():
    scenario, base_cfg = make_calibration_scenario()
    cfg = dataclasses.replace(base_cfg, failure_rate_per_hour=1.5)
    injected = oversize = 0
    parents_ok = True
    for seed in range(3):
        _, log = run(scenario, "sja", cfg, seed=seed)
        finished = {r["job"] for r in log if r["kind"] == "job_completed"}
        for rec in log:
            if rec["kind"] == "failure_inject":
                injected += 1
                oversize += rec["lost_s"] > rec["planned_s"] + 1e-6
                parents_ok &= rec["job"] in finished
    verdict(9, "failure containment", {
        "failures actually injected": injected >= 5,
        "lost work never exceeds planned length": oversize == 0,
        "every failed parent still completes": parents_ok,
    })


def test_criterion_10_fragmented_utilization_headline():
    scenario, cfg = make_fragmented_scenario()
    result = compare(
        scenario,
        schedulers=("sja", "first_fit", "best_fit", "moldable"),
        config=cfg,
        seeds=tuple(range(10)),
    )
    table = result.table()
    util = {name: table[name]["used_utilization"][0] for name in table}
    delay = {name: table[name]["queueing_delay_mean_s"][0] for name in table}
    best_baseline = max(util[n] for n in ("first_fit", "best_fit", "moldable"))
    verdict(10, "fragmented-workload headline", {
        "4 GPUs": cfg.gpus == 4,
        "sja mean used utilization >= best baseline": util["sja"] >= best_baseline,
        "sja mean queueing delay <= first_fit": delay["sja"] <= delay["first_fit"],
    })


def test_criterion_11_byte_identical_reruns():
    identical = True
    for maker, seed in ((make_smoke_scenario, 0), (make_fragmented_scenario, 3)):
        scenario, cfg = maker()
        rpt_a, log_a = run(scenario, "sja", cfg, seed=seed)
        rpt_b, log_b = run(scenario, "sja", cfg, seed=seed)
        identical &= events_text(log_a) == events_text(log_b)
        identical &= metrics_csv_text(rpt_a) == metrics_csv_text(rpt_b)
    verdict(11, "byte-identical reruns", {"logs and metrics identical": identical})
