"""Regenerate references.json: sha256 digests of each reference run's artifacts.

    python3 bench/make_references.py

The digests pin the byte-identical contract: every later commit must
reproduce `events.jsonl` and `metrics.csv` exactly for these simulation
seeds. Regenerate only on a commit whose outputs are meant to change, and
say why in CHANGES.md. A run that violates a log invariant is not recorded.
"""
from __future__ import annotations

import json
import os
import shutil
import sys

import run as bench
from checks import REFERENCES, log_violations

# Simulation seeds with references. A benchmark run with workload seed n
# uses seeds n, n+1, ...; seeds past these ranges stay held out.
SEEDS = {
    "deadline-edf": range(12),
    "calibration-cli": range(30),
    "whole-job": range(40),
}


def main() -> int:
    refs: dict[str, dict[str, dict]] = {}
    bench.OUT.mkdir(exist_ok=True)
    work = bench.OUT / f"references-{os.getpid()}"
    try:
        for name, seeds in SEEDS.items():
            wl = bench.WORKLOADS[name]
            inputs = wl.setup(work / name)
            job_ids = [job.job_id for job in inputs.scenario.jobs]
            refs[name] = {}
            for seed in seeds:
                outputs = wl.outputs(inputs, wl.run_pass(inputs, seed, work), seed)
                for out in outputs:
                    injected = inputs.cfg.failure_rate_per_hour > 0
                    problems = log_violations(out.log, job_ids, out.label, injected)
                    if problems:
                        print(f"{name} seed {seed} {out.label}: {problems[:5]}", file=sys.stderr)
                        return 1
                refs[name][str(seed)] = {out.label: out.digests for out in outputs}
                print(f"{name} seed {seed}: ok", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
