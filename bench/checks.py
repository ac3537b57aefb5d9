"""Output checks for every benchmark run.

Two kinds of check, both outside the timed region:

- invariants that any correct event log satisfies, whatever the seed;
- sha256 digests of the event log text and the metrics CSV, compared with
  `references.json` for the seeds that file covers. Those digests enforce
  the repository's byte-identical contract: a refactor or speed-up must
  not change a single byte of either artifact.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

from sjasim.cli import events_text, metrics_csv_text

REFERENCES = Path(__file__).resolve().parent / "references.json"

# Events that end a running unit (subjob or whole-job placement).
_UNIT_END = ("subjob_end", "oom_kill", "failure_inject", "preemption")
_EPS = 1e-6


def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def in_memory_digests(report, log: list[dict]) -> dict[str, str]:
    """Digests of the artifacts `sjasim run` would write for this run."""
    return {
        "events": sha256(events_text(log)),
        "metrics": sha256(metrics_csv_text(report)),
    }


def log_violations(
    log: list[dict], job_ids: list[str], scheduler: str, failures_injected: bool
) -> list[str]:
    """Invariant violations in one event log; empty when the log is sound.

    - every job ends in exactly one `job_completed` or `job_rejected`;
    - unit intervals on one slice never overlap;
    - every `subjob_created` follows a `grant` for its offer and job;
    - `sja` with no injected failures logs no `preemption`.
    """
    out: list[str] = []
    endings = dict.fromkeys(job_ids, 0)
    granted: set[tuple[str, str]] = set()
    started: dict[str, tuple[str, float]] = {}
    intervals: dict[str, list[tuple[float, float, str]]] = {}
    for rec in log:
        kind = rec["kind"]
        if kind in ("job_completed", "job_rejected"):
            job = rec["job"]
            if job not in endings:
                out.append(f"{kind} for unknown job {job}")
            else:
                endings[job] += 1
        elif kind == "grant":
            granted.add((rec["offer"], rec["job"]))
        elif kind == "subjob_created":
            if (rec["offer"], rec["job"]) not in granted:
                out.append(f"{rec['unit']} created without a grant of {rec['offer']}")
        elif kind == "subjob_start":
            started[rec["unit"]] = (rec["slice"], rec["t"])
        elif kind in _UNIT_END and "unit" in rec:
            begun = started.pop(rec["unit"], None)
            if begun is None:
                out.append(f"{kind} of {rec['unit']}, which never started")
            else:
                intervals.setdefault(begun[0], []).append((begun[1], rec["t"], rec["unit"]))
        if kind == "preemption" and scheduler == "sja" and not failures_injected:
            out.append(f"sja preempted {rec['unit']} without injected failures")
    out += [f"{job} ended {n} times" for job, n in endings.items() if n != 1]
    out += [f"{unit} started and never ended" for unit in started]
    for slice_id, spans in intervals.items():
        spans.sort()
        for (_, end, a), (start, _, b) in zip(spans, spans[1:]):
            if start < end - _EPS:
                out.append(f"{a} and {b} overlap on {slice_id}")
    return out


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


def digest_violations(
    references: dict, workload: str, sim_seed: int, label: str, digests: dict[str, str]
) -> list[str]:
    """Mismatches against the reference digests; empty for unreferenced seeds."""
    expected = references.get(workload, {}).get(str(sim_seed), {}).get(label)
    if expected is None:
        return []
    return [
        f"{label} seed {sim_seed}: {name} digest {digests.get(name)} != {want}"
        for name, want in expected.items()
        if digests.get(name) != want
    ]
