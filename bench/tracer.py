"""Outside-in tracer: wraps sjasim's public functions and records spans.

Each hook replaces a module attribute with a wrapper that records one span
(name, start, end, parent) per call, so nothing inside `src/` changes. A hook
is installed under the name its caller uses (`sjasim.protocol.plan_segments`
is the name `collect_interest` and `materialize` look up), which is why one
layer can have several patch sites. Spans stay in memory until `spans()`
turns them into arrays; self time is a span's duration minus the durations
of its direct children.

Some hooks also count what passes through them (offers advertised, dry
runs, refusals); those observers run inside the callee's span, so their
small cost is charged to the callee on every commit alike.
"""
from __future__ import annotations

import functools
import importlib
import time

import numpy as np

# (module, attribute, layer name). Order fixes the layer ids in span files.
HOOKS = [
    ("sjasim", "run", "simcore.run"),
    ("sjasim.cli", "run", "simcore.run"),
    ("sjasim.cli", "cmd_run", "cli.cmd_run"),
    ("sjasim.cli", "events_text", "cli.events_text"),
    ("sjasim.simcore", "advertise", "protocol.advertise"),
    ("sjasim.simcore", "collect_interest", "protocol.collect_interest"),
    ("sjasim.simcore", "grant_offer", "protocol.grant_offer"),
    ("sjasim.simcore", "materialize", "protocol.materialize"),
    ("sjasim.protocol", "plan_segments", "segmentation.plan_segments"),
    ("sjasim.segmentation", "segment_window", "segmentation.segment_window"),
    ("sjasim.segmentation", "memory_admissible", "profiles.memory_admissible"),
    ("sjasim.policies", "select", "policies.select"),
    ("sjasim.policies", "deadline_admissible", "profiles.deadline_admissible"),
    ("sjasim.simcore", "find_gaps", "cluster.find_gaps"),
    ("sjasim.simcore", "monolithic_place", "baselines.monolithic_place"),
    ("sjasim.simcore", "refresh_profile", "profiles.refresh_profile"),
    ("sjasim.simcore", "build_profile", "profiles.build_profile"),
    ("sjasim.profiles", "build_profile", "profiles.build_profile"),
    ("sjasim.workload", "ingest_scenario", "workload.ingest_scenario"),
    ("sjasim.workload", "load_ensemble", "profiles.load_ensemble"),
    ("sjasim.simcore", "generate_trajectory", "workload.generate_trajectory"),
]

LAYERS = list(dict.fromkeys(layer for _, _, layer in HOOKS))

COUNTERS = (
    "offers",
    "signals",
    "interests",
    "grants",
    "no_winner",
    "materialize_refusals",
    "plan_refusals",
    "plan_repeats",
    "gaps",
    "placements",
    "placement_candidates",
)


class Tracer:
    """Installs the hooks, records spans and counts, and removes the hooks."""

    def __init__(self) -> None:
        self._spans: list = []
        self._stack: list[int] = [-1]
        self._installed: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._plan_keys: set = set()
        self._profile_ids: dict[int, tuple[int, object]] = {}

    # -- installation -------------------------------------------------

    def install(self) -> None:
        observers = {
            "protocol.advertise": self._obs_advertise,
            "protocol.collect_interest": self._obs_interest,
            "protocol.grant_offer": self._obs_grant,
            "protocol.materialize": self._obs_materialize,
            "segmentation.plan_segments": self._obs_plan,
            "policies.select": self._obs_select,
            "cluster.find_gaps": self._obs_gaps,
            "baselines.monolithic_place": self._obs_place,
        }
        self.missing = []
        for module_name, attr, layer in HOOKS:
            site = f"{module_name}.{attr}"
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(site)
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self.missing.append(site)
                continue
            wrapper = self._wrap(original, LAYERS.index(layer), observers.get(layer))
            setattr(module, attr, wrapper)
            self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def new_pass(self) -> None:
        """Forget earlier plan inputs: repeats count within one run."""
        self._plan_keys.clear()
        self._profile_ids.clear()

    def _wrap(self, fn, layer_id: int, observe):
        spans = self._spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(args, kwargs, result)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (layer_id, t0, t1, parent)
            return result

        return functools.wraps(fn)(traced)

    # -- observers (args are the callee's own call arguments) -----------

    def _obs_advertise(self, args, kwargs, result) -> None:
        self.counts["offers"] += len(result)

    def _obs_interest(self, args, kwargs, result) -> None:
        self.counts["signals"] += len(result)
        self.counts["interests"] += sum(1 for s in result if s.kind == "interest")

    def _obs_grant(self, args, kwargs, result) -> None:
        self.counts["grants"] += result is not None

    def _obs_select(self, args, kwargs, result) -> None:
        self.counts["no_winner"] += result is None

    def _obs_materialize(self, args, kwargs, result) -> None:
        self.counts["materialize_refusals"] += not isinstance(result, tuple)

    def _obs_gaps(self, args, kwargs, result) -> None:
        self.counts["gaps"] += len(result)

    def _obs_place(self, args, kwargs, result) -> None:
        self.counts["placements"] += len(result)
        self.counts["placement_candidates"] += len(args[0])

    def _obs_plan(self, args, kwargs, result) -> None:
        # Every call is a dry run, including the re-plan inside materialize.
        self.counts["plan_refusals"] += not isinstance(result, list)
        job, window = args[0], args[1]
        start = kwargs.get("start_position_s")
        if start is None and len(args) > 7:
            start = args[7]
        profile = job.profile
        # Serial numbers instead of id(): a refreshed-away profile could be
        # freed and its id reused, so the tracer keeps each one alive.
        serial, _ = self._profile_ids.setdefault(
            id(profile), (len(self._profile_ids), profile)
        )
        floor = job.demand_floor
        key = (
            job.spec.job_id,
            job.position_s if start is None else start,
            serial,
            None if floor is None else floor.tobytes(),
            int(window.duration / profile.grid_step + 1e-9),
            window.capacity_mb,
        )
        if key in self._plan_keys:
            self.counts["plan_repeats"] += 1
        else:
            self._plan_keys.add(key)

    # -- results --------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        """Closed spans as arrays: layer id, start, end, parent index, self time."""
        done = [s for s in self._spans if s is not None]
        if len(done) != len(self._spans):
            raise RuntimeError("spans are still open")
        n = len(done)
        layer = np.fromiter((s[0] for s in done), dtype=np.int16, count=n)
        start = np.fromiter((s[1] for s in done), dtype=float, count=n)
        end = np.fromiter((s[2] for s in done), dtype=float, count=n)
        parent = np.fromiter((s[3] for s in done), dtype=np.int64, count=n)
        dur = end - start
        child = np.zeros(n)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        return {
            "layer": layer,
            "start": start,
            "end": end,
            "parent": parent,
            "self": dur - child,
        }


def layer_totals(arrays: dict[str, np.ndarray]) -> dict[str, dict[str, float]]:
    """Per layer of `Tracer.spans()`: calls, inclusive seconds, self seconds."""
    k = len(LAYERS)
    layer = arrays["layer"]
    dur = arrays["end"] - arrays["start"]
    calls = np.bincount(layer, minlength=k)
    incl = np.bincount(layer, weights=dur, minlength=k)
    own = np.bincount(layer, weights=arrays["self"], minlength=k)
    return {
        name: {"calls": int(calls[i]), "s": float(incl[i]), "self_s": float(own[i])}
        for i, name in enumerate(LAYERS)
    }
