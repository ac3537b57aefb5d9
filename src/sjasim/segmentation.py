"""Slack-minimizing window segmentation with hysteresis.

Given an upper memory envelope over an offered window, split the window into
contiguous fragments and assign each the smallest catalog capacity covering
its (smoothed) envelope. A split is only accepted when it reduces wasted
reservation (reserved capacity-time minus envelope area) by at least
`hysteresis_delta` relative to the parent fragment's reservation, which
keeps plans from chasing short-lived dips.

An offer asks each waiting job only whether it could plan a subjob in the
window. interest_verdict answers that exactly from bounds on the first
fragment, and plans only when the bounds leave it open; plan_segments
plans a window in full, for the job that wins it. Both memoize on the
profile.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import astuple, dataclass, field
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .cluster import ExecutionWindow, SliceCatalog
from .profiles import FunctionalProfile, RiskParams, memory_admissible
from .workload import JobRuntime

__all__ = [
    "InfeasiblePlan",
    "SegmentationConfig",
    "Fragment",
    "FragmentPlan",
    "PlanRefusal",
    "WindowTerms",
    "segment_window",
    "plan_waste",
    "window_terms",
    "interest_verdict",
    "plan_segments",
]

_NON_ATOMIZABLE = "non-atomizable job, conventional placement only"
_NO_PREFIX = "no tau_min prefix fits the offered capacity"
_NO_FRAGMENT = "no admissible fragment at the offered capacity"
_PLAN = object()  # verdict cache value: the bounds left the verdict open


class InfeasiblePlan(ValueError):
    """No fragment of the window fits the offered capacity."""


@dataclass(frozen=True)
class SegmentationConfig:
    """Knobs for window segmentation.

    tau_min/tau_max bound fragment durations (seconds); smoothing_window is
    the width of the sliding-maximum applied to the envelope before capacity
    selection; hysteresis_delta is the minimum relative waste reduction a
    split must achieve. The envelope itself is the risk level's
    (RiskParams.eps), so segmentation and admission read one curve.
    """

    tau_min_s: float = field(default=300.0, metadata={"key": "segmentation.tau_min_s"})
    tau_max_s: float = field(default=3600.0, metadata={"key": "segmentation.tau_max_s"})
    smoothing_window_s: float = field(
        default=120.0, metadata={"key": "segmentation.smoothing_window_s"}
    )
    hysteresis_delta: float = field(
        default=0.15, metadata={"key": "segmentation.hysteresis_delta"}
    )

    def __post_init__(self) -> None:
        for name in ("tau_min_s", "tau_max_s", "smoothing_window_s", "hysteresis_delta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.tau_min_s <= 0 or self.tau_max_s < self.tau_min_s:
            raise ValueError("need 0 < tau_min <= tau_max")
        if self.smoothing_window_s < 0:
            raise ValueError("smoothing_window must be >= 0")
        if self.hysteresis_delta < 0:
            raise ValueError("hysteresis_delta must be >= 0")
        # Plan and verdict cache keys hold this, not self: a str keeps its
        # hash, while the generated __hash__ rehashes every field per lookup.
        object.__setattr__(self, "plan_key", repr(astuple(self)))
        object.__setattr__(self, "_steps", {})

    def steps(self, grid_step: float) -> tuple[int, int, int]:
        """The fewest and most grid steps a fragment spans (tau_min rounded
        up, tau_max down, at least 1 and the fewest) and the smoothing
        half-width at grid_step, memoized, as every offer and plan reads them."""
        got = self._steps.get(grid_step)
        if got is None:
            fewest = max(1, math.ceil(self.tau_min_s / grid_step - 1e-9))
            got = self._steps[grid_step] = (
                fewest,
                max(fewest, int(self.tau_max_s / grid_step + 1e-9)),
                _half_width(grid_step, self.smoothing_window_s),
            )
        return got


@dataclass(frozen=True)
class Fragment:
    """Half-open sample range [start_idx, end_idx) at one assigned capacity."""

    start_idx: int
    end_idx: int
    capacity_mb: int

    @property
    def n_steps(self) -> int:
        return self.end_idx - self.start_idx


def _half_width(grid_step: float, smoothing_window_s: float) -> int:
    """Samples the sliding maximum reaches on each side."""
    return int(round(smoothing_window_s / (2.0 * grid_step)))


def _sliding_max(x: list[float], grid_step: float, smoothing_window_s: float) -> list[float]:
    """Centered sliding maximum of total width ~smoothing_window_s, clamped
    at both ends. Never below the raw envelope, so smoothing only ever adds
    safety margin."""
    # `half` passes of a clamped 3-sample max reach `half` samples each way;
    # after len(x) - 1 passes every sample holds the maximum.
    for _ in range(min(_half_width(grid_step, smoothing_window_s), len(x) - 1)):
        x = list(map(max, [x[0], *x[:-1]], x, [*x[1:], x[-1]]))
    return x


def plan_waste(fragments: list[Fragment], smoothed: np.ndarray) -> tuple[float, float]:
    """(reserved, waste) of a plan in MB*steps against the smoothed envelope."""
    reserved = 0.0
    area = 0.0
    for f in fragments:
        reserved += f.capacity_mb * f.n_steps
        area += float(smoothed[f.start_idx : f.end_idx].sum())
    return reserved, reserved - area


def _waste(prefix: list[float], a: int, b: int, cap: float) -> float:
    return cap * (b - a) - (prefix[b] - prefix[a])


def _split(
    covers: list[int], prefix: list[float], tmin: int, delta: float, a: int, b: int
) -> list[Fragment]:
    """Fragments of [a, b): split at the cut that saves the most waste, when
    it saves at least `delta` of the parent's reservation, and recurse."""
    cap = max(covers[a:b])
    parent_reserved = cap * (b - a)
    parent_waste = _waste(prefix, a, b, cap)
    best_gain, best_cut = -1.0, None
    # Cut only where the cover changes and both sides keep tau_min.
    for i in range(a + tmin, b - tmin + 1):
        if covers[i] == covers[i - 1]:
            continue
        w = _waste(prefix, a, i, max(covers[a:i])) + _waste(prefix, i, b, max(covers[i:b]))
        gain = (parent_waste - w) / parent_reserved
        if gain > best_gain + 1e-12:
            best_gain, best_cut = gain, i
    if best_cut is not None and best_gain >= delta - 1e-12:
        return _split(covers, prefix, tmin, delta, a, best_cut) + _split(
            covers, prefix, tmin, delta, best_cut, b
        )
    return [Fragment(a, b, cap)]


def segment_window(
    envelope: np.ndarray | list[float],
    grid_step: float,
    catalog: SliceCatalog,
    offered_capacity_mb: int,
    seg: SegmentationConfig,
) -> list[Fragment]:
    """Split a window's envelope into capacity-assigned fragments.

    `envelope` holds one sample per grid step of the window (half-open step
    semantics: sample i covers [i, i+1) grid steps). The returned fragments
    tile a prefix of the window contiguously; the prefix ends early only
    when the smoothed envelope exceeds the offered capacity (nothing behind
    that point is reachable, work being sequential) or at a fragment longer
    than tau_max that no pieces of tau_min to tau_max steps tile, after its
    whole tau_max pieces. Raises InfeasiblePlan when not even a tau_min
    prefix fits the offered capacity. Windows are short: this runs on lists.
    """
    u = np.asarray(envelope, dtype=float)
    if u.ndim != 1 or u.size == 0:
        raise InfeasiblePlan("empty window envelope")
    if offered_capacity_mb not in catalog:
        raise InfeasiblePlan(f"offered capacity {offered_capacity_mb} not in catalog")
    smoothed = _sliding_max(u.tolist(), grid_step, seg.smoothing_window_s)
    tmin, tmax, _ = seg.steps(grid_step)

    # Feasible prefix: everything strictly before the first sample whose
    # covering capacity exceeds the offer.
    n = next((i for i, v in enumerate(smoothed) if not v <= offered_capacity_mb), len(smoothed))
    if n < tmin:
        raise InfeasiblePlan(_NO_PREFIX)

    # Smallest covering capacity per sample, as an int for the event log
    # (bisect_left takes an equal one); covering is monotone, so a span's
    # cover is the max of its covers.
    caps = [int(c) for c in catalog.capacities_mb]
    covers = [caps[bisect_left(caps, v)] for v in smoothed[:n]]
    assert max(covers) <= offered_capacity_mb
    prefix = list(accumulate(smoothed[:n], initial=0.0))  # adds in order, as np.cumsum does

    # Duration bounds: fragments longer than tau_max are cut into pieces of
    # at least tau_min. One that cannot be keeps its whole tau_max pieces
    # (they always tile), and the plan ends there: coverage stays a prefix.
    fragments: list[Fragment] = []
    for f in _split(covers, prefix, tmin, seg.hysteresis_delta, 0, n):
        if f.n_steps <= tmax:
            fragments.append(f)
            continue
        pieces = _chop(f.start_idx, f.end_idx, tmin, tmax)
        if pieces is None:
            whole = range(f.start_idx, f.end_idx - tmax + 1, tmax)
            fragments.extend(Fragment(a, a + tmax, max(covers[a : a + tmax])) for a in whole)
            break
        fragments.extend(Fragment(a, b, max(covers[a:b])) for a, b in pieces)

    # Merge stabilization: collapse adjacent pairs whose separation is not
    # worth hysteresis_delta (unless the merge would break tau_max).
    changed = True
    while changed and len(fragments) > 1:
        changed = False
        for i in range(len(fragments) - 1):
            left, right = fragments[i], fragments[i + 1]
            total = right.end_idx - left.start_idx
            if total > tmax:
                continue
            cap = max(covers[left.start_idx : right.end_idx])
            merged_waste = _waste(prefix, left.start_idx, right.end_idx, cap)
            child_waste = _waste(
                prefix, left.start_idx, left.end_idx, left.capacity_mb
            ) + _waste(prefix, right.start_idx, right.end_idx, right.capacity_mb)
            gain = (merged_waste - child_waste) / (cap * total)
            if gain < seg.hysteresis_delta - 1e-12:
                fragments[i : i + 2] = [Fragment(left.start_idx, right.end_idx, cap)]
                changed = True
                break
    return fragments


def _chop(a: int, b: int, tmin: int, tmax: int) -> list[tuple[int, int]] | None:
    """Tile [a, b), b - a > tmax, into the fewest near-equal pieces of at
    most tmax steps, or None when those pieces fall below tmin."""
    length = b - a
    k = math.ceil(length / tmax)
    if k * tmin > length:
        return None
    base, extra = divmod(length, k)
    cuts = [a]
    for i in range(k):
        cuts.append(cuts[-1] + base + (1 if i < extra else 0))
    return [(cuts[i], cuts[i + 1]) for i in range(k)]


@dataclass(frozen=True)
class FragmentPlan:
    """One plannable subjob: its start offset from the window start, its
    duration and capacity, and its job-relative work positions."""

    offset_s: float
    duration_s: float
    capacity_mb: int
    pos_from_s: float
    pos_to_s: float
    predicted_peak_mb: float
    admission_probability: float


@dataclass(frozen=True)
class PlanRefusal:
    reason: str


class WindowTerms(NamedTuple):
    """What planning reads from an offered window at one grid step."""

    n_steps: int  # whole grid steps inside the window
    verdict_steps: int  # samples a decided verdict reads: min(n_steps, tau_max + half)
    tail: tuple  # the window's part of a cache key
    capacity_mb: int
    catalog: SliceCatalog
    risk: RiskParams
    seg: SegmentationConfig


def window_terms(
    window: ExecutionWindow,
    grid_step: float,
    catalog: SliceCatalog,
    risk: RiskParams,
    seg: SegmentationConfig,
) -> WindowTerms | PlanRefusal:
    """A window's refusal, which no job can plan around, or its terms."""
    if window.duration + 1e-9 < seg.tau_min_s:
        return PlanRefusal("window shorter than tau_min")
    # Whole grid steps that fit inside the window; never round up, or the
    # plan would spill past the window into the next reservation.
    n_steps = int(window.duration / grid_step + 1e-9)
    if n_steps < 1:
        return PlanRefusal("window shorter than one grid step")
    capacity = window.capacity_mb
    if capacity not in catalog:
        return PlanRefusal(f"offered capacity {capacity} not in catalog")
    _, tmax, half = seg.steps(grid_step)
    tail = (capacity, seg.plan_key, risk.eps, catalog.capacities_mb)
    return WindowTerms(n_steps, min(n_steps, tmax + half), tail, capacity, catalog, risk, seg)


def _key(
    job: JobRuntime, start_position_s: float | None, steps: int, tail: tuple
) -> tuple[int, tuple]:
    """The start grid index of a plan or verdict over `steps` samples, and
    its cache key."""
    base_pos = job.position_s if start_position_s is None else start_position_s
    i0 = int(round(base_pos / job.profile.grid_step))
    floor = job.demand_floor
    owner = None if floor is None else (job.spec.job_id, job.demand_floor_version)
    return i0, (owner, i0, steps, tail)


def interest_verdict(
    job: JobRuntime, terms: WindowTerms | PlanRefusal, start_position_s: float | None = None
) -> str:
    """The empty string when plan_segments would plan at least one
    admissible fragment of the window, else the reason it would refuse
    with. `terms` are the window's at the job's grid step.

    A verdict is exact without a plan in most cases. segment_window's
    first fragment spans [0, b) with tau_min <= b <= m, where m = min(n,
    tau_max) and n is the feasible prefix, so its capacity lies between
    the covers of the smoothed maxima over [0, tau_min) and [0, m).
    memory_admissible admits no less at more capacity and no more over a
    longer span: admission at the low capacity over m steps means
    interest, failure at the high one over tau_min steps a decline. Only
    the cases between plan, through plan_segments's cache. A decided
    verdict reads the first verdict_steps samples, so it is cached on that
    length in `profile.verdict_cache` and serves every longer window.
    """
    if not job.spec.atomizable:
        return _NON_ATOMIZABLE
    if isinstance(terms, PlanRefusal):
        return terms.reason
    i0, key = _key(job, start_position_s, terms.verdict_steps, terms.tail)
    cache = job.profile.verdict_cache
    verdict = cache.get(key)
    if verdict is None:
        verdict = cache[key] = _bounds(job.profile, job.demand_floor, i0, terms)
    if verdict is _PLAN:
        planned = _planned(job, start_position_s, terms)
        verdict = planned.reason if isinstance(planned, PlanRefusal) else ""
    return verdict


def _bounds(
    profile: FunctionalProfile, floor: np.ndarray | None, i0: int, terms: WindowTerms
) -> str | object:
    """Uncached verdict from the first verdict_steps samples: "", a
    refusal reason, or _PLAN when only the plan can tell."""
    h = profile.grid_step
    seg = terms.seg
    u = _envelope(profile, floor, i0, terms.verdict_steps, terms.risk.eps).tolist()
    smoothed = _sliding_max(u, h, seg.smoothing_window_s)
    tmin, tmax, _ = seg.steps(h)
    reach = min(len(smoothed), tmax)
    capacity = terms.capacity_mb
    m = next((i for i in range(reach) if not smoothed[i] <= capacity), reach)
    if m < tmin:
        return _NO_PREFIX
    caps = terms.catalog.capacities_mb
    low = caps[bisect_left(caps, max(smoothed[:tmin]))]
    high = caps[bisect_left(caps, max(smoothed[:m]))]
    # Spans as _plan queries a fragment [0, b): grid points i0 .. i0 + b - 1.
    if memory_admissible(profile, low, (i0 * h, (i0 + m) * h - h), terms.risk).admissible:
        return ""
    if not memory_admissible(profile, high, (i0 * h, (i0 + tmin) * h - h), terms.risk).admissible:
        return _NO_FRAGMENT
    return _PLAN


def plan_segments(
    job: JobRuntime,
    window: ExecutionWindow,
    catalog: SliceCatalog,
    risk: RiskParams,
    seg: SegmentationConfig,
    start_position_s: float | None = None,
) -> list[FragmentPlan] | PlanRefusal:
    """Map an offered window onto the job's remaining work and segment it.

    The job-relative interval starts at the job's current work position
    (or at start_position_s, when a caller pipelines grants beyond already
    planned subjobs) and runs for the window's duration. Fragments keep
    contiguous work positions; planning stops at the first fragment that
    fails joint admission at its assigned capacity (later work is
    unreachable anyway). Jobs flagged non-atomizable are refused so a
    conventional scheduler path can take them.

    Each distinct plan is computed once and memoized in the job's
    `profile.plan_cache`. The key is everything the plan reads besides the
    profile: the job's demand floor, start grid index, whole window steps,
    offered capacity, seg (by its plan_key), risk.eps and the catalog's
    capacities. A job has a floor only once the engine noted an OOM kill
    under online correction; it stands in the key as (job id,
    demand-floor version), and as None otherwise, so jobs without a floor
    share one plan per profile. Fragments are window-relative, so a hit
    returns the cached fragment objects themselves, whatever the window's
    start or job. Offers are answered by interest_verdict, which plans only
    when its bounds cannot decide; materialize plans the winner's window.
    """
    if not job.spec.atomizable:
        return PlanRefusal(_NON_ATOMIZABLE)
    terms = window_terms(window, job.profile.grid_step, catalog, risk, seg)
    if isinstance(terms, PlanRefusal):
        return terms
    planned = _planned(job, start_position_s, terms)
    return planned if isinstance(planned, PlanRefusal) else list(planned)


def _planned(
    job: JobRuntime, start_position_s: float | None, terms: WindowTerms
) -> tuple[FragmentPlan, ...] | PlanRefusal:
    """The plan of the whole window, memoized."""
    profile = job.profile
    i0, key = _key(job, start_position_s, terms.n_steps, terms.tail)
    planned = profile.plan_cache.get(key)
    if planned is None:
        planned = profile.plan_cache[key] = _plan(profile, job.demand_floor, i0, terms)
    return planned


def _envelope(
    profile: FunctionalProfile, floor: np.ndarray | None, i0: int, n_steps: int, eps: float
) -> np.ndarray:
    """The eps envelope over grid points [i0, i0 + n_steps), raised to the
    demand floor when there is one."""
    curve = profile.envelope(eps)
    u = curve[i0 : i0 + n_steps]
    if len(u) < n_steps:
        # Past the profile horizon: extrapolate the last supported value.
        pad = np.full(n_steps - len(u), curve[-1] if len(curve) else 0.0)
        u = np.concatenate([u, pad]) if len(u) else pad
    if floor is not None:
        floor = floor[i0 : i0 + n_steps]
        if len(floor) < n_steps:
            floor = np.concatenate([floor, np.zeros(n_steps - len(floor))])
        u = np.maximum(u, floor)
    return u


def _plan(
    profile: FunctionalProfile, floor: np.ndarray | None, i0: int, terms: WindowTerms
) -> tuple[FragmentPlan, ...] | PlanRefusal:
    """Uncached body of plan_segments; `floor` is the demand floor it
    raises the envelope to, or None."""
    h = profile.grid_step
    risk = terms.risk
    u = _envelope(profile, floor, i0, terms.n_steps, risk.eps)
    # Both calls go through the module globals, where tracers hook them.
    try:
        fragments = segment_window(u, h, terms.catalog, terms.capacity_mb, terms.seg)
    except InfeasiblePlan as exc:
        return PlanRefusal(str(exc))

    u = u.tolist()
    plans: list[FragmentPlan] = []
    for f in fragments:
        pos_from = (i0 + f.start_idx) * h
        pos_to = (i0 + f.end_idx) * h
        peak = max(u[f.start_idx : f.end_idx])
        # Fragment samples are [start, end): query the inclusive grid window
        # [pos_from, pos_to - h] so admission sees exactly those samples.
        decision = memory_admissible(profile, f.capacity_mb, (pos_from, pos_to - h), risk)
        if not decision.admissible:
            break
        plans.append(
            FragmentPlan(
                offset_s=f.start_idx * h,
                duration_s=f.n_steps * h,
                capacity_mb=f.capacity_mb,
                pos_from_s=pos_from,
                pos_to_s=pos_to,
                predicted_peak_mb=peak,
                admission_probability=decision.probability,
            )
        )
    if not plans:
        return PlanRefusal(_NO_FRAGMENT)
    return tuple(plans)
