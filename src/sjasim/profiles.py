"""Probabilistic memory profiles estimated from ensembles of historical runs.

A job's memory demand is modeled as a function of job-relative time on a
uniform grid. From an ensemble of recorded runs we build pointwise upper
quantile envelopes and their peak over a window, one admission rule (the
joint-window fraction of runs that stay under a capacity), and runtime
distributions for deadline screening.

Quantile rule used throughout: nearest-rank, i.e. the ceil(q * n)-th order
statistic of the n values supported at a grid point (the point's support).
No interpolation. Runs shorter than t contribute nothing at t.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import chain, compress, count, repeat
from pathlib import Path
from typing import NoReturn

import numpy as np

__all__ = [
    "ProfileError",
    "TrajectoryEnsemble",
    "FunctionalProfile",
    "RiskParams",
    "AdmissionDecision",
    "build_profile",
    "single_run_profile",
    "check_inflation",
    "envelope_peak",
    "memory_admissible",
    "remaining_runtime",
    "deadline_admissible",
    "refresh_profile",
    "write_trajectory",
    "read_trajectory",
    "write_ensemble",
    "load_ensemble",
]


class ProfileError(ValueError):
    """Invalid profile construction or query."""


@dataclass
class TrajectoryEnsemble:
    """A set of recorded runs of one job type on a shared uniform time grid.

    runs[i][k] is the memory demand in MB at job-relative time k * grid_step
    of run i. Runs may have different lengths; run i covers
    [0, (len(runs[i]) - 1) * grid_step].
    """

    grid_step: float
    runs: list[np.ndarray]

    def __post_init__(self) -> None:
        if not self.grid_step > 0:
            raise ProfileError("grid_step must be positive")
        if not self.runs:
            raise ProfileError("ensemble has no runs")
        self.runs = _checked_runs(self.runs)
        self._padded: np.ndarray | None = None

    @property
    def n_runs(self) -> int:
        return len(self.runs)

    @property
    def max_len(self) -> int:
        return max(len(r) for r in self.runs)

    def padded_matrix(self) -> np.ndarray:
        """(n_runs, max_len) matrix, NaN where a run has already ended."""
        if self._padded is None:
            m = np.full((self.n_runs, self.max_len), np.nan)
            for i, run in enumerate(self.runs):
                m[i, : len(run)] = run
            self._padded = m
        return self._padded

    def extended(self, run: np.ndarray) -> "TrajectoryEnsemble":
        """A new ensemble of these runs plus `run`; only `run` is validated.
        A built padded matrix is carried with `run`'s row appended, every
        row widened with NaN if `run` is the longest; an unbuilt one is
        built on the first padded_matrix() call."""
        merged = copy.copy(self)  # a shallow copy skips __post_init__
        new = _checked_run(self.n_runs, run)
        merged.runs = [*self.runs, new]
        if self._padded is not None:
            n, width = self._padded.shape
            merged._padded = np.full((n + 1, max(width, len(new))), np.nan)
            merged._padded[:n, :width] = self._padded
            merged._padded[n, : len(new)] = new
        return merged


def _checked_run(i: int | str, run) -> np.ndarray:
    """Run i (index or name) as a float array; it must be non-empty, 1-d, finite and >= 0."""
    arr = np.asarray(run, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ProfileError(f"run {i} must be a non-empty 1-d sample array")
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise ProfileError(f"run {i} has negative or non-finite samples")
    return arr


def _checked_runs(runs: list) -> list[np.ndarray]:
    """Every run as _checked_run checks it, in one vector pass over all
    samples; on a failure the per-run loop names the first bad run."""
    arrays = [np.asarray(run, dtype=float) for run in runs]
    if all(arr.ndim == 1 and arr.size for arr in arrays):
        samples = np.concatenate(arrays)
        if np.all(samples >= 0) and np.all(np.isfinite(samples)):
            return arrays
    return [_checked_run(i, arr) for i, arr in enumerate(arrays)]


def nearest_rank(sorted_values: np.ndarray, q: float, n: int) -> float:
    """ceil(q * n)-th order statistic of the first n entries (ascending)."""
    if n <= 0:
        raise ProfileError("nearest_rank needs at least one supported value")
    rank = max(1, math.ceil(q * n))
    return float(sorted_values[min(rank, n) - 1])


def _column_quantiles(padded: np.ndarray, support: np.ndarray, q: float) -> np.ndarray:
    """Pointwise nearest-rank q-quantile per grid column, alive runs only,
    from the padded matrix and its support."""
    sorted_cols = np.sort(padded, axis=0)  # NaN sorts last
    ranks = np.maximum(1, np.ceil(q * support).astype(int))
    ranks = np.minimum(ranks, np.maximum(support, 1))
    out = sorted_cols[ranks - 1, np.arange(sorted_cols.shape[1])]
    return np.asarray(out, dtype=float)


@dataclass
class FunctionalProfile:
    """Time-indexed statistical summary of a trajectory ensemble. Column
    summaries (support, median, envelopes) are computed on first read, so a
    profile that nothing plans on never sorts its runs."""

    grid_step: float
    runtime_samples: np.ndarray  # sorted run durations
    source: TrajectoryEnsemble
    inflation: float  # scales every envelope; > 1 only from single_run_profile
    envelope_cache: dict[float, np.ndarray] = field(default_factory=dict)
    # Plans and interest verdicts memoized by segmentation, shared by every
    # job on this profile, memory_admissible's index per capacity, and the
    # edf policy's remaining_runtime per (job id, start, alpha_t). They live
    # here, not on the source (extended() shallow-copies it), so that a
    # refreshed profile gets its own: empty, except for the indices, which
    # refresh_profile carries with the new run's row added.
    plan_cache: dict = field(default_factory=dict, repr=False, compare=False)
    verdict_cache: dict = field(default_factory=dict, repr=False, compare=False)
    exceedance_index: dict = field(default_factory=dict, repr=False, compare=False)
    runtime_bounds: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def horizon(self) -> float:
        return float(self.runtime_samples[-1])

    @cached_property
    def n_points(self) -> int:
        return self.source.max_len

    @cached_property
    def support(self) -> np.ndarray:
        """Number of runs alive at each grid point."""
        return np.sum(~np.isnan(self.source.padded_matrix()), axis=0)

    @cached_property
    def median_curve(self) -> np.ndarray:
        return _column_quantiles(self.source.padded_matrix(), self.support, 0.5)

    def envelope(self, eps: float) -> np.ndarray:
        """Pointwise (1 - eps)-quantile curve times inflation; checked and cached on first use."""
        key = float(eps)
        if key not in self.envelope_cache:
            _check_eps(key)
            self.envelope_cache[key] = self.inflation * _column_quantiles(
                self.source.padded_matrix(), self.support, 1.0 - key
            )
        return self.envelope_cache[key]


@dataclass(frozen=True)
class RiskParams:
    """Risk tolerances: eps for memory exceedance, alpha_t for deadline miss.
    Range-checked here only; functions that take a RiskParams trust it."""

    eps: float = field(default=0.05, metadata={"key": "risk.eps"})
    alpha_t: float = field(default=0.05, metadata={"key": "risk.alpha_t"})

    def __post_init__(self) -> None:
        for f in fields(self):
            if not 0.0 < getattr(self, f.name) < 1.0:
                raise ProfileError(f"{f.metadata['key']} must lie in (0, 1)")


def _check_eps(eps: float) -> None:
    """A bare eps level, checked where it becomes an envelope cache key."""
    if not 0.0 < eps < 1.0:
        raise ProfileError("eps must lie in (0, 1)")


def build_profile(ensemble: TrajectoryEnsemble) -> FunctionalProfile:
    """Build a profile; its envelopes fill on first read.

    Requires at least two runs; a single run carries no spread information
    (see single_run_profile for the inflation fallback).
    """
    if ensemble.n_runs < 2:
        raise ProfileError("profile estimation needs at least 2 runs")
    return _summarize(ensemble)


def _summarize(ensemble: TrajectoryEnsemble, inflation: float = 1.0) -> FunctionalProfile:
    """Profile of an ensemble: its sorted run durations, the rest on first read."""
    lengths = np.array([len(run) for run in ensemble.runs])
    return FunctionalProfile(
        grid_step=ensemble.grid_step,
        runtime_samples=np.sort((lengths - 1) * ensemble.grid_step),
        source=ensemble,
        inflation=inflation,
    )


def check_inflation(inflation: float) -> None:
    """The single-run envelope factor must be finite and at least 1."""
    if not (math.isfinite(inflation) and inflation >= 1.0):
        raise ProfileError("inflation must be finite and >= 1")


def single_run_profile(
    run: np.ndarray, grid_step: float, inflation: float = 1.10
) -> FunctionalProfile:
    """Deterministic fallback profile from a single run.

    Every envelope, at any level, is the run scaled by `inflation`; the
    median is the run itself. Used when an ensemble has only one member,
    which build_profile rejects.
    """
    ensemble = TrajectoryEnsemble(grid_step=grid_step, runs=[np.asarray(run, float)])
    check_inflation(inflation)
    return _summarize(ensemble, inflation)


def grid_indices(
    window: tuple[float, float], grid_step: float, n_points: int
) -> tuple[int, int]:
    """Grid index range [lo, hi] of the points a time window touches.

    lo snaps back to the grid point at or before `start`; hi is the last
    grid point at or before `end`. A window reaching past the last
    supported grid point is clamped to it.
    """
    start, end = window
    if end < start:
        raise ProfileError("window end precedes start")
    if start < 0:
        raise ProfileError("window start is negative")
    lo = min(int(math.floor(start / grid_step + 1e-9)), n_points - 1)
    hi = min(int(math.floor(end / grid_step + 1e-9)), n_points - 1)
    return lo, max(hi, lo)


def envelope_peak(
    profile: FunctionalProfile, eps: float, window: tuple[float, float]
) -> float:
    """Max of the (1 - eps) envelope over the grid points meeting `window`.

    Windows reaching beyond the profile horizon are clamped to it. A peak at
    or below a capacity bounds exceedance pointwise at every grid point, but
    not jointly over the window, so it is more permissive than
    memory_admissible, the rule planning admits by.
    """
    curve = profile.envelope(eps)
    lo, hi = grid_indices(window, profile.grid_step, profile.n_points)
    return float(curve[lo : hi + 1].max())


@dataclass(frozen=True)
class AdmissionDecision:
    admissible: bool
    probability: float


def memory_admissible(
    profile: FunctionalProfile,
    capacity_mb: float,
    window: tuple[float, float],
    risk: RiskParams,
) -> AdmissionDecision:
    """Decide whether running over `window` at capacity_mb meets risk eps.

    The estimated probability is the fraction of source runs whose maximum
    over the window stays at or below capacity; runs that end before the
    window contribute a success. Admit when that fraction is at least
    1 - eps. profile.exceedance_index[capacity_mb][r, j] is the first grid
    index k >= j where run r exceeds capacity (the width if none; int32).
    """
    lo, hi = grid_indices(window, profile.grid_step, profile.n_points)
    nxt = profile.exceedance_index.get(capacity_mb)
    if nxt is None:
        nxt = _exceedance_index(profile.source.padded_matrix(), capacity_mb)
        profile.exceedance_index[capacity_mb] = nxt
    failures = int(np.count_nonzero(nxt[:, lo] <= hi))
    prob = (len(nxt) - failures) / len(nxt)
    return AdmissionDecision(prob >= 1.0 - risk.eps, prob)


def _exceedance_index(padded: np.ndarray, capacity_mb: float) -> np.ndarray:
    """[r, j]: the first column k >= j where row r exceeds capacity (the
    width if none; int32). NaN (past a run's end) compares False: a
    finished run never fails."""
    width = np.int32(padded.shape[1])
    at = np.where(padded > capacity_mb, np.arange(width, dtype=np.int32), width)
    return np.minimum.accumulate(at[:, ::-1], axis=1)[:, ::-1]


def remaining_runtime(
    profile: FunctionalProfile, remaining_work_fraction: float, risk: RiskParams
) -> float:
    """The time the work left needs at risk alpha_t: deadline_admissible
    admits exactly the deadlines at or beyond it.

    It is runtime_samples[c - 1] * remaining_work_fraction, with c the
    least k such that k / n >= 1 - alpha_t. The scaled samples stay sorted
    and k / n rises with k, so at least c of them fit a deadline exactly
    when the c-th does. It reads no clock, so callers may keep it.
    """
    if not 0.0 <= remaining_work_fraction <= 1.0:
        raise ProfileError("remaining_work_fraction must lie in [0, 1]")
    n = len(profile.runtime_samples)
    short = np.count_nonzero(np.arange(1, n + 1) / n < 1.0 - risk.alpha_t)  # c - 1
    return float(profile.runtime_samples[short]) * remaining_work_fraction


def deadline_admissible(
    profile: FunctionalProfile,
    remaining_work_fraction: float,
    deadline_from_now: float,
    risk: RiskParams,
) -> AdmissionDecision:
    """Screen a deadline: fraction of scaled runtime samples within it.

    The remaining-runtime model is runtime_sample * remaining_work_fraction;
    admit when at least 1 - alpha_t of the samples finish by the deadline,
    that is, when remaining_runtime fits. A non-positive deadline admits
    nothing unless samples are themselves 0.
    """
    need = remaining_runtime(profile, remaining_work_fraction, risk)
    scaled = profile.runtime_samples * remaining_work_fraction
    prob = int(np.count_nonzero(scaled <= deadline_from_now)) / len(scaled)
    return AdmissionDecision(need <= deadline_from_now, prob)


def refresh_profile(
    profile: FunctionalProfile, completed_run: np.ndarray
) -> FunctionalProfile:
    """A new profile over the source runs plus one completed run.

    Equal, on every read, to build_profile over the merged runs. Only the
    new run is validated, with TrajectoryEnsemble's checks and messages.
    The refresh inserts the run's duration into the sorted runtimes and
    carries what the old profile has built, plus the run's row: the padded
    matrix, the support and each capacity's exceedance index. The median
    and envelopes are computed on first read, and the plan, verdict and
    runtime-bound memos start empty. The old profile and its source are
    left as they were.
    """
    source = profile.source.extended(completed_run)
    run_len = len(source.runs[-1])
    duration = (run_len - 1) * source.grid_step
    runtimes = profile.runtime_samples
    fresh = FunctionalProfile(
        grid_step=source.grid_step,
        runtime_samples=np.insert(runtimes, np.searchsorted(runtimes, duration), duration),
        source=source,
        inflation=1.0,
    )
    if source._padded is None:  # nothing was built on the old profile
        return fresh
    row, width = source._padded[-1:], source._padded.shape[1]
    if "support" in vars(profile):
        support = np.zeros(width, dtype=profile.support.dtype)
        support[: len(profile.support)] = profile.support
        support[:run_len] += 1
        fresh.support = support
    for capacity_mb, old in profile.exceedance_index.items():
        # Old rows are NaN past the old width, so their "none" moves to the
        # new width. Filled in place: a temporary the size of the old index,
        # per capacity and refresh, fragments the heap and raised the peak
        # RSS of a calibration run by about 4 MB.
        n, old_width = old.shape
        nxt = np.empty((n + 1, width), dtype=np.int32)
        nxt[:n, :old_width] = old
        if width > old_width:
            nxt[:n, :old_width][old == old_width] = width
            nxt[:n, old_width:] = width
        nxt[n] = _exceedance_index(row, capacity_mb)[0]
        fresh.exceedance_index[capacity_mb] = nxt
    return fresh


# ---------------------------------------------------------------------------
# On-disk formats: a run file holds one or more runs, each opened by its own
# header; a manifest lists the run files of one ensemble.
# ---------------------------------------------------------------------------

TRAJECTORY_HEADER = "time_s,mem_mb"
RUNS_FILE = "runs.csv"


def _trajectory_text(runs: list[np.ndarray], grid_step: float) -> str:
    """Run-file text: each run is a `time_s,mem_mb` header, then one
    `time,memory` row per sample. Times are written to 17 significant
    digits, so that a long grid reads back uniform; samples to 6, at which
    write -> read -> write is byte-identical."""
    samples = [np.asarray(run, dtype=float).tolist() for run in runs]
    times = [format(i * grid_step, ".17g") for i in range(max(map(len, samples), default=0))]
    lines = []
    for run in samples:
        lines.append(TRAJECTORY_HEADER)
        lines.extend(map("{},{:.6g}".format, times, run))
    return "\n".join(lines) + "\n"


def write_trajectory(path: str | Path, samples: np.ndarray, grid_step: float) -> None:
    """Write one run as a run file of one run."""
    Path(path).write_text(_trajectory_text([samples], grid_step))


def read_trajectory(path: str | Path) -> tuple[np.ndarray, float]:
    """Read a run file that holds exactly one run, such as a ground-truth
    file; returns (samples, grid_step)."""
    path = Path(path)
    runs, step = _bulk_parse([path]) or _raise_first_error([path], [str(path)], path)
    if len(runs) != 1:
        raise ProfileError(f"{path}: holds {len(runs)} runs, expected one")
    return runs[0], step


def write_ensemble(
    directory: str | Path,
    ensemble: TrajectoryEnsemble,
    manifest_name: str = "manifest.txt",
) -> Path:
    """Write every run, in order, into one run file, `runs.csv`, plus a
    manifest listing it; returns the manifest path. The file is byte for byte
    the concatenation of the files write_trajectory writes for the runs."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / RUNS_FILE).write_text(_trajectory_text(ensemble.runs, ensemble.grid_step))
    manifest = directory / manifest_name
    manifest.write_text(RUNS_FILE + "\n")
    return manifest


def load_ensemble(manifest_path: str | Path) -> TrajectoryEnsemble:
    """Load an ensemble from a manifest of run-file paths (one per line).

    Paths are resolved relative to the manifest's directory; blank lines and
    `#` comments are skipped. The ensemble holds every listed file's runs, in
    manifest order and in file order within a file, so one file of many runs
    and one file per run load alike. All runs must share one grid step.
    """
    manifest_path = Path(manifest_path)
    if not manifest_path.exists():
        raise ProfileError(f"manifest not found: {manifest_path}")
    lines = map(str.strip, manifest_path.read_text().splitlines())
    entries = [entry for entry in lines if entry and not entry.startswith("#")]
    if not entries:
        raise ProfileError(f"{manifest_path}: manifest lists no runs")
    paths = [manifest_path.parent / entry for entry in entries]
    runs, grid_step = _bulk_parse(paths) or _raise_first_error(paths, entries, manifest_path)
    return TrajectoryEnsemble(grid_step=grid_step, runs=runs)


def _bulk_parse(paths: list[Path]) -> tuple[list[np.ndarray], float] | None:
    """The run-file parser: the runs of every file in order and their shared
    grid step, or None for _raise_first_error to name the fault. A file's
    first line is the header; each later header line opens a new run, and
    blank lines are skipped."""
    data = []
    for path in paths:
        lines = list(map(str.strip, path.read_text().splitlines())) or [""]
        if lines[0] != TRAJECTORY_HEADER:
            return None
        rows = list(filter(None, lines))
        heads = list(compress(count(), map(TRAJECTORY_HEADER.__eq__, rows)))
        data += [rows[a + 1 : b] for a, b in zip(heads, heads[1:] + [len(rows)])]
    return _parse_runs(data)


def _parse_runs(data: list[list[str]]) -> tuple[list[np.ndarray], float] | None:
    """Each run's samples from its data rows, and their shared grid step, or
    None. All rows go through one float map, all grids through one vector
    check: a run's step is t[1] - t[0] (1.0 for one row), its times are
    finite, step > 0, |t[k+1] - t[k] - step| <= 1e-9 + 1e-6*step."""
    rows = list(chain.from_iterable(data))
    if not (all(data) and set(map(str.count, rows, repeat(","))) == {1}):  # one comma a row
        return None
    try:
        table = np.fromiter(map(float, ",".join(rows).split(",")), float).reshape(-1, 2)
    except ValueError:
        return None
    counts = np.array(list(map(len, data)))
    ends = np.cumsum(counts)
    times, starts = table[:, 0], ends - counts
    with np.errstate(invalid="ignore"):  # inf - inf is nan, which fails the test
        steps = np.where(counts > 1, times[np.minimum(starts + 1, ends - 1)] - times[starts], 1.0)
        step = np.repeat(steps, counts)[:-1]  # the step of the run each pair starts in
        close = np.abs(np.diff(times) - step) <= 1e-9 + 1e-6 * step
    close[ends[:-1] - 1] = True  # the pair across the boundary of two runs
    if not (close.all() and np.all(steps > 0) and np.isfinite(times[starts]).all()
            and np.all(np.abs(steps - steps[0]) <= 1e-9 * np.maximum(steps, steps[0]))):
        return None
    # Copies, so that no run keeps the whole table alive.
    runs = [table[e - n : e, 1].copy() for e, n in zip(ends.tolist(), counts.tolist())]
    return runs, float(steps[0])


def _raise_first_error(paths: list[Path], names: list[str], origin: Path) -> NoReturn:
    """Raise the error of the first fault in load order. It names the file and
    line; a run after a file's first is named by its header line. The
    per-line parse lives on here only to name a bad line; it accepts nothing."""
    steps = []
    for path, name in zip(paths, names):
        lines = path.read_text().splitlines()
        if not lines or lines[0].strip() != TRAJECTORY_HEADER:
            raise ProfileError(f"{path}: missing '{TRAJECTORY_HEADER}' header")
        runs = [(1, [])]  # (header line, its (line, text) rows)
        for ln, line in enumerate(lines[1:], start=2):
            if line.strip() == TRAJECTORY_HEADER:
                runs.append((ln, []))
            elif line.strip():
                runs[-1][1].append((ln, line))
        for head, rows in runs:
            where, run = (f"{path}:{head}", f"{name}:{head}") if head > 1 else (path, name)
            if not rows:
                raise ProfileError(f"{where}: no samples")
            for ln, line in rows:
                parts = line.split(",")
                if len(parts) != 2:
                    raise ProfileError(f"{path}:{ln}: expected two comma-separated columns")
                try:
                    list(map(float, parts))
                except ValueError as exc:
                    raise ProfileError(f"{path}:{ln}: {exc}") from exc
            parsed = _parse_runs([[line for _, line in rows]])  # only its grid can fail
            if parsed is None:
                raise ProfileError(f"{where}: time column is not a uniform grid")
            steps.append(parsed[1])
            if not math.isclose(steps[-1], steps[0], rel_tol=1e-9):
                raise ProfileError(f"{origin}: run {run} grid step {steps[-1]} != {steps[0]}")
    raise AssertionError("the bulk parse refused files that pass every check")
