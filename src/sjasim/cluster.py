"""Sliced-GPU cluster state: slice instances, reservation timelines, gaps.

Every GPU is statically partitioned into the same sequence of at most seven
isolated slices, and the cluster is the flat tuple of all those slices; a
slice is modeled solely by its memory capacity in MB. A slice hosts at most
one reservation at any instant, so free capacity shows up purely as time
intervals on slice timelines.
"""
from __future__ import annotations

import bisect
import operator
from dataclasses import dataclass, field

__all__ = [
    "SliceCatalog",
    "DEFAULT_CATALOG",
    "Reservation",
    "SliceInstance",
    "ClusterState",
    "check_layout",
    "ExecutionWindow",
    "ReservationConflict",
    "ReservationNotFound",
    "find_gaps",
]

MAX_SLICES_PER_GPU = 7


def _int_capacities(values, what: str) -> tuple[int, ...]:
    try:  # operator.index takes ints and numpy integers, not floats
        return tuple(map(operator.index, values))
    except TypeError:
        raise ValueError(f"{what} capacities must be integers") from None


class ReservationConflict(ValueError):
    """Requested interval overlaps an existing reservation."""


class ReservationNotFound(KeyError):
    """No live reservation matches the given owner."""


@dataclass(frozen=True)
class SliceCatalog:
    """Ascending menu of slice capacities the hardware can be carved into."""

    capacities_mb: tuple[int, ...] = field(
        default=(5120, 10240, 20480, 40960), metadata={"key": "cluster.catalog"}
    )

    def __post_init__(self) -> None:
        caps = _int_capacities(self.capacities_mb, "catalog")
        if not caps or list(caps) != sorted(set(caps)):
            raise ValueError("catalog capacities must be ascending and unique")
        if any(c <= 0 for c in caps):
            raise ValueError("catalog capacities must be positive")
        object.__setattr__(self, "capacities_mb", caps)

    def __contains__(self, capacity: int) -> bool:
        return capacity in self.capacities_mb


DEFAULT_CATALOG = SliceCatalog()


@dataclass
class Reservation:
    start: float
    end: float
    owner: str


class SliceInstance:
    """One isolated slice with a time-ordered, non-overlapping timeline."""

    def __init__(self, slice_id: str, capacity_mb: int):
        self.slice_id = slice_id
        self.capacity_mb = capacity_mb
        self.reservations: list[Reservation] = []  # sorted by start

    def reserve(self, start: float, end: float, owner: str) -> Reservation:
        if not end > start:
            raise ReservationConflict(f"{self.slice_id}: empty interval [{start}, {end})")
        i = bisect.bisect_right(self.reservations, start, key=lambda r: r.start)
        if i > 0 and self.reservations[i - 1].end > start:
            raise ReservationConflict(
                f"{self.slice_id}: [{start}, {end}) overlaps {self.reservations[i - 1]}"
            )
        if i < len(self.reservations) and self.reservations[i].start < end:
            raise ReservationConflict(
                f"{self.slice_id}: [{start}, {end}) overlaps {self.reservations[i]}"
            )
        res = Reservation(start, end, owner)
        self.reservations.insert(i, res)
        return res

    def free_intervals(self, start: float, end: float) -> list[tuple[float, float]]:
        """Maximal unreserved intervals inside [start, end)."""
        gaps = []
        cursor = start
        for r in self.reservations:
            if r.end <= cursor:
                continue
            if r.start >= end:
                break
            if r.start > cursor:
                gaps.append((cursor, min(r.start, end)))
            cursor = max(cursor, r.end)
            if cursor >= end:
                break
        if cursor < end:
            gaps.append((cursor, end))
        return gaps

    def release_tail(self, owner: str, actual_end: float) -> None:
        """Truncate `owner`'s live reservation to actual_end (early end).

        A reservation whose start is at or past actual_end is removed
        outright. Raises ReservationNotFound when the owner holds no
        reservation ending after actual_end (already ended, or unknown).
        """
        for i, r in enumerate(self.reservations):
            if r.owner == owner and r.end > actual_end:
                if r.start >= actual_end:
                    del self.reservations[i]
                else:
                    r.end = actual_end
                return
        raise ReservationNotFound(
            f"no live reservation for {owner} past {actual_end} on {self.slice_id}"
        )

    def idle_everywhere_after(self, t: float) -> bool:
        """True when no reservation touches [t, infinity).

        The timeline is sorted and non-overlapping, so the last reservation
        ends latest.
        """
        return not self.reservations or self.reservations[-1].end <= t


class ClusterState:
    """Every GPU carved into the same slice sequence, held as one flat tuple
    of slices in (GPU, slice) order, ids g<gpu>s<ordinal>.

    Owned by a single simulation engine; mutation happens on one event path.
    """

    def __init__(self, slices: tuple[SliceInstance, ...]):
        self.slices = slices
        # Sorted distinct capacities, kept once: the layout never changes.
        self.capacities_mb = tuple(sorted({s.capacity_mb for s in slices}))
        self._by_id = {s.slice_id: s for s in slices}

    @classmethod
    def from_layout(
        cls,
        gpus: int,
        slices_per_gpu: tuple[int, ...],
        catalog: SliceCatalog = DEFAULT_CATALOG,
    ) -> "ClusterState":
        """Homogeneous cluster: every GPU carved into slices_per_gpu."""
        slices_per_gpu = check_layout(gpus, slices_per_gpu, catalog)
        return cls(
            tuple(
                SliceInstance(f"g{g}s{k}", cap)
                for g in range(gpus)
                for k, cap in enumerate(slices_per_gpu)
            )
        )

    def slice(self, slice_id: str) -> SliceInstance:
        try:
            return self._by_id[slice_id]
        except KeyError:
            raise ReservationNotFound(f"unknown slice {slice_id}") from None

    @property
    def total_capacity_mb(self) -> int:
        return sum(s.capacity_mb for s in self.slices)


def check_layout(
    gpus: int, slices_per_gpu: tuple[int, ...], catalog: SliceCatalog = DEFAULT_CATALOG
) -> tuple[int, ...]:
    """Reject a layout that ClusterState would refuse; return it as plain ints."""
    if gpus <= 0:
        raise ValueError("need at least one GPU")
    caps = _int_capacities(slices_per_gpu, "slices_per_gpu")
    if len(caps) > MAX_SLICES_PER_GPU:
        raise ValueError(f"slices_per_gpu: more than {MAX_SLICES_PER_GPU} slices")
    for cap in caps:
        if cap not in catalog:
            raise ValueError(f"slices_per_gpu: slice capacity {cap} not in catalog")
    return caps


@dataclass(frozen=True)
class ExecutionWindow:
    """A contiguous free interval on one slice, offered for execution."""

    slice_id: str
    capacity_mb: int
    start: float
    duration: float

    @property
    def end(self) -> float:
        return self.start + self.duration


def find_gaps(
    cluster: ClusterState, now: float, horizon: float, min_duration: float = 0.0
) -> list[ExecutionWindow]:
    """Maximal free windows per slice within [now, now + horizon).

    The result partitions the unreserved capacity-time in the lookahead
    range: windows on one slice are disjoint and, together with that slice's
    reservations, cover [now, now + horizon) exactly (before the
    min_duration filter). Order is (slice order, start).
    """
    if horizon <= 0:
        return []
    windows = []
    for s in cluster.slices:
        for lo, hi in s.free_intervals(now, now + horizon):
            if hi - lo >= min_duration and hi - lo > 1e-9:
                windows.append(ExecutionWindow(s.slice_id, s.capacity_mb, lo, hi - lo))
    return windows

