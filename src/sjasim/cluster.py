"""Sliced-GPU cluster state: slice instances, reservation timelines, gaps.

Each GPU is statically partitioned into at most seven isolated slices; a
slice is modeled solely by its memory capacity in MB. A slice hosts at most
one reservation at any instant, so free capacity shows up purely as time
intervals on slice timelines.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass, field

__all__ = [
    "SliceCatalog",
    "DEFAULT_CATALOG",
    "Reservation",
    "SliceInstance",
    "GpuNode",
    "ClusterState",
    "check_layout",
    "ExecutionWindow",
    "ReservationConflict",
    "ReservationNotFound",
    "find_gaps",
    "reserve",
    "release_tail",
]

MAX_SLICES_PER_GPU = 7


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
        caps = tuple(self.capacities_mb)
        if not caps or list(caps) != sorted(set(caps)):
            raise ValueError("catalog capacities must be ascending and unique")
        if any(c <= 0 for c in caps):
            raise ValueError("catalog capacities must be positive")
        object.__setattr__(self, "capacities_mb", caps)

    def __contains__(self, capacity: int) -> bool:
        return capacity in self.capacities_mb

    def smallest_covering(self, demand_mb: float) -> int | None:
        """Smallest capacity >= demand_mb, or None when nothing covers it."""
        for c in self.capacities_mb:
            if c >= demand_mb:
                return c
        return None


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

    def __repr__(self) -> str:
        return f"SliceInstance({self.slice_id}, {self.capacity_mb} MB, {len(self.reservations)} res)"

    def _starts(self) -> list[float]:
        return [r.start for r in self.reservations]

    def reserve(self, start: float, end: float, owner: str) -> Reservation:
        if not end > start:
            raise ReservationConflict(f"{self.slice_id}: empty interval [{start}, {end})")
        i = bisect.bisect_right(self._starts(), start)
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

    def extend(self, owner: str, new_end: float) -> None:
        """Push the end of `owner`'s latest reservation out to new_end (never
        in). Running into the next reservation raises ReservationConflict."""
        for i in reversed(range(len(self.reservations))):
            r = self.reservations[i]
            if r.owner == owner:
                later = self.reservations[i + 1 : i + 2]
                if later and later[0].start < new_end:
                    raise ReservationConflict(
                        f"{self.slice_id}: extending {r} to {new_end} overlaps {later[0]}"
                    )
                r.end = max(r.end, new_end)
                return
        raise ReservationNotFound(f"no reservation for {owner} on {self.slice_id}")

    def idle_everywhere_after(self, t: float) -> bool:
        """True when no reservation touches [t, infinity).

        The timeline is sorted and non-overlapping, so the last reservation
        ends latest.
        """
        return not self.reservations or self.reservations[-1].end <= t


@dataclass
class GpuNode:
    node_id: str
    slices: list[SliceInstance]


class ClusterState:
    """All GPUs plus their slice reservation timelines.

    Owned by a single simulation engine; mutation happens on one event path.
    """

    def __init__(self, nodes: list[GpuNode], catalog: SliceCatalog = DEFAULT_CATALOG):
        self.nodes = nodes
        self.catalog = catalog
        self._by_id: dict[str, SliceInstance] = {}
        for node in nodes:
            _check_gpu(node.node_id, [s.capacity_mb for s in node.slices], catalog)
            for s in node.slices:
                if s.slice_id in self._by_id:
                    raise ValueError(f"duplicate slice id {s.slice_id}")
                self._by_id[s.slice_id] = s

    @classmethod
    def from_layout(
        cls,
        gpus: int,
        slices_per_gpu: tuple[int, ...],
        catalog: SliceCatalog = DEFAULT_CATALOG,
        gpu_capacity_mb: int | None = None,
    ) -> "ClusterState":
        """Homogeneous cluster: every GPU carved into the same slice sequence."""
        check_layout(gpus, slices_per_gpu, catalog)
        budget = gpu_capacity_mb if gpu_capacity_mb is not None else sum(slices_per_gpu)
        if sum(slices_per_gpu) > budget:
            raise ValueError("slice capacities exceed GPU capacity")
        nodes = []
        for g in range(gpus):
            slices = [
                SliceInstance(f"g{g}s{k}", cap) for k, cap in enumerate(slices_per_gpu)
            ]
            nodes.append(GpuNode(f"g{g}", slices))
        return cls(nodes, catalog)

    def slices(self) -> list[SliceInstance]:
        """Slices in deterministic (node, slice) order."""
        return [s for node in self.nodes for s in node.slices]

    def slice(self, slice_id: str) -> SliceInstance:
        try:
            return self._by_id[slice_id]
        except KeyError:
            raise ReservationNotFound(f"unknown slice {slice_id}") from None

    @property
    def total_capacity_mb(self) -> int:
        return sum(s.capacity_mb for s in self.slices())


def _check_gpu(gpu: str, capacities, catalog: SliceCatalog) -> None:
    if len(capacities) > MAX_SLICES_PER_GPU:
        raise ValueError(f"{gpu}: more than {MAX_SLICES_PER_GPU} slices")
    for cap in capacities:
        if cap not in catalog:
            raise ValueError(f"{gpu}: slice capacity {cap} not in catalog")


def check_layout(
    gpus: int, slices_per_gpu: tuple[int, ...], catalog: SliceCatalog = DEFAULT_CATALOG
) -> None:
    """Reject a homogeneous layout that ClusterState would refuse."""
    if gpus <= 0:
        raise ValueError("need at least one GPU")
    _check_gpu("slices_per_gpu", slices_per_gpu, catalog)


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
    for s in cluster.slices():
        for lo, hi in s.free_intervals(now, now + horizon):
            if hi - lo >= min_duration and hi - lo > 1e-9:
                windows.append(ExecutionWindow(s.slice_id, s.capacity_mb, lo, hi - lo))
    return windows


def reserve(
    cluster: ClusterState, slice_id: str, start: float, end: float, owner: str
) -> Reservation:
    """Record [start, end) on the slice for `owner`; conflicts raise."""
    return cluster.slice(slice_id).reserve(start, end, owner)


def release_tail(cluster: ClusterState, owner: str, actual_end: float) -> None:
    """Truncate `owner`'s live reservation to actual_end (early completion).

    A reservation whose start is at or past actual_end is removed outright.
    Raises ReservationNotFound when the owner holds no reservation ending
    after actual_end (already ended, or unknown).
    """
    for s in cluster.slices():
        for i, r in enumerate(s.reservations):
            if r.owner == owner and r.end > actual_end:
                if r.start >= actual_end:
                    del s.reservations[i]
                else:
                    r.end = actual_end
                return
    raise ReservationNotFound(f"no live reservation for {owner} past {actual_end}")
