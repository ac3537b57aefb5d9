"""Slice timeline tests.

Free-interval expectations come from a brute-force occupancy scan over a
fine grid, not from the timeline code itself.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sjasim.cluster import (
    ClusterState,
    ExecutionWindow,
    ReservationConflict,
    ReservationNotFound,
    SliceCatalog,
    SliceInstance,
    check_layout,
    find_gaps,
)


def oracle_idle_everywhere_after(s, t):
    """The full scan idle_everywhere_after used before it read only the last end."""
    return all(r.end <= t for r in s.reservations)


def oracle_free(reservations, start, end, step=0.25):
    """Maximal free intervals by scanning occupancy on a fine grid."""
    ticks = []
    t = start
    while t < end - 1e-12:
        busy = any(s <= t < e for s, e in reservations)
        ticks.append((t, busy))
        t += step
    gaps = []
    run_start = None
    for t, busy in ticks:
        if not busy and run_start is None:
            run_start = t
        elif busy and run_start is not None:
            gaps.append((run_start, t))
            run_start = None
    if run_start is not None:
        gaps.append((run_start, end))
    return gaps


class TestCatalog:
    def test_smallest_covering_walks_up(self):
        cat = SliceCatalog((5120, 10240, 20480, 40960))
        assert cat.smallest_covering(1.0) == 5120
        assert cat.smallest_covering(5120.0) == 5120
        assert cat.smallest_covering(5121.0) == 10240
        assert cat.smallest_covering(40960.0) == 40960
        assert cat.smallest_covering(40961.0) is None

    def test_rejects_unsorted_or_duplicate(self):
        with pytest.raises(ValueError):
            SliceCatalog((10240, 5120))
        with pytest.raises(ValueError):
            SliceCatalog((5120, 5120))
        with pytest.raises(ValueError):
            SliceCatalog(())

    def test_membership(self):
        cat = SliceCatalog((5120, 20480))
        assert 5120 in cat and 20480 in cat and 10240 not in cat

    def test_numpy_integers_become_ints(self):
        cat = SliceCatalog(tuple(np.array([5120, 10240])))
        assert cat.capacities_mb == (5120, 10240)
        assert all(type(c) is int for c in cat.capacities_mb)

    @pytest.mark.parametrize("caps", [(5120.5, 10240), (5120.0, 10240), (np.float64(5120), 10240)])
    def test_non_integer_capacity_rejected(self, caps):
        with pytest.raises(ValueError, match="integers"):
            SliceCatalog(caps)


class TestLayout:
    def test_ids_are_node_slice_ordinals(self):
        cluster = ClusterState.from_layout(2, (20480, 10240))
        assert [s.slice_id for s in cluster.slices] == ["g0s0", "g0s1", "g1s0", "g1s1"]
        assert cluster.total_capacity_mb == 2 * (20480 + 10240)

    def test_capacities_are_sorted_and_distinct(self):
        cluster = ClusterState.from_layout(2, (20480, 5120, 10240, 5120))
        assert cluster.capacities_mb == (5120, 10240, 20480)

    def test_slice_capacity_must_be_in_catalog(self):
        with pytest.raises(ValueError):
            ClusterState.from_layout(1, (999,))

    def test_at_most_seven_slices(self):
        ClusterState.from_layout(1, (5120,) * 7)
        with pytest.raises(ValueError):
            ClusterState.from_layout(1, (5120,) * 8)

    @pytest.mark.parametrize(
        "gpus, slices, match",
        [(0, (5120,), "GPU"), (-1, (5120,), "GPU"), (1, (3000,), "not in catalog"),
         (2, (5120,) * 8, "more than 7")],
    )
    def test_check_layout_matches_from_layout(self, gpus, slices, match):
        with pytest.raises(ValueError, match=match):
            check_layout(gpus, slices)
        with pytest.raises(ValueError, match=match):
            ClusterState.from_layout(gpus, slices)

    def test_check_layout_accepts_what_from_layout_builds(self):
        check_layout(2, (20480, 10240, 5120, 5120))
        check_layout(1, (5120,) * 7)

    def test_layout_capacities_become_ints(self):
        layout = tuple(np.array([20480, 5120]))
        assert check_layout(1, layout) == (20480, 5120)
        cluster = ClusterState.from_layout(1, layout)
        assert all(type(s.capacity_mb) is int for s in cluster.slices)

    def test_non_integer_layout_capacity_rejected(self):
        with pytest.raises(ValueError, match="integers"):
            check_layout(1, (20480, 5120.5))
        with pytest.raises(ValueError, match="integers"):
            ClusterState.from_layout(1, (20480.0,))

    def test_unknown_slice_lookup(self):
        cluster = ClusterState.from_layout(1, (5120,))
        with pytest.raises(ReservationNotFound):
            cluster.slice("g9s9")


class TestReserve:
    def test_overlap_rejected_both_sides(self):
        s = SliceInstance("a", 10240)
        s.reserve(100.0, 200.0, "x")
        with pytest.raises(ReservationConflict):
            s.reserve(150.0, 250.0, "y")  # collides from the right
        with pytest.raises(ReservationConflict):
            s.reserve(50.0, 150.0, "y")  # collides from the left
        with pytest.raises(ReservationConflict):
            s.reserve(120.0, 130.0, "y")  # nested
        s.reserve(200.0, 300.0, "y")  # half-open: touching is fine
        s.reserve(0.0, 100.0, "z")

    def test_empty_interval_rejected(self):
        s = SliceInstance("a", 10240)
        with pytest.raises(ReservationConflict):
            s.reserve(100.0, 100.0, "x")

    def test_kept_sorted_by_start(self):
        s = SliceInstance("a", 10240)
        for lo, hi in [(300.0, 400.0), (0.0, 50.0), (100.0, 200.0)]:
            s.reserve(lo, hi, "x")
        assert [r.start for r in s.reservations] == [0.0, 100.0, 300.0]


class TestFreeIntervals:
    def test_matches_scan_oracle(self):
        s = SliceInstance("a", 10240)
        res = [(10.0, 20.0), (30.0, 45.0), (60.0, 70.0)]
        for lo, hi in res:
            s.reserve(lo, hi, "x")
        got = s.free_intervals(0.0, 80.0)
        assert got == oracle_free(res, 0.0, 80.0)
        assert got == [(0.0, 10.0), (20.0, 30.0), (45.0, 60.0), (70.0, 80.0)]

    def test_window_clips_reservations(self):
        s = SliceInstance("a", 10240)
        s.reserve(0.0, 50.0, "x")
        s.reserve(90.0, 200.0, "y")
        assert s.free_intervals(40.0, 100.0) == [(50.0, 90.0)]
        # The scan stops at a reservation that starts past the query end.
        s.reserve(300.0, 400.0, "z")
        assert s.free_intervals(210.0, 250.0) == [(210.0, 250.0)]

    def test_fully_free_and_fully_busy(self):
        s = SliceInstance("a", 10240)
        assert s.free_intervals(5.0, 15.0) == [(5.0, 15.0)]
        s.reserve(0.0, 20.0, "x")
        assert s.free_intervals(5.0, 15.0) == []

    def test_idle_everywhere_after(self):
        s = SliceInstance("a", 10240)
        s.reserve(0.0, 100.0, "x")
        assert not s.idle_everywhere_after(50.0)
        assert s.idle_everywhere_after(100.0)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 38), st.integers(1, 10)), max_size=8))
    def test_random_timelines_match_oracle(self, spans):
        s = SliceInstance("a", 10240)
        placed = []
        for lo, width in spans:
            try:
                s.reserve(float(lo), float(lo + width), "x")
                placed.append((float(lo), float(lo + width)))
            except ReservationConflict:
                pass
        assert s.free_intervals(0.0, 50.0) == oracle_free(placed, 0.0, 50.0, step=0.5)


class TestFindGaps:
    def test_partitions_lookahead_range(self):
        cluster = ClusterState.from_layout(1, (20480, 10240))
        cluster.slice("g0s0").reserve(0.0, 600.0, "a")
        cluster.slice("g0s0").reserve(900.0, 1500.0, "b")
        cluster.slice("g0s1").reserve(300.0, 2400.0, "c")
        horizon = 1800.0
        gaps = find_gaps(cluster, 0.0, horizon)
        for s in cluster.slices:
            mine = [g for g in gaps if g.slice_id == s.slice_id]
            covered = sum(g.duration for g in mine)
            busy = sum(
                min(r.end, horizon) - max(r.start, 0.0)
                for r in s.reservations
                if r.start < horizon and r.end > 0.0
            )
            assert covered + busy == pytest.approx(horizon)

    def test_min_duration_filters(self):
        cluster = ClusterState.from_layout(1, (20480,))
        cluster.slice("g0s0").reserve(200.0, 1000.0, "a")
        gaps = find_gaps(cluster, 0.0, 1800.0, min_duration=300.0)
        assert [(g.start, g.duration) for g in gaps] == [(1000.0, 800.0)]

    def test_zero_horizon(self):
        cluster = ClusterState.from_layout(1, (20480,))
        assert find_gaps(cluster, 0.0, 0.0) == []

    def test_window_end_property(self):
        w = ExecutionWindow("g0s0", 20480, 120.0, 480.0)
        assert w.end == 600.0


class TestReleaseTail:
    def test_truncates_live_reservation(self):
        s = SliceInstance("a", 20480)
        s.reserve(0.0, 1000.0, "u1")
        s.release_tail("u1", 400.0)
        assert [(r.start, r.end) for r in s.reservations] == [(0.0, 400.0)]

    def test_removes_future_reservation(self):
        s = SliceInstance("a", 20480)
        s.reserve(500.0, 1000.0, "u1")
        s.release_tail("u1", 200.0)
        assert s.reservations == []

    def test_unknown_owner_raises(self):
        s = SliceInstance("a", 20480)
        s.reserve(0.0, 100.0, "u1")
        with pytest.raises(ReservationNotFound):
            s.release_tail("u2", 50.0)
        with pytest.raises(ReservationNotFound):
            s.release_tail("u1", 100.0)  # already ended by then


# One timeline operation: (op, owner index, a, b) with small integer times.
_ops = st.tuples(
    st.sampled_from(["reserve", "release_tail"]),
    st.integers(0, 3),
    st.integers(0, 40),
    st.integers(1, 15),
)


class TestIdleOracle:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 1), _ops), max_size=25))
    def test_idle_everywhere_after_matches_full_scan(self, steps):
        slices = ClusterState.from_layout(1, (20480, 10240)).slices
        for n, (k, (op, who, a, b)) in enumerate(steps):
            s = slices[k]
            owner = s.reservations[who % len(s.reservations)].owner if s.reservations else "-"
            try:
                if op == "reserve":
                    s.reserve(float(a), float(a + b), f"u{n}")
                else:
                    s.release_tail(owner, float(a))
            except (ReservationConflict, ReservationNotFound):
                pass
            for sl in slices:
                for r0, r1 in zip(sl.reservations, sl.reservations[1:]):
                    assert r0.end <= r1.start
                for t in range(0, 60, 3):
                    assert sl.idle_everywhere_after(float(t)) == oracle_idle_everywhere_after(sl, t)
