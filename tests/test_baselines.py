"""Monolithic baseline scheduler tests."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sjasim.baselines import (
    BaselineParams,
    Placement,
    checkpointed_progress_s,
    estimated_runtime_s,
    moldable_capacity,
    monolithic_place,
    pick_preemption_victim,
    transfer_delay_s,
)
from sjasim.cluster import ClusterState, ReservationConflict
from sjasim.profiles import TrajectoryEnsemble, build_profile
from sjasim.workload import JobRuntime, JobSpec, SubJob

H = 60.0


def make_job(job_id, declared, arrival=0.0, priority=0, runtimes=(1800.0,) * 4,
             position=0.0):
    runs = [np.full(int(r / H) + 1, min(declared, 4000.0)) for r in runtimes]
    prof = build_profile(TrajectoryEnsemble(grid_step=H, runs=runs))
    spec = JobSpec(job_id, "t0", arrival, float(np.median(runtimes)), declared,
                   priority=priority)
    return JobRuntime(spec=spec, profile=prof, actual=runs[0], grid_step=H,
                      position_s=position)


class TestEstimatedRuntime:
    def test_median_of_runtime_samples(self):
        job = make_job("j", 4000.0, runtimes=(600.0, 1200.0, 2400.0, 3000.0))
        # even count: numpy median averages the middle pair
        assert estimated_runtime_s(job) == pytest.approx((1200.0 + 2400.0) / 2)


class TestMonolithicPlace:
    def test_first_fit_takes_first_fitting_slice(self):
        cluster = ClusterState.from_layout(1, (5120, 20480, 10240))
        job = make_job("j", 9000.0)
        p, = monolithic_place([job], cluster, 0.0, "first_fit", BaselineParams())
        assert p.slice_id == "g0s1"  # first with capacity >= 9000

    def test_best_fit_minimizes_spare(self):
        cluster = ClusterState.from_layout(1, (5120, 20480, 10240))
        job = make_job("j", 9000.0)
        p, = monolithic_place([job], cluster, 0.0, "best_fit", BaselineParams())
        assert p.slice_id == "g0s2"  # 10240 leaves least spare

    def test_arrival_order_then_id(self):
        cluster = ClusterState.from_layout(1, (10240,))
        a = make_job("late", 9000.0, arrival=50.0)
        b = make_job("early", 9000.0, arrival=0.0)
        p, = monolithic_place([a, b], cluster, 60.0, "first_fit", BaselineParams())
        assert p.job_id == "early"  # one slice, earliest arrival wins

    def test_busy_slice_not_considered(self):
        cluster = ClusterState.from_layout(1, (10240,))
        cluster.slice("g0s0").reserve(0.0, 1000.0, "other")
        job = make_job("j", 9000.0)
        assert monolithic_place([job], cluster, 500.0, "first_fit", BaselineParams()) == []
        # a slice with any future reservation is equally unusable
        cluster2 = ClusterState.from_layout(1, (10240,))
        cluster2.slice("g0s0").reserve(5000.0, 6000.0, "other")
        assert monolithic_place([job], cluster2, 0.0, "first_fit", BaselineParams()) == []

    def test_estimate_scales_with_remaining_fraction(self):
        cluster = ClusterState.from_layout(1, (10240,))
        job = make_job("j", 9000.0, runtimes=(1800.0,) * 4, position=900.0)
        p, = monolithic_place([job], cluster, 0.0, "first_fit", BaselineParams())
        assert p.est_end_s == pytest.approx(900.0)  # half the median left

    def test_reservation_is_placed(self):
        # A dry run: the placement names its slice and span, and the engine
        # does the booking, so every timeline is left as it was.
        cluster = ClusterState.from_layout(2, (10240, 20480))
        cluster.slice("g0s1").reserve(0.0, 50.0, "done")
        before = timelines(cluster)
        jobs = [make_job(f"j{i}", 9000.0) for i in range(3)]
        got = monolithic_place(jobs, cluster, 100.0, "first_fit", BaselineParams())
        assert [(p.slice_id, p.start_s) for p in got] == [
            ("g0s0", 100.0), ("g0s1", 100.0), ("g1s0", 100.0)
        ]
        assert timelines(cluster) == before


def timelines(cluster):
    return [[(r.start, r.end, r.owner) for r in s.reservations] for s in cluster.slices]


def book(cluster, placements):
    """Book a pass's placements to their estimated ends, as the engine would
    when every estimate covers the real run."""
    for p in placements:
        cluster.slice(p.slice_id).reserve(p.start_s, p.est_end_s, p.job_id)


def oracle_place(queue, cluster, now, kind, params):
    """monolithic_place as it was when every job re-scanned every slice's
    whole timeline and best_fit broke ties through a slice-order dict; a
    slice placed earlier in the pass is taken."""
    taken = set()

    def idle(s):
        return s.slice_id not in taken and all(r.end <= now for r in s.reservations)

    placements = []
    for job in sorted(queue, key=lambda j: (j.spec.arrival_s, j.spec.job_id)):
        needed = job.spec.declared_peak_mb
        if kind == "moldable":
            chosen = moldable_capacity(job, cluster)
            if chosen is None:
                continue
            fitting = [s for s in cluster.slices if s.capacity_mb == chosen and idle(s)]
        else:
            fitting = [s for s in cluster.slices if s.capacity_mb >= needed and idle(s)]
            if kind == "best_fit":
                order = {s.slice_id: i for i, s in enumerate(cluster.slices)}
                fitting.sort(key=lambda s: (s.capacity_mb - needed, order[s.slice_id]))
        if not fitting:
            continue
        target = fitting[0]
        mult = params.multiplier(target.capacity_mb) if kind == "moldable" else 1.0
        est = max(job.grid_step,
                  estimated_runtime_s(job) * (1.0 - job.fraction_at(job.position_s)) * mult)
        placements.append(
            Placement(job.spec.job_id, target.slice_id, target.capacity_mb, now, now + est)
        )
        taken.add(target.slice_id)
    return placements


_CAPS = (5120, 10240, 20480, 40960)
_jobs = st.lists(
    st.tuples(
        st.sampled_from((3000.0, 5120.0, 9000.0, 10240.0, 15000.0, 30000.0, 50000.0)),
        st.integers(0, 3),  # arrival in minutes: ties are common
        st.sampled_from(((600.0,) * 2, (300.0, 900.0), (1200.0, 2400.0, 3000.0))),
        st.sampled_from((0.0, 120.0, 240.0)),  # progress already made
    ),
    max_size=8,
)
_pre = st.lists(st.tuples(st.integers(0, 7), st.integers(0, 1500), st.integers(60, 900)),
                max_size=5)


class TestPlacementOracle:
    @settings(max_examples=120, deadline=None)
    @given(
        kind=st.sampled_from(("first_fit", "best_fit", "moldable")),
        gpus=st.integers(1, 2),
        layout=st.lists(st.sampled_from(_CAPS), min_size=1, max_size=4),
        specs=_jobs,
        pre=_pre,
    )
    def test_same_placements_as_full_scan(self, kind, gpus, layout, specs, pre):
        clusters = [ClusterState.from_layout(gpus, tuple(layout)) for _ in range(2)]
        for c in clusters:
            slices = c.slices
            for k, start, width in pre:
                try:
                    slices[k % len(slices)].reserve(float(start), float(start + width), "bg")
                except ReservationConflict:
                    pass
        jobs = [
            make_job(f"j{i}", peak, arrival=60.0 * minute, runtimes=rts, position=pos)
            for i, (peak, minute, rts, pos) in enumerate(specs)
        ]
        params = BaselineParams(speedup_table={10240: 1.25, 40960: 0.8})
        waiting = list(jobs)
        for now in (0.0, 300.0, 900.0, 1800.0, 3600.0):
            before = timelines(clusters[0])
            got = monolithic_place(waiting, clusters[0], now, kind, params)
            assert timelines(clusters[0]) == before
            want = oracle_place(waiting, clusters[1], now, kind, params)
            assert got == want
            book(clusters[0], got)
            book(clusters[1], want)
            placed = {p.job_id for p in got}
            waiting = [j for j in waiting if j.spec.job_id not in placed]
        assert timelines(clusters[0]) == timelines(clusters[1])


class TestMoldable:
    def test_smallest_present_class_covering_peak(self):
        cluster = ClusterState.from_layout(1, (5120, 20480))
        assert moldable_capacity(make_job("j", 9000.0), cluster) == 20480
        assert moldable_capacity(make_job("j", 4000.0), cluster) == 5120
        assert moldable_capacity(make_job("j", 39000.0), cluster) is None

    def test_multiplier_stretches_runtime(self):
        # 120 s of estimated work at x1.5 books 180 s of wall time.
        cluster = ClusterState.from_layout(1, (10240,))
        job = make_job("j", 9000.0, runtimes=(120.0,) * 4)
        params = BaselineParams(speedup_table={10240: 1.5})
        p, = monolithic_place([job], cluster, 0.0, "moldable", params)
        assert p.est_end_s == pytest.approx(180.0)

    def test_moldable_ignores_bigger_free_slices(self):
        # Class fixed at submission: 10240 picked, only 20480 free -> wait.
        cluster = ClusterState.from_layout(1, (10240, 20480))
        cluster.slice("g0s0").reserve(0.0, 1000.0, "other")
        job = make_job("j", 9000.0)
        got = monolithic_place([job], cluster, 0.0, "moldable", BaselineParams())
        assert got == []


class TestMigrationCosts:
    def test_transfer_delay_formula(self):
        # 20 GB over 1 GB/s plus 5 s restart = 25 s
        params = BaselineParams()
        assert transfer_delay_s(20480.0, params) == pytest.approx(25.0)
        slow = BaselineParams(migrate_bandwidth_mb_s=512.0, migrate_fixed_overhead_s=2.0)
        assert transfer_delay_s(1024.0, slow) == pytest.approx(4.0)

    def test_checkpoint_floor(self):
        params = BaselineParams(ckpt_interval_s=600.0)
        assert checkpointed_progress_s(0.0, params) == 0.0
        assert checkpointed_progress_s(599.0, params) == 0.0
        assert checkpointed_progress_s(600.0, params) == 600.0
        assert checkpointed_progress_s(1799.0, params) == 1200.0

    def test_validation(self):
        with pytest.raises(ValueError):
            BaselineParams(migrate_bandwidth_mb_s=0.0)
        with pytest.raises(ValueError):
            BaselineParams(speedup_table={10240: 0.0})

    @pytest.mark.parametrize("kwargs", [
        dict(migrate_bandwidth_mb_s=float("nan")),
        dict(ckpt_interval_s=float("nan")),
        dict(ckpt_interval_s=float("inf")),
        dict(migrate_fixed_overhead_s=float("nan")),
        dict(migrate_fixed_overhead_s=float("inf")),
        dict(speedup_table={5120: float("nan")}),
        dict(speedup_table={5120: float("inf")}),
    ])
    def test_non_finite_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            BaselineParams(**kwargs)


def started_unit(job, slice_id, cap):
    """(job, its started whole-job unit on slice_id)."""
    unit = SubJob(f"{job.spec.job_id}-p0", job.spec.job_id, slice_id, cap, cap,
                  0.0, 1800.0, 0.0, 1800.0, kind="monolithic", started=True)
    return job, unit


class TestPreemptionVictim:
    def test_lowest_priority_below_waiter_with_fitting_slice(self):
        waiter = make_job("w", 9000.0, priority=5)
        running = [
            started_unit(make_job("high", 4000.0, priority=7), "g0s0", 10240),
            started_unit(make_job("low-small", 4000.0, priority=1), "g0s1", 5120),
            started_unit(make_job("low-big", 4000.0, priority=1, arrival=100.0), "g0s2", 10240),
            started_unit(make_job("mid", 4000.0, priority=3), "g0s3", 10240),
        ]
        victim = pick_preemption_victim(running, waiter)
        assert victim is running[2]  # prio 1, slice fits 9000

    def test_ties_go_to_later_arrival(self):
        waiter = make_job("w", 9000.0, priority=5)
        running = [
            started_unit(make_job("old", 4000.0, priority=1, arrival=0.0), "g0s0", 10240),
            started_unit(make_job("new", 4000.0, priority=1, arrival=500.0), "g0s1", 10240),
        ]
        assert pick_preemption_victim(running, waiter)[1].slice_id == "g0s1"

    def test_no_victim_when_nothing_qualifies(self):
        waiter = make_job("w", 9000.0, priority=2)
        running = [started_unit(make_job("r", 4000.0, priority=2), "g0s0", 10240)]
        assert pick_preemption_victim(running, waiter) is None  # not strictly below
        assert pick_preemption_victim([], waiter) is None
