"""Window segmentation tests.

The step-envelope expectations are frozen from the area-integration
arithmetic done inline here (GB*minute bookkeeping), independent of the
implementation's internals.
"""
import copy
import gc
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from sjasim.cluster import ExecutionWindow, SliceCatalog
from sjasim.profiles import RiskParams, TrajectoryEnsemble, build_profile, refresh_profile
from sjasim.segmentation import (
    Fragment,
    InfeasiblePlan,
    PlanRefusal,
    SegmentationConfig,
    _sliding_max,
    interest_verdict,
    plan_segments,
    plan_waste,
    segment_window,
    window_terms,
)
from sjasim.workload import JobRuntime, JobSpec
from test_cluster import smallest_covering

CAT = SliceCatalog()  # 5/10/20/40 GB
H = 60.0


def cfg(delta, tau_min=300.0, tau_max=3600.0, smooth=0.0):
    return SegmentationConfig(
        tau_min_s=tau_min,
        tau_max_s=tau_max,
        smoothing_window_s=smooth,
        hysteresis_delta=delta,
    )


def smooth_envelope(envelope, grid_step, smoothing_window_s):
    """segment_window's smoothing of `envelope`, as a float array."""
    x = np.asarray(envelope, dtype=float).tolist()
    return np.array(_sliding_max(x, grid_step, smoothing_window_s), dtype=float)


def oracle_waste(env, frags):
    """reserved and waste by explicit per-sample summation."""
    reserved = sum(f.capacity_mb * (f.end_idx - f.start_idx) for f in frags)
    area = sum(float(env[f.start_idx:f.end_idx].sum()) for f in frags)
    return reserved, reserved - area


class TestWorkedStepExample:
    # 4 GB for 10 min then 18 GB for 10 min, offered 20 GB:
    # unsplit reserves 20*20=400 GB*min with waste 400-220=180;
    # split reserves 5*10+20*10=250 with waste 30; gain (180-30)/400=0.375.
    env = np.array([4096.0] * 10 + [18432.0] * 10)

    def test_gain_is_0375(self):
        unsplit = [Fragment(0, 20, 20480)]
        split = [Fragment(0, 10, 5120), Fragment(10, 20, 20480)]
        _, w_unsplit = oracle_waste(self.env, unsplit)
        reserved, _ = oracle_waste(self.env, unsplit)
        _, w_split = oracle_waste(self.env, split)
        assert (w_unsplit - w_split) / reserved == 0.375

    def test_splits_below_threshold(self):
        frags = segment_window(self.env, H, CAT, 20480, cfg(0.2))
        assert frags == [Fragment(0, 10, 5120), Fragment(10, 20, 20480)]

    def test_holds_above_threshold(self):
        frags = segment_window(self.env, H, CAT, 20480, cfg(0.5))
        assert frags == [Fragment(0, 20, 20480)]

    def test_threshold_boundary_accepts_exact_gain(self):
        # gain == delta counts as profitable
        frags = segment_window(self.env, H, CAT, 20480, cfg(0.375))
        assert len(frags) == 2

    def test_plan_waste_matches_oracle(self):
        frags = segment_window(self.env, H, CAT, 20480, cfg(0.2))
        assert plan_waste(frags, self.env) == oracle_waste(self.env, frags)


class TestFlatEnvelope:
    def test_single_fragment_at_smallest_cover(self):
        env = np.full(30, 4096.0)  # 30-min window of 4 GB
        for delta in (0.0, 0.2, 0.9):
            frags = segment_window(env, H, CAT, 40960, cfg(delta))
            assert frags == [Fragment(0, 30, 5120)]


class TestFeasiblePrefix:
    def test_infeasible_from_the_start(self):
        env = np.full(10, 25600.0)
        with pytest.raises(InfeasiblePlan):
            segment_window(env, H, CAT, 20480, cfg(0.2))

    def test_prefix_ends_at_first_oversized_sample(self):
        env = np.array([8000.0] * 12 + [30000.0] * 8)
        frags = segment_window(env, H, CAT, 20480, cfg(0.2))
        assert frags[0].start_idx == 0
        assert frags[-1].end_idx == 12  # nothing at or past the 30 GB step
        assert all(f.capacity_mb == 10240 for f in frags)

    def test_prefix_shorter_than_tau_min_is_infeasible(self):
        env = np.array([8000.0] * 3 + [30000.0] * 10)
        with pytest.raises(InfeasiblePlan):
            segment_window(env, H, CAT, 20480, cfg(0.2, tau_min=300.0))


class TestDurationBounds:
    def test_tau_max_chops_long_flat_fragment(self):
        env = np.full(50, 8000.0)
        frags = segment_window(env, H, CAT, 10240, cfg(0.2, tau_max=900.0))
        assert [f.n_steps for f in frags] == [13, 13, 12, 12]  # 50 into <=15 pieces
        assert frags[0].start_idx == 0 and frags[-1].end_idx == 50
        assert all(f.capacity_mb == 10240 for f in frags)

    def test_tau_min_blocks_tiny_splits(self):
        # 18 GB valley of 2 min between 4 GB plateaus: a cut would create a
        # fragment below tau_min, so the plan keeps one 20 GB fragment.
        env = np.array([18432.0] * 2 + [4096.0] * 10)
        frags = segment_window(env, H, CAT, 20480, cfg(0.0, tau_min=300.0))
        assert frags == [Fragment(0, 12, 20480)]

    def test_untileable_fragment_keeps_its_whole_tau_max_pieces(self):
        # tau_min 7 and tau_max 10 steps: 13 steps cannot be cut into pieces
        # of 7 to 10, so the plan keeps the first 10 steps and ends there.
        # The 30 GB tail lies past the 20 GB offer: the feasible prefix is 13.
        seg = cfg(0.15, tau_min=420.0, tau_max=600.0)
        env = np.array([8000.0] * 13 + [30000.0] * 2)
        assert segment_window(env, H, CAT, 20480, seg) == [Fragment(0, 10, 10240)]
        # Behind an 8-step 4 GB fragment (the cut gains 0.19 >= 0.15), the
        # 13-step 8 GB fragment is cut the same way.
        env = np.array([4000.0] * 8 + [8000.0] * 13 + [30000.0] * 2)
        assert segment_window(env, H, CAT, 20480, seg) == [
            Fragment(0, 8, 5120), Fragment(8, 18, 10240)
        ]


class TestSmoothing:
    def test_sliding_max_dominates_raw(self):
        rng = np.random.default_rng(11)
        env = rng.uniform(1000, 30000, size=60)
        sm = smooth_envelope(env, H, 300.0)
        assert np.all(sm >= env - 1e-9)

    def test_zero_width_is_identity(self):
        env = np.array([1.0, 5.0, 2.0])
        assert np.array_equal(smooth_envelope(env, H, 0.0), env)

    def test_spike_widens_with_window(self):
        env = np.array([4096.0] * 10 + [18432.0] + [4096.0] * 10)
        sm = smooth_envelope(env, H, 240.0)  # +-2 samples
        assert np.all(sm[8:13] == 18432.0)
        assert sm[7] == 4096.0 and sm[13] == 4096.0

    def test_smoothing_never_lowers_capacity(self):
        rng = np.random.default_rng(12)
        env = rng.uniform(1000, 18000, size=40)
        raw = segment_window(env, H, CAT, 20480, cfg(0.2, smooth=0.0))
        smoothed = segment_window(env, H, CAT, 20480, cfg(0.2, smooth=240.0))
        assert max(f.capacity_mb for f in smoothed) >= max(f.capacity_mb for f in raw)


class TestConfigBounds:
    def test_step_conversions(self):
        c = cfg(0.1, tau_min=300.0, tau_max=900.0)
        assert c.steps(60.0)[:2] == (5, 15)
        assert c.steps(90.0)[:2] == (4, 10)  # ceil(300/90), floor(900/90)
        c2 = cfg(0.1, tau_min=50.0, tau_max=70.0)
        assert c2.steps(60.0)[:2] == (1, 1)

    def test_plan_key_holds_every_field(self):
        # plan_segments keys cached plans on plan_key: a field it missed
        # would let configs that plan differently share one plan.
        base = SegmentationConfig()
        assert replace(base).plan_key == base.plan_key
        for f in fields(SegmentationConfig):
            changed = replace(base, **{f.name: 2 * getattr(base, f.name) + 1})
            assert changed.plan_key != base.plan_key, f.name

    def test_validation(self):
        with pytest.raises(ValueError):
            SegmentationConfig(tau_min_s=0.0)
        with pytest.raises(ValueError):
            SegmentationConfig(tau_min_s=600.0, tau_max_s=300.0)
        with pytest.raises(ValueError):
            SegmentationConfig(hysteresis_delta=-0.1)

    @pytest.mark.parametrize(
        "name", ["tau_min_s", "tau_max_s", "smoothing_window_s", "hysteresis_delta"]
    )
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            SegmentationConfig(**{name: value})


def random_instance(rng):
    """One randomized (envelope, offer, config) draw; mirrors desk scale."""
    n = int(rng.integers(6, 90))
    kind = rng.integers(3)
    if kind == 0:  # piecewise steps
        env = np.repeat(rng.uniform(500, 38000, size=rng.integers(1, 6)),
                        rng.integers(2, 30, size=rng.integers(1, 6)).cumsum()[-1] or 2)[:n]
        if len(env) < n:
            env = np.pad(env, (0, n - len(env)), mode="edge")
    elif kind == 1:  # noisy ramp
        env = np.linspace(*rng.uniform(500, 38000, size=2), n) + rng.normal(0, 800, n)
    else:  # random walk
        env = np.abs(np.cumsum(rng.normal(0, 2500, n)) + rng.uniform(2000, 20000))
    env = np.clip(env, 1.0, 39000.0)
    offered = int(rng.choice(CAT.capacities_mb))
    c = SegmentationConfig(
        tau_min_s=float(rng.choice([60.0, 180.0, 300.0])),
        tau_max_s=float(rng.choice([600.0, 900.0, 3600.0])),
        smoothing_window_s=float(rng.choice([0.0, 120.0, 240.0])),
        hysteresis_delta=float(rng.uniform(0.0, 0.6)),
    )
    return env, offered, c


def check_postconditions(env, offered, c, frags):
    """Tiling, tau bounds, smallest covering, no profitable merge."""
    sm = smooth_envelope(env, H, c.smoothing_window_s)
    tmin, tmax, _ = c.steps(H)
    # tiling: contiguous from 0
    assert frags[0].start_idx == 0
    for a, b in zip(frags, frags[1:]):
        assert a.end_idx == b.start_idx
    for f in frags:
        assert tmin <= f.n_steps <= tmax
        peak = float(sm[f.start_idx:f.end_idx].max())
        assert f.capacity_mb == smallest_covering(CAT, peak)
        assert f.capacity_mb <= offered
    # no profitable merge among adjacent survivors
    for a, b in zip(frags, frags[1:]):
        total = b.end_idx - a.start_idx
        if total > tmax:
            continue
        cap = smallest_covering(CAT, float(sm[a.start_idx:b.end_idx].max()))
        merged_waste = cap * total - float(sm[a.start_idx:b.end_idx].sum())
        pair_waste = (
            a.capacity_mb * a.n_steps - float(sm[a.start_idx:a.end_idx].sum())
            + b.capacity_mb * b.n_steps - float(sm[b.start_idx:b.end_idx].sum())
        )
        gain = (merged_waste - pair_waste) / (cap * total)
        assert gain >= c.hysteresis_delta - 1e-9


class TestRandomizedPostconditions:
    def test_three_hundred_instances(self):
        rng = np.random.default_rng(2024)
        feasible = 0
        for _ in range(300):
            env, offered, c = random_instance(rng)
            try:
                frags = segment_window(env, H, CAT, offered, c)
            except InfeasiblePlan:
                continue
            feasible += 1
            check_postconditions(env, offered, c, frags)
        assert feasible > 150  # the draw must actually exercise the planner


class TestCoverOracle:
    """Each fragment's capacity is smallest_covering of its smoothed
    max; samples equal to a catalog capacity must take that capacity."""

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(st.one_of(st.sampled_from(CAT.capacities_mb),
                                  st.floats(1.0, 40960.0)), min_size=5, max_size=80),
        offered=st.sampled_from(CAT.capacities_mb),
        smooth=st.sampled_from([0.0, 120.0, 300.0]),
        delta=st.sampled_from([0.0, 0.15, 0.5]),
    )
    def test_fragment_capacity_covers_its_smoothed_max(self, values, offered, smooth, delta):
        env = np.array(values, dtype=float)
        c = cfg(delta, smooth=smooth)
        try:
            frags = segment_window(env, H, CAT, offered, c)
        except InfeasiblePlan:
            return
        smoothed = smooth_envelope(env, H, smooth)
        for f in frags:
            peak = float(smoothed[f.start_idx : f.end_idx].max())
            assert f.capacity_mb == smallest_covering(CAT, peak)
            assert type(f.capacity_mb) is int

    def test_sample_equal_to_a_capacity_takes_that_capacity(self):
        env = np.array([10240.0] * 6 + [20480.0] * 6)
        frags = segment_window(env, H, CAT, 20480, cfg(0.0))
        assert [f.capacity_mb for f in frags] == [10240, 20480]


def numpy_smooth_envelope(envelope, grid_step, smoothing_window_s):
    """smooth_envelope as it was written on scipy's maximum_filter1d."""
    from scipy.ndimage import maximum_filter1d

    half = int(round(smoothing_window_s / (2.0 * grid_step)))
    if half <= 0 or len(envelope) <= 1:
        return np.asarray(envelope, dtype=float)
    return maximum_filter1d(np.asarray(envelope, dtype=float), size=2 * half + 1,
                            mode="nearest")


def numpy_segment_window(envelope, grid_step, catalog, offered_capacity_mb, seg):
    """segment_window as it was written on numpy arrays, kept as the oracle
    the list version must equal."""

    def _waste(prefix, a, b, cap):
        return cap * (b - a) - (prefix[b] - prefix[a])

    def _chop(a, b, tmin, tmax):
        length = b - a
        if length < tmin:
            return None
        if length <= tmax:
            return [(a, b)]
        k = math.ceil(length / tmax)
        if k * tmin > length:
            return None
        base, extra = divmod(length, k)
        cuts = [a]
        for i in range(k):
            cuts.append(cuts[-1] + base + (1 if i < extra else 0))
        return [(cuts[i], cuts[i + 1]) for i in range(k)]

    u = np.asarray(envelope, dtype=float)
    if u.ndim != 1 or u.size == 0:
        raise InfeasiblePlan("empty window envelope")
    if offered_capacity_mb not in catalog:
        raise InfeasiblePlan(f"offered capacity {offered_capacity_mb} not in catalog")
    smoothed = numpy_smooth_envelope(u, grid_step, seg.smoothing_window_s)
    tmin, tmax, _ = seg.steps(grid_step)
    feasible = smoothed <= offered_capacity_mb
    n = int(np.argmin(feasible)) if not feasible.all() else len(u)
    if n < tmin:
        raise InfeasiblePlan("no tau_min prefix fits the offered capacity")
    caps = np.asarray(catalog.capacities_mb)
    covers = caps[np.searchsorted(caps, smoothed[:n], side="left")]
    prefix = np.concatenate([[0.0], np.cumsum(smoothed[:n])])

    def cover_of(a, b):
        c = int(covers[a:b].max())
        assert c <= offered_capacity_mb
        return c

    def split(a, b):
        cap = cover_of(a, b)
        parent_reserved = cap * (b - a)
        parent_waste = _waste(prefix, a, b, cap)
        best_gain, best_cut = -1.0, None
        level_change = covers[a + 1 : b] != covers[a : b - 1]
        for off in np.flatnonzero(level_change):
            i = a + 1 + int(off)
            if i - a < tmin or b - i < tmin:
                continue
            w = _waste(prefix, a, i, cover_of(a, i)) + _waste(prefix, i, b, cover_of(i, b))
            gain = (parent_waste - w) / parent_reserved
            if gain > best_gain + 1e-12:
                best_gain, best_cut = gain, i
        if best_cut is not None and best_gain >= seg.hysteresis_delta - 1e-12:
            return split(a, best_cut) + split(best_cut, b)
        return [Fragment(a, b, cap)]

    fragments = split(0, n) if n >= tmin else []
    bounded = []
    for f in fragments:
        if f.n_steps <= tmax:
            bounded.append(f)
            continue
        pieces = _chop(f.start_idx, f.end_idx, tmin, tmax)
        if pieces is None:
            k = (f.n_steps // tmax) * tmax
            if k >= tmin:
                pieces = _chop(f.start_idx, f.start_idx + k, tmin, tmax)
            if pieces is None:
                break
            bounded.extend(Fragment(a, b, cover_of(a, b)) for a, b in pieces)
            break
        bounded.extend(Fragment(a, b, cover_of(a, b)) for a, b in pieces)
    fragments = bounded
    if not fragments:
        raise InfeasiblePlan("duration bounds leave no plannable prefix")
    changed = True
    while changed and len(fragments) > 1:
        changed = False
        for i in range(len(fragments) - 1):
            left, right = fragments[i], fragments[i + 1]
            total = right.end_idx - left.start_idx
            if total > tmax:
                continue
            cap = cover_of(left.start_idx, right.end_idx)
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


def outcome(fn, *args):
    """A call's result, or the message of the InfeasiblePlan it raised."""
    try:
        return fn(*args)
    except InfeasiblePlan as exc:
        return f"InfeasiblePlan: {exc}"


class TestNumpyOracle:
    """The list segment_window equals the numpy one: the same fragments, or
    the same InfeasiblePlan message, and smooth_envelope the same array."""

    @seed(12)
    @settings(max_examples=400, deadline=None)
    @given(
        steps=st.lists(st.tuples(st.one_of(st.sampled_from([float(c) for c in CAT.capacities_mb]),
                                           st.floats(0.0, 24000.0), st.floats(0.0, 45000.0)),
                                 st.integers(1, 12)), min_size=1, max_size=8),
        offered=st.sampled_from([*CAT.capacities_mb * 2, 7000, 30000]),
        half=st.integers(0, 3),
        tmin=st.integers(1, 8),
        tmax_extra=st.integers(0, 10),
        delta=st.floats(0.0, 0.5),
        as_list=st.booleans(),
    )
    def test_same_fragments_and_messages(self, steps, offered, half, tmin, tmax_extra,
                                         delta, as_list):
        # Envelopes of 1 to 40 samples made of flat steps, so that covers
        # change level and splits, chops and merges all happen.
        values = [v for v, repeat in steps for _ in range(repeat)][:40]
        seg = cfg(delta, tau_min=tmin * H, tau_max=(tmin + tmax_extra) * H, smooth=2 * half * H)
        env = values if as_list else np.array(values)
        assert outcome(segment_window, env, H, CAT, offered, seg) == outcome(
            numpy_segment_window, env, H, CAT, offered, seg
        )
        smoothed = smooth_envelope(env, H, seg.smoothing_window_s)
        want = numpy_smooth_envelope(env, H, seg.smoothing_window_s)
        assert smoothed.dtype == want.dtype and np.array_equal(smoothed, want)

    @pytest.mark.parametrize("n", range(7))
    def test_smoothing_wider_than_the_window(self, n):
        # Half-widths up to twice the window: every sample may reach both ends.
        env = np.random.default_rng(n).uniform(0.0, 40000.0, size=n)
        for half in range(2 * n + 2):
            smoothed = smooth_envelope(env, H, 2 * half * H)
            want = numpy_smooth_envelope(env, H, 2 * half * H)
            assert smoothed.dtype == want.dtype and np.array_equal(smoothed, want), half


class TestNoReferenceCycles:
    def test_feasible_call_leaves_nothing_for_the_cyclic_gc(self):
        # Covers change level, so the plan splits, chops and merges.
        env = [4000.0] * 12 + [15000.0] * 20 + [30000.0] * 6 + [4000.0] * 12
        seg = cfg(0.1, tau_min=120.0, tau_max=900.0)
        gc.collect()
        gc.disable()
        try:
            frags = segment_window(env, H, CAT, 40960, seg)
            found = gc.collect()
        finally:
            gc.enable()
        assert len(frags) > 2
        assert found == 0


def make_job(env_runs, declared=39000.0, atomizable=True, position=0.0, work=3600.0):
    ens = TrajectoryEnsemble(grid_step=H, runs=[np.asarray(r, float) for r in env_runs])
    prof = build_profile(ens)
    spec = JobSpec("j", "t", 0.0, work, declared, atomizable=atomizable)
    return JobRuntime(spec=spec, profile=prof, actual=np.asarray(env_runs[0], float),
                      grid_step=H, position_s=position)


class TestPlanSegments:
    risk = RiskParams(eps=0.05)

    def test_positions_map_one_to_one_with_wall_time(self):
        runs = [[8000.0] * 31 for _ in range(4)]
        job = make_job(runs, work=1800.0)
        win = ExecutionWindow("g0s0", 10240, 500.0, 900.0)
        plans = plan_segments(job, win, CAT, self.risk, cfg(0.2))
        assert not isinstance(plans, PlanRefusal)
        for p in plans:
            assert p.pos_to_s - p.pos_from_s == p.duration_s
        # Offsets are window-relative; materialize adds the window start.
        assert plans[0].pos_from_s == 0.0 and plans[0].offset_s == 0.0
        for a, b in zip(plans, plans[1:]):
            assert b.pos_from_s == a.pos_to_s
            assert b.offset_s == a.offset_s + a.duration_s

    def test_window_duration_floors_to_whole_steps(self):
        # 336 s window -> 5 whole steps; plan must not spill past the window.
        runs = [[8000.0] * 31 for _ in range(4)]
        job = make_job(runs, work=1800.0)
        win = ExecutionWindow("g0s0", 10240, 0.0, 336.0)
        plans = plan_segments(job, win, CAT, self.risk, cfg(0.2, tau_min=60.0))
        assert not isinstance(plans, PlanRefusal)
        assert sum(p.duration_s for p in plans) == 300.0

    def test_resume_from_position(self):
        runs = [[8000.0] * 31 for _ in range(4)]
        job = make_job(runs, work=1800.0, position=600.0)
        win = ExecutionWindow("g0s0", 10240, 0.0, 600.0)
        plans = plan_segments(job, win, CAT, self.risk, cfg(0.2))
        assert plans[0].pos_from_s == 600.0
        chained = plan_segments(job, win, CAT, self.risk, cfg(0.2), start_position_s=900.0)
        assert chained[0].pos_from_s == 900.0

    def test_non_atomizable_refused(self):
        runs = [[8000.0] * 31 for _ in range(4)]
        job = make_job(runs, atomizable=False)
        win = ExecutionWindow("g0s0", 10240, 0.0, 600.0)
        assert isinstance(plan_segments(job, win, CAT, self.risk, cfg(0.2)), PlanRefusal)

    def test_short_window_refused(self):
        runs = [[8000.0] * 31 for _ in range(4)]
        job = make_job(runs)
        win = ExecutionWindow("g0s0", 10240, 0.0, 120.0)
        out = plan_segments(job, win, CAT, self.risk, cfg(0.2, tau_min=300.0))
        assert isinstance(out, PlanRefusal)

    def test_demand_floor_raises_assigned_capacity(self):
        # Profile says 8 GB but observed demand hit 12 GB: once the floor is
        # noted, the fragment must ride it up to the 20 GB class.
        runs = [[8000.0] * 31 for _ in range(4)]
        job = make_job(runs, work=1800.0)
        win = ExecutionWindow("g0s0", 20480, 0.0, 600.0)
        before = plan_segments(job, win, CAT, self.risk, cfg(0.2))
        job.note_demand(0, np.full(31, 12000.0))
        after = plan_segments(job, win, CAT, self.risk, cfg(0.2))
        assert all(p.capacity_mb == 10240 for p in before)
        assert all(p.capacity_mb == 20480 for p in after)

    def test_admission_stops_plan_at_first_failure(self):
        # Half the runs blow past 10 GB in the second half of the window, so
        # the joint probability collapses there; the plan must stop before it.
        lo = [[8000.0] * 31 for _ in range(10)]
        hi = [[8000.0] * 16 + [11000.0] * 15 for _ in range(10)]
        job = make_job(lo + hi, work=1800.0)
        win = ExecutionWindow("g0s0", 10240, 0.0, 1800.0)
        plans = plan_segments(job, win, CAT, self.risk, cfg(0.2, tau_min=60.0))
        assert not isinstance(plans, PlanRefusal)
        assert plans[-1].pos_to_s <= 960.0
        for p in plans:
            assert p.admission_probability >= 1.0 - 0.05


def cold_copy(job):
    """Deep copy of job and profile whose plan and verdict caches and
    admission index start empty."""
    fresh = copy.deepcopy(job)
    fresh.profile.plan_cache.clear()
    fresh.profile.verdict_cache.clear()
    fresh.profile.exceedance_index.clear()
    return fresh


# One step in the life of two jobs on one profile: either job plans a
# window, observes demand or moves, or their shared profile is refreshed.
who = st.sampled_from([0, 1])
plan_step = st.tuples(
    st.just("plan"),
    who,
    st.sampled_from([0.0, 90.0, 600.0]),  # window start
    st.sampled_from([240.0, 600.0, 1000.0, 2400.0]),  # window duration
    st.sampled_from([10240, 20480]),
    st.sampled_from([None, 300.0]),  # start_position_s
    st.sampled_from([0.2, 0.6]),  # hysteresis_delta
)
demand_step = st.tuples(
    st.just("demand"), who, st.integers(0, 40), st.sampled_from([9000.0, 12000.0, 16000.0])
)
move_step = st.tuples(st.just("move"), who, st.sampled_from([0.0, 300.0, 660.0, 1500.0]))
refresh_step = st.tuples(st.just("refresh"), st.sampled_from([6000.0, 11000.0]))


# Fragments of 2 to 15 minutes, unsmoothed. The 90% envelope (risk.eps 0.1)
# follows the two high runs from 1200 s on and the 70% one does not, so the
# risk level alone changes the assigned classes.
SEG_SHORT = SegmentationConfig(tau_min_s=120.0, tau_max_s=900.0, smoothing_window_s=0.0,
                               hysteresis_delta=0.2)


class TestPlanCache:
    risk = RiskParams(eps=0.1)

    def job(self):
        lo = [[7000.0] * 41 for _ in range(6)]
        hi = [[7000.0] * 20 + [15000.0] * 21 for _ in range(2)]
        return make_job(lo + hi, work=2400.0)

    def mates(self):
        """Two jobs that read one profile object, as ensemble-mates do."""
        job = self.job()
        mate = replace(job, spec=replace(job.spec, job_id="k"))
        assert mate.profile is job.profile
        return job, mate

    def test_hit_returns_the_cached_fragments_at_any_window_start(self):
        job = self.job()
        first = plan_segments(job, ExecutionWindow("g0s0", 20480, 0.0, 900.0), CAT,
                              self.risk, cfg(0.2, tau_min=60.0))
        assert isinstance(first, list)  # the bench tracer counts anything else as a refusal
        again = plan_segments(job, ExecutionWindow("g0s0", 20480, 0.0, 900.0), CAT,
                              self.risk, cfg(0.2, tau_min=60.0))
        shifted = plan_segments(job, ExecutionWindow("g0s1", 20480, 123.5, 900.0), CAT,
                                self.risk, cfg(0.2, tau_min=60.0))
        assert len(job.profile.plan_cache) == 1
        for hit in (again, shifted):
            assert len(hit) == len(first)
            assert all(h is f for h, f in zip(hit, first))

    def test_jobs_without_a_floor_share_one_plan(self):
        job, mate = self.mates()
        win = ExecutionWindow("g0s0", 20480, 0.0, 900.0)
        first = plan_segments(job, win, CAT, self.risk, cfg(0.2, tau_min=60.0))
        second = plan_segments(mate, win, CAT, self.risk, cfg(0.2, tau_min=60.0))
        assert len(job.profile.plan_cache) == 1
        assert len(second) == len(first)
        assert all(b is a for a, b in zip(first, second))

    def test_floors_at_one_version_keep_separate_plans(self):
        # Both floors are at version 1, but 12 GB needs the 20 GB class and
        # 24 GB the 40 GB one: a key on the version alone would mix them up.
        job, mate = self.mates()
        job.note_demand(0, np.full(10, 12000.0))
        mate.note_demand(0, np.full(10, 24000.0))
        assert job.demand_floor_version == mate.demand_floor_version
        win = ExecutionWindow("g0s0", 40960, 0.0, 900.0)
        plans = [plan_segments(j, win, CAT, self.risk, cfg(0.2)) for j in (job, mate)]
        assert len(job.profile.plan_cache) == 2
        assert plans[0] != plans[1]
        for j, got in zip((job, mate), plans):
            assert got == plan_segments(cold_copy(j), win, CAT, self.risk, cfg(0.2))

    def test_note_demand_and_refresh_invalidate(self):
        job = self.job()
        win = ExecutionWindow("g0s0", 20480, 0.0, 900.0)
        plan_segments(job, win, CAT, self.risk, cfg(0.2))
        job.note_demand(0, np.full(20, 12000.0))
        plan_segments(job, win, CAT, self.risk, cfg(0.2))
        assert len(job.profile.plan_cache) == 2
        old = job.profile
        job.profile = refresh_profile(old, np.full(41, 7000.0))
        assert job.profile.plan_cache == {}
        plan_segments(job, win, CAT, self.risk, cfg(0.2))
        assert len(job.profile.plan_cache) == 1 and len(old.plan_cache) == 2

    BASE = dict(window=ExecutionWindow("g0s0", 20480, 0.0, 2400.0), risk=RiskParams(eps=0.1),
                seg=SEG_SHORT, start_position_s=None, catalog=CAT)

    @pytest.mark.parametrize("change", [
        dict(window=ExecutionWindow("g0s0", 10240, 0.0, 2400.0)),
        dict(window=ExecutionWindow("g0s0", 20480, 0.0, 1000.0)),
        dict(risk=RiskParams(eps=0.3)),
        dict(seg=replace(SEG_SHORT, tau_max_s=600.0)),
        dict(start_position_s=300.0),
        dict(catalog=SliceCatalog((5120, 10240, 16384, 40960))),
    ], ids=["capacity", "steps", "risk_eps", "seg", "start", "catalog"])
    def test_each_key_input_separates_plans(self, change):
        job = self.job()
        job.note_demand(0, np.full(10, 12000.0))

        def plan(j, args):
            return plan_segments(j, args["window"], args["catalog"], args["risk"], args["seg"],
                                 start_position_s=args["start_position_s"])

        varied = {**self.BASE, **change}
        base_plan = plan(job, self.BASE)
        fresh = cold_copy(job)
        assert plan(fresh, varied) != base_plan  # the input matters
        assert plan(job, varied) == plan(fresh, varied)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.one_of(plan_step, demand_step, move_step, refresh_step),
                    min_size=1, max_size=25))
    def test_every_result_equals_a_cold_plan(self, steps):
        jobs = self.mates()
        for step in steps:
            kind = step[0]
            if kind == "plan":
                _, i, start, duration, cap, pos, delta = step
                seg = cfg(delta, tau_min=120.0, tau_max=900.0, smooth=120.0)
                win = ExecutionWindow("g0s0", cap, start, duration)
                got = plan_segments(jobs[i], win, CAT, self.risk, seg, start_position_s=pos)
                assert got == plan_segments(cold_copy(jobs[i]), win, CAT, self.risk, seg,
                                            start_position_s=pos)
            elif kind == "demand":
                jobs[step[1]].note_demand(step[2], np.full(5, step[3]))
            elif kind == "move":
                jobs[step[1]].position_s = step[2]
            else:
                fresh = refresh_profile(jobs[0].profile, np.full(41, step[1]))
                for job in jobs:
                    job.profile = fresh


class TestFirstFragment:
    """segment_window's first fragment, which interest_verdict bounds."""

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(st.one_of(st.sampled_from(CAT.capacities_mb),
                                  st.floats(1.0, 40960.0)), min_size=1, max_size=120),
        grid_step=st.sampled_from([7.0, 30.0, 60.0]),
        offered=st.sampled_from(CAT.capacities_mb),
        tau_min=st.sampled_from([60.0, 300.0, 500.0]),
        # Extras below tau_min leave tau_min > tau_max / 2, where _chop fails.
        tau_extra=st.sampled_from([0.0, 30.0, 200.0, 600.0, 3000.0]),
        smooth=st.sampled_from([0.0, 120.0, 300.0]),
        delta=st.sampled_from([0.0, 0.15, 0.5]),
    )
    def test_length_lies_between_tau_min_and_the_reach(
        self, values, grid_step, offered, tau_min, tau_extra, smooth, delta
    ):
        c = SegmentationConfig(tau_min_s=tau_min, tau_max_s=tau_min + tau_extra,
                               smoothing_window_s=smooth, hysteresis_delta=delta)
        smoothed = smooth_envelope(values, grid_step, smooth)
        n = next((i for i, v in enumerate(smoothed) if v > offered), len(smoothed))
        tmin, tmax, _ = c.steps(grid_step)
        try:
            first = segment_window(values, grid_step, CAT, offered, c)[0]
        except InfeasiblePlan:
            assert n < tmin
            return
        assert first.start_idx == 0
        assert tmin <= first.end_idx <= min(n, tmax)
        peak = float(smoothed[: first.end_idx].max())
        assert first.capacity_mb == smallest_covering(CAT, peak)


@st.composite
def shaped_runs(draw):
    """Runs of one stepped shape, each cut at its own length and spiking
    at its own steps: envelopes step within a window, and joint admission
    can fail where the envelope fits."""
    steps = draw(st.lists(st.tuples(st.sampled_from([3000.0, 7000.0, 9500.0, 15000.0]),
                                    st.integers(1, 20)), min_size=1, max_size=4))
    shape = [level for level, k in steps for _ in range(k)]
    runs = []
    for _ in range(draw(st.integers(2, 20))):
        run = shape[: draw(st.integers(1, len(shape)))]
        spikes = st.tuples(st.integers(0, len(run) - 1), st.sampled_from([12000.0, 26000.0]))
        for i, level in draw(st.lists(spikes, max_size=2)):
            run[i] = level
        runs.append(run)
    return runs


def verdict_of(job, win, risk, seg, start=None):
    terms = window_terms(win, job.profile.grid_step, CAT, risk, seg)
    return interest_verdict(job, terms, start)


class TestInterestVerdict:
    risk = RiskParams(eps=0.05)
    seg = cfg(0.15, tau_min=120.0, tau_max=600.0)

    def test_decided_verdicts_plan_nothing_and_serve_longer_windows(self):
        job = make_job([[8000.0] * 41 for _ in range(4)])
        for duration in (600.0, 900.0, 2400.0):
            win = ExecutionWindow("g0s0", 20480, 0.0, duration)
            assert verdict_of(job, win, self.risk, self.seg) == ""
        assert job.profile.plan_cache == {}
        assert len(job.profile.verdict_cache) == 1

    def test_open_bounds_fall_through_to_the_plan(self):
        # The first two steps need 10 GB and the rest 20 GB: no run fits
        # 10 GB over ten steps, and every run fits 20 GB over two, so only
        # the plan can tell.
        job = make_job([[8000.0] * 2 + [15000.0] * 8 for _ in range(4)])
        win = ExecutionWindow("g0s0", 20480, 0.0, 600.0)
        assert verdict_of(job, win, self.risk, self.seg) == ""
        assert len(job.profile.plan_cache) == 1

    def test_a_rise_within_smoothing_reach_of_tau_max_is_read(self):
        # Fragments of exactly 5 steps, smoothed 2 steps each way: the rise
        # at step 5 lies past tau_max but reaches steps 3 and 4, so the
        # 10-step window has no tau_min prefix while the 5-step one fits.
        job = make_job([[8000.0] * 5 + [30000.0] * 5 for _ in range(4)])
        seg = cfg(0.15, tau_min=300.0, tau_max=300.0, smooth=240.0)
        short, long = (ExecutionWindow("g0s0", 20480, 0.0, d) for d in (300.0, 600.0))
        assert verdict_of(job, short, self.risk, seg) == ""
        assert verdict_of(job, long, self.risk, seg) == (
            "no tau_min prefix fits the offered capacity")

    def test_open_verdicts_are_decided_per_window_length(self):
        # A flat 8 GB envelope, with 2 of 20 runs spiking to 12 GB at steps
        # 8 and 9: 10 GB fails over the ten steps the bounds read and holds
        # over two, so both windows share one open verdict. 900 s is
        # chopped into 8 + 7 steps and admits its first fragment; 1200 s
        # into 10 + 10, whose first fragment holds both spikes.
        runs = [[8000.0] * 20 for _ in range(20)]
        runs[0][8] = runs[1][9] = 12000.0
        job = make_job(runs)
        seg = cfg(0.15, tau_min=120.0, tau_max=600.0)
        verdicts = [verdict_of(job, ExecutionWindow("g0s0", 10240, 0.0, d), self.risk, seg)
                    for d in (900.0, 1200.0)]
        assert verdicts == ["", "no admissible fragment at the offered capacity"]
        assert len(job.profile.verdict_cache) == 1 and len(job.profile.plan_cache) == 2

    def test_refusals_keep_their_reasons(self):
        job = make_job([[8000.0] * 41 for _ in range(4)])
        big = make_job([[30000.0] * 41 for _ in range(4)])
        # 20 runs at 8 GB, each spiking to 12 GB at its own step: from 600 s
        # the envelope asks 10 GB, but two runs in ten exceed it within two
        # steps, so the bounds decline without a plan.
        staggered = [[8000.0] * 31 for _ in range(20)]
        for r, run in enumerate(staggered):
            run[r + 5] = 12000.0
        spiky = make_job(staggered, position=600.0)
        cases = [
            (job, ExecutionWindow("g0s0", 20480, 0.0, 60.0), "window shorter than tau_min"),
            (job, ExecutionWindow("g0s0", 15000, 0.0, 600.0),
             "offered capacity 15000 not in catalog"),
            (big, ExecutionWindow("g0s0", 20480, 0.0, 600.0),
             "no tau_min prefix fits the offered capacity"),
            (spiky, ExecutionWindow("g0s0", 10240, 0.0, 600.0),
             "no admissible fragment at the offered capacity"),
        ]
        for j, win, reason in cases:
            assert verdict_of(j, win, self.risk, self.seg) == reason
        assert spiky.profile.plan_cache == {}
        for j, win, reason in cases:
            assert plan_segments(j, win, CAT, self.risk, self.seg) == PlanRefusal(reason)

    @settings(max_examples=150, deadline=None)
    @given(
        runs=shaped_runs() | st.lists(
            st.lists(st.sampled_from([0.0, 3000.0, 7000.0, 9500.0, 12000.0, 15000.0, 26000.0]),
                     min_size=1, max_size=40),
            min_size=2, max_size=12,
        ),
        grid_step=st.sampled_from([7.0, 30.0, 60.0]),
        eps=st.sampled_from([0.05, 0.2, 0.5]),
        tau_min=st.sampled_from([30.0, 120.0, 300.0]),
        # Extras below tau_min leave tau_min > tau_max / 2, where _chop fails.
        tau_extra=st.sampled_from([0.0, 60.0, 300.0, 1800.0]),
        smooth=st.sampled_from([0.0, 60.0, 240.0]),
        delta=st.sampled_from([0.0, 0.15, 0.6]),
        position=st.sampled_from([0.0, 90.0, 600.0, 2400.0]),
        floor=st.none() | st.tuples(st.integers(0, 40), st.integers(1, 12),
                                    st.sampled_from([6000.0, 12000.0, 20000.0])),
        # Several windows, of one length or many, against one profile's
        # caches; a start is a chained grant's resume position.
        offers=st.lists(
            st.tuples(st.sampled_from(CAT.capacities_mb),
                      st.sampled_from([20.0, 100.0, 300.0, 600.0, 1200.0, 2400.0, 7200.0]),
                      st.sampled_from([None, 300.0, 1500.0])),
            min_size=1, max_size=8,
        ),
    )
    def test_verdict_equals_a_cold_plan(
        self, runs, grid_step, eps, tau_min, tau_extra, smooth, delta, position, floor, offers
    ):
        ens = TrajectoryEnsemble(grid_step=grid_step, runs=[np.asarray(r, float) for r in runs])
        spec = JobSpec("j", "t", 0.0, 3600.0, 39000.0)
        job = JobRuntime(spec=spec, profile=build_profile(ens),
                         actual=np.asarray(runs[0], float), grid_step=grid_step,
                         position_s=position)
        if floor is not None:
            job.note_demand(floor[0], np.full(floor[1], floor[2]))
        risk = RiskParams(eps=eps)
        seg = SegmentationConfig(tau_min_s=tau_min, tau_max_s=tau_min + tau_extra,
                                 smoothing_window_s=smooth, hysteresis_delta=delta)
        for capacity, duration, start in offers:
            win = ExecutionWindow("g0s0", capacity, 0.0, duration)
            want = plan_segments(cold_copy(job), win, CAT, risk, seg, start_position_s=start)
            got = verdict_of(job, win, risk, seg, start)
            assert got == (want.reason if isinstance(want, PlanRefusal) else "")
            # A plan cached on the way to a verdict is the one the winner mints.
            assert plan_segments(job, win, CAT, risk, seg, start_position_s=start) == want
