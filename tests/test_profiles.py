"""Profile estimation tests.

Expected values are frozen from small independent oracles implemented inline
(sort-and-index for quantiles, loop counting for admission), not from the
code under test.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sjasim import profiles as pf
from sjasim.scenarios import SCENARIO_BUILDERS, export_scenario

RISK = pf.RiskParams()  # eps = alpha_t = 0.05


def oracle_quantile(values, q):
    """ceil(q*n)-th order statistic by explicit sort-and-index."""
    s = sorted(values)
    rank = max(1, math.ceil(q * len(s)))
    return s[rank - 1]


def oracle_joint(runs, lo, hi, capacity):
    """Fraction of runs whose max over grid columns [lo, hi] is <= capacity."""
    ok = 0
    for run in runs:
        seg = run[lo : hi + 1]
        if len(seg) == 0 or max(seg) <= capacity:
            ok += 1
    return ok / len(runs)


def mean_of_mask(runs, lo, hi, capacity):
    """float(np.mean(mask)), where a run passes when it has no sample in grid
    columns [lo, hi] or none of them above capacity."""
    mask = np.array([len(r[lo : hi + 1]) == 0 or max(r[lo : hi + 1]) <= capacity
                     for r in runs])
    return float(np.mean(mask))


def make_ensemble(runs, grid_step=60.0):
    return pf.TrajectoryEnsemble(grid_step=grid_step, runs=[np.asarray(r, float) for r in runs])


class TestQuantileEnvelope:
    def test_nearest_rank_hundred_values(self):
        # 100 runs whose value at t=0 is 1..100; eps=0.25 -> 75th order stat.
        runs = [[float(v)] for v in range(1, 101)]
        prof = pf.build_profile(make_ensemble(runs))
        assert prof.envelope(0.25)[0] == 75.0
        assert oracle_quantile(range(1, 101), 0.75) == 75

    def test_median_is_50th_percentile(self):
        runs = [[float(v)] for v in (5, 1, 9, 3, 7)]
        prof = pf.build_profile(make_ensemble(runs))
        assert prof.median_curve[0] == oracle_quantile([5, 1, 9, 3, 7], 0.5) == 5.0

    def test_short_runs_do_not_contribute(self):
        # At t=1 only the two long runs are alive; support records that.
        runs = [[1.0], [1.0, 10.0], [1.0, 20.0]]
        prof = pf.build_profile(make_ensemble(runs))
        assert list(prof.support) == [3, 2]
        assert prof.envelope(0.5)[1] == oracle_quantile([10.0, 20.0], 0.5)

    def test_monotone_in_eps(self):
        rng = np.random.default_rng(7)
        runs = [rng.uniform(0, 100, size=rng.integers(3, 40)) for _ in range(30)]
        prof = pf.build_profile(make_ensemble(runs))
        u_tight = prof.envelope(0.01)
        u_mid = prof.envelope(0.1)
        u_med = prof.envelope(0.5)
        assert np.all(u_tight >= u_mid) and np.all(u_mid >= u_med)
        assert np.all(prof.median_curve <= u_mid)
        assert np.all(u_tight >= 0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        runs = [rng.uniform(0, 50, size=rng.integers(2, 20)) for _ in range(12)]
        a = pf.build_profile(make_ensemble(runs))
        order = rng.permutation(len(runs))
        b = pf.build_profile(make_ensemble([runs[i] for i in order]))
        np.testing.assert_array_equal(a.envelope(0.2), b.envelope(0.2))
        np.testing.assert_array_equal(a.median_curve, b.median_curve)
        np.testing.assert_array_equal(a.runtime_samples, b.runtime_samples)

    def test_duplicating_every_run_leaves_quantiles_unchanged(self):
        rng = np.random.default_rng(11)
        runs = [rng.uniform(0, 50, size=rng.integers(2, 15)) for _ in range(9)]
        a = pf.build_profile(make_ensemble(runs))
        b = pf.build_profile(make_ensemble(runs + runs))
        for eps in (0.1, 0.37):
            np.testing.assert_array_equal(a.envelope(eps), b.envelope(eps))
        np.testing.assert_array_equal(a.median_curve, b.median_curve)

    @given(
        st.lists(st.floats(0, 1e6, allow_nan=False), min_size=1, max_size=60),
        st.floats(0.01, 0.99),
    )
    @settings(max_examples=150, deadline=None)
    def test_nearest_rank_matches_oracle(self, values, q):
        arr = np.sort(np.asarray(values))
        assert pf.nearest_rank(arr, q, len(arr)) == oracle_quantile(values, q)

    def test_rejects_single_run_and_empty(self):
        with pytest.raises(pf.ProfileError):
            pf.build_profile(make_ensemble([[1.0, 2.0]]))
        with pytest.raises(pf.ProfileError):
            make_ensemble([])

    def test_single_run_fallback_inflates(self):
        prof = pf.single_run_profile(np.array([100.0, 200.0]), 60.0, inflation=1.10)
        np.testing.assert_allclose(prof.envelope(0.05), [110.0, 220.0])
        np.testing.assert_array_equal(prof.median_curve, [100.0, 200.0])
        assert prof.horizon == 60.0

    @pytest.mark.parametrize("eps", [0.05, 0.2, 0.01])
    def test_single_run_envelope_inflates_at_every_eps(self, eps):
        # Every level is computed on demand, here after 0.05.
        run = np.array([100.0, 250.0, 40.0])
        prof = pf.single_run_profile(run, 60.0, 1.10)
        prof.envelope(0.05)
        np.testing.assert_array_equal(prof.envelope(eps), run * 1.10)


def step_profile(grid_step=60.0, low=4096.0, high=18432.0, n_runs=4):
    """All runs identical: low for the first 10 minutes, high for the next 10."""
    steps = int(600 / grid_step)
    run = np.concatenate([np.full(steps, low), np.full(steps, high)])
    return pf.build_profile(make_ensemble([run] * n_runs, grid_step))


class TestEnvelopePeak:
    def test_step_curve_windows(self):
        prof = step_profile()
        assert pf.envelope_peak(prof, 0.05, (0.0, 540.0)) == 4096.0
        assert pf.envelope_peak(prof, 0.05, (0.0, 1140.0)) == 18432.0
        # Endpoints snap outward: reaching past a boundary picks up the step.
        assert pf.envelope_peak(prof, 0.05, (0.0, 541.0)) == 4096.0
        assert pf.envelope_peak(prof, 0.05, (0.0, 601.0)) == 18432.0

    def test_window_past_horizon_clamps(self):
        prof = step_profile()
        assert pf.envelope_peak(prof, 0.05, (0.0, 99999.0)) == 18432.0
        assert pf.envelope_peak(prof, 0.05, (99999.0, 99999.0)) == 18432.0


class TestMemoryAdmissible:
    def test_joint_counting_oracle_frozen(self):
        # 93 runs stay at 10, 7 spike to 50 inside the window: prob 0.93.
        runs = [[10.0, 10.0, 10.0] for _ in range(93)] + [[10.0, 50.0, 10.0] for _ in range(7)]
        prof = pf.build_profile(make_ensemble(runs))
        d = pf.memory_admissible(prof, 40.0, (0.0, 120.0), RISK)
        assert d.probability == 0.93 and not d.admissible
        d10 = pf.memory_admissible(prof, 40.0, (0.0, 120.0), pf.RiskParams(eps=0.10))
        assert d10.admissible
        assert oracle_joint([np.asarray(r) for r in runs], 0, 2, 40.0) == 0.93

    def test_finished_runs_count_as_success(self):
        runs = [[10.0], [10.0, 99.0]]
        prof = pf.build_profile(make_ensemble(runs))
        d = pf.memory_admissible(prof, 50.0, (60.0, 60.0), pf.RiskParams(eps=0.4))
        assert d.probability == 0.5

    def test_joint_matches_oracle_randomized(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            n = int(rng.integers(2, 40))
            runs = [rng.uniform(0, 100, size=rng.integers(1, 25)) for _ in range(n)]
            prof = pf.build_profile(make_ensemble(runs, 30.0))
            max_len = max(len(r) for r in runs)
            lo = int(rng.integers(0, max_len))
            hi = int(rng.integers(lo, max_len))
            cap = float(rng.uniform(0, 110))
            d = pf.memory_admissible(prof, cap, (lo * 30.0, hi * 30.0), pf.RiskParams(eps=0.1))
            assert d.probability == pytest.approx(oracle_joint(runs, lo, hi, cap), abs=0)

    def test_envelope_method_admits_what_joint_rejects(self):
        # Each run spikes at a distinct time: pointwise quantiles never see
        # the spikes, but every run exceeds the capacity somewhere.
        n, length = 100, 100
        runs = []
        for i in range(n):
            r = np.full(length, 1000.0)
            r[i] = 11000.0
            runs.append(r)
        prof = pf.build_profile(make_ensemble(runs))
        window = (0.0, (length - 1) * 60.0)
        joint = pf.memory_admissible(prof, 10240.0, window, RISK)
        assert pf.envelope_peak(prof, 0.05, window) <= 10240.0
        assert not joint.admissible and joint.probability == 0.0


class TestRiskLevels:
    """RiskParams checks both levels by key; a bare eps level is checked
    where it first becomes an envelope cache key."""

    @pytest.mark.parametrize("name", ["eps", "alpha_t"])
    @pytest.mark.parametrize("value", [0.0, 1.0, -0.1, math.nan])
    def test_risk_params_names_the_key(self, name, value):
        with pytest.raises(pf.ProfileError, match=f"risk.{name} must lie in"):
            pf.RiskParams(**{name: value})

    @pytest.mark.parametrize("eps", [0.0, 1.0, 1.5])
    def test_a_bare_level_is_checked_on_its_way_into_a_cache(self, eps):
        prof = pf.build_profile(make_ensemble([[1.0, 2.0], [3.0]]))
        assert not prof.envelope_cache  # nothing is filled before a read
        prof.envelope(0.05)
        with pytest.raises(pf.ProfileError, match="eps must lie"):
            prof.envelope(eps)
        assert list(prof.envelope_cache) == [0.05]


class TestDeadlineAdmissible:
    def test_counting_oracle_frozen(self):
        # 93 of 100 scaled samples inside the deadline: prob 0.93.
        durations = [100.0] * 93 + [1000.0] * 7
        runs = [np.zeros(int(d / 10.0) + 1) for d in durations]
        prof = pf.build_profile(make_ensemble(runs, 10.0))
        d = pf.deadline_admissible(prof, 1.0, 100.0, RISK)
        assert d.probability == 0.93 and not d.admissible
        assert pf.deadline_admissible(prof, 1.0, 100.0, pf.RiskParams(alpha_t=0.10)).admissible

    def test_scaling_by_remaining_fraction(self):
        runs = [np.zeros(11), np.zeros(21)]  # durations 100 and 200 at step 10
        prof = pf.build_profile(make_ensemble(runs, 10.0))
        assert pf.deadline_admissible(prof, 0.5, 60.0, pf.RiskParams(alpha_t=0.4)).probability == 0.5
        assert pf.deadline_admissible(prof, 0.5, 100.0, pf.RiskParams(alpha_t=0.4)).probability == 1.0

    def test_nonpositive_deadline(self):
        runs = [np.zeros(3), np.zeros(5)]
        prof = pf.build_profile(make_ensemble(runs, 10.0))
        assert not pf.deadline_admissible(prof, 1.0, -5.0, RISK).admissible
        assert pf.deadline_admissible(prof, 0.0, 0.0, RISK).admissible


def runtime_profile(lengths, grid_step):
    """A profile whose runs last (length - 1) * grid_step each."""
    runs = [np.zeros(n) for n in lengths]
    if len(runs) == 1:
        return pf.single_run_profile(runs[0], grid_step)
    return pf.build_profile(make_ensemble(runs, grid_step))


class TestRemainingRuntime:
    """remaining_runtime is the exact threshold of deadline_admissible's
    counting rule: a deadline fits it exactly when at least 1 - alpha_t of
    the scaled runtime samples finish by that deadline."""

    @settings(max_examples=400, deadline=None)
    @given(
        lengths=st.lists(st.integers(1, 12), min_size=1, max_size=40),
        grid_step=st.sampled_from([60.0, 7.3, 0.1]),
        fraction=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        alpha=st.one_of(
            st.sampled_from([0.05, 0.1, 0.25, 0.5]),
            st.floats(0.001, 0.999),
            st.integers(1, 39),  # 1 - k / n for this k: a rank right at the level
        ),
        deadline=st.one_of(
            st.sampled_from([-5.0, 0.0, math.inf]),
            st.floats(-10.0, 900.0),
            st.integers(0, 39),  # the scaled sample of this rank
        ),
    )
    def test_threshold_equals_the_counting_rule(self, lengths, grid_step, fraction, alpha, deadline):
        prof = runtime_profile(lengths, grid_step)
        n = len(prof.runtime_samples)
        if isinstance(deadline, int):
            deadline = float(prof.runtime_samples[deadline % n] * fraction)
        if isinstance(alpha, int):
            alpha = 1.0 - (alpha % n) / n if alpha % n else 0.5
        risk = pf.RiskParams(alpha_t=alpha)
        count = int(np.count_nonzero(prof.runtime_samples * fraction <= deadline))
        want = count / n >= 1.0 - alpha
        assert (pf.remaining_runtime(prof, fraction, risk) <= deadline) == want
        assert pf.deadline_admissible(prof, fraction, deadline, risk).admissible == want

    def test_rank_exactly_at_one_minus_alpha(self):
        # n = 20, alpha_t = 0.05: 19 / 20 == 1 - 0.05 in floats, so the
        # 19th sample is the bound and a deadline one ulp short of it fails.
        prof = runtime_profile(range(2, 22), 10.0)  # runtimes 10 .. 200
        assert 19 / 20 == 1.0 - RISK.alpha_t
        need = pf.remaining_runtime(prof, 0.5, RISK)
        assert need == prof.runtime_samples[18] * 0.5 == 95.0
        assert pf.deadline_admissible(prof, 0.5, need, RISK).admissible
        short = float(np.nextafter(need, -np.inf))
        assert not pf.deadline_admissible(prof, 0.5, short, RISK).admissible

    @pytest.mark.parametrize("fraction", [-0.1, 1.5])
    def test_fraction_outside_zero_one_is_refused(self, fraction):
        prof = runtime_profile([3, 5], 10.0)
        match = r"remaining_work_fraction must lie in \[0, 1\]"
        with pytest.raises(pf.ProfileError, match=match):
            pf.remaining_runtime(prof, fraction, RISK)
        with pytest.raises(pf.ProfileError, match=match):
            pf.deadline_admissible(prof, fraction, 100.0, RISK)


class TestScreenProbabilityFormula:
    """Both screens count successes and divide by n. The old formula was
    float(np.mean(mask)); the results must be the same Python float."""

    @settings(max_examples=200, deadline=None)
    @given(
        runs=st.lists(st.lists(st.integers(0, 10), min_size=1, max_size=8),
                      min_size=2, max_size=60),
        lo=st.integers(0, 7),
        width=st.integers(0, 7),
        capacity=st.integers(-1, 11),
    )
    def test_memory_admissible_equals_mean_of_mask(self, runs, lo, width, capacity):
        prof = pf.build_profile(make_ensemble(runs))
        hi = min(lo + width, prof.n_points - 1)
        lo = min(lo, hi)
        got = pf.memory_admissible(prof, float(capacity), (lo * 60.0, hi * 60.0), RISK)
        assert type(got.probability) is float
        assert got.probability == mean_of_mask(runs, lo, hi, capacity)

    @settings(max_examples=200, deadline=None)
    @given(
        lengths=st.lists(st.integers(1, 12), min_size=2, max_size=60),
        fraction=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
        deadline=st.floats(-10.0, 700.0),
    )
    def test_deadline_admissible_equals_mean_of_mask(self, lengths, fraction, deadline):
        prof = pf.build_profile(make_ensemble([np.zeros(n) for n in lengths]))
        mask = prof.runtime_samples * fraction <= deadline
        got = pf.deadline_admissible(prof, fraction, deadline, RISK)
        assert type(got.probability) is float
        assert got.probability == float(np.mean(mask))

    @settings(max_examples=200, deadline=None)
    @given(
        runs=st.lists(st.lists(st.integers(0, 10), min_size=1, max_size=8),
                      min_size=2, max_size=60),
        lo=st.integers(0, 12),
        width=st.integers(0, 12),
        capacity=st.integers(-1, 11),
        eps=st.sampled_from([0.05, 0.25, 0.5]),
    )
    def test_memory_admissible_equals_max_with_nan_as_minus_inf(
        self, runs, lo, width, capacity, eps
    ):
        # The earlier formula: NaN (past a run's end) -> -inf, then each run's
        # max over the window against capacity. Runs are ragged, capacities
        # often equal a sample, and windows may reach past the horizon.
        prof = pf.build_profile(make_ensemble(runs))
        window = (lo * 60.0, (lo + width) * 60.0)
        a, b = pf.grid_indices(window, 60.0, prof.n_points)
        segment = prof.source.padded_matrix()[:, a : b + 1]
        maxes = np.where(np.isnan(segment), -np.inf, segment).max(axis=1)
        prob = int(np.count_nonzero(maxes <= capacity)) / len(maxes)
        got = pf.memory_admissible(prof, float(capacity), window, pf.RiskParams(eps=eps))
        assert type(got.probability) is float
        assert got == pf.AdmissionDecision(prob >= 1.0 - eps, prob)


class TestExceedanceIndex:
    """memory_admissible answers from an index cached on the profile. Along a
    chain of refreshes, the old and the new profile each answer for their
    own runs, before and after the refresh, as the mean of the mask does."""

    @staticmethod
    def check(prof, runs, capacity, lo, width):
        hi = min(lo + width, prof.n_points - 1)
        got = pf.memory_admissible(prof, capacity, (lo * 60.0, (lo + width) * 60.0), RISK)
        assert got.probability == mean_of_mask(runs, min(lo, hi), hi, capacity)

    @settings(max_examples=150, deadline=None)
    @given(
        runs=st.lists(st.lists(st.integers(0, 10), min_size=1, max_size=8),
                      min_size=1, max_size=6),
        added=st.lists(st.lists(st.integers(0, 10), min_size=1, max_size=10),
                       min_size=1, max_size=4),
        lo=st.integers(0, 12),  # often past the horizon
        width=st.integers(0, 4),
        capacity=st.integers(-1, 11),
    )
    def test_refresh_chain_answers_equal_the_mask_oracle(self, runs, added, lo, width,
                                                         capacity):
        if len(runs) == 1:
            prof = pf.single_run_profile(np.asarray(runs[0], float), 60.0)
        else:
            prof = pf.build_profile(make_ensemble(runs))
        for run in added:
            self.check(prof, runs, capacity, lo, width)
            new, new_runs = pf.refresh_profile(prof, np.asarray(run, float)), [*runs, run]
            self.check(new, new_runs, capacity, lo, width)
            self.check(prof, runs, capacity, lo, width)
            prof, runs = new, new_runs
        self.check(prof, runs, capacity, lo, width)

    def test_single_run_profile_and_window_past_the_horizon(self):
        prof = pf.single_run_profile(np.array([1.0, 5.0, 2.0]), 60.0)
        assert pf.memory_admissible(prof, 4.0, (0.0, 60.0), RISK).probability == 0.0
        # Past the horizon the window clamps to the last grid point (2.0).
        assert pf.memory_admissible(prof, 4.0, (120.0, 600.0), RISK).probability == 1.0
        new = pf.refresh_profile(prof, np.array([1.0, 1.0, 1.0, 1.0, 9.0]))
        # Column 4 holds only the new run's 9.0; the first run has ended.
        assert pf.memory_admissible(new, 4.0, (300.0, 900.0), RISK).probability == 0.5
        assert pf.memory_admissible(prof, 4.0, (300.0, 900.0), RISK).probability == 1.0
        assert new.exceedance_index.keys() == prof.exceedance_index.keys() == {4.0}
        assert new.exceedance_index[4.0].dtype == np.int32


class TestRefresh:
    def test_adding_tenth_value_keeps_ninth_rank(self):
        runs = [[float(v)] for v in range(1, 10)]
        prof = pf.build_profile(make_ensemble(runs))
        assert prof.envelope(0.1)[0] == 9.0  # ceil(0.9*9)=9th of 1..9
        refreshed = pf.refresh_profile(prof, np.array([10.0]))
        assert refreshed.envelope(0.1)[0] == 9.0  # ceil(0.9*10)=9th of 1..10
        assert refreshed.source.n_runs == 10

    def test_refresh_extends_horizon(self):
        prof = pf.build_profile(make_ensemble([[1.0], [2.0]], 30.0))
        refreshed = pf.refresh_profile(prof, np.array([1.0, 2.0, 3.0]))
        assert refreshed.horizon == 60.0
        assert len(refreshed.runtime_samples) == 3


def assert_same_profile(got, want, levels=(0.05, 0.25)):
    """Equal on every read, NaN == NaN: the envelopes at `levels`, median,
    support, width, horizon, runtime samples and the padded matrix. Reading
    fills a lazy profile's summaries, so nothing here compares caches."""
    assert got.grid_step == want.grid_step
    assert got.horizon == want.horizon
    assert got.inflation == want.inflation
    assert got.n_points == want.n_points
    curves = [(f"envelope({eps})", lambda p, eps=eps: p.envelope(eps)) for eps in levels]
    for name in ("median_curve", "runtime_samples", "support"):
        curves.append((name, lambda p, name=name: getattr(p, name)))
    for name, read in curves:
        a, b = read(got), read(want)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b, equal_nan=True), name
    assert got.source.n_runs == want.source.n_runs
    assert np.array_equal(
        got.source.padded_matrix(), want.source.padded_matrix(), equal_nan=True
    )


# Few distinct values, so columns hold ties; 0 is a legal sample.
_sample = st.sampled_from((0.0, 1.0, 2.5, 2.5, 7.0, 100.0))
_run = st.lists(_sample, min_size=1, max_size=9)


class TestRefreshEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(
        source_runs=st.lists(_run, min_size=1, max_size=6),
        # Each new run's length relative to the longest run so far:
        # shorter, equal and longer all occur.
        additions=st.lists(
            st.tuples(st.integers(-4, 4), _sample, st.booleans()), min_size=1, max_size=5
        ),
        levels=st.sets(st.sampled_from((0.05, 0.1, 0.25, 0.5)), min_size=1, max_size=3),
        lazy_eps=st.sampled_from((0.2, 0.33)),
    )
    def test_chained_refresh_equals_build(self, source_runs, additions, levels, lazy_eps):
        # Refreshed profiles carry no envelope levels; each level is filled
        # on its first read, whenever that comes.
        levels = tuple(sorted(levels))
        runs = [np.asarray(r, float) for r in source_runs]
        if len(runs) == 1:
            prof = pf.single_run_profile(runs[0], 60.0, 1.25)
        else:
            prof = pf.build_profile(make_ensemble(runs))
        for eps in levels:
            prof.envelope(eps)  # the levels read before the first refresh
        for delta, value, add_lazy in additions:
            longest = max(len(r) for r in runs)
            new = np.linspace(0.0, value, max(1, longest + delta))
            if add_lazy:
                prof.envelope(lazy_eps)  # a level added after the build
            before = prof.source.padded_matrix().copy()
            fresh = pf.refresh_profile(prof, new)
            # The refreshed profile's source is new; the old one is untouched.
            assert prof.source.n_runs == len(runs)
            assert np.array_equal(prof.source.padded_matrix(), before, equal_nan=True)
            runs.append(new)
            want = pf.build_profile(make_ensemble(runs))
            assert_same_profile(fresh, want, (*levels, lazy_eps))
            prof = fresh

    def test_three_refreshes_without_a_read_equal_build(self):
        # The second run outlasts every run so far, so the horizon grows;
        # the third is shorter than all of them.
        runs = [[1.0, 4.0, 2.0], [3.0, 3.0], [0.0, 5.0, 5.0, 1.0]]
        added = [[2.0, 2.0, 6.0], [1.0, 7.0, 3.0, 3.0, 9.0, 2.0], [8.0]]
        chain = [pf.build_profile(make_ensemble(runs))]
        for run in added:
            chain.append(pf.refresh_profile(chain[-1], np.array(run)))
        assert [p.horizon for p in chain] == [180.0, 180.0, 300.0, 300.0]
        assert all(not p.envelope_cache for p in chain)
        for k, prof in enumerate(chain):
            assert_same_profile(prof, pf.build_profile(make_ensemble(runs + added[:k])))

    @settings(max_examples=100, deadline=None)
    @given(
        source_runs=st.lists(_run, min_size=2, max_size=6),
        added=st.lists(_run, min_size=1, max_size=5),
    )
    def test_unread_refresh_chain_equals_build(self, source_runs, added):
        # A whole chain first, then every profile in it is read: a later
        # refresh must not change what an earlier, unread profile shows.
        chain = [pf.build_profile(make_ensemble(source_runs))]
        for run in added:
            chain.append(pf.refresh_profile(chain[-1], np.array(run)))
        for k, prof in enumerate(chain):
            merged = make_ensemble(source_runs + added[:k])
            assert_same_profile(prof, pf.build_profile(merged))

    def test_single_run_source_refreshes_to_build(self):
        prof = pf.single_run_profile(np.array([1.0, 2.0]), 60.0, 1.5)
        fresh = pf.refresh_profile(prof, np.array([3.0, 1.0, 5.0]))
        want = pf.build_profile(make_ensemble([[1.0, 2.0], [3.0, 1.0, 5.0]]))
        assert_same_profile(fresh, want)
        assert fresh.envelope(0.1)[0] == 3.0  # no inflation once there are two runs

    @pytest.mark.parametrize(
        "bad, match",
        [
            ([1.0, -1.0], "has negative or non-finite samples"),
            ([1.0, math.nan], "has negative or non-finite samples"),
            ([math.inf], "has negative or non-finite samples"),
            ([], "must be a non-empty 1-d sample array"),
            ([[1.0, 2.0], [3.0, 4.0]], "must be a non-empty 1-d sample array"),
        ],
    )
    def test_bad_new_run_rejected(self, bad, match):
        prof = pf.build_profile(make_ensemble([[1.0, 2.0], [2.0], [3.0, 1.0]]))
        with pytest.raises(pf.ProfileError, match=f"run 3 {match}"):
            pf.refresh_profile(prof, np.array(bad))
        # The same run is refused the same way when an ensemble is built.
        with pytest.raises(pf.ProfileError, match=f"run 3 {match}"):
            make_ensemble([[1.0, 2.0], [2.0], [3.0, 1.0], bad])


class TestTrajectoryFiles:
    def test_round_trip_six_significant_digits(self, tmp_path):
        rng = np.random.default_rng(0)
        samples = rng.uniform(0, 40960, size=50)
        path = tmp_path / "run.csv"
        pf.write_trajectory(path, samples, 60.0)
        first = path.read_bytes()
        values, step = pf.read_trajectory(path)
        assert step == 60.0
        pf.write_trajectory(path, values, step)
        assert path.read_bytes() == first
        np.testing.assert_allclose(values, samples, rtol=1e-5)

    def test_header_required(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("0,1\n60,2\n")
        with pytest.raises(pf.ProfileError):
            pf.read_trajectory(p)

    def test_non_uniform_grid_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("time_s,mem_mb\n0,1\n60,2\n150,3\n")
        with pytest.raises(pf.ProfileError):
            pf.read_trajectory(p)

    def test_manifest_round_trip(self, tmp_path):
        ens = make_ensemble([[1.0, 2.0], [3.0, 4.0, 5.0]], 30.0)
        manifest = pf.write_ensemble(tmp_path / "ens", ens)
        loaded = pf.load_ensemble(manifest)
        assert loaded.grid_step == 30.0
        assert loaded.n_runs == 2
        np.testing.assert_array_equal(loaded.runs[1], [3.0, 4.0, 5.0])

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(pf.ProfileError):
            pf.load_ensemble(tmp_path / "nope.txt")


def stage_runs(directory, texts, newline="\n"):
    """Write one run file per text plus a manifest (with a comment and a
    blank line) listing them in order; returns the manifest path."""
    directory.mkdir(parents=True, exist_ok=True)
    names = [f"run_{i}.csv" for i in range(len(texts))]
    for name, text in zip(names, texts):
        (directory / name).write_bytes(text.replace("\n", newline).encode())
    manifest = directory / "manifest.txt"
    manifest.write_text("\n".join(["# runs in load order", names[0], "", *names[1:]]) + "\n")
    return manifest


GOOD = "time_s,mem_mb\n0,1\n60,2.5\n120,4\n"


class TestOneParser:
    """load_ensemble parses a manifest's files in one pass; read_trajectory is
    the same parser on one file. Both must agree run for run and error for
    error."""

    @pytest.mark.parametrize("name", sorted(SCENARIO_BUILDERS))
    def test_export_writes_one_run_file_per_ensemble(self, tmp_path, name):
        scenario, _ = SCENARIO_BUILDERS[name]()
        export_scenario(scenario, tmp_path)
        written = sorted(p.relative_to(tmp_path).as_posix()
                         for p in tmp_path.rglob("*") if p.is_file())
        assert written == sorted(["scenario.csv", *(
            f"ensembles/{key}/{file}" for key in scenario.ensembles
            for file in ("manifest.txt", "runs.csv"))])
        for key in scenario.ensembles:
            assert (tmp_path / "ensembles" / key / "manifest.txt").read_text() == "runs.csv\n"

    @pytest.mark.parametrize("name", sorted(SCENARIO_BUILDERS))
    def test_bundled_ensembles_load_as_their_files_read(self, tmp_path, name):
        # An exported runs.csv is, byte for byte, the write_trajectory files of
        # its runs laid end to end, and loads as read_trajectory reads them.
        scenario, _ = SCENARIO_BUILDERS[name]()
        export_scenario(scenario, tmp_path / "bundle")
        for key, ensemble in scenario.ensembles.items():
            manifest = tmp_path / "bundle" / "ensembles" / key / "manifest.txt"
            loaded = pf.load_ensemble(manifest)
            (tmp_path / key).mkdir()
            paths = [tmp_path / key / f"run_{i:04d}.csv" for i in range(ensemble.n_runs)]
            for path, run in zip(paths, ensemble.runs):
                pf.write_trajectory(path, run, ensemble.grid_step)
            assert (manifest.parent / "runs.csv").read_bytes() == b"".join(
                path.read_bytes() for path in paths)
            files = [pf.read_trajectory(path) for path in paths]
            assert loaded.n_runs == len(files)
            for run, (samples, step) in zip(loaded.runs, files):
                assert step == loaded.grid_step
                assert run.dtype == samples.dtype and run.shape == samples.shape
                np.testing.assert_array_equal(run, samples)

    def test_one_file_per_run_and_mixed_manifests_load_the_same_runs(self, tmp_path):
        ens = make_ensemble([[1.0, 2.0], [3.0, 4.5, 5.0], [6.0, 0.0], [7.0, 8.0]], 30.0)
        one_file = pf.load_ensemble(pf.write_ensemble(tmp_path / "one", ens))
        for i, run in enumerate(ens.runs):
            pf.write_trajectory(tmp_path / f"run_{i}.csv", run, 30.0)
        pf.write_ensemble(tmp_path / "pair", make_ensemble(ens.runs[1:3], 30.0))
        per_run, mixed = tmp_path / "per_run.txt", tmp_path / "mixed.txt"
        per_run.write_text("run_0.csv\nrun_1.csv\nrun_2.csv\nrun_3.csv\n")
        mixed.write_text("run_0.csv\npair/runs.csv\nrun_3.csv\n")
        for loaded in (one_file, pf.load_ensemble(per_run), pf.load_ensemble(mixed)):
            assert loaded.grid_step == 30.0
            assert [run.tolist() for run in loaded.runs] == [run.tolist() for run in ens.runs]
            assert all(run.dtype == np.float64 for run in loaded.runs)

    @pytest.mark.parametrize(
        "bad",
        [
            "time_s,mem_mb\n0,1\n60,abc\n",  # a cell that is not a float
            "time_s,mem_mb\n0,1\n60,2,3\n",  # three columns
            "time_s,mem_mb\n0,1\n60,2\n150,3\n",  # not a uniform grid
            "time_s,mem_mb\n0,1\n60\n",  # one column
            "time_mem\n0,1\n",  # no header
            "time_s,mem_mb\n\n",  # no samples
            "time_s,mem_mb\n0,3000\ninf,3100\n",  # an infinite grid step
            "time_s,mem_mb\ninf,3000\n",  # one row at an infinite time
            GOOD + "time_s,mem_mb\n0,1\n60,abc\n",  # a bad cell in a file's second run
            GOOD + "time_s,mem_mb\n0,1\n60,2\n150,3\n",  # its second run off the grid
            GOOD + "time_s,mem_mb\n",  # a header and no samples at the end of the file
        ],
    )
    def test_bad_third_of_five_files_raises_its_own_message(self, tmp_path, bad):
        # The fifth file is bad too; the third is named because it loads first.
        manifest = stage_runs(tmp_path, [GOOD, GOOD, bad, GOOD, "time_s,mem_mb\n0,x\n"])
        with pytest.raises(pf.ProfileError) as alone:
            pf.read_trajectory(tmp_path / "run_2.csv")
        with pytest.raises(pf.ProfileError) as loaded:
            pf.load_ensemble(manifest)
        assert str(loaded.value) == str(alone.value)
        assert str(alone.value).startswith(str(tmp_path / "run_2.csv"))

    def test_bad_line_is_named(self, tmp_path):
        manifest = stage_runs(tmp_path, [GOOD, "time_s,mem_mb\n0,1\n\n60,2,3\n"])
        with pytest.raises(pf.ProfileError,
                           match=r"run_1\.csv:4: expected two comma-separated columns"):
            pf.load_ensemble(manifest)

    def test_blank_lines_crlf_and_comments(self, tmp_path):
        texts = [GOOD, "time_s,mem_mb\n\n0,7\n  \n60,8\n",
                 "time_s,mem_mb\n0,5\n60,6\n  time_s,mem_mb \n\n0,3\n60,4\n",  # two runs
                 "time_s,mem_mb\n0,9\n60,10\n120,11\n180,12"]  # no final newline
        for newline in ("\n", "\r\n"):
            loaded = pf.load_ensemble(stage_runs(tmp_path / repr(newline), texts, newline))
            assert loaded.grid_step == 60.0
            assert [run.tolist() for run in loaded.runs] == [
                [1.0, 2.5, 4.0], [7.0, 8.0], [5.0, 6.0], [3.0, 4.0], [9.0, 10.0, 11.0, 12.0]]

    def test_one_row_runs_have_step_one(self, tmp_path):
        manifest = stage_runs(tmp_path, ["time_s,mem_mb\n0,5\n", "time_s,mem_mb\n30,6\n"])
        loaded = pf.load_ensemble(manifest)
        assert loaded.grid_step == 1.0
        assert [run.tolist() for run in loaded.runs] == [[5.0], [6.0]]
        assert pf.read_trajectory(tmp_path / "run_1.csv")[1] == 1.0

    def test_mismatched_step_names_the_manifest_entry(self, tmp_path):
        manifest = stage_runs(tmp_path, [GOOD, GOOD, "time_s,mem_mb\n0,5\n", GOOD])
        with pytest.raises(pf.ProfileError) as err:
            pf.load_ensemble(manifest)
        assert str(err.value) == f"{manifest}: run run_2.csv grid step 1.0 != 60.0"

    def test_steps_within_tolerance_share_the_first_runs_step(self, tmp_path):
        drift = "time_s,mem_mb\n0,1\n60.00000001,2\n"  # 1.7e-10 off, relative
        loaded = pf.load_ensemble(stage_runs(tmp_path, [GOOD, drift]))
        assert loaded.grid_step == 60.0


class TestRunFiles:
    """A run file holds one or more runs, each opened by the header; errors
    name the file and the line, a later run by its header line."""

    @pytest.mark.parametrize(
        "text, where",
        [
            (GOOD + "time_s,mem_mb\n\ntime_s,mem_mb\n0,5\n", "run_1.csv:5"),  # next header
            (GOOD + GOOD + "time_s,mem_mb\n\n", "run_1.csv:9"),  # end of the file
            ("time_s,mem_mb\n" + GOOD, "run_1.csv"),  # a file's first header
        ],
    )
    def test_header_with_no_samples(self, tmp_path, text, where):
        with pytest.raises(pf.ProfileError) as err:
            pf.load_ensemble(stage_runs(tmp_path, [GOOD, text]))
        assert str(err.value) == f"{tmp_path / where}: no samples"

    def test_step_mismatch_inside_a_file_names_its_header_line(self, tmp_path):
        two = GOOD + "\ntime_s,mem_mb\n0,5\n30,6\n"
        manifest = stage_runs(tmp_path, [GOOD, two])
        with pytest.raises(pf.ProfileError) as err:
            pf.load_ensemble(manifest)
        assert str(err.value) == f"{manifest}: run run_1.csv:6 grid step 30.0 != 60.0"

    def test_read_trajectory_refuses_a_file_of_several_runs(self, tmp_path):
        path = tmp_path / "runs.csv"
        pf.write_ensemble(tmp_path, make_ensemble([[1.0, 2.0], [3.0, 3.5, 4.0], [4.0, 5.0]]))
        with pytest.raises(pf.ProfileError) as err:
            pf.read_trajectory(path)
        assert str(err.value) == f"{path}: holds 3 runs, expected one"
        assert pf.load_ensemble(tmp_path / "manifest.txt").n_runs == 3


class TestVectorRunCheck:
    """TrajectoryEnsemble checks all runs in one pass and names the first bad
    run, with its first failing check, as the per-run check does."""

    @pytest.mark.parametrize(
        "runs, message",
        [
            ([[1.0], [2.0, -1.0], [math.nan]], "run 1 has negative or non-finite samples"),
            ([[1.0], [[2.0]], [-1.0]], "run 1 must be a non-empty 1-d sample array"),
            ([[1.0], [-1.0], []], "run 1 has negative or non-finite samples"),
            ([[math.inf, 1.0], [], [2.0]], "run 0 has negative or non-finite samples"),
            ([[1.0, 2.0], [3.0], []], "run 2 must be a non-empty 1-d sample array"),
        ],
    )
    def test_first_bad_run_is_named(self, runs, message):
        with pytest.raises(pf.ProfileError) as err:
            pf.TrajectoryEnsemble(grid_step=60.0, runs=runs)
        assert str(err.value) == message

    def test_good_runs_become_float_arrays(self):
        ens = pf.TrajectoryEnsemble(grid_step=60.0, runs=[[1, 2], np.array([3.0]), (4, 5)])
        assert all(isinstance(run, np.ndarray) and run.dtype == np.float64 for run in ens.runs)
        assert [run.tolist() for run in ens.runs] == [[1.0, 2.0], [3.0], [4.0, 5.0]]
