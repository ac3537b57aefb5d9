"""Offer / interest / grant / materialize contract tests."""
import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sjasim.cluster import ExecutionWindow, SliceCatalog
from sjasim.policies import GrantPolicy, SelectionContext, TenantLedger
from sjasim.profiles import (
    RiskParams,
    TrajectoryEnsemble,
    build_profile,
    envelope_peak,
    memory_admissible,
)
from sjasim.protocol import (
    Grant,
    InterestSignal,
    advertise,
    collect_interest,
    grant_offer,
    materialize,
)
from sjasim.segmentation import PlanRefusal, SegmentationConfig, plan_segments
from sjasim.workload import JobRuntime, JobSpec

CAT = SliceCatalog()
H = 60.0
RISK = RiskParams(eps=0.05)
SEG = SegmentationConfig(tau_min_s=300.0, tau_max_s=3600.0,
                         smoothing_window_s=0.0, hysteresis_delta=0.15)


def make_job(job_id="j1", level=8000.0, n=31, work=1800.0, declared=9000.0,
             atomizable=True, tenant="t0", deadline=None, position=0.0):
    runs = [np.full(n, level) for _ in range(4)]
    prof = build_profile(TrajectoryEnsemble(grid_step=H, runs=runs), eps_levels=(0.05,))
    spec = JobSpec(job_id, tenant, 0.0, work, declared, atomizable=atomizable,
                   deadline_s=deadline)
    return JobRuntime(spec=spec, profile=prof, actual=runs[0], grid_step=H,
                      position_s=position)


def ctx_for(jobs, now=0.0):
    return SelectionContext(now, RISK, {j.spec.job_id: j for j in jobs})


class TestAdvertise:
    def test_sequential_ids(self):
        gaps = [ExecutionWindow("g0s0", 20480, 0.0, 600.0),
                ExecutionWindow("g0s1", 10240, 100.0, 900.0)]
        offers = advertise(gaps, seq_start=7)
        assert [o.offer_id for o in offers] == ["offer-000007", "offer-000008"]
        assert offers[1].window == gaps[1]


class TestCollectInterest:
    def test_no_waiting_jobs_no_signals(self):
        offer = advertise([ExecutionWindow("g0s0", 20480, 0.0, 600.0)])[0]
        assert collect_interest(offer, [], CAT, RISK, SEG) == []

    def test_oversized_job_declines(self):
        # Envelope 25 GB against a 20 GB window: inadmissible everywhere.
        offer = advertise([ExecutionWindow("g0s0", 20480, 0.0, 600.0)])[0]
        job = make_job(level=25600.0, declared=26000.0)
        sig, = collect_interest(offer, [job], CAT, RISK, SEG)
        assert sig.kind == "decline"

    def test_fitting_fragment_yields_interest(self):
        offer = advertise([ExecutionWindow("g0s0", 20480, 0.0, 600.0)])[0]
        job = make_job(level=14000.0, declared=39000.0)
        sig, = collect_interest(offer, [job], CAT, RISK, SEG)
        assert sig.kind == "interest" and sig.job_id == "j1"

    def test_non_atomizable_always_declines(self):
        offer = advertise([ExecutionWindow("g0s0", 20480, 0.0, 600.0)])[0]
        job = make_job(atomizable=False)
        sig, = collect_interest(offer, [job], CAT, RISK, SEG)
        assert sig.kind == "decline" and "non-atomizable" in sig.reason

    def test_is_pure(self):
        offer = advertise([ExecutionWindow("g0s0", 20480, 0.0, 600.0)])[0]
        job = make_job()
        before = (job.position_s, job.subjob_seq)
        collect_interest(offer, [job], CAT, RISK, SEG)
        assert (job.position_s, job.subjob_seq) == before


def loop_interest(offer, waiting, catalog, risk, seg, resume_positions=None):
    """collect_interest written as one plain plan_segments call per job."""
    signals = []
    for job in waiting:
        start = (resume_positions or {}).get(job.spec.job_id)
        result = plan_segments(job, offer.window, catalog, risk, seg, start_position_s=start)
        if isinstance(result, PlanRefusal):
            signals.append(InterestSignal(offer.offer_id, job.spec.job_id, "decline",
                                          reason=result.reason))
        else:
            signals.append(InterestSignal(offer.offer_id, job.spec.job_id, "interest"))
    return signals


def staggered_profile():
    """20 runs at 8 GB, each spiking to 12 GB at its own step: the envelope
    stays at 8 GB, but a window of a few steps exceeds 10 GB in more than
    eps of the runs, so joint admission refuses the fragment."""
    runs = [np.full(31, 8000.0) for _ in range(20)]
    for r, run in enumerate(runs):
        run[r + 5] = 12000.0
    return build_profile(TrajectoryEnsemble(grid_step=H, runs=runs), eps_levels=(0.05,))


# One waiting job: its profile (a flat level or "staggered"), whether it may
# be split, its position, an optional resume position and demand floor.
job_draw = st.tuples(
    st.sampled_from([4000.0, 8000.0, 14000.0, 25600.0, "staggered"]),
    st.sampled_from([True, True, True, False]),
    st.sampled_from([0.0, 300.0, 600.0, 1500.0]),
    st.sampled_from([None, 0.0, 600.0, 1200.0]),
    st.one_of(st.none(), st.tuples(st.integers(0, 30), st.sampled_from([9000.0, 16000.0]))),
)


class TestCollectInterestOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        drawn=st.lists(job_draw, max_size=6),
        start=st.sampled_from([0.0, 90.0, 600.0]),
        # 45 s is under one 60 s grid step, 120 s under the larger tau_min.
        duration=st.sampled_from([45.0, 120.0, 300.0, 600.0, 1800.0]),
        capacity=st.sampled_from(CAT.capacities_mb),
        tau_min=st.sampled_from([30.0, 300.0]),
    )
    def test_signals_equal_the_per_job_loop(self, drawn, start, duration, capacity, tau_min):
        seg = SegmentationConfig(tau_min_s=tau_min, tau_max_s=900.0,
                                 smoothing_window_s=0.0, hysteresis_delta=0.15)
        # Jobs drawn with one profile read one profile object, as
        # ensemble-mates do, so they share its plan cache.
        profiles = {}
        jobs, resume = [], {}
        for k, (level, atomizable, position, resume_at, floor) in enumerate(drawn):
            job = make_job(f"j{k}", level=8000.0 if level == "staggered" else level,
                           declared=39000.0, atomizable=atomizable, position=position)
            if level not in profiles:
                profiles[level] = staggered_profile() if level == "staggered" else job.profile
            job.profile = profiles[level]
            if resume_at is not None:
                resume[job.spec.job_id] = resume_at
            if floor is not None:
                job.note_demand(floor[0], np.full(5, floor[1]))
            jobs.append(job)
        offer = advertise([ExecutionWindow("g0s0", capacity, start, duration)])[0]
        cold = copy.deepcopy(jobs)
        for job in cold:
            job.profile.plan_cache.clear()
            job.profile.exceedance_index.clear()
        # Signals carry verdicts, not plans: each must equal a fresh
        # plan_segments call on a cold copy, and the plan an interested job
        # would materialize must equal that cold plan too.
        want = loop_interest(offer, cold, CAT, RISK, seg, resume)
        assert collect_interest(offer, jobs, CAT, RISK, seg, resume) == want
        assert collect_interest(offer, jobs, CAT, RISK, seg, resume) == want  # warm
        for job, fresh in zip(jobs, cold):
            start = resume.get(job.spec.job_id)
            got = plan_segments(job, offer.window, CAT, RISK, seg, start_position_s=start)
            assert got == plan_segments(fresh, offer.window, CAT, RISK, seg,
                                        start_position_s=start)


class TestGrantOffer:
    def test_single_interest_granted_under_every_policy(self):
        offer = advertise([ExecutionWindow("g0s0", 20480, 0.0, 600.0)])[0]
        job = make_job(deadline=9000.0)
        sigs = collect_interest(offer, [job], CAT, RISK, SEG)
        for kind in ("fifo", "priority", "edf"):
            g = grant_offer(offer, sigs, GrantPolicy(kind=kind), None, ctx_for([job]))
            assert g == Grant(offer.offer_id, "j1")
        ledger = TenantLedger(budgets={"t0": 1e9})
        g = grant_offer(offer, sigs, GrantPolicy(kind="fair_tokens"), ledger, ctx_for([job]))
        assert g is not None and g.job_id == "j1"

    def test_zero_interests_lapses(self):
        offer = advertise([ExecutionWindow("g0s0", 20480, 0.0, 600.0)])[0]
        job = make_job(atomizable=False)
        sigs = collect_interest(offer, [job], CAT, RISK, SEG)
        assert grant_offer(offer, sigs, GrantPolicy(kind="fifo"), None, ctx_for([job])) is None

    def test_edf_picks_earliest_reachable_deadline(self):
        offer = advertise([ExecutionWindow("g0s0", 20480, 0.0, 3600.0)])[0]
        jobs = [make_job(f"j{k}", deadline=d)
                for k, d in ((0, 50000.0), (1, 30000.0), (2, 90000.0))]
        sigs = collect_interest(offer, jobs, CAT, RISK, SEG)
        g = grant_offer(offer, sigs, GrantPolicy(kind="edf"), None, ctx_for(jobs))
        assert g.job_id == "j1"


def mint(job, win, risk=RISK, seg=SEG, start=None):
    """Materialize job's plan of win under a grant, or return the refusal
    when it has none."""
    plan = plan_segments(job, win, CAT, risk, seg, start_position_s=start)
    if isinstance(plan, PlanRefusal):
        return plan
    offer = advertise([win])[0]
    return materialize(job, Grant(offer.offer_id, job.spec.job_id), win, CAT, risk, seg, start)


class TestMaterialize:
    def test_creates_planned_subjobs_with_contiguous_reservation_spans(self):
        job = make_job(level=8000.0, n=31, work=1800.0)
        win = ExecutionWindow("g0s0", 10240, 100.0, 1200.0)
        out = mint(job, win)
        assert isinstance(out, tuple)  # the bench tracer counts anything else as a refusal
        subjobs = out
        assert all(s.job_id == "j1" and s.offer_id == "offer-000000" for s in subjobs)
        assert all(s.physical_capacity_mb == 10240 and not s.started for s in subjobs)
        assert subjobs[0].window_start_s == 100.0
        for a, b in zip(subjobs, subjobs[1:]):
            assert b.window_start_s == a.window_start_s + a.window_duration_s
        assert [s.subjob_id for s in subjobs] == [f"j1-s{i}" for i in range(len(subjobs))]

    def test_fragments_past_actual_end_dropped(self):
        # Profile spans 30 min but this run actually lasts 10: fragments at
        # or past 600 s never materialize.
        runs = [np.full(31, 8000.0) for _ in range(4)]
        prof = build_profile(TrajectoryEnsemble(grid_step=H, runs=runs), eps_levels=(0.05,))
        spec = JobSpec("j1", "t0", 0.0, 1800.0, 9000.0)
        job = JobRuntime(spec=spec, profile=prof, actual=np.full(11, 8000.0), grid_step=H)
        win = ExecutionWindow("g0s0", 10240, 0.0, 1800.0)
        subjobs = mint(job, win, seg=SegmentationConfig(tau_min_s=300.0, tau_max_s=300.0,
                                                        smoothing_window_s=0.0))
        assert subjobs[-1].pos_from_s < 600.0

    @pytest.mark.parametrize("position, start", [(540.0, None), (0.0, 540.0)],
                             ids=["position", "pipelined_resume"])
    def test_plan_one_step_before_the_end_mints_one_subjob(self, position, start):
        # A 600 s run whose next work starts one grid step before its end:
        # a queued job's position, or a pipelined bidder's resume position.
        # The plan's first fragment starts there, so it is never dropped.
        runs = [np.full(31, 8000.0) for _ in range(4)]
        prof = build_profile(TrajectoryEnsemble(grid_step=H, runs=runs), eps_levels=(0.05,))
        spec = JobSpec("j1", "t0", 0.0, 1800.0, 9000.0)
        job = JobRuntime(spec=spec, profile=prof, actual=np.full(11, 8000.0), grid_step=H,
                         position_s=position)
        assert job.actual_duration_s - H == 540.0
        win = ExecutionWindow("g0s0", 10240, 0.0, 1800.0)
        subjobs = mint(job, win, seg=SegmentationConfig(tau_min_s=300.0, tau_max_s=300.0,
                                                        smoothing_window_s=0.0), start=start)
        assert [(s.pos_from_s, s.pos_to_s) for s in subjobs] == [(540.0, 840.0)]

    def test_kept_fragments_pass_joint_admission_under_the_envelope(self):
        # Eight runs end at 300 s; of the two that go on, one climbs to 12 GB
        # at 600 s. Past 300 s only those two are alive, so the 80% envelope
        # reads 12 GB from 600 s on and the fragments there take 20 GB.
        runs = [np.full(6, 8000.0) for _ in range(8)]
        runs += [np.full(31, 8000.0), np.array([8000.0] * 10 + [12000.0] * 21)]
        prof = build_profile(TrajectoryEnsemble(grid_step=H, runs=runs), eps_levels=(0.05,))
        spec = JobSpec("j1", "t0", 0.0, 1800.0, 13000.0)
        # The actual run ends at 900 s, so the 900-1200 s fragment is dropped.
        job = JobRuntime(spec=spec, profile=prof, actual=np.full(16, 8000.0), grid_step=H)
        risk = RiskParams(eps=0.2)
        seg = SegmentationConfig(tau_min_s=300.0, tau_max_s=300.0, smoothing_window_s=0.0)
        win = ExecutionWindow("g0s0", 20480, 0.0, 1200.0)
        subjobs = mint(job, win, risk, seg)
        assert [(s.pos_from_s, s.slice_capacity_mb) for s in subjobs] == [
            (0.0, 10240), (300.0, 10240), (600.0, 20480)
        ]
        for s in subjobs:
            window = (s.pos_from_s, s.pos_to_s - H)
            cap = s.slice_capacity_mb
            assert memory_admissible(prof, cap, window, risk).admissible
            assert envelope_peak(prof, risk.eps, window) <= cap
        # The dry run plans all four fragments; materialize keeps three.
        assert len(plan_segments(job, win, CAT, risk, seg)) == 4

    @settings(max_examples=120, deadline=None)
    @given(
        runs=st.lists(
            st.lists(st.sampled_from([0.0, 3000.0, 7000.0, 9500.0, 15000.0, 26000.0]),
                     min_size=1, max_size=40),
            min_size=2, max_size=6,
        ),
        actual_len=st.integers(5, 45),
        eps=st.sampled_from([0.05, 0.2, 0.5]),
        window=st.tuples(st.sampled_from([5120, 10240, 20480, 40960, 40960]),
                         st.sampled_from([0.0, 137.5]),
                         st.sampled_from([300.0, 900.0, 2400.0, 3000.0])),
        floor=st.none() | st.tuples(st.integers(0, 30), st.integers(1, 10),
                                    st.sampled_from([6000.0, 12000.0, 20000.0])),
        start=st.sampled_from([None, 90.0, 600.0]),
        seg=st.builds(SegmentationConfig, tau_min_s=st.sampled_from([60.0, 300.0]),
                      tau_max_s=st.sampled_from([600.0, 3600.0]),
                      smoothing_window_s=st.sampled_from([0.0, 240.0]),
                      hysteresis_delta=st.sampled_from([0.0, 0.15, 0.6])),
    )
    def test_no_minted_subjob_has_envelope_peak_above_capacity(
        self, runs, actual_len, eps, window, floor, start, seg
    ):
        # Segmentation sizes each fragment on the risk.eps envelope (raised by
        # any demand floor), so no subjob that materialize mints peaks above
        # its capacity on that curve.
        prof = build_profile(TrajectoryEnsemble(grid_step=H, runs=runs), eps_levels=(eps,))
        spec = JobSpec("j1", "t0", 0.0, 1800.0, 40000.0)
        job = JobRuntime(spec=spec, profile=prof, actual=np.full(actual_len, 1000.0),
                         grid_step=H)
        if floor is not None:
            job.note_demand(floor[0], np.full(floor[1], floor[2]))
        win = ExecutionWindow("g0s0", *window)
        risk = RiskParams(eps=eps)
        out = mint(job, win, risk, seg, start)
        for s in out if isinstance(out, tuple) else ():  # skip refused plans
            window_s = (s.pos_from_s, s.pos_to_s - H)
            assert envelope_peak(prof, eps, window_s) <= s.slice_capacity_mb
            assert memory_admissible(prof, s.slice_capacity_mb, window_s, risk).admissible

    def test_grant_for_other_job_rejected(self):
        job = make_job()
        win = ExecutionWindow("g0s0", 10240, 0.0, 600.0)
        with pytest.raises(ValueError):
            materialize(job, Grant("offer-000000", "imposter"), win, CAT, RISK, SEG)

    def test_job_without_a_plan_is_refused(self):
        job = make_job(level=30000.0, declared=31000.0)
        win = ExecutionWindow("g0s0", 10240, 0.0, 600.0)
        assert collect_interest(advertise([win])[0], [job], CAT, RISK, SEG)[0].kind == "decline"
        with pytest.raises(ValueError, match="no plan for the window"):
            materialize(job, Grant("offer-000000", "j1"), win, CAT, RISK, SEG)
