"""Grant policy selection and fairness accounting."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sjasim import policies
from sjasim.cluster import ExecutionWindow
from sjasim.policies import (
    POLICY_KINDS,
    GrantPolicy,
    SelectionContext,
    TenantLedger,
    jain_index,
    offer_cost_tokens,
    select,
)
from sjasim.profiles import RiskParams, TrajectoryEnsemble, build_profile, refresh_profile
from sjasim.protocol import InterestSignal, Offer
from sjasim.workload import JobRuntime, JobSpec


def offer(capacity=10240, duration=600.0):
    return Offer("offer-000000", ExecutionWindow("g0s0", capacity, 0.0, duration))


def interests(*job_ids):
    return [InterestSignal("offer-000000", j, "interest") for j in job_ids]


def flat_profile(runtime_steps=31, level=1000.0, n_runs=8):
    runs = [np.full(runtime_steps, level) for _ in range(n_runs)]
    return build_profile(TrajectoryEnsemble(grid_step=60.0, runs=runs), eps_levels=(0.05,))


RISK = RiskParams()
ACTUAL = np.zeros(31)  # a 1800 s ground-truth run; policies read only its length


def ctx(arrivals=None, priorities=None, deadlines=None, tenants=None,
        remaining=None, profiles=None, now=0.0, risk=RiskParams(), starts=None):
    """A context over one JobRuntime per arrival key; `remaining` sets each
    job's position_s to leave that fraction of its run."""
    jobs = {}
    for j, arrival in (arrivals or {}).items():
        spec = JobSpec(j, (tenants or {}).get(j, "t0"), arrival, 1800.0, 1000.0,
                       priority=(priorities or {}).get(j, 0),
                       deadline_s=(deadlines or {}).get(j))
        position = (1.0 - (remaining or {}).get(j, 1.0)) * 1800.0
        jobs[j] = JobRuntime(spec=spec, profile=(profiles or {}).get(j) or flat_profile(),
                             actual=ACTUAL, grid_step=60.0, position_s=position)
    return SelectionContext(now, risk, jobs, dict(starts or {}))


class TestFifoAndPriority:
    def test_fifo_earliest_arrival_then_id(self):
        c = ctx(arrivals={"b": 10.0, "a": 5.0, "c": 5.0})
        got = select(GrantPolicy("fifo"), offer(), interests("a", "b", "c"), None, c)
        assert got == "a"  # arrival 5 ties broken by id

    def test_priority_highest_wins(self):
        c = ctx(arrivals={"a": 0.0, "b": 50.0}, priorities={"a": 1, "b": 9})
        assert select(GrantPolicy("priority"), offer(), interests("a", "b"), None, c) == "b"

    def test_declines_never_selected(self):
        sigs = [InterestSignal("offer-000000", "a", "decline", reason="x")]
        assert select(GrantPolicy("fifo"), offer(), sigs, None, ctx({"a": 0.0})) is None


class TestEdf:
    def test_earliest_reachable_deadline(self):
        prof = flat_profile()  # runtime 1800 s in every run
        c = ctx(
            arrivals={"a": 0.0, "b": 0.0, "c": 0.0},
            deadlines={"a": 50000.0, "b": 30000.0, "c": 90000.0},
            profiles={j: prof for j in "abc"},
        )
        assert select(GrantPolicy("edf"), offer(), interests("a", "b", "c"), None, c) == "b"

    def test_unreachable_deadline_skipped(self):
        prof = flat_profile()  # needs 1800 s
        c = ctx(
            arrivals={"tight": 0.0, "slack": 0.0},
            deadlines={"tight": 600.0, "slack": 50000.0},
            profiles={"tight": prof, "slack": prof},
        )
        assert select(GrantPolicy("edf"), offer(), interests("tight", "slack"), None, c) == "slack"

    def test_deadline_free_jobs_rank_last(self):
        prof = flat_profile()
        c = ctx(
            arrivals={"free": 0.0, "dl": 100.0},
            deadlines={"free": None, "dl": 50000.0},
            profiles={"free": prof, "dl": prof},
        )
        assert select(GrantPolicy("edf"), offer(), interests("free", "dl"), None, c) == "dl"
        c2 = ctx(arrivals={"free": 0.0}, deadlines={"free": None})
        assert select(GrantPolicy("edf"), offer(), interests("free"), None, c2) == "free"

    def test_all_unreachable_grants_nothing(self):
        prof = flat_profile()
        c = ctx(arrivals={"a": 0.0}, deadlines={"a": 60.0}, profiles={"a": prof})
        assert select(GrantPolicy("edf"), offer(), interests("a"), None, c) is None

    def test_remaining_fraction_scales_demand(self):
        # 90% done: only 180 s of work left, so a 600 s deadline is fine.
        prof = flat_profile()
        c = ctx(arrivals={"a": 0.0}, deadlines={"a": 600.0},
                remaining={"a": 0.1}, profiles={"a": prof})
        assert select(GrantPolicy("edf"), offer(), interests("a"), None, c) == "a"


class TestReusedContext:
    """One context serving several selections, as in an sja round, picks
    what a fresh context per selection picks, even when the bidders' starts
    change between selections, and memoizes edf verdicts for the screened
    (deadline job, start) pairs only."""

    @settings(max_examples=150, deadline=None)
    @given(
        jobs=st.lists(
            st.tuples(st.integers(0, 3),  # arrival
                      st.one_of(st.none(), st.integers(0, 4000)),  # deadline
                      st.integers(5, 60),  # runtime steps
                      st.sampled_from([0.25, 1.0])),  # remaining fraction
            min_size=1, max_size=6),
        bids=st.lists(
            st.dictionaries(st.integers(0, 5),  # bidder -> start (None: position_s)
                            st.sampled_from([None, 0.0, 900.0, 1350.0, 1800.0]),
                            max_size=6),
            min_size=1, max_size=6),
        kind=st.sampled_from(POLICY_KINDS),
    )
    def test_same_winners_as_fresh_contexts(self, jobs, bids, kind):
        ids = [f"j{i}" for i in range(len(jobs))]
        fields = dict(
            arrivals={j: float(a) for j, (a, _, _, _) in zip(ids, jobs)},
            deadlines={j: d for j, (_, d, _, _) in zip(ids, jobs)},
            remaining={j: r for j, (_, _, _, r) in zip(ids, jobs)},
            profiles={j: flat_profile(s) for j, (_, _, s, _) in zip(ids, jobs)},
            tenants={j: f"t{i % 2}" for i, j in enumerate(ids)},
            now=300.0,
        )
        policy = GrantPolicy(kind)
        ledger = TenantLedger({"t0": 500.0, "t1": 80.0})
        shared = ctx(**fields)
        screened = set()
        for bid in bids:
            bidders = [ids[i] for i in sorted(bid) if i < len(ids)]
            starts = {ids[i]: s for i, s in bid.items() if i < len(ids) and s is not None}
            shared.starts = starts
            got = select(policy, offer(), interests(*bidders), ledger, shared)
            fresh = ctx(**fields, starts=starts)
            assert got == select(policy, offer(), interests(*bidders), ledger, fresh)
            if kind == "edf":
                screened |= {
                    (j, starts.get(j, shared.jobs[j].position_s))
                    for j in bidders if fields["deadlines"][j] is not None
                }
            assert shared.reachable | set(shared.parked) == screened
            assert not shared.reachable & set(shared.parked)  # one verdict each

    def test_later_start_flips_an_unreachable_deadline(self):
        # 1800 s of work from position 0 misses a 900 s deadline; from a
        # start 1350 s in, 450 s are left and it fits.
        c = ctx(arrivals={"a": 0.0}, deadlines={"a": 900.0})
        policy = GrantPolicy("edf")
        assert select(policy, offer(), interests("a"), None, c) is None
        c.starts = {"a": 1350.0}
        assert select(policy, offer(), interests("a"), None, c) == "a"
        assert c.reachable == {("a", 1350.0)}
        assert set(c.parked) == {("a", 0.0)}


class TestParkedVerdicts:
    """An unreachable edf verdict outlives its round: rounds that share one
    `parked` map screen the job once, until its profile or start changes."""

    def test_screened_once_across_rounds_and_again_after_a_refresh(self, monkeypatch):
        screens = []
        screen = policies.deadline_admissible
        monkeypatch.setattr(
            policies, "deadline_admissible", lambda *a: screens.append(a[0]) or screen(*a)
        )
        # 1800 s of work from position 0 cannot meet a 900 s deadline.
        jobs = ctx(arrivals={"a": 0.0}, deadlines={"a": 900.0}).jobs
        job, parked, policy = jobs["a"], {}, GrantPolicy("edf")

        def round_at(now, starts=None):
            shared = SelectionContext(now, RISK, jobs, dict(starts or {}), parked=parked)
            got = select(policy, offer(), interests("a"), None, shared)
            fresh = SelectionContext(now, RISK, jobs, dict(starts or {}))
            assert got == select(policy, offer(), interests("a"), None, fresh)
            return got

        for now in (0.0, 300.0, 600.0):
            assert round_at(now) is None
        assert len(screens) == 1 + 3  # the fresh contexts screen every round
        assert parked[("a", 0.0)] is job.profile

        screens.clear()
        job.profile = refresh_profile(job.profile, np.zeros(31))
        assert round_at(600.0) is None and round_at(700.0) is None
        assert len(screens) == 3 and all(p is job.profile for p in screens)
        assert parked[("a", 0.0)] is job.profile

        # From a start 1350 s in, 450 s are left: reachable at now = 300.
        screens.clear()
        assert round_at(300.0, {"a": 1350.0}) == "a"
        assert len(screens) == 2


class TestFairTokens:
    def test_cost_formula(self):
        # 10 GB x 10 min x 1.0 = 100 tokens
        assert offer_cost_tokens(offer(10240, 600.0), 1.0) == pytest.approx(100.0)
        assert offer_cost_tokens(offer(5120, 300.0), 2.0) == pytest.approx(50.0)

    def test_richest_affordable_tenant_wins(self):
        led = TenantLedger(budgets={"acme": 500.0, "zen": 900.0})
        c = ctx(arrivals={"a": 0.0, "z": 10.0}, tenants={"a": "acme", "z": "zen"})
        got = select(GrantPolicy("fair_tokens"), offer(), interests("a", "z"), led, c)
        assert got == "z"

    def test_unaffordable_tenants_filtered(self):
        led = TenantLedger(budgets={"acme": 500.0, "zen": 50.0})  # offer costs 100
        c = ctx(arrivals={"a": 0.0, "z": 10.0}, tenants={"a": "acme", "z": "zen"})
        got = select(GrantPolicy("fair_tokens"), offer(), interests("a", "z"), led, c)
        assert got == "a"
        led2 = TenantLedger(budgets={"acme": 5.0, "zen": 50.0})
        assert select(GrantPolicy("fair_tokens"), offer(), interests("a", "z"), led2, c) is None

    def test_fifo_within_tenant(self):
        led = TenantLedger(budgets={"acme": 500.0})
        c = ctx(arrivals={"a1": 30.0, "a2": 5.0}, tenants={"a1": "acme", "a2": "acme"})
        assert select(GrantPolicy("fair_tokens"), offer(), interests("a1", "a2"), led, c) == "a2"

    def test_requires_ledger(self):
        c = ctx(arrivals={"a": 0.0})
        with pytest.raises(ValueError):
            select(GrantPolicy("fair_tokens"), offer(), interests("a"), None, c)

    def test_ledger_conservation(self):
        led = TenantLedger(budgets={"acme": 100.0})
        led.debit("acme", 60.0)
        assert led.remaining("acme") == pytest.approx(40.0)
        with pytest.raises(ValueError):
            led.debit("acme", 41.0)
        assert led.remaining("acme") == pytest.approx(40.0)
        assert led.remaining("nobody") == 0.0


class TestGrantPolicyValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            GrantPolicy(kind="lottery")
        with pytest.raises(ValueError):
            GrantPolicy(cost_rate=-1.0)

    @pytest.mark.parametrize("kwargs", [
        dict(cost_rate=float("nan")),
        dict(cost_rate=float("inf")),
        dict(token_budgets={"acme": float("nan")}),
    ])
    def test_non_finite_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GrantPolicy(**kwargs)


class TestJainIndex:
    def test_textbook_values(self):
        assert jain_index([1.0, 2.0, 3.0]) == pytest.approx(36.0 / 42.0)
        assert jain_index([5.0, 5.0, 5.0]) == 1.0
        # one tenant hogging everything: index -> 1/n
        assert jain_index([9.0, 0.0, 0.0]) == pytest.approx(1.0 / 3.0)

    def test_dict_and_degenerate_inputs(self):
        assert jain_index({"a": 2.0, "b": 2.0}) == 1.0
        assert jain_index([]) == 1.0
        assert jain_index([0.0, 0.0]) == 1.0
        with pytest.raises(ValueError):
            jain_index([-1.0, 2.0])
