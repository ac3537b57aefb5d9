"""
One offer round, step by step
=============================

The scheduler advertises free windows as offers; waiting jobs answer with
interest or a decline, a pure verdict on whether they could fit a subjob
into the window; a policy picks one winner in the same round, so an offer
needs no expiry; only the winner plans the window, and materialization
mints its subjobs, which the engine then runs to their end. No job state
exists until that last step.
"""
import numpy as np

from sjasim.cluster import ExecutionWindow, SliceCatalog
from sjasim.policies import GrantPolicy, SelectionContext, TenantLedger
from sjasim.profiles import RiskParams, TrajectoryEnsemble, build_profile
from sjasim.protocol import advertise, collect_interest, grant_offer, materialize
from sjasim.segmentation import SegmentationConfig
from sjasim.workload import JobRuntime, JobSpec

H = 60.0
catalog = SliceCatalog()
risk = RiskParams(eps=0.05)
seg = SegmentationConfig(tau_min_s=300.0, tau_max_s=3600.0,
                         smoothing_window_s=0.0, hysteresis_delta=0.15)


def waiting_job(job_id, level_mb, declared, arrival):
    runs = [np.full(31, level_mb) for _ in range(4)]
    profile = build_profile(TrajectoryEnsemble(grid_step=H, runs=runs))
    spec = JobSpec(job_id, "tenant-a", arrival, 1800.0, declared)
    return JobRuntime(spec=spec, profile=profile, actual=runs[0], grid_step=H)


jobs = [
    waiting_job("small", 8000.0, 9000.0, arrival=0.0),
    waiting_job("big", 30000.0, 31000.0, arrival=10.0),
]

# 1. A 20 GB slice is free for 30 minutes: advertise it.
gap = ExecutionWindow("g0s1", 20480, start=120.0, duration=1800.0)
offer, = advertise([gap])
print(f"offer {offer.offer_id}: {gap.capacity_mb / 1024:.0f} GB "
      f"[{gap.start:.0f} s, {gap.end:.0f} s)")

# 2. Every waiting job answers. The 30 GB job cannot fit and declines; the
#    other signals interest without planning the window yet.
signals = collect_interest(offer, jobs, catalog, risk, seg)
for s in signals:
    print(f"  {s.job_id}: {s.kind}" + (f" ({s.reason})" if s.reason else ""))

# 3. A policy picks among interested jobs; fifo takes the earliest arrival.
#    It reads each candidate's arrival, priority, deadline, tenant and
#    profile from the job itself.
ctx = SelectionContext(now=60.0, risk=risk, jobs={j.spec.job_id: j for j in jobs})
grant = grant_offer(offer, signals, GrantPolicy(kind="fifo"), TenantLedger({}), ctx)
print(f"granted to {grant.job_id}")

# 4. Materialize: the winner plans the window and mints bounded subjobs.
winner = next(j for j in jobs if j.spec.job_id == grant.job_id)
subjobs = materialize(winner, grant, offer.window, catalog, risk, seg)
for sj in subjobs:
    print(f"  {sj.subjob_id}: wall [{sj.window_start_s:.0f} s, "
          f"{sj.reserved_end_s:.0f} s), "
          f"work [{sj.pos_from_s:.0f} s, {sj.pos_to_s:.0f} s) "
          f"at {sj.slice_capacity_mb / 1024:.0f} GB, "
          f"p(fit)={sj.admission_probability:.2f}")
