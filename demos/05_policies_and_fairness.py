"""
Grant policies: deadlines and token fairness
============================================

Two things happen at grant time: an admission screen (can this job still
make its deadline with acceptable risk?) and a choice among the screened
candidates (fifo, priority, earliest deadline, or fair token spending).
"""
from sjasim.policies import jain_index
from sjasim.profiles import RiskParams, deadline_admissible
from sjasim.scenarios import make_two_tenant_scenario
from sjasim.simcore import run

# A deadline screen on its own: 40 minutes of work, spread across runs.
from sjasim.workload import Phase, PhaseModel, synth_ensemble
from sjasim.profiles import build_profile

model = PhaseModel(phases=(Phase("steady", 2400.0, 8000.0, 300.0),))
profile = build_profile(synth_ensemble(model, 200, 0.15, seed=[7]))
for deadline in (2000.0, 2600.0, 3200.0):
    d = deadline_admissible(profile, remaining_work_fraction=1.0,
                            deadline_from_now=deadline, risk=RiskParams(alpha_t=0.05))
    print(f"deadline in {deadline:>6.0f} s: p(make it)={d.probability:.3f} "
          f"-> {'admit' if d.admissible else 'reject'}")

# Token fairness end to end: two tenants with identical demand and equal
# budgets share the cluster; Jain's index of reserved capacity-time per
# tenant should sit near 1.
scenario, cfg = make_two_tenant_scenario()
report, _ = run(scenario, "sja", cfg, seed=0)
total = sum(report.per_tenant_reserved.values())
print(f"\ntwo tenants under fair_tokens, {report.total_time_s / 3600:.1f} h horizon")
for tenant, reserved in sorted(report.per_tenant_reserved.items()):
    print(f"  {tenant}: {100 * reserved / total:.1f}% of reserved GB-seconds")
print(f"  Jain index {jain_index(report.per_tenant_reserved):.4f}")
