"""
Memory profiles from noisy run ensembles
========================================

A job's memory demand is summarized from repeated runs on a shared time
grid: a median curve plus a risk-adjusted envelope (the pointwise
(1 - eps) quantile). Admission then counts, over the source runs, how
often a window would have stayed under a candidate capacity.
"""
import numpy as np

from sjasim.profiles import RiskParams, build_profile, envelope_peak, memory_admissible
from sjasim.workload import Phase, PhaseModel, synth_ensemble

# A model with a warmup ramp into a noisy steady phase, sampled every 60 s.
model = PhaseModel(phases=(
    Phase("warmup", 300.0, 9000.0),
    Phase("steady", 2100.0, 9000.0, noise_sd_mb=600.0),
))
ensemble = synth_ensemble(model, n_runs=200, duration_jitter=0.1, seed=[42])
profile = build_profile(ensemble)

print(f"{ensemble.n_runs} runs, grid {ensemble.grid_step:.0f} s, "
      f"median horizon {profile.horizon / 60:.0f} min")

# The envelope sits above the median; the margin is what absorbs run noise.
env = profile.envelope(0.05)
mid = profile.median_curve
k = len(mid) // 2
print(f"mid-run median {mid[k]:.0f} MB, 95% envelope {env[k]:.0f} MB")

# Peak queries answer "how much memory must a window reserve".
peak = envelope_peak(profile, 0.05, (600.0, 1800.0))
print(f"envelope peak over [600 s, 1800 s): {peak:.0f} MB")

# Admission asks a sharper question: the fraction of runs whose *maximum*
# over the window fits. A capacity at or above the envelope peak passes
# every grid point separately yet can fail jointly, which is why admission
# is joint; the peak comparison only flags where the two disagree.
for cap in (9500.0, 10500.0, 10800.0):
    joint = memory_admissible(profile, cap, (600.0, 1800.0), RiskParams(eps=0.05))
    print(f"capacity {cap:>7.0f} MB: joint p={joint.probability:.3f} "
          f"{'admit' if joint.admissible else 'deny '}   "
          f"peak {'<=' if peak <= cap else '> '} capacity")
