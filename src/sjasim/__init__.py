"""Gap-filling GPU scheduler simulation toolkit.

Library layout:

- profiles: quantile envelopes, admission checks, runtime distributions
- workload: phase-model trajectory generation, jobs, scenario files
- cluster: sliced GPUs, reservation timelines, gap discovery
- segmentation: slack-minimizing window splitting with hysteresis
- protocol: offer / interest / grant / materialize scheduling rounds
- policies: grant policies (fifo, priority, edf, fair_tokens) and fairness
- baselines: monolithic, moldable, and preempt-migrate reference schedulers
- simcore: discrete-event engine, metrics, multi-scheduler comparison
- scenarios: ready-made scenario generators
- config/cli: run configuration and the command-line front end
"""

from . import (
    baselines,
    cluster,
    config,
    policies,
    profiles,
    protocol,
    scenarios,
    segmentation,
    simcore,
    workload,
)
from .cluster import ClusterState, ExecutionWindow, SliceCatalog, find_gaps
from .config import RunConfig
from .profiles import (
    FunctionalProfile,
    RiskParams,
    TrajectoryEnsemble,
    build_profile,
    deadline_admissible,
    envelope_peak,
    memory_admissible,
    refresh_profile,
)
from .scenarios import SCENARIO_BUILDERS, export_scenario
from .segmentation import SegmentationConfig, plan_segments, segment_window
from .simcore import MetricsReport, Scenario, SimConfig, compare, run
from .workload import JobSpec, PhaseModel, generate_trajectory, synth_ensemble

__version__ = "0.1.0"
