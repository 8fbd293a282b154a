"""Timing analyzers: the paper's SPSTA contribution plus STA/SSTA baselines.

- :mod:`repro.core.inputs` — cycle-level input statistics (four-value
  probabilities + arrival distributions) asserted at launch points.
- :mod:`repro.core.probability` — four-value signal probability propagation
  (paper Eq. 9/10) and the power-estimation signal probability (Eq. 5).
- :mod:`repro.core.delay` — gate delay models (the paper uses unit delay).
- :mod:`repro.core.sta` — deterministic min/max static timing (Fig. 1 bounds).
- :mod:`repro.core.ssta` — the min/max-separated block-based SSTA baseline.
- :mod:`repro.core.spsta` — the SPSTA engine, parameterized over three TOP
  abstractions (moments / Gaussian mixture / numeric grid).
- :mod:`repro.core.variational` — polynomial-of-variational-variable arrival
  times (paper Sec. 3.6).
- :mod:`repro.core.correlation` — higher-order covariances and BDD-exact
  signal probabilities (paper Sec. 3.5).
"""

from repro.core.constraints import (
    TimingConstraints,
    constrained_slacks,
    parse_sdc,
)
from repro.core.corners import (
    STANDARD_CORNERS,
    Corner,
    corner_vs_statistical,
    ocv_slacks,
    run_corners,
)
from repro.core.correlation import (
    correlated_signal_probabilities,
    exact_signal_probabilities,
)
from repro.core.delay import (
    DelayModel,
    MisDelay,
    NormalDelay,
    PerGateDelay,
    UnitDelay,
)
from repro.core.incremental import IncrementalSsta, UpdateStats
from repro.core.inputs import CONFIG_I, CONFIG_II, InputStats, Prob4
from repro.core.liberty import parse_liberty, parse_liberty_file
from repro.core.nldm import (
    FrozenDelays,
    LookupTable,
    NldmLibrary,
    TimingArc,
    run_nldm_sta,
)
from repro.core.paths import (
    TimingPath,
    criticality_probabilities,
    k_longest_paths,
    path_delay,
)
from repro.core.probability import propagate_prob4, signal_probabilities
from repro.core.profiling import SpstaProfile
from repro.core.sequential import (
    run_sequential_monte_carlo,
    steady_state_launch_stats,
)
from repro.core.slack import compute_slacks, slack_histogram
from repro.core.spsta import (
    GridAlgebra,
    MixtureAlgebra,
    MomentAlgebra,
    SpstaResult,
    TopFunction,
    run_spsta,
)
from repro.core.spsta_canonical import (
    CanonicalTopAlgebra,
    endpoint_correlation,
)
from repro.core.ssta import ArrivalPair, SstaResult, run_ssta
from repro.core.ssta_canonical import CorrelatedSstaResult, run_ssta_correlated
from repro.core.sta import StaResult, run_sta
from repro.core.trace import (
    input_stats_from_trace,
    prob4_from_trace,
    stats_from_traces,
)
from repro.core.variational import (
    CanonicalForm,
    ProcessSpace,
    VariationalDelay,
    run_variational,
    timing_yield,
)
from repro.core.waveform import ProbabilityWaveform, propagate_waveforms

__all__ = [
    "InputStats",
    "Prob4",
    "CONFIG_I",
    "CONFIG_II",
    "propagate_prob4",
    "signal_probabilities",
    "exact_signal_probabilities",
    "correlated_signal_probabilities",
    "DelayModel",
    "UnitDelay",
    "NormalDelay",
    "PerGateDelay",
    "MisDelay",
    "LookupTable",
    "TimingArc",
    "NldmLibrary",
    "run_nldm_sta",
    "FrozenDelays",
    "parse_liberty",
    "parse_liberty_file",
    "IncrementalSsta",
    "UpdateStats",
    "steady_state_launch_stats",
    "run_sequential_monte_carlo",
    "ProbabilityWaveform",
    "propagate_waveforms",
    "TimingConstraints",
    "parse_sdc",
    "constrained_slacks",
    "Corner",
    "STANDARD_CORNERS",
    "run_corners",
    "ocv_slacks",
    "corner_vs_statistical",
    "compute_slacks",
    "slack_histogram",
    "prob4_from_trace",
    "input_stats_from_trace",
    "stats_from_traces",
    "run_sta",
    "StaResult",
    "run_ssta",
    "SstaResult",
    "run_ssta_correlated",
    "CorrelatedSstaResult",
    "ArrivalPair",
    "run_spsta",
    "SpstaProfile",
    "SpstaResult",
    "TopFunction",
    "MomentAlgebra",
    "MixtureAlgebra",
    "GridAlgebra",
    "CanonicalTopAlgebra",
    "endpoint_correlation",
    "TimingPath",
    "k_longest_paths",
    "path_delay",
    "criticality_probabilities",
    "ProcessSpace",
    "CanonicalForm",
    "VariationalDelay",
    "run_variational",
    "timing_yield",
]
