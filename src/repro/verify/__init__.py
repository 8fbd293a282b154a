"""Cross-engine differential conformance harness.

The repo computes the same per-net arrival statistics five ways — moment,
mixture, and grid TOP algebras, each through its production path and the
naive reference sweep, plus two Monte Carlo simulators.  This package sweeps every engine pair
over fuzzed random circuits and ISCAS benches under per-pair tolerance
policies (:mod:`repro.verify.policies`), with Monte Carlo as the
ground-truth oracle, and turns the stats layer's mass-conservation /
NaN-sentinel counters into hard failures.  ``spsta verify`` runs the sweep
from the command line and emits a machine-readable JSON report; CI runs it
on every push.  See ``docs/verification.md``.
"""

from repro.verify.harness import (
    CircuitConformance,
    ConformanceReport,
    Divergence,
    PairCheck,
    run_conformance,
    verify_circuit,
)
from repro.verify.policies import (
    CONTAINMENT_POLICIES,
    GUARDRAIL_MAX_CLIP_FRACTION,
    POLICIES,
    ContainmentPolicy,
    TolerancePolicy,
)

__all__ = [
    "CircuitConformance",
    "ConformanceReport",
    "CONTAINMENT_POLICIES",
    "ContainmentPolicy",
    "Divergence",
    "GUARDRAIL_MAX_CLIP_FRACTION",
    "PairCheck",
    "POLICIES",
    "TolerancePolicy",
    "run_conformance",
    "verify_circuit",
]
