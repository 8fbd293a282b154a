"""Symbolic / variational timing analysis (paper Sec. 3.6).

Arrival times are kept as first-order polynomials ("canonical forms") over a
set of global variational parameters p_j (process/environment variables,
standard normal) plus an independent local term:

    t = a0 + sum_j a_j p_j + b xi,   p_j, xi ~ N(0, 1) independent

SUM adds coefficient vectors; MAX uses Clark's formulas with the correlation
induced by the shared parameters and re-linearizes with the tightness
probability (the conditional-linear MAX of canonical SSTA).  The polynomial
closed form supports, without re-running the analysis:

- per-parameter delay sensitivities of any net,
- corner evaluation (set p_j to +-3),
- cheap sampling of the whole circuit's arrival vector with *shared*
  parameter draws, hence correlation-aware timing yield
  (:func:`timing_yield`).

Truncation to first order is the accuracy/efficiency trade-off the paper
notes for this method family.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.logic.gates import GateType, gate_spec
from repro.netlist.analysis import fanin_cone
from repro.netlist.core import Gate, Netlist
from repro.stats.clark import clark_max_moments, clark_tightness


@dataclass(frozen=True)
class ProcessSpace:
    """The ordered set of global variational parameters."""

    names: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate parameter names")

    @property
    def dim(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)


class CanonicalForm:
    """First-order polynomial arrival time over a :class:`ProcessSpace`."""

    __slots__ = ("space", "a0", "coeffs", "local_var")

    def __init__(self, space: ProcessSpace, a0: float,
                 coeffs: Optional[np.ndarray] = None,
                 local_var: float = 0.0) -> None:
        self.space = space
        self.a0 = float(a0)
        self.coeffs = (np.zeros(space.dim) if coeffs is None
                       else np.asarray(coeffs, dtype=float).copy())
        if self.coeffs.shape != (space.dim,):
            raise ValueError(
                f"coefficient vector must have dim {space.dim}")
        if local_var < -1e-12:
            raise ValueError(f"local variance must be >= 0, got {local_var}")
        self.local_var = max(float(local_var), 0.0)

    # -- moments -----------------------------------------------------------

    @property
    def mean(self) -> float:
        return self.a0

    @property
    def var(self) -> float:
        return float(self.coeffs @ self.coeffs) + self.local_var

    @property
    def sigma(self) -> float:
        return math.sqrt(self.var)

    def cov_with(self, other: "CanonicalForm") -> float:
        """Covariance through the shared global parameters only."""
        return float(self.coeffs @ other.coeffs)

    def corr_with(self, other: "CanonicalForm") -> float:
        denom = self.sigma * other.sigma
        return self.cov_with(other) / denom if denom > 0.0 else 0.0

    # -- operations ----------------------------------------------------------

    def __add__(self, other: "CanonicalForm") -> "CanonicalForm":
        self._check_space(other)
        return CanonicalForm(self.space, self.a0 + other.a0,
                             self.coeffs + other.coeffs,
                             self.local_var + other.local_var)

    def max_with(self, other: "CanonicalForm") -> "CanonicalForm":
        """Conditional-linear MAX: Clark moments + tightness mixing."""
        self._check_space(other)
        cov = self.cov_with(other)
        mean, var = clark_max_moments(self.a0, self.var, other.a0, other.var,
                                      cov)
        q = clark_tightness(self.a0, self.var, other.a0, other.var, cov)
        coeffs = q * self.coeffs + (1.0 - q) * other.coeffs
        local = max(var - float(coeffs @ coeffs), 0.0)
        return CanonicalForm(self.space, mean, coeffs, local)

    def min_with(self, other: "CanonicalForm") -> "CanonicalForm":
        neg = self.negated().max_with(other.negated())
        return neg.negated()

    def negated(self) -> "CanonicalForm":
        return CanonicalForm(self.space, -self.a0, -self.coeffs,
                             self.local_var)

    # -- evaluation -----------------------------------------------------------

    def at_corner(self, corner: Mapping[str, float]) -> float:
        """Evaluate the polynomial at fixed parameter values (local term at
        its mean) — e.g. a +-3 sigma process corner."""
        value = self.a0
        for name, x in corner.items():
            value += self.coeffs[self.space.index(name)] * x
        return value

    def sensitivity(self, name: str) -> float:
        """d(arrival)/d(parameter)."""
        return float(self.coeffs[self.space.index(name)])

    def sample(self, param_draws: np.ndarray,
               rng: np.random.Generator) -> np.ndarray:
        """Evaluate on shared parameter draws (n x dim) plus fresh local
        noise — the 'sampling analysis' of Sec. 3.6."""
        if param_draws.ndim != 2 or param_draws.shape[1] != self.space.dim:
            raise ValueError("param_draws must be (n, dim)")
        values = self.a0 + param_draws @ self.coeffs
        if self.local_var > 0.0:
            values = values + rng.normal(
                0.0, math.sqrt(self.local_var), size=param_draws.shape[0])
        return values

    def _check_space(self, other: "CanonicalForm") -> None:
        if self.space is not other.space and self.space != other.space:
            raise ValueError("canonical forms live in different spaces")

    def __repr__(self) -> str:
        terms = " ".join(
            f"{c:+.3g}*{n}" for n, c in zip(self.space.names, self.coeffs)
            if abs(c) > 1e-12)
        return (f"CanonicalForm({self.a0:.4g} {terms} "
                f"local_var={self.local_var:.4g})")


@dataclass(frozen=True)
class VariationalDelay:
    """Gate delay as a canonical form: nominal * (1 + sum_j s_j p_j) + local.

    ``sensitivities`` maps parameter name -> relative sensitivity; gate types
    may override the nominal via ``type_scale`` (e.g. slower XOR cells).
    """

    space: ProcessSpace
    nominal: float = 1.0
    sensitivities: Mapping[str, float] = field(default_factory=dict)
    local_sigma: float = 0.0
    type_scale: Mapping[GateType, float] = field(default_factory=dict)

    def delay_form(self, gate: Gate) -> CanonicalForm:
        scale = self.type_scale.get(gate.gate_type, 1.0)
        nominal = self.nominal * scale
        coeffs = np.zeros(self.space.dim)
        for name, s in self.sensitivities.items():
            coeffs[self.space.index(name)] = nominal * s
        return CanonicalForm(self.space, nominal, coeffs,
                             self.local_sigma ** 2)


@dataclass(frozen=True)
class VariationalResult:
    """Per-net rise/fall canonical arrival forms.

    A pass restricted to ``outputs`` (see :func:`run_variational`) holds
    forms only for the launch points and the nets in the outputs'
    transitive fan-in cones; ``gates_evaluated`` counts the gates it
    propagated through.
    """

    netlist_name: str
    space: ProcessSpace
    rise: Mapping[str, CanonicalForm]
    fall: Mapping[str, CanonicalForm]
    gates_evaluated: int

    def worst(self, net: str) -> CanonicalForm:
        """The later of rise/fall at a net (canonical MAX)."""
        return self.rise[net].max_with(self.fall[net])


def run_variational(netlist: Netlist, delay: VariationalDelay,
                    launch_sigma: float = 1.0,
                    outputs: Optional[Sequence[str]] = None,
                    ) -> VariationalResult:
    """Min/max-separated SSTA over canonical forms (Sec. 3.6 engine).

    Launch points get independent local variance ``launch_sigma ** 2`` (the
    paper's N(0, 1) inputs); direction mapping per gate matches
    :mod:`repro.core.ssta`.

    ``outputs`` restricts the pass to the union of the named nets'
    transitive fan-in cones (gates still run in topological order).  A
    gate's form depends only on its inputs' forms and its own delay form,
    so every cone net's form is bit-identical to the whole-netlist pass;
    the result holds only the launch points and the cone nets.  An
    unknown output name raises ``ValueError``.
    """
    space = delay.space
    gates = netlist.combinational_gates
    if outputs is not None:
        launch = set(netlist.launch_points)
        for net in outputs:
            if net not in netlist.gates and net not in launch:
                raise ValueError(f"unknown output net {net!r}")
        cone = set().union(*(fanin_cone(netlist, net) for net in outputs))
        gates = tuple(g for g in gates if g.name in cone)
    rise: Dict[str, CanonicalForm] = {}
    fall: Dict[str, CanonicalForm] = {}
    for net in netlist.launch_points:
        rise[net] = CanonicalForm(space, 0.0, None, launch_sigma ** 2)
        fall[net] = CanonicalForm(space, 0.0, None, launch_sigma ** 2)
    for gate in gates:
        d = delay.delay_form(gate)
        spec = gate_spec(gate.gate_type)
        in_r = [rise[src] for src in gate.inputs]
        in_f = [fall[src] for src in gate.inputs]
        if gate.gate_type is GateType.BUFF:
            r, f = in_r[0], in_f[0]
        elif gate.gate_type is GateType.NOT:
            r, f = in_f[0], in_r[0]
        elif spec.is_parity:
            worst = _fold(in_r + in_f, "max")
            r = f = worst
        elif spec.controlling_value == 0:  # AND core
            r, f = _fold(in_r, "max"), _fold(in_f, "min")
            if spec.inverting:
                r, f = f, r
        else:  # OR core
            r, f = _fold(in_r, "min"), _fold(in_f, "max")
            if spec.inverting:
                r, f = f, r
        rise[gate.name] = r + d
        fall[gate.name] = f + d
    return VariationalResult(netlist.name, space, rise, fall,
                             len(gates))


def _fold(forms: Sequence[CanonicalForm], op: str) -> CanonicalForm:
    acc = forms[0]
    for form in forms[1:]:
        acc = acc.max_with(form) if op == "max" else acc.min_with(form)
    return acc


def timing_yield(result: VariationalResult, endpoints: Sequence[str],
                 deadline: float, n_samples: int = 20_000,
                 rng: Optional[np.random.Generator] = None) -> float:
    """P(every endpoint's worst arrival <= deadline), correlation-aware.

    All endpoints are sampled on SHARED parameter draws, so systematic
    variation correlates them — the effect plain per-endpoint normal
    quantiles would miss.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if not endpoints:
        raise ValueError("need at least one endpoint")
    draws = rng.standard_normal((n_samples, result.space.dim))
    ok = np.ones(n_samples, dtype=bool)
    for net in endpoints:
        values = result.worst(net).sample(draws, rng)
        ok &= values <= deadline
    return float(ok.mean())
