"""SPSTA-in-the-loop statistical gate sizing / derate optimization.

The closed loop the paper motivates for block-based engines ("efficient,
incremental, and suitable for optimization", Sec. 1), built from four
existing layers:

- **cost** — a yield or mean+k·sigma metric computed directly from the
  endpoint TOP functions of an SPSTA engine (moment or mixture algebra);
- **re-timing** — every move repairs only its fan-out cone via
  :class:`repro.core.incremental_spsta.IncrementalSpsta` (bit-identical to
  a full pass, see ``docs/optimization.md``), instead of the
  full-analysis-per-move pattern of the related statistical-timing
  optimizer repos;
- **gradients** — one variational pass with one process parameter per
  candidate gate yields d(endpoint arrival)/d(gate delay) for *all*
  candidates at once (:mod:`repro.core.variational`), so greedy move
  selection never re-runs the statistical engine; the pass covers only
  the worst endpoint's fan-in cone, so it costs O(cone gates * dim);
- **oracle** — the final sizing can be validated with the Monte Carlo
  engine's joint (all-endpoints, shared-trial) yield.

Moves are gate upsizes under the classic simplification of
:mod:`repro.opt.sizing`: delay ``base / size`` (and sigma ``sigma / size``
— stronger drive tightens the spread), area cost ``size - 1``.  A greedy
critical-cone phase runs first; an optional simulated-annealing schedule
(random perturbations on the current critical path, Metropolis
acceptance) can refine or replace it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.bounds.engine import DelayBounds, compute_bounds
from repro.core.delay import NormalDelay
from repro.core.incremental_spsta import (
    IncrementalSpsta,
    assert_matches_full,
)
from repro.core.inputs import CONFIG_I, InputStats
from repro.core.spsta import MixtureAlgebra, MomentAlgebra, TopAlgebra
from repro.core.variational import (
    CanonicalForm,
    ProcessSpace,
    run_variational,
)
from repro.netlist.core import Gate, Netlist
from repro.sim.montecarlo import run_monte_carlo
from repro.sim.parallel import seed_sequence_of
from repro.stats.mixture import GaussianMixture
from repro.stats.normal import Normal

#: Candidate-set cap for the per-move variational gradient pass: one
#: process parameter per candidate, so this bounds the canonical-form
#: dimension (cost of the pass is O(cone gates * dim)).
GRADIENT_CANDIDATE_CAP = 24


@dataclass(frozen=True)
class SizedNormalDelay:
    """Per-gate sizes over N(base, sigma): delay = N(base/s, sigma/s)."""

    base: float = 1.0
    sigma: float = 0.1
    sizes: Mapping[str, float] = field(default_factory=dict)

    def size_of(self, name: str) -> float:
        return self.sizes.get(name, 1.0)

    def delay(self, gate: Gate) -> Normal:
        size = self.size_of(gate.name)
        return Normal(self.base / size, self.sigma / size)


@dataclass(frozen=True)
class Move:
    """One optimizer move: a gate resize and its re-timing accounting."""

    phase: str              # "greedy" | "anneal"
    gate: str
    size: float             # proposed size
    accepted: bool
    metric_after: float     # natural-units metric after this move settled
    recomputed: int         # incremental gate re-evaluations the move cost


@dataclass(frozen=True)
class McValidation:
    """Monte Carlo oracle check of the final sizing."""

    trials: int
    joint_yield: float      # P(no endpoint transitions after the clock)


@dataclass(frozen=True)
class SpstaSizingResult:
    """Outcome of one :func:`optimize_spsta` run."""

    sizes: Mapping[str, float]
    metric: str                       # "yield" | "mean-ksigma"
    metric_before: float              # natural units (yield / time)
    metric_after: float
    area_cost: float
    iterations: int                   # greedy moves attempted
    anneal_moves_run: int
    accepted_moves: int
    met_target: bool
    recomputed_gates: int             # total per-move gate re-evaluations
    gradient_gates: int               # gates the gradient passes evaluated
    moves: Tuple[Move, ...] = ()
    verified_moves: int = 0           # per-move conformance checks run
    mc_validation: Optional[McValidation] = None
    bounds_pruning: bool = False      # certified pruning was active
    pruned_candidates: int = 0        # gates certified never-critical
    pruned_endpoints: int = 0         # endpoints dropped from worst scans


def optimize_spsta(netlist: Netlist,
                   clock_period: float,
                   *,
                   metric: str = "yield",
                   k_sigma: float = 3.0,
                   target_yield: float = 0.95,
                   max_area: float = 20.0,
                   size_step: float = 0.5,
                   max_size: float = 4.0,
                   base_delay: float = 1.0,
                   delay_sigma: float = 0.1,
                   stats: InputStats = CONFIG_I,
                   algebra: Optional[TopAlgebra] = None,
                   max_iterations: int = 60,
                   patience: int = 6,
                   anneal: bool = False,
                   anneal_moves: int = 120,
                   initial_temperature: float = 0.02,
                   cooling: float = 0.97,
                   rng: Optional[np.random.Generator] = None,
                   mc_validate: int = 0,
                   verify_moves: bool = False,
                   retime: str = "incremental",
                   bounds_pruning: bool = True) -> SpstaSizingResult:
    """Size gates until the SPSTA metric meets its target.

    ``metric="yield"`` maximizes the product over endpoints of
    P(transition settles by ``clock_period``), computed from the endpoint
    TOP functions (rise/fall are disjoint within a cycle; endpoints are
    combined under the paper's independence approximation); the target is
    ``target_yield``.  ``metric="mean-ksigma"`` minimizes the worst
    endpoint ``mean + k_sigma * std``; the target is ``clock_period``.

    ``rng`` drives the annealing schedule and the MC validation through
    per-phase child streams (:func:`repro.sim.parallel.seed_sequence_of`),
    so one seed determines the whole run.  ``verify_moves=True`` asserts
    after *every* applied move (accepted or reverted) that the
    incremental state is bit-identical to a fresh full pass —
    the ``incremental-vs-full`` conformance guarantee, paid for at one
    full analysis per move.  ``retime="full"`` forces that
    full-analysis-per-move repair pattern (benchmark baseline).

    ``bounds_pruning`` (mean-ksigma metric only; a documented no-op for
    yield, whose late probability is not monotone in sigma) runs one
    static interval pass (:func:`repro.bounds.compute_bounds`) over the
    delay box every reachable sizing lives in.  Endpoints whose upper
    criticality bound sits below ``clock_period`` can never be the
    worst endpoint while the loop runs (the loop only runs while the
    worst severity exceeds the clock), so they are dropped from the
    worst-endpoint scans; gates whose entire fan-out cone consists of
    such endpoints can never appear on a critical-path backtrace and
    are dropped from the candidate sets.  Both exclusions are provable
    no-ops on the chosen moves: results are bit-identical with pruning
    on or off (the cost function always scans every endpoint).

    Out-of-range options (a non-positive ``clock_period``,
    ``size_step`` or ``base_delay``, ``max_size < 1``, a negative
    ``delay_sigma``, ``max_area`` or count, a non-finite ``k_sigma``,
    any NaN) raise ``ValueError``; ``max_area=inf`` means no budget.
    """
    # Written as "not (ok)" so that NaN fails every numeric check.
    if not clock_period > 0.0:
        raise ValueError(f"clock_period must be > 0, got {clock_period}")
    if metric not in ("yield", "mean-ksigma"):
        raise ValueError(f"unknown metric {metric!r}")
    if not 0.0 < target_yield <= 1.0:
        raise ValueError("target_yield must be in (0, 1]")
    if retime not in ("incremental", "full"):
        raise ValueError(f"unknown retime mode {retime!r}")
    if not size_step > 0.0:
        raise ValueError(f"size_step must be > 0, got {size_step}")
    if not max_size >= 1.0:
        raise ValueError(f"max_size must be >= 1, got {max_size}")
    if not base_delay > 0.0:
        raise ValueError(f"base_delay must be > 0, got {base_delay}")
    if not delay_sigma >= 0.0:
        raise ValueError(f"delay_sigma must be >= 0, got {delay_sigma}")
    if not math.isfinite(k_sigma):
        raise ValueError(f"k_sigma must be finite, got {k_sigma}")
    if not max_area >= 0.0:
        raise ValueError(f"max_area must be >= 0, got {max_area}")
    for name, count in (("max_iterations", max_iterations),
                        ("anneal_moves", anneal_moves),
                        ("mc_validate", mc_validate)):
        if count < 0:
            raise ValueError(f"{name} must be >= 0, got {count}")
    if algebra is None:
        algebra = MomentAlgebra()
    if not isinstance(algebra, (MomentAlgebra, MixtureAlgebra)):
        raise ValueError(
            "optimize_spsta needs a closed-form CDF: use MomentAlgebra "
            f"or MixtureAlgebra, not {type(algebra).__name__}")
    if rng is None:
        rng = np.random.default_rng(0)
    seed_seq = seed_sequence_of(rng)

    sizes: Dict[str, float] = {}
    base_model = NormalDelay(base_delay, delay_sigma)
    inc = IncrementalSpsta(netlist, stats, base_model, algebra)
    endpoints = list(netlist.endpoints)
    comb = {g.name for g in netlist.combinational_gates}
    full_mode = retime == "full"

    # -- certified pruning (static, valid for every reachable sizing) ----
    pruning_active = bounds_pruning and metric == "mean-ksigma"
    prunable: frozenset = frozenset()
    scan_endpoints = endpoints
    if pruning_active:
        sizing_box = DelayBounds(base_delay / max_size, base_delay,
                                 delay_sigma / max_size, delay_sigma)
        # The moment algebra admits the tighter Gaussian transfer
        # functions; the mixture algebra only the distribution-free box.
        bounds_mode = ("moment" if isinstance(algebra, MomentAlgebra)
                       else "any")
        static = compute_bounds(
            netlist, stats=stats, k_sigma=k_sigma, include_sp=False,
            delay_bounds=lambda gate: sizing_box, mode=bounds_mode)
        never = set(static.never_critical_endpoints(clock_period))
        prunable = frozenset(static.non_critical_gates(clock_period))
        scan_endpoints = [net for net in endpoints if net not in never]

    state = {"recomputed": 0, "verified": 0, "gradient": 0}
    moves: List[Move] = []

    def apply(gate: str, size: float) -> int:
        delay = Normal(base_delay / size, delay_sigma / size)
        update = inc.set_delay(gate, delay, full=full_mode)
        state["recomputed"] += update.recomputed
        if verify_moves:
            assert_matches_full(inc)
            state["verified"] += 1
        return update.recomputed

    def cost() -> float:
        """Lower-is-better objective in both metric modes."""
        if metric == "yield":
            return 1.0 - _spsta_yield(inc, endpoints, clock_period)
        return _worst_mean_ksigma(inc, endpoints, k_sigma)

    def natural(c: float) -> float:
        return 1.0 - c if metric == "yield" else c

    def met(c: float) -> bool:
        if metric == "yield":
            return natural(c) >= target_yield
        return c <= clock_period

    cost_before = cost()
    current = cost_before
    iterations = 0
    stalled = 0

    # -- greedy critical-cone phase --------------------------------------
    while iterations < max_iterations and not met(current):
        iterations += 1
        endpoint = _worst_endpoint(inc, scan_endpoints, clock_period,
                                   metric, k_sigma)
        if endpoint is None:
            break
        path = _critical_path(inc, endpoint, comb, k_sigma)
        candidates = [g for g in path
                      if g not in prunable and sizes.get(g, 1.0) < max_size
                      ][:GRADIENT_CANDIDATE_CAP]
        if not candidates:
            break
        scored, evaluated = _score_candidates(
            netlist, endpoint, candidates, sizes, base_delay, delay_sigma,
            size_step, max_size)
        state["gradient"] += evaluated
        chosen: Optional[Tuple[str, float]] = None
        for gate, _score in scored:
            new_size = min(sizes.get(gate, 1.0) + size_step, max_size)
            trial = dict(sizes)
            trial[gate] = new_size
            if _area(trial) <= max_area:
                chosen = (gate, new_size)
                break
        if chosen is None:
            break                       # nothing affordable
        gate, new_size = chosen
        old_size = sizes.get(gate, 1.0)
        recomputed = apply(gate, new_size)
        trial_cost = cost()
        if trial_cost > current + 1e-12:
            # The move hurt: revert (incrementally) and stop the phase.
            recomputed += apply(gate, old_size)
            moves.append(Move("greedy", gate, new_size, False,
                              natural(current), recomputed))
            break
        accepted_stall = trial_cost >= current - 1e-12
        sizes[gate] = new_size
        current = trial_cost
        moves.append(Move("greedy", gate, new_size, True, natural(current),
                          recomputed))
        if accepted_stall:
            stalled += 1
            if stalled > patience:
                break
        else:
            stalled = 0

    # -- optional simulated-annealing schedule ---------------------------
    anneal_moves_run = 0
    if anneal and anneal_moves > 0:
        arng = np.random.default_rng(seed_seq.spawn(1)[0])
        temperature = initial_temperature
        for _ in range(anneal_moves):
            if met(current):
                break
            endpoint = _worst_endpoint(inc, scan_endpoints, clock_period,
                                       metric, k_sigma)
            if endpoint is None:
                break
            path = _critical_path(inc, endpoint, comb, k_sigma)
            if not path:
                break
            gate = path[int(arng.integers(len(path)))]
            old_size = sizes.get(gate, 1.0)
            down_ok = old_size - size_step >= 1.0
            up_ok = old_size + size_step <= max_size
            if not up_ok and not down_ok:
                continue
            go_up = up_ok and (not down_ok or arng.random() < 0.7)
            new_size = old_size + (size_step if go_up else -size_step)
            trial = dict(sizes)
            trial[gate] = new_size
            if _area(trial) > max_area:
                continue
            anneal_moves_run += 1
            recomputed = apply(gate, new_size)
            trial_cost = cost()
            delta = trial_cost - current
            accept = (delta <= 0.0
                      or arng.random() < math.exp(-delta / temperature))
            if accept:
                if new_size == 1.0:
                    sizes.pop(gate, None)
                else:
                    sizes[gate] = new_size
                current = trial_cost
            else:
                recomputed += apply(gate, old_size)
            moves.append(Move("anneal", gate, new_size, accept,
                              natural(current), recomputed))
            temperature *= cooling

    # -- final-point Monte Carlo oracle ----------------------------------
    mc_validation: Optional[McValidation] = None
    if mc_validate > 0:
        mc_rng = np.random.default_rng(seed_seq.spawn(1)[0])
        mc_validation = validate_with_mc(
            netlist, SizedNormalDelay(base_delay, delay_sigma, dict(sizes)),
            stats, clock_period, mc_validate, mc_rng)

    return SpstaSizingResult(
        sizes=dict(sizes), metric=metric,
        metric_before=natural(cost_before), metric_after=natural(current),
        area_cost=_area(sizes), iterations=iterations,
        anneal_moves_run=anneal_moves_run,
        accepted_moves=sum(1 for m in moves if m.accepted),
        met_target=met(current), recomputed_gates=state["recomputed"],
        gradient_gates=state["gradient"],
        moves=tuple(moves), verified_moves=state["verified"],
        mc_validation=mc_validation,
        bounds_pruning=pruning_active,
        pruned_candidates=len(prunable),
        pruned_endpoints=len(endpoints) - len(scan_endpoints))


def validate_with_mc(netlist: Netlist, delay_model: SizedNormalDelay,
                     stats: InputStats, clock_period: float, trials: int,
                     rng: np.random.Generator) -> McValidation:
    """Joint-yield oracle: fraction of shared trials in which *no*
    endpoint transition settles after ``clock_period``.

    Unlike the SPSTA yield (per-endpoint independence), the trials share
    every launch draw and gate-delay draw, so cross-endpoint correlation
    is exact — the strictly stronger check an optimizer's final point
    should pass.
    """
    result = run_monte_carlo(netlist, stats, trials, delay_model, rng=rng)
    ok = np.ones(trials, dtype=bool)
    for endpoint in netlist.endpoints:
        wave = result.wave(endpoint)
        transitioned = wave.init != wave.final
        late = np.zeros(trials, dtype=bool)
        late[transitioned] = wave.time[transitioned] > clock_period
        ok &= ~late
    return McValidation(trials=trials, joint_yield=float(ok.mean()))


# -- metric helpers -------------------------------------------------------


def _conditional_cdf(dist: Union[Normal, GaussianMixture],
                     x: float) -> float:
    return dist.cdf(x)


def _endpoint_late_probability(inc: IncrementalSpsta, net: str,
                               clock_period: float) -> float:
    """P(some transition at ``net`` settles after the clock edge).

    Rise and fall are disjoint events within one cycle, so their late
    probabilities add; the no-transition remainder is never late.
    """
    tops = inc.tops[net]
    p_late = 0.0
    for top in (tops.rise, tops.fall):
        if top.occurs:
            p_late += top.weight * (
                1.0 - _conditional_cdf(top.conditional, clock_period))
    return min(max(p_late, 0.0), 1.0)


def _spsta_yield(inc: IncrementalSpsta, endpoints: List[str],
                 clock_period: float) -> float:
    """Product of per-endpoint on-time probabilities (independence
    approximation across endpoints, as in the paper's experiments)."""
    y = 1.0
    for net in endpoints:
        y *= 1.0 - _endpoint_late_probability(inc, net, clock_period)
    return y


def _net_severity(inc: IncrementalSpsta, net: str,
                  k_sigma: float) -> float:
    """Worst occurring mean + k·sigma at a net (-inf if nothing occurs)."""
    worst = -math.inf
    tops = inc.tops[net]
    for top in (tops.rise, tops.fall):
        if top.occurs:
            mean, std = inc.algebra.stats(top.conditional)
            worst = max(worst, mean + k_sigma * std)
    return worst


def _worst_mean_ksigma(inc: IncrementalSpsta, endpoints: List[str],
                       k_sigma: float) -> float:
    worst = max((_net_severity(inc, net, k_sigma) for net in endpoints),
                default=-math.inf)
    return worst if worst > -math.inf else 0.0


def _worst_endpoint(inc: IncrementalSpsta, endpoints: List[str],
                    clock_period: float, metric: str,
                    k_sigma: float) -> Optional[str]:
    """The endpoint contributing most to the current cost."""
    best: Optional[Tuple[float, str]] = None
    for net in endpoints:
        badness = (_endpoint_late_probability(inc, net, clock_period)
                   if metric == "yield"
                   else _net_severity(inc, net, k_sigma))
        if badness <= (0.0 if metric == "yield" else -math.inf):
            continue
        if best is None or badness > best[0]:
            best = (badness, net)
    return best[1] if best is not None else None


def _critical_path(inc: IncrementalSpsta, endpoint: str, comb: set,
                   k_sigma: float) -> List[str]:
    """Gates on the statistically latest path into ``endpoint``.

    Walks back from the endpoint, at each gate following the input with
    the worst mean + k·sigma arrival — a cheap back-trace over the TOPs
    the incremental engine already holds (no path enumeration, no extra
    analysis).  Endpoint-side gates first.
    """
    path: List[str] = []
    net = endpoint
    seen = set()
    while net in comb and net not in seen:
        seen.add(net)
        path.append(net)
        gate = inc.netlist.gates[net]
        best: Optional[Tuple[float, str]] = None
        for src in gate.inputs:
            severity = _net_severity(inc, src, k_sigma)
            if severity == -math.inf:
                continue
            if best is None or severity > best[0]:
                best = (severity, src)
        if best is None:
            break
        net = best[1]
    return path


# -- gradient scoring -----------------------------------------------------


class _MoveGradientDelay:
    """Variational delay model with one unit parameter per candidate gate.

    Candidate ``g``'s delay form carries coefficient 1.0 on its own
    parameter and 0 elsewhere, so the endpoint arrival's sensitivity to
    that parameter *is* d(arrival)/d(delay of g): one variational pass
    prices every candidate move at once.
    """

    def __init__(self, space: ProcessSpace, base: float, sigma: float,
                 sizes: Mapping[str, float]) -> None:
        self.space = space
        self._base = base
        self._sigma = sigma
        self._sizes = sizes

    def delay_form(self, gate: Gate) -> CanonicalForm:
        size = self._sizes.get(gate.name, 1.0)
        coeffs = np.zeros(self.space.dim)
        if gate.name in self.space.names:
            coeffs[self.space.index(gate.name)] = 1.0
        return CanonicalForm(self.space, self._base / size, coeffs,
                             (self._sigma / size) ** 2)


def _score_candidates(netlist: Netlist, endpoint: str,
                      candidates: List[str], sizes: Mapping[str, float],
                      base_delay: float, delay_sigma: float,
                      size_step: float, max_size: float,
                      ) -> Tuple[List[Tuple[str, float]], int]:
    """Candidates ranked by (arrival sensitivity x delay gain / area),
    and the number of gates the gradient pass evaluated.

    The variational pass covers only ``endpoint``'s fan-in cone: the
    endpoint's form is bit-identical to a whole-netlist pass.
    """
    space = ProcessSpace(tuple(candidates))
    model = _MoveGradientDelay(space, base_delay, delay_sigma, sizes)
    result = run_variational(netlist, model, outputs=(endpoint,))
    arrival = result.worst(endpoint)
    scored: List[Tuple[str, float]] = []
    for gate in candidates:
        size = sizes.get(gate, 1.0)
        new_size = min(size + size_step, max_size)
        gain = base_delay / size - base_delay / new_size
        darea = new_size - size
        if darea <= 0.0:
            continue
        sensitivity = arrival.sensitivity(gate)
        scored.append((gate, sensitivity * gain / darea))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored, result.gates_evaluated


def _area(sizes: Mapping[str, float]) -> float:
    return sum(s - 1.0 for s in sizes.values())
