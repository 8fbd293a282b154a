"""Compiled SPSTA program: the grid algebra's one propagation engine.

This module compiles a netlist ONCE into a flat tensor program and then
executes N >= 1 scenarios (PVT/derate corners, input-statistics sweeps,
delay-model perturbations) as one vectorized pass over a stacked
``(scenario, net, bin)`` array.  ``run_spsta`` runs every
:class:`~repro.core.spsta.GridAlgebra` analysis through it with a single
scenario, so a one-off analysis and a 64-corner sweep execute the same
kernels; the closed-form algebras (moments, mixtures) use the per-gate
kernel of :mod:`repro.core.spsta` instead.

Compile / execute model
-----------------------

:func:`compile_netlist` lowers the netlist to a :class:`CompiledNetlist`:
per-level gate records tagged with a kernel id (``KIND_COPY`` for
BUFF/NOT, ``KIND_PARITY`` for XOR/XNOR, ``KIND_SUBSET`` for AND/OR-core
gates), the per-level net gather order, and a last-use table for memory
trimming.  Parity fan-in is validated once at compile time.

:func:`run_scenario_batch` groups scenarios by input statistics — Eq. 11
subset weights, occurrence patterns and four-value probabilities depend
only on the statistics, never on delays — and executes each group over
the compiled program:

- **launch / probabilities once per group** — ``launch_tops`` and the
  four-value probability walk run once, not once per scenario;
- **stacked per-level prep** — every referenced conditional density of
  every scenario normalizes and integrates in one 2-D pass;
- **cross-scenario subset DP** — AND/OR-core directions run the
  subset-lattice DP (:func:`subset_lattice`: the MAX over a subset is
  ``max(MAX(subset minus top bit), top)``, one pairwise fold per mask)
  batched across gates AND scenarios as 3-D array ops; the Eq. 11
  subset-weight tables are memoized by :class:`WeightTableCache` and
  shared by every gate and scenario with equal probability vectors;
- **parity prefix enumeration** — XOR/XNOR collapse the 4^k four-value
  assignments to 3^k (static / rise / fall) patterns, tracking the
  static-ones parity as an (even, odd) weight pair and sharing MAX-fold
  prefixes;
- **batched convolve + mix** — terms sharing a delay kernel are pre-mixed
  with their exact convolution retention, then all rows of a level,
  across all scenarios, go through one kernel-grouped FFT batch and one
  run-length segment mix.

All of this is one level step, :meth:`GridGroup.run_level`, which
re-times any subset of a level's gates against the group's current
density blocks.  A full pass runs it over every gate of every level;
:class:`~repro.core.incremental_spsta.IncrementalSpsta` grid sessions
build with that full pass and repair an edit's cone by running it over
each level's dirty gates only.

Closed-form algebras cannot reorder their scalar folds without losing
the repo's bit-exactness contract, so they run the per-gate kernel
(``repro.core.spsta._gate_tops``) for each scenario over shared
launch/probability state — identical results to looping ``run_spsta``,
minus the redundant per-scenario setup.

Memory scaling
--------------

A grid sweep holds one ``(n_scenarios, bins)`` block per occurring net
direction: ``keep="all"`` retains every net (full differential
comparisons), ``keep="endpoints"`` frees interior blocks after their
last fan-out level so peak memory follows the live frontier instead of
the whole netlist.  ``repro.lint`` rule SP204 estimates the
``n_scenarios × bins × nets`` footprint up front.

Equivalence with the naive reference is pinned by
``tests/test_spsta_fastpath.py``, ``tests/test_scenario_batch.py`` and
the conformance harness (``fast-vs-naive`` / ``batched-vs-fast`` /
``batched-vs-mc`` policies): bit-exact for the closed-form algebras;
within 1e-12 weights / 1e-9 moments between scenario groupings and
within the ``fast-vs-naive/grid`` policy of the naive grid sweep.  The
grid program assumes the time grid covers the support of every density
(as any grid analysis must): it normalizes terms before the delay
convolution instead of after, which is only exact when the convolution
loses no probability mass off the grid ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
import time
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.corners import STANDARD_CORNERS, Corner, ScaledDelay
from repro.core.delay import DelayModel, UnitDelay
from repro.core.inputs import CONFIG_I, InputStats, Prob4
from repro.core.probability import gate_prob4
from repro.core.profiling import SpstaProfile
from repro.core.spsta import (
    MAX_PARITY_FANIN,
    GridAlgebra,
    MomentAlgebra,
    NetTops,
    SpstaResult,
    TopAlgebra,
    TopFunction,
    _delay_for,
    _gate_tops,
    _harvest_kernel_counters,
    check_parity_fanin,
    launch_tops,
    run_spsta,
    validate_parity_fanins,
)
from repro.logic.gates import GateSpec, GateType, gate_spec
from repro.netlist.core import Gate, Netlist
from repro.stats.grid import (
    MASS_WARN_FRACTION,
    GridDensity,
    KernelCache,
    TimeGrid,
    _warn_truncation,
    cdf_rows,
    convolve_rows,
    kernel_retention_vector,
    shift_retention_vector,
    shift_rows,
    trapezoid_rows,
)
from repro.stats.normal import Normal

__all__ = [
    "Scenario",
    "SweepResult",
    "CompiledNetlist",
    "compile_netlist",
    "derate_corners",
    "scenarios_from_corners",
    "scenarios_from_stats",
    "run_scenario_batch",
    "run_scenarios_looped",
]


# ---------------------------------------------------------------------------
# Scenario description and builders.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """One operating point of a sweep: input statistics + delay model.

    Scenarios sharing equal ``stats`` batch into one stacked pass (their
    subset weights and occurrence patterns coincide); the delay model is
    free to vary per scenario — corner scaling, MIS models, per-gate
    perturbations.
    """

    name: str
    stats: Union[InputStats, Mapping[str, InputStats]]
    delay_model: DelayModel = UnitDelay()


def derate_corners(start: float = 0.8, stop: float = 1.25, count: int = 8,
                   sigma_scale: float = 1.0,
                   prefix: str = "derate") -> Tuple[Corner, ...]:
    """A linear grid of ``count`` delay-scale corners over [start, stop]."""
    if count < 1:
        raise ValueError("count must be >= 1")
    scales = np.linspace(start, stop, count)
    return tuple(Corner(f"{prefix}-{i:03d}", float(scale), sigma_scale)
                 for i, scale in enumerate(scales))


def scenarios_from_corners(
        corners: Sequence[Corner] = STANDARD_CORNERS,
        base_model: DelayModel = UnitDelay(),
        stats: Union[InputStats, Mapping[str, InputStats]] = CONFIG_I,
) -> Tuple[Scenario, ...]:
    """One scenario per corner, wrapping ``base_model`` in the corner's
    :class:`~repro.core.corners.ScaledDelay`."""
    return tuple(Scenario(c.name, stats, ScaledDelay(base_model, c))
                 for c in corners)


def scenarios_from_stats(
        stats_by_name: Mapping[str, Union[InputStats,
                                          Mapping[str, InputStats]]],
        delay_model: DelayModel = UnitDelay()) -> Tuple[Scenario, ...]:
    """One scenario per named input-statistics configuration (the
    Table 3 CONFIG I / CONFIG II style sweep)."""
    return tuple(Scenario(name, stats, delay_model)
                 for name, stats in stats_by_name.items())


# ---------------------------------------------------------------------------
# Netlist compilation: the scenario-independent tensor program.
# ---------------------------------------------------------------------------

#: Gate-kernel ids: single-input copy (BUFF/NOT), parity joint
#: enumeration (XOR/XNOR), Eq. 11 subset enumeration (AND/OR cores).
KIND_COPY = 0
KIND_PARITY = 1
KIND_SUBSET = 2


@dataclass(frozen=True)
class GateRecord:
    """One gate lowered to its execution kernel."""

    gate: Gate
    spec: GateSpec
    kind: int
    inverting: bool
    is_and_core: bool


@dataclass(frozen=True)
class CompiledNetlist:
    """Scenario-independent program for one netlist.

    ``levels`` holds the kernel-tagged gate records in topological level
    order; ``level_nets`` the nets each level reads, in first-reference
    order (the stacked-prep gather order); ``last_use`` maps each net to
    the last level index that reads it (``keep="endpoints"`` frees a
    net's scenario block right after that level).
    """

    netlist: Netlist
    parity_cap: int
    levels: Tuple[Tuple[GateRecord, ...], ...]
    level_nets: Tuple[Tuple[str, ...], ...]
    last_use: Mapping[str, int]

    @property
    def n_gates(self) -> int:
        return sum(len(level) for level in self.levels)


def compile_netlist(netlist: Netlist, *,
                    max_parity_fanin: Optional[int] = None
                    ) -> CompiledNetlist:
    """Lower a netlist to its :class:`CompiledNetlist` program.

    Pays levelization, kernel classification, and parity-fan-in
    validation once; every :func:`run_scenario_batch` call over any
    number of scenarios reuses the result.
    """
    parity_cap = (MAX_PARITY_FANIN if max_parity_fanin is None
                  else max_parity_fanin)
    validate_parity_fanins(netlist, parity_cap)
    levels: List[Tuple[GateRecord, ...]] = []
    level_nets: List[Tuple[str, ...]] = []
    last_use: Dict[str, int] = {}
    for li, level in enumerate(netlist.levels):
        records = []
        for gate in level:
            spec = gate_spec(gate.gate_type)
            if gate.gate_type in (GateType.BUFF, GateType.NOT):
                kind = KIND_COPY
            elif spec.is_parity:
                kind = KIND_PARITY
            else:
                kind = KIND_SUBSET
            records.append(GateRecord(gate, spec, kind, spec.inverting,
                                      spec.controlling_value == 0))
            for src in gate.inputs:
                last_use[src] = li
        levels.append(tuple(records))
        level_nets.append(read_nets(records))
    return CompiledNetlist(netlist, parity_cap, tuple(levels),
                           tuple(level_nets), last_use)


# ---------------------------------------------------------------------------
# Sweep driver.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepResult:
    """All per-scenario results of one batched sweep.

    ``results[i]`` corresponds to ``scenarios[i]``; every result shares
    the sweep's algebra and :class:`~repro.core.profiling.SpstaProfile`.
    """

    netlist_name: str
    scenarios: Tuple[Scenario, ...]
    results: Tuple[SpstaResult, ...]
    profile: SpstaProfile
    compile_seconds: float
    execute_seconds: float

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, index: int) -> SpstaResult:
        return self.results[index]

    def result_for(self, name: str) -> SpstaResult:
        """The result of the scenario named ``name``."""
        for scenario, result in zip(self.scenarios, self.results):
            if scenario.name == name:
                return result
        raise KeyError(name)


def run_scenario_batch(netlist: Netlist,
                       scenarios: Sequence[Scenario],
                       algebra: Optional[TopAlgebra] = None,
                       *,
                       compiled: Optional[CompiledNetlist] = None,
                       profile: Optional[SpstaProfile] = None,
                       max_parity_fanin: Optional[int] = None,
                       keep: str = "all") -> SweepResult:
    """Execute N scenarios over one netlist as a batched sweep.

    Results match looping ``run_spsta`` per scenario: bit-exactly for the
    closed-form algebras, within grid rounding (1e-12 weights / 1e-9
    moments) for :class:`GridAlgebra` — see
    ``tests/test_scenario_batch.py``.

    ``compiled`` reuses a :func:`compile_netlist` program across sweeps;
    ``keep`` is ``"all"`` (every net's TOPs in every result) or
    ``"endpoints"`` (grid algebra: interior blocks are freed after their
    last use, results retain launch points and endpoints only).
    """
    scenarios = tuple(scenarios)
    if not scenarios:
        raise ValueError("run_scenario_batch needs at least one scenario")
    if keep not in ("all", "endpoints"):
        raise ValueError(f"keep must be 'all' or 'endpoints', got {keep!r}")
    if algebra is None:
        algebra = MomentAlgebra()
    if profile is None:
        profile = SpstaProfile()
    profile.engine = "scenario"
    profile.algebra = type(algebra).__name__
    profile.circuit = netlist.name
    profile.scenarios = len(scenarios)

    t0 = time.perf_counter()
    if compiled is None:
        with profile.phase("compile"):
            compiled = compile_netlist(netlist,
                                       max_parity_fanin=max_parity_fanin)
    else:
        if compiled.netlist is not netlist:
            raise ValueError(
                "compiled program belongs to a different netlist")
        if (max_parity_fanin is not None
                and max_parity_fanin != compiled.parity_cap):
            raise ValueError(
                "max_parity_fanin disagrees with the compiled program")
    compile_seconds = time.perf_counter() - t0
    profile.levels = len(compiled.levels)

    # Scenarios sharing input statistics share weights, occurrence
    # patterns and probabilities; group them to amortize that state.
    groups: List[Tuple[object, List[int]]] = []
    for idx, scenario in enumerate(scenarios):
        for stats, idxs in groups:
            if stats == scenario.stats:
                idxs.append(idx)
                break
        else:
            groups.append((scenario.stats, [idx]))

    wcache = WeightTableCache()
    results: List[Optional[SpstaResult]] = [None] * len(scenarios)
    t1 = time.perf_counter()
    for stats, idxs in groups:
        models = [scenarios[i].delay_model for i in idxs]
        if isinstance(algebra, GridAlgebra):
            group_out = _run_grid_group(compiled, stats, models, algebra,
                                        wcache, profile, keep)
        else:
            group_out = _run_generic_group(compiled, stats, models, algebra,
                                           profile)
        for i, (prob4, tops) in zip(idxs, group_out):
            results[i] = SpstaResult(netlist.name, algebra, prob4, tops,
                                     profile)
    execute_seconds = time.perf_counter() - t1

    _harvest_caches(wcache, algebra, profile)
    return SweepResult(netlist.name, scenarios, tuple(results), profile,
                       compile_seconds, execute_seconds)


def run_grid(netlist: Netlist,
             stats: Union[InputStats, Mapping[str, InputStats]],
             delay_model: DelayModel, algebra: GridAlgebra,
             profile: SpstaProfile, max_parity_fanin: Optional[int],
             seed_tops: Optional[Mapping[str, Tuple[Prob4, NetTops]]]
             ) -> SpstaResult:
    """One grid analysis as a single-scenario run of the compiled program.

    The :class:`GridAlgebra` path of :func:`repro.core.spsta.run_spsta`;
    ``seed_tops`` pre-seeds launch points exactly as there.
    """
    with profile.phase("compile"):
        compiled = compile_netlist(netlist, max_parity_fanin=max_parity_fanin)
    profile.levels = len(compiled.levels)
    wcache = WeightTableCache()
    ((prob4, tops),) = _run_grid_group(compiled, stats, [delay_model],
                                       algebra, wcache, profile, "all",
                                       seed_tops)
    _harvest_caches(wcache, algebra, profile)
    return SpstaResult(netlist.name, algebra, prob4, tops, profile)


def _harvest_caches(wcache: WeightTableCache, algebra: TopAlgebra,
                    profile: SpstaProfile) -> None:
    profile.weight_table_hits = wcache.hits
    profile.weight_table_misses = wcache.misses
    _harvest_kernel_counters(algebra, profile)


def run_scenarios_looped(netlist: Netlist,
                         scenarios: Sequence[Scenario],
                         algebra_factory: Optional[
                             Callable[[], TopAlgebra]] = None,
                         *,
                         max_parity_fanin: Optional[int] = None
                         ) -> List[SpstaResult]:
    """Reference loop: one full :func:`~repro.core.spsta.run_spsta` per
    scenario, each with a fresh algebra.

    The pre-batching behaviour every sweep caller had; kept as the
    differential-test oracle and the benchmark baseline
    (``BENCH_scenario_sweep.json``).
    """
    if algebra_factory is None:
        algebra_factory = MomentAlgebra
    return [run_spsta(netlist, scenario.stats, scenario.delay_model,
                      algebra_factory(), max_parity_fanin=max_parity_fanin)
            for scenario in scenarios]


# ---------------------------------------------------------------------------
# Closed-form algebras: per-scenario walk over shared group state.
# ---------------------------------------------------------------------------

_GroupOut = List[Tuple[Dict[str, Prob4], Dict[str, NetTops]]]


def _run_generic_group(compiled: CompiledNetlist, stats, models, algebra,
                       profile: SpstaProfile) -> _GroupOut:
    """Moment/mixture scenarios of one stats group.

    Launch TOPs and four-value probabilities are computed once and
    shared; each scenario then runs the per-gate kernel ``_gate_tops``
    of :func:`~repro.core.spsta.run_spsta` in the same gate order, so
    results stay bit-identical to looping ``run_spsta``.
    """
    netlist = compiled.netlist
    prob4: Dict[str, Prob4] = {}
    launch: Dict[str, NetTops] = {}
    with profile.phase("launch"):
        launch_tops(netlist, stats, algebra, prob4, launch)
    for level in compiled.levels:
        for record in level:
            gate = record.gate
            prob4[gate.name] = gate_prob4(
                gate.gate_type, [prob4[src] for src in gate.inputs])
    out: _GroupOut = []
    with profile.phase("propagate"):
        for model in models:
            tops: Dict[str, NetTops] = dict(launch)
            for level in compiled.levels:
                for record in level:
                    gate = record.gate
                    in_probs = [prob4[src] for src in gate.inputs]
                    in_tops = [tops[src] for src in gate.inputs]
                    tops[gate.name] = _gate_tops(
                        gate, in_probs, in_tops, model, algebra,
                        compiled.parity_cap, profile)
                    profile.gates_processed += 1
            out.append((prob4, tops))
    return out

# ---------------------------------------------------------------------------
# Subset lattice and Eq. 11 weight tables, shared by every gate.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubsetLattice:
    """Static structure of the non-empty subsets of ``k`` candidates.

    Arrays are indexed by ``mask - 1`` for masks ``1 .. 2^k - 1``.  ``top``
    is the highest set bit, ``prev`` the mask with that bit cleared (the
    DP predecessor), ``pop`` the popcount; ``by_pop[c]`` lists the 0-based
    indices of all masks with popcount ``c + 1`` (for batched grid DP).
    """

    k: int
    top: np.ndarray
    prev: np.ndarray
    pop: np.ndarray
    by_pop: Tuple[np.ndarray, ...]


@lru_cache(maxsize=None)
def subset_lattice(k: int) -> SubsetLattice:
    """The (memoized) subset lattice for fanin ``k``."""
    masks = np.arange(1, 1 << k)
    top = np.zeros(masks.shape[0], dtype=np.int64)
    pop = np.zeros(masks.shape[0], dtype=np.int64)
    for idx, mask in enumerate(masks):
        top[idx] = int(mask).bit_length() - 1
        pop[idx] = bin(int(mask)).count("1")
    prev = masks - (1 << top)
    by_pop = tuple(np.nonzero(pop == c)[0] for c in range(1, k + 1))
    return SubsetLattice(k, top, prev, pop, by_pop)


def build_weight_table(switch: Tuple[float, ...],
                       static: Tuple[float, ...]) -> np.ndarray:
    """Per-mask subset weights for one candidate probability vector.

    Folds the factors in candidate index order — the exact multiplication
    order of the naive ``_subset_terms`` loop, so cached tables reproduce
    the reference path's subset weights bit for bit.
    """
    k = len(switch)
    table = np.empty((1 << k) - 1)
    for mask in range(1, 1 << k):
        w = 1.0
        for bit in range(k):
            w *= switch[bit] if (mask >> bit) & 1 else static[bit]
        table[mask - 1] = w
    return table


class WeightTableCache:
    """Memoized Eq. 11 subset-weight tables, keyed by the exact switch and
    static probability vectors (so a table is only ever served for the
    vectors it was built from)."""

    __slots__ = ("hits", "misses", "_tables")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self._tables: Dict[tuple, np.ndarray] = {}

    def table(self, switch: Tuple[float, ...],
              static: Tuple[float, ...]) -> np.ndarray:
        key = (switch, static)
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = build_weight_table(switch, static)
            self.misses += 1
        else:
            self.hits += 1
        return table


# ---------------------------------------------------------------------------
# Grid kernels: batched array operations over raw density rows.
# ---------------------------------------------------------------------------

@dataclass
class _GridContext:
    """Per-analysis state the grid kernels share."""

    grid: TimeGrid
    kernel_cache: KernelCache
    wcache: WeightTableCache
    parity_cap: int
    profile: SpstaProfile

    def __post_init__(self) -> None:
        self._retentions: Dict[tuple, np.ndarray] = {}

    def retention(self, delay: Normal) -> np.ndarray:
        """Memoized retention vector for one delay (see
        :func:`~repro.stats.grid.kernel_retention_vector`)."""
        dt = self.grid.dt
        if delay.sigma <= 0.0:
            key = ("shift", int(round(delay.mu / dt)))
        else:
            key = (delay.mu, delay.sigma)
        vec = self._retentions.get(key)
        if vec is None:
            if delay.sigma <= 0.0:
                vec = shift_retention_vector(key[1], self.grid.n, dt)
            else:
                vec = kernel_retention_vector(self.kernel_cache.kernel(delay),
                                              self.grid.n, dt)
            self._retentions[key] = vec
        return vec

    def record_mass(self, clipped, reference, operation: str) -> None:
        """Mass-conservation audit of a batch of grid operations.

        ``clipped``/``reference`` are matching arrays of off-grid mass
        lost vs the mass each operation started with; the
        aggregates land in the run's :class:`SpstaProfile` (the grid
        program's counterpart of :class:`~repro.stats.grid.MassLedger`).
        """
        clip = np.maximum(clipped, 0.0)
        prof = self.profile
        prof.mass_checks += clip.size
        if clip.size == 0:
            return
        ok = reference > 0.0
        frac = np.divide(clip, reference, out=np.zeros_like(clip), where=ok)
        prof.clipped_mass += float(clip.sum(where=ok))
        worst = float(frac.max())
        events = int(np.count_nonzero(frac > MASS_WARN_FRACTION))
        if events:
            prof.clip_events += events
            _warn_truncation(operation, worst)
        if worst > prof.max_clip_fraction:
            prof.max_clip_fraction = worst


class _ControllingJob:
    """One AND/OR-core gate direction of one scenario under an MIS-aware
    delay model, whose subset DP is deferred.

    Jobs from every gate and scenario of a level are grouped by
    ``(fanin, use_max)`` and evaluated together in
    :func:`_run_controlling_jobs` as 3-D stacked array ops.  After the
    batched run, ``total`` holds the direction's occurrence weight and
    ``acc`` maps each distinct delay kernel to its pre-mixed row.
    """

    __slots__ = ("k", "use_max", "weights", "pdfs", "cdfs", "delay_for",
                 "total", "acc")

    def __init__(self, k: int, use_max: bool, weights: np.ndarray,
                 pdfs: List[np.ndarray], cdfs: List[np.ndarray],
                 delay_for) -> None:
        self.k = k
        self.use_max = use_max
        self.weights = weights
        self.pdfs = pdfs
        self.cdfs = cdfs
        self.delay_for = delay_for
        self.total = 0.0
        self.acc: Dict[Tuple[float, float],
                       Tuple[Normal, np.ndarray]] = {}


#: Upper bound on batch-size × subset-count rows a chunked DP holds live;
#: at n = 2048 this keeps the three (B, M, n) work arrays near ~100 MB.
MAX_DP_ROWS = 2048


def _run_controlling_jobs(jobs: Sequence[_ControllingJob],
                          ctx: _GridContext) -> None:
    """Evaluate every deferred controlling-gate direction of a level.

    Jobs are grouped by ``(fanin, use_max)`` so one 3-D DP sweep serves all
    gates sharing a lattice, chunked to bound peak memory.  Each job's math
    involves only its own rows, so grouping cannot change which operations
    run on a job's data.  Results across different groupings agree to a few
    ULPs rather than bit-exactly: NumPy's SIMD elementwise division is not
    guaranteed correctly rounded on every platform (observed 0.5-ulp
    truncations from the AVX-512 kernel), so the normalization inside the
    DP may round differently between batch shapes.
    """
    groups: Dict[Tuple[int, bool], List[_ControllingJob]] = {}
    for job in jobs:
        groups.setdefault((job.k, job.use_max), []).append(job)
    for (k, use_max), group in groups.items():
        lat = subset_lattice(k)
        chunk = max(1, MAX_DP_ROWS // ((1 << k) - 1))
        for lo in range(0, len(group), chunk):
            _run_controlling_chunk(group[lo:lo + chunk], lat, use_max, ctx)


def _subset_dp(pdfs: np.ndarray, cdfs: np.ndarray, lat: SubsetLattice,
               use_max: bool, dt: float,
               profile: SpstaProfile) -> Tuple[np.ndarray, np.ndarray]:
    """Subset-lattice DP over a ``(rows, k, n)`` stack of operand rows.

    DP over the subset lattice, batched by popcount across the whole
    batch: all masks of one cardinality of all rows combine their
    predecessor with one extra input in a single stacked Eq. 3 pass.
    Mirrors the naive fold exactly: operands are normalized before each
    fold and the result's CDF is recomputed by trapezoid accumulation.
    Each row's math involves only its own operands, so callers may stack
    rows from any mix of gates and scenarios without changing which
    operations touch a row.

    Returns ``(node_pdf, node_cdf)`` of shape ``(rows, 2^k - 1, n)``
    indexed by ``mask - 1``; node pdfs are the normalized fold results,
    node cdfs their trapezoid accumulations.  Cdfs of full-popcount
    masks are never consumed by a further fold and are left unset —
    callers use ``node_pdf`` only.

    Masks are evaluated one at a time against strided views of the node
    tables: the per-mask arrays are ``(rows, n)`` and rows-dominated
    batches avoid the fancy-index copies a per-popcount gather would
    make.
    """
    b, k, n = pdfs.shape
    node_pdf = np.empty((b, (1 << k) - 1, n))
    node_cdf = np.empty_like(node_pdf)
    singles = lat.by_pop[0]
    node_pdf[:, singles] = pdfs[:, lat.top[singles]]
    node_cdf[:, singles] = cdfs[:, lat.top[singles]]
    last = k - 1
    for c in range(1, k):
        idxs = lat.by_pop[c]
        if idxs.size == 0:
            continue
        for m in idxs:
            pa = node_pdf[:, lat.prev[m] - 1]
            ca = node_cdf[:, lat.prev[m] - 1]
            pb = pdfs[:, lat.top[m]]
            cb = cdfs[:, lat.top[m]]
            if use_max:
                raw = pa * cb                             # Eq. 3
                raw += pb * ca
            else:
                raw = pa * (1.0 - cb)                     # MIN analogue
                raw += pb * (1.0 - ca)
            ints = trapezoid_rows(raw, dt)
            if (ints <= 0.0).any():
                raise ValueError("cannot normalize an empty density")
            raw /= ints[:, None]
            node_pdf[:, m] = raw
            if c != last:
                node_cdf[:, m] = cdf_rows(raw, dt)
        profile.max_folds += idxs.size * b
    return node_pdf, node_cdf


def _run_controlling_chunk(batch: Sequence[_ControllingJob],
                           lat: SubsetLattice, use_max: bool,
                           ctx: _GridContext) -> None:
    """Subset DP + retention-corrected row extraction for one job batch.

    Each positive mask's weight and exact convolution retention fold into
    its node row, accumulating one pre-mixed row per distinct delay
    kernel per job (convolution is linear, so one convolution of the
    accumulated row equals convolving every Eq. 11 term separately).
    """
    n = ctx.grid.n
    k = lat.k
    b = len(batch)
    pdfs = np.empty((b, k, n))
    cdfs = np.empty((b, k, n))
    for j, job in enumerate(batch):
        for i in range(k):
            pdfs[j, i] = job.pdfs[i]
            cdfs[j, i] = job.cdfs[i]
    node_pdf, _ = _subset_dp(pdfs, cdfs, lat, use_max, ctx.grid.dt,
                             ctx.profile)
    weight_mat = np.stack([job.weights for job in batch])
    for c_idx in range(k):
        sel = lat.by_pop[c_idx]
        w = weight_mat[:, sel]
        active = np.nonzero((w > 0.0).any(axis=1))[0]
        if active.size == 0:
            continue
        by_delay: Dict[Tuple[float, float], Tuple[Normal, List[int]]] = {}
        for j in active:
            delay = batch[j].delay_for(c_idx + 1)
            by_delay.setdefault((delay.mu, delay.sigma), (delay, []))[1] \
                .append(int(j))
        sub = node_pdf[:, sel]
        for key, (delay, js) in by_delay.items():
            jarr = np.asarray(js)
            subj = sub if jarr.size == b else sub[jarr]
            # Each node row is normalized, so its post-convolution
            # integral is its retention; mask `m` loses w_m * (1 - r_m).
            retained = subj @ ctx.retention(delay)
            wj = w[jarr]
            positive = wj > 0.0
            if (positive & (retained <= 0.0)).any():
                raise ValueError("cannot normalize an empty density")
            ctx.record_mass((wj * (1.0 - retained))[positive],
                            wj[positive], "subset convolution")
            coef = np.where(positive,
                            wj / np.where(retained > 0.0, retained, 1.0), 0.0)
            rows_c = np.einsum("jl,jln->jn", coef, subj)
            for t, j in enumerate(js):
                acc = batch[j].acc.get(key)
                if acc is None:
                    batch[j].acc[key] = (delay, rows_c[t])
                else:
                    batch[j].acc[key] = (delay, acc[1] + rows_c[t])
    for job in batch:
        job.total = _occurrence_total(job.weights)
        ctx.profile.subset_terms += int(np.count_nonzero(job.weights > 0.0))


def _occurrence_total(weights: np.ndarray) -> float:
    """Sum of a direction's positive subset weights in mask order — the
    naive mix's summation order, so occurrence weights match the
    reference bit for bit."""
    total = 0.0
    for w in weights.tolist():
        if w > 0.0:
            total += w
    return total


def _convolve_matrix(matrix: np.ndarray, delays: Sequence[Normal],
                     ctx: _GridContext) -> np.ndarray:
    """Delay-convolve a stack of rows, grouped by kernel.

    ``delays[i]`` is the kernel of ``matrix[i]``.  Each row is convolved
    independently, so callers may stack rows from any mix of gates,
    directions, and scenarios.  Gaussian kernels always take the FFT
    path: level batches are nearly always past the direct/FFT crossover,
    and a fixed choice keeps results independent of how rows are grouped
    (FFT and direct differ by ~1e-16 per bin).
    """
    dt = ctx.grid.dt
    profile = ctx.profile
    groups: Dict[Tuple[float, float], List[int]] = {}
    for i, delay in enumerate(delays):
        if delay.sigma <= 0.0:
            # Deterministic kernels act through their integer bin shift
            # alone, so distinct means sharing a shift (e.g. nearby
            # derate corners) merge into one group.
            key = (float(int(round(delay.mu / dt))), -1.0)
        else:
            key = (delay.mu, delay.sigma)
        groups.setdefault(key, []).append(i)
    # With rows pre-merged per kernel, levels of a homogeneous-delay
    # design collapse to one group — no scatter copy.
    single = len(groups) == 1
    out = None if single else np.empty_like(matrix)
    for (mu, sigma), idxs in groups.items():
        sel = None if single else np.asarray(idxs)
        src = matrix if single else matrix[sel]
        if sigma < 0.0:
            res = shift_rows(src, int(mu))
            profile.shift_rows += src.shape[0]
        else:
            kernel = ctx.kernel_cache.kernel(Normal(mu, sigma))
            res = convolve_rows(src, kernel, "fft")
            profile.fft_convolutions += src.shape[0]
        if single:
            out = res
        else:
            out[sel] = res
    return out


def _mix_rows(out: np.ndarray, counts: Sequence[int],
              expected: np.ndarray, ctx: _GridContext) -> np.ndarray:
    """Eq. 8 mix of convolved rows into per-segment densities.

    Term weights and per-term convolution retentions were folded into
    the rows before convolution, so the mix is one contiguous segment sum
    followed by a batched normalization (plus clipping FFT noise).
    ``counts[i]`` rows belong to segment ``i`` and ``expected[i]`` is the
    integral its sum should reach (the mass-conservation reference).
    np.add.reduceat walks segments one ufunc reduction at a time;
    summing runs of equal-length segments through a reshape is much
    faster, and most segments are a single row (one delay kernel).
    """
    dt = ctx.grid.dt
    n = ctx.grid.n
    np.maximum(out, 0.0, out=out)
    n_seg = len(counts)
    mixed = np.empty((n_seg, n))
    seg = pos = 0
    while seg < n_seg:
        count = counts[seg]
        run = seg + 1
        while run < n_seg and counts[run] == count:
            run += 1
        block = out[pos:pos + (run - seg) * count]
        if count == 1:
            mixed[seg:run] = block
        else:
            mixed[seg:run] = block.reshape(run - seg, count, n).sum(axis=1)
        pos += (run - seg) * count
        seg = run
    ints = trapezoid_rows(mixed, dt)
    if (ints <= 0.0).any():
        raise ValueError("cannot normalize an empty density")
    # Mass audit: retention-corrected segments should integrate to
    # their occurrence weight, BUFF/NOT segments to 1.0; anything lost
    # beyond FFT noise is mass the grid shift/convolution clipped.
    ctx.record_mass(expected - ints, expected, "level mix")
    mixed /= ints[:, None]
    # NaN/Inf sentinel: downstream rows bypass GridDensity validation
    # (``from_trusted``), so this is the grid program's divergence check.
    ctx.profile.finite_checks += 1
    if not np.isfinite(mixed).all():
        raise ValueError(
            "non-finite density after level mix (NaN/Inf sentinel: a "
            "grid operation diverged)")
    return mixed


def _wrap_top(grid: TimeGrid,
              info: Optional[Tuple[float, np.ndarray]]) -> TopFunction:
    if info is None:
        return TopFunction.absent()
    weight, values = info
    return TopFunction(weight, GridDensity.from_trusted(grid, values))


# ---------------------------------------------------------------------------
# Grid algebra: the stacked (scenario, net, bin) executor.
# ---------------------------------------------------------------------------

#: Per-(net, direction) state of a group: occurrence weight (scalar —
#: statistics-dependent only, shared by every scenario) and the
#: ``(n_scenarios, bins)`` block of conditional density rows (``None``
#: when the transition never occurs).
_Blocks = Dict[Tuple[str, int], Optional[np.ndarray]]

#: Phase A output for one occurring gate direction: per-scenario items,
#: each a deferred :class:`_ControllingJob` or a resolved
#: ``(total, expected, [(delay, row), ...])`` terms tuple.
_DirItems = Optional[List[object]]

#: One re-timed gate direction: occurrence weight and its
#: ``(n_scenarios, bins)`` block (``(0.0, None)`` when it never occurs).
DirState = Tuple[float, Optional[np.ndarray]]


class GridGroup:
    """Execution state of the compiled program for one stats group.

    Holds the group's launch seeding, every net's four-value
    probabilities (delay-independent, computed once) and the
    per-(net, direction) occurrence weights and ``(n_scenarios, bins)``
    density blocks.  :meth:`run_level` is the program's one level step:
    it re-times any subset of a level's gate records against the current
    blocks.  A full pass (:meth:`run`) is that step over every record of
    every level; :class:`~repro.core.incremental_spsta.IncrementalSpsta`
    repairs call it with only the dirty records of a level.  Every row
    operation of the step acts on one row's own data, so a subset step
    gives its gates the values a full pass gives them (pinned bit for
    bit by ``tests/test_incremental_spsta.py`` and the
    ``incremental-vs-full/grid`` policy).
    """

    def __init__(self, compiled: CompiledNetlist, stats, models,
                 algebra: GridAlgebra, wcache: WeightTableCache,
                 profile: SpstaProfile,
                 seeds: Optional[Mapping[str, Tuple[Prob4, NetTops]]]
                 = None) -> None:
        netlist = compiled.netlist
        self.compiled = compiled
        self.models = list(models)
        self.b = b = len(self.models)
        self.grid = algebra.grid
        self.ctx = _GridContext(grid=self.grid,
                                kernel_cache=algebra.kernel_cache,
                                wcache=wcache, parity_cap=compiled.parity_cap,
                                profile=profile)
        self.any_mis = any(hasattr(model, "delay_mis")
                           for model in self.models)
        self.gate_delays = (None if self.any_mis
                            else _group_gate_delays(self.models))
        prob4: Dict[str, Prob4] = {}
        launch: Dict[str, NetTops] = {}
        with profile.phase("launch"):
            launch_tops(netlist, stats, algebra, prob4, launch, seeds=seeds)
        self.weights: Dict[Tuple[str, int], float] = {}
        self.blocks: _Blocks = {}
        n = self.grid.n
        for net, tops in launch.items():
            for d, top in ((0, tops.rise), (1, tops.fall)):
                self.weights[(net, d)] = top.weight
                self.blocks[(net, d)] = (
                    np.broadcast_to(top.conditional.values, (b, n))
                    if top.occurs else None)
        for level in compiled.levels:
            for record in level:
                gate = record.gate
                prob4[gate.name] = gate_prob4(
                    gate.gate_type, [prob4[src] for src in gate.inputs])
        self.prob4 = prob4
        self.names = list(launch)
        self.names.extend(record.gate.name for level in compiled.levels
                          for record in level)

    def run(self, keep: str = "all") -> None:
        """Full pass: every record of every level, in level order.

        ``keep="endpoints"`` frees each interior net's blocks right after
        the last level that reads it.
        """
        compiled = self.compiled
        endpoints = frozenset(compiled.netlist.endpoints)
        for li, level in enumerate(compiled.levels):
            for record, dirs in zip(level, self.run_level(
                    level, compiled.level_nets[li])):
                self.store(record.gate.name, dirs)
            if keep == "endpoints":
                for net in compiled.level_nets[li]:
                    if (compiled.last_use.get(net) == li
                            and net not in endpoints):
                        self.blocks.pop((net, 0), None)
                        self.blocks.pop((net, 1), None)

    def run_level(self, records: Sequence[GateRecord],
                  nets: Sequence[str]
                  ) -> List[Tuple[DirState, DirState]]:
        """Re-time ``records`` (gates of one level) in one vectorized step.

        ``nets`` lists the nets the records read, in first-reference
        order (:func:`read_nets`).  Returns each record's new
        ``(rise, fall)`` states without storing them.
        """
        ctx = self.ctx
        profile = ctx.profile
        b = self.b
        with profile.phase("subset-eval"):
            prep = _prepare_blocks(nets, self.blocks, b, self.grid.dt)
            pending: List[_ControllingJob] = []
            templates: Optional[List[_SubsetTemplate]] = (
                None if self.any_mis else [])
            gate_dirs = [_phase_a_gate(record, self.prob4, self.weights,
                                       prep, self.models, b, ctx, pending,
                                       templates, self.gate_delays)
                         for record in records]
            if templates:
                _run_subset_templates(templates, b, ctx)
            _run_controlling_jobs(pending, ctx)

            # Phase B layout: (gate, direction)-major, scenario-minor —
            # each occurring direction owns B consecutive segments.
            rows: List[np.ndarray] = []
            delays: List[Normal] = []
            counts: List[int] = []
            expected: List[float] = []
            outs: List[List[DirState]] = []
            order: List[Tuple[int, int]] = []
            ones_b = [1] * b
            for gi, dirs in enumerate(gate_dirs):
                out: List[DirState] = [(0.0, None), (0.0, None)]
                outs.append(out)
                for direction, items in enumerate(dirs):
                    if items is None:
                        continue
                    order.append((gi, direction))
                    if isinstance(items, _SubsetTemplate):
                        items = items.items
                    if isinstance(items, _DirBlock):
                        rows.append(items.block)
                        delays.extend(items.delays)
                        counts.extend(ones_b)
                        expected.extend([items.expected] * b)
                        out[direction] = (items.total, None)
                        continue
                    total = None
                    for item in items:
                        if isinstance(item, _ControllingJob):
                            seg_total = item.total
                            seg_expected = item.total
                            dir_rows = list(item.acc.values())
                        else:
                            seg_total, seg_expected, dir_rows = item
                        counts.append(len(dir_rows))
                        expected.append(seg_expected)
                        for delay, row in dir_rows:
                            delays.append(delay)
                            rows.append(row)
                        if total is None:
                            total = seg_total
                    out[direction] = (total, None)

        if rows:
            with profile.phase("convolve"):
                conv = _convolve_matrix(np.vstack(rows), delays, ctx)
            with profile.phase("mix"):
                mixed = _mix_rows(conv, counts, np.asarray(expected), ctx)
            for seg, (gi, direction) in enumerate(order):
                outs[gi][direction] = (outs[gi][direction][0],
                                       mixed[seg * b:(seg + 1) * b].copy())
        profile.gates_processed += len(records) * b
        return [(rise, fall) for rise, fall in outs]

    def store(self, name: str, dirs: Tuple[DirState, DirState]) -> None:
        """Make ``dirs`` (from :meth:`run_level`) the state of ``name``."""
        for direction, (weight, block) in enumerate(dirs):
            self.weights[(name, direction)] = weight
            self.blocks[(name, direction)] = block

    def dir_tops(self, dirs: Tuple[DirState, DirState], s: int) -> NetTops:
        """Scenario ``s``'s TOPs of one net's ``(rise, fall)`` states
        (views of the blocks)."""
        return NetTops(*(
            _wrap_top(self.grid, (weight, block[s])
                      if block is not None else None)
            for weight, block in dirs))

    def tops(self, s: int) -> Dict[str, NetTops]:
        """Scenario ``s``'s TOPs of every net still held."""
        weights = self.weights
        blocks = self.blocks
        return {name: self.dir_tops(
                    ((weights[(name, 0)], blocks[(name, 0)]),
                     (weights[(name, 1)], blocks[(name, 1)])), s)
                for name in self.names if (name, 0) in blocks}


def read_nets(records: Sequence[GateRecord]) -> Tuple[str, ...]:
    """The nets ``records`` read, in first-reference order."""
    return tuple(dict.fromkeys(src for record in records
                               for src in record.gate.inputs))


def _run_grid_group(compiled: CompiledNetlist, stats, models,
                    algebra: GridAlgebra, wcache: WeightTableCache,
                    profile: SpstaProfile, keep: str,
                    seeds: Optional[Mapping[str, Tuple[Prob4, NetTops]]]
                    = None) -> _GroupOut:
    """Grid scenarios of one stats group as one stacked sweep.

    ``seeds`` pre-seeds launch points with given ``(Prob4, NetTops)``
    pairs (see :func:`~repro.core.spsta.launch_tops`).
    """
    group = GridGroup(compiled, stats, models, algebra, wcache, profile,
                      seeds)
    group.run(keep)
    return [(group.prob4, group.tops(s)) for s in range(group.b)]


def _prepare_blocks(nets: Sequence[str], blocks: _Blocks, b: int,
                    dt: float) -> Dict[Tuple[str, int],
                                       Tuple[np.ndarray, np.ndarray]]:
    """Normalize every referenced block of a level in one stacked pass.

    All ``(scenario, bin)`` rows of all referenced net directions vstack
    into one matrix for normalization and CDF accumulation, so each
    net direction pays once per level regardless of fanout (the naive
    path re-normalizes and re-integrates operands inside every pairwise
    MAX).
    """
    slots: List[Tuple[str, int]] = []
    stacks: List[np.ndarray] = []
    for net in nets:
        for d in (0, 1):
            block = blocks[(net, d)]
            if block is not None:
                slots.append((net, d))
                stacks.append(block)
    prep: Dict[Tuple[str, int], Tuple[np.ndarray, np.ndarray]] = {}
    if not stacks:
        return prep
    stack = np.vstack(stacks)
    ints = trapezoid_rows(stack, dt)
    if (ints <= 0.0).any():
        raise ValueError("cannot normalize an empty density")
    stack /= ints[:, None]
    cdfs = cdf_rows(stack, dt)
    for i, slot in enumerate(slots):
        prep[slot] = (stack[i * b:(i + 1) * b], cdfs[i * b:(i + 1) * b])
    return prep


def _phase_a_gate(record: GateRecord, prob4: Mapping[str, Prob4],
                  weights: Mapping[Tuple[str, int], float], prep, models,
                  b: int, ctx: _GridContext,
                  pending: List[_ControllingJob],
                  templates: Optional[List["_SubsetTemplate"]] = None,
                  gate_delays=None) -> Tuple[_DirItems, _DirItems]:
    """Kernel dispatch for one gate across every scenario of the group.

    Occurrence (whether a direction has items) depends only on the
    group's statistics, so it is uniform across scenarios; the items
    themselves carry per-scenario rows and delays.
    """
    gate = record.gate
    if gate_delays is not None:
        delay_fors = gate_delays(gate)
    else:
        delay_fors = [_delay_for(model, gate) for model in models]
    if record.kind == KIND_COPY:
        dirs = _copy_items(gate, weights, prep, delay_fors, b)
        if record.inverting:
            dirs = (dirs[1], dirs[0])
        return dirs
    if record.kind == KIND_PARITY:
        # spec.inverting is applied inside the parity enumeration, so no
        # swap here.
        in_probs = [prob4[src] for src in gate.inputs]
        entry_blocks = [_parity_entry(src, weights, prep)
                        for src in gate.inputs]
        return _batched_parity(record, in_probs, entry_blocks, delay_fors,
                               b, ctx, mis=templates is None)
    dirs = _subset_items(record, prob4, weights, prep, delay_fors, b, ctx,
                         pending, templates)
    if record.inverting:
        dirs = (dirs[1], dirs[0])
    return dirs


def _constant_delay(delay: Normal):
    """Popcount-independent kernel closure (constant-delay models)."""
    def delay_for(n_switching: int) -> Normal:
        return delay
    return delay_for


def _group_gate_delays(models):
    """Per-gate kernel closures for a constant-delay group, in one pass.

    A corner sweep wraps one shared base model in per-corner
    :class:`~repro.core.corners.ScaledDelay`\\ s; evaluating the base
    once per gate and applying each corner's scales replicates
    ``ScaledDelay.delay``'s arithmetic operation-for-operation, so the
    kernels stay bit-identical to per-scenario evaluation.  Gates
    sharing a base delay (every gate, for the homogeneous paper models)
    share one memoized closure list.
    """
    first = models[0]
    if (type(first) is ScaledDelay
            and all(type(m) is ScaledDelay and m.base is first.base
                    for m in models)):
        base = first.base
        corners = [m.corner for m in models]
        memo: Dict[Tuple[float, float], List] = {}

        def scaled(gate: Gate) -> List:
            d = base.delay(gate)
            key = (d.mu, d.sigma)
            hit = memo.get(key)
            if hit is None:
                hit = memo[key] = [
                    _constant_delay(Normal(d.mu * c.delay_scale,
                                           d.sigma * c.delay_scale
                                           * c.sigma_scale))
                    for c in corners]
            return hit

        return scaled

    memo_g: Dict[Tuple[Tuple[float, float], ...], List] = {}

    def generic(gate: Gate) -> List:
        delays = [model.delay(gate) for model in models]
        key = tuple((d.mu, d.sigma) for d in delays)
        hit = memo_g.get(key)
        if hit is None:
            hit = memo_g[key] = [_constant_delay(d) for d in delays]
        return hit

    return generic


class _DirBlock:
    """One gate direction whose scenarios each carry a single kernel row.

    The common case (constant-delay kernels): a whole ``(scenario, bin)``
    block plus one delay kernel per scenario, consumed by phase B as
    ``b`` consecutive single-row segments without per-scenario item
    tuples.  ``expected`` is the per-segment post-convolution mass.
    """

    __slots__ = ("total", "expected", "delays", "block")

    def __init__(self, total: float, expected: float,
                 delays: Sequence[Normal], block: np.ndarray) -> None:
        self.total = total
        self.expected = expected
        self.delays = delays
        self.block = block


def _copy_items(gate: Gate, weights, prep, delay_fors,
                b: int) -> Tuple[_DirItems, _DirItems]:
    """BUFF/NOT: one normalized row per scenario per occurring direction.

    A single term per direction: the final per-segment normalization is
    scale-invariant, so no retention correction is needed and the row
    stays a normalized pdf (expected post-convolution mass 1.0).
    """
    src = gate.inputs[0]
    dirs: List[_DirItems] = []
    for d in (0, 1):
        weight = weights[(src, d)]
        entry = prep.get((src, d))
        if weight <= 0.0 or entry is None:
            dirs.append(None)
            continue
        dirs.append(_DirBlock(weight, 1.0,
                              [delay_fors[s](1) for s in range(b)],
                              entry[0]))
    return dirs[0], dirs[1]


def _batched_parity(record: GateRecord, in_probs: Sequence[Prob4],
                    entry_blocks: Sequence[tuple], delay_fors, b: int,
                    ctx: _GridContext, mis: bool = True
                    ) -> Tuple[_DirItems, _DirItems]:
    """Cross-scenario parity (XOR/XNOR) enumeration.

    Equivalent to the naive 4^k four-value enumeration: non-switching
    inputs collapse into an (even, odd) static-ones parity weight pair,
    switching inputs extend a shared MAX-fold prefix, and the output
    direction follows the initial-value parity (falls start at 1),
    inverted for XNOR.  The enumeration tree and its parity weights
    depend only on the group's statistics, so the recursion runs once
    per gate and every MAX fold processes all scenarios as one stacked
    ``(scenario, bin)`` row operation.
    """
    spec = record.spec
    k = len(in_probs)
    check_parity_fanin(k, ctx.parity_cap)
    dt = ctx.grid.dt
    rise_terms: List[Tuple[float, int, np.ndarray]] = []
    fall_terms: List[Tuple[float, int, np.ndarray]] = []

    # Fold nodes are [pdf block, cdf block or None]: a node's CDF is
    # accumulated only when a later input folds into it, so leaf folds
    # (every fold of a 2-input gate) never pay for one.
    options = []
    for i, p in enumerate(in_probs):
        rw, rp, rc, fw, fp, fc = entry_blocks[i]
        options.append((
            p,
            [rp, rc] if (p.p_rise > 0.0 and rw > 0.0
                         and rp is not None) else None,
            [fp, fc] if (p.p_fall > 0.0 and fw > 0.0
                         and fp is not None) else None,
        ))

    def cdf_of(node: list) -> np.ndarray:
        if node[1] is None:
            node[1] = cdf_rows(node[0], dt)
        return node[1]

    def fold(state: Optional[list], cond: list) -> list:
        if state is None:
            return cond
        raw = state[0] * cdf_of(cond)
        raw += cond[0] * cdf_of(state)
        ints = trapezoid_rows(raw, dt)
        if (ints <= 0.0).any():
            raise ValueError("cannot normalize an empty density")
        raw /= ints[:, None]
        ctx.profile.max_folds += b
        return [raw, None]

    def recurse(i: int, even_w: float, odd_w: float,
                state: Optional[list], n_switch: int) -> None:
        if even_w <= 0.0 and odd_w <= 0.0:
            return
        if i == k:
            if n_switch == 0 or n_switch % 2 == 0:
                return
            block = state[0]
            rise_w, fall_w = ((even_w, odd_w) if not spec.inverting
                              else (odd_w, even_w))
            if rise_w > 0.0:
                rise_terms.append((rise_w, n_switch, block))
            if fall_w > 0.0:
                fall_terms.append((fall_w, n_switch, block))
            return
        p, rise_cond, fall_cond = options[i]
        # Static 0 keeps the parity, static 1 flips it.
        recurse(i + 1, even_w * p.p_zero + odd_w * p.p_one,
                even_w * p.p_one + odd_w * p.p_zero, state, n_switch)
        if rise_cond is not None:   # rise starts at 0: parity unchanged
            recurse(i + 1, even_w * p.p_rise, odd_w * p.p_rise,
                    fold(state, rise_cond), n_switch + 1)
        if fall_cond is not None:   # fall starts at 1: parity flips
            recurse(i + 1, odd_w * p.p_fall, even_w * p.p_fall,
                    fold(state, fall_cond), n_switch + 1)

    recurse(0, 1.0, 0.0, None, 0)
    ctx.profile.parity_terms += (len(rise_terms) + len(fall_terms)) * b

    def collapse(terms: List[Tuple[float, int, np.ndarray]]) -> _DirItems:
        """Pre-mix one direction's terms, one row per scenario and kernel.

        Terms sharing a kernel (all of them under a constant-delay model,
        one popcount's worth under an MIS model) stack into a
        ``(term, scenario, bin)`` array: one contraction with the
        scenarios' retention vectors gives every term's exact convolution
        retention, a second sums the retention-corrected terms.
        """
        if not terms:
            return None
        total = 0.0
        by_kernel: Dict[int, List[int]] = {}
        for t, (w, pop, _) in enumerate(terms):
            total += w
            by_kernel.setdefault(pop if mis else 1, []).append(t)
        accs: List[Dict[Tuple[float, float],
                        Tuple[Normal, np.ndarray]]] = [{} for _ in range(b)]
        for pop, idxs in by_kernel.items():
            delays = [delay_fors[s](pop) for s in range(b)]
            rstack = np.stack([ctx.retention(d) for d in delays])
            w = np.array([terms[t][0] for t in idxs])[:, None]
            blocks = np.stack([terms[t][2] for t in idxs])
            retained = np.einsum("tsn,sn->ts", blocks, rstack)
            if (retained <= 0.0).any():
                raise ValueError("cannot normalize an empty density")
            ctx.record_mass(w * (1.0 - retained),
                            np.broadcast_to(w, retained.shape),
                            "parity convolution")
            premixed = np.einsum("ts,tsn->sn", w / retained, blocks)
            if not mis:
                return _DirBlock(total, total, delays, premixed)
            for s, delay in enumerate(delays):
                key = (delay.mu, delay.sigma)
                prev = accs[s].get(key)
                accs[s][key] = (delay, premixed[s] if prev is None
                                else prev[1] + premixed[s])
        return [(total, total, list(acc.values())) for acc in accs]

    return collapse(rise_terms), collapse(fall_terms)


def _parity_entry(src: str, weights, prep):
    """Per-direction (weight, pdf block, cdf block) of one parity input."""
    rise = prep.get((src, 0))
    fall = prep.get((src, 1))
    return (weights[(src, 0)],
            rise[0] if rise is not None else None,
            rise[1] if rise is not None else None,
            weights[(src, 1)],
            fall[0] if fall is not None else None,
            fall[1] if fall is not None else None)


class _SubsetTemplate:
    """One AND/OR-core gate direction shared by a whole scenario group.

    Candidate selection, the static factor and the packed Eq. 11 weight
    table depend only on the group's statistics; ``pdf_blocks`` /
    ``cdf_blocks`` carry every scenario's rows, ``delays`` the one delay
    kernel each scenario applies to every subset (constant-delay models
    only — MIS models take the per-scenario job path instead).
    ``items`` is filled by :func:`_run_subset_templates`.
    """

    __slots__ = ("k", "use_max", "weights", "pdf_blocks", "cdf_blocks",
                 "delays", "items")

    def __init__(self, k: int, use_max: bool, weights: np.ndarray,
                 pdf_blocks: List[np.ndarray], cdf_blocks: List[np.ndarray],
                 delays: List[Normal]) -> None:
        self.k = k
        self.use_max = use_max
        self.weights = weights
        self.pdf_blocks = pdf_blocks
        self.cdf_blocks = cdf_blocks
        self.delays = delays
        self.items: List[object] = []


def _subset_items(record: GateRecord, prob4, weights, prep, delay_fors,
                  b: int, ctx: _GridContext,
                  pending: List[_ControllingJob],
                  templates: Optional[List[_SubsetTemplate]]
                  ) -> Tuple[_DirItems, _DirItems]:
    """AND/OR cores: one deferred cross-scenario subset DP per direction.

    With constant-delay models (``templates`` is a list) each direction
    becomes one :class:`_SubsetTemplate` whose DP and retention premix
    run fully stacked across scenarios; with MIS-aware models each
    scenario gets its own :class:`_ControllingJob` (the subset delay
    varies per popcount) and ``_run_controlling_jobs`` still batches the
    jobs of all gates and scenarios of the level.
    """
    gate = record.gate
    in_probs = [prob4[src] for src in gate.inputs]
    is_and_core = record.is_and_core
    dirs: List[object] = []
    for which, use_max in ((0, is_and_core), (1, not is_and_core)):
        candidates: List[int] = []
        static_factor = 1.0
        for i, p in enumerate(in_probs):
            switch_p = p.p_rise if which == 0 else p.p_fall
            slot = (gate.inputs[i], which)
            if switch_p > 0.0 and weights[slot] > 0.0 and slot in prep:
                candidates.append(i)
            else:
                static_factor *= p.p_one if is_and_core else p.p_zero
        if static_factor <= 0.0 or not candidates:
            dirs.append(None)
            continue
        switch = tuple((in_probs[i].p_rise if which == 0
                        else in_probs[i].p_fall) for i in candidates)
        static = tuple((in_probs[i].p_one if is_and_core
                        else in_probs[i].p_zero) for i in candidates)
        weight_vec = static_factor * ctx.wcache.table(switch, static)
        if not (weight_vec > 0.0).any():
            dirs.append(None)
            continue
        k = len(candidates)
        pdf_blocks = [prep[(gate.inputs[i], which)][0] for i in candidates]
        cdf_blocks = [prep[(gate.inputs[i], which)][1] for i in candidates]
        if templates is not None:
            template = _SubsetTemplate(
                k, use_max, weight_vec, pdf_blocks, cdf_blocks,
                [delay_fors[s](1) for s in range(b)])
            templates.append(template)
            dirs.append(template)
            continue
        items: List[object] = []
        for s in range(b):
            job = _ControllingJob(k, use_max, weight_vec,
                                  [blk[s] for blk in pdf_blocks],
                                  [blk[s] for blk in cdf_blocks],
                                  delay_fors[s])
            pending.append(job)
            items.append(job)
        dirs.append(items)
    return dirs[0], dirs[1]


def _run_subset_templates(templates: Sequence[_SubsetTemplate], b: int,
                          ctx: _GridContext) -> None:
    """Stacked subset DP + retention premix for a level's templates.

    The cross-scenario analogue of ``_run_controlling_jobs``: templates
    sharing a lattice stack their scenarios' rows into one
    ``(template*scenario, fanin, bins)`` array, the DP runs in
    MAX_DP_ROWS-bounded chunks, and each row's single delay kernel turns
    the retention premix into two einsums.  Per-row math matches the
    job path exactly (``_subset_dp`` rows are independent).
    """
    dt = ctx.grid.dt
    n = ctx.grid.n
    groups: Dict[Tuple[int, bool], List[_SubsetTemplate]] = {}
    for template in templates:
        groups.setdefault((template.k, template.use_max), []).append(template)
    for (k, use_max), group in groups.items():
        lat = subset_lattice(k)
        masks = (1 << k) - 1
        rows_total = len(group) * b
        pdfs = np.empty((rows_total, k, n))
        cdfs = np.empty((rows_total, k, n))
        weight_rows = np.empty((rows_total, masks))
        rstack = np.empty((rows_total, n))
        rstack_memo: Dict[tuple, np.ndarray] = {}
        for ti, t in enumerate(group):
            lo = ti * b
            hi = lo + b
            for i in range(k):
                pdfs[lo:hi, i] = t.pdf_blocks[i]
                cdfs[lo:hi, i] = t.cdf_blocks[i]
            weight_rows[lo:hi] = t.weights
            # Templates of one group usually share their kernels
            # (homogeneous base delays), so stack retentions once.
            key = tuple((d.mu, d.sigma) for d in t.delays)
            hit = rstack_memo.get(key)
            if hit is None:
                hit = np.stack([ctx.retention(d) for d in t.delays])
                rstack_memo[key] = hit
            rstack[lo:hi] = hit
        pre = np.empty((len(group) * b, n))
        # Chunk by element count, not row count: MAX_DP_ROWS bounds the
        # (rows, masks) node table for n=2048 grids, and coarser grids
        # afford proportionally more rows per DP call.
        chunk = max(1, (MAX_DP_ROWS * 2048) // (masks * n))
        for lo in range(0, pdfs.shape[0], chunk):
            hi = min(lo + chunk, pdfs.shape[0])
            node_pdf, _ = _subset_dp(pdfs[lo:hi], cdfs[lo:hi], lat,
                                     use_max, dt, ctx.profile)
            w = weight_rows[lo:hi]
            retained = np.einsum("rmn,rn->rm", node_pdf, rstack[lo:hi])
            positive = w > 0.0
            if (positive & (retained <= 0.0)).any():
                raise ValueError("cannot normalize an empty density")
            ctx.record_mass((w * (1.0 - retained))[positive], w[positive],
                            "subset convolution")
            coef = np.where(positive, w
                            / np.where(retained > 0.0, retained, 1.0), 0.0)
            pre[lo:hi] = np.einsum("rm,rmn->rn", coef, node_pdf)
        for ti, template in enumerate(group):
            total = _occurrence_total(template.weights)
            template.items = _DirBlock(total, total, template.delays,
                                       pre[ti * b:(ti + 1) * b])
            ctx.profile.subset_terms += (
                int(np.count_nonzero(template.weights > 0.0)) * b)
