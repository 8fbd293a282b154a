"""Incremental SPSTA — level-batched worklist re-timing for every algebra.

:class:`repro.core.incremental.IncrementalSsta` delivers the paper's
"incremental, suitable for optimization" property (Sec. 1) for the SSTA
baseline only.  This module generalizes the same worklist pattern to the
SPSTA engines: after a local delay change (a gate resize, a derate
perturbation), only the affected fan-out cone's TOP functions are
re-evaluated, and propagation stops early at gates whose recomputed TOPs
come out unchanged.

Each algebra repairs on its own production kernel:

- the closed-form algebras (moments, mixtures) call the per-gate kernel
  :func:`repro.core.spsta._gate_tops`, the one ``run_spsta`` sweeps;
- :class:`~repro.core.spsta.GridAlgebra` runs the compiled program of
  :mod:`repro.core.scenario` with one scenario.  The netlist is compiled
  once per instance; the build is one full pass of the program (the
  driver ``run_spsta``, sweeps and hier share), and a repair runs the
  dirty gates of each level through the program's level step
  (:meth:`~repro.core.scenario.GridGroup.run_level`) in one vectorized
  call.

The worklist is keyed by logic level: a level's gates are mutually
independent, so all of its dirty gates re-time together, and levels pop
in increasing order, so a gate is recomputed only after every changed
input has been repaired.

Two properties make the incremental result *identical* to a fresh full
pass (the conformance harness checks it, see ``repro.verify.policies``
pairs ``incremental-vs-full/*``, and ``tests/test_incremental_spsta.py``
pins it for the grid program):

- a gate's four-value probabilities (:func:`~repro.core.probability.
  gate_prob4`) depend only on input probabilities, never on delays, so a
  delay-only change leaves every ``Prob4`` untouched and only TOP functions
  need repair;
- each repaired gate runs the *same* kernel a full pass runs on the same
  inputs — for the grid program every row operation of the level step
  acts on one row's own data, so re-timing a subset of a level yields
  the full pass's values for those gates.

With the default ``tolerance=0.0`` the early-termination test is exact
equality, so stopping cannot hide a real change: the repaired state is
bit-identical to a full pass for every algebra.  A positive tolerance
trades that guarantee for a cheaper cone (documented approximation).

Usage::

    inc = IncrementalSpsta(netlist, CONFIG_I, delay_model, MomentAlgebra())
    inc.tops[net]                       # same TOPs as run_spsta
    stats = inc.set_delay("G42", Normal(0.8, 0.04))
    stats.recomputed, stats.skipped     # work accounting
    inc.result().report(net, "rise")    # ordinary SpstaResult view
"""

from __future__ import annotations

import heapq
from typing import (
    Dict,
    Generic,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
    Union,
)

import numpy as np

from repro.core.delay import DelayModel, UnitDelay
from repro.core.incremental import UpdateStats
from repro.core.inputs import InputStats, Prob4
from repro.core.probability import gate_prob4
from repro.core.profiling import SpstaProfile
from repro.core.scenario import (
    DirState,
    GridGroup,
    WeightTableCache,
    compile_netlist,
    read_nets,
)
from repro.core.spsta import (
    MAX_PARITY_FANIN,
    GridAlgebra,
    MomentAlgebra,
    NetTops,
    SpstaResult,
    TopAlgebra,
    TopFunction,
    _gate_tops,
    launch_tops,
    validate_parity_fanins,
)
from repro.netlist.core import Netlist
from repro.stats.grid import GridDensity
from repro.stats.mixture import GaussianMixture
from repro.stats.normal import Normal

D = TypeVar("D")

#: One re-timed gate: its name, new TOPs, and (grid program only) the
#: ``(rise, fall)`` states to store back into the program's blocks.
_Retimed = Tuple[str, NetTops, Optional[Tuple[DirState, DirState]]]


class IncrementalSpsta(Generic[D]):
    """SPSTA with incremental cone re-timing after local delay changes.

    ``delay_model`` is the base model; :meth:`set_delay` lays per-gate
    :class:`Normal` overrides on top of it (the optimizer's moves), and
    :meth:`clear_delay` removes one.  The effective model is exposed via
    :meth:`effective_delay_model` so callers can run an ordinary
    ``run_spsta`` pass over the *same* delays — the conformance check.
    """

    def __init__(self, netlist: Netlist,
                 stats: Union[InputStats, Mapping[str, InputStats]],
                 delay_model: DelayModel = UnitDelay(),
                 algebra: Optional[TopAlgebra[D]] = None,
                 *,
                 tolerance: float = 0.0,
                 max_parity_fanin: Optional[int] = None) -> None:
        if tolerance < 0.0:
            raise ValueError("tolerance must be >= 0")
        self.netlist = netlist
        self.algebra: TopAlgebra[D] = (MomentAlgebra()  # type: ignore
                                       if algebra is None else algebra)
        self._stats = stats
        self._tolerance = tolerance
        self._parity_cap = (MAX_PARITY_FANIN if max_parity_fanin is None
                            else max_parity_fanin)
        validate_parity_fanins(netlist, self._parity_cap)
        self._overrides: Dict[str, Normal] = {}
        self._model = _OverrideDelays(delay_model, self._overrides)
        # (level, position in level) of every combinational gate: the
        # worklist's batching key.
        self._where: Dict[str, Tuple[int, int]] = {
            gate.name: (li, pos)
            for li, level in enumerate(netlist.levels)
            for pos, gate in enumerate(level)}
        self._compiled = (compile_netlist(netlist,
                                          max_parity_fanin=self._parity_cap)
                          if isinstance(self.algebra, GridAlgebra) else None)
        self._wcache = WeightTableCache()
        self._profile = SpstaProfile()
        self._grid: Optional[GridGroup] = None
        self.prob4: Dict[str, Prob4] = {}
        self.tops: Dict[str, NetTops[D]] = {}
        self.full_recompute()

    # -- delay edits ------------------------------------------------------

    def set_delay(self, gate_name: str, delay: Normal,
                  *, full: bool = False) -> UpdateStats:
        """Override one gate's delay and repair the affected cone.

        ``full=True`` repairs with a whole-netlist recompute instead of
        the worklist — the full-analysis-per-move pattern the benchmark
        (``benchmarks/test_bench_opt.py``) measures the incremental path
        against.  Both repairs land in the identical state.
        """
        if gate_name not in self._where:
            raise KeyError(f"{gate_name} is not a combinational gate")
        self._overrides[gate_name] = delay
        if full:
            self.full_recompute()
            n = len(self._where)
            return UpdateStats(recomputed=n, skipped=0, cone_size=n)
        return self.update_gate(gate_name)

    def clear_delay(self, gate_name: str) -> UpdateStats:
        """Drop a gate's override (back to the base model) and repair."""
        if gate_name not in self._where:
            raise KeyError(f"{gate_name} is not a combinational gate")
        self._overrides.pop(gate_name, None)
        return self.update_gate(gate_name)

    def effective_delay_model(self) -> DelayModel:
        """A frozen snapshot of base model + current overrides.

        Feeding this to :func:`repro.core.spsta.run_spsta` reproduces the
        incremental state's delays exactly — the full-pass side of the
        ``incremental-vs-full`` conformance pairs.
        """
        return _OverrideDelays(self._model.base, dict(self._overrides))

    # -- worklist repair --------------------------------------------------

    def update_gate(self, gate_name: str) -> UpdateStats:
        """Re-evaluate ``gate_name`` and propagate only real changes.

        The worklist holds dirty gates per logic level and pops levels in
        increasing order; each pop re-times all of that level's dirty
        gates in one batch (one vectorized level step for the grid
        program).  A gate whose recomputed TOPs match the stored ones
        (exactly, at the default tolerance 0) does not mark its fanouts
        dirty.
        """
        if gate_name not in self._where:
            raise KeyError(f"{gate_name} is not a combinational gate")
        li, pos = self._where[gate_name]
        dirty: Dict[int, Set[int]] = {li: {pos}}
        pending: List[int] = [li]
        recomputed = 0
        skipped = 0
        while pending:
            li = heapq.heappop(pending)
            for name, new_tops, dirs in self._retime(li,
                                                     sorted(dirty.pop(li))):
                recomputed += 1
                if self._unchanged(self.tops[name], new_tops):
                    skipped += 1
                    continue
                self.tops[name] = new_tops
                if self._grid is not None and dirs is not None:
                    self._grid.store(name, dirs)
                for sink in self.netlist.fanouts(name):
                    where = self._where.get(sink)
                    if where is None:   # DFF: the cycle boundary
                        continue
                    if where[0] not in dirty:
                        dirty[where[0]] = set()
                        heapq.heappush(pending, where[0])
                    dirty[where[0]].add(where[1])
        return UpdateStats(recomputed=recomputed, skipped=skipped,
                           cone_size=recomputed)

    def _retime(self, li: int, positions: Sequence[int]) -> List[_Retimed]:
        """New TOPs of the gates at ``positions`` of level ``li``."""
        if self._grid is not None:
            group = self._grid
            records = [group.compiled.levels[li][p] for p in positions]
            return [(record.gate.name, group.dir_tops(dirs, 0), dirs)
                    for record, dirs in zip(
                        records, group.run_level(records,
                                                 read_nets(records)))]
        level = self.netlist.levels[li]
        out: List[_Retimed] = []
        for p in positions:
            gate = level[p]
            in_probs = [self.prob4[src] for src in gate.inputs]
            in_tops = [self.tops[src] for src in gate.inputs]
            out.append((gate.name,
                        _gate_tops(gate, in_probs, in_tops, self._model,
                                   self.algebra, self._parity_cap),
                        None))
        return out

    def full_recompute(self) -> None:
        """Reference full pass (initialisation, testing, resync).

        The same math as ``run_spsta``: for :class:`GridAlgebra` one full
        pass of the compiled program over the instance's compiled
        netlist; otherwise shared launch seeding plus the shared per-gate
        kernel in topological order.
        """
        if self._compiled is not None:
            group = GridGroup(self._compiled, self._stats, [self._model],
                              self.algebra,  # type: ignore[arg-type]
                              self._wcache, self._profile)
            group.run()
            self._grid = group
            self.prob4 = group.prob4
            self.tops = group.tops(0)
            return
        prob4: Dict[str, Prob4] = {}
        tops: Dict[str, NetTops[D]] = {}
        launch_tops(self.netlist, self._stats, self.algebra, prob4, tops)
        for gate in self.netlist.combinational_gates:
            in_probs = [prob4[src] for src in gate.inputs]
            in_tops = [tops[src] for src in gate.inputs]
            prob4[gate.name] = gate_prob4(gate.gate_type, in_probs)
            tops[gate.name] = _gate_tops(gate, in_probs, in_tops,
                                         self._model, self.algebra,
                                         self._parity_cap)
        self.prob4 = prob4
        self.tops = tops

    def result(self) -> SpstaResult[D]:
        """The current state as an ordinary :class:`SpstaResult` view."""
        return SpstaResult(self.netlist.name, self.algebra, self.prob4,
                           self.tops)

    # -- change detection -------------------------------------------------

    def _unchanged(self, old: NetTops[D], new: NetTops[D]) -> bool:
        return (self._top_close(old.rise, new.rise)
                and self._top_close(old.fall, new.fall))

    def _top_close(self, a: TopFunction[D], b: TopFunction[D]) -> bool:
        if a.occurs != b.occurs:
            return False
        if not a.occurs:
            return True
        if abs(a.weight - b.weight) > self._tolerance:
            return False
        return conditionals_close(a.conditional, b.conditional,
                                  self._tolerance)


def conditionals_close(a: D, b: D, tolerance: float) -> bool:
    """Whether two conditional distributions agree within ``tolerance``.

    At tolerance 0 this is exact (bitwise) equality of the abstraction's
    parameters, which is what makes early termination safe: a gate whose
    recomputed TOPs compare equal feeds its fanouts the *same values* a
    full pass would, so not re-visiting them cannot change anything.
    """
    if isinstance(a, Normal) and isinstance(b, Normal):
        return (abs(a.mu - b.mu) <= tolerance
                and abs(a.sigma - b.sigma) <= tolerance)
    if isinstance(a, GaussianMixture) and isinstance(b, GaussianMixture):
        if len(a.components) != len(b.components):
            return False
        return all(abs(ca.weight - cb.weight) <= tolerance
                   and abs(ca.mu - cb.mu) <= tolerance
                   and abs(ca.sigma - cb.sigma) <= tolerance
                   for ca, cb in zip(a.components, b.components))
    if isinstance(a, GridDensity) and isinstance(b, GridDensity):
        if tolerance == 0.0:
            return bool(np.array_equal(a.values, b.values))
        return bool(np.max(np.abs(a.values - b.values)) <= tolerance)
    raise TypeError(
        f"no closeness rule for conditional type {type(a).__name__}")


class IncrementalDivergenceError(ValueError):
    """The incremental state diverged from a fresh full pass."""


def fresh_algebra_like(algebra: TopAlgebra[D]) -> TopAlgebra[D]:
    """A new algebra instance with the same configuration.

    Full-pass conformance reruns need a *fresh* algebra (its own caches
    and ledger) that is nevertheless configured identically, so both
    sides compute the same values.
    """
    from repro.core.spsta import GridAlgebra, MixtureAlgebra
    if isinstance(algebra, MixtureAlgebra):
        return MixtureAlgebra(algebra.max_components)  # type: ignore
    if isinstance(algebra, GridAlgebra):
        return GridAlgebra(algebra.grid,  # type: ignore
                           algebra.conv_method)
    return type(algebra)()


def assert_matches_full(inc: IncrementalSpsta[D],
                        tolerance: float = 0.0) -> int:
    """Check the incremental state against a fresh full pass.

    Runs the production ``run_spsta`` over :meth:`IncrementalSpsta.
    effective_delay_model` with a fresh identically-configured algebra and
    compares every net's TOPs at ``tolerance`` (default: bit-exact).
    Returns the number of nets compared; raises
    :class:`IncrementalDivergenceError` listing every divergent net.
    This is the optimizer's per-move conformance hook
    (``optimize_spsta(verify_moves=True)``); the sweep-level counterpart
    lives in :mod:`repro.verify.harness`.
    """
    from repro.core.spsta import run_spsta
    full = run_spsta(inc.netlist, inc._stats,
                     inc.effective_delay_model(),
                     fresh_algebra_like(inc.algebra))
    divergent: List[str] = []
    for net, expected in full.tops.items():
        got = inc.tops.get(net)
        if got is None:
            divergent.append(f"{net}: missing from incremental state")
            continue
        for direction in ("rise", "fall"):
            a = getattr(got, direction)
            b = getattr(expected, direction)
            if a.occurs != b.occurs or (a.occurs and (
                    abs(a.weight - b.weight) > tolerance
                    or not conditionals_close(a.conditional, b.conditional,
                                              tolerance))):
                divergent.append(f"{net}/{direction}")
    if divergent:
        raise IncrementalDivergenceError(
            f"incremental state diverged from a full pass on "
            f"{len(divergent)} net/direction(s): "
            + ", ".join(divergent[:8])
            + (" ..." if len(divergent) > 8 else ""))
    return len(full.tops)


class _OverrideDelays:
    """Base :class:`DelayModel` with per-gate Normal overrides on top.

    Overridden gates return their override for *every* switching-input
    count (an explicit move pins the delay); other gates delegate to the
    base model, preserving its MIS behaviour if it has one.  The
    ``delay_mis`` hook exists only when the base model has one: engines
    pick their MIS-aware path by its presence, so an override stack over
    a constant-delay model must run exactly like that model itself.
    """

    def __init__(self, base: DelayModel,
                 overrides: Dict[str, Normal]) -> None:
        self.base = base
        self._overrides = overrides
        if hasattr(base, "delay_mis"):
            self.delay_mis = self._delay_mis

    def fingerprint_payload(self) -> object:
        """Canonical identity for :func:`repro.sim.checkpoint.
        delay_fingerprint`: the base model plus the override mapping
        (hashed in sorted-key order), so two override stacks that apply
        the same delays fingerprint equally regardless of edit order."""
        return (self.base, dict(self._overrides))

    def delay(self, gate) -> Normal:
        override = self._overrides.get(gate.name)
        if override is not None:
            return override
        return self.base.delay(gate)

    def _delay_mis(self, gate, n_switching: int) -> Normal:
        override = self._overrides.get(gate.name)
        if override is not None:
            return override
        return self.base.delay_mis(gate, n_switching)
