"""Eq. 11/12 term plans: the statistics half of a closed-form gate.

Eq. 11/12 splits every gate into two parts.  Which (weight, input
subset) terms exist, and their weights, depend only on the input
four-value probabilities and on which input transitions occur at all.
Only the MAX/MIN fold over each term's inputs and the term's delay
depend on the delay model.  This module builds the first part once per
gate and statistics group as a :class:`GatePlan`;
:class:`repro.core.spsta.TermPlanner` replays a plan against each
scenario's input TOPs.

- **AND/OR cores** keep, per output direction, the candidate inputs and
  the subset-lattice walk over them (:func:`subset_lattice`): every
  non-empty candidate subset is its predecessor (top bit cleared)
  extended by its top candidate, so replay folds ``fold(MAX(prev),
  top)`` once per subset.  The weights are ``static_factor *
  WeightTableCache.table(switch, static)``, the table and
  multiplication order the grid program uses, identical bit for bit to
  a per-mask product in candidate index order.  Subsets whose weight is
  zero and that no weighted subset extends are dropped from the walk.
- **XOR/XNOR** keep the ``(weight, picked (input, direction) slots)``
  terms of the exact 4^k joint enumeration in ``product(Logic4)``
  order; the output value of every assignment comes from a table
  memoized per ``(gate type, fan-in)``.

The subset lattice and the weight-table cache are shared with the grid
program in :mod:`repro.core.scenario`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.inputs import Prob4
from repro.logic.fourvalue import Logic4, gate_output_value
from repro.logic.gates import GateSpec, GateType, gate_spec

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


@lru_cache(maxsize=None)
def _lattice_columns(k: int) -> Tuple[Tuple[int, ...], ...]:
    """``subset_lattice(k)`` as Python tuples over the nodes ``mask - 1``:
    node, predecessor node (``-1`` for single-candidate subsets), top
    candidate and popcount."""
    lat = subset_lattice(k)
    return (tuple(range(len(lat.top))), tuple((lat.prev - 1).tolist()),
            tuple(lat.top.tolist()), tuple(lat.pop.tolist()))


def build_weight_table(switch: Tuple[float, ...],
                       static: Tuple[float, ...]) -> np.ndarray:
    """Per-mask subset weights for one candidate probability vector.

    Folds the factors in candidate index order (``w *= switch`` for a
    member, ``w *= static`` otherwise, starting from 1.0), so every
    path that weighs subsets through these tables agrees bit for bit.
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
# Gate plans.
# ---------------------------------------------------------------------------

#: One parity term: (weight, ((input index, 0 = rise / 1 = fall), ...)).
ParityTerm = Tuple[float, Tuple[Tuple[int, int], ...]]


class SubsetPlan:
    """One output direction of an AND/OR core (pre-inversion).

    ``which`` selects the input direction the candidates switch in
    (0 rise, 1 fall); ``use_max`` picks MAX (the output settles at the
    last switching input) or MIN (at the first).  ``steps`` holds the
    lattice walk as parallel columns, one entry per visited node in
    increasing mask order (so the weighted terms come out in the order
    of the Eq. 11 mask enumeration): node, predecessor node (``-1`` for
    a single candidate), input index of the top candidate, popcount and
    weight.  A weight of 0 marks a node that only feeds heavier subsets.
    ``size`` is the number of lattice nodes, ``folds`` the pairwise
    folds one replay performs, ``terms`` the weighted nodes.
    """

    __slots__ = ("which", "use_max", "size", "steps", "folds", "terms")

    def __init__(self, which: int, use_max: bool, size: int,
                 steps: Tuple[tuple, ...], folds: int, terms: int) -> None:
        self.which = which
        self.use_max = use_max
        self.size = size
        self.steps = steps
        self.folds = folds
        self.terms = terms


class GatePlan:
    """The statistics half of one gate's Eq. 11/12 evaluation.

    ``spec``, ``probs`` and ``signature`` (see
    :func:`occurrence_signature`) are the gate and inputs the plan was
    built from; a replay against anything else must rebuild.  For AND/OR
    cores ``rise``/``fall`` are the core's :class:`SubsetPlan` (None
    when the direction never occurs), swapped on output by an inverting
    gate.  For XOR/XNOR they are the directions' :data:`ParityTerm`
    tuples, with the inversion already applied.
    """

    __slots__ = ("spec", "probs", "signature", "rise", "fall")

    def __init__(self, spec: GateSpec, probs: Tuple[Prob4, ...],
                 signature: tuple, rise, fall) -> None:
        self.spec = spec
        self.probs = probs
        self.signature = signature
        self.rise = rise
        self.fall = fall


def occurrence_signature(in_tops: Sequence) -> tuple:
    """Which input transitions occur: ``(rise, fall)`` flags per input,
    flattened.  The only property of the input TOPs a plan depends on."""
    sig: List[bool] = []
    for t in in_tops:
        sig.append(t.rise.occurs)
        sig.append(t.fall.occurs)
    return tuple(sig)


def plan_gate(spec: GateSpec, probs: Tuple[Prob4, ...], signature: tuple,
              wcache: WeightTableCache) -> GatePlan:
    """Build the :class:`GatePlan` of an AND/OR-core or parity gate.

    Parity fan-in must already be within the caller's 4^k guard.
    """
    if spec.is_parity:
        rise, fall = _parity_terms(spec.gate_type, probs, signature)
        return GatePlan(spec, probs, signature, rise, fall)
    is_and_core = spec.controlling_value == 0
    # AND core: rises settle at the LAST rising input (MAX) with the
    # others static at 1, falls at the FIRST falling input (MIN); the OR
    # core mirrors this with static 0 and MIN/MAX exchanged.
    rise = _subset_plan(probs, signature, 0, is_and_core, is_and_core,
                        wcache)
    fall = _subset_plan(probs, signature, 1, is_and_core, not is_and_core,
                        wcache)
    return GatePlan(spec, probs, signature, rise, fall)


def _subset_plan(probs: Sequence[Prob4], signature: tuple, which: int,
                 is_and_core: bool, use_max: bool,
                 wcache: WeightTableCache) -> Optional[SubsetPlan]:
    """Eq. 11 for one direction: inputs that can switch that way are the
    candidates, every other input must sit at the static value."""
    candidates: List[int] = []
    switch: List[float] = []
    static: List[float] = []
    static_factor = 1.0
    for i, p in enumerate(probs):
        switch_p = p.p_rise if which == 0 else p.p_fall
        static_p = p.p_one if is_and_core else p.p_zero
        if switch_p > 0.0 and signature[2 * i + which]:
            candidates.append(i)
            switch.append(switch_p)
            static.append(static_p)
        else:
            static_factor *= static_p
    if static_factor <= 0.0 or not candidates:
        return None
    weights = (static_factor
               * wcache.table(tuple(switch), tuple(static))).tolist()
    k = len(candidates)
    nodes, prevs, tops, pops = _lattice_columns(k)
    inputs = tuple([candidates[t] for t in tops])
    size = len(nodes)
    if min(weights) > 0.0:
        return SubsetPlan(which, use_max, size,
                          (nodes, prevs, inputs, pops, weights),
                          size - k, size)
    needed = [w > 0.0 for w in weights]
    for node in reversed(nodes):
        if needed[node] and prevs[node] >= 0:
            needed[prevs[node]] = True
    kept = [step for step in zip(nodes, prevs, inputs, pops, weights)
            if needed[step[0]]]
    if not kept:
        return None
    return SubsetPlan(which, use_max, size, tuple(zip(*kept)),
                      sum(1 for step in kept if step[1] >= 0),
                      sum(1 for step in kept if step[4] > 0.0))


@lru_cache(maxsize=None)
def parity_outputs(gate_type: GateType, k: int
                   ) -> Tuple[Tuple[Tuple[int, ...],
                                    Tuple[Tuple[int, int], ...], bool], ...]:
    """The transitioning assignments of a ``k``-input parity gate.

    One ``(assignment, picks, rises)`` entry per four-value input
    assignment whose output rises or falls, in ``product(Logic4)``
    order: ``assignment`` holds the inputs' ``Logic4`` codes, ``picks``
    the switching inputs as ``(index, 0 = rise / 1 = fall)``.
    """
    spec = gate_spec(gate_type)
    out = []
    for assignment in product(tuple(Logic4), repeat=k):
        value = gate_output_value(spec, assignment)
        if value not in (Logic4.RISE, Logic4.FALL):
            continue
        picks = tuple((i, 0 if v is Logic4.RISE else 1)
                      for i, v in enumerate(assignment)
                      if v in (Logic4.RISE, Logic4.FALL))
        out.append((tuple(int(v) for v in assignment), picks,
                    value is Logic4.RISE))
    return tuple(out)


def _parity_terms(gate_type: GateType, probs: Sequence[Prob4],
                  signature: tuple
                  ) -> Tuple[Tuple[ParityTerm, ...], Tuple[ParityTerm, ...]]:
    """Exact joint enumeration for XOR/XNOR (no controlling value).

    The output toggles at every switching input, so it transitions iff
    an odd number of inputs switch, settling at the LAST switching input.
    A term's weight multiplies its inputs' probabilities in input order
    and is dropped as soon as a prefix product reaches zero.
    """
    vectors = [(p.p_zero, p.p_rise, p.p_fall, p.p_one) for p in probs]
    rise: List[ParityTerm] = []
    fall: List[ParityTerm] = []
    for assignment, picks, rises in parity_outputs(gate_type, len(probs)):
        weight = 1.0
        for vector, v in zip(vectors, assignment):
            weight *= vector[v]
            if weight <= 0.0:
                break
        if weight <= 0.0:
            continue
        if not all(signature[2 * i + d] for i, d in picks):
            continue
        (rise if rises else fall).append((weight, picks))
    return tuple(rise), tuple(fall)
