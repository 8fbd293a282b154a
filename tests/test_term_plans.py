"""Closed-form term plans against the per-term enumeration oracle.

The moment and mixture algebras evaluate Eq. 11/12 in two steps: a
per-gate plan built from the input statistics only
(:mod:`repro.core.termplan`) and a replay that folds MAX/MIN over the
subset lattice for each delay model (:class:`repro.core.spsta.
TermPlanner`).  The oracle below is the previous per-gate kernel: every
input subset or parity assignment is enumerated and weighed anew,
and every term's MAX/MIN is a fresh left fold.  Replay must
reproduce it bit for bit — weights, means and sigmas compared by
``float.hex``, mixtures component tuple by component tuple — on every
net, endpoint and interior.
"""

from __future__ import annotations

from itertools import product

import pytest

from repro.core.delay import MisDelay, NormalDelay, PerGateDelay
from repro.core.incremental_spsta import IncrementalSpsta
from repro.core.inputs import CONFIG_I, CONFIG_II, InputStats, Prob4
from repro.core.probability import gate_prob4
from repro.core.profiling import SpstaProfile
from repro.core.scenario import (
    Scenario,
    derate_corners,
    run_scenario_batch,
    scenarios_from_corners,
)
from repro.core.spsta import (
    MixtureAlgebra,
    MomentAlgebra,
    NetTops,
    TermPlanner,
    TopFunction,
    _delay_for,
    launch_tops,
    run_spsta,
)
from repro.core.termplan import parity_outputs
from repro.hier import AlgebraSpec, run_hier
from repro.logic.fourvalue import Logic4, gate_output_value
from repro.logic.gates import GateType, gate_spec
from repro.netlist.benchmarks import benchmark_circuit
from repro.netlist.core import Gate, Netlist
from repro.netlist.generator import GeneratorProfile, generate_circuit
from repro.stats.normal import Normal

# ---------------------------------------------------------------------------
# The oracle: per-term enumeration, every MAX/MIN a fresh left fold.
# ---------------------------------------------------------------------------


class OracleCounts:
    """Work the oracle does: pairwise folds over all kept terms."""

    def __init__(self) -> None:
        self.folds = 0


def oracle_gate_tops(gate, in_probs, in_tops, delay_model, algebra,
                     counts: OracleCounts) -> NetTops:
    spec = gate_spec(gate.gate_type)
    delay_for = _delay_for(delay_model, gate)
    if gate.gate_type in (GateType.BUFF, GateType.NOT):
        core = (in_tops[0] if gate.gate_type is GateType.BUFF
                else in_tops[0].swapped())
        delay = delay_for(1)
        return NetTops(_delayed(core.rise, delay, algebra),
                       _delayed(core.fall, delay, algebra))
    if spec.is_parity:
        return _oracle_parity(spec, in_probs, in_tops, delay_for, algebra,
                              counts)
    is_and_core = spec.controlling_value == 0

    def static_prob(p):
        return p.p_one if is_and_core else p.p_zero

    rise = _oracle_subset_terms(in_probs, in_tops, algebra, delay_for,
                                lambda p: p.p_rise, lambda t: t.rise,
                                static_prob, is_and_core, counts)
    fall = _oracle_subset_terms(in_probs, in_tops, algebra, delay_for,
                                lambda p: p.p_fall, lambda t: t.fall,
                                static_prob, not is_and_core, counts)
    core = NetTops(_mixed(rise, algebra), _mixed(fall, algebra))
    return core.swapped() if spec.inverting else core


def _oracle_subset_terms(in_probs, in_tops, algebra, delay_for, switch_prob,
                         switch_top, static_prob, use_max, counts):
    """All (weight, conditional) terms of one direction (Eq. 11)."""
    candidates = []
    static_factor = 1.0
    for i, (p, t) in enumerate(zip(in_probs, in_tops)):
        if switch_prob(p) > 0.0 and switch_top(t).occurs:
            candidates.append(i)
        else:
            static_factor *= static_prob(p)
    if static_factor <= 0.0 or not candidates:
        return []
    terms = []
    for mask in range(1, 1 << len(candidates)):
        w = 1.0
        dists = []
        for bit, i in enumerate(candidates):
            if mask & (1 << bit):
                w *= switch_prob(in_probs[i])
                dists.append(switch_top(in_tops[i]).conditional)
            else:
                w *= static_prob(in_probs[i])
        weight = static_factor * w
        if weight <= 0.0:
            continue
        counts.folds += len(dists) - 1
        combined = (algebra.maximum(dists) if use_max
                    else algebra.minimum(dists))
        terms.append((weight, algebra.add_delay(combined,
                                                delay_for(len(dists)))))
    return terms


def _oracle_parity(spec, in_probs, in_tops, delay_for, algebra, counts):
    """Exact 4^k joint enumeration for XOR/XNOR."""
    rise_terms = []
    fall_terms = []
    for assignment in product(tuple(Logic4), repeat=len(in_probs)):
        weight = 1.0
        dists = []
        for p, t, v in zip(in_probs, in_tops, assignment):
            weight *= p[v]
            if weight <= 0.0:
                break
            if v is Logic4.RISE:
                if not t.rise.occurs:
                    weight = 0.0
                    break
                dists.append(t.rise.conditional)
            elif v is Logic4.FALL:
                if not t.fall.occurs:
                    weight = 0.0
                    break
                dists.append(t.fall.conditional)
        if weight <= 0.0:
            continue
        out = gate_output_value(spec, assignment)
        if out not in (Logic4.RISE, Logic4.FALL):
            continue
        counts.folds += len(dists) - 1
        combined = algebra.add_delay(algebra.maximum(dists),
                                     delay_for(len(dists)))
        (rise_terms if out is Logic4.RISE else fall_terms).append(
            (weight, combined))
    return NetTops(_mixed(rise_terms, algebra), _mixed(fall_terms, algebra))


def _delayed(top, delay, algebra):
    if not top.occurs:
        return TopFunction.absent()
    return TopFunction(top.weight, algebra.add_delay(top.conditional, delay))


def _mixed(terms, algebra):
    weight, conditional = algebra.mix(terms)
    if conditional is None:
        return TopFunction.absent()
    return TopFunction(weight, conditional)


def oracle_run(netlist, stats, delay_model, algebra):
    """A full oracle sweep: ``(prob4, tops, counts)``."""
    counts = OracleCounts()
    prob4 = {}
    tops = {}
    launch_tops(netlist, stats, algebra, prob4, tops)
    for gate in netlist.combinational_gates:
        in_probs = [prob4[src] for src in gate.inputs]
        in_tops = [tops[src] for src in gate.inputs]
        prob4[gate.name] = gate_prob4(gate.gate_type, in_probs)
        tops[gate.name] = oracle_gate_tops(gate, in_probs, in_tops,
                                           delay_model, algebra, counts)
    return prob4, tops, counts


# ---------------------------------------------------------------------------
# Bit-level comparison.
# ---------------------------------------------------------------------------


def _encode(dist):
    if dist is None:
        return None
    if isinstance(dist, Normal):
        return (dist.mu.hex(), dist.sigma.hex())
    return tuple(tuple(x.hex() for x in xs)
                 for xs in (dist.weights, dist.means, dist.sigmas))


def _encode_tops(tops: NetTops):
    return tuple((top.weight.hex(), _encode(top.conditional))
                 for top in (tops.rise, tops.fall))


def assert_tops_identical(got, expected, context=""):
    assert set(got) == set(expected), context
    for net, tops in expected.items():
        assert _encode_tops(got[net]) == _encode_tops(tops), (context, net)


# ---------------------------------------------------------------------------
# Circuits.
# ---------------------------------------------------------------------------


def _random_xor_circuit() -> Netlist:
    return generate_circuit(GeneratorProfile(
        name="xor-mix", n_inputs=8, n_outputs=4, n_dffs=2, n_gates=40,
        depth=5, seed=3, xor_fraction=0.4))


def _wide_circuit() -> Netlist:
    """Three- and four-input cores and parity gates, inverting and not."""
    gates = [
        Gate("x3", GateType.XOR, ("a", "b", "c")),
        Gate("xn3", GateType.XNOR, ("b", "c", "d")),
        Gate("and4", GateType.AND, ("a", "b", "c", "d")),
        Gate("nor3", GateType.NOR, ("x3", "b", "e")),
        Gate("nand4", GateType.NAND, ("xn3", "and4", "e", "a")),
        Gate("or3", GateType.OR, ("nor3", "nand4", "c")),
        Gate("x2", GateType.XNOR, ("or3", "x3")),
        Gate("inv", GateType.NOT, ("x2",)),
    ]
    return Netlist("wide", ["a", "b", "c", "d", "e"], ["inv", "or3"],
                   gates)


#: Launch statistics with a never-one input (``a``), a never-switching
#: input (``d``) and a never-falling one (``e``): zero-weight subsets
#: that still feed weighted ones, and direction-specific occurrence.
WIDE_STATS = {
    "a": InputStats(Prob4(0.5, 0.0, 0.25, 0.25)),
    "b": CONFIG_I,
    "c": CONFIG_II,
    "d": InputStats(Prob4(0.4, 0.6, 0.0, 0.0)),
    "e": InputStats(Prob4(0.3, 0.3, 0.4, 0.0), Normal(1.0, 0.5)),
}

CIRCUITS = {
    "s27": lambda: benchmark_circuit("s27"),
    "s344": lambda: benchmark_circuit("s344"),
    "s1196": lambda: benchmark_circuit("s1196"),
    "xor-mix": _random_xor_circuit,
}

DELAY_MODELS = {
    "normal": NormalDelay(1.0, 0.1),
    "per-gate": PerGateDelay(base=1.0, spread=0.2),
    "mis": MisDelay(sigma=0.1),
}


# ---------------------------------------------------------------------------
# Replay vs oracle.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("model", sorted(DELAY_MODELS))
@pytest.mark.parametrize("stats", ["I", "II"])
@pytest.mark.parametrize("circuit", sorted(CIRCUITS))
def test_moment_replay_matches_oracle(circuit, stats, model):
    netlist = CIRCUITS[circuit]()
    input_stats = CONFIG_I if stats == "I" else CONFIG_II
    delay = DELAY_MODELS[model]
    got = run_spsta(netlist, input_stats, delay, MomentAlgebra())
    prob4, tops, _ = oracle_run(netlist, input_stats, delay,
                                MomentAlgebra())
    assert got.prob4 == prob4
    assert_tops_identical(got.tops, tops, (circuit, stats, model))


@pytest.mark.parametrize("circuit,stats,model", [
    ("s27", "I", "normal"), ("s27", "II", "mis"),
    ("s344", "I", "per-gate"), ("s344", "II", "normal"),
    ("s1196", "I", "normal"),
    ("xor-mix", "I", "mis"), ("xor-mix", "II", "per-gate"),
])
def test_mixture_replay_matches_oracle(circuit, stats, model):
    netlist = CIRCUITS[circuit]()
    input_stats = CONFIG_I if stats == "I" else CONFIG_II
    delay = DELAY_MODELS[model]
    got = run_spsta(netlist, input_stats, delay, MixtureAlgebra())
    _, tops, _ = oracle_run(netlist, input_stats, delay, MixtureAlgebra())
    assert_tops_identical(got.tops, tops, (circuit, stats, model))


@pytest.mark.parametrize("algebra", [MomentAlgebra, MixtureAlgebra])
@pytest.mark.parametrize("model", sorted(DELAY_MODELS))
def test_wide_gates_and_degenerate_inputs_match_oracle(algebra, model):
    """Three-input parity, four-input cores, never-one / never-switching
    / never-falling launch points."""
    netlist = _wide_circuit()
    delay = DELAY_MODELS[model]
    got = run_spsta(netlist, WIDE_STATS, delay, algebra())
    _, tops, _ = oracle_run(netlist, WIDE_STATS, delay, algebra())
    assert_tops_identical(got.tops, tops, model)


@pytest.mark.parametrize("algebra", [MomentAlgebra, MixtureAlgebra])
def test_sweep_replays_match_oracle_per_scenario(algebra):
    """Gate-major sweeps replay one plan per gate for every scenario."""
    netlist = _random_xor_circuit()
    scenarios = (scenarios_from_corners(derate_corners(0.8, 1.25, 3),
                                        NormalDelay(1.0, 0.1), CONFIG_II)
                 + (Scenario("mis", CONFIG_II, MisDelay(speedup=0.2)),))
    sweep = run_scenario_batch(netlist, scenarios, algebra())
    for scenario, result in zip(scenarios, sweep.results):
        _, tops, _ = oracle_run(netlist, scenario.stats,
                                scenario.delay_model, algebra())
        assert_tops_identical(result.tops, tops, scenario.name)


@pytest.mark.parametrize("algebra", [MomentAlgebra, MixtureAlgebra])
def test_incremental_repair_replays_match_oracle(algebra):
    """A repair replays the plans kept from the build."""
    netlist = benchmark_circuit("s344")
    inc = IncrementalSpsta(netlist, CONFIG_I, MisDelay(sigma=0.1),
                           algebra())
    gates = list(netlist.combinational_gates)
    for gate in gates[::17]:
        inc.set_delay(gate.name, Normal(1.7, 0.2))
    _, tops, _ = oracle_run(netlist, CONFIG_I, inc.effective_delay_model(),
                            algebra())
    assert_tops_identical(inc.tops, tops)


# ---------------------------------------------------------------------------
# Plans.
# ---------------------------------------------------------------------------


def test_plan_is_reused_and_rebuilt_on_a_new_occurrence_signature():
    gate = Gate("y", GateType.AND, ("a", "b"))
    algebra = MomentAlgebra()
    probs = [CONFIG_I.prob4, CONFIG_I.prob4]
    both = NetTops(TopFunction(0.25, Normal(0.0, 1.0)),
                   TopFunction(0.25, Normal(0.5, 1.0)))
    no_rise = NetTops(TopFunction.absent(),
                      TopFunction(0.25, Normal(0.5, 1.0)))
    planner = TermPlanner()
    first = planner.plan(gate, probs, [both, both])
    assert planner.plan(gate, probs, [both, both], first) is first
    rebuilt = planner.plan(gate, probs, [both, no_rise], first)
    assert rebuilt is not first
    assert rebuilt.signature == (True, True, False, True)
    assert planner.plan(gate, [CONFIG_II.prob4] * 2, [both, no_rise],
                        rebuilt) is not rebuilt
    nand = Gate("y", GateType.NAND, ("a", "b"))
    assert planner.plan(nand, probs, [both, both], first) is not first
    # Replaying a stale plan rebuilds it, and the result equals the oracle.
    delay = NormalDelay(1.0, 0.1)
    plan, got = planner.gate_tops(gate, probs, [both, no_rise],
                                  _delay_for(delay, gate), algebra,
                                  plan=first)
    assert plan is not first and plan.signature == rebuilt.signature
    expected = oracle_gate_tops(gate, probs, [both, no_rise], delay,
                                algebra, OracleCounts())
    assert _encode_tops(got) == _encode_tops(expected)


@pytest.mark.parametrize("gate_type", [GateType.XOR, GateType.XNOR])
@pytest.mark.parametrize("k", [2, 3])
def test_parity_output_table_matches_gate_evaluation(gate_type, k):
    spec = gate_spec(gate_type)
    expected = []
    for assignment in product(tuple(Logic4), repeat=k):
        out = gate_output_value(spec, assignment)
        if out in (Logic4.RISE, Logic4.FALL):
            expected.append((tuple(int(v) for v in assignment),
                             out is Logic4.RISE))
    table = parity_outputs(gate_type, k)
    assert [(a, rises) for a, _, rises in table] == expected
    for assignment, picks, _ in table:
        assert picks == tuple(
            (i, 0 if v == Logic4.RISE else 1)
            for i, v in enumerate(assignment)
            if v in (Logic4.RISE, Logic4.FALL))


# ---------------------------------------------------------------------------
# Fold accounting (SpstaProfile.max_folds).
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("algebra", [MomentAlgebra, MixtureAlgebra])
def test_max_folds_counted_on_s27(algebra):
    result = run_spsta(benchmark_circuit("s27"), CONFIG_I,
                       NormalDelay(1.0, 0.1), algebra())
    assert result.profile.max_folds > 0


def test_lattice_replay_folds_fewer_than_per_term_left_folds_on_s344():
    netlist = benchmark_circuit("s344")
    delay = NormalDelay(1.0, 0.1)
    result = run_spsta(netlist, CONFIG_I, delay, MomentAlgebra())
    _, _, counts = oracle_run(netlist, CONFIG_I, delay, MomentAlgebra())
    assert 0 < result.profile.max_folds < counts.folds


def test_max_folds_counted_by_sweeps_and_hier_regions():
    netlist = benchmark_circuit("s344")
    delay = NormalDelay(1.0, 0.1)
    single = run_spsta(netlist, CONFIG_I, delay, MomentAlgebra())
    corners = scenarios_from_corners(derate_corners(0.8, 1.25, 3), delay,
                                     CONFIG_I)
    sweep = run_scenario_batch(netlist, corners, MomentAlgebra())
    assert sweep.profile.max_folds == 3 * single.profile.max_folds
    profile = SpstaProfile()
    run_hier(netlist, CONFIG_I, delay, AlgebraSpec.moment(), n_regions=2,
             profile=profile)
    assert profile.max_folds > 0
