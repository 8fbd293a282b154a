"""Tests for repro.opt.spsta_opt — SPSTA-in-the-loop optimization."""

import dataclasses
import math

import numpy as np
import pytest

from repro.core.spsta import GridAlgebra, MixtureAlgebra
from repro.core.variational import ProcessSpace, run_variational
from repro.netlist.benchmarks import benchmark_circuit
from repro.opt import SizedNormalDelay, optimize_spsta, spsta_opt
from repro.stats.grid import TimeGrid
from repro.stats.normal import Normal


def whole_netlist_score_candidates(netlist, endpoint, candidates, sizes,
                                   base_delay, delay_sigma, size_step,
                                   max_size):
    """Oracle scorer: the gradient pass over every gate of the netlist,
    as move pricing ran before it was restricted to the endpoint's
    fan-in cone."""
    space = ProcessSpace(tuple(candidates))
    model = spsta_opt._MoveGradientDelay(space, base_delay, delay_sigma,
                                         sizes)
    arrival = run_variational(netlist, model).worst(endpoint)
    scored = []
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
    return scored, len(netlist.combinational_gates)


def _hex_view(result):
    """Every float of a result as ``float.hex`` (the comparison key)."""
    return (
        {gate: size.hex() for gate, size in result.sizes.items()},
        result.metric_before.hex(), result.metric_after.hex(),
        [(m.phase, m.gate, m.size.hex(), m.accepted, m.metric_after.hex(),
          m.recomputed) for m in result.moves])


class TestSizedNormalDelay:
    def test_upsizing_scales_mean_and_sigma(self):
        model = SizedNormalDelay(base=2.0, sigma=0.2, sizes={"g": 2.0})
        gate = benchmark_circuit("s27").combinational_gates[0]
        assert model.delay(gate) == Normal(2.0, 0.2)
        sized = type(gate)("g", gate.gate_type, gate.inputs) \
            if hasattr(gate, "gate_type") else gate
        assert model.size_of("g") == 2.0
        assert model.size_of("other") == 1.0
        assert model.delay(sized) == Normal(1.0, 0.1)


class TestOptimizeSpsta:
    def test_yield_improves_on_tight_clock(self):
        result = optimize_spsta(benchmark_circuit("s298"),
                                clock_period=5.0, target_yield=0.999,
                                max_area=10.0)
        assert result.metric == "yield"
        assert result.metric_after > result.metric_before
        assert result.accepted_moves > 0
        assert result.area_cost > 0.0
        assert result.recomputed_gates > 0

    def test_generous_clock_needs_no_work(self):
        result = optimize_spsta(benchmark_circuit("s298"),
                                clock_period=50.0)
        assert result.met_target
        assert result.iterations == 0
        assert result.sizes == {}
        assert result.metric_after == result.metric_before

    def test_area_budget_is_a_hard_bound(self):
        for max_area in (0.4, 1.0, 2.5):
            result = optimize_spsta(benchmark_circuit("s298"),
                                    clock_period=5.0, target_yield=0.999,
                                    max_area=max_area, anneal=True,
                                    anneal_moves=40,
                                    rng=np.random.default_rng(0))
            assert result.area_cost <= max_area

    def test_same_seed_is_deterministic(self):
        kwargs = dict(clock_period=5.5, max_area=8.0, anneal=True,
                      anneal_moves=30, target_yield=0.999)
        a = optimize_spsta(benchmark_circuit("s298"),
                           rng=np.random.default_rng(11), **kwargs)
        b = optimize_spsta(benchmark_circuit("s298"),
                           rng=np.random.default_rng(11), **kwargs)
        assert a == b

    def test_different_seeds_anneal_differently(self):
        kwargs = dict(clock_period=5.5, max_area=8.0, anneal=True,
                      anneal_moves=30, target_yield=0.999,
                      max_iterations=0)
        a = optimize_spsta(benchmark_circuit("s298"),
                          rng=np.random.default_rng(1), **kwargs)
        b = optimize_spsta(benchmark_circuit("s298"),
                          rng=np.random.default_rng(2), **kwargs)
        assert a.moves != b.moves

    def test_verify_moves_conformance(self):
        for algebra in (None, MixtureAlgebra()):
            result = optimize_spsta(benchmark_circuit("s27"),
                                    clock_period=3.5, max_area=4.0,
                                    algebra=algebra, verify_moves=True,
                                    anneal=True, anneal_moves=10,
                                    rng=np.random.default_rng(0))
            applied = sum(2 - m.accepted for m in result.moves)
            assert result.verified_moves == applied

    def test_mean_ksigma_metric(self):
        before = optimize_spsta(benchmark_circuit("s298"),
                                clock_period=5.0, metric="mean-ksigma",
                                max_iterations=0)
        result = optimize_spsta(benchmark_circuit("s298"),
                                clock_period=5.0, metric="mean-ksigma",
                                max_area=10.0)
        assert result.metric == "mean-ksigma"
        # Lower is better in time units.
        assert result.metric_after <= before.metric_before
        assert result.met_target == \
            (result.metric_after <= 5.0)

    def test_retime_full_matches_incremental(self):
        kwargs = dict(clock_period=5.5, max_area=6.0, anneal=True,
                      anneal_moves=20, target_yield=0.999)
        inc = optimize_spsta(benchmark_circuit("s298"),
                             rng=np.random.default_rng(3),
                             retime="incremental", **kwargs)
        full = optimize_spsta(benchmark_circuit("s298"),
                              rng=np.random.default_rng(3),
                              retime="full", **kwargs)
        assert inc.sizes == full.sizes
        assert inc.metric_after == full.metric_after
        assert inc.recomputed_gates < full.recomputed_gates

    def test_mc_validation_agrees_with_the_spsta_metric(self):
        result = optimize_spsta(benchmark_circuit("s27"),
                                clock_period=4.0, max_area=6.0,
                                mc_validate=4000,
                                rng=np.random.default_rng(0))
        assert result.mc_validation is not None
        assert result.mc_validation.trials == 4000
        assert result.mc_validation.joint_yield == \
            pytest.approx(result.metric_after, abs=0.08)

    def test_validation_errors(self):
        netlist = benchmark_circuit("s27")
        with pytest.raises(ValueError, match="clock_period"):
            optimize_spsta(netlist, clock_period=math.nan)
        bad_options = [
            dict(size_step=-0.5, anneal=True), dict(size_step=0.0),
            dict(size_step=math.nan), dict(max_size=0.5),
            dict(max_size=math.nan), dict(base_delay=0.0),
            dict(base_delay=-1.0), dict(delay_sigma=-0.1),
            dict(delay_sigma=math.nan),
            dict(k_sigma=math.nan, metric="mean-ksigma"),
            dict(k_sigma=math.inf), dict(max_area=-1.0),
            dict(max_area=math.nan), dict(max_iterations=-1),
            dict(anneal_moves=-1, anneal=True), dict(mc_validate=-1),
        ]
        for options in bad_options:
            (name,) = [key for key in options
                       if key not in ("anneal", "metric")]
            with pytest.raises(ValueError, match=name):
                optimize_spsta(netlist, clock_period=5.0, **options)
        with pytest.raises(ValueError):
            optimize_spsta(netlist, clock_period=0.0)
        with pytest.raises(ValueError):
            optimize_spsta(netlist, clock_period=5.0, metric="slack")
        with pytest.raises(ValueError):
            optimize_spsta(netlist, clock_period=5.0, target_yield=1.5)
        with pytest.raises(ValueError):
            optimize_spsta(netlist, clock_period=5.0, retime="lazy")
        with pytest.raises(ValueError):
            optimize_spsta(netlist, clock_period=5.0,
                           algebra=GridAlgebra(TimeGrid(0.0, 10.0, 64)))

    def test_boundary_options_are_legal(self):
        netlist = benchmark_circuit("s27")
        result = optimize_spsta(netlist, clock_period=3.0,
                                max_area=math.inf, max_size=1.0,
                                delay_sigma=0.0, max_iterations=0,
                                anneal_moves=0, mc_validate=0)
        assert result.sizes == {}
        unbounded = optimize_spsta(netlist, clock_period=3.0,
                                   max_area=math.inf, max_iterations=3)
        assert unbounded.iterations == 3


class TestConeGradients:
    """Move pricing on the worst endpoint's fan-in cone chooses exactly
    the moves the whole-netlist gradient pass chose."""

    CASES = [
        ("s27", dict(clock_period=3.0, metric="yield", target_yield=1.0,
                     max_area=1000.0, anneal=True, anneal_moves=60)),
        ("s27", dict(clock_period=3.0, metric="yield", target_yield=1.0,
                     max_area=1000.0, anneal=True, anneal_moves=60,
                     algebra=MixtureAlgebra())),
        ("s344", dict(clock_period=12.0, metric="yield", target_yield=1.0,
                      max_area=1000.0, anneal=True, anneal_moves=200)),
        ("s344", dict(clock_period=12.0, metric="yield", target_yield=1.0,
                      max_area=1000.0, anneal=True, anneal_moves=40,
                      algebra=MixtureAlgebra())),
        ("s1196", dict(clock_period=16.5, metric="mean-ksigma",
                       max_iterations=4)),
        ("s1196", dict(clock_period=16.5, metric="mean-ksigma",
                       max_iterations=4, bounds_pruning=False)),
    ]

    @pytest.mark.parametrize("circuit, options", CASES)
    def test_matches_whole_netlist_oracle(self, circuit, options,
                                          monkeypatch):
        netlist = benchmark_circuit(circuit)
        cone = optimize_spsta(netlist, rng=np.random.default_rng(7),
                              **options)
        monkeypatch.setattr(spsta_opt, "_score_candidates",
                            whole_netlist_score_candidates)
        whole = optimize_spsta(netlist, rng=np.random.default_rng(7),
                               **options)
        assert cone.iterations > 0
        assert _hex_view(cone) == _hex_view(whole)
        assert dataclasses.replace(cone, gradient_gates=0) == \
            dataclasses.replace(whole, gradient_gates=0)
        assert cone.gradient_gates <= whole.gradient_gates

    def test_gradient_gates_count_cone_gates_on_s344(self):
        netlist = benchmark_circuit("s344")
        n_gates = len(netlist.combinational_gates)
        assert n_gates == 160
        result = optimize_spsta(netlist, clock_period=12.0,
                                metric="yield", target_yield=1.0,
                                max_area=1000.0)
        # 44 greedy steps price their moves on cones of 5 to 42 gates.
        assert result.iterations == 44
        assert result.gradient_gates == 941
        assert result.gradient_gates < result.iterations * n_gates / 5
