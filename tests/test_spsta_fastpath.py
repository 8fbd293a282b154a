"""Differential tests pinning ``run_spsta``'s production path to the naive
reference (``engine="naive"``).

The production path must be a pure optimization: same inputs, same
results.  The contract is graded per algebra:

- :class:`MomentAlgebra` / :class:`MixtureAlgebra`: bit-exact.  Both
  settings run the same per-gate kernel.
- :class:`GridAlgebra`: equal within discretization rounding.  The
  compiled program (:mod:`repro.core.scenario`) batches normalization,
  pre-mixes terms with their convolution retention and convolves by FFT,
  which reorders floating-point reductions, so weights are compared to
  1e-12 absolute (parity gates also sum 3^k instead of 4^k terms — a
  deliberate refactoring worth a ULP) and conditional moments to 1e-9
  relative.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.delay import MisDelay, NormalDelay, UnitDelay
from repro.core.inputs import CONFIG_I, CONFIG_II
from repro.core.spsta import (
    GridAlgebra,
    MixtureAlgebra,
    MomentAlgebra,
    run_spsta,
)
from repro.logic.gates import GateType
from repro.netlist.benchmarks import benchmark_circuit
from repro.netlist.core import Gate, Netlist
from repro.netlist.transform import decompose_fanin
from repro.stats.grid import TimeGrid
from repro.verify.policies import POLICIES

CIRCUITS = ("s27", "s298", "s386")
DELAYS = (UnitDelay(), NormalDelay(1.0, 0.1), MisDelay())
CONFIGS = {"I": CONFIG_I, "II": CONFIG_II}

GRID = TimeGrid(-8.0, 45.0, 2048)


def _both(netlist, config, delay, algebra_factory, **fast_kwargs):
    fast = run_spsta(netlist, config, delay, algebra_factory(),
                     engine="fast", **fast_kwargs)
    naive = run_spsta(netlist, config, delay, algebra_factory(),
                      engine="naive")
    assert set(fast.tops) == set(naive.tops)
    return fast, naive


def _assert_bitexact(fast, naive):
    """Closed-form algebras: weights and conditional stats must be equal
    to the last bit on every net and direction."""
    for net in naive.tops:
        assert fast.prob4[net] == naive.prob4[net], net
        for direction in ("rise", "fall"):
            a = getattr(fast.tops[net], direction)
            b = getattr(naive.tops[net], direction)
            assert a.weight == b.weight, (net, direction)
            assert a.occurs == b.occurs, (net, direction)
            if b.occurs:
                assert (fast.algebra.stats(a.conditional)
                        == naive.algebra.stats(b.conditional)), \
                    (net, direction)


def _assert_grid_close(fast, naive, weight_atol=1e-12, moment_rtol=1e-9):
    for net in naive.tops:
        for direction in ("rise", "fall"):
            a = getattr(fast.tops[net], direction)
            b = getattr(naive.tops[net], direction)
            assert a.weight == pytest.approx(b.weight, abs=weight_atol), \
                (net, direction)
            assert a.occurs == b.occurs, (net, direction)
            if b.occurs:
                mean_a, std_a = fast.algebra.stats(a.conditional)
                mean_b, std_b = naive.algebra.stats(b.conditional)
                assert mean_a == pytest.approx(mean_b, rel=moment_rtol), \
                    (net, direction)
                assert std_a == pytest.approx(std_b, rel=moment_rtol,
                                              abs=1e-12), (net, direction)


@pytest.mark.parametrize("config_name", CONFIGS)
@pytest.mark.parametrize("delay", DELAYS, ids=lambda d: type(d).__name__)
@pytest.mark.parametrize("circuit", CIRCUITS)
def test_moment_engine_bitexact(circuit, delay, config_name):
    netlist = benchmark_circuit(circuit)
    fast, naive = _both(netlist, CONFIGS[config_name], delay, MomentAlgebra)
    _assert_bitexact(fast, naive)


@pytest.mark.parametrize("delay", DELAYS, ids=lambda d: type(d).__name__)
def test_mixture_engine_bitexact(delay):
    netlist = benchmark_circuit("s298")
    fast, naive = _both(netlist, CONFIG_I, delay, MixtureAlgebra)
    _assert_bitexact(fast, naive)


@pytest.mark.parametrize("circuit,delay", [
    ("s27", NormalDelay(1.0, 0.1)),
    ("s27", UnitDelay()),
    ("s298", NormalDelay(1.0, 0.1)),
    ("s298", UnitDelay()),
], ids=["s27-normal", "s27-unit", "s298-normal", "s298-unit"])
def test_grid_engine_close(circuit, delay):
    netlist = benchmark_circuit(circuit)
    fast, naive = _both(netlist, CONFIG_I, delay,
                        lambda: GridAlgebra(GRID))
    _assert_grid_close(fast, naive)


def test_grid_engine_close_config_ii():
    netlist = benchmark_circuit("s298")
    fast, naive = _both(netlist, CONFIG_II, NormalDelay(1.0, 0.1),
                        lambda: GridAlgebra(GRID))
    _assert_grid_close(fast, naive)


def test_grid_parity_gates_close():
    """XOR/XNOR take the 3^k prefix recursion on the fast grid path while
    the reference enumerates 4^k assignments; the reordered weight sums may
    differ by a ULP but nothing more."""
    netlist = Netlist("parity", ["a", "b", "c", "d"], ["x", "y"], [
        Gate("x", GateType.XOR, ("a", "b", "c")),
        Gate("n", GateType.XNOR, ("c", "d")),
        Gate("y", GateType.XOR, ("x", "n")),
    ])
    fast, naive = _both(netlist, CONFIG_I, NormalDelay(1.0, 0.1),
                        lambda: GridAlgebra(GRID))
    _assert_grid_close(fast, naive)


def test_grid_seed_tops_match_naive():
    """Seeded launch points (the hierarchical boundary hook) must drive
    the compiled grid program as they drive the naive sweep, within the
    ``fast-vs-naive/grid`` conformance policy."""
    policy = POLICIES["fast-vs-naive/grid"]
    delay = NormalDelay(1.0, 0.1)
    donor = benchmark_circuit("s27")
    upstream = run_spsta(donor, CONFIG_I, delay, GridAlgebra(GRID),
                         engine="naive")
    donors = [gate.name for gate in donor.combinational_gates]
    netlist = benchmark_circuit("s298")
    seeds = {net: (upstream.prob4[src], upstream.tops[src])
             for net, src in zip(netlist.launch_points[::2],
                                 itertools.cycle(donors))}
    fast = run_spsta(netlist, CONFIG_I, delay, GridAlgebra(GRID),
                     seed_tops=seeds)
    naive = run_spsta(netlist, CONFIG_I, delay, GridAlgebra(GRID),
                      engine="naive", seed_tops=seeds)
    assert set(fast.tops) == set(naive.tops)
    for net, (prob4, tops) in seeds.items():
        assert naive.tops[net] is tops
        assert fast.prob4[net] == prob4
    for net in naive.tops:
        for direction in ("rise", "fall"):
            p_fast, mean_fast, std_fast = fast.report(net, direction)
            p_naive, mean_naive, std_naive = naive.report(net, direction)
            assert abs(p_fast - p_naive) <= policy.abs_probability, net
            assert (p_fast > 0.0) == (p_naive > 0.0), (net, direction)
            if p_naive > 0.0:
                assert abs(mean_fast - mean_naive) <= policy.abs_mean
                assert abs(std_fast - std_naive) <= policy.abs_std


@pytest.mark.parametrize("engine", ["fast", "naive"])
def test_parity_fanin_cap_raises(engine):
    """A 12-input XOR would enumerate 4^12 assignments; both engines must
    refuse it up front and point at the decomposition fallback."""
    inputs = [f"i{k}" for k in range(12)]
    netlist = Netlist("wide_xor", inputs, ["y"],
                      [Gate("y", GateType.XOR, tuple(inputs))])
    with pytest.raises(ValueError, match="decompose_fanin"):
        run_spsta(netlist, CONFIG_I, engine=engine)


def test_parity_fanin_cap_fallback():
    """The documented escape hatch — rewriting wide gates as bounded
    fan-in trees — must run on both engines and agree bit-exactly."""
    inputs = [f"i{k}" for k in range(12)]
    netlist = Netlist("wide_xor", inputs, ["y"],
                      [Gate("y", GateType.XOR, tuple(inputs))])
    narrow = decompose_fanin(netlist, max_fanin=2)
    fast, naive = _both(narrow, CONFIG_I, UnitDelay(), MomentAlgebra)
    _assert_bitexact(fast, naive)


def test_parity_fanin_cap_override():
    """``max_parity_fanin`` lifts the guard explicitly (kept tiny here:
    4^11 enumerations would be slow, so only the bound is probed)."""
    inputs = [f"i{k}" for k in range(4)]
    netlist = Netlist("xor4", inputs, ["y"],
                      [Gate("y", GateType.XOR, tuple(inputs))])
    with pytest.raises(ValueError, match="decompose_fanin"):
        run_spsta(netlist, CONFIG_I, engine="fast", max_parity_fanin=3)
    run_spsta(netlist, CONFIG_I, engine="fast", max_parity_fanin=4)


def test_fast_engine_profile_counters():
    """The fast grid run must actually exercise the optimizations the
    profile layer counts: cached weight tables, cached kernels, FFT."""
    from repro.core.profiling import SpstaProfile

    profile = SpstaProfile()
    run_spsta(benchmark_circuit("s298"), CONFIG_I, NormalDelay(1.0, 0.1),
              GridAlgebra(GRID), engine="fast", profile=profile)
    assert profile.engine == "fast"
    assert profile.gates_processed > 0
    assert profile.levels > 0
    assert profile.subset_terms > 0
    assert profile.weight_table_hits > 0
    assert profile.kernel_cache_hits > 0
    assert profile.fft_convolutions > 0
    assert "phase seconds" in profile.render() or profile.phase_seconds
